import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    cone_faces,
    contains_caratheodory,
    densify,
    echelon,
    gen,
    kernel_dimension,
    point_signs,
    primitive_box_fan,
    rank_by_transpose,
    reference_fan_validate,
    reference_locate,
    reference_primitive_and_scale,
    relint_contains,
    stellar_fan,
    trusted_overlapping_fan,
)
from tropic import fixtures
from tropic.errors import DimMismatch, NotInSupport, ZeroDirection
from tropic.jsonio import fan_from_dict, fan_to_dict
from tropic.latticefan import (
    Cone,
    Fan,
    canonical_form,
    cone_contains,
    cone_extreme,
    cone_halfspaces,
    cone_intersection,
    cones_equal,
    double_description,
    fan_from_maximal,
    fan_validate,
    in_closure,
    in_cone,
    in_interior,
    integer_image,
    integerize,
    primitive,
    rank,
    smallest_containing_cone,
)


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    assert primitive((-3, 6, -9)) == (-1, 2, -3)  # gcd 3


def test_primitive_zero_rejected():
    with pytest.raises(ZeroDirection):
        primitive((0, 0, 0))


def test_primitive_idempotent_and_recovers_gcd():
    rng = random.Random(7)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if not any(v):
            continue
        p = primitive(v)
        assert primitive(p) == p
        d, g = reference_primitive_and_scale(v)
        assert d == p == integerize(v) and g > 0
        assert tuple(g * x for x in p) == v


def test_integerize_edge_cases():
    # integerize is the direction half of the reference scale * primitive split
    cases = {
        (-4, 6): ((-2, 3), Fraction(2)),
        (Fraction(-3, 4), 0, Fraction(9, 2)): ((-1, 0, 6), Fraction(3, 4)),
        (2, Fraction(1, 3)): ((6, 1), Fraction(1, 3)),
        (0, -5): ((0, -1), Fraction(5)),
        (Fraction(6, 4),): ((1,), Fraction(3, 2)),
        (Fraction(-1, 6), Fraction(-1, 4), 0): ((-2, -3, 0), Fraction(1, 12)),
    }
    for v, expected in cases.items():
        assert reference_primitive_and_scale(v) == expected, v
        d = integerize(v)
        assert d == expected[0], v
        assert all(type(x) is int for x in d)
    assert integerize(("1/2", 0.25, Fraction(-3, 4))) == (2, 1, -3)  # any Fraction() input
    rng = random.Random(17)

    def entry():
        return rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 8))))

    for _ in range(200):  # negative entries, zeros, and ints mixed with Fractions
        v = tuple(entry() for _ in range(rng.randint(1, 4)))
        if any(v):
            assert integerize(v) == reference_primitive_and_scale(v)[0], v
    for zero in ((0, 0), (Fraction(0), 0, 0), ()):
        for formula in (integerize, reference_primitive_and_scale):
            with pytest.raises(ZeroDirection):
                formula(zero)


def test_integer_image_scales_every_point_by_one_lcm():
    points = {"a": (Fraction(1, 6), 2), "b": (Fraction(-3, 4), Fraction(0)), 7: (5, 0)}
    m, image = integer_image(points)
    assert m == 12
    assert image == {"a": [2, 24], "b": [-9, 0], 7: [60, 0]}
    assert all(type(x) is int for q in image.values() for x in q)
    for key, p in points.items():
        assert [Fraction(x, m) for x in image[key]] == list(p)
    assert integer_image({}) == (1, {})


def test_cone_contains_examples():
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2)
    assert relint_contains(quadrant, (1, 1))
    assert not relint_contains(quadrant, (1, 0))
    narrow = Cone.from_rays([(1, 0), (1, 2)], 2)
    # (2,1) = 3/2*(1,0) + 1/2*(1,2), solved by hand
    assert cone_contains(narrow, (2, 1))


def test_cone_contains_generators_and_dim_mismatch():
    c = Cone.from_rays([(1, 0), (1, 2)], 2)
    for g in c.generators:
        assert cone_contains(c, g)
    with pytest.raises(DimMismatch):
        cone_contains(c, (1, 0, 0))


def test_containment_matches_caratheodory_oracle():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, dim + 2)):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(v):
                gens.append(v)
        if not gens:
            continue
        cone = Cone.from_rays(gens, dim)
        for _ in range(6):
            p = tuple(rng.randint(-3, 3) for _ in range(dim))
            assert cone_contains(cone, p) == contains_caratheodory(
                cone.generators, p, dim
            )


def test_relative_interiors_of_fixture_fans_are_disjoint():
    rng = random.Random(3)
    for fan in (fixtures.fan_p2(), fixtures.fan_p1xp1(), fixtures.fan_cycle3()):
        for _ in range(40):
            p = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(2))
            hits = [c for c in fan.cones if relint_contains(c, p)]
            assert len(hits) == 1
        for c in fan.cones:
            for p_gen in c.generators:
                assert cone_contains(c, p_gen)


def test_relative_interior_implies_closure():
    c = Cone.from_rays([(2, 1), (1, 3)], 2)
    for p in [(3, 4), (1, 1), (5, 5)]:
        if relint_contains(c, p):
            assert cone_contains(c, p)


def test_kernel_dimension_examples():
    assert kernel_dimension([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 0
    assert kernel_dimension([[0] * 5, [0] * 5]) == 5
    assert kernel_dimension([[1, 1, 0], [2, 2, 0]]) == 2  # rank 1


def test_kernel_dimension_against_transposed_elimination():
    rng = random.Random(23)
    for _ in range(100):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert kernel_dimension(rows) == ncols - rank_by_transpose(rows)


def test_bareiss_rank_matches_fraction_echelon():
    rng = random.Random(41)
    for trial in range(1500):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 6)
        if trial % 2 == 0:  # often rank-deficient: product of two thin random factors
            k = rng.randint(0, min(nrows, ncols))
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
            right = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
                     for _ in range(k)]
            rows = [[Fraction(sum(left[i][t] * right[t][j] for t in range(k)))
                     for j in range(ncols)] for i in range(nrows)]
        else:  # full random, with some all-zero columns
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(ncols)]
                    for _ in range(nrows)]
            for j in range(ncols):
                if rng.random() < 0.2:
                    for row in rows:
                        row[j] = Fraction(0)
        assert rank(rows) == len(echelon(rows)[1]), rows
        assert rank([[int(x * 60) for x in row] for row in rows]) == rank(rows)


def test_rank_matches_echelon_on_cycle_closing_matrices():
    # the sparse matrices superabundance reduces: full rank in R^2, and in R^3
    # short by the genus, since the honeycomb lies in a plane
    from tropic.curves import TropicalCurve
    from tropic.defspace import combinatorial_type, cycle_closing_matrix
    from tropic.latticefan import _sparse_rank

    rng = random.Random(17)
    for dim in (2, 3):
        for d in range(3, 10):
            offset = (Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 5))
            curve = TropicalCurve.build(*gen.honeycomb(d, dim, offset))
            sparse = cycle_closing_matrix(combinatorial_type(curve))
            closing = densify(sparse, len(curve.edges))
            g = (d - 1) * (d - 2) // 2
            assert len(closing) == dim * g
            assert rank(closing) == len(echelon(closing)[1]) == 2 * g, (dim, d)
            assert _sparse_rank(sparse) == 2 * g, (dim, d)  # superabundance's call


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], 0),
        ([[0, 0, 0], [0, 0, 0]], 0),
        ([[0, 3, 0], [0, -6, 0], [0, 0, 0]], 1),  # zero columns around one pivot
        ([[1, 2, 3], [1, 2, 3], [1, 2, 3]], 1),  # duplicate rows
        # the last row is r1 - r2 + r3: zero only after three pivots
        ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], 3),
        ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]], 4),
        ([[Fraction(1, 2), 1], [1, 2]], 1),  # mixed Fraction and int rows
        ([[Fraction(1, 3), Fraction(2, 3), 0], [2, 4, 1], [0, 0, Fraction(5, 7)]], 2),
        ([[-2, 4], [3, -6]], 1),  # negative leading entries
        ([[-3, 1], [-2, 5]], 2),
        ([[0, -4, 6], [-2, 1, 0], [-2, -3, 6]], 2),
    ],
)
def test_rank_hand_cases(rows, expected):
    assert rank(rows) == expected == len(echelon(rows)[1])


def test_rank_refuses_rows_of_unequal_length():
    with pytest.raises(DimMismatch):
        rank([[1, 2], [1, 2, 3]])


def test_fan_p2_valid():
    report = fan_validate(fixtures.fan_p2())
    assert report.valid


def test_overlapping_cones_reported():
    cones = set()
    for gens in [[(1, 0), (1, 2)], [(1, 1), (0, 1)]]:
        cones.add(Cone.from_rays(gens, 2))
        for g in gens:
            cones.add(Cone.from_rays([g], 2))
    cones.add(Cone((), 2))
    fan = Fan.build(cones, 2)
    report = fan_validate(fan)
    assert not report.valid
    assert report.violations[0].code == "NonFaceIntersection"
    # the offending overlap: intersection of the two 2-cones is cone{(1,1),(1,2)}
    inter = cone_intersection(
        Cone.from_rays([(1, 0), (1, 2)], 2), Cone.from_rays([(1, 1), (0, 1)], 2)
    )
    assert cones_equal(inter, Cone.from_rays([(1, 1), (1, 2)], 2))


def test_missing_origin_breaks_face_closure():
    fan = Fan.build([Cone.from_rays([(1, 0)], 2)], 2)
    report = fan_validate(fan)
    assert not report.valid
    assert report.violations[0].code == "FaceClosureViolated"


def test_face_closure_reaches_below_the_facets():
    # every facet of the octant is listed, but not the ray e1, a face of two
    # of them; and the same cones with every ray but without the origin
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    octant = [Cone.from_rays(rays, 3) for rays in ([e1, e2, e3], [e1, e2], [e1, e3], [e2, e3])]
    no_e1 = Fan.build(octant + [Cone.from_rays([e], 3) for e in (e2, e3)] + [Cone((), 3)], 3)
    no_origin = Fan.build(octant + [Cone.from_rays([e], 3) for e in (e1, e2, e3)], 3)
    for fan, missing in ((no_e1, "facet ((1, 0, 0))"), (no_origin, "facet ()")):
        report = fan_validate(fan)
        assert _verdict(report) == _verdict(reference_fan_validate(fan)) == (
            False, "FaceClosureViolated")
        assert report.violations[0].detail.startswith(missing + " of cone ")


def test_trusted_fan_is_still_validated():
    # fan_validate checks whatever it is given, however many cones it has
    report = fan_validate(trusted_overlapping_fan())
    assert report.violations[0].code == "NonFaceIntersection"


def test_smallest_containing_cone_on_p2():
    fan = fixtures.fan_p2()
    assert smallest_containing_cone(fan, (5, 7)).generators == ((0, 1), (1, 0))
    assert smallest_containing_cone(fan, (0, 0)).generators == ()
    assert smallest_containing_cone(fan, (-2, -2)).generators == ((-1, -1),)
    with pytest.raises(DimMismatch, match=r"^point of dim 3 vs fan in dim 2$"):
        smallest_containing_cone(fan, (1, 2, 3))


def test_not_in_support():
    incomplete = fan_from_maximal([(1, 0), (0, 1)], [[0, 1]], 2)
    with pytest.raises(NotInSupport, match=r"point \(-1/2, -1\) is not"):
        smallest_containing_cone(incomplete, (Fraction(-1, 2), -1))
    huge = Fraction(1, 7 ** 3000)  # a denominator of 2,536 digits
    with pytest.raises(NotInSupport) as info:
        smallest_containing_cone(incomplete, (-huge, -huge))
    assert len(info.value.message) < 120


def _locate_outcome(locate, fan, p):
    try:
        return locate(fan, p)
    except NotInSupport:
        return NotInSupport


def _test_points(rng, fan):
    """The origin, a point in the relative interior of every cone (its rays and
    walls among them), points on every hyperplane of the fan (extensions of
    walls included) and random rational points, with small denominators."""
    dim = fan.ambient_dim

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    points = [(0,) * dim]
    for c in fan.cones:
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in c.generators]
        points.append(tuple(sum((w * g[i] for w, g in zip(weights, c.generators)), Fraction(0))
                            for i in range(dim)))
    for n in fan.hyperplanes:
        v = tuple(rational() for _ in range(dim))
        t = Fraction(sum(a * b for a, b in zip(n, v)), sum(a * a for a in n))
        points.append(tuple(a - t * b for a, b in zip(v, n)))
    points += [tuple(rational() for _ in range(dim)) for _ in range(60)]
    return points


def _memo_fans():
    fans = [fn() for fn in fixtures.FANS.values()]
    fans += [primitive_box_fan(), trusted_overlapping_fan()]  # the last is not a fan
    fans += [fan_from_maximal(*gen.rich_fan_r2()), fan_from_maximal(*gen.rich_fan_r3())]
    rays, maximal, dim = gen.rich_fan_r3()
    fans.append(fan_from_maximal(rays, maximal[:20], dim))  # incomplete
    return fans


def test_sign_vector_memo_matches_linear_scan():
    rng = random.Random(11)
    for fan in _memo_fans():
        points = _test_points(rng, fan)
        rng.shuffle(points)
        expected = [_locate_outcome(reference_locate, fan, p) for p in points]
        for _ in range(2):  # the second pass is answered from the memo
            for p, cone in zip(points, expected):
                assert _locate_outcome(smallest_containing_cone, fan, p) == cone, (fan, p)
        # at most one entry per sign vector seen, and misses are not kept
        assert 0 < len(fan._located) <= sum(cone is not NotInSupport for cone in expected)


def test_sign_patterns_match_the_point_oracle():
    # cone by cone, a point's sign vector conforms to a cone's pattern exactly
    # when the point lies in the cone's relative interior, or in the closed
    # cone; in_cone holds two sign vectors exactly when the closed cone holds
    # both points, and no cone (None) holds any
    rng = random.Random(13)
    checked, pairs = Counter(), Counter()
    for fan in _memo_fans():
        points = _test_points(rng, fan)
        for p in rng.sample(points, min(len(points), 80)):
            q = rng.choice(points)
            s, t = point_signs(fan, p), point_signs(fan, q)
            for i, (c, pattern) in enumerate(zip(fan.cones, fan.patterns)):
                inside = relint_contains(c, p)
                closed = cone_contains(c, p)
                assert in_interior(pattern, s) == inside, (c, p)
                assert in_closure(pattern, s) == closed, (c, p)
                checked[inside, closed] += 1
                both = closed and cone_contains(c, q)
                assert in_cone(fan, i, s, t) == both, (c, p, q)
                pairs[both, closed] += 1
            assert not in_cone(fan, None, s, t) and not in_cone(fan, None, s, s)
    assert min(checked[True, True], checked[False, True], checked[False, False]) >= 500
    assert min(pairs[True, True], pairs[False, True], pairs[False, False]) >= 200, pairs


def test_sign_vector_memo_misses_outside_an_incomplete_fan():
    fan = fan_from_maximal([(1, 0), (0, 1)], [[0, 1]], 2)
    for p in [(-1, -1), (-1, 0), (3, -1), (-1, -1)]:
        with pytest.raises(NotInSupport):
            smallest_containing_cone(fan, p)
        with pytest.raises(NotInSupport):
            reference_locate(fan, p)
    assert fan._located == {}
    assert smallest_containing_cone(fan, (1, 0)).generators == ((1, 0),)
    assert list(fan._located.values()) == [fan.cones.index(Cone(((1, 0),), 2))]


def test_halfspaces_of_halfplane_and_faces():
    halfplane = Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    h = cone_halfspaces(halfplane)
    assert h.equations == ()
    assert h.inequalities == ((0, 1),)
    faces = cone_faces(halfplane)
    assert len(faces) == 2  # the boundary line and the halfplane itself


def test_double_description_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        dim = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, dim + 2)):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(v):
                gens.append(v)
        if not gens:
            continue
        cone = Cone.from_rays(gens, dim)
        h = cone_halfspaces(cone)
        lin, rays = double_description(h.equations, h.inequalities, dim)
        rebuilt = Cone.from_rays(
            list(rays) + [b for v in lin for b in (v, tuple(-x for x in v))], dim
        )
        assert cones_equal(cone, rebuilt)


def test_cone_extreme_takes_independent_generators_as_they_are():
    # the shortcut for independent generators gives what double dualization gives
    rng = random.Random(7)
    shortcut = 0
    for _ in range(400):
        dim = rng.randint(1, 4)
        gens = [v for v in (tuple(rng.randint(-2, 2) for _ in range(dim))
                            for _ in range(rng.randint(0, dim + 1))) if any(v)]
        cone = Cone.from_rays(gens, dim)
        h = cone_halfspaces(cone)
        assert cone_extreme(cone) == double_description(h.equations, h.inequalities, dim), cone
        shortcut += rank(cone.generators) == len(cone.generators)
    assert min(shortcut, 400 - shortcut) >= 50  # both kinds of cone are drawn


def test_cone_equality_ignores_redundant_generators():
    assert cones_equal(
        Cone.from_rays([(1, 0), (0, 1), (1, 1)], 2), Cone.from_rays([(1, 0), (0, 1)], 2)
    )
    assert not cones_equal(
        Cone.from_rays([(1, 0), (1, 1)], 2), Cone.from_rays([(1, 0), (0, 1)], 2)
    )


def _nonzero(rng, vectors, bound=2):
    """A nonzero random integer combination of ``vectors``."""
    while True:
        cs = [rng.randint(-bound, bound) for _ in vectors]
        v = tuple(sum(c * w[i] for c, w in zip(cs, vectors)) for i in range(len(vectors[0])))
        if any(v):
            return v


def _rewrite(rng, lin, rays, dim):
    """Another description of span(lin) + cone(rays): lin recombined by an
    invertible integer matrix, each ray scaled and shifted by a vector of span(lin)."""
    while True:
        m = [[rng.randint(-2, 2) for _ in lin] for _ in lin]
        if rank(m) == len(lin):
            break

    def combination(cs):
        return tuple(sum(c * v[i] for c, v in zip(cs, lin)) for i in range(dim))

    other_rays = []
    for r in rays:
        shift, s = combination([rng.randint(-2, 2) for _ in lin]), rng.randint(1, 3)
        other_rays.append(tuple(s * (x + y) for x, y in zip(r, shift)))
    return [combination(row) for row in m], other_rays


def _cone_pair(rng, dim):
    """Generators of a cone span(L) + cone(P) inside a random subspace, and of
    a rewriting of it (``_rewrite``, plus nonnegative combinations) that is
    the same point set.  A third of the rewrites then lose or replace one
    generator."""
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    space = [_nonzero(rng, units) for _ in range(rng.randint(1, dim))]
    lin = [_nonzero(rng, space, 1) for _ in range(rng.randint(0, len(space)))]
    pointed = [_nonzero(rng, space, 1) for _ in range(rng.randint(0, 3))]
    a = pointed + lin + [tuple(-x for x in v) for v in lin]
    lin_b, pointed_b = _rewrite(rng, lin, pointed, dim)
    b = pointed_b + lin_b + [tuple(-x for x in v) for v in lin_b]
    for _ in range(rng.randint(0, 2)):
        b.append(tuple(sum(rng.randint(0, 2) * g[i] for g in a) for i in range(dim)))
    b = [v for v in b if any(v)]
    if b and rng.random() < 1 / 3:
        b[rng.randrange(len(b))] = _nonzero(rng, space)
    elif b and rng.random() < 1 / 2:
        b.pop(rng.randrange(len(b)))
    rng.shuffle(b)
    return Cone.from_rays(a, dim), Cone.from_rays(b, dim)


def test_canonical_form_matches_mutual_containment():
    rng = random.Random(2024)
    outcomes = {}
    for trial in range(360):
        a, b = _cone_pair(rng, 2 + trial % 3)
        same = all(cone_contains(a, g) for g in b.generators) and all(
            cone_contains(b, g) for g in a.generators
        )
        assert (canonical_form(a) == canonical_form(b)) == same, (a, b)
        key = (same, bool(canonical_form(a)[1]))
        outcomes[key] = outcomes.get(key, 0) + 1
    # equal and unequal pairs, with and without lineality, are all well represented
    assert min(outcomes.get((same, lin), 0) for same in (True, False) for lin in (True, False)) >= 40


def test_canonical_form_ignores_which_lineality_basis_and_rays_are_returned(monkeypatch):
    # double description happens to return the same description for equal
    # cones, so the key is also fed other valid descriptions of the same cone
    from tropic import latticefan

    rng = random.Random(2025)
    checked = 0
    for trial in range(300):
        cone, _ = _cone_pair(rng, 2 + trial % 3)
        lin, rays = latticefan.cone_extreme(cone)
        if not lin:
            continue
        key = canonical_form(cone)
        other = _rewrite(rng, lin, rays, cone.ambient_dim)
        monkeypatch.setattr(latticefan, "cone_extreme", lambda c: tuple(map(tuple, other)))
        assert canonical_form(cone) == key, (cone, other)
        monkeypatch.undo()
        checked += 1
    assert checked >= 100


def _lineality_fans():
    """{x-axis line, upper, lower half-plane}, and the same with the origin cone."""
    line = Cone.from_rays([(1, 0), (-1, 0)], 2)
    upper = Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    lower = Cone.from_rays([(1, 0), (-1, 0), (0, -1)], 2)
    return Fan.build([line, upper, lower], 2), Fan.build([Cone((), 2), line, upper, lower], 2)


def test_fan_validate_on_a_fan_with_lineality():
    without_origin, with_origin = _lineality_fans()
    assert fan_validate(without_origin).valid
    # the line is the minimal face of both half-planes; the origin is no face
    # of any cone, so it is maximal and is intersected with the lower half-plane
    report = fan_validate(with_origin)
    assert [(v.code, v.detail) for v in report.violations] == [(
        "NonFaceIntersection",
        "cones () and ((-1, 0), (0, -1), (1, 0)) meet in (), which is not a common face",
    )]


def _listed_twice() -> Fan:
    """fan_p2 read from a file that lists one maximal cone twice (a file's
    cones are kept as listed)."""
    doc = fan_to_dict(fixtures.fan_p2())
    doc["cones"].append(doc["cones"][-1])
    return fan_from_dict(doc)


def _degenerate_fans() -> list[Fan]:
    """A maximal cone listed twice, no cones, the origin alone, and R^1."""
    line = Fan.build([Cone((), 1), Cone.from_rays([(1,)], 1), Cone.from_rays([(-1,)], 1)], 1)
    return [_listed_twice(), Fan((), 2), Fan.build([Cone((), 2)], 2), line]


def _random_fan(rng, dim):
    """Face closure of random simplicial cones on a few small rays; a quarter of
    the fans also hold the x-axis as a line."""
    rays = sorted({primitive(v) for v in (tuple(rng.randint(-2, 2) for _ in range(dim))
                                          for _ in range(dim + 3)) if any(v)})
    maximal = [idx for idx in (rng.sample(range(len(rays)), min(len(rays), rng.randint(1, dim)))
                               for _ in range(rng.randint(1, 4)))
               if rank([rays[i] for i in idx]) == len(idx)]
    fan = fan_from_maximal(rays, maximal, dim)
    if rng.random() < 0.25:
        axis = tuple(int(i == 0) for i in range(dim))
        fan = Fan.build(fan.cones + (Cone.from_rays([axis, tuple(-x for x in axis)], dim),), dim)
    return fan


def _verdict(report):
    return report.valid, report.violations[0].code if report.violations else None


def test_fan_validate_matches_all_pairs_reference():
    # intersecting maximal cones only gives the verdict of intersecting every pair
    rng = random.Random(41)
    named = [fn() for fn in fixtures.FANS.values()]
    named += [trusted_overlapping_fan(), primitive_box_fan(), *_lineality_fans()]
    named += _degenerate_fans()
    random_fans = [_random_fan(rng, 2 + trial % 2) for trial in range(360)]
    outcomes = {}
    for fan in named + random_fans:
        verdict = _verdict(fan_validate(fan))
        assert verdict == _verdict(reference_fan_validate(fan)), fan
        outcomes[verdict] = outcomes.get(verdict, 0) + 1
    assert outcomes[(True, None)] >= 100 and outcomes[(False, "NonFaceIntersection")] >= 100


def _count_intersections(monkeypatch) -> list:
    from tropic import latticefan

    pairs = []
    real = latticefan.cone_intersection
    monkeypatch.setattr(latticefan, "cone_intersection", lambda a, b: pairs.append(1) or real(a, b))
    return pairs


def test_fan_validate_intersects_only_maximal_cones(monkeypatch):
    pairs = _count_intersections(monkeypatch)
    box = primitive_box_fan()  # 33 cones, 16 of them two-dimensional
    incomplete = Fan.build(box.cones[:-1], 2)  # the last cone is two-dimensional
    assert fan_validate(incomplete).valid
    assert (len(incomplete.cones), len(pairs)) == (32, 15 * 14 // 2)
    # complete simplicial fans are decided by their walls, with no intersection
    twice = _listed_twice()
    assert len(twice.cones) == len(set(twice.cones)) + 1
    rich = [fan_from_maximal(*spec) for spec in (gen.rich_fan_r2(), gen.rich_fan_r3())]
    for fan in (box, twice, *rich):
        pairs.clear()
        assert fan_validate(fan).valid and not pairs


def test_face_closure_keys_each_cone_once_and_each_facet_of_a_distinct_cone_once(monkeypatch):
    from tropic import latticefan

    keyed = []
    real = latticefan.canonical_form
    monkeypatch.setattr(latticefan, "canonical_form", lambda c: keyed.append(c) or real(c))
    fan = fan_from_maximal(*gen.rich_fan_r3())
    assert fan_validate(fan).valid
    facets = sum(len(cone_halfspaces(c).inequalities) for c in fan.cones)
    assert (len(fan.cones), facets, len(keyed)) == (147, 314, 461)
    # a cone listed twice is keyed twice, and its facets once
    keyed.clear()
    assert fan_validate(Fan(fan.cones + fan.cones[-1:], fan.ambient_dim)).valid
    assert len(keyed) == 462


def _mutations(rng, rays, maximal, dim) -> dict:
    """The complete fan and four changes to it, each a fan_from_maximal spec."""
    out = {"complete": (rays, maximal), "dropped": (rays, maximal[1:])}
    cones = {frozenset(idx) for idx in maximal}
    crossing = [idx for idx in (rng.sample(range(len(rays)), dim) for _ in range(50))
                if frozenset(idx) not in cones and rank([rays[i] for i in idx]) == dim]
    if crossing:  # a new cone on existing rays
        out["crossed"] = (rays, maximal + crossing[:1])
    if dim == 3:  # put a new ray inside one wall of the first cone, on its side only
        first, *rest = maximal
        g, wall = first[0], first[1:]
        v = primitive(tuple(map(sum, zip(*(rays[i] for i in wall)))))
        out["one-sided"] = (rays + [v], rest + [[g, len(rays), w] for w in wall])
    negated = [tuple(-x for x in r) for r in rays]
    out["negated"] = (rays + negated, maximal + [[i + len(rays) for i in m] for m in maximal])
    return out


def _points(rng, fan, count):
    """Random rational points, and points on random faces of the maximal cones."""
    dim = fan.ambient_dim
    tops = [c for c in fan.cones if len(c.generators) == dim]
    for _ in range(count):
        yield tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
        gens = rng.choice(tops).generators
        weights = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) * rng.randint(0, 1) for _ in gens]
        yield tuple(sum(w * g[k] for w, g in zip(weights, gens)) for k in range(dim))


def test_fan_validate_decides_complete_fans_by_walls(monkeypatch):
    # seeded complete fans: all-pairs verdicts, no intersection, and every point
    # in the relative interior of exactly one cone
    pairs = _count_intersections(monkeypatch)
    rng = random.Random(43)
    outcomes = Counter()
    # fan_p2 itself: its union with its negative pairs every wall but covers every point twice
    specs = [gen.fan_p2()] + [stellar_fan(rng, gen.fan_p2(), rng.randint(1, 4)) for _ in range(6)]
    specs += [stellar_fan(rng, gen.fan_p2_r3(), rng.randint(1, 3)) for _ in range(5)]
    for rays, maximal, dim in specs:
        for kind, (rays_k, maximal_k) in _mutations(rng, rays, maximal, dim).items():
            fan = fan_from_maximal(rays_k, maximal_k, dim)
            pairs.clear()
            verdict = _verdict(fan_validate(fan))
            by_walls = not pairs
            assert verdict == _verdict(reference_fan_validate(fan)), (kind, rays_k, maximal_k)
            outcomes[kind, verdict, by_walls] += 1
            if verdict[0] and by_walls:
                for p in _points(rng, fan, 10):
                    hits = [c for c in fan.cones if relint_contains(c, p)]
                    assert len(hits) == 1, (kind, p, hits)
    valid, overlap = (True, None), (False, "NonFaceIntersection")
    assert outcomes == {
        ("complete", valid, True): 12,
        ("dropped", valid, False): 12,  # incomplete: its boundary walls are facets of one cone
        ("crossed", overlap, True): 11,  # fan_p2 has no pair of rays that is not a cone
        ("one-sided", overlap, False): 5,
        ("negated", overlap, True): 12,
    }


def test_halfspaces_desk_scale_guard():
    from tropic.errors import DeskScaleExceeded

    big = Cone.from_rays([tuple(1 if i == j else 0 for j in range(7)) for i in range(7)], 7)
    with pytest.raises(DeskScaleExceeded):
        cone_halfspaces(big)


def test_facet_normals_are_tight_on_codim_one_faces():
    rng = random.Random(41)
    for _ in range(25):
        dim = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(dim, dim + 3)):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(v):
                gens.append(v)
        if not gens:
            continue
        cone = Cone.from_rays(gens, dim)
        cone_rank = rank(cone.generators)
        h = cone_halfspaces(cone)
        for f in h.inequalities:
            assert all(
                sum(a * b for a, b in zip(f, g)) >= 0 for g in cone.generators
            )
            tight = [g for g in cone.generators if sum(a * b for a, b in zip(f, g)) == 0]
            assert tight and rank(tight) == cone_rank - 1


def test_star_and_recession_fans_are_valid():
    from tropic import fixtures
    from tropic.curves import recession_fan, star

    for name in ("tripod", "segfan", "cycle3", "speyer3"):
        c = fixtures.CURVES[name]()
        assert fan_validate(recession_fan(c)).valid, name
        for v in c.vertices:
            assert fan_validate(star(c, v).fan).valid, (name, v)


def test_faces_are_faces_and_closed_under_faces():
    rng = random.Random(61)
    from tropic.latticefan import is_face_of

    for _ in range(15):
        dim = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, dim + 2)):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(v):
                gens.append(v)
        if not gens:
            continue
        cone = Cone.from_rays(gens, dim)
        faces = cone_faces(cone)
        keys = {f.generators for f in faces}
        for face in faces:
            assert is_face_of(face, cone)
            for sub in cone_faces(face):
                assert sub.generators in keys  # transitivity of the face lattice


def test_fan_caches_are_no_field():
    for name, fn in fixtures.FANS.items():
        f = fn()
        f.patterns  # fills hyperplanes and patterns
        assert {"hyperplanes", "patterns"} <= vars(f).keys(), name
        rebuilt = Fan(f.cones, f.ambient_dim)
        assert vars(rebuilt) == {}
        assert rebuilt == f and hash(rebuilt) == hash(f) and len({f, rebuilt}) == 1, name
        assert rebuilt.hyperplanes == f.hyperplanes and rebuilt.patterns == f.patterns
        built = [Fan.build(cones, f.ambient_dim) for cones in (f.cones, f.cones[::-1])]
        assert built[0] == built[1] and hash(built[0]) == hash(built[1])
