import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    as_signs,
    check_cells,
    cone_faces,
    cones_equal,
    contains_caratheodory,
    densify,
    echelon,
    gen,
    holds_line,
    in_closure,
    in_interior,
    is_face_of,
    kernel_dimension,
    point_signs,
    primitive_box_fan,
    rank_by_transpose,
    reference_canonical_form,
    reference_cell,
    reference_fan_validate,
    reference_intersection,
    reference_locate,
    reference_primitive_and_scale,
    relint_contains,
    sign_patterns,
    stellar_fan,
    trusted_overlapping_fan,
)
from tropic import fixtures
from tropic.errors import DimMismatch, NotInSupport, ZeroDirection
from tropic.jsonio import fan_from_dict, fan_to_dict
from tropic.latticefan import (
    Cone,
    Fan,
    _locate,
    canonical_form,
    cone_contains,
    cone_extreme,
    cone_halfspaces,
    direction_values,
    double_description,
    fan_from_maximal,
    fan_validate,
    hyperplane_values,
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
    assert image == {"a": (2, 24), "b": (-9, 0), 7: (60, 0)}  # tuples, as a rescaled curve's
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


def test_rank_matches_echelon_on_edge_equations():
    # the deformation cone's edge equations, whose rank superabundance takes:
    # translations leave n(V - 1) for the positions, and each of the g cycles
    # adds 2, in R^3 too, since the honeycomb lies in a plane
    from tropic.curves import TropicalCurve
    from tropic.defspace import _equations, combinatorial_type
    from tropic.latticefan import _echelon

    rng = random.Random(17)
    for dim in (2, 3):
        for d in range(3, 10):
            offset = (Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 5))
            t = combinatorial_type(TropicalCurve.build(*gen.honeycomb(d, dim, offset)))
            nvertices, g = len(t.vertices), (d - 1) * (d - 2) // 2
            sparse = _equations(t, {v: dim * k for k, v in enumerate(t.vertices)}, dim * nvertices)
            dense = densify(sparse, dim * nvertices + len(t.edges))
            assert len(dense) == dim * len(t.edges)
            assert len(_echelon(sparse)) == rank(dense) == dim * (nvertices - 1) + 2 * g, (dim, d)
            assert len(echelon(dense)[1]) == rank(dense)


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
    # the offending overlap: intersection of the two 2-cones is cone{(1,1),(1,2)}
    assert [(v.code, v.detail) for v in report.violations] == [(
        "NonFaceIntersection",
        "cones ((0, 1), (1, 1)) and ((1, 0), (1, 2)) meet in ((1, 1), (1, 2)), "
        "which is not a common face",
    )]
    inter = reference_intersection(
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
        # one cell per sign vector seen, misses included, each the pattern scan's
        keys = {hyperplane_values(fan, integer_image({0: p})[1])[1][0] for p in points}
        assert fan._located.keys() == keys and check_cells(fan) == len(keys)
        misses = [cell for cell in fan._located.values() if cell[0] is None]
        assert len(misses) == len({point_signs(fan, p) for p, cone in zip(points, expected)
                                   if cone is NotInSupport})


def test_sign_patterns_match_the_point_oracle():
    # cone by cone, a point's sign vector conforms to a cone's pattern exactly
    # when the point lies in the cone's relative interior, or in the closed
    # cone; the closed cone holds two sign vectors exactly when it holds both
    # points (the pair verify_certificate checks per piece)
    rng = random.Random(13)
    checked, pairs = Counter(), Counter()
    for fan in _memo_fans():
        points = _test_points(rng, fan)
        for p in rng.sample(points, min(len(points), 80)):
            q = rng.choice(points)
            s, t = point_signs(fan, p), point_signs(fan, q)
            for c, pattern in zip(fan.cones, sign_patterns(fan)):
                inside = relint_contains(c, p)
                closed = cone_contains(c, p)
                assert in_interior(pattern, s) == inside, (c, p)
                assert in_closure(pattern, s) == closed, (c, p)
                checked[inside, closed] += 1
                both = closed and cone_contains(c, q)
                assert (in_closure(pattern, s) and in_closure(pattern, t)) == both, (c, p, q)
                pairs[both, closed] += 1
    assert min(checked[True, True], checked[False, True], checked[False, False]) >= 500
    assert min(pairs[True, True], pairs[False, True], pairs[False, False]) >= 200, pairs


def _oracle_fans() -> dict:
    fans = {name: fn() for name, fn in fixtures.FANS.items()}
    fans["rich_r2"] = fan_from_maximal(*gen.rich_fan_r2())
    rays, maximal, dim = gen.rich_fan_r3()
    fans["rich_r3"] = fan_from_maximal(rays, maximal, dim)
    fans["rich_r3_part"] = fan_from_maximal(rays, maximal[:20], dim)  # incomplete
    return fans


def _lattice_points(rng, fan):
    """The origin, integer points on every hyperplane of the fan (its walls
    among them), integer points in the relative interior of every cone and
    random integer points."""
    dim = fan.ambient_dim
    points = [(0,) * dim]
    for n in fan.hyperplanes:
        v = [rng.randint(-9, 9) for _ in range(dim)]
        nn, nv = sum(x * x for x in n), sum(x * y for x, y in zip(n, v))
        points.append(tuple(nn * x - nv * y for x, y in zip(v, n)))  # on n.x = 0
    for c in fan.cones:
        weights = [rng.randint(1, 5) for _ in c.generators]
        points.append(tuple(sum(w * g[i] for w, g in zip(weights, c.generators))
                            for i in range(dim)))
    points += [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(40)]
    return points


def test_mask_location_and_closure_equal_the_pattern_scan():
    # on every fixture fan, both rich fans and part of one, seeded lattice
    # points (the origin, points on the walls and their extensions, the
    # relative interior of every cone) and rational points: a point's mask
    # pair spells its sign vector from Fraction dot products, and its cell
    # (_locate: the first cone whose relative interior holds it and its
    # closure mask), cold and then from the memo, equals the scan of each
    # cone's (hyperplane, sign) pattern; so does the cell of each random sign
    # vector, which no point need have
    rng, seen = random.Random(17), Counter()
    for name, fan in _oracle_fans().items():
        patterns, size = sign_patterns(fan), len(fan.hyperplanes)
        points = _lattice_points(rng, fan) + _test_points(rng, fan)
        keys = [hyperplane_values(fan, integer_image({0: p})[1])[1][0] for p in points]
        for p, key in zip(points, keys):
            assert as_signs(key, size) == point_signs(fan, p), (name, p)
        for _ in range(40):
            pos = rng.getrandbits(size)
            keys.append((pos, rng.getrandbits(size) & ~pos))
        for _ in range(2):
            for key in keys:
                cell = reference_cell(fan, key, patterns)
                assert _locate(fan, key) == cell, (name, as_signs(key, size))
                seen[name, cell[0] is not None] += 1
    assert all(seen[name, True] >= 100 for name in _oracle_fans()), seen
    assert seen["rich_r3_part", False] >= 100, seen  # points outside its support


def test_fan_tables_orient_each_distinct_normal_once(monkeypatch):
    # hyperplanes and the cone bitsets are built in one pass, which orients
    # each distinct span equation and facet normal once, although the cones
    # share most of them
    from tropic import latticefan

    calls = []

    def counting(n, real=latticefan._oriented):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(latticefan, "_oriented", counting)
    for name, fan in _oracle_fans().items():
        normals = [n for h in map(cone_halfspaces, fan.cones) for n in h.equations + h.inequalities]
        calls.clear()
        assert fan.hyperplanes and _locate(fan, (0, 0))[0] is not None and _locate(fan, (1, 0))[1]
        assert sorted(calls) == sorted(set(normals)), name
        if name.startswith("rich"):
            assert len(calls) < len(normals) / 3, (name, len(calls), len(normals))


def test_sign_vector_memo_misses_outside_an_incomplete_fan():
    # a miss is kept as (None, its closure mask), once per sign vector ((3, -1)
    # and (1, -1) share one): here no closed cone holds a point that no
    # relative interior holds, so every mask the pattern scan gives is 0
    fan = fan_from_maximal([(1, 0), (0, 1)], [[0, 1]], 2)
    points = [(-1, -1), (-1, 0), (3, -1), (-1, -1), (1, -1)]
    for p in points:
        with pytest.raises(NotInSupport):
            smallest_containing_cone(fan, p)
        with pytest.raises(NotInSupport):
            reference_locate(fan, p)
    assert len(fan._located) == len({point_signs(fan, p) for p in points}) == 3
    assert all(index is None for index, _ in fan._located.values()) and check_cells(fan) == 3
    assert _locate(fan, hyperplane_values(fan, {0: (-1, 0)})[1][0]) == (None, 0)
    assert smallest_containing_cone(fan, (1, 0)).generators == ((1, 0),)
    ray = fan.cones.index(Cone(((1, 0),), 2))
    quadrant = fan.cones.index(Cone(((0, 1), (1, 0)), 2))
    assert list(fan._located.values())[-1] == (ray, 1 << ray | 1 << quadrant)
    assert check_cells(fan) == 4


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


def _cone_pair(rng, dim):
    """Generators of a cone inside a random subspace, and of a rewriting of it
    (each generator scaled, plus nonnegative combinations) that is the same
    point set.  A third of the rewrites then lose or replace one generator."""
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    space = [_nonzero(rng, units) for _ in range(rng.randint(1, dim))]
    a = [_nonzero(rng, space, 1) for _ in range(rng.randint(0, 4))]
    b = [tuple(rng.randint(1, 3) * x for x in g) for g in a]
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
    # keys are for pointed cones, so pairs with a line are drawn again
    rng = random.Random(2024)
    outcomes = Counter()
    while sum(outcomes.values()) < 360:
        a, b = _cone_pair(rng, 2 + sum(outcomes.values()) % 3)
        if holds_line(a) or holds_line(b):
            continue
        same = all(cone_contains(a, g) for g in b.generators) and all(
            cone_contains(b, g) for g in a.generators
        )
        assert (canonical_form(a) == canonical_form(b)) == same, (a, b)
        assert all(canonical_form(x) == reference_canonical_form(x) for x in (a, b)), (a, b)
        outcomes[same] += 1
    # equal and unequal pairs are both well represented
    assert min(outcomes[True], outcomes[False]) >= 100, outcomes


def test_fan_validate_refuses_an_ambient_dimension_below_one():
    # as curves do; checked before the cones, so a cone of another dimension is not named
    for f in (Fan((Cone((), -1),), -1), Fan((), 0), Fan((Cone(((1,),), 1),), 0)):
        report = fan_validate(f)
        assert [(v.code, v.detail) for v in report.violations] == [
            ("DimMismatch", f"ambient dimension {f.ambient_dim} < 1")], f


def _lineality_fans():
    """{x-axis line, upper, lower half-plane}, and the same with the origin cone."""
    line = Cone.from_rays([(1, 0), (-1, 0)], 2)
    upper = Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    lower = Cone.from_rays([(1, 0), (-1, 0), (0, -1)], 2)
    return Fan.build([line, upper, lower], 2), Fan.build([Cone((), 2), line, upper, lower], 2)


def test_fan_validate_on_a_fan_with_lineality():
    # a toric variety's fan has pointed cones: the first cone with a line is named
    for fan in _lineality_fans():
        report = fan_validate(fan)
        assert [(v.code, v.detail) for v in report.violations] == [(
            "NotStronglyConvex", "cone ((-1, 0), (1, 0)) contains the line through (1, 0)")]


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
    the fans also hold the x-axis as a line, which makes them no fan."""
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
    random_fans = [_random_fan(rng, 2 + trial % 2) for trial in range(960)]
    outcomes = {}
    for fan in named + random_fans:
        verdict = _verdict(fan_validate(fan))
        assert verdict == _verdict(reference_fan_validate(fan)), fan
        outcomes[verdict] = outcomes.get(verdict, 0) + 1
    assert min(outcomes[True, None], outcomes[False, "NonFaceIntersection"],
               outcomes[False, "NotStronglyConvex"]) >= 100, outcomes


def _count_intersections(monkeypatch) -> list:
    """The double descriptions that fan_validate runs itself, one per pair of maximal
    cones it intersects; every other one runs in cone_halfspaces or cone_extreme."""
    from tropic import latticefan

    pairs = []
    real, caller = latticefan.double_description, latticefan.fan_validate.__code__

    def counting(*args):
        if sys._getframe(1).f_code is caller:
            pairs.append(args)
        return real(*args)

    monkeypatch.setattr(latticefan, "double_description", counting)
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


def test_pairwise_path_keys_each_intersection_once(monkeypatch):
    # the faces of a cone are read from the facet keys of face closure: one
    # key per cone and per facet of a distinct cone, and one double description
    # per pair of maximal cones, whose extreme rays are the intersection's key
    from tropic import latticefan

    keyed = []
    real = latticefan.canonical_form
    monkeypatch.setattr(latticefan, "canonical_form", lambda c: keyed.append(c) or real(c))
    pairs = _count_intersections(monkeypatch)
    box = primitive_box_fan()
    incomplete = Fan.build(box.cones[:-1], 2)
    assert fan_validate(incomplete).valid
    facets = sum(len(cone_halfspaces(c).inequalities) for c in incomplete.cones)
    assert (len(incomplete.cones), facets, len(keyed), len(pairs)) == (
        32, 46, 32 + 46, 15 * 14 // 2)


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
        _locate(f, (0, 0))  # fills hyperplanes, the cone bitsets and the memo
        ray = f.rays()[0]
        assert direction_values(f, [ray]) is f._directions and list(f._directions) == [ray]
        values, vectors = hyperplane_values(f, {ray: ray})
        assert f._directions[ray] == (values[ray], vectors[ray])
        assert list(f._located) == [(0, 0), vectors[ray]], name  # the direction's cell too
        assert vars(f).keys() == {"hyperplanes", "_cells", "_located", "_directions"}, name
        rebuilt = Fan(f.cones, f.ambient_dim)
        assert vars(rebuilt) == {} and rebuilt._directions == {}, name
        assert rebuilt == f and hash(rebuilt) == hash(f) and len({f, rebuilt}) == 1, name
        assert rebuilt.hyperplanes == f.hyperplanes and rebuilt._cells == f._cells
        built = [Fan.build(cones, f.ambient_dim) for cones in (f.cones, f.cones[::-1])]
        assert built[0] == built[1] and hash(built[0]) == hash(built[1])
