import random
from fractions import Fraction

import pytest

from helpers import (
    contains_caratheodory,
    kernel_dimension,
    rank_by_transpose,
    trusted_overlapping_fan,
)
from tropic import fixtures
from tropic.errors import DimMismatch, NotInSupport, ZeroDirection
from tropic.latticefan import (
    Cone,
    _echelon,
    Fan,
    cone_contains,
    cone_faces,
    cone_halfspaces,
    cone_intersection,
    cones_equal,
    double_description,
    fan_from_maximal,
    fan_validate,
    hnf_rows,
    primitive,
    primitive_and_scale,
    quotient_lattice,
    rank,
    smallest_containing_cone,
    unimodular_diagonalize,
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
        d, g = primitive_and_scale(v)
        assert d == p and g > 0
        assert tuple(g * x for x in p) == v


def test_cone_contains_examples():
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2)
    assert cone_contains(quadrant, (1, 1), "relative_interior")
    assert not cone_contains(quadrant, (1, 0), "relative_interior")
    narrow = Cone.from_rays([(1, 0), (1, 2)], 2)
    # (2,1) = 3/2*(1,0) + 1/2*(1,2), solved by hand
    assert cone_contains(narrow, (2, 1), "closure")


def test_cone_contains_generators_and_dim_mismatch():
    c = Cone.from_rays([(1, 0), (1, 2)], 2)
    for g in c.generators:
        assert cone_contains(c, g, "closure")
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
            hits = [c for c in fan.cones if cone_contains(c, p, "relative_interior")]
            assert len(hits) == 1
        for c in fan.cones:
            for p_gen in c.generators:
                assert cone_contains(c, p_gen, "closure")


def test_relative_interior_implies_closure():
    c = Cone.from_rays([(2, 1), (1, 3)], 2)
    for p in [(3, 4), (1, 1), (5, 5)]:
        if cone_contains(c, p, "relative_interior"):
            assert cone_contains(c, p, "closure")


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
        assert rank(rows) == len(_echelon(rows)[1]), rows
        assert rank([[int(x * 60) for x in row] for row in rows]) == rank(rows)


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


def test_trusted_fan_is_still_validated():
    # trust is the CLI's decision; fan_validate checks whatever it is given
    report = fan_validate(trusted_overlapping_fan())
    assert report.violations[0].code == "NonFaceIntersection"


def test_smallest_containing_cone_on_p2():
    fan = fixtures.fan_p2()
    assert smallest_containing_cone(fan, (5, 7)).generators == ((0, 1), (1, 0))
    assert smallest_containing_cone(fan, (0, 0)).generators == ()
    assert smallest_containing_cone(fan, (-2, -2)).generators == ((-1, -1),)


def test_not_in_support():
    incomplete = fan_from_maximal([(1, 0), (0, 1)], [[0, 1]], 2)
    with pytest.raises(NotInSupport):
        smallest_containing_cone(incomplete, (-1, -1))


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


def test_cone_equality_ignores_redundant_generators():
    assert cones_equal(
        Cone.from_rays([(1, 0), (0, 1), (1, 1)], 2), Cone.from_rays([(1, 0), (0, 1)], 2)
    )
    assert not cones_equal(
        Cone.from_rays([(1, 0), (1, 1)], 2), Cone.from_rays([(1, 0), (0, 1)], 2)
    )


def test_unimodular_diagonalize_and_integer_kernel():
    rng = random.Random(13)
    for _ in range(40):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        u, s, v = unimodular_diagonalize(a, nrows, ncols)
        # U A V = S and S diagonal
        prod = [
            [
                sum(u[i][p] * a[p][q] * v[q][j] for p in range(nrows) for q in range(ncols))
                for j in range(ncols)
            ]
            for i in range(nrows)
        ]
        assert prod == s
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert s[i][j] == 0
        # the columns of V past the nonzero diagonal span the integer kernel
        r = sum(1 for i in range(min(nrows, ncols)) if s[i][i] != 0)
        kernel = [tuple(v[i][j] for i in range(ncols)) for j in range(r, ncols)]
        for vec in kernel:
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in a)
        assert len(kernel) == kernel_dimension(a, ncols)


def test_hnf_rows_canonicalizes_lattice_bases():
    a = hnf_rows([(1, 0), (0, 1)], 2)
    b = hnf_rows([(1, 1), (0, 1)], 2)
    assert a == b == ((1, 0), (0, 1))
    assert hnf_rows([(2, 0)], 2) == ((2, 0),)


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


def test_quotient_lattice_saturation_in_box():
    rng = random.Random(67)
    from itertools import product as iproduct

    from tropic.latticefan import solve_exact

    assert quotient_lattice([(-2, 2)], 2) in ([(-1, 1)], [(1, -1)])
    for _ in range(20):
        dim = rng.randint(2, 3)
        nkill = rng.randint(1, dim - 1)
        kill = []
        for _ in range(nkill):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(v):
                kill.append(v)
        if not kill or rank(kill) != len(kill):
            continue
        sat = quotient_lattice(kill, dim)
        assert len(sat) == len(kill)
        assert all(rank(list(kill) + [s]) == len(kill) for s in sat)  # sat spans span(kill)
        for x in iproduct(*(range(-2, 3) for _ in range(dim))):
            if any(x) and rank(kill) == rank(list(kill) + [x]):
                # every lattice point of the span is an integer combination of sat
                rows = [[Fraction(s[i]) for s in sat] for i in range(dim)]
                sol = solve_exact(rows, [Fraction(a) for a in x])
                assert sol is not None
                assert all(v.denominator == 1 for v in sol)


def test_hnf_is_invariant_under_unimodular_row_transforms():
    rng = random.Random(71)
    for _ in range(25):
        dim = rng.randint(2, 4)
        nrows = rng.randint(1, dim)
        basis = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(nrows)]
        if rank(basis) != nrows:
            continue
        transformed = [row[:] for row in basis]
        for _ in range(6):  # random elementary row operations
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            if i == j:
                transformed[i] = [-a for a in transformed[i]]
            else:
                f = rng.randint(-2, 2)
                transformed[i] = [a + f * b for a, b in zip(transformed[i], transformed[j])]
        assert hnf_rows(basis, dim) == hnf_rows(transformed, dim)
