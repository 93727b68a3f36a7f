import random
from fractions import Fraction

from helpers import (
    dense_deformation_dimension,
    dense_edge_equations,
    densify,
    expected_dimension,
    gen,
    length_coords,
    overvalence,
    point_of_curve,
    random_tree,
    translated,
)
from tropic import fixtures, latticefan
from tropic.curves import TropicalCurve, edge_data, genus, is_balanced, validate
from tropic.defspace import (
    _equations,
    combinatorial_type,
    deformation_cone,
    is_superabundant,
    superabundance,
)
from tropic.latticefan import dot, rank


def test_type_invariant_under_translation_and_length_change():
    t = combinatorial_type(fixtures.tripod())
    assert combinatorial_type(translated(fixtures.tripod(), (7, 5))) == t

    seg5 = fixtures.segfan()
    stretched = type(seg5).build(
        2,
        {"v0": (0, 0), "v1": (5, 0)},
        edges=[("e0", ("v0", "v1"), 2)],
        rays=[("r0", "v0", (-1, 0), 2), ("r1", "v1", (1, 0), 2)],
    )
    assert combinatorial_type(stretched) == combinatorial_type(fixtures.segfan())
    assert combinatorial_type(fixtures.cycle3()) != combinatorial_type(fixtures.tripod())


def test_deformation_cone_dimensions():
    assert deformation_cone(combinatorial_type(fixtures.tripod())).dimension == 2
    assert deformation_cone(combinatorial_type(fixtures.cycle3())).dimension == 3
    assert deformation_cone(combinatorial_type(fixtures.speyer3())).dimension == 4


def test_deformation_cone_shapes():
    cone = deformation_cone(combinatorial_type(fixtures.cycle3()))
    assert len(cone.coordinates) == 9  # 2*3 positions + 3 lengths
    assert len(cone.equations) == 6
    cone = deformation_cone(combinatorial_type(fixtures.speyer3()))
    assert len(cone.coordinates) == 12
    assert len(cone.equations) == 9


def test_point_of_curve_fixtures():
    for name in ("tripod", "segfan", "cycle3", "speyer3", "diag", "ratio"):
        x, cone = point_of_curve(fixtures.CURVES[name]())
        for row in cone.equations:
            assert dot(row, x) == 0
        assert all(a > 0 for a in length_coords(x, cone))


def test_point_of_curve_segfan_coordinates():
    x, _ = point_of_curve(fixtures.segfan())
    assert x == (Fraction(0), Fraction(0), Fraction(2), Fraction(0), Fraction(2))


def test_point_of_curve_detects_perturbation():
    x, cone = point_of_curve(fixtures.cycle3())
    for i in range(len(x)):
        bad = list(x)
        bad[i] += 1
        assert any(dot(row, tuple(bad)) != 0 for row in cone.equations), i


def test_expected_dimension_catalog():
    t = combinatorial_type(fixtures.tripod())
    assert expected_dimension(t, 0, 3) == 2
    t = combinatorial_type(fixtures.cycle3())
    assert expected_dimension(t, 1, 3) == 3
    t = combinatorial_type(fixtures.speyer3())
    assert overvalence(t) == 1  # the 4-valent origin vertex
    assert expected_dimension(t, 1, 4) == 3
    t = combinatorial_type(fixtures.line())
    assert overvalence(t) == -1  # a 2-valent vertex counts valence - 3, unclamped
    assert expected_dimension(t, 0, 2) == 2


def test_superabundance_catalog():
    # (dimension, expected, excess); the 2-valent fixtures line, segfan, diag
    # and ratio are ordinary once every vertex counts valence - 3 unclamped
    pinned = {
        "line": (2, 2, 0),
        "tripod": (2, 2, 0),
        "segfan": (3, 3, 0),
        "cycle3": (3, 3, 0),
        "speyer3": (4, 3, 1),
        "diag": (3, 3, 0),
        "ratio": (4, 4, 0),
    }
    for name, triple in pinned.items():
        v = is_superabundant(fixtures.CURVES[name]())
        assert (v.dimension, v.expected, v.excess) == triple, name
        assert v.superabundant == (v.excess > 0)


def _check_against_dense_oracle(c):
    """The sparse rank of the edge equations agrees with the dense kernel and the virtual count."""
    t = combinatorial_type(c)
    n, g, nvertices = c.ambient_dim, genus(c), len(t.vertices)
    v = superabundance(t)
    assert v.dimension == dense_deformation_dimension(t)
    assert v.expected == expected_dimension(t, g, len(t.rays)) == n * (1 - g) + len(t.edges)
    ncols = n * nvertices + len(t.edges)
    sparse = _equations(t, {u: n * k for k, u in enumerate(t.vertices)}, n * nvertices)
    assert all(all(row.values()) for row in sparse)  # nonzero entries only
    equations = densify(sparse, ncols)
    assert equations == [list(row) for row in dense_edge_equations(t)]
    assert len(equations) == n * len(t.edges)
    x, _ = point_of_curve(c)
    assert all(dot(row, x) == 0 for row in equations)  # the curve solves its equations
    # translations are the kernel on the positions, so rank = n(V - 1) + the rank of the cycles
    assert v.excess == n * g - (rank(equations) - n * (nvertices - 1))
    return v


def test_superabundance_matches_dense_kernel_on_fixtures():
    for name, fn in fixtures.CURVES.items():
        c = fn()
        v = _check_against_dense_oracle(c)
        assert deformation_cone(combinatorial_type(c)).verdict == v, name


def test_superabundance_matches_dense_kernel_on_random_trees():
    rng = random.Random(7)
    for i in range(40):
        tree = random_tree(rng, 2 if i % 2 else 3, max_vertices=12)
        assert _check_against_dense_oracle(tree).excess == 0, i


def test_honeycomb_superabundance_oracle():
    # trivalent plane curves are regular in R^2; in a plane of R^3 each
    # cycle loses the normal direction, so the excess is exactly the genus
    for d in range(3, 7):
        for dim in (2, 3):
            c = TropicalCurve.build(*gen.honeycomb(d, dim, (0, 0)))
            assert is_balanced(c).balanced
            g = genus(c)
            assert g == (d - 1) * (d - 2) // 2
            assert _check_against_dense_oracle(c).excess == (0 if dim == 2 else g), (d, dim)
            assert is_superabundant(c).excess == (0 if dim == 2 else g)


def test_deformation_cone_equations_are_the_documented_rows():
    for name, fn in fixtures.CURVES.items():
        t = combinatorial_type(fn())
        assert deformation_cone(t).equations == tuple(dense_edge_equations(t)), name
    for d in range(3, 7):
        for dim in (2, 3):
            t = combinatorial_type(TropicalCurve.build(*gen.honeycomb(d, dim, (0, 0))))
            assert deformation_cone(t).equations == tuple(dense_edge_equations(t)), (d, dim)


def test_superabundance_eliminations_per_edge_do_not_grow(monkeypatch):
    # most edge equations meet a new pivot at once: on R^2 honeycombs only the
    # second row of each diagonal edge is reduced, once, against the first
    calls = []
    real = latticefan._eliminate

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(latticefan, "_eliminate", counting)
    per_edge = {}
    for d in (10, 20):
        t = combinatorial_type(TropicalCurve.build(*gen.honeycomb(d, 2, (0, 0))))
        calls.clear()
        assert superabundance(t).excess == 0
        per_edge[d] = Fraction(len(calls), len(t.edges))
    assert per_edge[20] <= per_edge[10], per_edge


def test_speyer3_excess_equals_cycle_closing_corank():
    # independent check: the cycle directions of speyer3 span only a plane,
    # so the closing system loses one rank against the ambient R^3
    c = fixtures.speyer3()
    columns = [edge_data(c, e.id)[0] for e in c.edges]
    closing = [[Fraction(col[i]) for col in columns] for i in range(3)]
    corank = 3 - rank(closing)
    assert corank == 1
    assert is_superabundant(c).excess == corank


def test_dimension_at_least_ambient():
    # translations always inject into the kernel
    for name, fn in fixtures.CURVES.items():
        c = fn()
        cone = deformation_cone(combinatorial_type(c))
        assert cone.dimension >= c.ambient_dim, name


def test_random_trees_not_superabundant():
    rng = random.Random(2024)
    for i in range(50):
        dim = 2 if i < 25 else 3
        tree = random_tree(rng, dim, max_vertices=6)
        assert validate(tree).valid
        assert is_balanced(tree).balanced
        verdict = is_superabundant(tree)
        assert verdict.excess == 0, (i, tree)
        # round-trip: the tree satisfies its own type equations
        point_of_curve(tree)


def test_is_superabundant_requires_balance():
    import pytest

    from tropic.errors import Unbalanced

    with pytest.raises(Unbalanced):
        is_superabundant(fixtures.unbal())
