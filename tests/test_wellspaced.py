import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from helpers import bridgeless_edges, gen, reference_well_spaced, scaled, translated
from tropic import fixtures, latticefan
from tropic.curves import TropicalCurve
from tropic.defspace import is_superabundant
from tropic.errors import GenusNotOne
from tropic.wellspaced import CycleData, cycle, well_spaced


def test_cycle_of_cycle3():
    data = cycle(fixtures.cycle3())
    assert data == CycleData(("v0", "v1", "v2"), ("e0", "e1", "e2"), (0, 0), ())
    assert data.codim == 0


def test_cycle_of_speyer3():
    data = cycle(fixtures.speyer3())
    assert data == CycleData(("v0", "v1", "v2"), ("e0", "e1", "e2"), (0, 0, 0), ((0, 0, 1),))
    assert data.codim == 1  # the span is the z = 0 plane


def test_cycle_requires_genus_one():
    with pytest.raises(GenusNotOne):
        cycle(fixtures.tripod())


def test_cycle_with_pending_tree_parts():
    # the tail is a tree edge off the cycle: the walk must not take it
    c = TropicalCurve.build(
        2,
        {"v0": (0, 0), "v1": (1, 0), "v2": (0, 1), "tail": (-1, 0)},
        edges=[
            ("e0", ("v0", "v1"), 1),
            ("e1", ("v1", "v2"), 1),
            ("e2", ("v2", "v0"), 1),
            ("t0", ("tail", "v0"), 1),
        ],
        rays=[
            ("r0", "tail", (-1, 0), 1),
            ("r0b", "tail", (0, 1), 1),
            ("r0c", "tail", (0, -1), 1),
            ("r1", "v1", (2, -1), 1),
            ("r2", "v2", (-1, 2), 1),
            ("r3", "v0", (0, -1), 1),
        ],
    )
    data = cycle(c)
    assert data.vertices == ("v0", "v1", "v2")


def _check_cycle(c):
    data = cycle(c)
    on_cycle = bridgeless_edges(c)
    assert set(data.edges) == on_cycle and len(data.edges) == len(on_cycle)
    ends = {e.id: set(e.ends) for e in c.edges}
    walk = data.vertices
    assert set(walk) == set().union(*(ends[e] for e in on_cycle)) and len(set(walk)) == len(walk)
    # from the smallest id along the smaller-id of its two cycle edges, then around
    assert walk[0] == min(walk) and data.base_point == c.position(walk[0])
    assert data.edges[0] == min(e for e in on_cycle if walk[0] in ends[e])
    for i, eid in enumerate(data.edges):
        assert ends[eid] == {walk[i], walk[(i + 1) % len(walk)]}, eid
    return data


def test_cycle_with_trees_off_it_and_away_from_the_first_vertex():
    # "a" hangs off the triangle b, c, d, which carries a two-edge tree at d
    c = TropicalCurve.build(
        2,
        {"a": (-1, 0), "b": (0, 0), "c": (2, 0), "d": (0, 2), "x": (0, 3), "y": (1, 4)},
        edges=[
            ("k0", ("a", "b"), 1),
            ("k1", ("c", "b"), 1),
            ("k2", ("d", "c"), 1),
            ("k3", ("b", "d"), 1),
            ("k4", ("d", "x"), 1),
            ("k5", ("x", "y"), 1),
        ],
    )
    data = _check_cycle(c)
    assert data.vertices == ("b", "c", "d") and data.edges == ("k1", "k2", "k3")


def test_cycle_of_two_parallel_edges_with_trees_off_it():
    c = TropicalCurve.build(
        3,
        {"a": (0, 0, 1), "b": (0, 0, 0), "c": (1, 1, 0), "d": (2, 1, 0)},
        edges=[
            ("p1", ("c", "b"), 1),
            ("p0", ("b", "c"), 2),
            ("t0", ("b", "a"), 1),
            ("t1", ("c", "d"), 1),
        ],
    )
    data = _check_cycle(c)
    assert data.vertices == ("b", "c") and data.edges == ("p0", "p1")
    assert data.normals == ((-1, 1, 0), (0, 0, 1))


def test_cycle_matches_the_bridge_oracle_on_seeded_genus_one_graphs():
    # a cycle of 2 to 5 vertices (2: two parallel edges) with a random forest
    # hung off it, under shuffled vertex and edge ids and random orientations
    rng = random.Random(11)
    for trial in range(60):
        dim, nvertices = rng.choice((2, 3)), rng.randint(2, 10)
        names = [f"v{k}" for k in rng.sample(range(20), nvertices)]
        length = rng.randint(2, min(nvertices, 5))
        pairs = [(names[i], names[(i + 1) % length]) for i in range(length)]
        pairs += [(names[rng.randrange(k)], names[k]) for k in range(length, nvertices)]
        points = rng.sample(range(8**dim), nvertices)  # distinct points of a box
        vertices = {v: tuple((p // 8**i) % 8 for i in range(dim)) for v, p in zip(names, points)}
        ids = rng.sample(range(100), len(pairs))
        edges = [(f"e{i}", pair if rng.random() < 0.5 else pair[::-1], 1)
                 for i, pair in zip(ids, pairs)]
        c = TropicalCurve.build(dim, vertices, edges)
        _check_cycle(c)


def test_cycle3_vacuously_well_spaced():
    verdict = well_spaced(fixtures.cycle3())
    assert verdict.well_spaced and verdict.span_codim == 0


def test_speyer3_not_well_spaced():
    verdict = well_spaced(fixtures.speyer3())
    assert not verdict.well_spaced
    assert verdict.span_codim == 1
    assert [(d.vertex, d.distance) for d in verdict.departures] == [("v0", Fraction(0))]


def test_rebalanced_variant_is_well_spaced():
    verdict = well_spaced(fixtures.speyer3_wellspaced())
    assert verdict.well_spaced
    assert sorted((d.vertex, d.distance) for d in verdict.departures) == [
        ("v0", Fraction(0)),
        ("v1", Fraction(0)),
    ]


def test_verdict_invariant_under_translation_and_scaling():
    for name in ("speyer3", "speyer3_ws"):
        c = fixtures.CURVES[name]()
        base = well_spaced(c)
        moved = well_spaced(translated(c, (3, -2, 7)))
        dilated = well_spaced(scaled(c, 5))
        assert moved.well_spaced == base.well_spaced
        assert dilated.well_spaced == base.well_spaced
        # the argmin witness set is unchanged even though distances scale
        base_argmin = {d.vertex for d in base.departures
                       if d.distance == min(x.distance for x in base.departures)}
        for other in (moved, dilated):
            argmin = {d.vertex for d in other.departures
                      if d.distance == min(x.distance for x in other.departures)}
            assert argmin == base_argmin


def test_planar_cycle_in_r3_with_in_plane_rays_is_vacuous():
    c = TropicalCurve.build(
        3,
        {"v0": (0, 0, 0), "v1": (1, 0, 0), "v2": (0, 1, 0)},
        edges=[("e0", ("v0", "v1"), 1), ("e1", ("v1", "v2"), 1), ("e2", ("v2", "v0"), 1)],
        rays=[
            ("r0", "v0", (-1, -1, 0), 1),
            ("r1", "v1", (2, -1, 0), 1),
            ("r2", "v2", (-1, 2, 0), 1),
        ],
    )
    verdict = well_spaced(c)
    assert verdict.span_codim == 1
    assert verdict.well_spaced and not verdict.departures


def test_departure_at_positive_distance():
    # push the out-of-plane rays one lattice unit away from the cycle along an
    # in-plane tail; the unique departure then sits at distance 2
    c = TropicalCurve.build(
        3,
        {
            "v0": (0, 0, 0),
            "v1": (1, 0, 0),
            "v2": (0, 1, 0),
            "w": (-2, -2, 0),
        },
        edges=[
            ("e0", ("v0", "v1"), 1),
            ("e1", ("v1", "v2"), 1),
            ("e2", ("v2", "v0"), 1),
            ("t0", ("v0", "w"), 1),
        ],
        rays=[
            ("rw1", "w", (-1, -1, -1), 1),
            ("rw2", "w", (0, 0, 1), 1),
            ("r1", "v1", (2, -1, 0), 1),
            ("r2", "v2", (-1, 2, 0), 1),
        ],
    )
    from tropic.curves import is_balanced

    assert is_balanced(c).balanced
    verdict = well_spaced(c)
    assert not verdict.well_spaced
    assert [(d.vertex, d.distance) for d in verdict.departures] == [("w", Fraction(2))]


def test_departures_along_bounded_edges_in_either_orientation():
    # the edge leaving the cycle's plane starts at v0 but ends at v1; no rays,
    # so only the bounded edges can make a departure
    c = TropicalCurve.build(
        3,
        {"v0": (0, 0, 0), "v1": (1, 0, 0), "v2": (0, 1, 0), "a": (0, 0, 1), "b": (1, 0, 1)},
        edges=[
            ("e0", ("v0", "v1"), 1),
            ("e1", ("v1", "v2"), 1),
            ("e2", ("v2", "v0"), 1),
            ("u0", ("v0", "a"), 1),
            ("u1", ("b", "v1"), 1),
        ],
    )
    verdict = well_spaced(c)
    assert [(d.vertex, d.distance) for d in verdict.departures] == [
        ("v0", Fraction(0)),
        ("v1", Fraction(0)),
    ]
    assert verdict.well_spaced


def test_failing_fixture_is_superabundant():
    # one-directional cross-check at fixture scale
    for name in ("cycle3", "speyer3", "speyer3_ws"):
        c = fixtures.CURVES[name]()
        verdict = well_spaced(c)
        if not verdict.well_spaced:
            assert is_superabundant(c).superabundant, name


def test_cycle_on_parallel_multi_edge():
    # two parallel weight-1 edges between the same endpoints form the cycle
    c = TropicalCurve.build(
        2,
        {"a": (0, 0), "b": (1, 0)},
        edges=[("e0", ("a", "b"), 1), ("e1", ("a", "b"), 1)],
        rays=[("ra", "a", (-1, 0), 2), ("rb", "b", (1, 0), 2)],
    )
    from tropic.curves import genus, is_balanced

    assert is_balanced(c).balanced and genus(c) == 1
    data = cycle(c)
    assert set(data.vertices) == {"a", "b"}
    assert set(data.edges) == {"e0", "e1"}
    assert data.codim == 1  # the doubled segment spans only a line
    assert data.normals == ((0, 1),)
    verdict = well_spaced(c)
    assert verdict.well_spaced and not verdict.departures  # in-span rays only


def test_well_spaced_tests_the_span_without_elimination(monkeypatch):
    # count rank, _echelon and double_description wherever a tropic module binds them
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("rank", "_echelon", "double_description"):
        real = getattr(latticefan, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("tropic") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    rng = random.Random(5)
    offset = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(2)]
    c = TropicalCurve.build(*gen.honeycomb(3, 3, offset))
    verdict = well_spaced(c)
    assert verdict.span_codim == 1 and verdict.well_spaced and not verdict.departures
    assert calls == ["double_description"]


STEPS = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, 1, 1), (0, 0, 1), (0, 0, -1), (1, 0, -1), (2, 1, 0)]


def _forest_off_a_plane(rng: random.Random) -> TropicalCurve:
    """A genus-1 curve in R^3: a cycle of 2 to 5 vertices in z = 0 (two parallel
    edges, or a polygon, collinear at times), with a forest whose vertices step
    off the plane and come back to it, and rays in and out of the plane.
    ``up`` leaves the cycle and ``back``, its child, returns to z = 0: a vertex
    of the plane that only a vertex out of it joins to the cycle."""
    def point(z=0):
        return (Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))),
                Fraction(rng.randint(-4, 4), rng.choice((1, 2))), z)

    length = rng.randint(2, 5)
    vertices = {f"c{i}": point() for i in range(length)}
    while len(set(vertices.values())) < length:
        vertices = {f"c{i}": point() for i in range(length)}
    edges = [(f"e{i}", (f"c{i}", f"c{(i + 1) % length}"), rng.randint(1, 3))
             for i in range(length if length > 2 else 1)]
    if length == 2:
        edges.append(("e1", ("c1", "c0"), 1))
    vertices["up"] = vertices["c0"][:2] + (Fraction(rng.randint(1, 3), rng.choice((1, 2))),)
    vertices["back"] = point()
    edges += [("u", ("c0", "up"), 1), ("b", ("back", "up"), 1)]
    for i in range(rng.randint(1, 8)):
        parent = rng.choice(sorted(vertices))
        step = [Fraction(x * rng.randint(1, 3), rng.choice((1, 2))) for x in rng.choice(STEPS)]
        p = tuple(map(sum, zip(vertices[parent], step)))
        if p[2] and rng.random() < 0.5:  # come back to the plane
            p = p[:2] + (0,)
        if p != vertices[parent]:
            vertices[f"t{i}"] = p
            edges.append((f"f{i}", (parent, f"t{i}")[::rng.choice((1, -1))], rng.randint(1, 2)))
    rays = [(f"r{i}", rng.choice(sorted(vertices)), rng.choice(STEPS), 1)
            for i in range(rng.randint(0, 4))]
    return TropicalCurve.build(3, vertices, edges, rays)


def test_well_spaced_matches_the_reference_on_forests_that_leave_the_plane():
    # seeded: the whole verdict, distances included, against the oracle of
    # tests/helpers.py (cycle by bridges, span by rank, Dijkstra over Fractions)
    rng = random.Random(54)
    kinds: Counter = Counter()
    for _ in range(1200):
        c = _forest_off_a_plane(rng)
        verdict = well_spaced(c)
        assert verdict == reference_well_spaced(c), c
        reached = {d.vertex for d in verdict.departures}
        kinds[verdict.span_codim, verdict.well_spaced, len(verdict.departures) > 1] += 1
        kinds["back unreached"] += verdict.span_codim == 1 and "back" not in reached
        kinds["positive distance"] += any(d.distance for d in verdict.departures)
    assert min(kinds[k] for k in ((1, True, True), (1, False, False), (1, False, True),
                                  (2, True, True), (2, False, False))) >= 50, kinds
    assert kinds["back unreached"] >= 500 and kinds["positive distance"] >= 100, kinds
