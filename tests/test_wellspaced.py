import random
import sys
from fractions import Fraction

import pytest

from helpers import gen, scaled, translated
from tropic import fixtures, latticefan
from tropic.curves import TropicalCurve
from tropic.defspace import is_superabundant
from tropic.errors import GenusNotOne
from tropic.wellspaced import cycle, well_spaced


def test_cycle_of_cycle3():
    data = cycle(fixtures.cycle3())
    assert data.vertices == ("v0", "v1", "v2")
    assert set(data.edges) == {"e0", "e1", "e2"}
    assert data.codim == 0


def test_cycle_of_speyer3():
    data = cycle(fixtures.speyer3())
    assert data.codim == 1
    assert data.normals == ((0, 0, 1),)  # the span is the z = 0 plane


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
