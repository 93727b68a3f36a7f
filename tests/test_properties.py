"""Property tests, derandomized so that every run draws the same examples."""

import contextlib
import io
import json
import random
import tempfile
import zlib
from fractions import Fraction
from functools import cache, reduce
from math import gcd
from operator import getitem
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import (  # noqa: E402
    DIRECTIONS,
    as_signs,
    dense_deformation_dimension,
    dense_edge_equations,
    echelon,
    edge_lengths,
    gen,
    handed_states,
    packed_certificate,
    reference_balance_report,
    reference_check_structure,
    reference_double_description,
    reference_edge_by_id,
    reference_edge_data,
    reference_incidence,
    reference_primitive_and_scale,
    reference_well_spaced,
    scaled,
    signs,
    stellar_fan,
    translated,
)
from tropic import cli, degeneration, fixtures  # noqa: E402
from tropic.curves import (  # noqa: E402
    BoundedEdge, CurveRay, TropicalCurve, edge_data, genus, is_balanced, validate)
from tropic.defspace import (  # noqa: E402
    CombinatorialType,
    TypeEdge,
    combinatorial_type,
    deformation_cone,
    superabundance,
)
from tropic.degeneration import certify, verify_certificate  # noqa: E402
from tropic.errors import (  # noqa: E402
    DegenerateEdge,
    DimMismatch,
    NoSuchVertex,
    SchemaError,
    TropicError,
)
from tropic.jsonio import (  # noqa: E402
    certificate_from_dict,
    certificate_to_dict,
    curve_from_dict,
    curve_to_dict,
    dumps,
    fan_from_dict,
    fan_to_dict,
    loads,
)
from tropic.latticefan import (  # noqa: E402
    _echelon,
    dot,
    double_description,
    fan_from_maximal,
    hyperplane_values,
    integer_image,
    rank,
)
from tropic.refine import rescale_integral, subdivide_along_fan  # noqa: E402
from tropic.wellspaced import Departure, cycle, well_spaced  # noqa: E402

DERANDOMIZED = hypothesis.settings(
    derandomize=True, database=None, max_examples=60, deadline=None
)

# mostly zeros, as in the edge equations superabundance reduces
ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])
SPARSE_MATRICES = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), max_size=8)
)
NONZERO_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@DERANDOMIZED
@hypothesis.given(rows=SPARSE_MATRICES, data=st.data())
def test_rank_matches_echelon_and_ignores_row_order_and_scaling(rows, data):
    expected = len(echelon(rows)[1])
    assert rank(rows) == expected
    # the pivot rows are keyed by their leading column, and primitive
    pivots = _echelon({j: x for j, x in enumerate(row) if x} for row in rows)
    assert len(pivots) == expected
    assert all(min(row) == lead and gcd(*row.values()) == 1 for lead, row in pivots.items())
    permuted = data.draw(st.permutations(rows))
    assert rank(permuted) == expected
    if rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(NONZERO_RATIONALS)
        scaled = [row if k != i else [c * x for x in row] for k, row in enumerate(rows)]
        assert rank(scaled) == expected


RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30))
POSITIVE_RATIONALS = st.builds(Fraction, st.integers(1, 60), st.integers(1, 30))


@hypothesis.settings(DERANDOMIZED, max_examples=2000)
@hypothesis.given(dim=st.integers(1, 5), data=st.data())
def test_double_description_matches_the_nested_closure_version(dim, data):
    # half the rows come from a pool of a few rows and the zero row, so
    # repeated and zero rows are common
    row = st.tuples(*[st.integers(-3, 3)] * dim)
    pool = data.draw(st.lists(row, min_size=1, max_size=3)) + [(0,) * dim]
    rows = st.one_of(row, st.sampled_from(pool))
    equations = data.draw(st.lists(rows, max_size=2))
    inequalities = data.draw(st.lists(rows, max_size=7))
    assert double_description(equations, inequalities, dim) == reference_double_description(
        equations, inequalities, dim)


@st.composite
def rational_curves(draw):
    """A seeded tree or honeycomb, translated to mixed denominators, and
    sometimes with one vertex moved off balance."""
    dim = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        spec = gen.tree(rng, dim, draw(st.integers(2, 12)), DIRECTIONS[dim])
    else:
        spec = gen.honeycomb(draw(st.integers(2, 4)), dim, (draw(RATIONALS), draw(RATIONALS)))
    c = translated(TropicalCurve.build(*spec), [draw(RATIONALS) for _ in range(dim)])
    if draw(st.booleans()):
        v = draw(st.sampled_from(sorted(c.vertices)))
        step = [draw(RATIONALS) for _ in range(dim)]
        moved = {**c.vertices, v: tuple(a + b for a, b in zip(c.vertices[v], step))}
        c = TropicalCurve(dim, moved, c.edges, c.rays)
        hypothesis.assume(validate(c).valid)
    return c


@DERANDOMIZED
@hypothesis.given(c=rational_curves())
def test_edge_data_and_balancing_match_the_fraction_formula(c):
    totals = {v: [0] * c.ambient_dim for v in c.vertices}
    for e in c.edges:
        pu, pw = c.position(e.ends[0]), c.position(e.ends[1])
        displacement = tuple(b - a for a, b in zip(pu, pw))
        d, length = reference_primitive_and_scale(displacement)
        assert edge_data(c, e.id) == (d, length), e.id
        for v, sign in ((e.ends[0], 1), (e.ends[1], -1)):
            totals[v] = [t + sign * e.weight * x for t, x in zip(totals[v], d)]
    for r in c.rays:
        totals[r.base] = [t + r.weight * x for t, x in zip(totals[r.base], r.direction)]
    defects = tuple((v, tuple(t)) for v, t in totals.items() if any(t))
    assert is_balanced(c) == (not defects, defects)


_BREAKS = (["edge"] * 3 + ["ray"] * 3 + ["vertex"] * 2
           + ["move", "shift", "drop", "ambient", "empty"])


def _hostile_curve(rng: random.Random) -> TropicalCurve:
    """A seeded tree or honeycomb, kept as it is one time in four, else broken
    one to four times (``_BREAKS``): an edge or a ray under a drawn id, often
    one in use, with drawn ends or base (maybe unknown, maybe equal) and weight
    (maybe below 1), a ray with a drawn direction (maybe zero, non-primitive or
    of another length); a new vertex joined to nothing, maybe of another length
    or at a position in use; a vertex moved onto another's position, or by a
    drawn step (so that a valid curve is unbalanced); a vertex dropped, so
    that its edges' ends are unknown; ambient dimension 0; or no vertex at
    all."""
    dim = rng.choice([2, 3])
    offset = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in "xy"]
    spec = (gen.tree(rng, dim, rng.randint(1, 9), DIRECTIONS[dim]) if rng.random() < 0.5
            else gen.honeycomb(rng.randint(2, 3), dim, offset))
    c = TropicalCurve.build(*spec)
    if rng.random() < 0.25:
        return c
    ambient, vertices, edges, rays = dim, dict(c.vertices), list(c.edges), list(c.rays)
    ids = [h.id for h in c.edges + c.rays] + ["x"]
    for _ in range(rng.randint(1, 4)):
        names, points, kind = [*vertices, "zz"], list(vertices.values()), rng.choice(_BREAKS)
        if kind == "edge":
            ends = (rng.choice(names), rng.choice(names))
            edges.append(BoundedEdge(rng.choice(ids), ends, rng.randint(-1, 2)))
        elif kind == "ray":
            direction = tuple(rng.randint(-2, 2) for _ in range(rng.choice([dim, dim, dim + 1])))
            direction = rng.choice([direction, direction, (0,) * dim])
            rays.append(CurveRay(rng.choice(ids), rng.choice(names), direction, rng.randint(-1, 2)))
        elif kind == "vertex":
            p = rng.choice(points or [(0,) * dim])
            vertices[f"n{len(vertices)}"] = rng.choice([p, p + (Fraction(1, 2),), p[1:]])
        elif kind == "move" and points:
            vertices[rng.choice(names[:-1])] = rng.choice(points)
        elif kind == "shift" and points:
            v = rng.choice(names[:-1])
            vertices[v] = tuple(x + Fraction(rng.randint(-3, 3), 7) for x in vertices[v])
        elif kind == "drop" and points:
            del vertices[rng.choice(names[:-1])]
        elif kind == "ambient":
            ambient = 0
        elif kind == "empty":
            vertices = {}
    return TropicalCurve(ambient, vertices, edges, rays)


def _expected_edge_data(c: TropicalCurve, edge_id: str):
    """``edge_data`` from the five passes' edge data: the value, or the error's (type, message)."""
    data, first = reference_edge_data(c), reference_edge_by_id(c)
    if edge_id in data:
        return data[edge_id]
    if edge_id not in first:
        return DegenerateEdge, f"no bounded edge {edge_id!r}"
    for v in first[edge_id].ends:  # each end known and of the ambient length, in order
        if v not in c.vertices:
            return NoSuchVertex, f"no vertex {v!r}"
        if len(c.vertices[v]) != c.ambient_dim:
            return DimMismatch, f"vertex {v} has {len(c.vertices[v])} coordinates"
    return DegenerateEdge, f"edge {edge_id} has zero length"


def test_one_pass_reads_a_curve_as_the_five_passes_did():
    # seeded: trees and honeycombs, as they are and broken (``_hostile_curve``).
    # The one pass gives the violations of the structure check, text and order,
    # the edge data, the incidence and the balancing report of the five passes
    # it replaced (tests/helpers.py), and edge_data its values and errors; an
    # edge with an end of the wrong length has no edge data
    rng = random.Random(44)
    seen: dict[str, int] = {}
    for _ in range(400):
        c = _hostile_curve(rng)
        report = reference_check_structure(c)
        assert validate(c).violations == report.violations, c
        assert edge_lengths(c) == reference_edge_data(c), c
        index = reference_incidence(c)
        for v in [*c.vertices, *index, "missing"]:
            edges, rays = index.get(v, ([], []))
            assert c.edges_at(v) == edges and c.rays_at(v) == rays, (c, v)
        for edge_id in {*reference_edge_by_id(c), "missing"}:
            expected = _expected_edge_data(c, edge_id)
            if type(expected[0]) is type and issubclass(expected[0], TropicError):
                key = f"edge_data {expected[0].code}"
                seen[key] = seen.get(key, 0) + 1
                with pytest.raises(expected[0]) as info:
                    edge_data(c, edge_id)
                assert info.value.message == expected[1], (c, edge_id)
            else:
                assert edge_data(c, edge_id) == expected, (c, edge_id)
        if report.valid:
            assert is_balanced(c) == reference_balance_report(c), c
            key = "balanced" if is_balanced(c).balanced else "unbalanced"
            seen[key] = seen.get(key, 0) + 1
        for code in {v.code for v in report.violations}:
            seen[code] = seen.get(code, 0) + 1
    codes = ("DuplicateId", "NonpositiveWeight", "NoSuchVertex", "DegenerateEdge", "DimMismatch",
             "ZeroDirection", "NonPrimitiveDirection", "Disconnected", "Empty")
    raised = tuple(f"edge_data {k}" for k in ("NoSuchVertex", "DimMismatch", "DegenerateEdge"))
    assert min(seen.get(k, 0) for k in codes + raised + ("balanced", "unbalanced")) >= 5, seen

@DERANDOMIZED
@hypothesis.given(c=rational_curves(), factor=POSITIVE_RATIONALS, data=st.data())
def test_balancing_genus_and_excess_survive_translation_and_scaling(c, factor, data):
    shift = [data.draw(RATIONALS) for _ in range(c.ambient_dim)]
    report, excess = is_balanced(c), superabundance(combinatorial_type(c)).excess
    for image, stretch in ((translated(c, shift), 1), (scaled(c, factor), factor)):
        assert is_balanced(image) == report
        assert genus(image) == genus(c)
        assert superabundance(combinatorial_type(image)).excess == excess
        for e in c.edges:
            d, length = edge_data(c, e.id)
            assert edge_data(image, e.id) == (d, stretch * length), e.id


@cache
def _stellar(dim: int, seed: int):
    """A seeded stellar subdivision of P^2 (R^2) or of perfbench's rich R^3 fan, and its Fan."""
    rng = random.Random(seed)
    base, steps = (gen.fan_p2(), (3, 6)) if dim == 2 else (gen.rich_fan_r3(), (1, 3))
    spec = stellar_fan(rng, base, rng.randint(*steps))
    return spec[0], fan_from_maximal(*spec)


@DERANDOMIZED
@hypothesis.given(dim=st.sampled_from([2, 3]), fan_seed=st.integers(0, 3),
                  seed=st.integers(0, 2**32), size=st.integers(2, 10), data=st.data())
def test_certificates_survive_the_json_round_trip_and_verify(dim, fan_seed, seed, size, data):
    rays, fan = _stellar(dim, fan_seed)
    tree = TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays))
    cert = certify(translated(tree, [data.draw(RATIONALS) for _ in range(dim)]), fan)
    text = dumps(certificate_to_dict(cert))
    back = certificate_from_dict(loads(text))
    assert back == cert and dumps(certificate_to_dict(back)) == text
    assert verify_certificate(back).ok
    # the id-keyed map is read as a dict, equal whatever its order in the file
    doc = loads(text)
    doc["vertex_cones"] = dict(reversed(doc["vertex_cones"].items()))
    assert certificate_from_dict(doc) == cert


@DERANDOMIZED
@hypothesis.given(dim=st.sampled_from([2, 3]), fan_seed=st.integers(0, 3),
                  seed=st.integers(0, 2**32), size=st.integers(2, 10), data=st.data())
def test_certificates_that_certify_cannot_emit_are_refused(dim, fan_seed, seed, size, data):
    rays, fan = _stellar(dim, fan_seed)
    tree = TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays))
    curve = translated(tree, [data.draw(RATIONALS) for _ in range(dim)])
    cert = certify(curve, fan)

    def violations(bad):
        # the same verdict on a copy of the curve that keeps no derived fields
        found = verify_certificate(bad).violations
        copy = TropicalCurve(*bad.rescaled_curve)
        assert not vars(copy)
        assert verify_certificate(bad._replace(rescaled_curve=copy)).violations == found
        return found

    # an edge listed twice in node_data, the one per-id list, as it is: only
    # the repeat shows (every other per-id field is a dict, which holds no repeat)
    entries = cert.node_data
    i, j = data.draw(st.integers(0, len(entries) - 1)), data.draw(st.integers(0, len(entries)))
    doubled = entries[:j] + (entries[i],) + entries[j:]
    assert violations(cert._replace(node_data=doubled)) == (
        f"DuplicateEntry: node_data {entries[i].edge}",)
    # N negated: the curve over it would be the curve mirrored, and no N is below 1
    negated = cert._replace(multiplier=-cert.multiplier)
    assert violations(negated) == (
        "MultiplierNotPositive: the multiplier must be a positive int",)
    # the subdivided curve never rescaled, packed with the node data derived
    # from it at N = 1: each edge whose k is no integer is named
    raw = packed_certificate(subdivide_along_fan(curve, fan).output, fan, rescale=False)
    fractional = sorted(nd.edge for nd in raw.node_data if type(nd.k) is not int)
    assert bool(fractional) == (cert.multiplier > 1)
    assert violations(raw) == tuple(
        f"NodeDataMismatch: edge {e}" for e in fractional)
    # the curve dilated by 2 and N doubled, with the node data derived from
    # it: every field agrees, but N/2 makes every length/weight integral too
    big = scaled(cert.rescaled_curve, 2)
    dilated = cert._replace(rescaled_curve=big, multiplier=2 * cert.multiplier,
                            node_data=tuple(degeneration._derive(big, fan)[0].values()))
    assert violations(dilated) == (
        "MultiplierNotLeast: a smaller multiplier makes every length/weight integral",)


@hypothesis.settings(DERANDOMIZED, max_examples=12)
@hypothesis.given(dim=st.sampled_from([2, 3]), fan_seed=st.integers(0, 3),
                  seed=st.integers(0, 2**32), size=st.integers(2, 10), data=st.data())
def test_verify_names_the_same_violations_before_and_after_the_json_round_trip(
        dim, fan_seed, seed, size, data):
    # in process, verify reads certify's derivation; behind the JSON reader
    # it derives afresh.  On a certificate and on each single-field mutation
    # (``test_degeneration._mutations``), each of which verify must refuse,
    # both name the same violations in order; so do they on node_data that
    # lists every edge twice, the one repeat a file can hold
    from test_degeneration import _mutations

    rays, fan = _stellar(dim, fan_seed)
    tree = TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays))
    cert = certify(translated(tree, [data.draw(RATIONALS) for _ in range(dim)]), fan)
    cases = [("certified", cert),
             ("repeated node_data", cert._replace(node_data=cert.node_data * 2))]
    for name, c in cases + _mutations(cert):
        back = certificate_from_dict(loads(json.dumps(certificate_to_dict(c))))
        found = verify_certificate(c).violations
        assert bool(found) != (name == "certified"), name
        assert verify_certificate(back).violations == found, name


@cache
def _rich(dim: int):
    """perfbench's rich fan in R^dim: its rays and one shared Fan."""
    rays, maximal, _ = (gen.rich_fan_r2 if dim == 2 else gen.rich_fan_r3)()
    return rays, fan_from_maximal(rays, maximal, dim)


def _handed_state_is_derived_afresh(curve, fan):
    """Certify ``curve`` and check that the node data and sign vectors it
    hands ``_derive``, and the cells that ``_derive`` builds from them, equal
    what ``_derive`` computes from a copy of the rescaled curve that keeps no
    cache; the certificate, or None if certify refuses."""
    with handed_states() as handed:
        try:
            cert = certify(curve, fan)
        except TropicError:
            assert not handed
            return None
    (hat, _, (nodes, vectors)), = handed
    assert hat is cert.rescaled_curve
    copy = tuple.__new__(TropicalCurve, tuple(hat))
    assert copy == hat and not vars(copy)
    fresh_nodes, fresh_vectors = degeneration._state(copy, fan)
    assert vectors == fresh_vectors
    assert list(nodes.items()) == list(fresh_nodes.items())
    kinds = [(type(nd.k), *map(type, nd.u_q)) for nd in nodes.values()]
    assert kinds == [(type(nd.k), *map(type, nd.u_q)) for nd in fresh_nodes.values()]
    assert set(kinds) <= {(int,) * (1 + hat.ambient_dim)}
    derived, fresh = degeneration._derive(hat, fan), degeneration._derive(copy, fan)
    assert [list(x.items()) for x in derived] == [list(x.items()) for x in fresh]
    assert list(cert.vertex_cones) == list(hat.vertices)
    return cert


@DERANDOMIZED
@hypothesis.given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32),
                  size=st.integers(2, 30), data=st.data())
def test_the_state_certify_hands_derive_is_what_a_fresh_copy_derives(dim, seed, size, data):
    # seeded trees on both rich fans, whose hosts may have weight > 1, and
    # honeycombs moved by a fractional offset on P^2 and P^2 x P^1, lifted in
    # R^3 to a height k/11 that crosses no wall, which may keep m > 1
    rays, fan = _rich(dim)
    assert _handed_state_is_derived_afresh(
        TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays)), fan)
    offset = [data.draw(RATIONALS) for _ in range(2)]
    honeycomb = TropicalCurve.build(*gen.honeycomb(data.draw(st.integers(2, 6)), dim, offset))
    lift = [0, 0, Fraction(data.draw(st.integers(1, 10)), 11)][:dim]
    assert _handed_state_is_derived_afresh(translated(honeycomb, lift), _p2(dim))


@DERANDOMIZED
@hypothesis.given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32),
                  size=st.integers(2, 30), data=st.data())
def test_certify_and_rescaling_the_subdivision_write_the_same_breaks(dim, seed, size, data):
    # certify writes each break's coordinates from the walk's parameters, and
    # rescale_integral of the subdivision from the break's point over its
    # denominators: both give one curve, one N, one type per coordinate (an
    # int where integral) and one handed-over image.  Seeded trees on both
    # rich fans, moved by a fractional offset (so N > 1), and honeycombs on
    # P^2 x P^1 lifted to z = 1/5, which often keep the image's m > 1
    rays, fan = _rich(dim)
    tree = TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays))
    offset = [data.draw(RATIONALS) for _ in range(2)]
    honeycomb = TropicalCurve.build(*gen.honeycomb(data.draw(st.integers(2, 6)), 3, offset))
    for c, f in ((translated(tree, [data.draw(RATIONALS) for _ in range(dim)]), fan),
                 (translated(honeycomb, (0, 0, Fraction(1, 5))), _p2(3))):
        cert = certify(c, f)
        hat, n = rescale_integral(subdivide_along_fan(c, f).output)
        assert cert.multiplier == n and cert.rescaled_curve == hat
        assert f is _p2(3) or (n > 1 and hat is not c)
        types = [[type(x) for x in p] for p in hat.vertices.values()]
        assert [[type(x) for x in p] for p in cert.rescaled_curve.vertices.values()] == types
        assert vars(cert.rescaled_curve).get("_image") == vars(hat).get("_image")
        assert hat is c or "_image" in vars(hat) and hat._image == integer_image(hat.vertices)


@cache
def _p2(dim: int):
    return fan_from_maximal(*(gen.fan_p2() if dim == 2 else gen.fan_p2_r3()))


def test_the_state_certify_hands_derive_on_every_fixture_and_fan():
    # every fixture x fan pair of one dimension that certify accepts, trees on
    # both rich fans, which hold hosts of weight > 1, and honeycombs lifted to
    # z = k/11 in R^3 (the stellar fans' test's seed), some of which keep m > 1
    seen = {"certified": 0, "broken": 0, "heavy": 0, "m > 1": 0}
    cases = [(curve(), fan()) for curve in fixtures.CURVES.values() for fan in fixtures.FANS.values()]
    cases += [(TropicalCurve.build(*gen.tree(random.Random(seed), dim, 24, _rich(dim)[0])),
               _rich(dim)[1]) for dim in (2, 3) for seed in range(4)]
    rng = random.Random(17)
    for d in (3, 4, 5):
        offset = [Fraction(rng.randint(-30, 30), rng.randint(2, 9)) for _ in range(2)]
        lift = (0, 0, Fraction(rng.randint(1, 10), 11))
        cases.append((translated(TropicalCurve.build(*gen.honeycomb(d, 3, offset)), lift), _p2(3)))
    for curve, fan in cases:
        if curve.ambient_dim == fan.ambient_dim:
            cert = _handed_state_is_derived_afresh(curve, fan)
            if cert is not None:
                hat = cert.rescaled_curve
                seen["certified"] += 1
                seen["broken"] += len(hat.vertices) > len(curve.vertices)
                seen["heavy"] += any(nd.rho > 1 for nd in cert.node_data)
                seen["m > 1"] += hat._image[0] > 1
    assert seen["certified"] >= 15 and seen["broken"] >= 8 and seen["heavy"] >= 4, seen
    assert seen["m > 1"] >= 1, seen


# integer images with many zero and negative coordinates
COORDINATES = st.sampled_from([0, 0, 0, 1, -1, 2, -3]) | st.integers(-10**12, 10**12)


@DERANDOMIZED
@hypothesis.given(dim=st.sampled_from([1, 2, 3]), fan_seed=st.integers(0, 3), data=st.data())
def test_hyperplane_values_are_the_dot_products_and_their_signs(dim, fan_seed, data):
    # the P^1 fan in R^1, or a stellar fan in R^2 or R^3
    fan = fan_from_maximal([(1,), (-1,)], [[0], [1]], 1) if dim == 1 else _stellar(dim, fan_seed)[1]
    points = st.lists(COORDINATES, min_size=dim, max_size=dim)
    image = data.draw(st.dictionaries(st.sampled_from("abcdefgh"), points, max_size=8))
    image["origin"] = [0] * dim
    values, vectors = hyperplane_values(fan, image)
    assert values == {k: [sum(x * y for x, y in zip(n, q)) for n in fan.hyperplanes]
                      for k, q in image.items()}
    # bit j of the first mask is set iff n_j.q > 0, of the second iff n_j.q < 0
    assert vectors == {k: (sum(1 << j for j, x in enumerate(v) if x > 0),
                           sum(1 << j for j, x in enumerate(v) if x < 0))
                       for k, v in values.items()}
    assert {k: as_signs(key, len(fan.hyperplanes)) for k, key in vectors.items()} == {
        k: signs(v) for k, v in values.items()}
    assert vectors["origin"] == (0, 0)


@DERANDOMIZED
@hypothesis.given(c=rational_curves(), dim=st.sampled_from([2, 3]), fan_seed=st.integers(0, 3))
def test_curves_and_fans_survive_the_json_round_trip_byte_for_byte(c, dim, fan_seed):
    fan = _stellar(dim, fan_seed)[1]
    pairs = [(c, curve_to_dict, curve_from_dict), (fan, fan_to_dict, fan_from_dict)]
    for x, to_dict, from_dict in pairs:
        text = dumps(to_dict(x))
        back = from_dict(loads(text))
        assert back == x and dumps(to_dict(back)) == text


@cache
def _documents() -> list:
    """(command line, document): two curves with rational coordinates for
    check, two fans to subdivide segfan against, and two certificates for
    verify-cert.  Every optional list they carry is non-empty."""
    segfan = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(-1, 2)))
    speyer3 = translated(fixtures.speyer3(), (Fraction(2, 5), 0, Fraction(-1, 7)))
    fan = ("subdivide", "{curve}", "--fan", "{doc}")
    return [
        (("check", "{doc}"), curve_to_dict(segfan)),
        (("check", "{doc}"), curve_to_dict(speyer3)),
        (fan, fan_to_dict(fixtures.fan_p1xp1())),
        (fan, fan_to_dict(_stellar(2, 0)[1])),
        (("verify-cert", "{doc}"), certificate_to_dict(certify(segfan, fixtures.fan_p1xp1()))),
        (("verify-cert", "{doc}"), certificate_to_dict(certify(speyer3, fixtures.fan_r3()))),
    ]


def _paths(doc, path=()):
    """The path of every value in a JSON document, the document's own () first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, path + (key,))


# values no field reads, each replacing a value of another JSON type
FOREIGN = [None, True, 0.5, "x", [], {}]


def _foreign(path: tuple, value):
    """The value of another JSON type that replaces ``value`` at ``path``, picked
    by a stable hash of the path alone, so that adding or removing a field
    elsewhere in a document changes no other path's pick."""
    others = [x for x in FOREIGN if type(x) is not type(value)]
    return others[zlib.crc32(json.dumps(path).encode()) % len(others)]


READERS = {"check": curve_from_dict, "subdivide": fan_from_dict,
           "verify-cert": certificate_from_dict}


def test_every_value_of_another_type_is_a_schema_error():
    # each value of each document in turn, replaced by one of another type
    for command, doc in _documents():
        doc = json.loads(json.dumps(doc))
        for *parents, key in list(_paths(doc))[1:]:
            holder = reduce(getitem, parents, doc)
            value = holder[key]
            holder[key] = _foreign((*parents, key), value)
            with pytest.raises(SchemaError):
                READERS[command[0]](doc)
            holder[key] = value


SCHEMA_GOLDEN = Path(__file__).parent / "data" / "schema_details_golden.json"


def schema_details() -> dict[str, str]:
    """What the reader makes of each single fault in each ``_documents()``
    entry: every value replaced by one of another type (``_foreign``, as in
    the test above), and every key of every object dropped, each in a fresh
    copy.  Keyed "<document index> <path> -> <new value>" or "<...> dropped";
    the value is "<error class>: <detail>", or "accepted"."""
    out = {}
    for n, (command, doc) in enumerate(_documents()):
        text = json.dumps(doc)
        for *parents, key in list(_paths(json.loads(text)))[1:]:
            new = _foreign((*parents, key), reduce(getitem, [*parents, key], json.loads(text)))
            for fault in [f"-> {json.dumps(new)}"] + ["dropped"] * isinstance(key, str):
                holder = reduce(getitem, parents, copy := json.loads(text))
                if fault == "dropped":
                    del holder[key]
                else:
                    holder[key] = new
                try:
                    READERS[command[0]](copy)
                    detail = "accepted"
                except Exception as ex:  # noqa: BLE001 - the class is recorded
                    detail = f"{type(ex).__name__}: {ex}"
                out[f"{n} {json.dumps([*parents, key])} {fault}"] = detail
    return out


def test_every_single_fault_gets_its_recorded_detail():
    # generated by schema_details() from the row-by-row reader, before the
    # reader checked each field as a column; a document with one fault must
    # be refused with the same text, byte for byte
    assert schema_details() == json.loads(SCHEMA_GOLDEN.read_text())


def test_of_two_faults_the_one_in_the_earlier_column_is_named():
    # the reader checks each field as a column, in key order, so of a bad
    # weight in the first edge and a bad id in the last, the id is named
    # (the row-by-row reader named the weight); README "File formats" says so
    doc = json.loads(json.dumps(curve_to_dict(fixtures.speyer3())))
    doc["edges"][0]["weight"], doc["edges"][-1]["id"] = None, None
    with pytest.raises(SchemaError, match="^edge id must be a string$"):
        curve_from_dict(doc)
    doc["edges"][-1]["id"] = "e"
    with pytest.raises(SchemaError, match="^edge weight must be an integer$"):
        curve_from_dict(doc)


@DERANDOMIZED
@hypothesis.given(data=st.data())
def test_structurally_mutated_json_exits_1_or_2_with_a_report(data):
    command, doc = data.draw(st.sampled_from(_documents()))
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    holder = reduce(getitem, path[:-1], doc)
    value = holder[path[-1]] if path else doc
    kinds = ["retype"]
    if path and isinstance(holder, dict):
        kinds.append("drop key")
    # a fan without one of its cones, or with a cone cut to one of its faces,
    # can still be a fan the curve fits in, so cone lists keep their length
    if isinstance(value, list) and value and "cones" not in path:
        kinds.append("shorten")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "retype":
        new = data.draw(st.sampled_from([x for x in FOREIGN if type(x) is not type(value)]))
        if path:
            holder[path[-1]] = new
        else:
            doc = new
    elif kind == "drop key":
        del holder[path[-1]]
    else:
        del value[data.draw(st.integers(0, len(value) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        files = {"doc": Path(tmp) / "doc.json", "curve": Path(tmp) / "curve.json"}
        files["doc"].write_text(json.dumps(doc))
        files["curve"].write_text(dumps(curve_to_dict(fixtures.segfan())))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([arg.format(**files) for arg in command])
    report = json.loads(out.getvalue())
    # every field is type-checked, so a value of another type is a schema error
    assert code == 2 if kind == "retype" else code in (1, 2), (kind, path)
    assert isinstance(report, dict)
    if code == 2:
        assert set(report) == {"error", "detail"} and report["error"] == "SchemaError"


@DERANDOMIZED
@hypothesis.given(dim=st.sampled_from([2, 3]), fan_seed=st.integers(0, 3),
                  seed=st.integers(0, 2**32), size=st.integers(2, 10), data=st.data())
def test_subdivision_is_idempotent_and_splits_each_host_by_length(dim, fan_seed, seed, size, data):
    rays, fan = _stellar(dim, fan_seed)
    tree = TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays))
    c = translated(tree, [data.draw(RATIONALS) for _ in range(dim)])
    out = subdivide_along_fan(c, fan).output
    again = subdivide_along_fan(out, fan)
    assert not again.new_vertices and again.output == out
    pieces = {}  # host id -> lattice lengths of its bounded pieces, inherited from the walk
    for e in out.edges:
        pieces.setdefault(e.id.partition(":")[0], []).append(edge_data(out, e.id)[1])
    for e in c.edges:
        assert sum(pieces[e.id]) == edge_data(c, e.id)[1], e.id
    for r in c.rays:  # the bounded pieces reach the ray's last break
        tail = next(t for t in out.rays if t.id.partition(":")[0] == r.id)
        total = sum(pieces.get(r.id, []))
        base = c.vertices[r.base]
        assert out.vertices[tail.base] == tuple(x + total * d for x, d in zip(base, r.direction))


@st.composite
def connected_types(draw):
    """A connected combinatorial type in R^2 to R^4 with at most 12 vertices:
    a random spanning tree plus up to V/2 more edges, parallel ones allowed
    but no loops, randomly oriented.  Directions are random primitive
    vectors, or, in about half the types, come from the small plane set
    e1, e2, e1 + e2, so that cycles lose rank and the excess is often
    positive."""
    n, nvertices = draw(st.integers(2, 4)), draw(st.integers(1, 12))
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, nvertices)]
    for _ in range(draw(st.integers(0, nvertices // 2)) if nvertices > 1 else 0):
        pairs.append(tuple(draw(st.lists(st.integers(0, nvertices - 1), min_size=2,
                                         max_size=2, unique=True))))
    plane = [(1, 0) + (0,) * (n - 2), (0, 1) + (0,) * (n - 2), (1, 1) + (0,) * (n - 2)]
    vectors = (st.sampled_from(plane) if draw(st.booleans())
               else st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    edges = []
    for j, (a, b) in enumerate(pairs):
        d = draw(vectors)
        ends = (f"v{a:02d}", f"v{b:02d}")
        edges.append(TypeEdge(f"e{j:02d}", ends if draw(st.booleans()) else ends[::-1], 1,
                              tuple(x // gcd(*d) for x in d)))
    return CombinatorialType(n, tuple(f"v{k:02d}" for k in range(nvertices)), tuple(edges), ())


@hypothesis.settings(DERANDOMIZED, max_examples=200)
@hypothesis.given(t=connected_types())
def test_superabundance_matches_the_dense_kernel_on_random_types(t):
    assert superabundance(t).dimension == dense_deformation_dimension(t)
    assert deformation_cone(t).equations == tuple(dense_edge_equations(t))


@st.composite
def genus_one_curves(draw):
    """A degree-3 honeycomb, in R^3 with some rays d split into d + e3 and -e3
    so that they leave the cycle's plane, or a seeded tree with one chord
    between two of its vertices (a ray at each end balances the chord);
    translated by rationals."""
    dim = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        spec = gen.honeycomb(3, dim, (draw(RATIONALS), draw(RATIONALS)))
        if dim == 3:
            _, vertices, edges, rays = spec
            tilted = draw(st.sets(st.sampled_from(range(len(rays)))))
            spec = (dim, vertices, edges, [
                split for i, (rid, v, d, w) in enumerate(rays)
                for split in ([(rid + "a", v, d[:2] + (1,), w), (rid + "b", v, (0, 0, -1), w)]
                              if i in tilted else [(rid, v, d, w)])])
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        _, vertices, edges, rays = gen.tree(rng, dim, draw(st.integers(2, 8)), DIRECTIONS[dim])
        u, w = draw(st.lists(st.sampled_from(sorted(vertices)), min_size=2, max_size=2, unique=True))
        d, _ = reference_primitive_and_scale([b - a for a, b in zip(vertices[u], vertices[w])])
        spec = (dim, vertices, edges + [("chord", (u, w), 1)],
                rays + [("ru", u, tuple(-x for x in d), 1), ("rw", w, d, 1)])
    c = translated(TropicalCurve.build(*spec), [draw(RATIONALS) for _ in range(dim)])
    hypothesis.assume(validate(c).valid)
    return c


@DERANDOMIZED
@hypothesis.given(c=genus_one_curves())
def test_cycle_normals_cut_out_its_span_and_count_the_excess(c):
    data = cycle(c)
    assert data.codim == superabundance(combinatorial_type(c)).excess
    directions = [edge_data(c, e)[0] for e in data.edges]
    for u in data.normals:
        assert gcd(*u) == 1 and not any(dot(u, d) for d in directions), u
    assert len(data.normals) == c.ambient_dim - len(echelon(directions)[1])
    # a closed walk from the smallest id, through distinct vertices and edges,
    # leaving the start along the smaller-id of its two cycle edges
    walk, steps = data.vertices, data.edges
    assert walk[0] == min(walk) and len(set(walk)) == len(walk) == len(set(steps)) == len(steps)
    ends = {e.id: set(e.ends) for e in c.edges}
    for i, eid in enumerate(steps):
        assert ends[eid] == {walk[i], walk[(i + 1) % len(walk)]}, eid
    assert steps[0] < steps[-1]


@DERANDOMIZED
@hypothesis.given(c=genus_one_curves())
def test_well_spacedness_matches_the_reference_on_genus_one_curves(c):
    assert well_spaced(c) == reference_well_spaced(c)


@DERANDOMIZED
@hypothesis.given(c=genus_one_curves(), factor=POSITIVE_RATIONALS, data=st.data())
def test_well_spacedness_survives_translation_and_scaling(c, factor, data):
    shift = [data.draw(RATIONALS) for _ in range(c.ambient_dim)]
    verdict = well_spaced(c)
    for image, stretch in ((translated(c, shift), 1), (scaled(c, factor), factor)):
        # the same departures at scaled distances, so the same argmin and verdict
        assert well_spaced(image) == verdict._replace(departures=tuple(
            Departure(d.vertex, stretch * d.distance) for d in verdict.departures))
