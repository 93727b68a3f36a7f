"""Property tests, derandomized so that every run draws the same examples."""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from functools import cache, reduce
from math import gcd
from operator import getitem
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import (  # noqa: E402
    DIRECTIONS,
    echelon,
    gen,
    reference_double_description,
    reference_primitive_and_scale,
    scaled,
    stellar_fan,
    translated,
)
from tropic import cli, degeneration, fixtures  # noqa: E402
from tropic.curves import TropicalCurve, edge_data, genus, is_balanced, validate  # noqa: E402
from tropic.defspace import combinatorial_type, superabundance  # noqa: E402
from tropic.degeneration import BasePoint, certify, verify_certificate  # noqa: E402
from tropic.errors import SchemaError  # noqa: E402
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
from tropic.latticefan import dot, double_description, fan_from_maximal, rank  # noqa: E402
from tropic.refine import subdivide_along_fan  # noqa: E402
from tropic.wellspaced import Departure, cycle, well_spaced  # noqa: E402

DERANDOMIZED = hypothesis.settings(
    derandomize=True, database=None, max_examples=60, deadline=None
)

# mostly zeros, as in the cycle-closing matrices rank serves
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
    # the id-keyed maps are read in id order, whatever their order in the file
    doc = loads(text)
    bp = doc["base_point"]
    for holder, key in [(doc, "vertex_cones"), (doc, "vertex_stars"), (bp, "edge_valuations"),
                        (bp, "vertex_positions")]:
        holder[key] = dict(reversed(holder[key].items()))
    assert certificate_from_dict(doc) == cert


@DERANDOMIZED
@hypothesis.given(dim=st.sampled_from([2, 3]), fan_seed=st.integers(0, 3),
                  seed=st.integers(0, 2**32), size=st.integers(2, 10), data=st.data())
def test_certificates_that_certify_cannot_emit_are_refused(dim, fan_seed, seed, size, data):
    rays, fan = _stellar(dim, fan_seed)
    tree = TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays))
    curve = translated(tree, [data.draw(RATIONALS) for _ in range(dim)])
    cert = certify(curve, fan)
    bp = cert.base_point
    # an entry listed twice, as it is: only the repeat shows
    fields = {"vertex_cones": cert.vertex_cones, "vertex_stars": cert.vertex_stars,
              "node_data": cert.node_data, **bp._asdict()}
    field = data.draw(st.sampled_from(sorted(f for f, entries in fields.items() if entries)))
    entries = fields[field]
    i, j = data.draw(st.integers(0, len(entries) - 1)), data.draw(st.integers(0, len(entries)))
    doubled = entries[:j] + (entries[i],) + entries[j:]
    if field in bp._fields:
        mutated = cert._replace(base_point=bp._replace(**{field: doubled}))
    else:
        mutated = cert._replace(**{field: doubled})
    assert verify_certificate(mutated).violations == (f"DuplicateEntry: {field} {entries[i][0]}",)
    # N negated with the base point, which keeps every cross-multiplication
    negated = cert._replace(multiplier=-cert.multiplier, base_point=BasePoint(
        tuple((e, -x) for e, x in bp.edge_valuations),
        tuple((v, tuple([-x for x in p])) for v, p in bp.vertex_positions)))
    assert verify_certificate(negated).violations == (
        "MultiplierNotPositive: the multiplier must be a positive int",)
    # the curve never rescaled, with the node data and base point certify
    # derives from it at N = 1: each edge whose k is no integer is named
    with mock.patch.object(degeneration, "rescale_integral", lambda c: (c, 1)):
        raw = certify(curve, fan)
    fractional = sorted(nd.edge for nd in raw.node_data if type(nd.k) is not int)
    assert bool(fractional) == (cert.multiplier > 1)
    assert verify_certificate(raw).violations == tuple(
        f"NodeDataMismatch: edge {e}" for e in fractional)
    # the curve dilated by 2 and N doubled, with the node data derived from
    # it: every field agrees, but N/2 makes every length/weight integral too
    big = scaled(cert.rescaled_curve, 2)
    dilated = cert._replace(rescaled_curve=big, multiplier=2 * cert.multiplier,
                            node_data=tuple(degeneration._derive(big)[1].values()))
    assert verify_certificate(dilated).violations == (
        "MultiplierNotLeast: a smaller multiplier makes every length/weight integral",)


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


def test_every_value_of_another_type_is_a_schema_error():
    # each value of each document in turn, replaced by one of another type
    readers = {"check": curve_from_dict, "subdivide": fan_from_dict,
               "verify-cert": certificate_from_dict}
    for command, doc in _documents():
        doc = json.loads(json.dumps(doc))
        for i, (*parents, key) in enumerate(list(_paths(doc))[1:]):
            holder = reduce(getitem, parents, doc)
            value = holder[key]
            others = [x for x in FOREIGN if type(x) is not type(value)]
            holder[key] = others[i % len(others)]
            with pytest.raises(SchemaError):
                readers[command[0]](doc)
            holder[key] = value


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
@hypothesis.given(c=genus_one_curves(), factor=POSITIVE_RATIONALS, data=st.data())
def test_well_spacedness_survives_translation_and_scaling(c, factor, data):
    shift = [data.draw(RATIONALS) for _ in range(c.ambient_dim)]
    verdict = well_spaced(c)
    for image, stretch in ((translated(c, shift), 1), (scaled(c, factor), factor)):
        # the same departures at scaled distances, so the same argmin and verdict
        assert well_spaced(image) == verdict._replace(departures=tuple(
            Departure(d.vertex, stretch * d.distance) for d in verdict.departures))
