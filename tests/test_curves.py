import re
from fractions import Fraction

import pytest

from helpers import gen, scaled, translated
from tropic import fixtures
from tropic.curves import (
    TropicalCurve,
    edge_data,
    genus,
    is_balanced,
    recession_fan,
    star,
    validate,
)
from tropic.errors import DegenerateEdge, DimMismatch, InvalidCurve, NoSuchVertex
from tropic.jsonio import curve_to_dict


def test_fixtures_validate():
    for name, fn in fixtures.CURVES.items():
        assert validate(fn()).valid, name


def test_build_takes_exact_values_and_refuses_floats_and_fractional_integers():
    # ints, Fractions and "p/q" strings build as exact values, an int where
    # integral and else a Fraction, as the JSON reader keeps them; a float is a binary
    # fraction, not the number written, and a weight or direction entry that
    # is no integer would be truncated (a ray (1.7, 0) of weight 1.9 became
    # (1, 0) of weight 1 and balanced), so each is refused, naming the value;
    # so is a bool, and a string that the file format refuses ("p" or "p/q"
    # only, no zero denominator), neither as a raw Python error
    from tropic.curves import BoundedEdge, CurveRay

    c = TropicalCurve.build(2, {"a": (Fraction(1, 3), "1/2"), "b": ("-4/2", 7)},
                            edges=[("e", ("a", "b"), "6/3")],
                            rays=[("r", "a", (Fraction(-2, 2), "0"), Fraction(4, 2))])
    assert c.vertices == {"a": (Fraction(1, 3), Fraction(1, 2)), "b": (-2, 7)}
    assert [type(x) for p in c.vertices.values() for x in p] == [Fraction, Fraction, int, int]
    assert c.edges == (BoundedEdge("e", ("a", "b"), 2),)
    assert c.rays == (CurveRay("r", "a", (-1, 0), 2),)
    assert all(type(x) is int for x in (c.edges[0].weight, c.rays[0].weight, *c.rays[0].direction))
    for vertices, rays, shown in (
        ({"a": (0.1, 0)}, [], "0.1 is no exact number"),
        ({"a": (0, 0)}, [("r", "a", (1.7, 0), 1)], "1.7 is no exact integer"),
        ({"a": (0, 0)}, [("r", "a", (1, 0), 1.9)], "1.9 is no exact integer"),
        ({"a": (0, 0)}, [("r", "a", (1, 0), 2.0)], "2.0 is no exact integer"),
        ({"a": (0, 0)}, [("r", "a", (Fraction(3, 2), 0), 1)],
         r"Fraction\(3, 2\) is no exact integer"),
        ({"a": (0, 0)}, [("r", "a", (1, 0), "5/2")], "'5/2' is no exact integer"),
    ):
        with pytest.raises(InvalidCurve, match=f"^{shown}$"):
            TropicalCurve.build(2, vertices, rays=rays)
    with pytest.raises(InvalidCurve, match="^0.5 is no exact integer$"):
        TropicalCurve.build(2, {"a": (0, 0), "b": (1, 0)}, edges=[("e", ("a", "b"), 0.5)])
    for value in ("1/0", "abc", None, "0.1", "1e-1", " 1/2 ", "1_000", True):
        with pytest.raises(InvalidCurve, match=f"^{re.escape(repr(value))} is no exact number$"):
            TropicalCurve.build(2, {"a": (value, 0)})
    with pytest.raises(InvalidCurve, match="^True is no exact integer$"):
        TropicalCurve.build(2, {"a": (0, 0)}, rays=[("r", "a", (1, 0), True)])


def test_build_and_the_reader_keep_one_type_per_coordinate():
    # one in-memory form per curve: each fixture read from its file, built
    # from the file's values, and built from its coordinates as Fractions
    # holds an int for each integral coordinate and a Fraction for the rest
    from tropic.jsonio import curve_from_dict, loads

    for name in fixtures.CURVES:
        doc = loads(fixtures.DIRECTORY.joinpath(f"{name}.json").read_text())
        read = curve_from_dict(doc)
        edges = [(e["id"], e["ends"], e["weight"]) for e in doc.get("edges", [])]
        rays = [(r["id"], r["base"], r["direction"], r["weight"]) for r in doc.get("rays", [])]
        from_file = TropicalCurve.build(
            doc["ambient_dim"], {v["id"]: v["coords"] for v in doc["vertices"]}, edges, rays)
        from_fractions = TropicalCurve.build(
            read.ambient_dim, {v: [Fraction(x) for x in p] for v, p in read.vertices.items()},
            edges, rays)
        types = [[(type(x), x.denominator == 1) for x in p] for p in read.vertices.values()]
        assert all(kind is (int if integral else Fraction) for p in types for kind, integral in p)
        for c in (from_file, from_fractions):
            assert c == read, name
            assert [[(type(x), x.denominator == 1) for x in p]
                    for p in c.vertices.values()] == types, name
    assert TropicalCurve.build(1, {"a": ("3",), "b": ("-3/4",)}).vertices == {
        "a": (3,), "b": (Fraction(-3, 4),)}


def test_disconnected_reported():
    c = TropicalCurve.build(
        2,
        {"a": (0, 0), "b": (1, 0), "c": (5, 5), "d": (6, 5)},
        edges=[("e0", ("a", "b"), 1), ("e1", ("c", "d"), 1)],
    )
    report = validate(c)
    assert any(v.code == "Disconnected" for v in report.violations)
    # an edge to an unknown vertex is that violation only, not a disconnection
    c = TropicalCurve.build(2, {"a": (0, 0), "b": (1, 0)},
                            edges=[("e0", ("a", "b"), 1), ("e1", ("b", "z"), 1)])
    assert [v.code for v in validate(c).violations] == ["NoSuchVertex"]


def test_zero_weight_reported():
    c = TropicalCurve.build(
        2,
        {"a": (0, 0), "b": (1, 0)},
        edges=[("e0", ("a", "b"), 0)],
    )
    assert any(v.code == "NonpositiveWeight" for v in validate(c).violations)


def test_zero_length_edge_reported():
    c = TropicalCurve.build(
        2,
        {"a": (0, 0), "b": (0, 0)},
        edges=[("e0", ("a", "b"), 1)],
    )
    assert any(v.code == "DegenerateEdge" for v in validate(c).violations)


def test_edge_data_examples():
    c = TropicalCurve.build(
        2,
        {"a": (0, 0), "b": (2, 0), "c": (3, 6), "d": (Fraction(1, 2), Fraction(1, 2))},
        edges=[("e0", ("a", "b"), 1), ("e1", ("a", "c"), 1), ("e2", ("a", "d"), 1)],
    )
    assert edge_data(c, "e0") == ((1, 0), Fraction(2))
    assert edge_data(c, "e1") == ((1, 2), Fraction(3))  # gcd extraction
    assert edge_data(c, "e2") == ((1, 1), Fraction(1, 2))


def test_edge_data_degenerate():
    c = TropicalCurve.build(2, {"a": (0, 0), "b": (0, 0)}, edges=[("e0", ("a", "b"), 1)])
    with pytest.raises(DegenerateEdge):
        edge_data(c, "e0")


def test_edge_data_refuses_an_end_of_the_wrong_length():
    # an end without two coordinates in R^2 (shorter, longer, or both ends
    # longer): the edge has no edge data, and edge_data names that end as
    # validate does, even where the ends coincide
    for a, b, named in (((0, 0), (1, 2, 3), "b"), ((0, 0, 5), (1, 2, 3), "a"),
                        ((0, 0, 5), (0, 0, 5), "a"), ((0, 0), (0, 0, 7), "b")):
        c = TropicalCurve.build(2, {"a": a, "b": b}, [("e", ("a", "b"), 1)])
        message = f"vertex {named} has 3 coordinates"
        assert message in [v.detail for v in validate(c).violations], (a, b)
        assert c._edge_data == {}, (a, b)
        with pytest.raises(DimMismatch, match=f"^{message}$"):
            edge_data(c, "e")


def test_an_ambient_dimension_past_an_index_is_a_violation():
    # no vertex has 10**30 coordinates, so no zero vector of that length is built
    c = TropicalCurve.build(10**30, {"a": (0, 0), "b": (1, 0)}, [("e", ("a", "b"), 1)],
                            [("r", "a", (1, 0), 1)])
    assert [v.detail for v in validate(c).violations] == [
        "vertex a has 2 coordinates", "vertex b has 2 coordinates",
        "ray r direction has 2 coordinates"]
    assert c._edge_data == {}


def test_balancing_catalog():
    for name in ("line", "tripod", "segfan", "cycle3", "speyer3"):
        assert is_balanced(fixtures.CURVES[name]()).balanced, name
    report = is_balanced(fixtures.unbal())
    assert not report.balanced
    assert report.defects == (("v0", (1, 1)),)
    # a defect that vanishes in its first coordinate is a defect
    skew = TropicalCurve.build(2, {"v": (0, 0)},
                               rays=[("r0", "v", (1, 0), 1), ("r1", "v", (0, 1), 1),
                                     ("r2", "v", (-1, -2), 1)])
    assert is_balanced(skew).defects == (("v", (0, -1)),)


def test_balancing_invariant_under_translation_and_scaling():
    for name in ("tripod", "segfan", "cycle3"):
        c = fixtures.CURVES[name]()
        assert is_balanced(translated(c, (7, Fraction(5, 3)))).balanced
        assert is_balanced(scaled(c, Fraction(3, 2))).balanced
    u = fixtures.unbal()
    assert not is_balanced(translated(u, (1, 1))).balanced
    assert not is_balanced(scaled(u, 4)).balanced


def test_global_balancing():
    # summing the vertex identities cancels bounded edges, leaving the rays
    for name in ("line", "tripod", "segfan", "cycle3", "speyer3", "speyer3_ws", "diag"):
        c = fixtures.CURVES[name]()
        total = [0] * c.ambient_dim
        for r in c.rays:
            for i, x in enumerate(r.direction):
                total[i] += r.weight * x
        assert not any(total), name


def test_genus():
    assert genus(fixtures.tripod()) == 0
    assert genus(fixtures.cycle3()) == 1
    assert genus(fixtures.speyer3()) == 1  # 3 bounded edges, 3 vertices


def test_genus_zero_iff_tree():
    for name, fn in fixtures.CURVES.items():
        c = fn()
        g = genus(c)
        assert g >= 0
        is_tree = len(c.edges) == len(c.vertices) - 1
        assert (g == 0) == is_tree


def test_recession_fan():
    assert recession_fan(fixtures.tripod()).rays() == ((-1, -1), (0, 1), (1, 0))
    assert recession_fan(fixtures.line()).rays() == ((-1, 0), (1, 0))
    assert recession_fan(fixtures.speyer3()).rays() == (
        (-1, -1, -1),
        (-1, 2, 0),
        (0, 0, 1),
        (2, -1, 0),
    )


def test_recession_fan_ignores_bounded_edges():
    # doubling the segment (weights rebalanced) leaves the recession fan alone
    doubled = TropicalCurve.build(
        2,
        {"v0": (0, 0), "v1": (2, 0)},
        edges=[("e0", ("v0", "v1"), 2), ("e1", ("v0", "v1"), 2)],
        rays=[("r0", "v0", (-1, 0), 4), ("r1", "v1", (1, 0), 4)],
    )
    assert is_balanced(doubled).balanced
    assert recession_fan(doubled) == recession_fan(fixtures.segfan())


def test_star():
    s = star(fixtures.tripod(), "v0")
    assert s.ray_weights == (((-1, -1), 1), ((0, 1), 1), ((1, 0), 1))
    s = star(fixtures.segfan(), "v0")
    assert s.ray_weights == (((-1, 0), 2), ((1, 0), 2))
    s = star(fixtures.cycle3(), "v0")  # two cycle edges plus the balancing ray
    assert s.ray_weights == (((-1, -1), 1), ((0, 1), 1), ((1, 0), 1))
    with pytest.raises(NoSuchVertex, match="^no vertex 'nope'$"):
        star(fixtures.tripod(), "nope")


def test_two_valent_vertex_allowed_when_collinear():
    c = TropicalCurve.build(
        2,
        {"a": (0, 0), "m": (1, 0), "b": (2, 0)},
        edges=[("e0", ("a", "m"), 2), ("e1", ("m", "b"), 2)],
        rays=[("r0", "a", (-1, 0), 2), ("r1", "b", (1, 0), 2)],
    )
    assert validate(c).valid
    assert is_balanced(c).balanced


def test_ambient_dimension_one_end_to_end():
    from tropic.degeneration import certify, verify_certificate
    from tropic.latticefan import fan_from_maximal, fan_validate

    c = TropicalCurve.build(
        1,
        {"a": (0,), "b": (3,)},
        edges=[("e0", ("a", "b"), 1)],
        rays=[("r-", "a", (-1,), 1), ("r+", "b", (1,), 1)],
    )
    assert validate(c).valid
    assert is_balanced(c).balanced
    assert genus(c) == 0
    fan = fan_from_maximal([(1,), (-1,)], [[0], [1]], 1)
    assert fan_validate(fan).valid
    cert = certify(c, fan)
    assert verify_certificate(cert).ok
    (nd,) = cert.node_data
    assert (nd.k, nd.rho, nd.u_q) == (3, 1, (-3,))


def test_incidence_index_matches_linear_scan():
    curves = [fn() for fn in fixtures.CURVES.values()] + [
        TropicalCurve.build(*gen.honeycomb(4, 2, (0, 0))),
        TropicalCurve.build(*gen.honeycomb(3, 3, (0, 0))),
    ]
    for c in curves:
        fresh = TropicalCurve(c.ambient_dim, dict(c.vertices), c.edges, c.rays)
        for v in list(c.vertices) + ["missing"]:
            assert c.edges_at(v) == [e for e in c.edges if v in e.ends]
            assert c.rays_at(v) == [r for r in c.rays if r.base == v]
        m = c._image[0]
        for e in c.edges:
            assert all(any(x is e for x in c.edges_at(v)) for v in e.ends)
            d, g = c._edge_data[e.id]  # the length as an int over the image's m
            assert type(g) is int and edge_data(c, e.id) == (d, Fraction(g, m))
        with pytest.raises(DegenerateEdge, match="^no bounded edge 'missing'$"):
            edge_data(c, "missing")
        # the cached indexes are not fields: equality and serialization ignore them
        assert c == fresh and curve_to_dict(c) == curve_to_dict(fresh)
        assert repr(c) == repr(fresh)


def test_cached_edge_data_matches_a_fresh_computation():
    import random

    from helpers import DIRECTIONS, reference_primitive_and_scale

    rng = random.Random(13)
    curves = [TropicalCurve.build(*gen.tree(rng, dim, n, DIRECTIONS[dim]))
              for dim in (2, 3) for n in (2, 9, 40)]
    curves += [TropicalCurve.build(*gen.honeycomb(d, dim, (Fraction(1, 3), Fraction(2, 7))))
               for d, dim in ((3, 2), (5, 2), (4, 3))]
    for c in curves:
        assert is_balanced(c).balanced  # reads every edge's data, filling the cache
        for e in c.edges:
            pu, pw = c.position(e.ends[0]), c.position(e.ends[1])
            fresh = reference_primitive_and_scale(tuple(b - a for a, b in zip(pu, pw)))
            d, g = c._edge_data[e.id]  # the length as an int over the image's m
            assert type(g) is int and edge_data(c, e.id) == fresh == (d, Fraction(g, c._image[0]))
        assert sorted(c._edge_data) == sorted(e.id for e in c.edges)


def test_edge_data_errors_are_not_cached():
    c = TropicalCurve.build(2, {"a": (0, 0), "b": (0, 0)}, edges=[("e0", ("a", "b"), 1)])
    for _ in range(2):
        with pytest.raises(DegenerateEdge, match="zero length"):
            edge_data(c, "e0")
        with pytest.raises(DegenerateEdge, match="no bounded edge 'x'"):
            edge_data(c, "x")
    assert c._edge_data == {}


def test_coincident_endpoints_are_found_per_edge_on_malformed_curves():
    # the integer image decides coincidence for the first edge of each id;
    # a reused id, a vertex of the wrong dimension and an unknown end are
    # reported as a Fraction comparison of the positions would
    c = TropicalCurve.build(
        2,
        {"a": (0, 0), "b": (1, 0), "c": (0, 0, 1)},
        edges=[("e", ("a", "b"), 1), ("e", ("a", "a"), 1), ("f", ("a", "c"), 1),
               ("g", ("b", "b"), 1), ("g", ("a", "b"), 1), ("h", ("a", "z"), 1)],
    )
    assert [(v.code, v.detail) for v in validate(c).violations] == [
        ("DimMismatch", "vertex c has 3 coordinates"),
        ("DuplicateId", "edge id e reused"),
        ("DegenerateEdge", "edge e has coincident endpoints"),
        ("DegenerateEdge", "edge g has coincident endpoints"),
        ("DuplicateId", "edge id g reused"),
        ("NoSuchVertex", "edge h references ['z']"),
    ]
    assert edge_data(c, "e") == ((1, 0), Fraction(1))  # the first edge of an id
    for edge_id, error, text in (("f", DimMismatch, "vertex c has 3 coordinates"),
                                 ("g", DegenerateEdge, "edge g has zero length"),
                                 ("h", NoSuchVertex, "no vertex 'z'")):
        with pytest.raises(error) as info:
            edge_data(c, edge_id)
        assert info.value.message == text


def test_valid_curves_echo_no_id(monkeypatch):
    import random

    from helpers import DIRECTIONS
    from tropic import curves

    def refuse(text):
        raise AssertionError(f"echoed {text!r} on a valid curve")

    monkeypatch.setattr(curves, "_echo", refuse)
    rng = random.Random(31)
    for c in (TropicalCurve.build(*gen.tree(rng, 3, 30, DIRECTIONS[3])),
              TropicalCurve.build(*gen.honeycomb(5, 2, (Fraction(1, 3), Fraction(-2, 7))))):
        assert validate(c).valid


@pytest.mark.parametrize("dim,direction,violations", [
    (2, (2, -4), [("NonPrimitiveDirection", "ray r direction (2, -4)")]),
    (2, (0, -3), [("NonPrimitiveDirection", "ray r direction (0, -3)")]),
    (2, (0, 0), [("ZeroDirection", "ray r has zero direction")]),
    (2, (1, 1, 1), [("DimMismatch", "ray r direction has 3 coordinates")]),
    (1, (-1,), []),
])
def test_ray_direction_violations(dim, direction, violations):
    c = TropicalCurve.build(dim, {"a": (0,) * dim}, rays=[("r", "a", direction, 1)])
    assert [(v.code, v.detail) for v in validate(c).violations] == violations


def test_an_edge_lists_only_its_unknown_end():
    c = TropicalCurve.build(2, {"a": (0, 0), "b": (1, 0)},
                            edges=[("e", ("a", "b"), 1), ("f", ("a", "zz"), 1),
                                   ("g", ("yy", "b"), 1)])
    assert [(v.code, v.detail) for v in validate(c).violations] == [
        ("NoSuchVertex", "edge f references ['zz']"),
        ("NoSuchVertex", "edge g references ['yy']"),
    ]


def test_error_details_cut_long_ids():
    long_id = "v" * 5000
    c = TropicalCurve.build(2, {"a": (0, 0), "b": (1, 0)},
                            edges=[("e", ("a", long_id), 1), (long_id, ("a", "b"), 0)],
                            rays=[("r", long_id, (1, 0), 1)])
    details = [v.detail for v in validate(c).violations]
    assert details[0] == f"edge e references ['{'v' * 40}... (5000 characters)']"
    assert all(len(d) < 120 for d in details), details
    for call in (lambda: c.position(long_id), lambda: star(fixtures.tripod(), long_id)):
        with pytest.raises(NoSuchVertex) as info:
            call()
        assert len(info.value.message) < 120
    with pytest.raises(DegenerateEdge) as info:
        edge_data(c, long_id * 2)
    assert len(info.value.message) < 120


def test_balancing_report_is_computed_once_per_curve(monkeypatch):
    from tropic.errors import InvalidCurve

    calls = []
    one_pass = TropicalCurve.__dict__["_pass"]
    real = one_pass.func

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(one_pass, "func", counting)
    for name in ("tripod", "unbal", "cycle3"):
        c = fixtures.CURVES[name]()
        calls.clear()
        first = is_balanced(c)
        assert calls == [c] and first.balanced == (name != "unbal") and first is c._pass[3]
        calls.clear()
        assert is_balanced(c) is first and calls == []
        # the cached report is not a field
        assert c == fixtures.CURVES[name]() and repr(c) == repr(fixtures.CURVES[name]())
    invalid = TropicalCurve.build(2, {"a": (0, 0)}, edges=[("e", ("a", "b"), 1)])
    calls.clear()
    for _ in range(2):
        with pytest.raises(InvalidCurve):
            is_balanced(invalid)
    assert calls == [invalid] and "_balance" not in vars(invalid)  # one pass, to validate


def test_balancing_a_fresh_curve_subtracts_no_fractions(monkeypatch):
    # edge data come from integer differences of one integer image per curve
    import random

    from helpers import DIRECTIONS

    calls = []
    for name in ("__sub__", "__rsub__"):
        real = getattr(Fraction, name)

        def counting(a, b, real=real):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    assert Fraction(3, 2) - 1 == 1 - Fraction(1, 2) and len(calls) == 2  # the counter counts
    calls.clear()
    rng = random.Random(5)
    curves = [TropicalCurve.build(*gen.tree(rng, 3, 30, DIRECTIONS[3])),
              TropicalCurve.build(*gen.honeycomb(6, 2, (Fraction(1, 3), Fraction(-2, 7)))),
              fixtures.unbal()]
    for c in curves:
        assert is_balanced(c).balanced == (c != fixtures.unbal())
        assert len(c._edge_data) == len(c.edges)
    assert calls == []


def test_a_first_balancing_builds_no_fraction_and_reads_the_curve_once(monkeypatch):
    # count gate (counts, not times), at V = 100 and V = 400: a first
    # is_balanced on a fresh tree runs the one pass (TropicalCurve._pass)
    # once, and the pass holds each lattice length as an int over the image's
    # m, so no tropic module builds a Fraction (the five separate passes
    # before it built one per edge: 99 and 399)
    import random
    import sys

    from helpers import DIRECTIONS
    from tropic.curves import TropicalCurve

    built, passes = [], []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    trees = [TropicalCurve.build(*gen.tree(random.Random(size), 3, size, DIRECTIONS[3]))
             for size in (100, 400)]
    for name, module in list(sys.modules.items()):  # counted from here: the trees are built
        if name.startswith("tropic") and getattr(module, "Fraction", None) is Fraction:
            monkeypatch.setattr(module, "Fraction", counting)
    one_pass = TropicalCurve.__dict__["_pass"]
    real = one_pass.func

    def reading(c):
        passes.append(c)
        return real(c)

    monkeypatch.setattr(one_pass, "func", reading)
    for size, c in zip((100, 400), trees):
        built.clear()
        passes.clear()
        assert is_balanced(c).balanced
        assert len(c.vertices) == size and c._image[0] > 1
        assert passes == [c] and built == [], (size, len(passes), len(built))
        assert is_balanced(c).balanced and len(c.edges_at(c.edges[0].ends[0])) >= 1
        assert passes == [c] and built == []


def test_build_sorts_permuted_input_into_one_curve():
    import random

    from helpers import DIRECTIONS
    from tropic.jsonio import dumps

    rng = random.Random(5)
    curves = [fn() for fn in fixtures.CURVES.values()]
    curves += [TropicalCurve.build(*gen.honeycomb(3, 2, (0, 0))),
               TropicalCurve.build(*gen.tree(rng, 3, 12, DIRECTIONS[3]))]
    for c in curves:
        vs = list(c.vertices.items())
        es = [(e.id, e.ends, e.weight) for e in c.edges]
        rs = [(r.id, r.base, r.direction, r.weight) for r in c.rays]
        for _ in range(3):
            for items in (vs, es, rs):
                rng.shuffle(items)
            p = TropicalCurve.build(c.ambient_dim, dict(vs), es, rs)
            assert p == c and list(p.vertices) == list(c.vertices)
            assert dumps(curve_to_dict(p)) == dumps(curve_to_dict(c))
        # _replace builds through the same sorting
        flipped = c._replace(edges=c.edges[::-1], rays=c.rays[::-1])
        assert flipped == c and type(flipped) is TropicalCurve


def test_cached_state_is_no_field():
    for name, fn in fixtures.CURVES.items():
        c = fn()
        is_balanced(c)  # fills the validation, balancing and edge data caches
        assert {"_validation", "_balance"} <= vars(c).keys(), name
        assert len(c._edge_data) == len(c.edges), name
        fresh = TropicalCurve(c.ambient_dim, c.vertices, c.edges, c.rays)
        assert vars(fresh) == {}
        assert c == fresh and fresh == c and not c != fresh, name
        assert tuple(c) == tuple(fresh) and len(c) == 4
        assert list(c._asdict()) == ["ambient_dim", "vertices", "edges", "rays"]
        assert curve_to_dict(c) == curve_to_dict(fresh) and repr(c) == repr(fresh)


def test_validation_reports_do_not_share_violations():
    weightless = TropicalCurve.build(2, {"a": (0, 0), "b": (1, 0)},
                                     edges=[("e0", ("a", "b"), 0)])
    dangling = TropicalCurve.build(2, {"a": (0, 0)}, rays=[("r", "z", (1, 0), 1)])
    first, second = validate(weightless), validate(dangling)
    assert [v.code for v in first.violations] == ["NonpositiveWeight"]
    assert [v.code for v in second.violations] == ["NoSuchVertex"]
    assert validate(fixtures.tripod()).violations == []
