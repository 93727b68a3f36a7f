import json
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import NonIntegralRatio, monoid_closure, node_monoid, reference_verify
from tropic import fixtures
from tropic.curves import is_balanced
from tropic.degeneration import (
    NodeData,
    certify,
    dual_curve,
    verify_certificate,
)
from tropic.errors import RecessionNotSupported, Unbalanced
from tropic.latticefan import Cone


CERTIFY_PAIRS = [
    ("line", "fan_p1xp1"),
    ("tripod", "fan_p2"),
    ("segfan", "fan_p1xp1"),
    ("cycle3", "fan_cycle3"),
    ("speyer3", "fan_r3"),
    ("speyer3_ws", "fan_r3_ws"),
    ("diag", "fan_diag"),
]


def test_dual_curve_tripod():
    d = dual_curve(fixtures.tripod())
    assert len(d.components) == 1
    assert len(d.nodes) == 0
    assert [m.contact_order for m in d.marked_points] == [1, 1, 1]


def test_dual_curve_cycle3():
    d = dual_curve(fixtures.cycle3())
    assert len(d.components) == 3
    assert len(d.nodes) == 3
    joined = {n.components for n in d.nodes}
    assert joined == {("C_v0", "C_v1"), ("C_v1", "C_v2"), ("C_v2", "C_v0")}


def test_dual_curve_segfan_contact_orders_equal_weights():
    d = dual_curve(fixtures.segfan())
    assert len(d.components) == 2 and len(d.nodes) == 1
    assert [m.contact_order for m in d.marked_points] == [2, 2]


def test_dual_curve_rejects_unbalanced():
    with pytest.raises(Unbalanced):
        dual_curve(fixtures.unbal())


def test_node_monoid_k1_is_everything():
    m = node_monoid(2, 2)
    assert m.k == 1
    assert m.contains(5, 3)
    assert m.contains(0, 17)


def test_node_monoid_k2_membership():
    m = node_monoid(4, 2)
    assert m.contains(1, 3)
    assert not m.contains(1, 2)


def test_node_monoid_rejects_non_integral_ratio():
    with pytest.raises(NonIntegralRatio):
        node_monoid(3, 2)
    with pytest.raises(NonIntegralRatio):
        node_monoid(Fraction(1, 2), 1)


def test_node_monoid_k3_truncated_enumeration():
    m = node_monoid(3, 1)
    members = {(a, b) for a in range(5) for b in range(5) if a + b <= 4 and m.contains(a, b)}
    assert members == monoid_closure(3, 4)
    assert members == {(0, 0), (1, 1), (2, 2), (0, 3), (3, 0)}


def test_node_monoid_congruence_equals_closure():
    for k in range(1, 9):
        m = node_monoid(k, 1)
        closure = monoid_closure(k, 30)
        for n1 in range(31):
            for n2 in range(31 - n1):
                assert m.contains(n1, n2) == ((n1, n2) in closure), (k, n1, n2)


def test_node_slope_identity():
    # the orientation convention: rho * u_q = position(v1) - position(v2)
    for curve_name, fan_name in CERTIFY_PAIRS:
        cert = certify(fixtures.CURVES[curve_name](), fixtures.FANS[fan_name]())
        hat = cert.rescaled_curve
        for nd in cert.node_data:
            p1, p2 = (hat.position(v) for v in hat.edge(nd.edge).ends)
            assert tuple(nd.rho * x for x in nd.u_q) == tuple(a - b for a, b in zip(p1, p2))
    (nd, _, _) = certify(fixtures.cycle3(), fixtures.fan_cycle3()).node_data
    assert (nd.edge, nd.u_q) == ("e0", (-1, 0))


def test_certify_tripod():
    cert = certify(fixtures.tripod(), fixtures.fan_p2())
    assert cert.node_data == ()
    assert [m.contact_order for m in cert.dual.marked_points] == [1, 1, 1]
    (pair,) = cert.vertex_cones
    assert cert.fan.cones[pair[1]] == Cone((), 2)  # the origin cone


def test_certify_segfan():
    cert = certify(fixtures.segfan(), fixtures.fan_p1xp1())
    (nd,) = cert.node_data
    assert (nd.k, nd.rho, nd.u_q) == (1, 2, (-1, 0))
    assert dict(cert.base_point.edge_valuations) == {"e0": Fraction(1)}


def test_certify_speyer3():
    cert = certify(fixtures.speyer3(), fixtures.fan_r3())
    assert len(cert.dual.nodes) == 3
    assert sorted(m.contact_order for m in cert.dual.marked_points) == [1, 1, 1, 1]
    assert verify_certificate(cert).ok


@pytest.mark.parametrize("curve_name,fan_name", CERTIFY_PAIRS)
def test_certify_round_trip(curve_name, fan_name):
    cert = certify(fixtures.CURVES[curve_name](), fixtures.FANS[fan_name]())
    check = verify_certificate(cert)
    assert check.ok, check.violations


def test_certify_and_verify_validate_each_curve_once(monkeypatch):
    # count, per curve instance, the structural check and every call of the
    # public validate wherever a tropic module binds it
    import sys

    from tropic import curves

    checks: dict[int, list] = {}
    calls: dict[int, list] = {}

    def counting(table, fn):
        def wrapper(c):
            table.setdefault(id(c), [c, 0])[1] += 1  # the entry keeps c alive: ids stay distinct
            return fn(c)
        return wrapper

    monkeypatch.setattr(curves, "_check_structure", counting(checks, curves._check_structure))
    validate = curves.validate
    for name, module in list(sys.modules.items()):
        if name.startswith("tropic") and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counting(calls, validate))
    for curve_name, fan_name in CERTIFY_PAIRS:
        c = fixtures.CURVES[curve_name]()
        assert is_balanced(c).balanced
        assert verify_certificate(certify(c, fixtures.FANS[fan_name]())).ok
    assert len(checks) >= len(CERTIFY_PAIRS)
    assert max(n for _, n in checks.values()) == 1
    assert all(n <= 1 for _, n in calls.values())


def test_certify_requires_recession_support():
    with pytest.raises(RecessionNotSupported):
        certify(fixtures.tripod(), fixtures.fan_p1xp1())


def test_certify_rejects_unbalanced():
    with pytest.raises(Unbalanced):
        certify(fixtures.unbal(), fixtures.fan_p1xp1())


def test_fault_injection_u_q():
    cert = certify(fixtures.segfan(), fixtures.fan_p1xp1())
    bad_nodes = tuple(
        nd._replace(u_q=(nd.u_q[0] + 1,) + nd.u_q[1:]) for nd in cert.node_data
    )
    check = verify_certificate(cert._replace(node_data=bad_nodes))
    assert not check.ok
    assert any("e0" in v for v in check.violations)


def test_fault_injection_contact_order():
    cert = certify(fixtures.speyer3(), fixtures.fan_r3())
    marked = cert.dual.marked_points
    tampered = (marked[0]._replace(contact_order=marked[0].contact_order + 1),) + marked[1:]
    check = verify_certificate(cert._replace(dual=cert.dual._replace(marked_points=tampered)))
    assert not check.ok


def test_node_slopes_recover_balancing():
    # directions recovered from node slopes (d = -u_q/k) reproduce the
    # balancing sums of the rescaled curve
    for curve_name, fan_name in CERTIFY_PAIRS:
        cert = certify(fixtures.CURVES[curve_name](), fixtures.FANS[fan_name]())
        hat = cert.rescaled_curve
        by_edge = {nd.edge: nd for nd in cert.node_data}
        for v in hat.vertices:
            total = [0] * hat.ambient_dim
            for e in hat.edges:
                nd = by_edge[e.id]
                if e.ends[0] == v:  # outgoing primitive direction is -u_q/k
                    for i, x in enumerate(nd.u_q):
                        total[i] += -e.weight * x // nd.k
                if e.ends[1] == v:
                    for i, x in enumerate(nd.u_q):
                        total[i] += e.weight * x // nd.k
            for r in hat.rays:
                if r.base == v:
                    for i, x in enumerate(r.direction):
                        total[i] += r.weight * x
            assert not any(total), (curve_name, v)


def test_certificates_are_deterministic():
    from tropic.jsonio import certificate_to_dict, dumps

    a = dumps(certificate_to_dict(certify(fixtures.speyer3(), fixtures.fan_r3())))
    b = dumps(certificate_to_dict(certify(fixtures.speyer3(), fixtures.fan_r3())))
    assert a == b


def test_node_monoid_rejects_bad_weight():
    with pytest.raises(NonIntegralRatio):
        node_monoid(4, 0)


def test_fault_injection_vertex_cone_and_base_point():
    cert = certify(fixtures.cycle3(), fixtures.fan_cycle3())
    # off-by-one cone index
    (v0, idx0), *rest = cert.vertex_cones
    bad = cert._replace(vertex_cones=((v0, idx0 + 1),) + tuple(rest))
    assert not verify_certificate(bad).ok
    # tampered valuation
    (e0, val0), *vals = cert.base_point.edge_valuations
    bad_bp = cert.base_point._replace(edge_valuations=((e0, val0 + 1),) + tuple(vals))
    assert not verify_certificate(cert._replace(base_point=bad_bp)).ok
    # tampered multiplier
    assert not verify_certificate(cert._replace(multiplier=cert.multiplier + 1)).ok


def test_certify_with_real_subdivision_keeps_split_valuations():
    cert = certify(fixtures.diag(), fixtures.fan_diag())
    assert [nd.edge for nd in cert.node_data] == ["e0:0", "e0:1"]
    assert dict(cert.base_point.edge_valuations) == {
        "e0:0": Fraction(1),
        "e0:1": Fraction(1),
    }
    assert verify_certificate(cert).ok


def _unsubdivided_certificate(monkeypatch, curve, fan):
    """A certificate of ``curve`` made with subdivision skipped, so a piece may
    run through several cones of ``fan``."""
    from helpers import unsubdivided_record
    from tropic import degeneration

    monkeypatch.setattr(degeneration, "subdivide_along_fan", unsubdivided_record)
    cert = certify(curve, fan)
    monkeypatch.undo()
    return cert


def test_verify_rejects_an_edge_through_several_cones(monkeypatch):
    # diag's edge e0 runs from ray (-1,-1) through the origin to ray (1,1)
    cert = _unsubdivided_certificate(monkeypatch, fixtures.diag(), fixtures.fan_diag())
    assert [e.id for e in cert.rescaled_curve.edges] == ["e0"]
    assert verify_certificate(cert).violations == ("PieceNotInCone: e0",)
    # segfan's e0, moved to y = 1, crosses x = 0 before or after its midpoint:
    # then only its first or only its second end leaves the midpoint's quadrant
    from helpers import translated

    for x in (Fraction(-1, 2), Fraction(-3, 2)):
        cert = _unsubdivided_certificate(monkeypatch, translated(fixtures.segfan(), (x, 1)),
                                         fixtures.fan_p1xp1())
        assert verify_certificate(cert).violations == ("PieceNotInCone: e0",), x


def test_verify_rejects_a_ray_through_several_cones(monkeypatch):
    from helpers import translated

    # from (2,1) the tripod's ray r2 = (-1,-1) crosses the wall on ray (1,0) at (1,0)
    cert = _unsubdivided_certificate(monkeypatch, translated(fixtures.tripod(), (2, 1)),
                                     fixtures.fan_p2())
    assert verify_certificate(cert).violations == ("PieceNotInCone: r2",)
    assert verify_certificate(certify(translated(fixtures.tripod(), (2, 1)),
                                      fixtures.fan_p2())).ok
    # from (2,1) the line's ray r- = (-1,0) has its base and base + r- in the
    # open first quadrant: only its direction leaves the quadrant
    cert = _unsubdivided_certificate(monkeypatch, translated(fixtures.line(), (2, 1)),
                                     fixtures.fan_p1xp1())
    assert verify_certificate(cert).violations == ("PieceNotInCone: r-",)


def test_verify_requires_recession_support():
    cert = certify(fixtures.tripod(), fixtures.fan_p2())
    # on the axis fan every piece and vertex keeps its cone; only r2 = (-1,-1) has no ray
    violations = verify_certificate(cert._replace(fan=fixtures.fan_p1xp1())).violations
    assert violations == ("RecessionNotSupported: ray r2 direction (-1, -1) is no ray of the fan",)


def _rich_tree(seed: int, size: int):
    """A seeded tree on perfbench's 147-cone R^3 fan, and a new Fan of it."""
    import random

    from helpers import gen
    from tropic import latticefan
    from tropic.curves import TropicalCurve

    rays, maximal, dim = gen.rich_fan_r3()
    fan = latticefan.fan_from_maximal(rays, maximal, dim)
    return TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays)), fan


def test_second_certify_and_verify_on_a_fan_scans_no_cone():
    # every sign vector of the second round was memoized in the first
    from helpers import count_pattern_scans

    tree, fan = _rich_tree(3, 60)
    scans = count_pattern_scans(fan)
    rounds = []
    for _ in range(2):
        scans.clear()
        assert verify_certificate(certify(tree, fan)).ok
        rounds.append(len(scans))
    assert rounds[0] > 0 and rounds[1] == 0, rounds


def test_warm_certify_and_verify_build_no_fraction_point(monkeypatch):
    # on a Fan whose memo holds every sign vector, certify and verify-cert
    # read cones off integer sign vectors alone
    import sys

    from tropic import latticefan

    calls = []
    for name in ("cone_contains", "_integer_row"):
        real = getattr(latticefan, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        for module in [m for k, m in sys.modules.items() if k.startswith("tropic.")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    tree, fan = _rich_tree(5, 60)
    assert verify_certificate(certify(tree, fan)).ok
    calls.clear()
    assert verify_certificate(certify(tree, fan)).ok
    assert calls == []


def test_certify_validates_once_and_reads_each_input_edge_once(monkeypatch):
    # the subdivided and rescaled curves inherit validity, balancing and edge
    # data, so certify checks the structure of its input alone and builds the
    # edge data of its input alone, however many pieces it makes
    from tropic import curves
    from tropic.curves import TropicalCurve

    built = []
    edge_data_property = TropicalCurve.__dict__["_edge_data"]  # its func builds the dict
    for owner, name, label in ((curves, "_check_structure", "validation"),
                               (edge_data_property, "func", "edge data")):
        real = getattr(owner, name)

        def counting(c, real=real, label=label):
            built.append((label, c))
            return real(c)

        monkeypatch.setattr(owner, name, counting)
    tree, fan = _rich_tree(3, 24)
    certify(tree, fan)  # warms the fan's memo
    fresh = TropicalCurve(tree.ambient_dim, tree.vertices, tree.edges, tree.rays)
    built.clear()
    cert = certify(fresh, fan)
    assert cert.multiplier > 1 and len(cert.rescaled_curve.edges) > len(fresh.edges)
    assert [(label, c is fresh) for label, c in built] == [("validation", True), ("edge data", True)]
    assert "_edge_data" in vars(cert.rescaled_curve)  # handed over, not built


def test_each_curve_builds_one_integer_image(monkeypatch):
    # the curve keeps its integer image: balancing (through the edge data),
    # the walker, well-spacedness and verify-cert's point location all read
    # it.  The subdivided and rescaled curves are not handed it, as their m
    # changes, so verify-cert builds one for the certificate's curve.  integer_image is counted wherever a
    # tropic module binds it
    import random
    import sys

    from helpers import gen
    from tropic import latticefan
    from tropic.curves import TropicalCurve
    from tropic.jsonio import certificate_from_dict, certificate_to_dict, dumps, loads
    from tropic.latticefan import fan_from_maximal
    from tropic.refine import subdivide_along_fan
    from tropic.wellspaced import well_spaced

    rng = random.Random(19)
    offset = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(2)]
    c = TropicalCurve.build(*gen.honeycomb(3, 3, offset))
    fan = fan_from_maximal(*gen.fan_p2_r3())
    real, calls = latticefan.integer_image, []

    def counting(points):
        calls.append(points)
        return real(points)

    for module in [m for k, m in sys.modules.items() if k.startswith("tropic.")]:
        if getattr(module, "integer_image", None) is real:
            monkeypatch.setattr(module, "integer_image", counting)
    assert is_balanced(c).balanced
    assert subdivide_along_fan(c, fan).new_vertices
    verdict = well_spaced(c)
    assert verdict.span_codim == 1 and verdict.well_spaced
    cert = certify(c, fan)
    assert len(calls) == 1 and calls[0] is c.vertices
    calls.clear()
    assert verify_certificate(cert).ok
    assert len(calls) == 1 and calls[0] is cert.rescaled_curve.vertices
    # a certificate read back from JSON has no edge data handed over: its
    # point location and its edge data share the one image
    back = certificate_from_dict(loads(dumps(certificate_to_dict(cert))))
    calls.clear()
    assert verify_certificate(back).ok
    assert len(calls) == 1 and calls[0] is back.rescaled_curve.vertices


def test_derived_node_data_is_exact_on_a_curve_not_rescaled():
    # k = length/weight is an int where it is integral and an exact Fraction
    # elsewhere, as on the curve of a tampered certificate
    from tropic.curves import edge_data
    from tropic.degeneration import _derive
    from tropic.refine import subdivide_along_fan

    tree, fan = _rich_tree(3, 24)
    prepared = subdivide_along_fan(tree, fan).output
    nodes = _derive(prepared)[1]
    for e in prepared.edges:
        d, length = edge_data(prepared, e.id)
        ratio = Fraction(length) / e.weight
        k = nodes[e.id].k
        assert k == ratio and type(k) is (int if ratio.denominator == 1 else Fraction)
        assert nodes[e.id].u_q == tuple(-ratio * x for x in d)
    ks = [nd.k for nd in nodes.values()]
    assert int in map(type, ks) and Fraction in map(type, ks)


def test_vertex_cones_do_not_change_under_positive_scaling():
    from helpers import scaled

    cases = [(fixtures.CURVES[c](), fixtures.FANS[f]()) for c, f in CERTIFY_PAIRS]
    cases += [_rich_tree(seed, 24) for seed in range(3)]
    for curve, fan in cases:
        cones = certify(curve, fan).vertex_cones
        for factor in (2, 3, 7):
            assert certify(scaled(curve, factor), fan).vertex_cones == cones, factor


def test_vertex_cones_from_the_walkers_signs_match_the_reference_scan():
    # certify finds each vertex's cone from the sign vector the subdivision
    # computed; reference_locate scans every cone for each rescaled vertex
    import random

    from helpers import gen, reference_locate, stellar_fan
    from tropic.curves import TropicalCurve
    from tropic.latticefan import fan_from_maximal

    rng = random.Random(17)
    specs = [(gen.rich_fan_r2(), GOLDEN_TREE_SIZES), (gen.rich_fan_r3(), GOLDEN_TREE_SIZES)]
    # trees stall on P^2 x P^1 and its few stellar subdivisions, whose rays
    # rarely split into two others, so R^3 subdivides the rich fan
    specs += [(stellar_fan(rng, gen.fan_p2(), rng.randint(3, 6)), (4, 10)) for _ in range(3)]
    specs += [(stellar_fan(rng, gen.rich_fan_r3(), rng.randint(1, 3)), (4, 10)) for _ in range(3)]
    subdivided = 0
    for spec, sizes in specs:
        fan = fan_from_maximal(*spec)
        for seed in range(12):
            size = sizes[seed % len(sizes)]
            tree = TropicalCurve.build(*gen.tree(random.Random(seed), spec[2], size, spec[0]))
            cert = certify(tree, fan)
            hat = cert.rescaled_curve
            expected = {v: fan.cones.index(reference_locate(fan, p))
                        for v, p in hat.vertices.items()}
            assert dict(cert.vertex_cones) == expected
            subdivided += len(hat.vertices) > len(tree.vertices)
    assert subdivided >= 60, subdivided


def test_certify_names_a_vertex_with_no_cone_at_its_rescaled_position():
    # without the cone on ray (0,1), the break where segfan's edge crosses
    # x = 0, at (0, 1/2), lies in the closed quadrants but in no cone; the
    # curve is rescaled by 6 before its vertices' cones are looked up
    from helpers import translated
    from tropic.errors import NotInSupport
    from tropic.latticefan import Fan

    fan = fixtures.fan_p1xp1()
    fan = Fan.build([c for c in fan.cones if c.generators != ((0, 1),)], 2)
    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    with pytest.raises(NotInSupport, match=r"^point \(0, 3\) is not in the support"):
        certify(curve, fan)


def test_verify_rejects_a_star_for_an_unknown_vertex():
    cert = certify(fixtures.tripod(), fixtures.fan_p2())
    stray = cert._replace(vertex_stars=cert.vertex_stars + (("zz", ((9, 9),)),))
    assert verify_certificate(stray).violations == ("StarMismatch: vertex zz",)


def _first(entries, change):
    """``entries`` with the value of its first (id, value) pair passed through ``change``."""
    (key, value), *rest = entries
    return ((key, change(value)),) + tuple(rest)


def _mutations(cert):
    """(name, certificate) for single-field changes of ``cert`` that no valid
    certificate of its curve and fan shows."""
    dim = cert.rescaled_curve.ambient_dim
    dual, bp = cert.dual, cert.base_point
    keyed = {  # field -> (its (id, value) pairs, a value for the unknown id "zz")
        "vertex_cones": (cert.vertex_cones, 0),
        "vertex_stars": (cert.vertex_stars, ((9,) * dim,)),
        "edge_valuations": (bp.edge_valuations, Fraction(1)),
        "vertex_positions": (bp.vertex_positions, (0,) * dim),
    }

    def with_field(field, entries):
        if field in ("edge_valuations", "vertex_positions"):
            return cert._replace(base_point=bp._replace(**{field: entries}))
        return cert._replace(**{field: entries})

    out = []
    if cert.node_data or any(any(p) for _, p in bp.vertex_positions):
        out.append(("multiplier", cert._replace(multiplier=cert.multiplier + 1)))
    out.append(("vertex cone", with_field("vertex_cones", _first(cert.vertex_cones, lambda i: i + 1))))
    out.append(("star", with_field("vertex_stars", _first(cert.vertex_stars, lambda ds: ds[1:]))))
    out.append(("position", with_field("vertex_positions", _first(
        bp.vertex_positions, lambda p: (p[0] + 1,) + p[1:]))))
    out.append(("position with a coordinate appended", with_field("vertex_positions", _first(
        bp.vertex_positions, lambda p: p + (Fraction(0),)))))
    out.append(("position with a coordinate dropped", with_field("vertex_positions", _first(
        bp.vertex_positions, lambda p: p[:-1]))))
    comps = dual.components
    out.append(("component", cert._replace(dual=dual._replace(
        components=(comps[0]._replace(vertex="zz"),) + comps[1:]))))
    if dual.nodes:
        nodes = dual.nodes
        flipped = nodes[0]._replace(components=nodes[0].components[::-1])
        out.append(("node", cert._replace(dual=dual._replace(nodes=(flipped,) + nodes[1:]))))
    if dual.marked_points:
        mps = dual.marked_points
        bumped = mps[0]._replace(contact_order=mps[0].contact_order + 1)
        out.append(("contact order", cert._replace(dual=dual._replace(marked_points=(bumped,) + mps[1:]))))
    if cert.node_data:
        nd, *rest = cert.node_data
        for name, changed in (("k", nd._replace(k=nd.k + 1)), ("rho", nd._replace(rho=nd.rho + 1)),
                              ("u_q", nd._replace(u_q=(nd.u_q[0] + 1,) + nd.u_q[1:]))):
            out.append((name, cert._replace(node_data=(changed, *rest))))
        out.append(("valuation", with_field("edge_valuations", _first(bp.edge_valuations,
                                                                      lambda x: x + 1))))
        out.append(("dropped node_data", cert._replace(node_data=tuple(rest))))
    out.append(("unknown node_data", cert._replace(
        node_data=cert.node_data + (NodeData("zz", 1, 1, (0,) * dim),))))
    for field, (entries, value) in keyed.items():
        if entries:
            out.append((f"dropped {field}", with_field(field, entries[1:])))
        out.append((f"unknown {field}", with_field(field, entries + (("zz", value),))))
    return out


def test_single_field_mutations_are_rejected_as_by_the_old_verifier():
    import random

    from helpers import gen
    from tropic import latticefan
    from tropic.curves import TropicalCurve

    certs = [certify(fixtures.CURVES[c](), fixtures.FANS[f]()) for c, f in CERTIFY_PAIRS]
    rays, maximal, dim = gen.rich_fan_r3()
    tree = TropicalCurve.build(*gen.tree(random.Random(11), dim, 24, rays))
    certs.append(certify(tree, latticefan.fan_from_maximal(rays, maximal, dim)))
    for cert in certs:
        assert verify_certificate(cert).ok and reference_verify(cert).ok
        names = []
        for name, bad in _mutations(cert):
            names.append(name)
            assert not verify_certificate(bad).ok, name
            if name.startswith("position"):
                assert verify_certificate(bad).violations == (
                    f"BasePointMismatch: vertex {cert.base_point.vertex_positions[0][0]}",), name
            if name == "valuation":
                assert verify_certificate(bad).violations == (
                    f"BasePointMismatch: edge {cert.base_point.edge_valuations[0][0]}",), name
            # the old verifier never compared the star ids against the curve's vertices
            assert reference_verify(bad).ok == (name == "unknown vertex_stars"), name
        assert len(names) >= 12, names


def test_a_doubled_multiplier_names_every_edge_and_moved_vertex(monkeypatch):
    # valuation * N = k and position * N = position are checked by
    # cross-multiplication; the violations were recorded from the verifier
    # that multiplied, on a certificate rescaled by 6 and on one whose
    # rescaling is skipped, so that k = 1/6 on r0:0 is not an integer, which
    # no certify emits: that node data alone is refused
    from helpers import translated
    from tropic import degeneration

    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    expected = ("BasePointMismatch: edge e0", "BasePointMismatch: edge r0:0",
                "BasePointMismatch: vertex r0#1", "BasePointMismatch: vertex v0",
                "BasePointMismatch: vertex v1")
    cert = certify(curve, fixtures.fan_p1xp1())
    assert cert.multiplier == 6
    assert verify_certificate(cert._replace(multiplier=12)).violations == expected
    monkeypatch.setattr(degeneration, "rescale_integral", lambda c: (c, 1))
    raw = certify(curve, fixtures.fan_p1xp1())
    assert dict((nd.edge, nd.k) for nd in raw.node_data) == {"e0": 1, "r0:0": Fraction(1, 6)}
    assert verify_certificate(raw).violations == ("NodeDataMismatch: edge r0:0",)
    assert verify_certificate(raw._replace(multiplier=2)).violations == (
        "NodeDataMismatch: edge r0:0", *expected)


CERTIFY_GOLDEN = Path(__file__).parent / "data" / "certify_golden.json"
GOLDEN_TREE_SIZES = (4, 10, 24, 60)


def certificate_hashes() -> dict[str, str]:
    """sha256 of the JSON certificate of every ``CERTIFY_PAIRS`` fixture and of
    12 seeded trees on each of perfbench's two rich fans."""
    import hashlib
    import random

    from helpers import gen
    from tropic.curves import TropicalCurve
    from tropic.jsonio import certificate_to_dict, dumps
    from tropic.latticefan import fan_from_maximal

    def sha(cert):
        return hashlib.sha256(dumps(certificate_to_dict(cert)).encode()).hexdigest()

    out = {}
    for curve_name, fan_name in CERTIFY_PAIRS:
        cert = certify(fixtures.CURVES[curve_name](), fixtures.FANS[fan_name]())
        out[f"{curve_name}/{fan_name}"] = sha(cert)
    for rich in (gen.rich_fan_r2, gen.rich_fan_r3):
        rays, maximal, dim = rich()
        fan = fan_from_maximal(rays, maximal, dim)
        for seed in range(12):
            size = GOLDEN_TREE_SIZES[seed % len(GOLDEN_TREE_SIZES)]
            tree = TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays))
            out[f"{rich.__name__}/seed {seed}/V {size}"] = sha(certify(tree, fan))
    return out


def test_certificates_match_the_golden_hashes():
    # generated by certificate_hashes() before the fraction-free walker
    assert certificate_hashes() == json.loads(CERTIFY_GOLDEN.read_text())


MULTIPLIER_NOT_POSITIVE = "MultiplierNotPositive: the multiplier must be a positive int"


def test_verify_refuses_a_multiplier_below_1_whatever_the_base_point():
    # the base point is compared by cross-multiplication, so negating N with
    # every valuation and position keeps it consistent: the sign of N cancels
    from helpers import translated
    from tropic.jsonio import certificate_from_dict, certificate_to_dict, dumps, loads
    from tropic.jsonio import rat_from_json, rat_to_json

    doc = certificate_to_dict(certify(fixtures.segfan(), fixtures.fan_p1xp1()))
    assert doc["multiplier"] == 1
    bp = doc["base_point"]
    doc["multiplier"] = -1
    bp["edge_valuations"] = {e: rat_to_json(-rat_from_json(x))
                             for e, x in bp["edge_valuations"].items()}
    bp["vertex_positions"] = {v: [rat_to_json(-rat_from_json(x)) for x in p]
                              for v, p in bp["vertex_positions"].items()}
    assert bp["edge_valuations"] == {"e0": -1}
    mirrored = certificate_from_dict(loads(dumps(doc)))
    assert verify_certificate(mirrored).violations == (MULTIPLIER_NOT_POSITIVE,)
    zero = verify_certificate(mirrored._replace(multiplier=0)).violations
    assert zero[0] == MULTIPLIER_NOT_POSITIVE and len(zero) > 1  # and every valuation
    # a multiplier that equals certify's N but is no int
    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    cert = certify(curve, fixtures.fan_p1xp1())
    assert cert.multiplier == 6 and verify_certificate(cert).ok
    for n in (Fraction(6), 6.0):
        assert verify_certificate(cert._replace(multiplier=n)).violations == (
            MULTIPLIER_NOT_POSITIVE,), n


def test_verify_refuses_a_multiplier_that_is_not_the_least():
    # certify's N = 6 dilated to 12: k = 6 and 1 become 12 and 2, and every
    # other field agrees, but N = 6 makes every length/weight integral
    from helpers import scaled, translated
    from tropic.degeneration import _derive, dual_curve

    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    cert = certify(curve, fixtures.fan_p1xp1())
    assert (cert.multiplier, sorted(nd.k for nd in cert.node_data)) == (6, [1, 6])
    big = scaled(cert.rescaled_curve, 2)
    stars, nodes = _derive(big)
    dilated = cert._replace(rescaled_curve=big, multiplier=12, dual=dual_curve(big),
                            vertex_stars=tuple(stars.items()), node_data=tuple(nodes.values()))
    assert sorted(nd.k for nd in dilated.node_data) == [2, 12]
    assert verify_certificate(dilated).violations == (
        "MultiplierNotLeast: a smaller multiplier makes every length/weight integral",)
    # a curve with no bounded edge must have N = 1
    line = certify(fixtures.tripod(), fixtures.fan_p2())
    assert not line.rescaled_curve.edges and line.multiplier == 1 and verify_certificate(line).ok
    assert set(line.rescaled_curve.vertices.values()) == {(0, 0)}  # N cancels on the base point
    assert verify_certificate(line._replace(multiplier=2)).violations == (
        "MultiplierNotLeast: a smaller multiplier makes every length/weight integral",)


def test_verify_refuses_node_data_of_a_curve_never_rescaled(monkeypatch):
    # with rescaling skipped, the certificate is consistent field by field at
    # N = 1, but its k = length/weight are 3/4 and 5/6, which certify never
    # emits (its N is 12)
    from tropic import degeneration
    from tropic.latticefan import fan_from_maximal

    fan = fan_from_maximal([(-1, 0), (0, 1), (1, -1)], [[0, 1], [1, 2], [2, 0]], 2)
    assert certify(fixtures.ratio_path(), fan).multiplier == 12
    monkeypatch.setattr(degeneration, "rescale_integral", lambda c: (c, 1))
    raw = certify(fixtures.ratio_path(), fan)
    ks = {nd.edge: nd.k for nd in raw.node_data}
    assert sorted(ks.values()) == [Fraction(3, 4), Fraction(5, 6)]
    assert verify_certificate(raw).violations == tuple(
        f"NodeDataMismatch: edge {e}" for e in sorted(ks))


def test_verify_refuses_a_k_that_is_no_positive_int():
    # each equals the k = 1 that the curve fixes, and none is an int
    cert = certify(fixtures.segfan(), fixtures.fan_p1xp1())
    (nd,) = cert.node_data
    assert nd.k == 1 and verify_certificate(cert).ok
    for k in (Fraction(1), 1.0, True):
        bad = cert._replace(node_data=(nd._replace(k=k),))
        assert verify_certificate(bad).violations == ("NodeDataMismatch: edge e0",), k


def test_verify_names_every_id_listed_twice():
    from tropic.jsonio import certificate_from_dict, certificate_to_dict, dumps, loads

    cert = certify(fixtures.segfan(), fixtures.fan_p1xp1())
    # a second node_data entry for e0, listed first, so that a dict keeps the true one
    doc = certificate_to_dict(cert)
    doc["node_data"].insert(0, {"edge": "e0", "k": 999, "rho": 2, "u_q": [5, 5]})
    back = certificate_from_dict(loads(dumps(doc)))
    assert verify_certificate(back).violations == ("DuplicateEntry: node_data e0",)
    # the same for v0's cone, in process
    bad = cert._replace(vertex_cones=(("v0", 99),) + cert.vertex_cones)
    assert verify_certificate(bad).violations == ("DuplicateEntry: vertex_cones v0",)
    # every listed field, each id repeated as it is, three times for v1
    bp = cert.base_point
    doubled = cert._replace(
        vertex_cones=cert.vertex_cones * 2,
        vertex_stars=cert.vertex_stars + cert.vertex_stars[1:] * 2,
        node_data=cert.node_data * 2,
        base_point=bp._replace(edge_valuations=bp.edge_valuations * 2,
                               vertex_positions=bp.vertex_positions[::-1] + bp.vertex_positions),
    )
    assert verify_certificate(doubled).violations == (
        "DuplicateEntry: vertex_cones v0", "DuplicateEntry: vertex_cones v1",
        "DuplicateEntry: vertex_stars v1", "DuplicateEntry: node_data e0",
        "DuplicateEntry: edge_valuations e0", "DuplicateEntry: vertex_positions v0",
        "DuplicateEntry: vertex_positions v1",
    )
