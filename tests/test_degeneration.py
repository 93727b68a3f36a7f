from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import monoid_closure, reference_verify
from tropic import fixtures
from tropic.curves import is_balanced
from tropic.degeneration import (
    NodeData,
    certify,
    dual_curve,
    node_monoid,
    verify_certificate,
)
from tropic.errors import NonIntegralRatio, RecessionNotSupported, Unbalanced
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
        replace(nd, u_q=(nd.u_q[0] + 1,) + nd.u_q[1:]) for nd in cert.node_data
    )
    check = verify_certificate(replace(cert, node_data=bad_nodes))
    assert not check.ok
    assert any("e0" in v for v in check.violations)


def test_fault_injection_contact_order():
    cert = certify(fixtures.speyer3(), fixtures.fan_r3())
    marked = cert.dual.marked_points
    tampered = (replace(marked[0], contact_order=marked[0].contact_order + 1),) + marked[1:]
    check = verify_certificate(replace(cert, dual=replace(cert.dual, marked_points=tampered)))
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
    bad = replace(cert, vertex_cones=((v0, idx0 + 1),) + tuple(rest))
    assert not verify_certificate(bad).ok
    # tampered valuation
    (e0, val0), *vals = cert.base_point.edge_valuations
    bad_bp = replace(
        cert.base_point, edge_valuations=((e0, val0 + 1),) + tuple(vals)
    )
    assert not verify_certificate(replace(cert, base_point=bad_bp)).ok
    # tampered multiplier
    assert not verify_certificate(replace(cert, multiplier=cert.multiplier + 1)).ok


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
    from tropic import degeneration
    from tropic.refine import SubdivisionRecord

    monkeypatch.setattr(degeneration, "subdivide_along_fan",
                        lambda c, f: SubdivisionRecord(output=c, new_vertices=(), piece_cones={}))
    cert = certify(curve, fan)
    monkeypatch.undo()
    return cert


def test_verify_rejects_an_edge_through_several_cones(monkeypatch):
    # diag's edge e0 runs from ray (-1,-1) through the origin to ray (1,1)
    cert = _unsubdivided_certificate(monkeypatch, fixtures.diag(), fixtures.fan_diag())
    assert [e.id for e in cert.rescaled_curve.edges] == ["e0"]
    assert verify_certificate(cert).violations == ("PieceNotInCone: e0",)


def test_verify_rejects_a_ray_through_several_cones(monkeypatch):
    from helpers import translated

    # from (2,1) the tripod's ray r2 = (-1,-1) crosses the wall on ray (1,0) at (1,0)
    cert = _unsubdivided_certificate(monkeypatch, translated(fixtures.tripod(), (2, 1)),
                                     fixtures.fan_p2())
    assert verify_certificate(cert).violations == ("PieceNotInCone: r2",)
    assert verify_certificate(certify(translated(fixtures.tripod(), (2, 1)),
                                      fixtures.fan_p2())).ok


def test_verify_requires_recession_support():
    cert = certify(fixtures.tripod(), fixtures.fan_p2())
    # on the axis fan every piece and vertex keeps its cone; only r2 = (-1,-1) has no ray
    violations = verify_certificate(replace(cert, fan=fixtures.fan_p1xp1())).violations
    assert violations == ("RecessionNotSupported: ray r2 direction (-1, -1) is no ray of the fan",)


def test_second_certify_and_verify_on_a_fan_scans_no_cone(monkeypatch):
    # every sign vector of the second round was memoized in the first
    import random

    from helpers import gen
    from tropic import latticefan
    from tropic.curves import TropicalCurve

    scans = []
    contains = latticefan.cone_contains

    def counting(c, p, mode="closure"):
        if mode == "relative_interior":
            scans.append(p)
        return contains(c, p, mode)

    monkeypatch.setattr(latticefan, "cone_contains", counting)
    rays, maximal, dim = gen.rich_fan_r3()
    fan = latticefan.fan_from_maximal(rays, maximal, dim)
    tree = TropicalCurve.build(*gen.tree(random.Random(3), dim, 60, rays))
    rounds = []
    for _ in range(2):
        scans.clear()
        assert verify_certificate(certify(tree, fan)).ok
        rounds.append(len(scans))
    assert rounds[0] > 0 and rounds[1] == 0, rounds


def test_verify_rejects_a_star_for_an_unknown_vertex():
    cert = certify(fixtures.tripod(), fixtures.fan_p2())
    stray = replace(cert, vertex_stars=cert.vertex_stars + (("zz", ((9, 9),)),))
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
            return replace(cert, base_point=replace(bp, **{field: entries}))
        return replace(cert, **{field: entries})

    out = []
    if cert.node_data or any(any(p) for _, p in bp.vertex_positions):
        out.append(("multiplier", replace(cert, multiplier=cert.multiplier + 1)))
    out.append(("vertex cone", with_field("vertex_cones", _first(cert.vertex_cones, lambda i: i + 1))))
    out.append(("star", with_field("vertex_stars", _first(cert.vertex_stars, lambda ds: ds[1:]))))
    out.append(("position", with_field("vertex_positions", _first(
        bp.vertex_positions, lambda p: (p[0] + 1,) + p[1:]))))
    comps = dual.components
    out.append(("component", replace(cert, dual=replace(
        dual, components=(replace(comps[0], vertex="zz"),) + comps[1:]))))
    if dual.nodes:
        nodes = dual.nodes
        flipped = replace(nodes[0], components=nodes[0].components[::-1])
        out.append(("node", replace(cert, dual=replace(dual, nodes=(flipped,) + nodes[1:]))))
    if dual.marked_points:
        mps = dual.marked_points
        bumped = replace(mps[0], contact_order=mps[0].contact_order + 1)
        out.append(("contact order", replace(cert, dual=replace(dual, marked_points=(bumped,) + mps[1:]))))
    if cert.node_data:
        nd, *rest = cert.node_data
        for name, changed in (("k", replace(nd, k=nd.k + 1)), ("rho", replace(nd, rho=nd.rho + 1)),
                              ("u_q", replace(nd, u_q=(nd.u_q[0] + 1,) + nd.u_q[1:]))):
            out.append((name, replace(cert, node_data=(changed, *rest))))
        out.append(("valuation", with_field("edge_valuations", _first(bp.edge_valuations,
                                                                      lambda x: x + 1))))
        out.append(("dropped node_data", replace(cert, node_data=tuple(rest))))
    out.append(("unknown node_data", replace(
        cert, node_data=cert.node_data + (NodeData("zz", 1, 1, (0,) * dim),))))
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
            # the old verifier never compared the star ids against the curve's vertices
            assert reference_verify(bad).ok == (name == "unknown vertex_stars"), name
        assert len(names) >= 12, names
