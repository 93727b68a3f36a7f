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
        ends = {e.id: e.ends for e in hat.edges}
        for nd in cert.node_data:
            p1, p2 = (hat.position(v) for v in ends[nd.edge])
            assert tuple(nd.rho * x for x in nd.u_q) == tuple(a - b for a, b in zip(p1, p2))
    (nd, _, _) = certify(fixtures.cycle3(), fixtures.fan_cycle3()).node_data
    assert (nd.edge, nd.u_q) == ("e0", (-1, 0))


def test_certify_tripod():
    # a marked point per ray, its contact order the ray's weight
    cert = certify(fixtures.tripod(), fixtures.fan_p2())
    assert cert.node_data == ()
    assert [r.weight for r in cert.rescaled_curve.rays] == [1, 1, 1]
    (index,) = cert.vertex_cones.values()
    assert cert.fan.cones[index] == Cone((), 2)  # the origin cone


def test_certify_segfan():
    cert = certify(fixtures.segfan(), fixtures.fan_p1xp1())
    (nd,) = cert.node_data
    assert (nd.k, nd.rho, nd.u_q) == (1, 2, (-1, 0))
    assert cert.multiplier == 1 and cert.rescaled_curve == fixtures.segfan()  # the curve over N


def test_certify_speyer3():
    # a node per bounded edge, a marked point per ray
    cert = certify(fixtures.speyer3(), fixtures.fan_r3())
    assert len(cert.rescaled_curve.edges) == len(cert.node_data) == 3
    assert sorted(r.weight for r in cert.rescaled_curve.rays) == [1, 1, 1, 1]
    assert verify_certificate(cert).ok


@pytest.mark.parametrize("curve_name,fan_name", CERTIFY_PAIRS)
def test_certify_round_trip(curve_name, fan_name):
    cert = certify(fixtures.CURVES[curve_name](), fixtures.FANS[fan_name]())
    check = verify_certificate(cert)
    assert check.ok, check.violations


def test_certify_and_verify_validate_each_curve_once(monkeypatch):
    # count, per curve instance, its one pass (which makes the structural
    # check) and every call of the public validate wherever a tropic module binds it
    import sys

    from tropic import curves
    from tropic.curves import TropicalCurve

    checks: dict[int, list] = {}
    calls: dict[int, list] = {}

    def counting(table, fn):
        def wrapper(c):
            table.setdefault(id(c), [c, 0])[1] += 1  # the entry keeps c alive: ids stay distinct
            return fn(c)
        return wrapper

    one_pass = TropicalCurve.__dict__["_pass"]  # its func reads the curve
    monkeypatch.setattr(one_pass, "func", counting(checks, one_pass.func))
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
    # a marked point's contact order is its ray's weight: changed, the curve is unbalanced
    cert = certify(fixtures.speyer3(), fixtures.fan_r3())
    hat = cert.rescaled_curve
    tampered = hat._replace(rays=(hat.rays[0]._replace(weight=hat.rays[0].weight + 1),
                                  *hat.rays[1:]))
    check = verify_certificate(cert._replace(rescaled_curve=tampered))
    assert check.violations == ("Unbalanced: rescaled curve fails balancing",)


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
    bad = cert._replace(vertex_cones=_first(cert.vertex_cones, lambda i: i + 1))
    assert not verify_certificate(bad).ok
    # tampered valuation: the base point is the curve over N, so a vertex moves
    hat = cert.rescaled_curve
    moved = hat._replace(vertices=_first(hat.vertices, lambda p: (p[0] - 1, *p[1:])))
    assert not verify_certificate(cert._replace(rescaled_curve=moved)).ok
    # tampered multiplier
    assert not verify_certificate(cert._replace(multiplier=cert.multiplier - 1)).ok


def test_certify_with_real_subdivision_keeps_split_valuations():
    cert = certify(fixtures.diag(), fixtures.fan_diag())
    # each piece's valuation, k/N
    assert [nd.edge for nd in cert.node_data] == ["e0:0", "e0:1"]
    assert cert.multiplier == 1 and [nd.k for nd in cert.node_data] == [1, 1]
    assert verify_certificate(cert).ok


def test_verify_rejects_an_edge_through_several_cones():
    # certificates packed with subdivision skipped, so a piece may run through
    # several cones: diag's edge e0 runs from ray (-1,-1) through the origin
    # to ray (1,1)
    from helpers import packed_certificate

    cert = packed_certificate(fixtures.diag(), fixtures.fan_diag())
    assert [e.id for e in cert.rescaled_curve.edges] == ["e0"]
    assert verify_certificate(cert).violations == ("PieceNotInCone: e0",)
    # segfan's e0, moved to y = 1, crosses x = 0 before or after its midpoint:
    # then only its first or only its second end leaves the midpoint's quadrant
    from helpers import translated

    for x in (Fraction(-1, 2), Fraction(-3, 2)):
        cert = packed_certificate(translated(fixtures.segfan(), (x, 1)), fixtures.fan_p1xp1())
        assert verify_certificate(cert).violations == ("PieceNotInCone: e0",), x


def test_verify_rejects_a_ray_through_several_cones():
    from helpers import packed_certificate, translated

    # from (2,1) the tripod's ray r2 = (-1,-1) crosses the wall on ray (1,0) at (1,0)
    cert = packed_certificate(translated(fixtures.tripod(), (2, 1)), fixtures.fan_p2())
    assert verify_certificate(cert).violations == ("PieceNotInCone: r2",)
    assert verify_certificate(certify(translated(fixtures.tripod(), (2, 1)),
                                      fixtures.fan_p2())).ok
    # from (2,1) the line's ray r- = (-1,0) has its base and base + r- in the
    # open first quadrant: only its direction leaves the quadrant
    cert = packed_certificate(translated(fixtures.line(), (2, 1)), fixtures.fan_p1xp1())
    assert verify_certificate(cert).violations == ("PieceNotInCone: r-",)


def test_verify_rejects_a_piece_outside_the_support():
    # on the axis rays with no 2-cone, the edge's midpoint and the points
    # base + direction of ra2 and rb2 lie in no cone: verify reports the
    # pieces and does not raise
    from helpers import packed_certificate
    from tropic.curves import BoundedEdge, CurveRay, TropicalCurve
    from tropic.latticefan import fan_from_maximal

    fan = fan_from_maximal([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0], [1], [2], [3]], 2)
    assert len(fan.cones) == 5
    curve = TropicalCurve(
        2,
        {"a": (Fraction(1), Fraction(0)), "b": (Fraction(0), Fraction(1))},
        (BoundedEdge("e", ("a", "b"), 1),),
        (CurveRay("ra1", "a", (1, 0), 1), CurveRay("ra2", "a", (0, -1), 1),
         CurveRay("rb1", "b", (0, 1), 1), CurveRay("rb2", "b", (-1, 0), 1)),
    )
    cert = packed_certificate(curve, fan)
    assert verify_certificate(cert).violations == (
        "PieceNotInCone: e", "PieceNotInCone: ra2", "PieceNotInCone: rb2")


def test_verify_requires_recession_support():
    cert = certify(fixtures.tripod(), fixtures.fan_p2())
    # on the axis fan every piece and vertex keeps its cone; only r2 = (-1,-1) has no ray
    violations = verify_certificate(cert._replace(fan=fixtures.fan_p1xp1())).violations
    assert violations == ("RecessionNotSupported: ray r2 direction (-1, -1) is no ray of the fan",)


def _piece_violations(check) -> list[str]:
    return [v for v in check.violations if v.startswith("PieceNotInCone")]


def _check_closure_masks(cert, seen: dict) -> None:
    """For each piece of ``cert``, its ends' closure masks (``_locate``) share
    a bit iff some closed cone holds both ends by the tuple rule
    (``helpers.in_closure`` on each cone's pattern), on tuple sign vectors from
    Fraction dot products, which each end's mask pair spells; the closure masks
    ``_derive`` packs are those of the vertices' cells; each end's mask pair is
    added to ``seen``, per fan."""
    from helpers import as_signs, in_closure, point_signs, sign_patterns
    from tropic.degeneration import _derive
    from tropic.latticefan import _locate, hyperplane_values

    hat, fan = cert.rescaled_curve, cert.fan
    vectors = hyperplane_values(fan, hat._image[1])[1]
    directions = hyperplane_values(fan, {r.id: r.direction for r in hat.rays})[1]
    ends = {v: (vectors[v], point_signs(fan, p)) for v, p in hat.vertices.items()}
    pairs = [(ends[e.ends[0]], ends[e.ends[1]]) for e in hat.edges]
    pairs += [(ends[r.base], (directions[r.id], point_signs(fan, r.direction))) for r in hat.rays]
    patterns = sign_patterns(fan)
    for (s, s_tuple), (t, t_tuple) in pairs:
        assert as_signs(s, len(fan.hyperplanes)) == s_tuple
        assert as_signs(t, len(fan.hyperplanes)) == t_tuple
        pair_rule = any(in_closure(p, s_tuple) and in_closure(p, t_tuple) for p in patterns)
        assert (_locate(fan, s)[1] & _locate(fan, t)[1] != 0) == pair_rule, (s_tuple, t_tuple)
    assert _derive(hat, fan)[1] == {v: _locate(fan, s)[1] for v, s in vectors.items()}
    seen.setdefault(id(fan), (fan, set()))[1].update(v for pair in pairs for v, _ in pair)


def _check_closure_memo(seen: dict) -> None:
    # every end's sign vector has one cell in its fan's memo, and every cell
    # there, the walker's included, is the pattern scan's
    from helpers import check_cells

    for fan, vectors in seen.values():
        assert vectors <= fan._located.keys() and check_cells(fan) >= len(vectors)


def test_piece_verdicts_equal_the_midpoint_rule_on_valid_fans():
    # on a fan that fan_validate accepts, a piece lies in a closed cone iff
    # the cone whose relative interior holds an interior point of the piece
    # (reference_verify locates the midpoint, or a ray's base plus its
    # direction, by a scan over every cone) holds its ends.  So the verdicts
    # from the sign vectors of the ends agree with that oracle on seeded
    # certificates, on each checked against other valid fans, and on each
    # with a vertex moved (a curve that carries no image handed over).  The
    # closure masks of each piece's ends share a bit iff the pair rule holds
    import random

    from helpers import gen, reference_verify
    from tropic.curves import TropicalCurve, validate
    from tropic.latticefan import fan_from_maximal, fan_validate

    specs = {2: gen.rich_fan_r2(), 3: gen.rich_fan_r3()}
    fans = {2: [fixtures.fan_p2(), fixtures.fan_p1xp1(), fixtures.fan_diag()],
            3: [fixtures.fan_r3(), fan_from_maximal(*gen.fan_p2_r3())]}
    rng, seen, vectors = random.Random(27), {"checked": 0, "rejected": 0}, {}
    for dim, spec in specs.items():
        own = fan_from_maximal(*spec)
        assert all(fan_validate(f).valid for f in [own, *fans[dim]])
        for size in (4, 8):
            cert = certify(TropicalCurve.build(*gen.tree(rng, dim, size, spec[0])), own)
            hat = cert.rescaled_curve
            variants = [cert] + [cert._replace(fan=f) for f in fans[dim]]
            for v in rng.sample(sorted(hat.vertices), 3):
                moved = {**hat.vertices, v: tuple(x + rng.randint(-2, 2) for x in hat.vertices[v])}
                curve = hat._replace(vertices=moved)
                if validate(curve).valid:
                    variants += [cert._replace(rescaled_curve=curve, fan=f)
                                 for f in (own, fans[dim][0])]
            for variant in variants:
                verdicts = _piece_violations(verify_certificate(variant))
                assert verdicts == _piece_violations(reference_verify(variant))
                _check_closure_masks(variant, vectors)
                seen["checked"] += 1
                seen["rejected"] += bool(verdicts)
    assert seen["checked"] >= 30 and seen["rejected"] >= 10, seen
    _check_closure_memo(vectors)


def test_a_piece_in_one_closed_cone_passes_on_an_overlapping_fan():
    # fan_p2 with the cone {(1,1),(3,1)} and its rays added is no fan: the
    # added cone overlaps the positive quadrant.  The edge from (1,2) to
    # (2,1) lies in the closed quadrant, but its midpoint (3/2,3/2) is in the
    # relative interior of the ray (1,1), first in the fan's order, which does
    # not hold the edge: the midpoint rule reports the edge, while its ends'
    # sign vectors share the quadrant, so verify does not
    from helpers import reference_verify
    from tropic.curves import BoundedEdge, TropicalCurve
    from tropic.latticefan import Fan, fan_validate

    added = [Cone.from_rays(g, 2) for g in ([(1, 1)], [(3, 1)], [(1, 1), (3, 1)])]
    fan = Fan.build(fixtures.fan_p2().cones + tuple(added), 2)
    assert fan_validate(fan).violations[0].code == "NonFaceIntersection"
    curve = TropicalCurve(2, {"a": (1, 2), "b": (2, 1)}, (BoundedEdge("e", ("a", "b"), 1),), ())
    cert = certify(fixtures.tripod(), fixtures.fan_p2())._replace(rescaled_curve=curve, fan=fan)
    assert _piece_violations(reference_verify(cert)) == ["PieceNotInCone: e"]
    assert _piece_violations(verify_certificate(cert)) == []
    vectors = {}
    _check_closure_masks(cert, vectors)
    _check_closure_memo(vectors)


def _rich_tree(seed: int, size: int):
    """A seeded tree on perfbench's 147-cone R^3 fan, and a new Fan of it."""
    import random

    from helpers import gen
    from tropic import latticefan
    from tropic.curves import TropicalCurve

    rays, maximal, dim = gen.rich_fan_r3()
    fan = latticefan.fan_from_maximal(rays, maximal, dim)
    return TropicalCurve.build(*gen.tree(random.Random(seed), dim, size, rays)), fan


def test_verify_right_after_certify_reads_no_cone_bitset():
    # certify locates every vertex of the rescaled curve (``_derive``) and
    # every ray direction (``direction_values``) in the fan's one cell memo,
    # and an in-process verify on the same fan reads both kinds of closure
    # mask from there: on a new fan, certify reads cone bitsets, verify none
    from helpers import count_cell_reads

    cases = [(fixtures.CURVES[c](), fixtures.FANS[f]()) for c, f in CERTIFY_PAIRS]
    cases += [_rich_tree(seed, size) for seed, size in ((1, 4), (2, 24), (3, 60), (4, 60))]
    for curve, fan in cases:
        reads = count_cell_reads(fan)
        cert = certify(curve, fan)
        assert reads
        reads.clear()
        assert verify_certificate(cert).ok and reads == []


def test_second_certify_and_verify_on_a_fan_scans_no_cone():
    # every sign vector of the second round was memoized in the first
    from helpers import count_cell_reads

    tree, fan = _rich_tree(3, 60)
    scans = count_cell_reads(fan)
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


def test_certify_builds_one_fraction_per_non_integral_value_it_holds(monkeypatch):
    # count gate (counts, not times), at V = 100 and V = 400: the walk keeps
    # each break as integer parameters, so the only non-integral values certify
    # builds, in curves (the first read of its input included), refine and
    # degeneration, are the rescaled curve's coordinates, one Fraction each.
    # With m = 1 (R^2 rich-fan trees) that is
    # none; honeycombs of degree 10 and 20 lifted to z = 1/5 on P^2 x P^1 keep
    # the 1/5 (m = 5), one Fraction per vertex
    import random

    from helpers import gen, translated
    from tropic import curves, degeneration, refine
    from tropic.curves import TropicalCurve
    from tropic.latticefan import fan_from_maximal

    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    rays, maximal, dim = gen.rich_fan_r2()
    rich, p2xp1 = fan_from_maximal(rays, maximal, dim), fan_from_maximal(*gen.fan_p2_r3())
    cases = []
    for size, degree in ((100, 10), (400, 20)):
        tree = TropicalCurve.build(*gen.tree(random.Random(size), dim, size, rays))
        lifted = translated(TropicalCurve.build(*gen.honeycomb(
            degree, 3, (Fraction(1, 7), Fraction(1, 3)))), (0, 0, Fraction(1, 5)))
        cases += [(tree, rich), (lifted, p2xp1)]
    for module in (curves, refine, degeneration):  # counted from here: the inputs are built
        monkeypatch.setattr(module, "Fraction", counting)
    seen = []
    for curve, fan in cases:
        built.clear()
        cert = certify(curve, fan)
        hat = cert.rescaled_curve
        fractional = [x for p in hat.vertices.values() for x in p if type(x) is Fraction]
        assert len(built) == len(fractional), (len(curve.vertices), len(built), len(fractional))
        assert all(type(nd.k) is int for nd in cert.node_data) and verify_certificate(cert).ok
        seen.append((len(curve.vertices), hat._image[0], cert.multiplier > 1, len(built)))
    assert [(v, m, n) for v, m, n, _ in seen] == [
        (100, 1, True), (100, 5, True), (400, 1, True), (400, 5, True)], seen
    assert [b for *_, b in seen] == [0, 110, 0, 420], seen


def test_certify_builds_no_subdivided_curve(monkeypatch):
    # count gate (counts, not times), at V = 100 and V = 400 on R^2 rich-fan
    # trees: the walk hands certify each break's parameters, not a subdivided
    # curve, and the dilation writes the rescaled curve's fields in sorted
    # order, so certify and verify never call TropicalCurve's sorting
    # constructor; subdivide_along_fan, which returns the subdivided curve,
    # calls it once
    import random

    from helpers import gen
    from tropic.curves import TropicalCurve
    from tropic.latticefan import fan_from_maximal
    from tropic.refine import subdivide_along_fan

    rays, maximal, dim = gen.rich_fan_r2()
    fan = fan_from_maximal(rays, maximal, dim)
    trees = [TropicalCurve.build(*gen.tree(random.Random(size), dim, size, rays))
             for size in (100, 400)]
    calls, sorting = [], TropicalCurve.__new__

    def counting(cls, *fields):
        calls.append(cls)
        return sorting(cls, *fields)

    monkeypatch.setattr(TropicalCurve, "__new__", counting)
    for tree in trees:
        calls.clear()
        cert = certify(tree, fan)
        assert verify_certificate(cert).ok and calls == []
        assert len(cert.rescaled_curve.vertices) > len(tree.vertices)
        assert subdivide_along_fan(tree, fan).new_vertices and calls == [TropicalCurve]


def test_reading_a_certificate_builds_one_fraction_per_non_integral_value_in_it(monkeypatch):
    # count gate (counts, not times), on the trees and honeycombs of the test
    # above: certificate_from_dict builds one Fraction per "p/q" value of the
    # file (the rescaled coordinates) and none for a JSON integer,
    # which it reads as the int it is; the curve read back is the rescaled
    # curve, and its certificate verifies
    import random

    from helpers import gen, translated
    from tropic import curves, jsonio
    from tropic.curves import TropicalCurve
    from tropic.jsonio import certificate_from_dict, certificate_to_dict, dumps, loads
    from tropic.latticefan import fan_from_maximal

    built = []

    class Counting(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    rays, maximal, dim = gen.rich_fan_r2()
    rich, p2xp1 = fan_from_maximal(rays, maximal, dim), fan_from_maximal(*gen.fan_p2_r3())
    seen = []
    for size, degree in ((100, 10), (400, 20)):
        tree = TropicalCurve.build(*gen.tree(random.Random(size), dim, size, rays))
        lifted = translated(TropicalCurve.build(*gen.honeycomb(
            degree, 3, (Fraction(1, 7), Fraction(1, 3)))), (0, 0, Fraction(1, 5)))
        for curve, fan in ((tree, rich), (lifted, p2xp1)):
            cert = certify(curve, fan)
            data = loads(dumps(certificate_to_dict(cert)))
            coords = [x for v in data["curve"]["vertices"] for x in v["coords"]]
            built.clear()
            with monkeypatch.context() as patch:
                for module in (curves, jsonio):
                    patch.setattr(module, "Fraction", Counting)
                back = certificate_from_dict(data)
            fractional = sum(type(x) is str for x in coords)
            assert len(built) == fractional, (size, len(built), fractional)
            read = [x for p in back.rescaled_curve.vertices.values() for x in p]
            assert [type(x) is int for x in read] == [type(x) is int for x in coords]
            assert back.rescaled_curve == cert.rescaled_curve and verify_certificate(back).ok
            seen.append((len(curve.vertices), fractional))
    # (V, "p/q" coordinates): the trees keep m = 1, so they hold none
    assert seen == [(100, 0), (100, 110), (400, 0), (400, 420)], seen


def test_certify_and_verify_keep_a_flat_number_of_objects_per_output_vertex():
    # count gate: the gc-tracked objects that a certificate and its in-process
    # verify leave alive, per vertex of the rescaled curve, on R^2 rich-fan
    # trees at V = 400 and V = 1,600 (the fan's memo warmed by a first
    # certify).  The base point shares the rescaled curve's image and holds no
    # Fraction, so the count is bounded and does not grow with V
    import gc
    import random

    from helpers import gen
    from tropic.curves import TropicalCurve
    from tropic.latticefan import fan_from_maximal

    rays, maximal, dim = gen.rich_fan_r2()
    fan = fan_from_maximal(rays, maximal, dim)
    per_vertex = []
    for size in (400, 1600):
        tree = TropicalCurve.build(*gen.tree(random.Random(5), dim, size, rays))
        assert verify_certificate(certify(tree, fan)).ok
        gc.collect()
        before = len(gc.get_objects())
        cert = certify(tree, fan)
        assert verify_certificate(cert).ok
        gc.collect()
        per_vertex.append((len(gc.get_objects()) - before) / len(cert.rescaled_curve.vertices))
        del cert
    assert max(per_vertex) < 5 and abs(per_vertex[1] - per_vertex[0]) < 0.5, per_vertex


def test_certify_validates_once_and_reads_each_input_edge_once(monkeypatch):
    # the subdivided and rescaled curves inherit validity and balancing, and
    # the walk hands certify each piece's length/weight as integers, so certify
    # checks the structure of its input alone and reads its input alone, in
    # the one pass that gives the validation report and the edge data, however
    # many pieces it makes; the rescaled curve reads its own from its image
    # only if asked, and verify does not ask
    from tropic.curves import TropicalCurve

    built = []
    one_pass = TropicalCurve.__dict__["_pass"]  # its func reads the curve
    real = one_pass.func

    def counting(c):
        built.append(c)
        return real(c)

    monkeypatch.setattr(one_pass, "func", counting)
    tree, fan = _rich_tree(3, 24)
    certify(tree, fan)  # warms the fan's memo
    fresh = TropicalCurve(tree.ambient_dim, tree.vertices, tree.edges, tree.rays)
    built.clear()
    cert = certify(fresh, fan)
    assert cert.multiplier > 1 and len(cert.rescaled_curve.edges) > len(fresh.edges)
    assert verify_certificate(cert).ok
    assert [c is fresh for c in built] == [True]
    assert "_pass" not in vars(cert.rescaled_curve)  # neither handed over nor run


def test_each_curve_builds_one_integer_image(monkeypatch):
    # the curve keeps its integer image: balancing (through the edge data),
    # the walker, well-spacedness and verify-cert's point location all read
    # it.  certify builds the input's only: the walk hands it each piece's
    # length/weight in integers, so the subdivided curve needs none, and
    # dilation builds the rescaled curve's image from its positions and hands
    # it over, so verify-cert builds none in process, and one for a curve read
    # from JSON.  Every image holds tuples, handed or built, and with m = 1
    # the rescaled curve's vertices are its image's dict.  A curve with no break and N = 1 is its own
    # rescaled curve, image included.  integer_image is counted wherever a
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
    assert len(calls) == 1 and calls[0] is c.vertices
    cert = certify(c, fan)
    hat = cert.rescaled_curve
    assert cert.multiplier > 1 and len(hat.vertices) > len(c.vertices)
    assert len(calls) == 1  # the input's, counted above: certify builds none
    assert "_image" in vars(hat) and hat._image == real(hat.vertices)
    assert hat._image[0] > 1 or hat.vertices is hat._image[1]
    assert {type(q) for q in [*hat._image[1].values(), *c._image[1].values()]} == {tuple}
    calls.clear()
    assert verify_certificate(cert).ok
    assert calls == [] and "_pass" not in vars(hat)
    # a certificate read back from JSON has no edge data handed over: its
    # point location and its edge data share the one image
    back = certificate_from_dict(loads(dumps(certificate_to_dict(cert))))
    calls.clear()
    assert verify_certificate(back).ok
    assert len(calls) == 1 and calls[0] is back.rescaled_curve.vertices
    tripod = fixtures.tripod()
    calls.clear()
    cert = certify(tripod, fixtures.fan_p2())
    assert cert.rescaled_curve is tripod and cert.multiplier == 1
    assert verify_certificate(cert).ok
    assert len(calls) == 1 and calls[0] is tripod.vertices


def test_derived_node_data_is_exact_on_a_curve_not_rescaled():
    # k = length/weight is an int where it is integral and an exact Fraction
    # elsewhere, as on the curve of a tampered certificate
    from tropic.curves import edge_data
    from tropic.degeneration import _derive
    from tropic.refine import subdivide_along_fan

    tree, fan = _rich_tree(3, 24)
    prepared = subdivide_along_fan(tree, fan).output
    nodes = _derive(prepared, fan)[0]
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


def test_vertex_cones_from_the_derivation_match_the_reference_scan():
    # certify finds each vertex's cone from the rescaled curve's sign vectors
    # (``_derive``); reference_locate scans every cone for each rescaled vertex
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


def _carried_signs(cert, handed):
    """The sign vectors that the walk handed ``_derive`` for the certificate's
    own curve and fan object, checked to equal those of the rescaled curve's
    integer image, computed afresh, and to be the ones whose cells, closure
    mask and cone, ``_derive`` packs."""
    from tropic.degeneration import _derive
    from tropic.latticefan import _locate, hyperplane_values, integer_image

    (hat, fan, (_, vectors)), = handed
    handed.clear()
    assert hat is cert.rescaled_curve and fan is cert.fan
    assert vectors == hyperplane_values(fan, integer_image(hat.vertices)[1])[1]
    _, masks, cones = _derive(hat, fan)
    assert {v: _locate(fan, s) for v, s in vectors.items()} == {
        v: (cones[v], masks[v]) for v in hat.vertices}
    return vectors


def test_the_carried_sign_vectors_are_those_of_the_rescaled_image(monkeypatch):
    # the walker signs each input vertex and hands each kept break the vector
    # of the interval before it with every hyperplane crossing there set to 0;
    # rescaling by N > 0 keeps every sign, and certify hands the walk's vectors
    # to _derive, which signs no vertex again: certify runs with
    # degeneration's signing call disabled.  Trees on the rich and stellar
    # fans, honeycombs moved by a fractional offset (N > 1 and an image
    # denominator m/g > 1), a break on two hyperplanes at once and a curve with
    # no break
    import random

    from helpers import gen, handed_states, stellar_fan, translated
    from tropic import degeneration
    from tropic.curves import TropicalCurve
    from tropic.latticefan import fan_from_maximal

    def signing(*args):
        raise AssertionError("_derive signed a vertex the walker had signed")

    monkeypatch.setattr(degeneration, "hyperplane_values", signing)
    rng = random.Random(17)  # the stellar fans of the reference scan above
    seen = {"certificates": 0, "breaks": 0, "rescaled": 0, "denominator": 0}
    specs = [(gen.rich_fan_r2(), (4, 10, 24)), (gen.rich_fan_r3(), (4, 10, 24))]
    specs += [(stellar_fan(rng, gen.fan_p2(), rng.randint(3, 6)), (4, 10)) for _ in range(3)]
    specs += [(stellar_fan(rng, gen.rich_fan_r3(), rng.randint(1, 3)), (4, 10)) for _ in range(3)]
    cases = []
    for spec, sizes in specs:
        fan = fan_from_maximal(*spec)
        cases += [(TropicalCurve.build(
            *gen.tree(random.Random(seed), spec[2], sizes[seed % len(sizes)], spec[0])), fan)
            for seed in range(4)]
    # the plane z = k/11 of a honeycomb in R^3 crosses no wall, so k/11 stays
    # in the rescaled image's denominator
    for dim, spec in ((2, gen.fan_p2()), (3, gen.fan_p2_r3())):
        fan = fan_from_maximal(*spec)
        for d in (3, 4, 5):
            offset = [Fraction(rng.randint(-30, 30), rng.randint(2, 9)) for _ in range(2)]
            curve = TropicalCurve.build(*gen.honeycomb(d, dim, offset))
            lift = [0, 0, Fraction(rng.randint(1, 10), 11)][:dim]
            cases.append((translated(curve, lift), fan))
    with handed_states() as handed:
        for curve, fan in cases:
            cert = certify(curve, fan)
            _carried_signs(cert, handed)
            hat = cert.rescaled_curve
            seen["certificates"] += 1
            seen["breaks"] += len(hat.vertices) - len(curve.vertices)
            seen["rescaled"] += cert.multiplier > 1
            seen["denominator"] += hat._image[0] > 1
        assert seen["certificates"] == 38 and seen["breaks"] >= 200, seen
        assert seen["rescaled"] >= 30 and seen["denominator"] == 3, seen
        # the edge (-1,-1)-(1,1) crosses both walls of P^1 x P^1 at the
        # origin, so its break reads 0 on both hyperplanes
        cross = TropicalCurve.build(
            2, {"a": (-1, -1), "b": (1, 1)}, edges=[("e0", ("a", "b"), 1)],
            rays=[("r0", "a", (-1, 0), 1), ("r1", "a", (0, -1), 1),
                  ("r2", "b", (1, 0), 1), ("r3", "b", (0, 1), 1)])
        vectors = _carried_signs(certify(cross, fixtures.fan_p1xp1()), handed)
        assert vectors["e0#1"] == (0, 0) and len(vectors) == 3
        # a curve with no break is its own subdivision and rescaled curve,
        # and is handed the walker's vectors of its own vertices
        tripod = fixtures.tripod()
        cert = certify(tripod, fixtures.fan_p2())
        assert cert.rescaled_curve is tripod
        assert _carried_signs(cert, handed).keys() == tripod.vertices.keys()


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


def _first(entries, change):
    """A copy of the dict ``entries`` with the value of its first id passed through ``change``."""
    key = next(iter(entries))
    return entries | {key: change(entries[key])}


def _mutations(cert):
    """(name, certificate) for single-field changes of ``cert`` that no valid
    certificate of its curve and fan shows: the curve over another N is
    another curve, so N changes only to a value that is no positive int."""
    from helpers import scaled

    hat = cert.rescaled_curve
    dim = hat.ambient_dim
    out = [("multiplier", cert._replace(multiplier=-cert.multiplier)),
           ("zero multiplier", cert._replace(multiplier=0))]
    out.append(("vertex cone", cert._replace(
        vertex_cones=_first(cert.vertex_cones, lambda i: i + 1))))
    if hat.rays:  # a contact order: the ray's weight
        r, *rest = hat.rays
        out.append(("contact order", cert._replace(
            rescaled_curve=hat._replace(rays=(r._replace(weight=r.weight + 1), *rest)))))
    if cert.node_data:
        nd, *rest = cert.node_data
        for name, changed in (("k", nd._replace(k=nd.k + 1)), ("rho", nd._replace(rho=nd.rho + 1)),
                              ("u_q", nd._replace(u_q=(nd.u_q[0] + 1,) + nd.u_q[1:]))):
            out.append((name, cert._replace(node_data=(changed, *rest))))
        out.append(("dropped node_data", cert._replace(node_data=tuple(rest))))
        # every length doubled, the node data kept: each k is named
        out.append(("curve dilated", cert._replace(rescaled_curve=scaled(hat, 2))))
    out.append(("unknown node_data", cert._replace(
        node_data=cert.node_data + (NodeData("zz", 1, 1, (0,) * dim),))))
    entries = cert.vertex_cones
    out.append(("dropped vertex_cones", cert._replace(vertex_cones=dict(list(entries.items())[1:]))))
    out.append(("unknown vertex_cones", cert._replace(vertex_cones=entries | {"zz": 0})))
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
            assert not reference_verify(bad).ok, name
            if name in ("multiplier", "zero multiplier"):
                assert verify_certificate(bad).violations == (MULTIPLIER_NOT_POSITIVE,), name
            if name == "curve dilated":
                named = [v for v in verify_certificate(bad).violations if "NodeData" in v]
                assert named == [f"NodeDataMismatch: edge {e}"
                                 for e in sorted(nd.edge for nd in cert.node_data)]
        assert len(names) >= (12 if cert.node_data else 7), names


def test_swapped_positions_are_refused_in_any_order():
    # two vertices' positions swapped in the certificate's curve and written
    # in swapped order: the reader keys each position by its vertex id, so
    # the swap is a change of the curve, which verify refuses, named alike in
    # either order of the file
    from helpers import translated
    from tropic.jsonio import certificate_from_dict, certificate_to_dict, dumps, loads

    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    cert = certify(curve, fixtures.fan_p1xp1())
    doc = loads(dumps(certificate_to_dict(cert)))
    (u, p), (w, q), *rest = [(v["id"], v["coords"]) for v in doc["curve"]["vertices"]]
    assert p != q and cert.vertex_cones[u] != cert.vertex_cones[w]
    found = []
    for order in ((u, w), (w, u)):
        coords = {u: q, w: p}
        doc["curve"]["vertices"] = [{"id": v, "coords": coords[v]} for v in order] + [
            {"id": v, "coords": c} for v, c in rest]
        found.append(verify_certificate(certificate_from_dict(doc)).violations)
    assert found[0] == found[1] and {
        f"VertexConeMismatch: vertex {u}", f"VertexConeMismatch: vertex {w}"} <= set(found[0])


def test_an_edit_in_place_of_each_per_id_dict_is_named():
    # the per-id dict of a certificate is its own copy: a cone index edited
    # in place is named, where it would pass if certify handed over the dict
    # that its derivation holds
    from helpers import translated

    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    cert = certify(curve, fixtures.fan_p1xp1())
    entries = cert.vertex_cones
    key = next(iter(entries))
    entries[key] += 1
    assert verify_certificate(cert).violations == (f"VertexConeMismatch: vertex {key}",)


def test_the_rescaled_curve_keeps_its_derived_fields(monkeypatch):
    # certify derives the node data and cells once and the curve keeps them:
    # verify reads them, and a copy of the curve derives its own
    from tropic import degeneration
    from tropic.curves import TropicalCurve
    from tropic.jsonio import certificate_from_dict, certificate_to_dict, dumps, loads

    real, calls = degeneration._state, []
    monkeypatch.setattr(degeneration, "_state", lambda c, f: calls.append(c) or real(c, f))
    tree, fan = _rich_tree(5, 24)
    cert = certify(tree, fan)
    hat = cert.rescaled_curve
    assert calls == []  # certify hands over the walk's
    kept = degeneration._derive(hat, fan)
    assert degeneration._derive(hat, fan) is kept and verify_certificate(cert).ok
    assert calls == []
    fresh = TropicalCurve(*hat)
    assert "_derived" not in vars(fresh) and degeneration._derive(fresh, fan) == kept
    assert kept[0] == {nd.edge: nd for nd in cert.node_data} and calls == [fresh]
    # a certificate read from JSON inherits nothing
    back = certificate_from_dict(loads(dumps(certificate_to_dict(cert))))
    assert verify_certificate(back).ok and calls[1:] == [back.rescaled_curve]
    assert degeneration._derive(back.rescaled_curve, back.fan) == kept
    # verify names an unbalanced curve first
    unbalanced = hat._replace(rays=hat.rays[1:])
    assert verify_certificate(cert._replace(rescaled_curve=unbalanced)).violations[0] == (
        "Unbalanced: rescaled curve fails balancing")


def _count_signed_keys(monkeypatch) -> list[set]:
    """The keys of every ``hyperplane_values`` call, one set per call, counted
    wherever a tropic module binds it."""
    import sys

    from tropic.latticefan import hyperplane_values

    calls = []

    def counting(f, image):
        calls.append(set(image))
        return hyperplane_values(f, image)

    for module in [m for k, m in sys.modules.items() if k.startswith("tropic.")]:
        if getattr(module, "hyperplane_values", None) is hyperplane_values:
            monkeypatch.setattr(module, "hyperplane_values", counting)
    return calls


def test_verify_signs_only_the_ray_directions_of_a_certificate_made_in_process(monkeypatch):
    # certify hands the walker's sign vectors to _derive, so it signs no
    # vertex in degeneration, and the derivation it packs holds every vertex's
    # cone, which verify reads back for the same fan object.  The derivation
    # binds to its fan object and its curve object: given an equal fan that is
    # another object, a copy of the curve or a certificate read from JSON, the
    # vertices are signed afresh.  The ray directions are read from the fan's
    # table (``Fan._directions``): each is signed once per fan object, keyed
    # by direction, not by ray, by the first walk or verify on that object
    from tropic import degeneration
    from tropic.jsonio import (
        certificate_from_dict, certificate_to_dict, dumps, fan_from_dict, fan_to_dict, loads)

    calls = _count_signed_keys(monkeypatch)
    tree, fan = _rich_tree(6, 24)
    cert = certify(tree, fan)
    hat = cert.rescaled_curve
    vertices, directions = set(hat.vertices), {r.direction for r in hat.rays}
    assert calls == [set(tree.vertices), directions] and 0 < len(directions) < len(hat.rays)
    assert cert.multiplier > 1 and len(hat.vertices) > len(tree.vertices)
    calls.clear()
    assert verify_certificate(cert).ok and calls == []
    back = certificate_from_dict(loads(dumps(certificate_to_dict(cert))))
    assert verify_certificate(back).ok and calls == [vertices, directions]
    calls.clear()
    assert verify_certificate(back).ok and calls == []
    other = fan_from_dict(fan_to_dict(fan))
    assert other == fan and other is not fan
    assert degeneration._derive(hat, other) == degeneration._derive(hat, fan)
    assert calls == [vertices, vertices]  # the curve keeps one derivation, for other, then fan
    calls.clear()
    assert verify_certificate(cert._replace(fan=other)).ok and calls == [vertices, directions]
    calls.clear()
    copy = hat._replace(rays=hat.rays)
    assert copy == hat and "_derived" not in vars(copy)
    assert verify_certificate(cert._replace(rescaled_curve=copy)).ok
    assert calls == [vertices]


def test_a_second_certify_and_verify_on_a_fan_signs_no_ray_direction(monkeypatch):
    # count gate: the fan keeps every ray direction's values and signs, so
    # of two certify+verify rounds on one fan object only the first signs a
    # direction, once each, however many rays share it; a vertex is a str
    # key, a direction a tuple
    import random

    from helpers import gen
    from tropic.curves import TropicalCurve
    from tropic.latticefan import fan_from_maximal

    calls = _count_signed_keys(monkeypatch)
    rays, maximal, dim = gen.rich_fan_r2()
    tree2 = TropicalCurve.build(*gen.tree(random.Random(8), dim, 40, rays))
    for tree, fan in ((tree2, fan_from_maximal(rays, maximal, dim)), _rich_tree(8, 40)):
        directions = {r.direction for r in tree.rays}
        assert len(directions) < len(tree.rays)
        for first in (True, False):
            calls.clear()
            assert verify_certificate(certify(TropicalCurve(*tree), fan)).ok
            signed = [k for keys in calls for k in keys if type(k) is tuple]
            assert sorted(signed) == (sorted(directions) if first else []), tree.ambient_dim


def test_a_doubled_multiplier_certifies_the_curve_over_it():
    # the certified curve is the rescaled curve over N, so a changed N
    # states another curve.  Certify's N = 6 doubled states the curve halved,
    # for which 12 is the least N (k = 1 on e0): verify accepts it, and it is
    # what certify writes for that curve.  The subdivided curve packed with
    # rescaling skipped has k = 1/6 on r0:0, no integer, which no certify
    # emits: that node data alone is refused, whatever N
    from helpers import packed_certificate, scaled, translated
    from tropic.refine import subdivide_along_fan

    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    cert = certify(curve, fixtures.fan_p1xp1())
    assert cert.multiplier == 6 and sorted(nd.k for nd in cert.node_data) == [1, 6]
    doubled = cert._replace(multiplier=12)
    assert verify_certificate(doubled).ok
    assert certify(scaled(curve, Fraction(1, 2)), fixtures.fan_p1xp1()) == doubled
    out = subdivide_along_fan(curve, fixtures.fan_p1xp1()).output
    raw = packed_certificate(out, fixtures.fan_p1xp1(), rescale=False)
    assert dict((nd.edge, nd.k) for nd in raw.node_data) == {"e0": 1, "r0:0": Fraction(1, 6)}
    for n in (1, 2, 6):
        assert verify_certificate(raw._replace(multiplier=n)).violations == (
            "NodeDataMismatch: edge r0:0",), n


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


def test_every_record_of_a_certificate_has_its_class_and_field_count():
    # count gate: the walker and the derivation build their records with
    # tuple.__new__, which skips _make's length check, so every record of
    # seeded subdivisions and certificates on both rich fans is checked for
    # its class's exact type and number of fields
    import random
    from collections import Counter

    from helpers import gen
    from tropic.curves import BoundedEdge, CurveRay, TropicalCurve
    from tropic.degeneration import NodeData
    from tropic.latticefan import fan_from_maximal
    from tropic.refine import NewVertex, subdivide_along_fan

    seen = Counter()
    for rich in (gen.rich_fan_r2, gen.rich_fan_r3):
        rays, maximal, dim = rich()
        fan = fan_from_maximal(rays, maximal, dim)
        for seed in range(6):
            tree = TropicalCurve.build(*gen.tree(random.Random(seed), dim, 4 + 8 * seed, rays))
            record = subdivide_along_fan(tree, fan)
            cert = certify(tree, fan)
            hat = cert.rescaled_curve
            for records, cls in (
                    (record.new_vertices, NewVertex), (record.output.edges, BoundedEdge),
                    (record.output.rays, CurveRay), (hat.edges, BoundedEdge),
                    (hat.rays, CurveRay), (cert.node_data, NodeData)):
                for r in records:
                    assert type(r) is cls and len(r) == len(cls._fields), r
                seen[cls.__name__] += len(records)
            assert all(len(nd.u_q) == dim for nd in cert.node_data)
            assert all(len(e.ends) == 2 for e in hat.edges)
    assert len(seen) == 4 and min(seen.values()) >= 50, seen


MULTIPLIER_NOT_POSITIVE = "MultiplierNotPositive: the multiplier must be a positive int"


def test_verify_refuses_a_multiplier_below_1_whatever_the_base_point():
    # the base point is the curve over N, and no curve is over N < 1: a
    # negated or zero N is refused, and nothing else, whatever the curve
    from helpers import translated
    from tropic.jsonio import certificate_from_dict, certificate_to_dict, dumps, loads

    doc = certificate_to_dict(certify(fixtures.segfan(), fixtures.fan_p1xp1()))
    assert doc["multiplier"] == 1
    doc["multiplier"] = -1
    mirrored = certificate_from_dict(loads(dumps(doc)))
    assert verify_certificate(mirrored).violations == (MULTIPLIER_NOT_POSITIVE,)
    assert verify_certificate(mirrored._replace(multiplier=0)).violations == (
        MULTIPLIER_NOT_POSITIVE,)
    # a multiplier that equals certify's N but is no int
    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    cert = certify(curve, fixtures.fan_p1xp1())
    assert cert.multiplier == 6 and verify_certificate(cert).ok
    for n in (Fraction(6), 6.0, -6):
        assert verify_certificate(cert._replace(multiplier=n)).violations == (
            MULTIPLIER_NOT_POSITIVE,), n


def test_verify_refuses_a_base_point_over_a_zero_denominator():
    # x/0 is no value: N = 0 puts the curve over a zero denominator.  It is
    # refused alone on the tripod, whose one vertex sits at the origin, so
    # that every product by 0 would agree, and on segfan moved off the lattice
    from helpers import translated

    tripod = certify(fixtures.tripod(), fixtures.fan_p2())
    assert set(tripod.rescaled_curve.vertices.values()) == {(0, 0)}
    moved = certify(translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2))),
                    fixtures.fan_p1xp1())
    for cert in (tripod, moved):
        assert verify_certificate(cert._replace(multiplier=0)).violations == (
            MULTIPLIER_NOT_POSITIVE,)


def test_verify_refuses_a_multiplier_that_is_not_the_least():
    # certify's N = 6 dilated to 12: k = 6 and 1 become 12 and 2, and every
    # other field agrees, but N = 6 makes every length/weight integral
    from helpers import scaled, translated
    from tropic.degeneration import _derive

    curve = translated(fixtures.segfan(), (Fraction(1, 3), Fraction(1, 2)))
    cert = certify(curve, fixtures.fan_p1xp1())
    assert (cert.multiplier, sorted(nd.k for nd in cert.node_data)) == (6, [1, 6])
    big = scaled(cert.rescaled_curve, 2)
    nodes = _derive(big, cert.fan)[0]
    dilated = cert._replace(rescaled_curve=big, multiplier=12, node_data=tuple(nodes.values()))
    assert sorted(nd.k for nd in dilated.node_data) == [2, 12]
    assert verify_certificate(dilated).violations == (
        "MultiplierNotLeast: a smaller multiplier makes every length/weight integral",)
    # a curve with no bounded edge must have N = 1
    line = certify(fixtures.tripod(), fixtures.fan_p2())
    assert not line.rescaled_curve.edges and line.multiplier == 1 and verify_certificate(line).ok
    assert verify_certificate(line._replace(multiplier=2)).violations == (
        "MultiplierNotLeast: a smaller multiplier makes every length/weight integral",)


def test_verify_refuses_node_data_of_a_curve_never_rescaled():
    # packed with rescaling skipped, the certificate is consistent field by
    # field at N = 1, but its k = length/weight are 3/4 and 5/6, which certify
    # never emits (its N is 12)
    from helpers import packed_certificate, scaled
    from tropic.jsonio import certificate_from_dict, certificate_to_dict, dumps, loads
    from tropic.latticefan import fan_from_maximal
    from tropic.refine import subdivide_along_fan

    fan = fan_from_maximal([(-1, 0), (0, 1), (1, -1)], [[0, 1], [1, 2], [2, 0]], 2)
    assert certify(fixtures.ratio_path(), fan).multiplier == 12
    raw = packed_certificate(subdivide_along_fan(fixtures.ratio_path(), fan).output, fan,
                             rescale=False)
    ks = {nd.edge: nd.k for nd in raw.node_data}
    assert sorted(ks.values()) == [Fraction(3, 4), Fraction(5, 6)]
    expected = tuple(f"NodeDataMismatch: edge {e}" for e in sorted(ks))
    assert verify_certificate(raw).violations == expected
    # segfan halved, never rescaled: k = 1/2, which no file holds, so it is
    # written with no node data; behind the JSON reader e0 is named alike
    half = packed_certificate(scaled(fixtures.segfan(), Fraction(1, 2)), fixtures.fan_p1xp1(),
                              rescale=False)
    assert [nd.k for nd in half.node_data] == [Fraction(1, 2)]
    assert verify_certificate(half).violations == ("NodeDataMismatch: edge e0",)
    back = certificate_from_dict(loads(dumps(certificate_to_dict(half._replace(node_data=())))))
    assert verify_certificate(back).violations == ("NodeDataMismatch: edge e0",)


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
    # the entry repeated as it is, in process, twice and three times: named once
    for times in (2, 3):
        assert verify_certificate(cert._replace(node_data=cert.node_data * times)).violations == (
            "DuplicateEntry: node_data e0",), times
