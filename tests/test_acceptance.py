"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <n> pass|FAIL" line and enforces the
stated wall-clock budget.  All comparisons are exact: no tolerances, no
floating point.
"""

import random
import time
from fractions import Fraction

from helpers import monoid_closure, node_monoid, random_tree
from tropic import fixtures
from tropic.curves import edge_data, genus, is_balanced, recession_fan, validate
from tropic.defspace import combinatorial_type, is_superabundant
from tropic.degeneration import certify, verify_certificate
from tropic.refine import rescale_integral, subdivide_along_fan
from tropic.wellspaced import well_spaced


class _Timer:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(number, ok, detail=""):
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}{': ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_balancing_catalog():
    with _Timer(1.0) as t:
        balanced = {
            name: is_balanced(fixtures.CURVES[name]())
            for name in ("line", "tripod", "segfan", "cycle3", "speyer3")
        }
        unbal = is_balanced(fixtures.unbal())
    ok = all(b.balanced for b in balanced.values())
    ok = ok and not unbal.balanced and unbal.defects == (("v0", (1, 1)),)
    ok = ok and t.elapsed < 1.0
    _report(1, ok, f"balancing catalog exact in {t.elapsed:.3f}s")


def test_criterion_2_node_monoid_oracle_equivalence():
    with _Timer(5.0) as t:
        mismatches = []
        for k in range(1, 9):
            monoid = node_monoid(k, 1)
            closure = monoid_closure(k, 30)
            for n1 in range(31):
                for n2 in range(31 - n1):
                    if monoid.contains(n1, n2) != ((n1, n2) in closure):
                        mismatches.append((k, n1, n2))
    ok = not mismatches and t.elapsed < 5.0
    _report(2, ok, f"k=1..8, all pairs with n1+n2<=30, {t.elapsed:.3f}s")


def test_criterion_3_superabundance_fixture_values():
    expected_values = {"tripod": (2, 2, 0), "cycle3": (3, 3, 0), "speyer3": (4, 3, 1)}
    ok = True
    for name, (dim, exp, excess) in expected_values.items():
        with _Timer(1.0) as t:
            verdict = is_superabundant(fixtures.CURVES[name]())
        ok = ok and (verdict.dimension, verdict.expected, verdict.excess) == (dim, exp, excess)
        ok = ok and t.elapsed < 1.0
    _report(3, ok, "dimensions (2,3,4), expected (2,3,3), excess (0,0,1)")


def test_criterion_4_genus_zero_trees_never_superabundant():
    with _Timer(10.0) as t:
        rng = random.Random(2024)
        bad = []
        for i in range(50):
            dim = 2 if i < 25 else 3
            tree = random_tree(rng, dim, max_vertices=6)
            assert validate(tree).valid and is_balanced(tree).balanced
            if is_superabundant(tree).excess != 0:
                bad.append(i)
    ok = not bad and t.elapsed < 10.0
    _report(4, ok, f"50 balanced trivalent trees in R^2/R^3, {t.elapsed:.3f}s")


def test_criterion_5_well_spacedness():
    with _Timer(1.0) as t:
        failing = well_spaced(fixtures.speyer3())
        passing = well_spaced(fixtures.speyer3_wellspaced())
        vacuous = well_spaced(fixtures.cycle3())
    ok = not failing.well_spaced and len(failing.departures) == 1
    ok = ok and failing.departures[0].vertex == "v0"
    ok = ok and failing.departures[0].distance == 0
    ok = ok and passing.well_spaced and len(passing.departures) == 2
    ok = ok and vacuous.well_spaced and vacuous.span_codim == 0
    ok = ok and t.elapsed < 1.0
    _report(5, ok, "speyer3 fails once at distance 0; rebalanced variant passes")


CERTIFY_PAIRS = [
    ("line", "fan_p1xp1"),
    ("tripod", "fan_p2"),
    ("segfan", "fan_p1xp1"),
    ("cycle3", "fan_cycle3"),
    ("speyer3", "fan_r3"),
    ("speyer3_ws", "fan_r3_ws"),
    ("diag", "fan_diag"),
]


def test_criterion_6_certificate_round_trip_and_fault_injection():
    with _Timer(2.0) as t:
        ok = True
        for curve_name, fan_name in CERTIFY_PAIRS:
            cert = certify(fixtures.CURVES[curve_name](), fixtures.FANS[fan_name]())
            ok = ok and verify_certificate(cert).ok
        cert = certify(fixtures.segfan(), fixtures.fan_p1xp1())
        perturbed = cert._replace(
            node_data=tuple(
                nd._replace(u_q=(nd.u_q[0] + 1,) + nd.u_q[1:]) for nd in cert.node_data
            ),
        )
        ok = ok and not verify_certificate(perturbed).ok
        # a marked point's contact order is its ray's weight
        cert3 = certify(fixtures.speyer3(), fixtures.fan_r3())
        hat = cert3.rescaled_curve
        r, *rest = hat.rays
        tampered = cert3._replace(
            rescaled_curve=hat._replace(rays=(r._replace(weight=r.weight + 1), *rest)))
        ok = ok and not verify_certificate(tampered).ok
    ok = ok and t.elapsed < 2.0
    _report(6, ok, f"round trips + fault injection, {t.elapsed:.3f}s")


SUBDIVISION_CASES = [
    ("line", "fan_p2"),
    ("tripod", "fan_p2"),
    ("unbal", "fan_p2"),
    ("segfan", "fan_p2"),
    ("cycle3", "fan_p2"),
    ("diag", "fan_p2"),
    ("ratio", "fan_p2"),
    ("speyer3", "fan_r3"),
]


def test_criterion_7_subdivision_invariants():
    with _Timer(2.0) as t:
        ok = True
        for curve_name, fan_name in SUBDIVISION_CASES:
            c = fixtures.CURVES[curve_name]()
            fan = fixtures.FANS[fan_name]()
            record = subdivide_along_fan(c, fan)
            out = record.output
            ok = ok and is_balanced(out).balanced == is_balanced(c).balanced
            ok = ok and genus(out) == genus(c)
            ok = ok and recession_fan(out).rays() == recession_fan(c).rays()
            # support: piece lattice lengths per host edge sum to the original
            for e in c.edges:
                pieces = [p for p in out.edges if p.id == e.id or p.id.startswith(e.id + ":")]
                total = sum((edge_data(out, p.id)[1] for p in pieces), Fraction(0))
                ok = ok and total == edge_data(c, e.id)[1]
            again = subdivide_along_fan(out, fan)
            ok = ok and not again.new_vertices and again.output == out
    ok = ok and t.elapsed < 2.0
    _report(7, ok, f"support/balancing/genus/recession preserved, idempotent, {t.elapsed:.3f}s")


def test_criterion_8_rescaling():
    with _Timer(1.0) as t:
        c = fixtures.ratio_path()
        out, multiplier = rescale_integral(c)
        ratios = [edge_data(out, e.id)[1] / e.weight for e in out.edges]
    ok = multiplier == 12
    ok = ok and all(r.denominator == 1 for r in ratios)
    ok = ok and sorted(int(r) for r in ratios) == [9, 10]
    ok = ok and is_balanced(out).balanced
    ok = ok and combinatorial_type(out) == combinatorial_type(c)
    ok = ok and t.elapsed < 1.0
    _report(8, ok, "ratios {3/4, 5/6} clear with N = 12")


def test_criterion_9_base_point_bookkeeping():
    # the base point is the rescaled curve over N: the subdivided input, each
    # edge's valuation k/N its original length/weight
    ok = True
    for curve_name, fan_name in CERTIFY_PAIRS:
        c = fixtures.CURVES[curve_name]()
        fan = fixtures.FANS[fan_name]()
        cert = certify(c, fan)
        prepared = subdivide_along_fan(c, fan).output
        expected = {
            e.id: edge_data(prepared, e.id)[1] / e.weight for e in prepared.edges
        }
        n = cert.multiplier
        valuations = {nd.edge: Fraction(nd.k, n) for nd in cert.node_data}
        positions = {v: tuple(Fraction(x, n) for x in p)
                     for v, p in cert.rescaled_curve.vertices.items()}
        ok = ok and valuations == expected and positions == prepared.vertices
    _report(9, ok, "certificate valuations equal original length/weight on all fixtures")
