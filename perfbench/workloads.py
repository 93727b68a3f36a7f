"""The three workloads: their input ladders, their ops and each op's oracle.

An op is one curve taken through its workload's whole pipeline.  ``run`` is
the timed part; ``check`` compares what it returned with the oracle, outside
the timed region, and returns None or the reason the op failed.  A workload
is a fixed number of cycles; each cycle draws fresh curves from the seeded
generators, a fixed count per size class, in a shuffled order, so no two ops
see the same input and every run has the same n.  The counts are chosen so
that the median and the tail percentile each fall inside one size class
(see README.md).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import gen


class KnownDefect(str):
    """An oracle mismatch caused by a documented defect of the program; the
    op is reported as such, and not counted as failed."""


@dataclass
class Op:
    cls: str  # size class, e.g. "tree-r3-v20"
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None, or why the op failed


@dataclass
class Prepared:
    cycles: list[list[Op]]  # each holds the workload's whole ladder once
    fan_cones: int
    runner: "CliRunner | None" = None  # the process runner of cli_cold


def _build_fans(lib, specs: dict) -> dict:
    """Fans from (rays, maximal cones, dim) or a constructor, each checked by fan_validate."""
    fans = {}
    for key, spec in specs.items():
        fan = spec() if callable(spec) else lib.latticefan.fan_from_maximal(*spec)
        report = lib.latticefan.fan_validate(fan)
        if not report.valid:
            raise RuntimeError(f"generated fan {key} is invalid: {report.violations[0].detail}")
        fans[key] = fan
    return fans


def _ladder_curve(lib, rng: random.Random, kind: str, dim: int, size: int, tree_rays):
    """A fresh tree with ``size`` vertices or degree-``size`` honeycomb: (curve, genus, excess)."""
    if kind == "tree":
        return lib.curves.TropicalCurve.build(*gen.tree(rng, dim, size, tree_rays)), 0, 0
    # Inside the open positive quadrant, off the diagonal by a non-integer, so
    # only the (-1,-1) rays cross a wall of the P^2 fan, and none at the origin.
    offset = (4 * size + 4 + Fraction(rng.randint(1, 6), 7), 4 * size + 4 + Fraction(rng.randint(1, 4), 5))
    curve = lib.curves.TropicalCurve.build(*gen.honeycomb(size, dim, offset))
    g = (size - 1) * (size - 2) // 2
    # trivalent plane curves are regular: excess 0 in R^2, and g in a plane of R^3
    return curve, g, 0 if dim == 2 else g


# ---------------------------------------------------------------------------
# certify_rich_fan

RICH_CYCLES = 3  # n = 54 ops
RICH_LADDER = (  # (class, dimension, vertices, count per cycle)
    ("tree-r3-v4", 3, 4, 3),
    ("tree-r2-v10", 2, 10, 8),
    ("tree-r2-v24", 2, 24, 6),
    ("tree-r3-v60", 3, 60, 1),
)


def prepare_certify_rich_fan(lib, seed: int, workdir: Path) -> Prepared:
    rng = random.Random(seed)
    specs = {2: gen.rich_fan_r2(), 3: gen.rich_fan_r3()}
    fans = _build_fans(lib, specs)
    cycles = []
    for _ in range(RICH_CYCLES):
        cycle = []
        for cls, dim, n_vertices, count in RICH_LADDER:
            for _ in range(count):
                data = gen.tree(rng, dim, n_vertices, specs[dim][0])
                curve = lib.curves.TropicalCurve.build(*data)
                cycle.append(_certify_op(lib, cls, curve, fans[dim]))
        rng.shuffle(cycle)
        cycles.append(cycle)
    return Prepared(cycles, sum(len(f.cones) for f in fans.values()))


def _certify_op(lib, cls, curve, fan) -> Op:
    def run():
        balanced = lib.curves.is_balanced(curve).balanced
        cert = lib.degeneration.certify(curve, fan)
        return balanced, lib.degeneration.verify_certificate(cert)

    def check(out):
        balanced, verdict = out
        if not balanced:
            return "balanced tree reported unbalanced"
        if not verdict.ok:
            return f"certificate rejected: {verdict.violations[:1]}"
        return None

    return Op(cls, run, check)


# ---------------------------------------------------------------------------
# deform_honeycomb

HONEYCOMB_CYCLES = 5  # n = 135 ops, with the 9 fixtures in each cycle
HONEYCOMB_LADDER = (  # (class, kind, dimension, size, count per cycle)
    ("hc-r2-d3", "hc", 2, 3, 1),
    ("hc-r3-d3", "hc", 3, 3, 1),
    ("hc-r2-d6", "hc", 2, 6, 5),
    ("hc-r3-d5", "hc", 3, 5, 4),
    ("tree-r3-v50", "tree", 3, 50, 3),
    ("hc-r3-d7", "hc", 3, 7, 1),
    ("hc-r2-d9", "hc", 2, 9, 2),
    ("tree-r3-v100", "tree", 3, 100, 1),
)

class Oracle(NamedTuple):
    """What a deform_honeycomb op must report."""

    genus: int
    excess: int | None  # None: an unbalanced curve, which is_superabundant must refuse
    triple: tuple[int, int, int] | None = None  # (dimension, expected, excess), if pinned
    well_spaced: tuple[bool, int] | None = None  # (verdict, departures), for genus 1
    defect: int | None = None  # the excess a known defect reports instead


# The packaged fixtures and the fans they are certified against.  Genus-0
# curves have excess 0, and a genus-1 curve's excess is the codimension of its
# cycle's span.  overvalence clamps max(0, valence - 3), so the 2-valent line,
# segfan, diag and ratio report an excess of 1-2: a known defect.
FIXTURES = {
    "line": ("fan_p1xp1", Oracle(0, 0, defect=1)),
    "tripod": ("fan_p2", Oracle(0, 0, (2, 2, 0))),
    "unbal": (None, Oracle(0, None)),
    "segfan": ("fan_p1xp1", Oracle(0, 0, defect=2)),
    "cycle3": ("fan_cycle3", Oracle(1, 0, (3, 3, 0), (True, 0))),
    "speyer3": ("fan_r3", Oracle(1, 1, (4, 3, 1), (False, 1))),
    "speyer3_ws": ("fan_r3_ws", Oracle(1, 1, None, (True, 2))),
    "diag": ("fan_diag", Oracle(0, 0, defect=2)),
    "ratio": (None, Oracle(0, 0, defect=2)),
}


def prepare_deform_honeycomb(lib, seed: int, workdir: Path) -> Prepared:
    rng = random.Random(seed)
    tree_rays = gen.rich_fan_r3()[0]
    specs = {"p2": gen.fan_p2(), "p2xp1": gen.fan_p2_r3(), **lib.fixtures.FANS}
    fans = _build_fans(lib, specs)
    cycles = []
    for _ in range(HONEYCOMB_CYCLES):
        cycle = []
        for name, (fan, oracle) in FIXTURES.items():
            curve = lib.fixtures.CURVES[name]()
            cycle.append(_deform_op(lib, f"fixture-{name}", curve, fans.get(fan), oracle))
        for cls, kind, dim, size, count in HONEYCOMB_LADDER:
            for _ in range(count):
                curve, g, excess = _ladder_curve(lib, rng, kind, dim, size, tree_rays)
                fan = None if kind == "tree" else fans["p2" if dim == 2 else "p2xp1"]
                oracle = Oracle(g, excess, well_spaced=(True, 0) if g == 1 else None)
                cycle.append(_deform_op(lib, cls, curve, fan, oracle))
        rng.shuffle(cycle)
        cycles.append(cycle)
    return Prepared(cycles, sum(len(f.cones) for f in fans.values()))


def _deform_op(lib, cls, curve, fan, oracle: Oracle) -> Op:
    def run():
        out = {"balanced": lib.curves.is_balanced(curve).balanced}
        try:
            out["verdict"] = lib.defspace.is_superabundant(curve)
        except lib.errors.Unbalanced:
            out["verdict"] = "Unbalanced"
        if oracle.genus == 1:
            out["ws"] = lib.wellspaced.well_spaced(curve)
        if fan is not None:
            cert = lib.degeneration.certify(curve, fan)
            out["cert"] = lib.degeneration.verify_certificate(cert)
        return out

    def check(out):
        if oracle.excess is None:
            if out["balanced"] or out["verdict"] != "Unbalanced":
                return "unbalanced curve accepted"
            return None
        if not out["balanced"]:
            return "balanced curve reported unbalanced"
        if oracle.well_spaced is not None:
            got = (out["ws"].well_spaced, len(out["ws"].departures))
            if got != oracle.well_spaced:
                return f"well-spacedness {got}, expected {oracle.well_spaced}"
        if fan is not None and not out["cert"].ok:
            return f"certificate rejected: {out['cert'].violations[:1]}"
        v = out["verdict"]
        if oracle.triple is not None and (v.dimension, v.expected, v.excess) != oracle.triple:
            return f"verdict {(v.dimension, v.expected, v.excess)}, pinned {oracle.triple}"
        if v.excess == oracle.excess:
            return None
        if v.excess == oracle.defect:
            return KnownDefect(f"excess {v.excess}, expected {oracle.excess}")
        return f"excess {v.excess}, expected {oracle.excess}"

    return Op(cls, run, check)


# ---------------------------------------------------------------------------
# cli_cold


class CliRunner:
    """Runs one ``tropic`` process at a time and waits for it.

    With ``tracer`` set, each process is the benchmark's shim, which installs
    the same wrappers and hands its spans back through a file; ``wall`` and
    ``cert_bytes`` record the traced processes and certificates.
    """

    def __init__(self, workdir: Path):
        self.root = Path(__file__).resolve().parent.parent
        self.workdir = workdir
        self.tracer = None
        self.wall: list[float] = []
        self.cert_bytes: list[int] = []
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}

    def __call__(self, args: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "tropic", *args]
        else:
            spans = self.workdir / "spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("shim.py")), str(spans), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=170
        )
        if self.tracer is not None:
            self.wall.append(time.perf_counter() - t0)
            self.tracer.merge(json.loads(spans.read_text()), self.tracer.op)
            spans.unlink()
        return proc


CLI_CYCLES = 3  # n = 27 ops
CLI_LADDER = (  # (class, kind, dimension, size, fan, count per cycle)
    ("unbal", "unbal", 2, 0, "p2", 1),
    ("hc-r2-d4", "hc", 2, 4, "p2", 2),
    ("hc-r3-d4", "hc", 3, 4, "p2xp1", 4),
    ("tree-r2-v6", "tree", 2, 6, "rich2", 1),
    ("tree-r3-v4", "tree", 3, 4, "rich3", 1),
)


def prepare_cli_cold(lib, seed: int, workdir: Path) -> Prepared:
    rng = random.Random(seed)
    runner = CliRunner(workdir)
    specs = {
        "p2": gen.fan_p2(),
        "p2xp1": gen.fan_p2_r3(),
        "rich2": gen.rich_fan_r2(),
        "rich3": gen.rich_fan_r3(),
    }
    fans = {k: lib.latticefan.fan_from_maximal(*spec) for k, spec in specs.items()}
    fan_paths = {k: workdir / f"fan_{k}.json" for k in fans}
    for key, fan in fans.items():
        fan_paths[key].write_text(lib.jsonio.dumps(lib.jsonio.fan_to_dict(fan)))
    cycles = []
    for k in range(CLI_CYCLES):
        cycle = []
        for cls, kind, dim, size, fan_key, count in CLI_LADDER:
            for i in range(count):
                if kind == "unbal":
                    curve, excess = lib.fixtures.unbal(), None
                else:
                    curve, _, excess = _ladder_curve(lib, rng, kind, dim, size, specs[fan_key][0])
                path = workdir / f"c{k}_{cls}_{i}.json"
                path.write_text(lib.jsonio.dumps(lib.jsonio.curve_to_dict(curve)))
                fan = fans[fan_key]
                cycle.append(_cli_op(lib, runner, cls, curve, path, fan, fan_paths[fan_key], excess))
        rng.shuffle(cycle)
        cycles.append(cycle)
    return Prepared(cycles, sum(len(f.cones) for f in fans.values()), runner)


def _cli_op(lib, runner, cls, curve, path, fan, fan_path, excess) -> Op:
    cert_path = path.with_suffix(".cert")

    def run():
        out = {"check": runner(["check", str(path)])}
        out["superabundant"] = runner(["superabundant", str(path)])
        out["certify"] = runner(["certify", str(path), "--fan", str(fan_path), "--out", str(cert_path)])
        if out["certify"].returncode == 0:
            out["cert_bytes"] = cert_path.read_bytes()
            if runner.tracer is not None:
                runner.cert_bytes.append(len(out["cert_bytes"]))
            out["verify"] = runner(["verify-cert", str(cert_path)])
            cert_path.unlink()
        return out

    def check(out):
        balanced = excess is not None
        code = out["check"].returncode
        if code != (0 if balanced else 1) or json.loads(out["check"].stdout)["balanced"] != balanced:
            return f"check exited {code}"
        sup = out["superabundant"]
        if not balanced:
            if sup.returncode != 1 or json.loads(sup.stdout).get("error") != "Unbalanced":
                return f"superabundant exited {sup.returncode} on an unbalanced curve"
            if out["certify"].returncode != 1:
                return f"certify exited {out['certify'].returncode} on an unbalanced curve"
            return None
        report = json.loads(sup.stdout)
        if report.get("excess") != excess or sup.returncode != (1 if excess else 0):
            return f"superabundant exited {sup.returncode} with {report}, expected excess {excess}"
        if out["certify"].returncode != 0:
            return f"certify exited {out['certify'].returncode}: {out['certify'].stdout[:200]}"
        expected = lib.jsonio.dumps(
            lib.jsonio.certificate_to_dict(lib.degeneration.certify(curve, fan))
        )
        if out["cert_bytes"] != expected.encode():
            return "certificate differs from the in-process one"
        if out["verify"].returncode != 0 or not json.loads(out["verify"].stdout)["ok"]:
            return f"verify-cert exited {out['verify'].returncode}"
        return None

    return Op(cls, run, check)


PREPARE = {
    "certify_rich_fan": prepare_certify_rich_fan,
    "deform_honeycomb": prepare_deform_honeycomb,
    "cli_cold": prepare_cli_cold,
}
