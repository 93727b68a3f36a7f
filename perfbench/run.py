"""Benchmark harness for tropic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tropic is imported from its ``src/``.  The
harness makes the workload's inputs from the seed, sets up several times
(fresh import, input generation, fan construction and ``fan_validate``),
then runs the workload's fixed list of ops once, one at a time in this
process (``cli_cold``: one ``tropic`` process at a time).  The workloads are
sized to take about 15 s of op time; S only guards the run's length (see
GUARD).  Every op is checked against its oracle.  The last line of stdout is
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A summary per size class goes to stderr.

Times are wall-clock times corrected for the machine's speed (see Clock).

With ``--trace 1`` the harness sets up once with the tracer installed, then
runs every op of the first cycle (the workload's ladder once) twice,
untraced and with every layer's public functions wrapped (see tracer.py),
alternating which goes first.  The per-layer metrics come from the traced
runs, and ``trace.overhead_frac`` compares the two sides.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import workloads
from tracer import Tracer
from workloads import KnownDefect

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("cli", "jsonio", "curves", "latticefan", "refine", "defspace", "wellspaced", "degeneration")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
LOAD = ("jsonio.loads", "jsonio.curve_from_dict", "jsonio.fan_from_dict", "jsonio.certificate_from_dict")
DUMP = ("jsonio.dumps", "jsonio.curve_to_dict", "jsonio.fan_to_dict", "jsonio.certificate_to_dict")
# The reference loop's time on an idle core of the 2-vCPU machine the
# benchmark was tuned on (10.7 ms measured): corrected times read as seconds there.
REFERENCE_S = 0.01
# A pass stops early, after the op that crosses it, once it has taken GUARD
# x S wall seconds, so that a program several times slower than the one the
# workloads were sized for still ends in time.  The tail percentile stays
# the one of the full pass (see end_to_end).
GUARD = 6


def reference_loop() -> float:
    """Wall time of a fixed loop of small Fraction dot products, tropic's kind of work."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 800):
        a = (Fraction(i, 7), Fraction(-i, 5), Fraction(3, i))
        total += sum(x * y for x, y in zip(a, (1, 2, 3)))
    return time.perf_counter() - t0


class Clock:
    """Measures work in seconds corrected for the speed the machine runs at.

    On a shared virtual machine the same Python code runs up to twice as
    slow for stretches of seconds to minutes, which moves every wall time of
    a run together.  The clock runs the reference loop just before and just
    after each piece of work and scales the work's wall time by REFERENCE_S
    over their mean.  The reference loop runs no tropic code, so a slower
    program still reads slower.
    """

    def __init__(self):
        self.last = reference_loop()

    def measure(self, fn):
        """Returns (fn's result, wall seconds, corrected seconds)."""
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        ref = reference_loop()
        corrected = wall * REFERENCE_S / ((self.last + ref) / 2)
        self.last = ref
        return value, wall, corrected


class Sample(NamedTuple):
    cls: str
    seconds: float  # corrected
    wall: float
    failure: str | None  # None, a KnownDefect, or why the op failed


def load_lib() -> SimpleNamespace:
    """Import tropic afresh, so that every module-level cache starts cold."""
    for name in [m for m in sys.modules if m == "tropic" or m.startswith("tropic.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"tropic.{m}") for m in LAYERS + ("errors", "fixtures")}
    )


def setup(clock: Clock, workload: str, seed: int, workdir: Path, tracer=None):
    """One cold set-up; returns (corrected seconds, lib, prepared)."""

    def cold():
        lib = load_lib()
        if tracer is not None:
            tracer.install()
        return lib, workloads.PREPARE[workload](lib, seed, workdir)

    (lib, prepared), _, seconds = clock.measure(cold)
    if tracer is not None:
        tracer.uninstall()
    return seconds, lib, prepared


def attempt(op):
    """Runs an op; returns (output, None) or (None, why it raised)."""
    try:
        return op.run(), None
    except Exception as ex:  # an op that raises unexpectedly is a failed op
        return None, f"{type(ex).__name__}: {ex}"


def run_pass(clock: Clock, ops, seconds: float, switch=None):
    """Runs every op once, unless GUARD x ``seconds`` of wall time runs out.

    With ``switch`` (which turns tracing on and off), every op also runs
    traced, alternating which of the two runs first.  Returns (untraced
    samples, traced samples).
    """
    plain: list[Sample] = []
    traced: list[Sample] = []
    deadline = time.perf_counter() + GUARD * seconds
    for op in ops:
        if time.perf_counter() > deadline:
            print(f"perfbench: pass stopped after {len(plain)} of {len(ops)} ops", file=sys.stderr)
            break
        sides = (False,) if switch is None else (len(plain) % 2 == 1, len(plain) % 2 == 0)
        for on in sides:
            if on:
                switch(True, len(traced))
            (out, failure), wall, corrected = clock.measure(lambda: attempt(op))
            if on:
                switch(False, -1)
            if failure is None:
                try:
                    failure = op.check(out)
                except (ValueError, LookupError) as ex:  # output not in the expected shape
                    failure = f"unreadable output: {ex!r}"
            (traced if on else plain).append(Sample(op.cls, corrected, wall, failure))
    return plain, traced


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least ten of n samples beyond its nearest-rank value.

    With fewer than 11 samples, 100 (the maximum).
    """
    return 100 if n < 11 else 100 * (n - 10) // n


def count_failed(samples) -> int:
    return sum(1 for s in samples if s.failure and not isinstance(s.failure, KnownDefect))


def end_to_end(samples, n_ops: int, setup_times, peak_rss_kb) -> tuple[dict, str]:
    """The end-to-end metrics; the tail percentile is fixed by the workload's n_ops."""
    durations = sorted(s.seconds for s in samples)
    matched = sum(1 for s in samples if not s.failure)  # a known defect is no match either
    pct = tail_percentile(n_ops)
    rank = max(1, math.ceil(pct * len(durations) / 100))
    metrics = {
        "ops_per_s": (matched / sum(durations), "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (durations[rank - 1], "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "correct_frac": (matched / len(samples), "frac"),
    }
    note = f"op_tail_s is p{pct} of n={len(durations)} ops; op_p50_s over the same n"
    return metrics, note


def per_layer(tracer, samples, prepared, overhead: float, startup: list[float]) -> dict:
    """Per-layer metrics; span times are wall times, corrected with the traced ops' mean speed."""
    n_ops = len(samples)
    speed = sum(s.seconds for s in samples) / sum(s.wall for s in samples)
    calls, incl, self_t = tracer.totals()
    all_calls, all_incl, _ = tracer.totals(ops_only=False)
    counts, leaf_calls, leaf_time = tracer.counts, tracer.leaf_calls, tracer.leaf_time

    def per_op(x):
        return x / n_ops

    def ratio(x, y):
        return x / y if y else 0.0

    runner = prepared.runner
    subdivide = "refine.subdivide_along_fan"
    certify, verify = "degeneration.certify", "degeneration.verify_certificate"
    superabundant = "defspace.is_superabundant"
    locate = "latticefan.smallest_containing_cone"
    contains = "latticefan.cone_contains"
    values = {
        "cli.process_s": (statistics.mean(runner.wall) if runner else 0.0, "s"),
        "cli.startup_s": (statistics.median(startup) if startup else 0.0, "s"),
        "jsonio.load_s": (per_op(tracer.covered(LOAD)), "s/op"),
        "jsonio.dump_s": (per_op(tracer.covered(DUMP)), "s/op"),
        "jsonio.cert_bytes": (statistics.mean(runner.cert_bytes) if runner else 0.0, "B"),
        "curves.validate_s": (per_op(incl["curves.validate"]), "s/op"),
        "curves.validate_calls": (per_op(calls["curves.validate"]), "count/op"),
        "curves.is_balanced_s": (per_op(incl["curves.is_balanced"]), "s/op"),
        "curves.outgoing_s": (per_op(incl["curves.outgoing"]), "s/op"),
        "latticefan.fan_validate_s": (
            ratio(all_incl["latticefan.fan_validate"], all_calls["latticefan.fan_validate"]),
            "s",
        ),
        "latticefan.locate_s": (per_op(incl[locate]), "s/op"),
        "latticefan.locate_calls": (per_op(calls[locate]), "count/op"),
        "latticefan.cone_contains_s": (per_op(leaf_time[contains]), "s/op"),
        "latticefan.cone_contains_calls": (per_op(leaf_calls[contains]), "count/op"),
        "latticefan.rank_s": (per_op(incl["latticefan.rank"]), "s/op"),
        "latticefan.halfspace_hits": (per_op(counts["latticefan.halfspace_hits"]), "count/op"),
        "latticefan.halfspace_misses": (per_op(counts["latticefan.halfspace_misses"]), "count/op"),
        "latticefan.fan_cones": (prepared.fan_cones, "count"),
        "refine.subdivide_s": (per_op(incl[subdivide]), "s/op"),
        "refine.subdivide_self_s": (per_op(self_t[subdivide]), "s/op"),
        "refine.new_vertices": (per_op(counts["refine.new_vertices"]), "count/op"),
        "refine.breaks_per_piece": (
            ratio(counts["refine.new_vertices"], counts["refine.pieces_in"]),
            "ratio",
        ),
        "refine.rescale_s": (per_op(incl["refine.rescale_integral"]), "s/op"),
        "defspace.is_superabundant_s": (per_op(incl[superabundant]), "s/op"),
        "defspace.deformation_cone_s": (per_op(incl["defspace.deformation_cone"]), "s/op"),
        "defspace.matrix_rows": (ratio(counts["defspace.matrix_rows"], counts["defspace.cones"]), "count"),
        "defspace.matrix_cols": (ratio(counts["defspace.matrix_cols"], counts["defspace.cones"]), "count"),
        "defspace.rank": (ratio(counts["defspace.rank"], counts["defspace.cones"]), "count"),
        "defspace.rank_share": (
            ratio(tracer.covered(("latticefan.rank",), superabundant), incl[superabundant]),
            "frac",
        ),
        "wellspaced.well_spaced_s": (per_op(incl["wellspaced.well_spaced"]), "s/op"),
        "wellspaced.departures": (
            ratio(counts["wellspaced.departures"], counts["wellspaced.verdicts"]),
            "count",
        ),
        "degeneration.certify_s": (per_op(incl[certify]), "s/op"),
        "degeneration.certify_self_s": (per_op(self_t[certify]), "s/op"),
        "degeneration.verify_s": (per_op(incl[verify]), "s/op"),
        "degeneration.verify_self_s": (per_op(self_t[verify]), "s/op"),
        "degeneration.cert_vertices": (
            ratio(counts["degeneration.cert_vertices"], counts["degeneration.certificates"]),
            "count",
        ),
        "degeneration.refine_locate_share": (
            ratio(tracer.covered((subdivide, locate), certify), incl[certify]),
            "frac",
        ),
        "trace.overhead_frac": (overhead, "frac"),
    }
    return {k: (v * speed if u in ("s", "s/op") else v, u) for k, (v, u) in values.items()}


def summary(workload: str, samples, note: str) -> None:
    by_class: dict[str, list[float]] = {}
    failures: Counter = Counter()
    reasons: dict[str, str] = {}
    for sample in samples:
        by_class.setdefault(sample.cls, []).append(sample.seconds)
        if sample.failure:
            failures[sample.cls] += 1
            reasons.setdefault(sample.cls, sample.failure)
    speed = sum(s.seconds for s in samples) / sum(s.wall for s in samples)
    err = sys.stderr
    print(f"{workload}: {len(samples)} ops; {note}", file=err)
    print(f"  corrected seconds per wall second: {speed:.3f}", file=err)
    for cls, ds in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        line = f"  {cls:<22} n={len(ds):<4} median={statistics.median(ds):.4f}s max={max(ds):.4f}s"
        if failures[cls]:
            kind = "known defect" if isinstance(reasons[cls], KnownDefect) else "FAILED"
            line += f"  {kind} {failures[cls]}: {reasons[cls]}"
        print(line, file=err)


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    clock = Clock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        lib = prepared = None  # the previous set-up is freed before the next is built
        gc.collect()
        elapsed, lib, prepared = setup(clock, workload, seed, workdir)
        setup_times.append(elapsed)
    who = resource.RUSAGE_CHILDREN if prepared.runner else resource.RUSAGE_SELF
    setup_rss = resource.getrusage(who).ru_maxrss
    ops = [op for cycle in prepared.cycles for op in cycle]
    samples, _ = run_pass(clock, ops, seconds)
    peak_rss = resource.getrusage(who).ru_maxrss
    metrics, note = end_to_end(samples, len(ops), setup_times, peak_rss)
    note += f"; peak RSS {setup_rss / 1024:.1f} MB after set-up, {peak_rss / 1024:.1f} MB after the pass"
    summary(workload, samples, note)
    return result(samples, metrics)


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    clock = Clock()
    tracer = Tracer()
    _, lib, prepared = setup(clock, workload, seed, workdir, tracer)
    runner = prepared.runner
    halfspaces = lib.latticefan.cone_halfspaces
    before = []

    def switch(on: bool, op: int) -> None:
        tracer.op = op
        if runner:  # the children trace themselves and report their cache use
            runner.tracer = tracer if on else None
        elif on:
            tracer.install()
            before.append(halfspaces.cache_info())
        else:
            tracer.uninstall()
            after, start = halfspaces.cache_info(), before.pop()
            tracer.counts["latticefan.halfspace_hits"] += after.hits - start.hits
            tracer.counts["latticefan.halfspace_misses"] += after.misses - start.misses

    plain, traced = run_pass(clock, prepared.cycles[0], seconds, switch)
    startup = []
    for _ in range(STARTUP_REPEATS if runner else 0):
        t0 = time.perf_counter()
        runner(["--version"])
        startup.append(time.perf_counter() - t0)
    overhead = sum(s.seconds for s in traced) / sum(s.seconds for s in plain) - 1
    summary(workload + " (traced)", traced, f"tracing overhead {overhead:+.1%}")
    return result(traced, per_layer(tracer, traced, prepared, overhead, startup))


def result(samples, metrics: dict) -> dict:
    failed = count_failed(samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One core for the reference loop and the ops (cli_cold's children
    # inherit it), so the speed correction sees the contention they see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # On SIGTERM, unwind: subprocess.run kills and reaps a running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        measure_run = measure_traced if args.trace else measure
        out = measure_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "tropic" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tropic sources at {ROOT / 'src' / 'tropic'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
