"""Snapshot of the benchmark: every workload's end-to-end metrics over fixed seeds.

    python3 tools/bench_snapshot.py PR [--seeds K]

Run from anywhere in a checkout.  For each of the first K seeds of SEEDS
and each workload of BENCHMARK.json, it removes every ``__pycache__`` of
the checkout and runs the unchanged ``perfbench/run.py --trace 0`` with
PYTHONDONTWRITEBYTECODE=1, so that every run, and every cli_cold child,
compiles ``src/`` from source.  It writes BENCH_<PR>.json at the root: per
workload, the median, Q1 and Q3 of each end-to-end metric over the seeds
(inclusive quartiles), and the commit, Python version, CPU count and
bytecode regime.  It exits 1 if any op of any run failed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5, 6)
SECONDS = 15
BYTECODE = "no .pyc: __pycache__ removed and PYTHONDONTWRITEBYTECODE=1 before each run"


def run(workload: str, seed: int) -> dict:
    for cache in list(ROOT.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", help="the PR number, which names BENCH_<PR>.json")
    parser.add_argument("--seeds", type=int, default=len(SEEDS), choices=range(1, len(SEEDS) + 1))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    seeds, failed, workloads = SEEDS[:args.seeds], 0, {}
    for w in [w["name"] for w in bench["workloads"]]:
        runs = [run(w, seed) for seed in seeds]
        failed += sum(r["failed"] for r in runs)
        workloads[w] = {m: quartiles([r["metrics"][m]["value"] for r in runs]) for m in metrics}
        print(f"{w}: " + ", ".join(f"{m} {s['median']:.4g}" for m, s in workloads[w].items()),
              file=sys.stderr)
    describe = ["git", "describe", "--always", "--dirty"]
    snapshot = {
        "commit": subprocess.run(describe, cwd=ROOT, capture_output=True, text=True).stdout.strip(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "bytecode": BYTECODE,
        "seeds": list(seeds),
        "failed": failed,
        "workloads": workloads,
    }
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(snapshot, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
