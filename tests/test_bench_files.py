"""The committed benchmark snapshots (``BENCH_<pr>.json``, from tools/bench_snapshot.py)."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_bench_file_names_every_workload_and_end_to_end_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files, "no BENCH_<pr>.json at the root of the checkout"
    for path in files:
        snapshot = json.loads(path.read_text())
        assert {"commit", "python", "cpus", "bytecode", "seeds"} <= snapshot.keys(), path.name
        for w in bench["workloads"]:
            for m in bench["end_to_end"]:
                stats = snapshot["workloads"][w["name"]][m["name"]]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (path.name, w["name"], m["name"])
