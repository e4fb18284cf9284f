"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and twice traced, through the same
entry point the full benchmark uses, and checks that each run passes its
correctness gates, reports exactly the metrics BENCHMARK.json names with
their units, and that the traced counts repeat exactly.  Takes about a
minute; the figures it prints mean nothing at these sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(workload, trace):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check_metrics(where, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise SystemExit(f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{where}: {result['failed']} of {result['attempted']} failed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        _check_metrics(f"{workload} trace 0", _run(workload, 0), spec["end_to_end"])
        first, second = _run(workload, 1), _run(workload, 1)
        for result in (first, second):
            _check_metrics(f"{workload} trace 1", result, spec["per_layer"])
        counts = [name for name, m in first["metrics"].items()
                  if m["unit"] != "s" and name != "trace.overhead_frac"]
        differ = [n for n in counts
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        if differ:
            raise SystemExit(f"{workload}: traced counts differ between runs: {differ}")
        print(f"{workload}: ok ({len(counts)} counts repeat)", flush=True)
    print("smoke: ok")


if __name__ == "__main__":
    main()
