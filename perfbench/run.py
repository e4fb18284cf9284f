"""Run the qtraj benchmark and print its metrics.

From the root of a qtraj checkout:

    python3 perfbench/run.py                       # all three workloads
    python3 perfbench/run.py --workload shg_moving --seed 1 --seconds 40 --trace 0

Each workload runs `qtraj.cli.main` in this process.  With --trace 0 the
run prints the end-to-end metrics; with --trace 1 it wraps the calls into
each qtraj layer and prints the per-layer metrics instead.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs each workload in its own child process, one after
the other, so that peak memory belongs to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("shg_moving", "jc_lockstep", "atom_wide")
# No BLAS thread pool: every run is one process with one thread.
BLAS_THREADS = 1


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="time budget of the timed repetitions of one workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-check sizes; the figures mean nothing")
    return p


def _run_all(args):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    source = ROOT / "src" / "qtraj"
    if not (source / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        print(f"perfbench: no qtraj checkout at {ROOT} (need src/qtraj and models/)",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import qtraj
    if Path(qtraj.__file__).resolve().parent != source.resolve():
        print(f"perfbench: imported qtraj from {qtraj.__file__}, not {source}",
              file=sys.stderr)
        return 2
    import harness

    env = harness.environment(args.seed, BLAS_THREADS)
    result, lines = harness.run_workload(args.workload, args.seed, args.seconds,
                                         args.trace, args.tiny, env)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
