"""Compare the outputs of the benchmark commands between two qtraj checkouts.

    python3 studies/compare_outputs.py PARENT CHANGE [--seeds 1 7]

Runs every command of every workload in `perfbench/workloads.py` (WORKLOADS,
read from this checkout), then the EXTRA commands below, which the
benchmark does not run, in both checkouts, at each seed, each command in a
fresh process with one BLAS thread and the checkout's own `src/` on the
path.  The output is long; `grep -v identical` shows what moved.  For
every stdout and output file it prints `identical` when the bytes match,
and otherwise the largest absolute difference between corresponding
numbers.  For each ensemble command whose trajectories jump it also
prints how many of them changed their jump count.  Exits 0 when every file has the
same shape in both checkouts, 1 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs one CLI command, recording each ensemble's jumps per trajectory
DRIVER = r"""
import json, sys
from qtraj import cli
jumps = []
run = cli.run_ensemble
def recorded(*args, **kwargs):
    result = run(*args, **kwargs)
    jumps.append(result.jumps_per_trajectory.tolist())
    return result
cli.run_ensemble = recorded
code = cli.main(json.loads(sys.argv[1]))
with open(sys.argv[2], "w") as fh:
    json.dump(jumps, fh)
sys.exit(code)
"""


# (label, model, argv after --model/--seed/--out-dir) of each command of the
# time-dependent model, whose outputs the benchmark's models (none of which
# reads t) cannot show.  Both checkouts read the model file of this checkout.
EXTRA = [(f"driven_atom {sub} {integrator}", "models/driven_atom.qt",
          [sub, "--integrator", integrator])
         for sub in ("run", "ensemble") for integrator in ("rk4", "adaptive")]


def _extra_argv(subcommand, model, rest, seed, out_dir):
    return [subcommand, "--model", model, "--seed", str(seed), "--out-dir", out_dir, *rest]


def _commands():
    """(label, argv of (seed, out_dir)) of every benchmark command, then of every EXTRA one."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    for name, workload in WORKLOADS.items():
        for i, command in enumerate(workload.commands):
            label = f"{name}[{i}] {command.subcommand}"
            if command.unraveling is not None:
                label += f" {command.unraveling}"
            yield label, functools.partial(command.argv, workload.model)
    for label, model, (subcommand, *rest) in EXTRA:
        yield label, functools.partial(_extra_argv, subcommand, str(ROOT / model), rest)


def run_command(checkout, argv_of, seed, work):
    """({file name: bytes}, jumps per trajectory or None) of one command in one checkout."""
    out_dir = work / "out"
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = argv_of(seed, str(out_dir))
    jumps_path = work / "jumps.json"
    proc = subprocess.run([sys.executable, "-c", DRIVER, json.dumps(argv), str(jumps_path)],
                          cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited with {proc.returncode}:\n"
                           f"{proc.stderr.decode(errors='replace')}")
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    files["stdout"] = proc.stdout
    jumps = json.loads(jumps_path.read_text())
    return files, (jumps[0] if jumps else None)


def largest_difference(a: bytes, b: bytes):
    """Largest |x - y| over corresponding numbers of two outputs; None if their shapes differ."""
    rows_a, rows_b = a.decode().split("\n"), b.decode().split("\n")
    if len(rows_a) != len(rows_b):
        return None
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        xa, xb = ra.split(), rb.split()
        if len(xa) != len(xb):
            return None
        for u, v in zip(xa, xb):
            worst = max(worst, abs(float(u) - float(v)))
    return worst


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = p.parse_args(argv)
    checkouts = [args.parent.resolve(), args.change.resolve()]
    same_shape = True
    for seed in args.seeds:
        for label, argv_of in _commands():
            label = f"seed {seed} {label}"
            runs = []
            for checkout in checkouts:
                with tempfile.TemporaryDirectory() as tmp:
                    runs.append(run_command(checkout, argv_of, seed, Path(tmp)))
            (files_a, jumps_a), (files_b, jumps_b) = runs
            for fname in sorted(set(files_a) | set(files_b)):
                if fname not in files_a or fname not in files_b:
                    print(f"{label} {fname}: only in one checkout")
                    same_shape = False
                elif files_a[fname] == files_b[fname]:
                    print(f"{label} {fname}: identical")
                else:
                    d = largest_difference(files_a[fname], files_b[fname])
                    same_shape &= d is not None
                    print(f"{label} {fname}: "
                          + ("shapes differ" if d is None else f"max |diff| {d:.3g}"))
            if jumps_a is not None and jumps_b is not None and any(jumps_a + jumps_b):
                changed = sum(x != y for x, y in zip(jumps_a, jumps_b))
                print(f"{label} jumps: {changed} of {len(jumps_a)} trajectories "
                      f"changed their count")
    return 0 if same_shape else 1


if __name__ == "__main__":
    sys.exit(main())
