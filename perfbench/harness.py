"""Timed and traced runs of one workload, correctness gates and metrics.

A run calls `qtraj.cli.main` in this process, one command at a time, and
repeats the workload's command list until its time budget is spent.  Only
the CLI call itself is timed; clearing output directories, reading output
files and the gates happen between or after the timed calls.  Every
repetition uses the same seed, so each repetition after the first is also
the determinism check: its stdout and output files must equal the first
repetition's byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tracing
from workloads import WORKLOADS, check_jc_definition, oracle_gate, structure_gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7        # fewest fresh-process set-up probes; setup_s is their median
SETUP_PROBES_TINY = 2
MIN_REPS = 2            # two repetitions are needed for the determinism check


@dataclass
class Op:
    """One CLI command: exit code, wall time and digest of everything it wrote."""

    rc: int
    wall: float
    digest: str


def _call_cli(argv, buf):
    from qtraj import cli

    try:
        with contextlib.redirect_stdout(buf):
            return cli.main(argv)
    except SystemExit as e:          # argparse usage errors
        return e.code if isinstance(e.code, int) else 2
    except Exception:                # report, count as failed, keep running
        traceback.print_exc()
        return 1


def _run_rep(commands, model, seed, work):
    """Run every command once; returns ([Op], [{file name: bytes}])."""
    ops, outputs = [], []
    for i, command in enumerate(commands):
        out_dir = work / f"cmd{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = command.argv(model, seed, str(out_dir))
        buf = io.StringIO()
        t0 = perf_counter()
        rc = _call_cli(argv, buf)
        wall = perf_counter() - t0
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        files["stdout"] = buf.getvalue().encode("utf-8")
        h = hashlib.sha256()
        for name, blob in files.items():
            h.update(name.encode() + b"\0" + blob + b"\0")
        ops.append(Op(rc, wall, h.hexdigest()))
        outputs.append(files)
    return ops, outputs


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_sample(model):
    """Seconds to import qtraj.cli, parse and build the model, in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), model],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _timed_reps(commands, model, seed, work, budget, probes):
    """Repeat the workload until the next repetition would overrun budget.

    When probes > 0, one set-up probe runs in a fresh process before each
    repetition, outside its timing, and the loop is topped up to `probes`
    probes.  The probes thus sample the machine over the same stretch of time
    as the repetitions, not in one burst that a slow second would move whole.

    Returns the ops of every repetition, the first repetition's outputs, the
    peak RSS after it -- the footprint of one pass over the workload, before
    later repetitions reuse the allocator's memory -- and the probes.
    """
    reps, setup = [], []
    start = perf_counter()
    while True:
        if probes:
            setup.append(_setup_sample(model))
        ops, outputs = _run_rep(commands, model, seed, work)
        reps.append(ops)
        if len(reps) == 1:
            first_outputs, peak_rss_mb = outputs, _peak_rss_mb()
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + sum(o.wall for o in ops) > budget:
            break
    while len(setup) < probes:
        setup.append(_setup_sample(model))
    return reps, first_outputs, peak_rss_mb, setup


def _gate(name, workload, commands, outputs):
    """One list of problems per command, for the first repetition's outputs."""
    try:
        if workload.gate == "structure":
            problems = structure_gate(commands, outputs)
        else:
            problems = oracle_gate(workload.model, outputs)
        if name == "jc_lockstep":
            definition = check_jc_definition()
            problems = [p + definition for p in problems]
    except Exception as e:           # unreadable output fails the gate
        traceback.print_exc()
        problems = [[f"gate raised {type(e).__name__}: {e}"] for _ in commands]
    return problems


def _count_failures(reps, problems):
    """Failed ops: non-zero exit, output unlike the first repetition, or a gate."""
    reference = [op.digest for op in reps[0]]
    failed = 0
    for ops in reps:
        for i, op in enumerate(ops):
            failed += bool(op.rc != 0 or op.digest != reference[i] or problems[i])
    return failed


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qtraj").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        size = _read(index / "size").strip()
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches or "unknown"


def environment(seed, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "commit": _git_commit(),
        "qtraj_source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace, tiny, env):
    """Run one workload; returns (result dict for the last line, report lines)."""
    workload = WORKLOADS[name]
    commands = workload.tiny if tiny else workload.commands
    work = OUT / name
    probes = 0 if trace else SETUP_PROBES_TINY if tiny else SETUP_PROBES
    budget = seconds / 2 if trace else seconds
    reps, first_outputs, peak_rss_mb, setup = _timed_reps(
        commands, workload.model, seed, work, budget, probes)
    rep_walls = [sum(op.wall for op in ops) for ops in reps]
    # Mean over the repetitions: total solve time / repetitions.  The host
    # switches between a fast and a slow speed for seconds at a time; a median
    # of such bimodal samples jumps between the modes, a mean moves smoothly
    # with the share of the run spent slow.
    wall_s = statistics.fmean(rep_walls)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced_ops, _ = _run_rep(commands, workload.model, seed, work)
            problems = _gate(name, workload, commands, first_outputs)
        reps.append(traced_ops)
        overhead = sum(op.wall for op in traced_ops) / wall_s - 1.0
    else:
        problems = _gate(name, workload, commands, first_outputs)

    attempted = len(reps) * len(commands)
    failed = _count_failures(reps, problems)
    if trace:
        metrics = tracing.layer_metrics(tracer, overhead)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(s["total_s"] for s in setup), "s"),
            "traj_steps_per_s": (sum(c.traj_steps for c in commands) / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    lines = [f"workload {name}  seed {seed}  trace {trace}  "
             f"{len(reps)} repetitions x {len(commands)} commands",
             "env " + json.dumps(env, sort_keys=True),
             "repetition walls (s): " + " ".join(f"{w:.4f}" for w in rep_walls)]
    for i, p in enumerate(problems):
        for msg in p:
            lines.append(f"FAIL command {i}: {msg}")
    width = max(len(m) for m in metrics)
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric:<{width}}  {value:.6g} {unit}")
    lines.append(f"{'failed_frac':<{width}}  {failed / attempted:.6g} 1")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    record = dict(result, workload=name, seed=seed, seconds=seconds, tiny=tiny,
                  environment=env, repetition_walls_s=rep_walls,
                  setup_samples=setup, problems=problems,
                  trace_missing=tracer.missing if tracer else [])
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(stem.with_suffix(".spans.npz"))
    return result, lines
