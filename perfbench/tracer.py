"""Span tracer wrapped around the calls into each qtraj layer.

Only a traced repetition installs it.  `installed` replaces the module and
class attributes that qtraj's own callers look up at call time (for example
`steppers._drift2d`, which `_StepperBase._advance_det` reads from the
`steppers` globals on every step) and puts the originals back afterwards.
Every wrapped call records one span -- name, start, end, parent span -- in
flat in-memory arrays that are saved once, when the run ends.  Self time is
a span's duration minus the durations of its child spans; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

COUNTERS = ("amps_computed", "basis_size_sum", "rkck_accepted", "jumps",
            "shifts", "cutoff_changes")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, pre=None, post=None):
        """Return fn wrapped in a span; post(args, result, pre(args)) counts."""
        nid = self._id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            token = pre(args) if pre is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if post is not None:
                post(args, result, token)
            return result

        return traced

    def totals(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        names = np.frombuffer(self.span_name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        calls = np.bincount(names, minlength=len(self.names))
        incl = np.bincount(names, weights=dur, minlength=len(self.names))
        excl = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 span_name=np.frombuffer(self.span_name, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))


def _targets(tracer):
    """(owner, attribute, span name, pre, post) for every layer boundary."""
    from qtraj import cli, oracle, steppers, trajectory

    c = tracer.counters

    def used_size(freedoms):
        return math.prod(f.dim_used for f in freedoms)

    def on_apply(args, result, _):
        c["amps_computed"] += args[1].shape[0] * used_size(args[2])

    def on_drift(args, result, _):
        c["basis_size_sum"] += used_size(args[1])

    def on_rkck(args, result, _):
        c["rkck_accepted"] += result[1]

    def on_step(args, result, _):
        c["jumps"] += result[1].jumps

    def on_recenter(args, result, _):
        c["shifts"] += result != 0

    def dim_before(args):
        return args[0].freedoms[args[1]].dim_used

    def on_cutoff(args, result, before):
        c["cutoff_changes"] += result != before

    row = "hilbert.row_reduce"
    return [
        (cli, "parse_model", "modelfile.parse", None, None),
        (cli, "build_model", "modelfile.build", None, None),
        (cli, "run_single", "trajectory.run", None, None),
        (cli, "run_ensemble", "trajectory.run", None, None),
        (trajectory, "_observe", "trajectory.observe", None, None),
        (trajectory, "recenter", "moving_basis.recenter", None, on_recenter),
        (trajectory, "adjust_cutoff", "moving_basis.adjust_cutoff", dim_before, on_cutoff),
        (trajectory._Welford, "update", "trajectory.welford", None, None),
        (trajectory._Welford, "se", "trajectory.welford", None, None),
        (trajectory, "_stdout_lines", "trajectory.output", None, None),
        (trajectory, "_write_files", "trajectory.output", None, None),
        (trajectory, "_emit", "trajectory.output", None, None),
        (trajectory, "_apply_node", "operators.apply", None, on_apply),
        (trajectory, "row_dot", row, None, None),
        (steppers.QsdStepper, "step", "steppers.step", None, on_step),
        (steppers.JumpStepper, "step", "steppers.step", None, on_step),
        (steppers.JumpStepper, "_jump_probabilities", "steppers.jump_prob", None, None),
        (steppers.NoiseSource, "__init__", "steppers.noise_init", None, None),
        (steppers.NoiseSource, "wiener", "steppers.noise_draw", None, None),
        (steppers.NoiseSource, "uniforms", "steppers.noise_draw", None, None),
        (steppers, "rk4_step", "steppers.rk4", None, None),
        (steppers, "rkck_adaptive", "steppers.rkck", None, on_rkck),
        (steppers, "_rkck_substep", "steppers.rkck_substep", None, None),
        (steppers, "_drift2d", "steppers.drift", None, on_drift),
        (steppers, "_apply_node", "operators.apply", None, on_apply),
        (steppers, "row_dot", row, None, None),
        (steppers, "row_norm", row, None, None),
        (steppers, "row_norm2", row, None, None),
        (oracle, "integrate_master", "oracle.integrate", None, None),
    ]


@contextmanager
def installed(tracer):
    """Wrap every layer boundary for the duration of the block.

    A boundary that this version of qtraj no longer has is skipped and
    recorded in tracer.missing, so its metrics read zero instead of the
    traced run failing.
    """
    saved = []
    try:
        for owner, attr, name, pre, post in _targets(tracer):
            where = f"{getattr(owner, '__name__', owner)}.{attr}"
            if attr not in vars(owner):
                tracer.missing.append(where)
                print(f"trace: {where} not found; its spans are skipped",
                      file=sys.stderr)
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, pre, post))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer, overhead_frac):
    """The per-layer metrics, as {name: (value, unit)}, of one traced repetition."""
    spans = tracer.totals()
    c = tracer.counters

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def excl(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    tried = calls("steppers.rkck_substep")
    drifts = calls("steppers.drift")
    return {
        "operators.apply_calls": (calls("operators.apply"), "count"),
        "operators.apply_s": (incl("operators.apply"), "s"),
        "operators.amps_computed": (c["amps_computed"], "count"),
        "steppers.drift_calls": (drifts, "count"),
        "steppers.drift_self_s": (excl("steppers.drift"), "s"),
        "hilbert.row_reduce_calls": (calls("hilbert.row_reduce"), "count"),
        "hilbert.row_reduce_s": (incl("hilbert.row_reduce"), "s"),
        "steppers.rk4_steps": (calls("steppers.rk4"), "count"),
        "steppers.rkck_substeps_tried": (tried, "count"),
        "steppers.rkck_substeps_accepted": (c["rkck_accepted"], "count"),
        "steppers.rkck_accept_ratio": (c["rkck_accepted"] / tried if tried else 0.0, "1"),
        "steppers.integrator_self_s": (
            excl("steppers.rk4", "steppers.rkck", "steppers.rkck_substep"), "s"),
        "steppers.noise_draws": (calls("steppers.noise_draw"), "count"),
        "steppers.noise_s": (incl("steppers.noise_draw", "steppers.noise_init"), "s"),
        "steppers.jump_prob_s": (incl("steppers.jump_prob"), "s"),
        "steppers.step_self_s": (excl("steppers.step"), "s"),
        "steppers.jumps": (c["jumps"], "count"),
        "moving_basis.recenter_calls": (calls("moving_basis.recenter"), "count"),
        "moving_basis.recenter_s": (incl("moving_basis.recenter"), "s"),
        "moving_basis.shifts": (c["shifts"], "count"),
        "moving_basis.adjust_cutoff_s": (incl("moving_basis.adjust_cutoff"), "s"),
        "moving_basis.cutoff_changes": (c["cutoff_changes"], "count"),
        "moving_basis.basis_size_mean": (
            c["basis_size_sum"] / drifts if drifts else 0.0, "states"),
        "trajectory.driver_self_s": (excl("trajectory.run"), "s"),
        "trajectory.observe_s": (incl("trajectory.observe"), "s"),
        "trajectory.welford_s": (incl("trajectory.welford"), "s"),
        "trajectory.output_s": (incl("trajectory.output"), "s"),
        "modelfile.parse_s": (incl("modelfile.parse"), "s"),
        "modelfile.build_s": (incl("modelfile.build"), "s"),
        "oracle.integrate_s": (incl("oracle.integrate"), "s"),
        "trace.overhead_frac": (overhead_frac, "1"),
    }
