"""Trajectory runs: stepping loop, observables, files and ensemble averages.

A run advances numsteps output intervals of numdts coarse steps each and
records, per output operator, the expectation and variance at every output
time.  Output files carry one row per output time:

    t  Re<O>  Im<O>  Re var  Im var        (single trajectory)
    t  Re<O>  Im<O>  Re var  Im var  SE(Re<O>)  SE(Im<O>)   (ensemble)

with var = <O^2> - <O>^2.  Stdout gets one line of seven numbers per output
time: t, four pipe-selected values, the product of used dimensions, and the
deterministic substeps accepted since the last output.

Ensembles run their trajectories in lockstep on one (B, N) buffer whenever
the configuration allows it (fixed RK4, no moving basis); otherwise
trajectories run one at a time.  Both orders consume per-trajectory noise
streams derived from (seed, trajectory index), so they produce identical
results and may be mixed freely.  A failing step names its trajectory index,
which is also its noise stream index.

Steppers and observables see only the used block of a state; a trajectory
on a truncated basis gathers it before each step and writes the result back
afterwards, so its arithmetic scales with the used dimensions rather than
the allocated ones.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .hilbert import ATOM, FIELD, StateVector, row_dot, set_used_block, used_block
from .moving_basis import MovingBasisParams, adjust_cutoff, recenter
from .operators import OperatorExpr, compile_operator
from .steppers import (
    IntegratorConfig,
    ModelOperators,
    NoiseSource,
    StepError,
    StepStats,
    Unraveling,
    make_stepper,
)

__all__ = [
    "OutputSpec",
    "RunConfig",
    "SingleResult",
    "EnsembleResult",
    "expectation",
    "variance",
    "run_single",
    "run_ensemble",
]


def _fmt(x) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class OutputSpec:
    """Output operators, optional per-operator file paths, stdout pipe."""

    operators: tuple
    file_names: tuple = None
    pipe: tuple = (1, 2, 3, 4)

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        if not self.operators:
            raise ValueError("at least one output operator is required")
        for op in self.operators:
            if not isinstance(op, OperatorExpr):
                raise TypeError("output operators must be operator expressions")
        if self.file_names is not None:
            object.__setattr__(self, "file_names", tuple(self.file_names))
            if len(self.file_names) != len(self.operators):
                raise ValueError("one file name per output operator required")
        pipe = tuple(int(p) for p in self.pipe)
        object.__setattr__(self, "pipe", pipe)
        if len(pipe) != 4:
            raise ValueError("pipe must select exactly 4 columns")
        hi = 4 * len(self.operators)
        for p in pipe:
            if not 1 <= p <= hi:
                raise ValueError(f"pipe index {p} outside 1..{hi}")


@dataclass(frozen=True)
class RunConfig:
    """Stepping, unraveling, integrator and moving-basis configuration."""

    dt: float
    numdts: int
    numsteps: int
    n_trajectories: int = 1
    seed: int = 0
    unraveling: Unraveling = Unraveling.QSD
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    moving: MovingBasisParams = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.numdts < 1:
            raise ValueError("numdts must be at least 1")
        if self.numsteps < 0:
            raise ValueError("numsteps must be non-negative")
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")


@dataclass
class SingleResult:
    times: np.ndarray
    expectations: np.ndarray  # (n_ops, numsteps+1) complex
    variances: np.ndarray
    basis_sizes: np.ndarray
    substeps: np.ndarray
    jumps: int
    stdout_lines: list


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_expectations: np.ndarray  # (n_ops, numsteps+1) complex
    mean_variances: np.ndarray
    se_re: np.ndarray
    se_im: np.ndarray
    basis_sizes: np.ndarray
    substeps: np.ndarray
    jumps_per_trajectory: np.ndarray
    n_trajectories: int
    stdout_lines: list


# ---------------------------------------------------------------------------
# Observables


def _observe(y, freedoms, ops, t):
    """Per-row <O> and <O^2>-<O>^2 of a (B, N) used block; (n_ops, B) arrays."""
    n_ops = len(ops)
    b = y.shape[0]
    exps = np.zeros((n_ops, b), dtype=complex)
    vars_ = np.zeros((n_ops, b), dtype=complex)
    for i, op in enumerate(ops):
        compiled = compile_operator(op, freedoms)
        phi = compiled.apply(y, t)
        e = row_dot(y, phi)
        e2 = row_dot(y, compiled.apply(phi, t))
        exps[i] = e
        vars_[i] = e2 - e * e
    return exps, vars_


def expectation(op: OperatorExpr, psi: StateVector, t: float = 0.0) -> complex:
    """<psi|O|psi> (psi need not be normalized; no implicit division)."""
    y = used_block(psi.as2d(), psi.freedoms)
    return complex(row_dot(y, compile_operator(op, psi.freedoms).apply(y, t))[0])


def variance(op: OperatorExpr, psi: StateVector, t: float = 0.0) -> complex:
    """<O^2> - <O>^2; complex in general for non-Hermitian O."""
    e, v = _observe(used_block(psi.as2d(), psi.freedoms), psi.freedoms, (op,), t)
    return complex(v[0, 0])


# ---------------------------------------------------------------------------
# Core loops


def _check_normalized(psi):
    if abs(psi.norm() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")


def _validate_moving(moving, freedoms):
    if moving is None or moving.n_moving == 0:
        return
    if moving.n_moving > len(freedoms):
        raise ValueError("more moving freedoms than freedoms")
    for k in range(moving.n_moving):
        if freedoms[k].ptype is not FIELD:
            raise ValueError("moving freedoms must be the leading field freedoms")


def _draw_block(noise, unraveling, numdts, m, dt):
    if unraveling is Unraveling.QSD:
        return noise.wiener(numdts, m, dt)
    return noise.uniforms(numdts)


def _maintain_basis(psi, moving):
    for k in range(moving.n_moving):
        recenter(psi, k, moving.shift_accuracy)
    for k, fr in enumerate(psi.freedoms):
        if fr.ptype in (FIELD, ATOM):
            adjust_cutoff(psi, k, moving.cutoff_epsilon, moving.pad_size)


def _run_one(psi0, model, cfg, outspec, stream):
    """Trajectory `stream` (its noise stream index) alone; supports moving bases."""
    noise = NoiseSource(cfg.seed, stream)
    psi = psi0.copy()
    _check_normalized(psi)
    _validate_moving(cfg.moving, psi.freedoms)
    stepper = make_stepper(model, cfg.unraveling, cfg.dt, cfg.integrator)
    m = model.n_lindblads
    nk = cfg.numsteps
    n_ops = len(outspec.operators)

    exps = np.zeros((n_ops, nk + 1), dtype=complex)
    vars_ = np.zeros((n_ops, nk + 1), dtype=complex)
    sizes = np.zeros(nk + 1, dtype=np.int64)
    subs = np.zeros(nk + 1, dtype=np.int64)
    jumps = 0

    def observe(t):
        return _observe(used_block(psi.as2d(), psi.freedoms), psi.freedoms,
                        outspec.operators, t)

    e, v = observe(0.0)
    exps[:, 0] = e[:, 0]
    vars_[:, 0] = v[:, 0]
    sizes[0] = psi.basis_size()

    step_index = 0
    moving = cfg.moving
    maintain = moving is not None
    for k in range(1, nk + 1):
        block = _draw_block(noise, cfg.unraveling, cfg.numdts, m, cfg.dt)
        acc = StepStats()
        for s in range(cfg.numdts):
            t = step_index * cfg.dt
            amps = psi.as2d()
            try:
                y, stats = stepper.step(used_block(amps, psi.freedoms), psi.freedoms, t,
                                        block[s:s + 1])
            except RuntimeError as err:
                raise RuntimeError(f"trajectory {stream} failed at t={t:.6g}: {err}") from err
            set_used_block(amps, psi.freedoms, y)
            step_index += 1
            acc += stats
            if maintain:
                _maintain_basis(psi, moving)
        t = step_index * cfg.dt
        e, v = observe(t)
        exps[:, k] = e[:, 0]
        vars_[:, k] = v[:, 0]
        sizes[k] = psi.basis_size()
        subs[k] = acc.substeps
        jumps += acc.jumps

    times = np.array([(i * cfg.numdts) * cfg.dt for i in range(nk + 1)])
    return times, exps, vars_, sizes, subs, jumps


def _run_lockstep(psi0, model, cfg, outspec):
    """All trajectories advance together on one (B, N) used block."""
    _check_normalized(psi0)
    b = cfg.n_trajectories
    freedoms = [f.copy() for f in psi0.freedoms]
    amps = np.tile(used_block(psi0.as2d(), freedoms), (b, 1))
    stepper = make_stepper(model, cfg.unraveling, cfg.dt, cfg.integrator)
    sources = [NoiseSource(cfg.seed, i) for i in range(b)]
    m = model.n_lindblads
    nk = cfg.numsteps
    n_ops = len(outspec.operators)

    exps = np.zeros((n_ops, nk + 1, b), dtype=complex)
    vars_ = np.zeros((n_ops, nk + 1, b), dtype=complex)
    subs = np.zeros(nk + 1, dtype=np.int64)
    jumps = np.zeros(b, dtype=np.int64)

    e, v = _observe(amps, freedoms, outspec.operators, 0.0)
    exps[:, 0] = e
    vars_[:, 0] = v

    step_index = 0
    for k in range(1, nk + 1):
        blocks = np.stack([_draw_block(src, cfg.unraveling, cfg.numdts, m, cfg.dt)
                           for src in sources])
        acc_sub = 0
        for s in range(cfg.numdts):
            t = step_index * cfg.dt
            try:
                amps, stats = stepper.step(amps, freedoms, t, blocks[:, s])
            except StepError as err:
                raise RuntimeError(f"ensemble failed at t={t:.6g} in trajectory {err.row}: "
                                   f"{err}") from err
            except RuntimeError as err:
                raise RuntimeError(f"ensemble failed at t={t:.6g}: {err}") from err
            if not amps.flags.c_contiguous:
                amps = np.ascontiguousarray(amps)
            step_index += 1
            acc_sub += stats.substeps * b
            if stats.jumps:
                jumps[stepper.last_jump_rows] += 1
        t = step_index * cfg.dt
        e, v = _observe(amps, freedoms, outspec.operators, t)
        exps[:, k] = e
        vars_[:, k] = v
        subs[k] = acc_sub

    times = np.array([(i * cfg.numdts) * cfg.dt for i in range(nk + 1)])
    size = math.prod(f.dim_used for f in freedoms)
    return times, exps, vars_, size, subs, jumps


# ---------------------------------------------------------------------------
# Streaming statistics


class _Welford:
    """One-pass mean and M2 accumulator over complex sample arrays."""

    def __init__(self, shape):
        self.n = 0
        self.mean = np.zeros(shape, dtype=complex)
        self.m2_re = np.zeros(shape)
        self.m2_im = np.zeros(shape)

    def update(self, x):
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        d2 = x - self.mean
        self.m2_re += d.real * d2.real
        self.m2_im += d.imag * d2.imag

    def se(self):
        if self.n < 2:
            return np.zeros_like(self.m2_re), np.zeros_like(self.m2_im)
        f = self.n * (self.n - 1)
        return np.sqrt(self.m2_re / f), np.sqrt(self.m2_im / f)


# ---------------------------------------------------------------------------
# Output assembly


def _pipe_values(exps, vars_, pipe, k):
    vals = []
    for idx in pipe:
        op, col = divmod(idx - 1, 4)
        quad = (exps[op, k].real, exps[op, k].imag, vars_[op, k].real, vars_[op, k].imag)
        vals.append(quad[col])
    return vals


def _stdout_lines(times, exps, vars_, sizes, subs, pipe):
    lines = []
    for k in range(len(times)):
        vals = _pipe_values(exps, vars_, pipe, k)
        size = sizes[k] if np.ndim(sizes) else sizes
        lines.append(" ".join([_fmt(times[k])] + [_fmt(x) for x in vals]
                              + [str(int(size)), str(int(subs[k]))]))
    return lines


def _write_files(outspec, times, exps, vars_, se=None):
    if outspec.file_names is None:
        return
    for i, name in enumerate(outspec.file_names):
        rows = []
        for k in range(len(times)):
            cols = [times[k], exps[i, k].real, exps[i, k].imag,
                    vars_[i, k].real, vars_[i, k].imag]
            if se is not None:
                cols += [se[0][i, k], se[1][i, k]]
            rows.append(" ".join(_fmt(c) for c in cols))
        with open(name, "w") as fh:
            fh.write("\n".join(rows) + "\n")


def _emit(lines, stream):
    if stream is None:
        stream = sys.stdout
    for line in lines:
        print(line, file=stream)


# ---------------------------------------------------------------------------
# Entry points


def run_single(psi0: StateVector, model: ModelOperators, cfg: RunConfig,
               outspec: OutputSpec, stream=None) -> SingleResult:
    """Run one trajectory (noise stream index 0) and write its outputs."""
    times, exps, vars_, sizes, subs, jumps = _run_one(psi0, model, cfg, outspec, 0)
    lines = _stdout_lines(times, exps, vars_, sizes, subs, outspec.pipe)
    _write_files(outspec, times, exps, vars_)
    _emit(lines, stream)
    return SingleResult(times, exps, vars_, sizes, subs, jumps, lines)


def run_ensemble(psi0: StateVector, model: ModelOperators, cfg: RunConfig,
                 outspec: OutputSpec, stream=None, mode: str = "auto") -> EnsembleResult:
    """Run n_trajectories independent trajectories and average the observables.

    mode: 'lockstep' batches all trajectories through one buffer, 'serial'
    runs them one at a time, 'auto' picks lockstep when the configuration
    allows it (fixed RK4, no moving basis).  All modes give identical
    results because noise streams are derived from (seed, index).
    """
    if mode not in ("auto", "lockstep", "serial"):
        raise ValueError("mode must be 'auto', 'lockstep' or 'serial'")
    lockstep_ok = cfg.integrator.kind == "rk4" and (
        cfg.moving is None or cfg.moving.n_moving == 0)
    if mode == "lockstep" and not lockstep_ok:
        raise ValueError("lockstep mode needs fixed rk4 and no moving basis")
    use_lockstep = lockstep_ok if mode == "auto" else (mode == "lockstep")

    b = cfg.n_trajectories
    nk = cfg.numsteps
    n_ops = len(outspec.operators)
    wexp = _Welford((n_ops, nk + 1))
    wvar = _Welford((n_ops, nk + 1))

    if use_lockstep:
        times, exps, vars_, size, subs, jumps = _run_lockstep(psi0, model, cfg, outspec)
        for i in range(b):
            wexp.update(exps[:, :, i])
            wvar.update(vars_[:, :, i])
        sizes = np.full(nk + 1, size, dtype=np.int64)
    else:
        sizes = np.zeros(nk + 1, dtype=np.int64)
        subs = np.zeros(nk + 1, dtype=np.int64)
        jumps = np.zeros(b, dtype=np.int64)
        times = None
        for i in range(b):
            times, exps, vars_, szs, sb, jm = _run_one(psi0, model, cfg, outspec, i)
            wexp.update(exps)
            wvar.update(vars_)
            np.maximum(sizes, szs, out=sizes)
            subs += sb
            jumps[i] = jm

    se = wexp.se()
    lines = _stdout_lines(times, wexp.mean, wvar.mean, sizes, subs, outspec.pipe)
    _write_files(outspec, times, wexp.mean, wvar.mean, se)
    _emit(lines, stream)
    return EnsembleResult(times, wexp.mean, wvar.mean, se[0], se[1], sizes, subs,
                          jumps, b, lines)
