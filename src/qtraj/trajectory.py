"""Trajectory runs: stepping loop, observables, files and ensemble averages.

A run advances numsteps output intervals of numdts coarse steps each and
records, per output operator, the expectation and variance at every output
time.  Output files carry one row per output time:

    t  Re<O>  Im<O>  Re var  Im var        (single trajectory)
    t  Re<O>  Im<O>  Re var  Im var  SE(Re<O>)  SE(Im<O>)   (ensemble)

with var = <O^2> - <O>^2.  Stdout gets one line of seven numbers per output
time: t, four pipe-selected values, the product of used dimensions, and the
deterministic substeps accepted since the last output.

One engine steps every run: it advances a chunk of B trajectories together
on one (N, B) used block, trajectory b in column b, so its arithmetic scales
with the used dimensions rather than the allocated ones.  A single run is a chunk of one.  An
ensemble is either one chunk of all its trajectories (lockstep, what mode
'auto' picks without a moving basis, because the cutoff upkeep is per
trajectory) or one chunk per trajectory (mode 'serial', or any run with
basis upkeep).  The adaptive integrator keeps a clock and a substep size
per trajectory, so it runs in lockstep too.  Basis upkeep scatters the block into
the state, recenters and adjusts the cutoff, then gathers the block again;
it runs after the t = 0 observation and after every step, so the first
step already runs on the trimmed basis.  Every chunk draws
from per-trajectory noise streams: stream k is PCG64 seeded by numpy's
SeedSequence(entropy=seed, spawn_key=(k,)), and one NoiseSource serves all
of a chunk's streams.  For qsd each output interval's Wiener increments
are drawn into one preallocated (B, numdts, m) block whose row r holds
stream r's, and each step takes its (m, B) increments from it; the jump
flavors hand the source to the stepper, and each trajectory draws from its
own stream when it needs a threshold or a channel.
Ensemble averages keep sums shifted by trajectory 0's sample and fold each
chunk into them with hilbert.fold, one addition per trajectory in index
order; the fold is strictly sequential, so every chunking performs the same
additions and all chunkings give bitwise identical results.  A failing step
names its trajectory index, which is also its noise stream index.

An ensemble is cut into W contiguous parts of its trajectory indices, W the
smaller of the usable CPUs and the number of trajectories, and each part is
chunked as the whole ensemble would be.  Part 0 runs in this process and
the other parts in forked workers, which inherit the model instead of
receiving it pickled (Python time functions may be lambdas).  Every part
returns its chunks' samples, and one loop folds them in index order, so
the worker count changes no bit.  If any part fails, or no worker ran it,
this process runs the whole ensemble itself, so an ensemble fails with the
error a run in one process raises.  A single run never forks.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .hilbert import ATOM, FIELD, StateVector, fold, row_dot, set_used_block, used_block
from .moving_basis import MovingBasisParams, adjust_cutoff, recenter
from .operators import OperatorExpr, compile_operator
from .steppers import (
    IntegratorConfig,
    ModelOperators,
    NoiseSource,
    StepError,
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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
    """Per-trajectory <O> and <O^2>-<O>^2 of an (N, B) used block; (n_ops, B) arrays."""
    n_ops = len(ops)
    b = y.shape[1]
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
    if not abs(psi.norm() - 1.0) <= 1e-8:  # a NaN norm fails too
        raise ValueError("initial state must be normalized")


def _validate_moving(moving, freedoms):
    if moving is None or moving.n_moving == 0:
        return
    if moving.n_moving > len(freedoms):
        raise ValueError("more moving freedoms than freedoms")
    for k in range(moving.n_moving):
        if freedoms[k].ptype is not FIELD:
            raise ValueError("moving freedoms must be the leading field freedoms")


def _maintain_basis(psi, moving):
    for k in range(moving.n_moving):
        recenter(psi, k, moving.shift_accuracy)
    for k, fr in enumerate(psi.freedoms):
        if fr.ptype in (FIELD, ATOM):
            adjust_cutoff(psi, k, moving.cutoff_epsilon, moving.pad_size)


def _run(psi0, model, cfg, outspec, streams):
    """Trajectories `streams` (noise stream indices) stepped together on one block.

    Returns times, (n_ops, numsteps+1, B) expectations and variances, the
    basis size and the substeps summed over rows per output time, and the
    jumps of each trajectory.  Basis upkeep (cfg.moving) needs B = 1: it
    scatters the block into psi, maintains the basis and gathers the block
    again, once after the t = 0 observation and after every step, so every
    step runs on a trimmed basis while row 0 reports the allocated one.
    """
    _check_normalized(psi0)
    _validate_moving(cfg.moving, psi0.freedoms)
    psi = psi0.copy()
    b = len(streams)
    y = np.repeat(used_block(psi.as2d(), psi.freedoms), b, axis=1)
    stepper = make_stepper(model, cfg.unraveling, cfg.dt, cfg.integrator,
                           basis_upkeep=cfg.moving is not None)
    source = NoiseSource(cfg.seed, streams)
    m = model.n_lindblads
    nk = cfg.numsteps
    n_ops = len(outspec.operators)

    exps = np.zeros((n_ops, nk + 1, b), dtype=complex)
    vars_ = np.zeros((n_ops, nk + 1, b), dtype=complex)
    sizes = np.zeros(nk + 1, dtype=np.int64)
    subs = np.zeros(nk + 1, dtype=np.int64)
    jumps = np.zeros(b, dtype=np.int64)

    def observe(k, t):
        exps[:, k], vars_[:, k] = _observe(y, psi.freedoms, outspec.operators, t)
        sizes[k] = psi.basis_size()

    def maintained(y):
        set_used_block(psi.as2d(), psi.freedoms, y)
        _maintain_basis(psi, cfg.moving)
        return used_block(psi.as2d(), psi.freedoms)

    # qsd: one output interval of noise, row r drawn in place from stream
    # streams[r]; step s takes its (m, B) increments as one contiguous copy
    qsd = cfg.unraveling is Unraveling.QSD
    noise = np.empty((b, cfg.numdts, m), dtype=complex) if qsd else None

    t = 0.0  # the time a failure is reported at
    try:
        observe(0, t)
        if cfg.moving is not None:
            y = maintained(y)  # the first step runs on the trimmed basis
        step_index = 0
        for k in range(1, nk + 1):
            if qsd:
                source.wiener(cfg.numdts, m, cfg.dt, out=noise)
            for s in range(cfg.numdts):
                t = step_index * cfg.dt
                y, stats = stepper.step(y, psi.freedoms, t,
                                        noise[:, s].T.copy() if qsd else source)
                step_index += 1
                subs[k] += stats.substeps
                np.add.at(jumps, stats.jump_rows, 1)
                if cfg.moving is not None:
                    y = maintained(y)
            t = step_index * cfg.dt
            observe(k, t)
    except StepError as err:
        raise RuntimeError(f"trajectory {streams[err.row]} failed at t={t:.6g}: {err}") from err

    times = np.array([(i * cfg.numdts) * cfg.dt for i in range(nk + 1)])
    return times, exps, vars_, sizes, subs, jumps


# ---------------------------------------------------------------------------
# Streaming statistics


class _Welford:
    """Streaming mean and standard error of complex samples, in index order.

    Keeps sums shifted by the first sample c: S1 = sum(x - c) and, for the
    real and imaginary parts separately, S2 = sum((x - c)^2), each folded
    over [carry, row 0, row 1, ...] by hilbert.fold.  mean = c + S1/n and
    M2 = max(S2 - S1^2/n, 0); the shift keeps that difference from
    cancelling when the spread is small next to the mean.
    """

    def __init__(self, shape):
        self.n = 0
        self.shift = np.zeros(shape, dtype=complex)
        self.s1 = np.zeros(shape, dtype=complex)
        self.s2_re = np.zeros(shape)
        self.s2_im = np.zeros(shape)

    def update(self, x):
        """Fold the samples x[..., r] for r = 0, 1, ... after those seen so far."""
        x = np.moveaxis(x, -1, 0)
        if self.n == 0:
            self.shift = x[0].copy()
        d = x - self.shift
        self.s1 = _fold(self.s1, d)
        self.s2_re = _fold(self.s2_re, d.real * d.real)
        self.s2_im = _fold(self.s2_im, d.imag * d.imag)
        self.n += len(d)

    @property
    def mean(self):
        return self.shift + self.s1 / self.n

    def se(self):
        if self.n < 2:
            return np.zeros_like(self.s2_re), np.zeros_like(self.s2_im)
        f = self.n * (self.n - 1)
        s1 = self.s1
        m2_re = np.maximum(self.s2_re - s1.real * s1.real / self.n, 0.0)
        m2_im = np.maximum(self.s2_im - s1.imag * s1.imag / self.n, 0.0)
        return np.sqrt(m2_re / f), np.sqrt(m2_im / f)


def _fold(carry, rows):
    """carry + rows[0] + rows[1] + ..., added strictly in that order."""
    stacked = np.concatenate([carry[None], rows])
    return fold(stacked.reshape(len(stacked), -1)).reshape(carry.shape)


# ---------------------------------------------------------------------------
# Parts of an ensemble and the forked workers that run them

_job = None  # set in forked workers only: the (psi0, model, cfg, outspec) they serve


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _split(b, w):
    """range(b) cut into w contiguous parts whose sizes differ by at most one."""
    q, r = divmod(b, w)
    cuts = [i * q + min(i, r) for i in range(w + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _chunks(rows, lockstep):
    return [rows] if lockstep else [[i] for i in rows]


def _run_part(job, rows, lockstep):
    """(chunk, _run's outputs) for trajectories rows, chunked as lockstep says; None on failure."""
    try:
        return [(chunk, _run(*job, chunk)) for chunk in _chunks(rows, lockstep)]
    except Exception:  # the ensemble is run again where the error can be raised
        return None


def _set_job(job):
    global _job
    _job = job


def _worker_part(rows, lockstep):
    return _run_part(_job, rows, lockstep)


def _run_parts(job, parts, lockstep):
    """Every part's _run_part pairs, or None if a part failed or no worker ran it.

    Part 0 runs in this process and the others in forked workers, which
    inherit job: a time function given in Python may be a lambda, which a
    spawned worker could not receive pickled.  The pool forks every worker
    at its first submit, before it starts its own thread.  multiprocessing
    is imported only here: its import costs tens of milliseconds.
    """
    if len(parts) == 1:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    fork = multiprocessing.get_context("fork")
    try:
        pool = ProcessPoolExecutor(len(parts) - 1, mp_context=fork,
                                   initializer=_set_job, initargs=(job,))
    except OSError:
        return None
    with pool:
        try:  # the first submit forks every worker
            futures = [pool.submit(_worker_part, rows, lockstep) for rows in parts[1:]]
        except OSError:
            return None
        results = [_run_part(job, parts[0], lockstep)]
        for future in futures:
            try:
                results.append(future.result())
            except Exception:  # a worker died or its result did not arrive
                return None
    return None if any(pairs is None for pairs in results) else results


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
        lines.append(" ".join([_fmt(times[k])] + [_fmt(x) for x in vals]
                              + [str(int(sizes[k])), str(int(subs[k]))]))
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
    times, exps, vars_, sizes, subs, jumps = _run(psi0, model, cfg, outspec, [0])
    exps, vars_ = exps[:, :, 0], vars_[:, :, 0]
    lines = _stdout_lines(times, exps, vars_, sizes, subs, outspec.pipe)
    _write_files(outspec, times, exps, vars_)
    _emit(lines, stream)
    return SingleResult(times, exps, vars_, sizes, subs, int(jumps[0]), lines)


def run_ensemble(psi0: StateVector, model: ModelOperators, cfg: RunConfig,
                 outspec: OutputSpec, stream=None, mode: str = "auto") -> EnsembleResult:
    """Run n_trajectories independent trajectories and average the observables.

    mode only chooses how the trajectories are chunked through the engine:
    'auto' steps all of them together on one (N, B) block when there is no
    basis upkeep (moving is None), since a cutoff is per trajectory, and
    one per chunk otherwise; 'serial' always runs one per chunk.  Either
    integrator runs on one block.  Noise streams are derived from (seed,
    index), and each chunk's samples are folded into sums shifted by
    trajectory 0's sample with a sequential fold, in trajectory-index
    order.  Any chunking adds the same numbers in the same order, so both
    modes give bitwise identical results.

    The trajectory indices are split into W contiguous parts, W the smaller
    of the usable CPUs and n_trajectories, and each part is chunked as the
    mode says.  With W > 1 forked workers run parts 1..W-1 while this
    process runs part 0; the workers inherit the model instead of receiving
    it pickled, and their samples are folded in index order, so every W
    gives the same bits.  If any part fails, or no worker ran it (W = 1, no
    fork start method, no worker process could start), this process runs
    the whole ensemble itself, chunked the same way, which raises the error
    a run in one process raises: on one block the first check that fails
    within a step over all rows, one per chunk the lowest failing
    trajectory.
    """
    if mode not in ("auto", "serial"):
        raise ValueError("mode must be 'auto' or 'serial'")
    lockstep = mode == "auto" and cfg.moving is None
    b = cfg.n_trajectories
    job = (psi0, model, cfg, outspec)
    parts = _run_parts(job, _split(b, min(_usable_cpus(), b)), lockstep)
    if parts is None:  # the chunks run here, each folded as it ends
        parts = [((chunk, _run(*job, chunk)) for chunk in _chunks(range(b), lockstep))]

    nk = cfg.numsteps
    n_ops = len(outspec.operators)
    wexp = _Welford((n_ops, nk + 1))
    wvar = _Welford((n_ops, nk + 1))
    sizes = np.zeros(nk + 1, dtype=np.int64)
    subs = np.zeros(nk + 1, dtype=np.int64)
    jumps = np.zeros(b, dtype=np.int64)
    for part in parts:
        for chunk, (times, exps, vars_, szs, sb, jm) in part:
            wexp.update(exps)
            wvar.update(vars_)
            np.maximum(sizes, szs, out=sizes)
            subs += sb
            jumps[chunk] = jm

    se = wexp.se()
    lines = _stdout_lines(times, wexp.mean, wvar.mean, sizes, subs, outspec.pipe)
    _write_files(outspec, times, wexp.mean, wvar.mean, se)
    _emit(lines, stream)
    return EnsembleResult(times, wexp.mean, wvar.mean, se[0], se[1], sizes, subs,
                          jumps, b, lines)
