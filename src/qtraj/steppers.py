"""Stochastic propagation of trajectories for the three unravelings.

The deterministic (drift) part of each unraveling is integrated over a
coarse step dt with either fixed classical RK4 or an adaptive embedded
Cash-Karp RK4(5).  Quantum state diffusion adds the Ito increment
sum_j (L_j - <L_j>) y dxi_j of complex Wiener increments to first order,
every L_j read at one state.  The jump flavors follow the waiting-time
algorithm of Dalibard, Castin & Molmer (PRL 68, 580 (1992)): they
integrate their drift without its norm-restoring term, so the squared norm
of the advance is the probability of no jump, and a trajectory jumps where
that survival falls to a threshold drawn from its own stream.  The crossing
is located inside the coarse step and the trajectory continues from there
on its own clock, so a step can hold several jumps.  `jump` advances by the
linear no-jump evolution y' = h_eff y, which needs no L_j inside the
integrator's stages.  Where the drift is linear and autonomous -- plain
jump, or any unraveling of a model without L_j, with no time function in
h_eff -- and no basis upkeep moves the basis, rk4 still means RK4: its
coarse step of y' = h_eff y is the polynomial P4(A) = I + A + A^2/2 + A^3/6
+ A^4/24 of A = dt h_eff, which is built once per bound h_eff from its
bands and applied as one banded operator by the same kernels, as long as
it has no more bands than the four h_eff sweeps of the stages it replaces.

All stepping code operates on (N, B) used blocks -- the amplitudes inside
every freedom's used dimension, flattened, trajectory b in column b -- so a
whole ensemble advances in lockstep through exactly the arithmetic a single
trajectory (B = 1) would perform, and a trajectory on a truncated basis
does no work on the slots it does not use.  Every per-trajectory scalar
(a norm, an expectation, a time or a substep size) broadcasts as a (1, B)
row, and every sum over amplitudes or channels is a `fold`, in index order.
A model compiles the effective generator -iH - 1/2 sum_j L_j+ L_j and, as
one family, the L_j, read only by `_sweep`: one stacked sweep feeds the qsd
and orthojump drifts, the jump rates and the QSD noise, with its guarded
<L_j> where they read it, and `_normalize_rows` ends a step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .hilbert import (
    StateVector,
    StepError,
    fold,
    row_dot,
    row_norm,
    row_norm2,
    set_used_block,
    used_block,
)
from .operators import CenteredForm, OperatorExpr, Sum, _shape_of

__all__ = [
    "Unraveling",
    "ModelOperators",
    "NoiseSource",
    "StepStats",
    "StepError",
    "IntegratorConfig",
    "drift",
    "rk4_step",
    "rkck_adaptive",
    "QsdStepper",
    "JumpStepper",
    "make_stepper",
]

NORM_COLLAPSE = 1e-12
NORM2_MAX = 2.0
P_NEGATIVE = -1e-12


class Unraveling(Enum):
    QSD = "qsd"
    JUMP = "jump"
    ORTHO_JUMP = "orthojump"


# Basis shapes whose compiled forms a model keeps
FORMS_KEPT = 16


class ModelOperators:
    """Hamiltonian (may be None) and Lindblad operators.

    h_eff is the generator of the non-Hermitian evolution,
    -iH - 1/2 sum_j L_j+ L_j (None for a model with neither H nor L_j).
    """

    def __init__(self, hamiltonian, lindblads=()):
        if hamiltonian is not None and not isinstance(hamiltonian, OperatorExpr):
            raise TypeError("hamiltonian must be an operator expression or None")
        self.hamiltonian = hamiltonian
        self.lindblads = tuple(lindblads)
        for l in self.lindblads:
            if not isinstance(l, OperatorExpr):
                raise TypeError("lindblads must be operator expressions")
        terms = [-0.5 * (l.hc() * l) for l in self.lindblads]
        if hamiltonian is not None:
            terms.insert(0, -1j * hamiltonian)
        self.h_eff = Sum(tuple(terms)) if terms else None
        # basis shape -> [h_eff form, L_j family form] (None if absent), oldest first
        self._shapes = {}
        self._compiled = (None, (None, None))  # (basis, its bound operators)

    def compiled(self, freedoms):
        """(h_eff or None, stacked L_j or None) compiled for the basis of freedoms.

        The L_j compile as one family (CenteredForm of a tuple): its stacked
        operator returns every L_j y in one (m, N, B) sweep, L_j y in
        channel j.  The two forms of each of the last FORMS_KEPT basis
        shapes are kept, so a basis that only moved its centers is not
        compiled again, and both are bound whenever the basis changes.
        """
        basis = [(f.ptype, f.dim_used, f.center) for f in freedoms]  # all an operator reads
        if basis != self._compiled[0]:
            shape = _shape_of(freedoms)
            forms = self._shapes.get(shape)
            if forms is None:
                if len(self._shapes) >= FORMS_KEPT:
                    del self._shapes[next(iter(self._shapes))]
                forms = self._shapes[shape] = [
                    None if trees is None else CenteredForm(trees, shape)
                    for trees in (self.h_eff, self.lindblads or None)]
            centers = [f.center for f in freedoms]
            self._compiled = (basis, tuple(None if form is None else form.bind(centers)
                                           for form in forms))
        return self._compiled[1]

    @property
    def n_lindblads(self) -> int:
        return len(self.lindblads)


# numpy's SeedSequence hash (O'Neill's seed_seq_fe with a 4-word pool)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hasher(init: int, mult: int):
    """numpy's hashmix over uint32 arrays; its constant advances on every call."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const  # uint32 arrays wrap modulo 2^32
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _stream_states(seed: int, streams) -> np.ndarray:
    """(len(streams), 4) uint64 PCG64 seed words, row r for stream streams[r].

    Row r equals SeedSequence(entropy=seed, spawn_key=(streams[r],))
    .generate_state(4, np.uint64).  The seed is the same in every row, so
    numpy mixes it once (SeedSequence(seed).pool), having advanced the hash
    constant 4 times per seed word, counting at least 4 words.  Mixing in
    the stream index's words and the output hash then run in uint32
    arithmetic over all streams at once.  The constant advances the same
    way in every row, so an index with fewer words than another simply
    stops mixing once its words run out.
    """
    top = max(streams)
    if seed < 0 or min(streams) < 0:
        raise ValueError("seed and stream indices must be non-negative")
    from numpy.random import SeedSequence

    # indices below 2^32, all an ensemble uses, stay in the hash's own uint32
    k = np.asarray(streams, dtype=object if top >> 32 else np.uint32)
    b = len(k)
    pool = np.repeat(SeedSequence(seed).pool[:, None], b, axis=1)
    seed_words = max((int(seed).bit_length() + 31) // 32, _POOL_SIZE)
    hashmix = _hasher(_INIT_A * pow(_MULT_A, 4 * seed_words, 1 << 32) & _MASK32, _MULT_A)
    for i in range(max(1, (int(top).bit_length() + 31) // 32)):
        part = k >> (32 * i)
        word = (part & _MASK32).astype(np.uint32)
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], hashmix(word))
            pool[dst] = np.where(part != 0, mixed, pool[dst]) if i else mixed

    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.empty((b, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        state[:, i] = hashmix(pool[i % _POOL_SIZE])
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _stream_seed_type():
    """An ISeedSequence that hands PCG64 one row of _stream_states.

    Made on first use, so importing qtraj does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StreamSeed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if np.dtype(dtype) != np.uint64 or n_words > _POOL_SIZE:
                raise ValueError("a stream seed holds at most 4 uint64 words")
            return self.words[:n_words]

    return StreamSeed


class NoiseSource:
    """Reproducible per-trajectory random stream.

    Stream k of seed s is numpy's PCG64 seeded by
    SeedSequence(entropy=s, spawn_key=(k,)), so trajectories can be generated
    in any order, or in lockstep, with identical results.  The seed words
    come from _stream_states: numpy mixes the seed once, and the stream
    indices of many streams are mixed in one vectorized pass, so
    `for_streams` derives a whole chunk's at once.  Every source, alone or
    in a chunk, is built by __init__.
    """

    def __init__(self, seed: int, stream: int = 0, words: np.ndarray = None):
        """words: this stream's (4,) uint64 seed words, derived here when None."""
        if words is None:
            words = _stream_states(seed, [stream])[0]
        self._rng = np.random.Generator(np.random.PCG64(_stream_seed_type()(words)))

    @classmethod
    def for_streams(cls, seed: int, streams) -> list:
        """One source per stream index, their seed words derived in one pass."""
        return [cls(seed, k, words) for k, words in zip(streams, _stream_states(seed, streams))]

    def wiener(self, nsteps: int, m: int, dt: float, out: np.ndarray = None) -> np.ndarray:
        """(nsteps, m) complex increments with M dxi = 0, M dxi_i* dxi_j = delta_ij dt.

        Real and imaginary parts are consecutive standard normals scaled by
        sqrt(dt/2).  out, if given, is a C-contiguous complex (nsteps, m)
        array filled in place through its float64 view.
        """
        if out is None:
            out = np.empty((nsteps, m), dtype=np.complex128)
        g = out.view(np.float64)
        self._rng.standard_normal(out=g)
        g *= np.sqrt(0.5 * dt)
        return out

    def uniforms(self, nsteps: int) -> np.ndarray:
        """nsteps uniforms on [0, 1)."""
        return self._rng.random(nsteps)


@dataclass
class StepStats:
    """What one coarse step did: accepted substeps and the trajectories that jumped.

    substeps sums over trajectories the accepted substeps of the coarse
    advance (one each for rk4), not those of the advances of trajectories
    that jump inside the step; jump_rows lists a trajectory's index once
    per jump.
    """

    substeps: int = 0
    jump_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))

    @property
    def jumps(self) -> int:
        return len(self.jump_rows)


# ---------------------------------------------------------------------------
# Drift


def _sweep(y, lstack, t, n2=None, expectations=True):
    """(m, N, B) L_j y, (m, B) <L_j> and (1, B) squared norms of the block y at t.

    n2: the trajectories' squared norms, when known.  A zero norm reads as
    1.  <L_j> is None unless expectations.
    """
    n2 = row_norm2(y) if n2 is None else n2
    n2 = np.where(n2 > 0.0, n2, 1.0)[None, :]
    ly = lstack.apply(y, t)  # L_j y in channel j of the stack
    return ly, (row_dot(y, ly) / n2 if expectations else None), n2


def _channel_sum(x):
    """Sum of an (m, N, B) stack over its channels, in channel order: an (N, B) block."""
    return fold(x.reshape(len(x), -1)).reshape(x.shape[1:])


def _drift2d(y, freedoms, model, unraveling, t):
    """What the integrators step for the unraveling, on an (N, B) used block.

    For qsd this is the full drift.  The jump flavors leave out the
    norm-restoring term 1/2 sum_j r_j y, r_j the rate of channel j: it only
    rescales the solution by a real factor, and the jump stepper
    renormalizes, so the normalized state changes only by the integrator's
    truncation.  The jump drift is then h_eff y, the linear no-jump
    evolution, and the orthojump drift is the qsd drift, which has the same
    terms in <L_j>.  Both shrink the squared norm at rate sum_j r_j, so it
    is the no-jump probability, to the integrator's order.

    Expectations are evaluated once per call on the input and divided by the
    squared norm, so unnormalized intermediate states (as produced inside
    RK stages) still see the correct nonlinear coefficients.
    """
    h_eff, lstack = model.compiled(freedoms)
    out = np.zeros_like(y) if h_eff is None else h_eff.apply(y, t)
    if lstack is None or unraveling is Unraveling.JUMP:
        return out
    ly, lexp, _ = _sweep(y, lstack, t)
    # coef: per-trajectory, per-channel multiple of y, summed over channels at the end
    coef = -0.5 * np.abs(lexp) ** 2
    # conj(<L>) stays the first factor: a complex product's bits can depend on the order
    out += _channel_sum(np.multiply(np.conj(lexp)[:, None, :], ly, out=ly))
    out += fold(coef)[None, :] * y
    return out


def drift(psi: StateVector, model: ModelOperators, unraveling: Unraveling,
          t: float = 0.0) -> StateVector:
    """Deterministic part of d|psi>/dt for the given unraveling.

    This is the full drift of the unraveling's normalized stochastic
    equation: for the jump flavors it adds back the term 1/2 sum_j r_j psi,
    r_j the rate of channel j, that their steppers leave out.
    """
    y = used_block(psi.as2d(), psi.freedoms)
    d = _drift2d(y, psi.freedoms, model, unraveling, t)
    _, lstack = model.compiled(psi.freedoms)
    if unraveling is not Unraveling.QSD and lstack is not None:
        rates, _, _ = _rates(y, lstack, t, unraveling is Unraveling.ORTHO_JUMP)
        d += fold(0.5 * rates)[None, :] * y
    out = StateVector(psi.freedoms, np.zeros_like(psi.amps))
    set_used_block(out.as2d(), out.freedoms, d)
    return out


# ---------------------------------------------------------------------------
# Deterministic integrators.  `f(y, t)` maps an (N, B) buffer to its
# derivative; both integrators return fresh buffers.


def rk4_step(f, y, t, dt):
    """One classical fixed RK4 step; t and dt are scalars or (B,) per-trajectory arrays."""
    h = dt[None, :] if isinstance(dt, np.ndarray) else dt
    half = 0.5 * h
    k1 = f(y, t)
    k2 = f(y + half * k1, t + 0.5 * dt)
    k3 = f(y + half * k2, t + 0.5 * dt)
    k4 = f(y + h * k3, t + dt)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


# Cash-Karp embedded RK4(5) tableau
_CK_A = np.array([0.0, 0.2, 0.3, 0.6, 1.0, 0.875])[:, None]
_CK_B = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (0.3, -0.9, 1.2),
    (-11.0 / 54.0, 2.5, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_C5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_C4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0,
          277.0 / 14336.0, 0.25)
_CK_DC = tuple(c5 - c4 for c5, c4 in zip(_CK_C5, _CK_C4))

_SAFETY = 0.9
_GROW_MAX = 5.0
_SHRINK_MIN = 0.1
_UNDERFLOW = 1e-12


def _rkck_substep(f, y, t, h):
    """Every trajectory's Cash-Karp substep from its time t[b] by h[b]: (5th-order result, error)."""
    hc = h[None, :]
    ts = t + _CK_A * h  # (stages, B): each stage's time of every trajectory
    ks = [f(y, t)]
    for i in range(1, 6):
        acc = _CK_B[i][0] * ks[0]
        for b, k in zip(_CK_B[i][1:], ks[1:]):
            acc = acc + b * k
        ks.append(f(y + hc * acc, ts[i]))
    y5 = y + hc * (_CK_C5[0] * ks[0] + _CK_C5[2] * ks[2] + _CK_C5[3] * ks[3]
                   + _CK_C5[5] * ks[5])
    err = hc * (_CK_DC[0] * ks[0] + _CK_DC[2] * ks[2] + _CK_DC[3] * ks[3]
                + _CK_DC[4] * ks[4] + _CK_DC[5] * ks[5])
    return y5, err


def rkck_adaptive(f, y, t, dt, eps, h_start=None):
    """Advance each column of y from t to exactly t+dt by accepted Cash-Karp 4(5) substeps.

    y is an (N, B) block, or one (N,) state.  t, dt and h_start (the first
    substep size a trajectory tries; dt where it is None or 0) are scalars
    or (B,) arrays, one clock per trajectory.  Each trajectory accepts or
    rejects its own substeps: every amplitude of its error estimate must
    satisfy |err| <= eps * (|y| + 1e-10), so its error ratio is the max over
    its column.  f(v, s) is called on the columns still stepping, s their
    (b,) times (for a 1-D y, on 1-D states at scalar times).  A trajectory
    with dt = 0 comes back unchanged, its substep size untouched.  Returns
    (y_new, accepted substeps summed over trajectories, each one's
    suggested next substep size); the size is a float for a 1-D y.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if y.ndim == 1:
        y, nacc, h = rkck_adaptive(lambda v, s: f(v[:, 0], s[0])[:, None], y[:, None], t, dt,
                                   eps, h_start)
        return y[:, 0], nacc, float(h[0])
    b = y.shape[1]
    t, dt = np.full(b, t, dtype=float), np.full(b, dt, dtype=float)
    if not (dt >= 0.0).all():
        raise ValueError("dt must be non-negative")
    h = dt if h_start is None else np.abs(np.full(b, h_start, dtype=float))
    h = np.where(h > 0.0, h, dt)
    out, h_out = np.empty_like(y), np.empty(b)  # each column's, written when it finishes
    cols = np.arange(b)  # the columns still stepping; the arrays below hold only them
    done = np.zeros(b)
    nacc = 0
    while True:
        left = dt - done
        finished = left <= dt * 1e-15
        if np.count_nonzero(finished):
            out[:, cols[finished]], h_out[cols[finished]] = y[:, finished], h[finished]
            going = ~finished
            cols = cols[going]
            if not cols.size:
                return out, nacc, h_out
            y, t, dt, h, done, left = (a[..., going] for a in (y, t, dt, h, done, left))
        step = np.minimum(h, left)
        small = step < dt * _UNDERFLOW
        if np.count_nonzero(small):
            raise StepError("adaptive step underflow; the problem looks stiff",
                            int(cols[_first_row(small)]))
        try:
            y5, err = _rkck_substep(f, y, t + done, step)
        except StepError as e:  # f numbers the columns still stepping
            raise StepError(str(e), int(cols[e.row])) from None
        ratio = (np.abs(err) / (np.abs(y) + 1e-10)).max(axis=0) / eps
        ok = ratio <= 1.0
        # a ratio of 0 grows by _GROW_MAX; one that overflowed (inf or NaN) shrinks by _SHRINK_MIN
        with np.errstate(divide="ignore"):
            scale = _SAFETY * ratio ** np.where(ok, -0.2, -0.25)
        h = step * np.fmin(np.fmax(scale, _SHRINK_MIN), _GROW_MAX)
        y = np.where(ok[None, :], y5, y)
        done = done + np.where(ok, step, 0.0)
        nacc += int(np.count_nonzero(ok))


INTEGRATOR_KINDS = ("rk4", "adaptive")


@dataclass(frozen=True)
class IntegratorConfig:
    """Deterministic-part integrator: fixed 'rk4' or 'adaptive' Cash-Karp."""

    kind: str = "rk4"
    eps: float = 1e-6

    def __post_init__(self):
        if self.kind not in INTEGRATOR_KINDS:
            raise ValueError("integrator kind must be 'rk4' or 'adaptive'")
        if self.eps <= 0:
            raise ValueError("integrator eps must be positive")


# ---------------------------------------------------------------------------
# Steppers


def _first_row(mask) -> int:
    return int(np.flatnonzero(mask)[0])


def _normalize_rows(y, n2=None, message="state norm collapsed during a step"):
    """Divide each column of y by its norm, in place, and return y; a collapsed one fails.

    n2: the columns' squared norms, when known.
    """
    n = row_norm(y) if n2 is None else np.sqrt(n2)
    collapsed = n < NORM_COLLAPSE
    if collapsed.any():
        raise StepError(message, _first_row(collapsed))
    y /= n[None, :]
    return y


def _check_stable(n2, dt):
    """Fail the trajectories whose squared norm the deterministic advance blew up.

    The exact deterministic flow never increases the norm -- for qsd and
    orthojump d|y|^2/dt = -(<L+L> - |<L>|^2) |y|^2, for jump
    -<L+L> |y|^2, both <= 0 -- and every advance starts normalized, so a
    squared norm past NORM2_MAX can only come from an integrator outside
    its stability region, which the renormalization that ends the step
    would otherwise hide.
    """
    grown = ~(n2 <= NORM2_MAX)  # a NaN norm fails too
    if grown.any():
        raise StepError(f"squared norm grew to {float(n2.max()):.3g} in one deterministic "
                        f"advance; the integrator is unstable at dt={dt:.3g}, reduce dt",
                        _first_row(grown))


class _StepperBase:
    """Owns the integrator workspace; noise is handed in per step.

    basis_upkeep: the caller changes the basis between steps (a moving
    basis), so no per-basis propagator is built for the coarse advance.
    """

    def __init__(self, model: ModelOperators, unraveling: Unraveling, dt: float,
                 integrator: IntegratorConfig = IntegratorConfig(), basis_upkeep: bool = False):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.model = model
        self.unraveling = unraveling
        self.dt = dt
        self.integrator = integrator
        self.basis_upkeep = basis_upkeep
        self._h = None  # (B,) adaptive substep sizes carried between advances; 0: none yet
        self._p4 = (None, None)  # (bound h_eff, its coarse-step propagator or None)

    def _drift(self, freedoms):
        return lambda v, s: _drift2d(v, freedoms, self.model, self.unraveling, s)

    def _propagator(self, freedoms):
        """The RK4 propagator P4(dt h_eff) of the coarse step, or None where the stages run.

        An rk4 step of a linear, autonomous drift y' = h_eff y is the matrix
        P4(A) = I + A + A^2/2 + A^3/6 + A^4/24, A = dt h_eff.  The drift is
        linear for plain jump and for a model without L_j; h_eff must have
        no time group, and the basis no upkeep.  P4 is kept only when it has
        no more bands than the four h_eff sweeps of the stages it replaces,
        and is built once per bound h_eff.
        """
        if self.integrator.kind != "rk4" or self.basis_upkeep:
            return None
        h_eff, lstack = self.model.compiled(freedoms)
        if self._p4[0] is not h_eff:
            p4 = None
            if (h_eff is not None and (lstack is None or self.unraveling is Unraveling.JUMP)
                    and not h_eff.timed):
                p4 = h_eff.taylor(self.dt, 4)
                if p4.n_bands > 4 * h_eff.n_bands:
                    p4 = None
            self._p4 = (h_eff, p4)
        return self._p4[1]

    def _advance_det(self, y, freedoms, t, h=None, cols=slice(None)):
        """(y advanced from t by h, accepted substeps summed over its columns); h defaults to dt.

        t and h may be (B,) arrays, one clock per trajectory.  y holds
        columns `cols` of the block, whose adaptive substep sizes the
        advance reads and updates.  The coarse advance (h None) applies
        the RK4 propagator where there is one.
        """
        if h is None:
            p4 = self._propagator(freedoms)
            if p4 is not None:
                return p4.apply(y), y.shape[1]
            h = self.dt
        if self.integrator.kind == "rk4":
            return rk4_step(self._drift(freedoms), y, t, h), y.shape[1]
        if self._h is None:
            self._h = np.zeros(y.shape[1])
        y, nacc, self._h[cols] = rkck_adaptive(self._drift(freedoms), y, t, h,
                                               self.integrator.eps, self._h[cols])
        return y, nacc


class QsdStepper(_StepperBase):
    """Quantum state diffusion: drift advance plus the Ito noise increment, renormalized.

    Every L_j y and <L_j> is read at the advanced state from one stacked
    sweep, so a step does not depend on the order of the L_j.
    """

    def __init__(self, model, dt, integrator=IntegratorConfig(), basis_upkeep=False):
        super().__init__(model, Unraveling.QSD, dt, integrator, basis_upkeep)

    def step(self, y, freedoms, t, dxi):
        """dxi: (m, B) complex Wiener increments for this coarse step."""
        y, nsub = self._advance_det(y, freedoms, t)
        n2 = row_norm2(y)
        _check_stable(n2, self.dt)
        _, lstack = self.model.compiled(freedoms)
        if lstack is not None:
            ly, lexp, _ = _sweep(y, lstack, t + self.dt, n2)
            ly -= lexp[:, None, :] * y[None]
            ly *= dxi[:, None, :]
            y = y + _channel_sum(ly)
        _normalize_rows(y)
        return y, StepStats(substeps=nsub)


class JumpStepper(_StepperBase):
    """Jump unravelings, plain or orthogonal, by the waiting-time algorithm.

    Each trajectory keeps the level its squared norm must reach for its
    next jump: its threshold, a uniform from its own stream, divided by the
    squared norms its steps since its last jump were renormalized by, so
    that the level is reached when the survival since that jump falls to
    the threshold.  A step is one waiting-time loop.  The coarse advance is
    every trajectory's first segment; one whose segment ends at or below
    its level is advanced again to its crossing, jumps there and is
    advanced to the end of the step on its own clock, round after round
    while it reaches its new level, its column taken out of the block.
    When the loop ends every column is divided by its norm, and its level
    is carried as level / n2, n2 the squared norm of its last segment.  A
    trajectory draws its first threshold at its first step and, at every
    jump, a uniform that picks the channel and then its next threshold.
    """

    def __init__(self, model, dt, unraveling=Unraveling.JUMP, integrator=IntegratorConfig(),
                 basis_upkeep=False):
        if unraveling not in (Unraveling.JUMP, Unraveling.ORTHO_JUMP):
            raise ValueError("JumpStepper needs the jump or orthojump unraveling")
        super().__init__(model, unraveling, dt, integrator, basis_upkeep)
        self._orthogonal = unraveling is Unraveling.ORTHO_JUMP
        self._level = None  # (B,) per-trajectory level, drawn at the first step

    def _jump_probabilities(self, y, freedoms, t):
        """(m, B) jump rates, (m, N, B) L_j y and, for orthojump, (m, B) <L_j>."""
        _, lstack = self.model.compiled(freedoms)
        rates, ly, lexp = _rates(y, lstack, t, self._orthogonal)
        negative = (rates < P_NEGATIVE).any(axis=0)
        if negative.any():
            raise StepError("negative jump rate; expectation evaluation is broken",
                            _first_row(negative))
        return np.maximum(rates, 0.0), ly, lexp

    def _jump(self, y, freedoms, t, u):
        """Every column of y after a jump, normalized; u: (B,) uniforms picking the channel.

        Channel j fires where u times the trajectory's total rate falls in
        [cum_{j-1}, cum_j) of its cumulative rates.
        """
        rates, ly, lexp = self._jump_probabilities(y, freedoms, t)
        cum = np.cumsum(rates, axis=0)
        channel = np.minimum((cum <= u[None, :] * cum[-1:]).sum(axis=0), cum.shape[0] - 1)
        jumped = np.take_along_axis(ly, channel[None, None, :], axis=0)[0]
        if self._orthogonal:
            jumped -= np.take_along_axis(lexp, channel[None, :], axis=0) * y
        return _normalize_rows(jumped, message="jump produced a zero-norm state")

    def step(self, y, freedoms, t, sources):
        """Advance every column by dt, jumping wherever it reaches its level.

        sources: each trajectory's NoiseSource, drawn from only when it
        needs a threshold or a channel.  Each round of the loop writes its
        columns' end states, squared norms and levels over the step's own.
        """
        out, nsub = self._advance_det(y, freedoms, t)
        n2 = row_norm2(out)
        level = self._level
        cols = np.zeros(0, dtype=np.intp)  # the columns whose segment reached their level
        if self.model.compiled(freedoms)[1] is not None:  # a model without channels never jumps
            if level is None:
                level = np.array([src.uniforms(1)[0] for src in sources])
            cols = np.flatnonzero(n2 <= level)
        jumped = [cols]  # each round's columns
        if cols.size:  # the step where no trajectory jumps builds none of this
            f = self._drift(freedoms)
            y0, y1, lv = y[:, cols], out[:, cols], level[cols]
            t0, h = np.full(cols.size, float(t)), np.full(cols.size, self.dt)
            while cols.size:
                try:
                    tau = _crossing(y0, f(y0, t0), y1, f(y1, t0 + h), h, lv)
                    y_tau, _ = self._advance_det(y0, freedoms, t0, tau, cols)
                    t0, h = t0 + tau, h - tau
                    u = np.array([sources[c].uniforms(2) for c in cols])
                    y0 = self._jump(y_tau, freedoms, t0, u[:, 0])
                    y1, _ = self._advance_det(y0, freedoms, t0, h, cols)
                except StepError as err:
                    raise StepError(str(err), int(cols[err.row])) from None
                lv = u[:, 1]
                n1 = row_norm2(y1)
                out[:, cols], n2[cols], level[cols] = y1, n1, lv
                again = n1 <= lv
                y0, y1 = y0[:, again], y1[:, again]
                cols, t0, h, lv = (a[again] for a in (cols, t0, h, lv))
                jumped.append(cols)
        _check_stable(n2, self.dt)
        _normalize_rows(out, n2)
        if level is not None:
            self._level = level / n2
        return out, StepStats(nsub, np.concatenate(jumped))


def _rates(y, lstack, t, orthogonal):
    """(m, B) jump rates, (m, N, B) L_j y and, for orthojump, (m, B) <L_j> of the block y at t.

    The rate of channel j is <L_j+ L_j>, and <L_j+ L_j> - |<L_j>|^2 for
    orthojump; plain jump reads no <L_j> (None).
    """
    ly, lexp, n2 = _sweep(y, lstack, t, expectations=orthogonal)
    rates = row_norm2(ly) / n2
    return (rates - np.abs(lexp) ** 2 if orthogonal else rates), ly, lexp


# _crossing freezes a column once its squared norm is within this fraction of
# its level (a few rounding errors), or after CROSSING_STEPS Newton steps
CROSSING_TOL = 1e-15
CROSSING_STEPS = 60


def _crossing(y0, f0, y1, f1, h, level):
    """Per-trajectory time s in [0, h] at which the squared norm falls to level.

    Between y0 (at s = 0, squared norm above level) and y1 (at s = h, at or
    below it) the state is taken as the cubic Hermite interpolant through
    both ends and their drifts f0 and f1, accurate to fourth order in h.
    The fraction s/h starts where the chord of the squared norms crosses the
    level and takes Newton steps on the interpolant's squared norm; a step
    that would leave the bracket kept around the crossing bisects it
    instead.  A column's x is frozen once its squared norm is within
    CROSSING_TOL times its level; the others step on, at most CROSSING_STEPS
    times, so a column's result does not depend on the other columns.
    """
    hf0, hf1 = h[None, :] * f0, h[None, :] * f1
    d = y1 - y0
    c2 = 3.0 * d - 2.0 * hf0 - hf1  # y(x) = y0 + x hf0 + x^2 c2 + x^3 c3, x = s/h
    c3 = hf0 + hf1 - 2.0 * d
    n0, n1 = row_norm2(y0), row_norm2(y1)
    x = np.clip((n0 - level) / np.maximum(n0 - n1, np.finfo(float).tiny), 0.0, 1.0)
    lo, hi = np.zeros_like(x), np.ones_like(x)
    going = np.ones(len(x), dtype=bool)  # the columns still searching; the others keep their x
    for _ in range(CROSSING_STEPS):
        xs = x[None, :]
        y = y0 + xs * (hf0 + xs * (c2 + xs * c3))
        g = row_norm2(y) - level
        going &= ~(np.abs(g) <= CROSSING_TOL * level)  # a NaN column keeps searching
        if not going.any():
            break
        dy = hf0 + xs * (2.0 * c2 + 3.0 * xs * c3)
        above = g > 0.0
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - g / (2.0 * row_dot(y, dy).real)
        x = np.where(going, np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi)), x)
    return x * h


def make_stepper(model: ModelOperators, unraveling: Unraveling, dt: float,
                 integrator: IntegratorConfig = IntegratorConfig(), basis_upkeep: bool = False):
    if unraveling is Unraveling.QSD:
        return QsdStepper(model, dt, integrator, basis_upkeep)
    return JumpStepper(model, dt, unraveling, integrator, basis_upkeep)
