"""Displaced number-state bases that follow the wavepacket.

A field freedom's amplitudes are coefficients in the basis D(alpha)|n>,
where alpha is the freedom's center.  Keeping the center at the local
expectation of the annihilation operator keeps the coefficient vector
compact, so the used dimension can be cut down aggressively:

  * move_coords shifts the center and re-expresses the amplitudes so the
    physical state is unchanged (including its global phase),
  * recenter moves the center onto <a_local>, read along the freedom's
    axis with the same ladder as the displacement series,
  * adjust_cutoff grows or shrinks the used dimension so the top pad_size
    slots hold at most a fraction epsilon of the probability.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import ATOM, FIELD, StateVector, row_dot, row_norm2, used_block, used_view
from .operators import _sqrt_ladder

__all__ = [
    "MovingBasisParams",
    "displace_slice",
    "move_coords",
    "recenter",
    "adjust_cutoff",
]

_SUBSTEP = 0.5  # displacement magnitude handled per Taylor series
_MAX_TERMS = 200


def _ax(nd: int, axis: int, sl) -> tuple:
    ix = [slice(None)] * nd
    ix[axis] = sl
    return tuple(ix)


def _bshape(vec: np.ndarray, nd: int, axis: int) -> np.ndarray:
    shape = [1] * nd
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


def _ladder(view: np.ndarray, axis: int):
    """(r, lo, hi): sqrt(m+1) broadcast along axis, and the index tuples of
    levels 0..n-2 and 1..n-1, so that (a v)[lo] = r * v[hi]."""
    n = view.shape[axis]
    return (_bshape(_sqrt_ladder(n)[1:], view.ndim, axis),
            _ax(view.ndim, axis, slice(0, n - 1)), _ax(view.ndim, axis, slice(1, n)))


@dataclass(frozen=True)
class MovingBasisParams:
    """Knobs for per-step basis maintenance during a trajectory run."""

    n_moving: int
    cutoff_epsilon: float = 0.01
    pad_size: int = 2
    shift_accuracy: float = 1e-6

    def __post_init__(self):
        if self.n_moving < 0:
            raise ValueError("n_moving must be non-negative")
        if not 0.0 < self.cutoff_epsilon < 0.5:
            raise ValueError("cutoff_epsilon must lie in (0, 0.5)")
        if self.pad_size < 1:
            raise ValueError("pad_size must be at least 1")
        if self.shift_accuracy <= 0.0:
            raise ValueError("shift_accuracy must be positive")


def _apply_displacement(view: np.ndarray, axis: int, delta: complex, accuracy: float):
    """Multiply the coefficients along `axis` by D(delta) = exp(delta a+ - delta* a).

    The anti-Hermitian generator keeps the truncated map exactly unitary; the
    exponential is summed as a Taylor series, with delta split into
    ceil(|delta| / 0.5) equal parts so the series converges quickly.  Each
    series stops once the appended term's norm drops below its share of
    `accuracy`.
    """
    if delta == 0:
        return
    r, lo, hi = _ladder(view, axis)
    nsub = max(1, math.ceil(abs(delta) / _SUBSTEP))
    d = delta / nsub
    dc = np.conj(d)
    scale = np.sqrt((view.real ** 2 + view.imag ** 2).sum())
    tol = accuracy / nsub * max(scale, 1e-300)
    for _ in range(nsub):
        acc = view.copy()
        term = view.copy()
        for k in range(1, _MAX_TERMS + 1):
            nxt = np.zeros_like(term)
            nxt[hi] += (d / k) * r * term[lo]
            nxt[lo] -= (dc / k) * r * term[hi]
            term = nxt
            acc += term
            tn = np.sqrt((term.real ** 2 + term.imag ** 2).sum())
            if tn < tol:
                break
        else:
            raise RuntimeError("displacement series did not converge")
        np.copyto(view, acc)


def displace_slice(coeffs: np.ndarray, delta: complex, accuracy: float) -> np.ndarray:
    """Re-express a single-freedom coefficient vector in a basis shifted by delta.

    Applies D(-delta) in place; the vacuum slice turns into the coherent
    state |-delta> up to truncation.
    """
    if accuracy <= 0:
        raise ValueError("accuracy must be positive")
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1 or coeffs.shape[0] < 1:
        raise ValueError("expected a non-empty 1-d coefficient slice")
    _apply_displacement(coeffs, 0, -complex(delta), accuracy)
    return coeffs


def move_coords(state: StateVector, displacement: complex, freedom: int,
                shift_accuracy: float = 1e-6):
    """Shift a field freedom's basis center; the physical state is unchanged.

    The re-expression is exp(i Im(d* alpha)) D(-d) applied to the local
    coefficients, which keeps the exact unitary phase.
    """
    fr = state.freedoms[freedom]
    if fr.ptype is not FIELD:
        raise TypeError("only field freedoms have movable basis centers")
    d = complex(displacement)
    if d == 0:
        return
    phase = cmath.exp((np.conj(d) * fr.center - d * np.conj(fr.center)) / 2.0)
    view = used_view(state.as2d(), state.freedoms)
    view *= phase
    _apply_displacement(view, freedom, -d, shift_accuracy)
    fr.center = fr.center + d


def recenter(state: StateVector, freedom: int, shift_accuracy: float = 1e-6) -> complex:
    """Move the basis center onto the local <a>; returns the shift applied.

    Shifts smaller than shift_accuracy are skipped.
    """
    fr = state.freedoms[freedom]
    if fr.ptype is not FIELD:
        raise TypeError("only field freedoms can be recentered")
    y = used_block(state.as2d(), state.freedoms)
    n2 = float(row_norm2(y)[0])
    if n2 == 0.0:
        return 0j
    view = y.reshape(state.used_dims() + (1,))
    r, lo, hi = _ladder(view, freedom)
    ay = np.zeros_like(view)  # the local annihilation operator applied to y
    ay[lo] = r * view[hi]
    delta = complex(row_dot(y, ay.reshape(y.shape))[0]) / n2
    if abs(delta) < shift_accuracy:
        return 0j
    move_coords(state, delta, freedom, shift_accuracy)
    return delta


def adjust_cutoff(state: StateVector, freedom: int, epsilon: float, pad_size: int) -> int:
    """Grow or shrink the used dimension of a field or atom freedom.

    The used basis is acceptable when its top pad_size slots carry at most a
    fraction epsilon of the total probability.  The dimension grows by
    pad_size while unacceptable (newly exposed slots are already zero) and
    shrinks one slot at a time while the smaller basis would stay acceptable,
    never discarding more than epsilon of probability in one call.  A shrink
    that discards anything is followed by renormalization.
    """
    fr = state.freedoms[freedom]
    if fr.ptype not in (FIELD, ATOM):
        raise TypeError("cutoff adjustment applies to field and atom freedoms")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if pad_size < 1:
        raise ValueError("pad_size must be at least 1")

    # amplitudes outside the used block are zero, so only its slots can
    # carry probability; the slots above dim_used stay 0 in slotp
    view = used_view(state.as2d(), state.freedoms)
    axis = freedom
    sumaxes = tuple(i for i in range(view.ndim) if i != axis)
    slotp = np.zeros(fr.dim_alloc)
    slotp[:fr.dim_used] = (view.real ** 2 + view.imag ** 2).sum(axis=sumaxes)
    total = float(slotp.sum())
    if total == 0.0:
        return fr.dim_used
    thresh = epsilon * total

    def top(d):
        return float(slotp[max(0, d - pad_size):d].sum())

    d = fr.dim_used
    while d < fr.dim_alloc and top(d) > thresh:
        d = min(d + pad_size, fr.dim_alloc)
    discarded = 0.0
    while d > 1:
        if top(d - 1) > thresh:
            break
        would_discard = discarded + float(slotp[d - 1])
        if would_discard > thresh:
            break
        discarded = would_discard
        d -= 1

    if d < fr.dim_used:
        view[_ax(view.ndim, axis, slice(d, None))] = 0
        fr.dim_used = d
        if discarded > 0.0:
            state.normalize()
    else:
        fr.dim_used = d
    return d
