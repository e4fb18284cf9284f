"""States in truncated product Hilbert spaces.

A state over M degrees of freedom is a flat array of complex amplitudes in
row-major order: the index of freedom 0 varies slowest.  Each freedom carries
a physical type, an allocated dimension, a dynamically adjustable used
dimension (amplitudes at or beyond it are kept exactly zero), and -- for
field modes -- the complex center of the displaced number-state basis the
amplitudes refer to.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "PhysicalType",
    "FIELD",
    "SPIN",
    "ATOM",
    "FreedomSpec",
    "StateVector",
    "basis_state",
    "coherent_state",
    "product_state",
]


class PhysicalType(Enum):
    FIELD = "field"
    SPIN = "spin"
    ATOM = "atom"


FIELD = PhysicalType.FIELD
SPIN = PhysicalType.SPIN
ATOM = PhysicalType.ATOM


@dataclass
class FreedomSpec:
    """One degree of freedom of a product state.

    dim_used can shrink or grow between 1 and dim_alloc at run time; the
    state's amplitudes at indices >= dim_used along this freedom stay zero.
    center is the complex basis center (field modes only).
    """

    ptype: PhysicalType
    dim_alloc: int
    dim_used: int = -1
    center: complex = 0j

    def __post_init__(self):
        if self.dim_used < 0:
            self.dim_used = self.dim_alloc
        if self.dim_alloc < 1:
            raise ValueError("allocated dimension must be positive")
        if self.ptype is SPIN and self.dim_alloc != 2:
            raise ValueError("spin freedoms have dimension exactly 2")
        if self.ptype is ATOM and self.dim_alloc < 2:
            raise ValueError("atom freedoms need at least 2 levels")
        if not 1 <= self.dim_used <= self.dim_alloc:
            raise ValueError("dim_used out of range")
        self.center = complex(self.center)
        if self.ptype is not FIELD and self.center != 0:
            raise ValueError("only field freedoms carry a basis center")

    def copy(self) -> "FreedomSpec":
        return FreedomSpec(self.ptype, self.dim_alloc, self.dim_used, self.center)


# ---------------------------------------------------------------------------
# Row helpers shared by the whole package.  Everything numerical runs through
# these so a batch of trajectories (shape (B, N)) and a single state (B=1)
# take literally the same code path, element for element.  The per-row
# arithmetic is independent of B and of the strides: inputs are made
# C-contiguous, and np.einsum sums each row in one call of its inner kernel.
# einsum hands that kernel at most one iterator buffer of _EINSUM_ROW_MAX
# elements at a time (np.setbufsize does not change it); a longer row would
# be cut at borders that move with B, so such rows take the pairwise .sum,
# which is per row too but much slower on short rows.

_EINSUM_ROW_MAX = 8192


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row inner product conj(x).y for (B, N) arrays.

    y may also be a (B, m, N) stack, giving the (B, m) products of each row
    of x with the m rows of its stack.
    """
    xc = np.ascontiguousarray(x).conj()
    y = np.ascontiguousarray(y)
    if y.shape[-1] > _EINSUM_ROW_MAX:
        return ((xc if y.ndim == 2 else xc[:, None]) * y).sum(axis=-1)
    return np.einsum("ij,ij->i" if y.ndim == 2 else "ij,ikj->ik", xc, y)


def row_norm2(x: np.ndarray) -> np.ndarray:
    """Per-row squared norm of a (B, N) complex array, or (B, m) of a (B, m, N) one."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    if 2 * x.shape[-1] > _EINSUM_ROW_MAX:
        xr = x.real
        xi = x.imag
        return (xr * xr + xi * xi).sum(axis=-1)
    v = x.view(np.float64).reshape(-1, 2 * x.shape[-1])
    return np.einsum("ij,ij->i", v, v).reshape(x.shape[:-1])


def row_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(row_norm2(x))


def used_view(amps2d: np.ndarray, freedoms: list) -> np.ndarray:
    """View of (B, total) amplitudes as (B, u_1, ..., u_M) over used dims.

    The input must be C-contiguous so the reshape is a view; writes to the
    result go through to the buffer.
    """
    if not amps2d.flags.c_contiguous:
        raise ValueError("amplitude buffer must be C-contiguous")
    b = amps2d.shape[0]
    full = amps2d.reshape((b,) + tuple(f.dim_alloc for f in freedoms))
    ix = (slice(None),) + tuple(slice(0, f.dim_used) for f in freedoms)
    return full[ix]


def used_block(amps2d: np.ndarray, freedoms: list) -> np.ndarray:
    """(B, product of used dims) C-contiguous amplitudes of the used block.

    This is a view of the buffer where the sliced view is already
    C-contiguous, as when every freedom uses its whole allocation, and a
    compact copy otherwise; callers must not write to it.
    """
    return np.ascontiguousarray(used_view(amps2d, freedoms)).reshape(amps2d.shape[0], -1)


def set_used_block(amps2d: np.ndarray, freedoms: list, block: np.ndarray):
    """Write a (B, product of used dims) block back into the (B, total) buffer."""
    view = used_view(amps2d, freedoms)
    view[...] = block.reshape(view.shape)


def _check_same_structure(a: "StateVector", b: "StateVector"):
    if len(a.freedoms) != len(b.freedoms):
        raise ValueError("states have different numbers of freedoms")
    for fa, fb in zip(a.freedoms, b.freedoms):
        if fa.ptype is not fb.ptype or fa.dim_alloc != fb.dim_alloc:
            raise ValueError("freedom structure mismatch")
        if fa.center != fb.center:
            raise ValueError("basis center mismatch; states live in different bases")


class StateVector:
    """A pure state over one or more freedoms.

    Supports value-style arithmetic (`+`, `-`, scalar `*`), in-place variants,
    and `psi *= expr` to apply an operator expression in place.
    """

    __slots__ = ("freedoms", "amps")

    def __init__(self, freedoms, amps):
        self.freedoms = [f.copy() for f in freedoms]
        total = math.prod(f.dim_alloc for f in self.freedoms)
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if amps.shape != (total,):
            raise ValueError(f"expected {total} amplitudes, got shape {amps.shape}")
        self.amps = amps

    # -- structure ----------------------------------------------------------

    @property
    def n_freedoms(self) -> int:
        return len(self.freedoms)

    def used_dims(self) -> tuple:
        return tuple(f.dim_used for f in self.freedoms)

    def basis_size(self) -> int:
        """Product of used dimensions over all freedoms."""
        return math.prod(self.used_dims())

    def as2d(self) -> np.ndarray:
        """(1, N) view of the amplitude buffer; mutations write through."""
        return self.amps.reshape(1, -1)

    def copy(self) -> "StateVector":
        return StateVector(self.freedoms, self.amps.copy())

    # -- numerics -----------------------------------------------------------

    def norm(self) -> float:
        return float(row_norm(self.as2d())[0])

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        self.amps /= n
        return self

    def add_scaled(self, z: complex, other: "StateVector") -> "StateVector":
        """self += z * other, merging used dimensions per freedom."""
        _check_same_structure(self, other)
        self.amps += complex(z) * other.amps
        for fa, fb in zip(self.freedoms, other.freedoms):
            fa.dim_used = max(fa.dim_used, fb.dim_used)
        return self

    def inner(self, other: "StateVector") -> complex:
        """<self|other> with self on the conjugated side."""
        _check_same_structure(self, other)
        return complex(row_dot(self.as2d(), other.as2d())[0])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return self.copy().add_scaled(1.0, other)

    def __sub__(self, other):
        return self.copy().add_scaled(-1.0, other)

    def __iadd__(self, other):
        return self.add_scaled(1.0, other)

    def __isub__(self, other):
        return self.add_scaled(-1.0, other)

    def __mul__(self, z):
        if isinstance(z, (int, float, complex, np.number)):
            out = self.copy()
            out.amps *= complex(z)
            return out
        return NotImplemented

    __rmul__ = __mul__

    def __imul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            self.amps *= complex(other)
            return self
        from .operators import OperatorExpr, apply_in_place  # operators imports this module

        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return apply_in_place(other, self)

    def __repr__(self):
        dims = "x".join(str(f.dim_alloc) for f in self.freedoms)
        return f"StateVector({dims}, used={self.used_dims()}, norm={self.norm():.6g})"


# ---------------------------------------------------------------------------
# Constructors


def basis_state(dim: int, n: int = 0, ptype: PhysicalType = FIELD) -> StateVector:
    """Number/level state |n> of a single freedom."""
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside dimension {dim}")
    fr = FreedomSpec(ptype, dim)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector([fr], amps)


def coherent_state(dim: int, alpha: complex) -> StateVector:
    """Coherent state |alpha> of a field mode, renormalized on the truncation.

    Amplitudes follow c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!).  Their
    magnitudes peak at n = |alpha|^2 (or at the top level, if that is
    lower); the recurrence |c_n+1| = |c_n| |alpha| / sqrt(n+1) runs both ways
    from the peak, set to 1, so no amplitude the state holds underflows on
    the way.  The phases are n arg(alpha), and the vector is then rescaled
    to unit norm.
    """
    alpha = complex(alpha)
    r = abs(alpha)
    peak = int(min(r * r, dim - 1))  # clamped first: r * r may overflow to inf
    mags = np.zeros(dim)
    mags[peak] = 1.0
    for n in range(peak, dim - 1):
        mags[n + 1] = mags[n] * r / math.sqrt(n + 1)
    for n in range(peak, 0, -1):
        mags[n - 1] = mags[n] * math.sqrt(n) / r
    amps = mags * np.exp(1j * cmath.phase(alpha) * np.arange(dim))
    return StateVector([FreedomSpec(FIELD, dim)], amps).normalize()


def product_state(parts) -> StateVector:
    """Tensor product of single- or multi-freedom states, freedom 0 slowest."""
    parts = list(parts)
    if not parts:
        raise ValueError("product of zero states")
    freedoms = []
    amps = None
    for p in parts:
        freedoms.extend(f.copy() for f in p.freedoms)
        amps = p.amps.copy() if amps is None else np.kron(amps, p.amps)
    return StateVector(freedoms, amps)

