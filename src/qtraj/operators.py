"""Operator expressions over single-freedom primary operators.

Operators are immutable expression trees.  Leaves are `Primary` operators:
a ladder, number, quadrature, spin or transition operator on one freedom,
with a hermitian-conjugate flag, whose `Kind` names the type of freedom it
acts on.  Interior nodes are sums, ordered products (applied right to
left), scalar multiples, time-function multiples and small integer powers.
Nothing is simplified at construction -- the tree a user builds is the tree
that gets compiled.  A tree may be of any depth: every walk over one
(`hc`, compiling, `to_dense`) is one loop, `_fold_tree`.

Application goes through one compiled form.  For a given basis (the type,
used dimension and center of every freedom) a tree becomes offset diagonals
over the used block of the state, flattened row-major:

    out[i] = sum_k d_k[i] * y[i + o_k]

on an (N, B) block whose column b is trajectory b, so that row i holds
amplitude i of every trajectory.

A primary on freedom k contributes diagonals at multiples of that freedom's
stride, written straight from its matrix elements; sums add diagonals,
products compose them and scalars fold in.  Terms scaled by time functions
stay in groups of their own, one per distinct product of (function,
conjugated) pairs, scaled by its value at each trajectory's time when
applied.  Field primaries are center-aware: with basis center alpha, the
physical ladder operator is the local one plus alpha.
Centers enter as symbolic scalar factors of their terms, the way time
functions do: a `CenteredForm` is a tree compiled for one basis shape (the
type and used dimension of every freedom), and binding it to centers
evaluates the factors, sums each offset's terms, skips the terms of zero
centers and trims the diagonals.  Trees hold no compiled state.
`compile_operator`, which `apply`, `apply_in_place` and `psi *= expr` go
through, compiles afresh on every call, without the terms of zero centers;
a caller that applies a tree again keeps what it compiled, as
`steppers.ModelOperators` keeps its symbolic forms.

A compiled operator applies its diagonals by one of two kernels, chosen by
its band count when it is bound, never by B (`DiagonalOperator`); the
count depends on which centers are 0.  The slice loop makes two numpy calls
per band, each over contiguous rows, and the gathered sweep gathers every
band's input rows in one fancy index, multiplies them in one call and
reduces over the bands in band order.  The gathered sweep takes operators
of 2 to GATHER_MAX_SIZE states with at least GATHER_MIN_BANDS bands (one
more per further channel), as on a moving basis; every other keeps the
slice loop.
A tuple of trees compiles as one family (`CenteredForm`), which binds to
one stacked operator: its single sweep returns every tree's result, tree
j's in channel j.

`to_dense` builds the same operators from explicit matrices instead, as an
independent reference for the compiled form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, reduce

import numpy as np

from .hilbert import (
    ATOM,
    FIELD,
    SPIN,
    PhysicalType,
    StateVector,
    StepError,
    set_used_block,
    used_block,
)

__all__ = [
    "Kind",
    "OperatorExpr",
    "Primary",
    "Sum",
    "Product",
    "ScalarMul",
    "TimeFnMul",
    "Power",
    "destroy",
    "create",
    "number",
    "position",
    "momentum",
    "sigma_plus",
    "sigma_minus",
    "sigma_z",
    "transition",
    "DiagonalOperator",
    "compile_operator",
    "apply",
    "apply_in_place",
    "to_dense",
]

MAX_POWER = 32
DENSE_CAP = 4096

_SQRT2 = np.sqrt(2.0)


class Kind(Enum):
    DESTROY = "a"
    NUMBER = "n"
    POSITION = "x"
    MOMENTUM = "p"
    SIGMA_PLUS = "sp"
    SIGMA_MINUS = "sm"
    SIGMA_Z = "sz"
    TRANSITION = "tr"

    @property
    def ptype(self) -> PhysicalType:
        """The type of freedom this kind of primary acts on."""
        if self is Kind.TRANSITION:
            return ATOM
        if self in (Kind.SIGMA_PLUS, Kind.SIGMA_MINUS, Kind.SIGMA_Z):
            return SPIN
        return FIELD


@lru_cache(maxsize=None)
def _sqrt_ladder(n: int) -> np.ndarray:
    r = np.sqrt(np.arange(n, dtype=np.float64))
    r.flags.writeable = False
    return r


# ---------------------------------------------------------------------------
# Expression trees


class OperatorExpr:
    """Base class; all nodes are immutable, slotted and hold nothing but their fields."""

    __slots__ = ()

    def hc(self) -> "OperatorExpr":
        """The hermitian adjoint, as a tree of the same shape."""
        return _fold_tree(self, _adjoint)

    # construction-time concatenation of nested sums/products only; no other
    # algebraic rewriting happens here
    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        left = self.children if isinstance(self, Sum) else (self,)
        right = other.children if isinstance(other, Sum) else (other,)
        return Sum(left + right)

    def __sub__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self + ScalarMul(-1.0, other)

    def __neg__(self):
        return ScalarMul(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            left = self.children if isinstance(self, Product) else (self,)
            right = other.children if isinstance(other, Product) else (other,)
            return Product(left + right)
        if isinstance(other, (int, float, complex, np.number)):
            return ScalarMul(other, self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return ScalarMul(other, self)
        if callable(other):
            return TimeFnMul(other, self)
        return NotImplemented

    def __pow__(self, k):
        return Power(self, k)


@dataclass(frozen=True, slots=True)
class Primary(OperatorExpr):
    """A single-freedom operator: kind, target freedom, transition levels.

    conj marks the hermitian conjugate, so a+ is the conjugated DESTROY.
    """

    kind: Kind
    freedom: int
    levels: tuple = ()
    conj: bool = False

    def __post_init__(self):
        if self.freedom < 0:
            raise ValueError("freedom index must be non-negative")
        if self.kind is Kind.TRANSITION:
            if len(self.levels) != 2:
                raise ValueError("transition needs two level indices")
            i, j = self.levels
            if i < 0 or j < 0:
                raise ValueError("transition levels must be non-negative")
            if i == j:
                raise ValueError("transition levels must differ")
        elif self.levels:
            raise ValueError(f"{self.kind.name} takes no level indices")

    @property
    def ptype(self) -> PhysicalType:
        return self.kind.ptype

    def dense(self, dim: int, center: complex = 0j) -> np.ndarray:
        """Dense matrix of this operator on a dim-level truncation."""
        if self.ptype is SPIN and dim != 2:
            raise ValueError("spin operators need dimension 2")
        c = complex(center)
        r = _sqrt_ladder(dim)[1:]
        if self.kind is Kind.DESTROY:
            m = np.diag(r, 1).astype(complex) + c * np.eye(dim)
        elif self.kind is Kind.NUMBER:
            m = np.diag(np.arange(dim) + abs(c) ** 2).astype(complex)
            m += c * np.diag(r, -1) + np.conj(c) * np.diag(r, 1)
        elif self.kind is Kind.POSITION:
            m = (np.diag(r, 1) + np.diag(r, -1)) / _SQRT2 + _SQRT2 * c.real * np.eye(dim)
            m = m.astype(complex)
        elif self.kind is Kind.MOMENTUM:
            m = 1j * (np.diag(r, -1) - np.diag(r, 1)) / _SQRT2
            m += _SQRT2 * c.imag * np.eye(dim)
        elif self.kind is Kind.SIGMA_PLUS:
            m = np.array([[0, 0], [1, 0]], dtype=complex)
        elif self.kind is Kind.SIGMA_MINUS:
            m = np.array([[0, 1], [0, 0]], dtype=complex)
        elif self.kind is Kind.SIGMA_Z:
            m = np.diag([-1.0 + 0j, 1.0 + 0j])
        else:
            i, j = self.levels
            m = np.zeros((dim, dim), dtype=complex)
            if i < dim and j < dim:
                m[i, j] = 1.0
        return m.conj().T if self.conj else m


@dataclass(frozen=True, slots=True)
class Sum(OperatorExpr):
    children: tuple

    def __post_init__(self):
        if len(self.children) < 1:
            raise ValueError("empty sum")


@dataclass(frozen=True, slots=True)
class Product(OperatorExpr):
    """Ordered product; children are applied right to left."""

    children: tuple

    def __post_init__(self):
        if len(self.children) < 1:
            raise ValueError("empty product")


@dataclass(frozen=True, slots=True)
class ScalarMul(OperatorExpr):
    scalar: complex
    child: OperatorExpr

    def __post_init__(self):
        object.__setattr__(self, "scalar", complex(self.scalar))


@dataclass(frozen=True, slots=True)
class TimeFnMul(OperatorExpr):
    """fn(t) times child: fn is any callable of a float time, conj marks conj(fn(t))."""

    fn: object
    child: OperatorExpr
    conj: bool = False


@dataclass(frozen=True, slots=True)
class Power(OperatorExpr):
    child: OperatorExpr
    k: int

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool):
            raise TypeError("power exponent must be an integer")
        if not 1 <= self.k <= MAX_POWER:
            raise ValueError(f"power exponent must be in 1..{MAX_POWER}")


def _fold_tree(root, visit):
    """visit(node, [its children's values]) over the tree at root, children first.

    Returns the root's value.  Nothing recurses: the nodes are listed
    parents first, then visited in reverse over a stack of values, on which
    each node's children lie in their order.
    """
    order, todo = [], [root]
    while todo:
        node = todo.pop()
        if isinstance(node, (Sum, Product)):
            kids = node.children
        elif isinstance(node, (ScalarMul, TimeFnMul, Power)):
            kids = (node.child,)
        elif isinstance(node, Primary):
            kids = ()
        else:
            raise TypeError(f"not an operator expression: {node!r}")
        order.append((node, len(kids)))
        todo.extend(kids)
    values = []
    for node, n in reversed(order):
        values[len(values) - n:] = [visit(node, values[len(values) - n:])]
    return values[0]


def _adjoint(node, kids):
    if isinstance(node, Primary):
        return replace(node, conj=not node.conj)
    if isinstance(node, Sum):
        return Sum(tuple(kids))
    if isinstance(node, Product):
        return Product(tuple(reversed(kids)))
    if isinstance(node, ScalarMul):
        return ScalarMul(np.conj(node.scalar), kids[0])
    if isinstance(node, TimeFnMul):
        return TimeFnMul(node.fn, kids[0], not node.conj)
    return Power(kids[0], node.k)


# -- leaf builders ----------------------------------------------------------


def destroy(freedom: int) -> Primary:
    return Primary(Kind.DESTROY, freedom)


def create(freedom: int) -> Primary:
    return Primary(Kind.DESTROY, freedom, conj=True)


def number(freedom: int) -> Primary:
    return Primary(Kind.NUMBER, freedom)


def position(freedom: int) -> Primary:
    return Primary(Kind.POSITION, freedom)


def momentum(freedom: int) -> Primary:
    return Primary(Kind.MOMENTUM, freedom)


def sigma_plus(freedom: int) -> Primary:
    return Primary(Kind.SIGMA_PLUS, freedom)


def sigma_minus(freedom: int) -> Primary:
    return Primary(Kind.SIGMA_MINUS, freedom)


def sigma_z(freedom: int) -> Primary:
    return Primary(Kind.SIGMA_Z, freedom)


def transition(freedom: int, i: int, j: int) -> Primary:
    return Primary(Kind.TRANSITION, freedom, (int(i), int(j)))


# ---------------------------------------------------------------------------
# Compilation to offset diagonals.  While compiling, an operator is a dict
# {(time functions, center factors): {offset: diagonal}} with full-length
# diagonals that are zero wherever the source index i + offset falls outside
# the block.  Center factors are a sorted tuple of (freedom, conjugated)
# pairs that stand for the product of the field centers c_k (or c_k*) they
# name; the diagonals themselves do not depend on any center.


def _shifted(v: np.ndarray, s: int) -> np.ndarray:
    """w[i] = v[i + s], zero where i + s falls outside v."""
    if s == 0:
        return v
    w = np.zeros_like(v)
    if s > 0:
        w[:-s] = v[s:]
    else:
        w[-s:] = v[:s]
    return w


def _matrix_elements(dim: int, elements) -> dict:
    bands = {}
    for row, col, value in elements:
        if row < dim and col < dim:
            bands.setdefault(col - row, np.zeros(dim, dtype=complex))[row] += value
    return bands


def _primary_terms(op: Primary, dim: int) -> dict:
    """{center factors: {offset: diagonal}} of a primary on `dim` used levels.

    With basis center c the physical ladder operator is the local one plus
    c, so a -> a + c, n -> n + c a+ + c* a + c c*, x -> x + (c + c*)/sqrt2
    and p -> p + i(c* - c)/sqrt2.
    """
    lower = _sqrt_ladder(dim).astype(complex)     # sqrt(n): <n|a+|n-1>
    upper = _shifted(lower, 1)                     # sqrt(n+1): <n|a|n+1>
    c, cc = ((op.freedom, False),), ((op.freedom, True),)
    ones = np.ones(dim, dtype=complex)
    kind = op.kind
    if kind is Kind.DESTROY:
        terms = {(): {1: upper}, c: {0: ones}}
    elif kind is Kind.NUMBER:
        terms = {(): {0: np.arange(dim) + 0j}, c: {-1: lower}, cc: {1: upper},
                 c + cc: {0: ones}}
    elif kind is Kind.POSITION:
        terms = {(): {-1: lower / _SQRT2, 1: upper / _SQRT2},
                 c: {0: ones / _SQRT2}, cc: {0: ones / _SQRT2}}
    elif kind is Kind.MOMENTUM:
        terms = {(): {-1: lower * (1j / _SQRT2), 1: upper * (-1j / _SQRT2)},
                 c: {0: ones * (-1j / _SQRT2)}, cc: {0: ones * (1j / _SQRT2)}}
    elif kind is Kind.SIGMA_PLUS:
        terms = {(): _matrix_elements(dim, ((1, 0, 1.0),))}
    elif kind is Kind.SIGMA_MINUS:
        terms = {(): _matrix_elements(dim, ((0, 1, 1.0),))}
    elif kind is Kind.SIGMA_Z:
        terms = {(): _matrix_elements(dim, ((0, 0, -1.0), (1, 1, 1.0)))}
    else:
        i, j = op.levels
        terms = {(): _matrix_elements(dim, ((i, j, 1.0),))}
    if op.conj:
        # <n+o|M+|n> = conj(<n|M|n+o>): offset o becomes -o, rows shift by o,
        # and each center factor c becomes c*
        terms = {tuple(sorted((k, not cj) for k, cj in f)):
                 {-o: _shifted(d, -o).conj() for o, d in bands.items()}
                 for f, bands in terms.items()}
    return terms


def _add_terms(acc: dict, terms: dict) -> dict:
    for key, bands in terms.items():
        into = acc.setdefault(key, {})
        for o, d in bands.items():
            into[o] = into[o] + d if o in into else d
    return acc


def _mul_bands(a: dict, b: dict, size: int, into: dict) -> dict:
    """Add the {offset: diagonal} bands of the matrix product a @ b into `into`."""
    for oa, da in a.items():
        for ob, db in b.items():
            o = oa + ob
            if abs(o) >= size:
                continue
            v = da * _shifted(db, oa)
            into[o] = into[o] + v if o in into else v
    return into


def _mul_terms(a: dict, b: dict, size: int) -> dict:
    """Terms of the matrix product a @ b."""
    out = {}
    for (fa, ca), ba in a.items():
        for (fb, cb), bb in b.items():
            _mul_bands(ba, bb, size, out.setdefault((fa + fb, tuple(sorted(ca + cb))), {}))
    return out


def _compile_node(node, shape, size) -> dict:
    """{(time functions, center factors): {offset: diagonal}} of the tree at node.

    shape holds (type, used dimension) per freedom; a third item fixes the
    center at 0, and binding would skip the center terms, so none are made.
    """
    def visit(node, kids):
        if isinstance(node, Primary):
            k = node.freedom
            if k >= len(shape):
                raise ValueError(f"freedom {k} out of range for {len(shape)}-freedom state")
            ptype, dim, *zero = shape[k]
            if ptype is not node.ptype:
                raise TypeError(
                    f"{node.kind.name} acts on {node.ptype.value} freedoms, "
                    f"freedom {k} is {ptype.value}")
            stride = math.prod(b[1] for b in shape[k + 1:])
            outer = size // (dim * stride)
            return {((), factors): {
                o * stride: np.broadcast_to(d[None, :, None], (outer, dim, stride)).reshape(size)
                for o, d in bands.items()}
                for factors, bands in _primary_terms(node, dim).items()
                if not (factors and zero)}
        if isinstance(node, Sum):
            return reduce(_add_terms, kids, {})
        if isinstance(node, (Product, Power)):  # a power multiplies k equal factors
            return reduce(lambda a, b: _mul_terms(a, b, size),
                          kids * node.k if isinstance(node, Power) else kids)
        if isinstance(node, ScalarMul):
            z = node.scalar
            return {key: {o: z * d for o, d in bands.items()} for key, bands in kids[0].items()}
        return {(((node.fn, node.conj),) + fns, f): bands for (fns, f), bands in kids[0].items()}

    return _fold_tree(node, visit)


def _shape_of(freedoms) -> tuple:
    """What a compiled form depends on: (type, used dimension) per freedom."""
    return tuple([(f.ptype, f.dim_used) for f in freedoms])


def _time_factor(fns, t):
    """(1, n) row of the product of a group's (fn, conj) time functions at the (n,) times t.

    n is B, one time per trajectory, or 1 for a time all of them share.
    Each function is called with a float, once per distinct time.  A
    product that is not finite raises StepError naming its first column.
    """
    times, where = (t, slice(None)) if t.size == 1 else np.unique(t, return_inverse=True)
    values = []
    for s in times.tolist():
        try:
            values.append(math.prod(complex(fn(s)).conjugate() if conj else complex(fn(s))
                                    for fn, conj in fns))
        except OverflowError:
            values.append(math.nan)
    z = np.array(values, dtype=complex)[None, where]
    if not all(map(cmath.isfinite, values)):
        bad = int(np.flatnonzero(~np.isfinite(z[0]))[0])
        raise StepError(f"a time-dependent factor overflows at t={t[bad]:.6g}", bad)
    return z


# The gathered sweep takes forms of at least this many bands, plus one per
# channel after the first, over 2 to GATHER_MAX_SIZE states
GATHER_MIN_BANDS = 4
GATHER_MAX_SIZE = 32
# Complex elements of one gathered block, 256 KiB: trajectories are gathered
# in chunks of at most this many elements (one trajectory at least)
GATHER_BLOCK = 1 << 14


def _trimmed_band(out: tuple, o: int, d: np.ndarray, size: int):
    """The band (out index, in slice, d) of the full-length diagonal d at offset o.

    The band spans d's nonzero rows only; None when there are none.  out
    prefixes the out index (a stacked operator's channel).
    """
    lo, hi = max(0, -o), min(size, size - o)
    nz = np.flatnonzero(d[lo:hi])
    if not nz.size:
        return None
    lo, hi = lo + int(nz[0]), lo + int(nz[-1]) + 1
    return out + (slice(lo, hi),), slice(lo + o, hi + o), d[lo:hi, None].copy()


class DiagonalOperator:
    """An operator compiled for one basis: offset diagonals over the used block.

    `groups` holds (time functions, bands) pairs; a group's sweep is scaled
    by `_time_factor`, the product of its functions at each trajectory's
    time.  Each band is (out index, in slice, d) and adds d * y[in slice]
    to out[out index], the two selecting rows lo:hi and lo+offset:hi+offset
    of an (N, B) block, so every band sweeps contiguous memory; d is an
    (hi - lo, 1) column, which broadcasts along each row.

    A stacked operator, bound from a family of trees, applies them all in
    one sweep: `channels` is their number, each group belongs to one of
    them, and its out indices also pick that channel of a
    (channels, size, B) result.

    `apply` has two kernels, chosen by the bound operator's size and band
    count, never by B, so a trajectory gets the same bits in a batch of any
    size.  A center that is not 0 adds bands: the Jaynes-Cummings h_eff over
    16 states has 3 bands at zero centers (slice loop) and 7 at nonzero ones
    (gathered sweep), shg's h_eff over 18 states 7 and 13.  The slice loop
    adds `d * y[in slice]` into `out[out index]` band by band, two numpy
    calls a band.  The gathered sweep gathers every band's input rows into a
    (bands, size, B) block in one fancy index, multiplies it in place by
    the stacked diagonals, time groups' scaled, and folds each channel's
    bands in band order into a C-contiguous result: 2 + channels calls.  It
    is taken when the bands outnumber the channels by GATHER_MIN_BANDS - 1
    or more, on 2 to GATHER_MAX_SIZE states (over 2 or more states numpy
    adds the bands in band order).  Measured in this layout on forms of 4 to 70 states, the
    gathered sweep was 1.0 to 3.1 times as fast as the slice loop at B = 1
    to 17 (most at 11 bands), as fast at B = 64 on up to 18 states only,
    and slower on every form at B = 250 to 4000, where each band of the
    slice loop sweeps long contiguous rows (0.3 to 1.0 times as fast).  The
    rule, which cannot depend on B, keeps the gathered sweep for the
    many-band forms of a moving basis, which runs one trajectory at a time.
    Trajectories are gathered in chunks of about GATHER_BLOCK elements, so
    the block stays small at any B; trajectories are independent, so chunks
    change no bits.  A band contributes a zero diagonal where it does not
    reach, gathered from the trajectory's own row, so a NaN stays in its
    column.  A gathered operator builds its gather stacks when it is made;
    they are small, as it has at most GATHER_MAX_SIZE states.
    """

    __slots__ = ("size", "groups", "channels", "timed", "gathered", "_gather")

    def __init__(self, size: int, groups: tuple, channels: int = None):
        self.size = size
        self.groups = groups
        self.channels = channels
        self.timed = any(fns for fns, _ in groups)  # whether any group has time functions
        self.gathered = (1 < size <= GATHER_MAX_SIZE
                         and self.n_bands >= GATHER_MIN_BANDS + (channels or 1) - 1)
        self._gather = self._gather_stacks() if self.gathered else None

    @property
    def n_bands(self) -> int:
        """Bands over all groups: the band sweeps of one application."""
        return sum(len(bands) for _, bands in self.groups)

    def apply(self, y: np.ndarray, t=0.0) -> np.ndarray:
        """The operator applied to every column of a (size, B) block at time t.

        t is a scalar or a (B,) array, one time per trajectory, read only by
        an operator with time functions.  The result is (size, B), or
        (channels, size, B) for a stacked operator.
        """
        if y.ndim != 2 or y.shape[0] != self.size:
            raise ValueError(f"expected a ({self.size}, B) used block, got shape {y.shape}")
        t = np.asarray(t, dtype=float).reshape(-1) if self.timed else t  # (1,) or (B,)
        if self.gathered:
            return self._apply_gathered(y, t)
        return self._apply_sliced(y, t)

    def _apply_sliced(self, y, t):
        shape = y.shape if self.channels is None else (self.channels,) + y.shape
        out = np.zeros(shape, dtype=complex)
        for fns, bands in self.groups:
            if fns:
                z = _time_factor(fns, t)
                bands = [(ix_out, ix_in, z * d) for ix_out, ix_in, d in bands]
            for ix_out, ix_in, d in bands:
                out[ix_out] += d * y[ix_in]
        return out

    def _apply_gathered(self, y, t):
        ix, diags, segments, timed = self._gather
        b = y.shape[1]
        cols = max(1, GATHER_BLOCK // ix.size)  # trajectories gathered at once
        rows = [(lo, hi, _time_factor(fns, t)[None]) for lo, hi, fns in timed] if timed else ()
        if rows and t.size == 1:  # one time for every trajectory: scale the diagonals once
            diags = diags.copy()
            for lo, hi, z in rows:
                diags[lo:hi] *= z
            rows = ()
        out = np.empty((len(segments), self.size, b), dtype=complex)
        for c in range(0, b, cols):
            block, d = y[ix, c:c + cols], diags
            if rows:  # times of their own: this chunk's diagonals, a column per trajectory
                d = np.repeat(diags, block.shape[2], axis=2)
                for lo, hi, z in rows:
                    d[lo:hi] *= z[:, :, c:c + cols]
            block *= d
            # over 2 or more states numpy adds the bands' rows in band order
            for j, (lo, hi) in enumerate(segments):
                np.add.reduce(block[lo:hi], axis=0, out=out[j, :, c:c + cols])
        return out[0] if self.channels is None else out

    def _gather_stacks(self):
        """(indices, diagonals, segments, timed bands) of the gathered sweep.

        ix is (bands, size) and the diagonals (bands, size, 1): channel 0's
        bands in group order, then channel 1's, and so on, with channel j's
        in bands segments[j]; timed lists (lo, hi, fns) for the bands a time
        group scales.
        """
        per_channel = [[] for _ in range(self.channels or 1)]
        for fns, bands in self.groups:
            per_channel[0 if self.channels is None else bands[0][0][0]].append((fns, bands))
        total = sum(len(bands) for _, bands in self.groups)
        ix = np.empty((total, self.size), dtype=np.intp)
        ix[...] = np.arange(self.size)
        diags = np.zeros(ix.shape, dtype=complex)
        segments, timed = [], []
        k = 0
        for groups in per_channel:
            first = k
            for fns, bands in groups:
                if fns:
                    timed.append((k, k + len(bands), fns))
                for ix_out, ix_in, d in bands:
                    rows = ix_out[-1]
                    ix[k, rows] = np.arange(ix_in.start, ix_in.stop)
                    diags[k, rows] = d[:, 0]
                    k += 1
            segments.append((first, k))
        return ix, diags[:, :, None], tuple(segments), tuple(timed)

    def diagonals(self, t: float = 0.0) -> dict:
        """{offset o: d} at time t, summed over groups, with d[i] = <i|op|i+o>.

        Every d has the full length `size` and is zero where i + o falls
        outside the block or the operator has no entry.
        """
        if self.channels is not None:
            raise ValueError("a stacked operator has diagonals per channel; compile "
                             "each tree on its own to read them")
        out = {}
        for fns, bands in self.groups:
            z = _time_factor(fns, np.full(1, float(t)))[0]
            for (rows,), cols, d in bands:
                full = out.setdefault(cols.start - rows.start, np.zeros(self.size, dtype=complex))
                full[rows] += z * d[:, 0]
        return out

    def taylor(self, h: float, order: int) -> "DiagonalOperator":
        """sum_{k=0}^{order} (h A)^k / k!, A this operator, as a bound operator.

        At order 4 this is the matrix of one classical RK4 step of length h
        of y' = A y.  It is built from `diagonals` by band products in
        Horner form, I + hA (I + hA/2 (I + hA/3 (...))), and its bands are
        trimmed as `CenteredForm.bind` trims them.  A time-dependent
        operator has no fixed polynomial: it raises ValueError.
        """
        if self.timed:
            raise ValueError("a time-dependent operator has no fixed Taylor polynomial")
        size = self.size
        ha = {o: h * d for o, d in self.diagonals().items()}
        ones = np.ones(size, dtype=complex)
        poly = {0: ones}
        for k in range(order, 0, -1):
            poly = _mul_bands({o: d / k for o, d in ha.items()}, poly, size, {})
            poly[0] = poly[0] + ones if 0 in poly else ones
        bands = [_trimmed_band((), o, poly[o], size) for o in sorted(poly)]
        bands = tuple(band for band in bands if band is not None)
        return DiagonalOperator(size, (((), bands),) if bands else ())


class CenteredForm:
    """A tree, or a family of trees, compiled for one basis shape, centers left symbolic.

    A tuple of trees compiles as one family of `channels` trees, which binds
    to one stacked operator with tree j's result in channel j; a single
    tree (`channels` None) binds to its own operator.  `groups` holds
    (channel, time functions, offsets) triples, and each offset holds the
    (center factors, diagonal) terms whose sum, with every factor evaluated
    at the basis centers, is the diagonal at that offset.  `bind` evaluates
    the factors, sums the terms and trims each diagonal to its nonzero span;
    terms whose factors vanish are skipped, so a basis with every center 0
    gets the local diagonals unchanged.
    """

    __slots__ = ("size", "groups", "channels")

    def __init__(self, trees, shape: tuple):
        size = math.prod(b[1] for b in shape)
        self.channels = None if isinstance(trees, OperatorExpr) else len(trees)
        groups = []
        for j, expr in enumerate((trees,) if self.channels is None else trees):
            by_fns = {}
            for (fns, factors), bands in _compile_node(expr, shape, size).items():
                offsets = by_fns.setdefault(fns, {})
                for o, d in bands.items():
                    offsets.setdefault(o, []).append((factors, d))
            groups += [(j, fns, tuple((o, tuple(offsets[o])) for o in sorted(offsets)))
                       for fns, offsets in by_fns.items()]
        self.size = size
        self.groups = tuple(groups)

    def bind(self, centers) -> DiagonalOperator:
        """The operator, or the family's stacked operator, at the given per-freedom centers."""
        size = self.size
        factor_values = {}
        groups = []
        for j, fns, offsets in self.groups:
            out = () if self.channels is None else (j,)
            kept = []
            for o, terms in offsets:
                d = None
                for factors, diag in terms:
                    if factors:
                        z = factor_values.get(factors)
                        if z is None:
                            z = factor_values[factors] = math.prod(
                                [complex(centers[k]).conjugate() if cj else complex(centers[k])
                                 for k, cj in factors])
                        if not z:
                            continue
                        diag = z * diag
                    d = diag if d is None else d + diag
                band = None if d is None else _trimmed_band(out, o, d, size)
                if band is not None:
                    kept.append(band)
            if kept:
                groups.append((fns, tuple(kept)))
        return DiagonalOperator(size, tuple(groups), self.channels)


def compile_operator(expr: OperatorExpr, freedoms) -> DiagonalOperator:
    """Compiled form of expr for the used dimensions and centers of freedoms.

    Nothing is cached: hold the result to apply it again on the same basis.
    """
    shape = tuple(s if f.center else s + (0,) for s, f in zip(_shape_of(freedoms), freedoms))
    return CenteredForm(expr, shape).bind([f.center for f in freedoms])


def apply_in_place(expr: OperatorExpr, psi: StateVector, t: float = 0.0) -> StateVector:
    """Overwrite psi with expr|psi>; amplitudes outside the used block stay zero."""
    amps = psi.as2d()
    out = compile_operator(expr, psi.freedoms).apply(used_block(amps, psi.freedoms), t)
    set_used_block(amps, psi.freedoms, out)
    return psi


def apply(expr: OperatorExpr, psi: StateVector, t: float = 0.0) -> StateVector:
    """Return expr|psi> as a new state."""
    return apply_in_place(expr, psi.copy(), t)


# ---------------------------------------------------------------------------
# Dense route, built from matrices (Primary.dense, np.kron) rather
# than diagonals so the two can be checked against each other.


def _embed(m: np.ndarray, dims, k: int) -> np.ndarray:
    mats = [np.eye(d, dtype=complex) for d in dims]
    mats[k] = m
    return reduce(np.kron, mats)


def _dense_node(node, kids, dims, centers, t):
    if isinstance(node, Primary):
        k = node.freedom
        if k >= len(dims):
            raise ValueError(f"freedom {k} out of range")
        return _embed(node.dense(dims[k], centers[k]), dims, k)
    if isinstance(node, Sum):
        return sum(kids)
    if isinstance(node, Product):
        return reduce(np.matmul, kids)
    if isinstance(node, ScalarMul):
        return node.scalar * kids[0]
    if isinstance(node, TimeFnMul):
        z = complex(node.fn(t))
        return (z.conjugate() if node.conj else z) * kids[0]
    return np.linalg.matrix_power(kids[0], node.k)


def to_dense(expr: OperatorExpr, dims, centers=None, t: float = 0.0, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense matrix m with m @ vec(psi) == apply(expr, psi) on the given dims."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if total > cap:
        raise ValueError(f"dense dimension {total} exceeds cap {cap}")
    if centers is None:
        centers = (0j,) * len(dims)
    centers = tuple(complex(c) for c in centers)
    if len(centers) != len(dims):
        raise ValueError("one center per freedom required")
    return _fold_tree(expr, lambda node, kids: _dense_node(node, kids, dims, centers, t))
