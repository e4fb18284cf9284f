"""State container and layout tests.

The layout contract everything else relies on: amplitudes are a flat
C-contiguous complex array, freedom 0 varies slowest, and slots at or above
dim_used stay exactly zero.  A block of B trajectories is (N, B), trajectory
b in column b, and a state is the (N, 1) block `as2d`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj import (
    ATOM,
    FIELD,
    SPIN,
    FreedomSpec,
    StateVector,
    basis_state,
    coherent_state,
    product_state,
)
from qtraj.hilbert import row_dot, row_norm, row_norm2, used_block, used_view


def test_superposition_norm_and_overlap():
    # 0.5|0> - |3>: norm sqrt(1.25), overlap with |3> after normalizing
    psi = 0.5 * basis_state(8, 0) - basis_state(8, 3)
    assert psi.norm() == pytest.approx(1.118033988749895, abs=1e-15)
    psi.normalize()
    ov = basis_state(8, 3).inner(psi)
    assert ov.real == pytest.approx(-0.8944271909999159, abs=1e-15)
    assert ov.imag == 0.0


def test_product_state_layout_freedom0_slowest():
    # |1> (x) |2> with dims (2, 4) puts the single amplitude at flat 1*4+2=6
    psi = product_state([basis_state(2, 1), basis_state(4, 2)])
    assert psi.amps.shape == (8,)
    assert psi.amps[6] == 1.0
    assert np.count_nonzero(psi.amps) == 1


def test_product_state_three_freedoms():
    psi = product_state([basis_state(3, 2), basis_state(2, 0),
                         basis_state(2, 1, SPIN)])
    # flat index (2,0,1) -> 2*4 + 0*2 + 1 = 9
    assert psi.amps[9] == 1.0
    assert psi.basis_size() == 12
    assert psi.used_dims() == (3, 2, 2)


def test_coherent_state_amplitudes():
    alpha = 0.8 - 0.3j
    psi = coherent_state(24, alpha)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    c0 = math.exp(-0.5 * abs(alpha) ** 2)
    # renormalization on dim 24 is negligible at |alpha| < 1
    assert abs(psi.amps[0] - c0) < 1e-10
    for n in (1, 2, 5):
        expected = c0 * alpha ** n / math.sqrt(math.factorial(n))
        assert abs(psi.amps[n] - expected) < 1e-10


def test_large_coherent_state():
    # exp(-|alpha|^2/2) underflows to 0 for |alpha| > 38.6, so the amplitudes
    # must not be built up from n = 0
    psi = coherent_state(5000, 40)
    a = psi.amps
    n = np.arange(5000)
    a_mean = np.vdot(a[:-1], np.sqrt(n[1:]) * a[1:])
    assert psi.norm() == pytest.approx(1.0, rel=1e-12)
    assert abs(a_mean - 40) <= 40e-9
    assert abs(np.vdot(a, n * a) - 1600) <= 1600e-9


def test_freedom_spec_validation():
    with pytest.raises(ValueError):
        FreedomSpec(SPIN, 3)
    with pytest.raises(ValueError):
        FreedomSpec(ATOM, 1)
    with pytest.raises(ValueError):
        FreedomSpec(SPIN, 2, center=1.0 + 0j)
    fr = FreedomSpec(FIELD, 10, dim_used=4, center=0.5j)
    assert fr.dim_used == 4
    fr2 = fr.copy()
    fr2.dim_used = 7
    assert fr.dim_used == 4


def test_dim_used_defaults_to_alloc():
    fr = FreedomSpec(FIELD, 6)
    assert fr.dim_used == 6


def test_used_view_shape_and_write_through():
    psi = product_state([basis_state(4, 0), basis_state(3, 0)])
    psi.freedoms[0].dim_used = 2
    v = used_view(psi.as2d(), psi.freedoms)
    assert v.shape == (2, 3, 1)
    v[1, 2, 0] = 0.25
    assert psi.amps[1 * 3 + 2] == 0.25


def test_used_block_at_full_allocation_is_a_view_of_the_buffer():
    # slicing every freedom to its whole allocation keeps the block a
    # C-contiguous view, so steppers read the state without a copy; a
    # trimmed inner freedom makes the slice strided, and the block a copy
    psi = product_state([basis_state(3, 1), basis_state(4, 0)])
    block = used_block(psi.as2d(), psi.freedoms)
    assert np.shares_memory(block, psi.amps) and block.flags.c_contiguous
    assert block.shape == (12, 1) and np.array_equal(block[:, 0], psi.amps)
    psi.freedoms[1].dim_used = 2
    block = used_block(psi.as2d(), psi.freedoms)
    assert not np.shares_memory(block, psi.amps) and block.flags.c_contiguous
    assert np.array_equal(block[:, 0], psi.amps.reshape(3, 4)[:, :2].reshape(-1))


def test_used_view_requires_contiguous():
    buf = np.zeros((12, 2), dtype=complex)[::2]
    with pytest.raises(ValueError):
        used_view(buf, [FreedomSpec(FIELD, 6)])


def test_normalize_zero_state_raises():
    psi = StateVector([FreedomSpec(FIELD, 4)], np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        psi.normalize()


def test_add_scaled_and_arithmetic():
    a = basis_state(5, 0)
    b = basis_state(5, 2)
    c = a.copy()
    c.add_scaled(2.0j, b)
    assert c.amps[0] == 1.0 and c.amps[2] == 2.0j
    d = a + (-1.0) * b
    assert d.amps[2] == -1.0
    d *= 2.0
    assert d.amps[0] == 2.0


def test_add_scaled_takes_union_of_used_dims():
    a = basis_state(6, 0)
    b = basis_state(6, 0)
    a.freedoms[0].dim_used = 2
    b.freedoms[0].dim_used = 5
    a.add_scaled(1.0, b)
    assert a.freedoms[0].dim_used == 5


def test_structure_mismatch_raises():
    a = basis_state(4, 0)
    b = basis_state(5, 0)
    with pytest.raises(ValueError):
        a.add_scaled(1.0, b)
    spin_a = basis_state(2, 0, SPIN)
    field_a = basis_state(2, 0, FIELD)
    with pytest.raises(ValueError):
        spin_a.inner(field_a)


def test_center_mismatch_raises():
    a = StateVector([FreedomSpec(FIELD, 4, center=0.1)], np.ones(4, dtype=complex))
    b = StateVector([FreedomSpec(FIELD, 4, center=0.2)], np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        a.inner(b)


def test_copy_is_deep():
    a = basis_state(4, 1)
    b = a.copy()
    b.amps[1] = 0.0
    b.freedoms[0].dim_used = 2
    assert a.amps[1] == 1.0
    assert a.freedoms[0].dim_used == 4


def test_as2d_is_a_view():
    a = basis_state(4, 1)
    a.as2d()[3, 0] = 0.5j
    assert a.amps[3] == 0.5j


def test_row_helpers_match_definitions():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    want = np.array([np.vdot(x[:, j], y[:, j]) for j in range(3)])
    assert np.allclose(row_dot(x, y), want, atol=1e-14)
    assert np.allclose(row_norm2(x), np.ones(5) @ np.abs(x) ** 2, atol=1e-14)
    assert np.allclose(row_norm(x), np.sqrt(row_norm2(x)), atol=1e-15)


def _block(rng, b, n, layout, m=None):
    """An (n, b) complex block, or an (m, n, b) stack, laid out as C, Fortran,
    every other column, or a row slice; each column has a scale of its own."""
    lead = () if m is None else (m,)

    def draw(rows, cols):
        shape = lead + (rows, cols)
        scale = 10.0 ** rng.uniform(-3, 3, size=lead + (1, cols))
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    if layout == "f":
        return np.asfortranarray(draw(n, b))
    if layout == "col_step":
        return draw(n, 2 * b)[..., ::2]
    if layout == "row_slice":
        return draw(n + 3, b)[..., 1:n + 1, :]
    return draw(n, b)


def _assert_columnwise(x, y, stack):
    """Block helpers equal, bit for bit, the same helper on each column copied out.

    stack: an (m, N, B) stack, whose row_dot with x and row_norm2 are
    checked the same way.
    """
    n2, nrm, dot = row_norm2(x), row_norm(x), row_dot(x, y)
    sdot, sn2 = row_dot(x, stack), row_norm2(stack)
    b = x.shape[1]
    assert n2.shape == nrm.shape == dot.shape == (b,)
    assert sdot.shape == sn2.shape == (stack.shape[0], b)
    for j in range(b):
        col = lambda a: a[..., j:j + 1].copy()
        assert n2[j] == row_norm2(col(x))[0] and nrm[j] == row_norm(col(x))[0]
        assert dot[j].tobytes() == row_dot(col(x), col(y))[0].tobytes()
        assert sdot[:, j].tobytes() == row_dot(col(x), col(stack))[:, 0].tobytes()
        assert sn2[:, j].tobytes() == row_norm2(col(stack))[:, 0].tobytes()
    return n2, nrm, dot


@settings(max_examples=150, deadline=None)
@given(b=st.integers(1, 300), n=st.one_of(st.integers(1, 64), st.just(300)),
       m=st.integers(1, 3), layout=st.sampled_from(["c", "f", "col_step", "row_slice"]),
       seed=st.integers(0, 2**32 - 1))
def test_row_helpers_are_per_column_whatever_b_and_strides(b, n, m, layout, seed):
    # lockstep == serial rests on this: a trajectory's bits never depend on
    # B or on how the block is laid out in memory
    rng = np.random.default_rng(seed)
    x, y = _block(rng, b, n, layout), _block(rng, b, n, layout)
    n2, nrm, dot = _assert_columnwise(x, y, _block(rng, b, n, layout, m))
    want_norm = np.linalg.norm(x, axis=0)
    want_dot = np.array([np.vdot(x[:, j], y[:, j]) for j in range(b)])
    scale = want_norm * np.linalg.norm(y, axis=0)
    assert np.all(np.abs(nrm - want_norm) <= 1e-14 * want_norm)
    assert np.all(np.abs(n2 - want_norm ** 2) <= 1e-14 * want_norm ** 2)
    assert np.all(np.abs(dot - want_dot) <= 1e-14 * scale)


def test_row_helpers_are_per_column_on_long_columns():
    # a column is folded in index order however long it is, and a fold of
    # one column (B = 1, np.cumsum) has the bits of the same column in a block
    rng = np.random.default_rng(11)
    for n in (4096, 4097, 8192, 9000, 100_000):
        _assert_columnwise(_block(rng, 3, n, "c"), _block(rng, 3, n, "col_step"),
                           _block(rng, 3, n, "row_slice", 2))


def test_amps_coerced_contiguous_complex():
    psi = StateVector([FreedomSpec(FIELD, 3)], np.array([1, 0, 0]))
    assert psi.amps.dtype == np.complex128
    assert psi.amps.flags.c_contiguous


def test_basis_state_range_check():
    with pytest.raises(ValueError):
        basis_state(4, 4)
    with pytest.raises(ValueError):
        basis_state(4, -1)
