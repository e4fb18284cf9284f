"""Displacement series, recentering and dynamic truncation.

The displacement operator is checked against two independent references:
the analytic coherent-state amplitudes and scipy's dense matrix exponential
of delta*adag - conj(delta)*a.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qtraj import (
    ATOM,
    FIELD,
    SPIN,
    FreedomSpec,
    MovingBasisParams,
    StateVector,
    adjust_cutoff,
    basis_state,
    coherent_state,
    displace_slice,
    expectation,
    move_coords,
    number,
    destroy,
    product_state,
    recenter,
)
from qtraj.hilbert import row_dot, row_norm2, used_block, used_view
from qtraj.operators import compile_operator


def displacement_matrix(dim, delta):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return expm(delta * a.conj().T - np.conj(delta) * a)


def test_displaced_vacuum_is_coherent():
    dim = 32
    delta = 0.7 + 0.3j
    coeffs = np.zeros(dim, dtype=complex)
    coeffs[0] = 1.0
    displace_slice(coeffs, -delta, 1e-12)  # D(delta) = displace by -(-delta)
    c0 = math.exp(-0.5 * abs(delta) ** 2)
    for n in range(8):
        want = c0 * delta ** n / math.sqrt(math.factorial(n))
        assert abs(coeffs[n] - want) < 1e-10


def test_displacement_matches_expm():
    rng = np.random.default_rng(21)
    dim = 32
    for _ in range(6):
        delta = complex(rng.standard_normal(), rng.standard_normal()) * 0.6
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        v[-8:] = 0.0  # keep support away from the truncation edge
        got = v.copy()
        displace_slice(got, delta, 1e-13)
        want = displacement_matrix(dim, -delta) @ v
        assert np.abs(got - want).max() < 1e-8


def test_displacement_round_trip_and_unitarity():
    rng = np.random.default_rng(4)
    dim = 40
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v[-12:] = 0.0
    v /= np.linalg.norm(v)
    acc = 1e-11
    w = v.copy()
    displace_slice(w, 0.9 - 0.4j, acc)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-9
    displace_slice(w, -(0.9 - 0.4j), acc)
    assert np.abs(w - v).max() < 10 * acc * 100  # series tail accumulates


def test_move_coords_makes_coherent_local_vacuum():
    alpha = 1.1 - 0.6j
    psi = coherent_state(30, alpha)
    move_coords(psi, alpha, 0, 1e-12)
    assert psi.freedoms[0].center == pytest.approx(alpha)
    probs = np.abs(psi.amps) ** 2
    assert probs[0] == pytest.approx(1.0, abs=1e-9)
    # physical <a> and <n> unchanged by the frame move
    assert expectation(destroy(0), psi) == pytest.approx(alpha, abs=1e-9)
    assert expectation(number(0), psi) == pytest.approx(abs(alpha) ** 2, abs=1e-8)


def test_move_coords_preserves_physical_overlaps():
    # moving the frame is unitary on the physical state: the global phase
    # convention keeps inner products with moved copies consistent
    psi = coherent_state(25, 0.5 + 0.2j)
    phi = psi.copy()
    d = -0.3 + 0.8j
    move_coords(psi, d, 0, 1e-12)
    move_coords(phi, d, 0, 1e-12)
    assert psi.inner(phi) == pytest.approx(1.0, abs=1e-9)
    assert psi.norm() == pytest.approx(1.0, abs=1e-10)


def test_move_coords_spin_rejected():
    psi = basis_state(2, 0, SPIN)
    with pytest.raises(TypeError):
        move_coords(psi, 1.0, 0, 1e-10)


def test_recenter_tracks_coherent_amplitude():
    alpha = 0.9 + 0.4j
    psi = coherent_state(30, alpha)
    delta = recenter(psi, 0, 1e-10)
    assert delta == pytest.approx(alpha, abs=1e-8)
    assert psi.freedoms[0].center == pytest.approx(alpha, abs=1e-8)
    assert expectation(destroy(0), psi) == pytest.approx(alpha, abs=1e-8)


def test_recenter_skips_small_shifts():
    psi = basis_state(10, 0)  # vacuum, <a> = 0
    delta = recenter(psi, 0, 1e-6)
    assert delta == 0.0
    assert psi.freedoms[0].center == 0.0


def test_adjust_cutoff_shrinks_to_support():
    amps = np.zeros(50, dtype=complex)
    amps[0] = amps[1] = math.sqrt(0.5)
    psi = StateVector([FreedomSpec(FIELD, 50)], amps)
    d = adjust_cutoff(psi, 0, 0.01, 2)
    assert d == 4
    assert psi.freedoms[0].dim_used == 4
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_adjust_cutoff_keeps_uniform_state():
    amps = np.full(10, 1.0 / math.sqrt(10), dtype=complex)
    psi = StateVector([FreedomSpec(FIELD, 10)], amps)
    d = adjust_cutoff(psi, 0, 0.01, 2)
    assert d == 10


def test_adjust_cutoff_grows_under_pressure():
    amps = np.zeros(20, dtype=complex)
    amps[:8] = 1.0
    amps /= np.linalg.norm(amps)
    psi = StateVector([FreedomSpec(FIELD, 20, dim_used=3)], amps.copy())
    # slots >= dim_used hold weight: contract says they are zero, so zero them
    psi.amps[3:] = 0.0
    psi.normalize()
    # now concentrate weight at the top of the used window
    psi.amps[:3] = [0.1, 0.1, 0.99]
    psi.normalize()
    d = adjust_cutoff(psi, 0, 0.001, 2)
    assert d > 3


def test_adjust_cutoff_discard_renormalizes():
    amps = np.zeros(12, dtype=complex)
    amps[0] = math.sqrt(0.999)
    amps[9] = math.sqrt(0.001)
    psi = StateVector([FreedomSpec(FIELD, 12)], amps)
    d = adjust_cutoff(psi, 0, 0.01, 1)
    assert d < 9
    assert psi.amps[9] == 0.0
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_adjust_cutoff_multifreedom_uses_marginals():
    # support up to level k keeps dim_used = k + 1 + pad so the top pad
    # slots stay empty
    psi = product_state([basis_state(8, 1), basis_state(6, 2)])
    d0 = adjust_cutoff(psi, 0, 0.01, 2)
    d1 = adjust_cutoff(psi, 1, 0.01, 2)
    assert d0 == 4 and d1 == 5
    assert psi.basis_size() == 20
    assert expectation(number(1), psi) == pytest.approx(2.0, abs=1e-12)


def test_adjust_cutoff_spin_rejected():
    psi = basis_state(2, 0, SPIN)
    with pytest.raises(TypeError):
        adjust_cutoff(psi, 0, 0.01, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        MovingBasisParams(n_moving=-1)
    with pytest.raises(ValueError):
        MovingBasisParams(n_moving=1, cutoff_epsilon=0.6)
    with pytest.raises(ValueError):
        MovingBasisParams(n_moving=1, pad_size=0)
    with pytest.raises(ValueError):
        MovingBasisParams(n_moving=1, shift_accuracy=0.0)


def test_large_displacement_uses_substeps():
    # |delta| = 3 forces the series into substeps but stays accurate
    dim = 48
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    displace_slice(v, -3.0, 1e-12)
    c0 = math.exp(-4.5)
    assert abs(v[0] - c0) < 1e-9
    assert abs(np.linalg.norm(v) - 1.0) < 1e-8


def _full_scan_cutoff(state, freedom, epsilon, pad_size):
    """adjust_cutoff's rule evaluated on slot sums over the whole allocation."""
    fr = state.freedoms[freedom]
    full = state.amps.reshape(tuple(f.dim_alloc for f in state.freedoms))
    others = tuple(i for i in range(full.ndim) if i != freedom)
    slotp = (np.abs(full) ** 2).sum(axis=others)
    thresh = epsilon * slotp.sum()

    def top(d):
        return slotp[max(0, d - pad_size):d].sum()

    d = fr.dim_used
    while d < fr.dim_alloc and top(d) > thresh:
        d = min(d + pad_size, fr.dim_alloc)
    discarded = 0.0
    while d > 1 and top(d - 1) <= thresh and discarded + slotp[d - 1] <= thresh:
        discarded += slotp[d - 1]
        d -= 1
    ix = [slice(None)] * full.ndim
    ix[freedom] = slice(d, None)
    full[tuple(ix)] = 0
    fr.dim_used = d
    if discarded > 0.0:
        state.normalize()
    return d


def test_adjust_cutoff_on_used_block_equals_full_allocation_scan():
    # only the used block can carry probability, so scanning it alone must
    # pick the same dimension and leave the same state as a full scan
    rng = np.random.default_rng(77)
    changed = 0
    for _ in range(300):
        alloc = (int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(2, 9)))
        frs = [FreedomSpec(FIELD, alloc[0], int(rng.integers(1, alloc[0] + 1)), 0.3 - 0.1j),
               FreedomSpec(FIELD, alloc[1], int(rng.integers(1, alloc[1] + 1))),
               FreedomSpec(FIELD, alloc[2], int(rng.integers(1, alloc[2] + 1)))]
        used = tuple(f.dim_used for f in frs)
        # geometric fall-off along each freedom, so both growth and shrinking occur
        rates = rng.uniform(0.05, 1.5, size=3)
        profile = np.einsum("i,j,k->ijk", *(r ** np.arange(u) for r, u in zip(rates, used)))
        block = profile * (rng.standard_normal(used) + 1j * rng.standard_normal(used))
        psi = StateVector(frs, np.zeros(math.prod(alloc), dtype=complex))
        psi.amps.reshape(alloc)[: used[0], : used[1], : used[2]] = block
        psi.normalize()
        freedom = int(rng.integers(0, 3))
        eps = float(rng.choice([1e-6, 1e-3, 0.01, 0.2]))
        pad = int(rng.integers(1, 4))
        ref = psi.copy()
        d = adjust_cutoff(psi, freedom, eps, pad)
        assert d == _full_scan_cutoff(ref, freedom, eps, pad)
        assert [f.dim_used for f in psi.freedoms] == [f.dim_used for f in ref.freedoms]
        assert np.array_equal(psi.amps, ref.amps)
        changed += d != used[freedom]
    assert changed > 100


def _compiled_recenter(state, freedom, shift_accuracy):
    """recenter as it was computed through a compiled destroy(freedom)."""
    local = [f.copy() for f in state.freedoms]
    local[freedom].center = 0j  # local annihilation, no offset
    y = used_block(state.as2d(), state.freedoms)
    n2 = float(row_norm2(y)[0])
    if n2 == 0.0:
        return 0j
    a_local = compile_operator(destroy(freedom), local)
    delta = complex(row_dot(y, a_local.apply(y))[0]) / n2
    if abs(delta) < shift_accuracy:
        return 0j
    move_coords(state, delta, freedom, shift_accuracy)
    return delta


def test_recenter_matches_compiled_destroy_bit_for_bit():
    # the ladder along the freedom's axis must give the shift, and so the
    # amplitudes, that applying a compiled local destroy operator gave
    rng = np.random.default_rng(31)
    shifted = 0
    for _ in range(300):
        frs = [FreedomSpec(FIELD, int(rng.integers(1, 8)), -1,
                           complex(rng.standard_normal(), rng.standard_normal())),
               FreedomSpec(SPIN, 2),
               FreedomSpec(ATOM, 3, int(rng.integers(1, 4))),
               FreedomSpec(FIELD, int(rng.integers(2, 7)), -1, 0.4 - 0.3j)]
        for f in (frs[0], frs[3]):
            f.dim_used = int(rng.integers(1, f.dim_alloc + 1))
        psi = StateVector(frs, np.zeros(math.prod(f.dim_alloc for f in frs), dtype=complex))
        view = used_view(psi.as2d(), psi.freedoms)
        view[...] = rng.standard_normal(view.shape) + 1j * rng.standard_normal(view.shape)
        freedom = int(rng.choice([0, 3]))
        accuracy = float(rng.choice([1e-9, 1e-3, 0.5]))
        ref = psi.copy()
        want = _compiled_recenter(ref, freedom, accuracy)
        got = recenter(psi, freedom, accuracy)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()
        assert np.array_equal(psi.amps, ref.amps)
        assert [f.center for f in psi.freedoms] == [f.center for f in ref.freedoms]
        shifted += got != 0
    assert shifted > 100
