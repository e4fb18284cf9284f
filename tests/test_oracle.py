"""Dense master-equation integrator and ensemble comparison report."""

import math

import numpy as np
import pytest

from qtraj import (
    MAX_ORACLE_DIM,
    ModelOperators,
    SPIN,
    TimeFnMul,
    basis_state,
    coherent_state,
    compare_ensemble,
    density_from_state,
    dense_model,
    destroy,
    integrate_master,
    lindblad_rhs,
    number,
    oracle_expectations,
    product_state,
    sigma_minus,
    sigma_plus,
    to_dense,
)


def cavity_mats(dim, gamma):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    h = np.zeros((dim, dim), dtype=complex)
    return h, [math.sqrt(2 * gamma) * a]


# --- right-hand side ----------------------------------------------------------


def test_rhs_photon_decay_rate():
    # d<n>/dt = -2 gamma <n> for the damped cavity
    dim, gamma = 6, 0.5
    h, ls = cavity_mats(dim, gamma)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[1, 1] = 1.0
    nmat = np.diag(np.arange(dim, dtype=float))
    rate = np.trace(nmat @ lindblad_rhs(rho, h, ls)).real
    assert rate == pytest.approx(-2 * gamma, abs=1e-12)


def test_rhs_commuting_hamiltonian_stationary():
    dim = 5
    h = np.diag(np.arange(dim, dtype=float)).astype(complex)
    rho = np.diag(np.linspace(0.4, 0.0, dim)).astype(complex)
    rho /= np.trace(rho)
    assert np.abs(lindblad_rhs(rho, h, [])).max() < 1e-15


def test_rhs_is_traceless():
    rng = np.random.default_rng(4)
    dim = 7
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (h + h.conj().T)
    ls = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))]
    out = lindblad_rhs(rho, h, ls)
    assert abs(np.trace(out)) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_rhs_dimension_mismatch():
    rho = np.eye(3, dtype=complex) / 3
    with pytest.raises(ValueError):
        lindblad_rhs(rho, np.eye(4, dtype=complex), [])
    with pytest.raises(ValueError):
        lindblad_rhs(rho, np.eye(3, dtype=complex), [np.eye(2, dtype=complex)])


# --- integration accuracy -------------------------------------------------------


def test_two_level_decay_analytic():
    kappa = 0.1
    sm = np.array([[0, 1], [0, 0]], dtype=complex)  # lowering, index 0 = down
    ls = [math.sqrt(2 * kappa) * sm]
    h = np.zeros((2, 2), dtype=complex)
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[1, 1] = 1.0
    times = np.linspace(0.0, 5.0, 11)
    rhos = integrate_master(rho0, h, ls, times, dt_oracle=1e-4)
    for t, rho in zip(times, rhos):
        assert rho[1, 1].real == pytest.approx(math.exp(-2 * kappa * t), abs=1e-8)
        assert abs(np.trace(rho) - 1.0) < 1e-10


def test_fock_two_decay():
    dim, gamma = 8, 0.25
    h, ls = cavity_mats(dim, gamma)
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[2, 2] = 1.0
    times = np.linspace(0.0, 2.0, 6)
    nmat = np.diag(np.arange(dim, dtype=float))
    rhos = integrate_master(rho0, h, ls, times, dt_oracle=1e-3)
    for t, rho in zip(times, rhos):
        want = 2.0 * math.exp(-2 * gamma * t)
        assert np.trace(nmat @ rho).real == pytest.approx(want, abs=1e-6)


def test_closed_system_preserves_purity():
    g = 1.3
    h = g * np.array([[0, 1], [1, 0]], dtype=complex)
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    times = np.linspace(0.0, 2.0, 5)
    rhos = integrate_master(rho0, h, [], times, dt_oracle=1e-3)
    for t, rho in zip(times, rhos):
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-8)
        p_up = rho[1, 1].real
        assert p_up == pytest.approx(math.sin(g * t) ** 2, abs=1e-8)


def test_positivity_abort():
    rho0 = np.diag([1.5, -0.5]).astype(complex)
    h = np.zeros((2, 2), dtype=complex)
    with pytest.raises(RuntimeError, match="positivity"):
        integrate_master(rho0, h, [], [0.0, 0.1], dt_oracle=1e-3)


def test_grid_validation():
    rho0 = np.eye(2, dtype=complex) / 2
    h = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        integrate_master(rho0, h, [], [0.0, 0.1, 0.1], dt_oracle=1e-3)
    with pytest.raises(ValueError):
        integrate_master(rho0, h, [], [], dt_oracle=1e-3)
    with pytest.raises(ValueError):
        integrate_master(rho0, h, [], [0.0, 0.1], dt_oracle=-1.0)


def test_dimension_cap():
    d = MAX_ORACLE_DIM + 1
    rho0 = np.eye(d, dtype=complex) / d
    with pytest.raises(ValueError, match="cap"):
        integrate_master(rho0, np.zeros((d, d), dtype=complex), [], [0.0, 1.0], 1e-2)
    model = ModelOperators(number(0), [])
    with pytest.raises(ValueError, match="cap"):
        dense_model(model, (d,))


# --- expectations through the model route ---------------------------------------


def test_oracle_expectations_match_analytic_decay():
    gamma = 0.5
    model = ModelOperators(number(0), [math.sqrt(2 * gamma) * destroy(0)])
    psi0 = basis_state(8, 1)
    times = np.linspace(0.0, 3.0, 7)
    vals = oracle_expectations(psi0, model, (number(0),), times, dt_oracle=1e-3)
    want = np.exp(-2 * gamma * times)
    assert np.abs(vals[0] - want).max() < 1e-7


def test_density_from_state_uses_truncation():
    psi = coherent_state(12, 0.3)
    rho = density_from_state(psi)
    assert rho.shape == (12, 12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    psi2 = basis_state(10, 0)
    psi2.freedoms[0].dim_used = 3
    assert density_from_state(psi2).shape == (3, 3)


def test_time_dependent_builder_equals_fixed_for_constant_fn():
    gamma = 0.3
    base = ModelOperators(number(0), [math.sqrt(2 * gamma) * destroy(0)])
    h_t = TimeFnMul(lambda t: 1.0, number(0))
    timedep = ModelOperators(h_t, [math.sqrt(2 * gamma) * destroy(0)])
    psi0 = basis_state(6, 1)
    times = np.linspace(0.0, 1.0, 4)
    a = oracle_expectations(psi0, base, (number(0),), times, dt_oracle=1e-3)
    b = oracle_expectations(psi0, timedep, (number(0),), times, dt_oracle=1e-3)
    assert np.abs(a - b).max() < 1e-9


def test_dense_model_routes():
    model = ModelOperators(number(0), [destroy(0)])
    h, ls, builder = dense_model(model, (4,))
    assert builder is None
    assert h.shape == (4, 4) and len(ls) == 1
    timedep = ModelOperators(TimeFnMul(lambda t: t, number(0)), [destroy(0)])
    h, ls, builder = dense_model(timedep, (4,))
    assert h is None and ls is None
    h2, ls2 = builder(2.0)
    assert np.abs(h2 - 2.0 * to_dense(number(0), (4,))).max() < 1e-14


# --- comparison report -----------------------------------------------------------


def test_compare_ensemble_pass_and_fail():
    times = np.array([0.0, 1.0, 2.0])
    oracle = np.array([[1.0, 0.5, 0.25]], dtype=complex)
    se = np.full((1, 3), 0.01)
    means = oracle + 0.02  # within 3*hypot(se,se) ~ 0.042
    rep = compare_ensemble(times, means, se, se, oracle, names=["n"])
    assert rep.passed and rep.n_fail == 0
    assert "PASS" in rep.table and "n" in rep.table
    assert str(rep) == rep.table

    means = oracle + 0.2
    rep = compare_ensemble(times, means, se, se, oracle, names=["n"])
    assert not rep.passed
    assert rep.n_fail == 3
    assert "FAIL" in rep.table
    assert rep.worst[0] == "n"


def test_compare_ensemble_abs_floor():
    # zero SE still passes tiny deviations through the absolute floor
    times = np.array([0.0])
    oracle = np.array([[1.0]], dtype=complex)
    means = np.array([[1.0005]], dtype=complex)
    zero = np.zeros((1, 1))
    rep = compare_ensemble(times, means, zero, zero, oracle)
    assert rep.passed


def test_compare_ensemble_grid_mismatch():
    times = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        compare_ensemble(times, np.zeros((1, 2)), np.zeros((1, 2)),
                         np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        compare_ensemble(np.array([0.0]), np.zeros((1, 2)), np.zeros((1, 2)),
                         np.zeros((1, 2)), np.zeros((1, 2)))


def test_oracle_multi_freedom():
    # decaying atom coupled to nothing, product with a 3-level field
    kappa = 0.2
    model = ModelOperators(None, [math.sqrt(2 * kappa) * sigma_minus(0)])
    psi0 = product_state([basis_state(2, 1, SPIN), basis_state(3, 0)])
    times = np.linspace(0.0, 2.0, 5)
    vals = oracle_expectations(psi0, model, (sigma_plus(0) * sigma_minus(0),), times,
                               dt_oracle=1e-3)
    want = np.exp(-2 * kappa * times)
    assert np.abs(vals[0] - want).max() < 1e-7
