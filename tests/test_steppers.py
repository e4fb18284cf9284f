"""Unraveling drifts, integrators, noise, and jump logic.

Drift vectors are validated against the same formulas evaluated with dense
matrices; integrator order is validated against a closed-form Rabi solution.
"""

import dataclasses
import cmath
import io
import math
import pathlib

import numpy as np
import pytest

from qtraj import (
    ATOM,
    FIELD,
    SPIN,
    IntegratorConfig,
    ModelOperators,
    MovingBasisParams,
    NoiseSource,
    OutputSpec,
    RunConfig,
    StateVector,
    FreedomSpec,
    Unraveling,
    apply,
    basis_state,
    coherent_state,
    destroy,
    drift,
    create,
    make_stepper,
    momentum,
    number,
    position,
    rk4_step,
    rkck_adaptive,
    run_single,
    sigma_minus,
    sigma_plus,
    sigma_z,
    to_dense,
    transition,
)
from qtraj.modelfile import build_model, parse_model
from qtraj.operators import CenteredForm, DiagonalOperator, compile_operator
from qtraj import steppers
from qtraj.hilbert import row_norm, row_norm2
from qtraj.steppers import StepError, _drift2d


def dense_drift(y, hmat, lmats, unraveling):
    """Same drift expressions, straight matrix algebra."""
    n2 = float(np.vdot(y, y).real)
    out = np.zeros_like(y)
    if hmat is not None:
        out += -1j * (hmat @ y)
    for l in lmats:
        ly = l @ y
        ll = float(np.vdot(ly, ly).real) / n2
        lexp = np.vdot(y, ly) / n2
        ldly = l.conj().T @ ly
        if unraveling is Unraveling.QSD:
            out += np.conj(lexp) * ly - 0.5 * ldly - 0.5 * np.conj(lexp) * lexp * y
        elif unraveling is Unraveling.JUMP:
            out += 0.5 * ll * y - 0.5 * ldly
        else:
            out += (np.conj(lexp) * ly - 0.5 * ldly + 0.5 * ll * y
                    - np.conj(lexp) * lexp * y)
    return out


def example_model():
    h = (position(0) + 0.4 * number(0)) * 1.0 + 1.3 * (sigma_plus(1) * sigma_minus(1))
    ls = [0.8 * destroy(0), (0.3 - 0.2j) * sigma_minus(1)]
    return ModelOperators(h, ls), (5, 2)


def rand_psi(rng, dims, ptypes):
    total = math.prod(dims)
    amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    psi = StateVector([FreedomSpec(p, d) for p, d in zip(ptypes, dims)], amps)
    return psi.normalize()


class Draws:
    """A stand-in for a chunk's NoiseSource: hands each row its given uniforms in order.

    Draws(*rows): rows[b] lists the uniforms of row b.  A jump row draws
    its first threshold, then a channel uniform and its next threshold per
    jump; a threshold of 0 is never reached.
    """

    def __init__(self, *rows):
        self.rows = [list(values) for values in rows]

    def uniforms(self, n, cols=None):
        cols = range(len(self.rows)) if cols is None else cols
        out = np.empty((n, len(cols)))
        for i, c in enumerate(cols):
            taken, self.rows[c] = self.rows[c][:n], self.rows[c][n:]
            assert len(taken) == n, "the row drew more uniforms than the test gave it"
            out[:, i] = taken
        return out


def never(b):
    """The noise of b rows that never jump."""
    return Draws(*[[0.0]] * b)


# the largest uniform a stream draws
U_MAX = np.nextafter(1.0, 0.0)


def test_drift_matches_dense_all_unravelings():
    rng = np.random.default_rng(31)
    model, dims = example_model()
    hmat = to_dense(model.hamiltonian, dims)
    lmats = [to_dense(l, dims) for l in model.lindblads]
    for unr in Unraveling:
        for _ in range(5):
            psi = rand_psi(rng, dims, (FIELD, SPIN))
            got = drift(psi, model, unr).amps
            want = dense_drift(psi.amps, hmat, lmats, unr)
            assert np.abs(got - want).max() < 1e-12


def test_drift_norm_identities():
    # jump drifts preserve the norm to first order; the QSD drift trades
    # norm against the Ito noise term
    rng = np.random.default_rng(13)
    model, dims = example_model()
    for _ in range(5):
        psi = rand_psi(rng, dims, (FIELD, SPIN))
        for unr in (Unraveling.JUMP, Unraveling.ORTHO_JUMP):
            d = drift(psi, model, unr)
            assert abs(psi.inner(d).real) < 1e-12
        d = drift(psi, model, Unraveling.QSD)
        correction = 0.0
        for l in model.lindblads:
            ly = apply(l, psi)
            correction += 0.5 * (ly.norm() ** 2 - abs(psi.inner(ly)) ** 2)
        assert abs(psi.inner(d).real + correction) < 1e-12


def test_drift_is_homogeneous():
    # expectations are computed on the normalized state, so scaling commutes;
    # RK stages rely on this
    rng = np.random.default_rng(8)
    model, dims = example_model()
    psi = rand_psi(rng, dims, (FIELD, SPIN))
    y = psi.as2d()
    d1 = _drift2d(y, psi.freedoms, model, Unraveling.QSD, 0.0)
    d2 = _drift2d(2.5 * y, psi.freedoms, model, Unraveling.QSD, 0.0)
    assert np.abs(d2 - 2.5 * d1).max() < 1e-12


def test_no_lindblads_all_unravelings_identical():
    model = ModelOperators(1.1 * (sigma_plus(0) + sigma_minus(0)), [])
    psi = basis_state(2, 0, SPIN)
    outs = []
    for unr in Unraveling:
        stepper = make_stepper(model, unr, 0.01)
        y = psi.as2d().copy()
        noise = np.zeros((0, 1), dtype=complex) if unr is Unraveling.QSD \
            else Draws([])  # no channel: the row draws nothing
        out, _ = stepper.step(y, psi.freedoms, 0.0, noise)
        outs.append(out.copy())
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


# --- noise ------------------------------------------------------------------


def test_wiener_moments():
    dt = 0.01
    xi = NoiseSource(123, [0]).wiener(40000, 2, dt)[0]
    assert xi.shape == (40000, 2)
    assert abs(xi.mean()) < 3 * math.sqrt(dt / 40000)
    # M dxi_i dxi_j = 0, M conj(dxi_i) dxi_j = delta_ij dt
    sq = (xi[:, 0] * xi[:, 0]).mean()
    assert abs(sq) < 3 * dt / math.sqrt(40000)
    var = (np.conj(xi[:, 0]) * xi[:, 0]).mean().real
    assert var == pytest.approx(dt, rel=0.03)
    cross = (np.conj(xi[:, 0]) * xi[:, 1]).mean()
    assert abs(cross) < 3 * dt / math.sqrt(40000)


def test_noise_streams_reproducible_and_independent():
    a = NoiseSource(9, [0]).wiener(100, 1, 0.1)
    b = NoiseSource(9, [0]).wiener(100, 1, 0.1)
    c = NoiseSource(9, [1]).wiener(100, 1, 0.1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    u1 = NoiseSource(9, [0]).uniforms(50)
    u2 = NoiseSource(9, [0]).uniforms(50)
    assert u1.shape == (50, 1)
    assert np.array_equal(u1, u2)
    assert np.all((u1 >= 0) & (u1 < 1))


def test_noise_draws_into_given_buffers_as_fresh_draws():
    # the determinism contract: increments are consecutive standard normals
    # (re, im) scaled by sqrt(dt/2), whether drawn fresh or into a row of a
    # preallocated block
    seed, k, dt = 21, 4, 0.03
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(k,))
    g = np.random.Generator(np.random.PCG64(ss)).standard_normal((5, 3, 2))
    want = (g[..., 0] + 1j * g[..., 1]) * np.sqrt(0.5 * dt)
    block = np.zeros((2, 5, 3), dtype=complex)
    out = NoiseSource(seed, [k]).wiener(5, 3, dt, out=block[1:])
    assert np.shares_memory(out, block[1])
    assert block[1].tobytes() == want.tobytes()
    assert NoiseSource(seed, [k]).wiener(5, 3, dt)[0].tobytes() == want.tobytes()
    assert not block[0].any()


def _seed_sequence(seed, k):
    return np.random.SeedSequence(entropy=seed, spawn_key=(k,))


def _numpy_stream(seed, k):
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, k)))


STREAM_SEEDS = [0, 1, 2**32 + 5, 2**64, 2**128 - 1, 2**200 + 17, 2**128, 2**160 - 1]
# one word, two words across 2^32, three across 2^64, mixed in one call
STREAM_INDICES = [0, 1, 2, 7, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 7, 2**63 + 5,
                  2**64 - 1, 2**64, 2**64 + 3, 2**97 + 11]


def test_stream_states_equal_numpy_seed_sequence():
    from qtraj.steppers import _stream_states

    rng = np.random.default_rng(8)
    seeds = STREAM_SEEDS + [int(rng.integers(2**62)) for _ in range(6)] \
        + [int(rng.integers(2**62)) << bits for bits in (40, 90, 150)]
    indices = STREAM_INDICES + [int(k) for k in rng.integers(2**32, size=8)] \
        + [int(k) << 20 for k in rng.integers(2**32, size=4)]
    for seed in seeds:
        for streams in (indices, range(40), [2**32 - 1], [5, 2**32 + 1, 3]):
            got = _stream_states(seed, streams)
            assert got.shape == (len(streams), 4) and got.dtype == np.uint64
            for row, k in zip(got, streams):
                assert row.tobytes() == _seed_sequence(seed, k).generate_state(
                    4, np.uint64).tobytes(), (seed, k)
    with pytest.raises(ValueError):
        _stream_states(3, [0, -1])
    with pytest.raises(ValueError):
        _stream_states(-3, [0])


def test_batch_sources_draw_numpy_streams():
    # the determinism contract: stream k of seed s is
    # Generator(PCG64(SeedSequence(entropy=s, spawn_key=(k,)))), bit for bit,
    # whether it is drawn alone or in a whole chunk
    dt = 0.02
    for seed in STREAM_SEEDS:
        streams = [9, 0, 2**32 + 4, 3]
        normals = NoiseSource(seed, streams).wiener(6, 2, dt)
        uniforms = NoiseSource(seed, streams).uniforms(5)
        for b, k in enumerate(streams):
            g = _numpy_stream(seed, k).standard_normal((6, 2, 2))
            want = (g[..., 0] + 1j * g[..., 1]) * np.sqrt(0.5 * dt)
            assert normals[b].tobytes() == want.tobytes()
            assert uniforms[:, b].tobytes() == _numpy_stream(seed, k).random(5).tobytes()
            alone = NoiseSource(seed, [k]).uniforms(9)[:, 0]
            assert alone.tobytes() == _numpy_stream(seed, k).random(9).tobytes()


def test_chunk_uniforms_over_changing_columns_equal_numpy_streams():
    # rounds over all columns and over changing subsets in any order: every
    # stream still hands out its own numpy random() sequence, one draw after
    # another, with indices of one, two and three uint32 words in one chunk
    streams = STREAM_INDICES[::2] + [5, 2**64 + 1, 2**97 + 11, 3]
    rounds = [(1, None), (2, [3, 0, 9]), (3, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (2, [10]),
              (1, None), (4, [8, 2]), (2, np.array([0, 10, 5]))]
    for seed in STREAM_SEEDS:
        src = NoiseSource(seed, streams)
        got = [[] for _ in streams]
        for n, cols in rounds:
            u = src.uniforms(n, cols)
            assert u.shape == (n, len(streams) if cols is None else len(cols))
            for i, c in enumerate(range(len(streams)) if cols is None else cols):
                got[c].extend(u[:, i])
        for b, k in enumerate(streams):
            want = _numpy_stream(seed, k).random(len(got[b]))
            assert np.array(got[b]).tobytes() == want.tobytes(), (seed, k)


def test_chunk_of_one_stream_draws_as_the_stream_in_a_wide_chunk():
    streams = list(range(300)) + STREAM_INDICES
    for seed in STREAM_SEEDS:
        wide = NoiseSource(seed, streams)
        first = wide.uniforms(1)
        for b in (0, 150, 299, 300, len(streams) - 1):
            alone = NoiseSource(seed, [streams[b]])
            assert alone.uniforms(1)[0, 0] == first[0, b]
            assert alone.uniforms(3).tobytes() == wide.uniforms(3, [b]).tobytes()
        assert (first >= 0.0).all() and (first < 1.0).all()


def test_chunk_wiener_equals_numpy_normals():
    dt = 0.05
    streams = STREAM_INDICES[1::3] + [6]
    for seed in STREAM_SEEDS:
        src = NoiseSource(seed, streams)
        block = np.empty((len(streams), 4, 3), dtype=complex)
        rounds = [src.wiener(4, 3, dt, out=block).copy(), src.wiener(4, 3, dt)]
        for b, k in enumerate(streams):
            g = _numpy_stream(seed, k).standard_normal((8, 3, 2))
            want = (g[..., 0] + 1j * g[..., 1]) * np.sqrt(0.5 * dt)
            got = np.concatenate([r[b] for r in rounds])
            assert got.tobytes() == want.tobytes(), (seed, k)


def test_source_draws_either_normals_or_uniforms():
    # the two kinds would each start the streams from their beginning
    src = NoiseSource(3, [0, 1])
    src.uniforms(2)
    with pytest.raises(ValueError):
        src.wiener(1, 1, 0.1)
    src = NoiseSource(3, [0, 1])
    src.wiener(1, 1, 0.1)
    with pytest.raises(ValueError):
        src.uniforms(1)


# --- integrators ------------------------------------------------------------


def rabi_setup(g=1.3):
    model = ModelOperators(g * (sigma_plus(0) + sigma_minus(0)), [])
    psi = basis_state(2, 0, SPIN)
    freedoms = psi.freedoms
    f = lambda y, t: _drift2d(y, freedoms, model, Unraveling.QSD, t)
    return f, psi.as2d().copy(), g


def rabi_error(f, y0, g, dt, T=1.0):
    y = y0.copy()
    t = 0.0
    nsteps = round(T / dt)
    for _ in range(nsteps):
        y = rk4_step(f, y, t, dt)
        t += dt
    p_up = abs(y[1, 0]) ** 2 / (abs(y[0, 0]) ** 2 + abs(y[1, 0]) ** 2)
    return abs(p_up - math.sin(g * T) ** 2)


def test_rk4_fourth_order_convergence():
    f, y0, g = rabi_setup()
    e1 = rabi_error(f, y0, g, 0.02)
    e2 = rabi_error(f, y0, g, 0.01)
    ratio = e1 / e2
    assert 12.0 < ratio < 20.0


def test_rkck_meets_accuracy_against_rabi():
    f, y0, g = rabi_setup()
    y = y0.copy()
    h = None
    t = 0.0
    total_acc = 0
    for _ in range(10):
        y, nacc, h = rkck_adaptive(f, y, t, 0.1, 1e-8, h)
        t += 0.1
        total_acc += nacc
    p_up = abs(y[1, 0]) ** 2 / (abs(y[0, 0]) ** 2 + abs(y[1, 0]) ** 2)
    assert abs(p_up - math.sin(g * 1.0) ** 2) < 1e-6
    assert total_acc >= 10


def test_rkck_step_underflow_raises():
    f = lambda y, t: 1e280 * y
    y = np.ones((2, 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError):
            rkck_adaptive(f, y, 0.0, 1.0, 1e-10)


def test_rkck_underflow_fails_row_0():
    f = lambda y, t: 1e280 * y
    y = np.ones((2, 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepError) as err:
            rkck_adaptive(f, y, 0.0, 1.0, 1e-10)
    assert err.value.row == 0


def test_rkck_underflow_names_the_stiff_row():
    # the drift of a trajectory reads only its own amplitudes: column 0,
    # with a zero first amplitude, does not move, and column 1 overflows at
    # any substep
    f = lambda y, t: 1e280 * np.abs(y[:1]) * y
    y = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex).T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepError, match="underflow") as err:
            rkck_adaptive(f, y, 0.0, 1.0, 1e-10)
    assert err.value.row == 1
    out, nacc, _ = rkck_adaptive(f, y[:, :1].copy(), 0.0, 1.0, 1e-10)
    assert out.tobytes() == y[:, :1].copy().tobytes() and nacc == 1


def test_rkck_names_the_row_whose_time_factor_overflows():
    # column 0 (dt = 0) finishes at once, so column 2 is the second column
    # still stepping; its clock passes the overflow of exp(400 t) at 1.7745
    op = compile_operator((lambda t: cmath.exp(400 * t)) * number(0), [FreedomSpec(FIELD, 3)])
    y = np.zeros((3, 3), dtype=complex)
    y[0] = 1.0  # the vacuum, which n(0) does not move
    with pytest.raises(StepError, match="overflows at t=1.8") as err:
        rkck_adaptive(lambda v, s: -1j * op.apply(v, s), y, np.array([0.0, 0.0, 1.7]),
                      np.array([0.0, 0.1, 0.1]), 1e-8)
    assert err.value.row == 2


def test_rkck_rows_keep_their_own_substeps():
    # each trajectory rotates at 40 |y_0|, |y_0| its own first amplitude,
    # so a slow and a fast one take the substeps each needs, get the same
    # bits as alone, and hand back their own next sizes
    f = lambda y, t: -40j * np.abs(y[:1]) * y
    y = np.array([[0.025, 0.5], [1.0, 0.5]], dtype=complex).T.copy()
    got, nacc, h = rkck_adaptive(f, y, 0.0, 1.0, 1e-8)
    alone = [rkck_adaptive(f, y[:, i:i + 1].copy(), 0.0, 1.0, 1e-8) for i in range(2)]
    assert got.tobytes() == np.concatenate([a[0] for a in alone], axis=1).tobytes()
    assert nacc == alone[0][1] + alone[1][1] and alone[0][1] < alone[1][1]
    assert h.tolist() == [a[2][0] for a in alone]

    # a 1-D state is one column: f sees 1-D states and scalar times
    def one_state(v, s):
        assert v.ndim == 1 and np.ndim(s) == 0
        return f(v[:, None], s)[:, 0]

    y1, n1, h1 = rkck_adaptive(one_state, y[:, 0].copy(), 0.0, 1.0, 1e-8)
    assert y1.tobytes() == alone[0][0][:, 0].tobytes() and n1 == alone[0][1]
    assert isinstance(h1, float) and h1 == alone[0][2][0]


def test_rkck_retries_a_rejected_substep_from_the_first_stage_it_has():
    # a first try of the whole interval is rejected by every column: y and
    # the clocks stay, so f is never called twice with the same arguments
    calls = []

    def f(v, s):
        calls.append((v.tobytes(), s.tobytes()))
        return -40j * v

    y = np.array([[1.0], [0.5j]], dtype=complex)
    out, nacc, _ = rkck_adaptive(f, y, 0.0, 1.0, 1e-8)
    assert len(calls) > 6 * nacc  # rejected substeps were tried
    assert len(set(calls)) == len(calls)
    expect = np.exp(-40j) * y
    assert np.abs(out - expect).max() < 1e-5


@pytest.mark.parametrize("unr", list(Unraveling))
def test_unstable_deterministic_advance_fails_its_row(unr):
    # H = n: row 0 (vacuum) does not move, row 1 (a coherent state with
    # levels up to ~45) sees omega*dt up to ~22, far outside RK4's
    # stability region, so its squared norm explodes in one step
    model = ModelOperators(number(0), [1e-3 * destroy(0)])
    vac, coh = basis_state(60, 0), coherent_state(60, 5.0)
    y = np.stack([vac.amps, coh.amps], axis=1)
    stepper = make_stepper(model, unr, 0.5)
    noise = (lambda: np.zeros((1, 2), dtype=complex)) if unr is Unraveling.QSD \
        else (lambda: never(2))
    with pytest.raises(StepError, match="reduce dt") as err:
        stepper.step(y, vac.freedoms, 0.0, noise())
    assert err.value.row == 1
    # the same rows at a stable step size pass, row norms untouched by the check
    out, _ = make_stepper(model, unr, 1e-3).step(y.copy(), vac.freedoms, 0.0, noise())
    assert np.abs(np.linalg.norm(out, axis=0) - 1).max() < 1e-12


def test_step_stats_list_the_rows_that_jumped():
    model = decaying_atom()
    psi = basis_state(2, 1, SPIN)
    y = np.tile(psi.as2d(), (1, 3))
    stepper = make_stepper(model, Unraveling.JUMP, 0.001)
    noise = Draws([0.0], [0.9999, 0.5, 0.0], [0.9999, 0.5, 0.0])
    _, stats = stepper.step(y.copy(), psi.freedoms, 0.0, noise)
    assert stats.jump_rows.tolist() == [1, 2]
    assert stats.jumps == 2
    # pumped and decaying at rate 8 over dt = 0.1: a row is listed once per jump
    pumped = ModelOperators(None, [math.sqrt(8.0) * sigma_plus(0), math.sqrt(8.0) * sigma_minus(0)])
    noise = Draws([0.99, 0.5, 0.0], [0.99, 0.5, 0.99, 0.5, 0.0], [0.0])
    _, stats = make_stepper(pumped, Unraveling.JUMP, 0.1).step(y.copy(), psi.freedoms, 0.0,
                                                               noise)
    assert stats.jump_rows.tolist() == [0, 1, 1]
    assert stats.jumps == 3
    _, stats = make_stepper(model, Unraveling.QSD, 0.001).step(
        y, psi.freedoms, 0.0, np.zeros((1, 3), dtype=complex))
    assert stats.jumps == 0 and stats.jump_rows.size == 0


def test_rkck_input_validation():
    f, y0, _ = rabi_setup()
    with pytest.raises(ValueError):
        rkck_adaptive(f, y0, 0.0, -1.0, 1e-8)
    with pytest.raises(ValueError):
        rkck_adaptive(f, y0, 0.0, 1.0, 0.0)


# --- jumps ------------------------------------------------------------------


def decaying_atom(kappa=0.1):
    return ModelOperators(None, [math.sqrt(2 * kappa) * sigma_minus(0)])


def test_no_jump_leaves_eigenstate_alone():
    model = decaying_atom()
    psi = basis_state(2, 1, SPIN)
    stepper = make_stepper(model, Unraveling.JUMP, 0.001)
    out, stats = stepper.step(psi.as2d().copy(), psi.freedoms, 0.0, never(1))
    assert stats.jumps == 0
    assert abs(out[1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_jump_fires_and_projects_down():
    model = decaying_atom()
    psi = basis_state(2, 1, SPIN)
    for unr in (Unraveling.JUMP, Unraveling.ORTHO_JUMP):
        stepper = make_stepper(model, unr, 0.001)
        # the survival reaches 0.9999 early in the step; after the jump the
        # ground state stays put, and the next threshold is never reached
        out, stats = stepper.step(psi.as2d().copy(), psi.freedoms, 0.0,
                                  Draws([0.9999, 0.5, 0.0]))
        assert stats.jumps == 1
        assert abs(out[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert out[1, 0] == 0.0


def test_ground_state_never_jumps():
    model = decaying_atom()
    psi = basis_state(2, 0, SPIN)
    stepper = make_stepper(model, Unraveling.JUMP, 0.001)
    # its squared norm stays exactly 1, above the largest threshold
    out, stats = stepper.step(psi.as2d().copy(), psi.freedoms, 0.0, Draws([U_MAX]))
    assert stats.jumps == 0


def test_jump_channel_selection():
    # two channels, second much stronger: a uniform near the top of the
    # cumulative range picks channel 1
    model = ModelOperators(None, [0.01 * sigma_minus(0), 2.0 * sigma_minus(0)])
    psi = (basis_state(2, 0, SPIN) + basis_state(2, 1, SPIN)).normalize()
    stepper = make_stepper(model, Unraveling.JUMP, 0.01)
    probs, lys, lexps = stepper._jump_probabilities(psi.as2d().copy(),
                                                    psi.freedoms, 0.0)
    assert probs[1, 0] > probs[0, 0] * 1000


def driven_two_channel_atom():
    # decay and dephasing of a driven atom: <sm> and <sz> are nonzero, so
    # the orthogonal jump subtracts something in both channels
    return ModelOperators(0.7 * (sigma_plus(0) + sigma_minus(0)),
                          [0.9 * sigma_minus(0), 0.6 * sigma_z(0)])


@pytest.mark.parametrize("unr", [Unraveling.JUMP, Unraveling.ORTHO_JUMP], ids=lambda u: u.value)
def test_block_jumps_equal_the_per_row_jump(unr):
    # trajectories of one block fire different channels: the block result
    # must be each one's own jump, bit for bit, and the same as jumping it
    # alone
    model = driven_two_channel_atom()
    rng = np.random.default_rng(4)
    b = 8
    y = (rng.standard_normal((b, 2)) + 1j * rng.standard_normal((b, 2))).T.copy()
    y /= np.sqrt((np.abs(y) ** 2).sum(axis=0))[None, :]
    freedoms = [FreedomSpec(SPIN, 2)]
    stepper = make_stepper(model, unr, 0.05)
    rates, lys, lexps = stepper._jump_probabilities(y, freedoms, 0.0)
    assert (rates > 1e-3).all()
    assert (lexps is None) == (unr is Unraveling.JUMP)
    channel = np.array([0, 1, 1, 1, 0, 0, 1, 0])
    u = np.where(channel == 0, 0.5 * rates[0], rates[0] + 0.5 * rates[1])
    u /= rates.sum(axis=0)
    out = stepper._jump(y, freedoms, 0.0, u)
    for r in range(b):
        alone = make_stepper(model, unr, 0.05)._jump(y[:, r:r + 1].copy(), freedoms, 0.0,
                                                      u[r:r + 1])
        assert out[:, r].tobytes() == alone[:, 0].tobytes()
        j = channel[r]
        col = lys[j, :, r:r + 1].copy()
        if unr is Unraveling.ORTHO_JUMP:
            col -= lexps[j:j + 1, r:r + 1] * y[:, r:r + 1]
            assert np.abs(lexps[j, r]) > 0.05
        assert out[:, r].tobytes() == (col / row_norm(col)[None, :])[:, 0].tobytes()

    # a step in which some rows jump, at different times and channels, and
    # the others do not: each row as it is stepped alone
    def rows():
        return [[0.0] if r % 3 == 2 else [1.0 - 1e-6 * (r + 1), r / b, 0.0] for r in range(b)]

    out, stats = stepper.step(y.copy(), freedoms, 0.0, Draws(*rows()))
    assert stats.jump_rows.tolist() == [r for r in range(b) if r % 3 != 2]
    for r in range(b):
        alone, alone_stats = make_stepper(model, unr, 0.05).step(
            y[:, r:r + 1].copy(), freedoms, 0.0, Draws(rows()[r]))
        assert out[:, r].tobytes() == alone[:, 0].tobytes()
        assert alone_stats.jumps == (r % 3 != 2)


def test_zero_norm_jump_names_the_lowest_collapsing_row():
    # rows 1 and 3 sit a hair above the ground state, and a threshold of 1
    # makes them jump at once, but sm leaves a state of norm ~1e-14; row 0
    # jumps normally, and row 2 (the ground state) never jumps
    model = ModelOperators(None, [sigma_minus(0)])
    y = np.array([[0.6, 0.8], [1.0, 1e-14], [1.0, 0.0], [1.0, 2e-14]], dtype=complex).T.copy()
    y /= np.sqrt((np.abs(y) ** 2).sum(axis=0))[None, :]
    stepper = make_stepper(model, Unraveling.JUMP, 0.01)
    noise = Draws([0.999, 0.5, 0.0], [1.0, 0.5, 0.0], [U_MAX], [1.0, 0.5, 0.0])
    with pytest.raises(StepError, match="zero-norm") as err:
        stepper.step(y, [FreedomSpec(SPIN, 2)], 0.0, noise)
    assert err.value.row == 1


def test_collapsed_qsd_row_names_its_row():
    model, dims = example_model()
    rng = np.random.default_rng(4)
    y = rng.standard_normal((3, math.prod(dims))) + 1j * rng.standard_normal((3, math.prod(dims)))
    y = (y / np.linalg.norm(y, axis=1)[:, None]).T.copy()
    y[:, 1] = 0.0
    freedoms = [FreedomSpec(FIELD, 5), FreedomSpec(SPIN, 2)]
    dxi = NoiseSource(3, [0]).wiener(3, 2, 1e-3)[0].T.copy()
    with pytest.raises(StepError, match="state norm collapsed during a step") as err:
        make_stepper(model, Unraveling.QSD, 1e-3).step(y, freedoms, 0.0, dxi)
    assert err.value.row == 1


def test_crossing_rows_equal_each_row_alone():
    # one amplitude per trajectory on a cubic y(x) = y0 + x hf0 + x^2 c2 +
    # x^3 c3, every number a dyadic; x = s/h, and the squared norm falls
    # from 1 to 1/4
    h = np.array([0.5, 0.25, 0.125])
    y0 = np.array([[1.0, 1.0j, 1.0]])
    y1 = np.array([[0.5, 0.5j, 0.5]])
    # columns 0 and 1 move on the line y = 1 - x/2, column 2 on y = 1 - x^3/2
    hf0 = np.array([[-0.5, -0.5j, 0.0]])
    hf1 = np.array([[-0.5, -0.5j, -1.5]])
    # column 0: the level is the end's squared norm, so the chord start
    # x = 1 is exact; column 1: Newton steps from the chord start 2/3;
    # column 2: the curve is flat at the chord start 2/15, so Newton's
    # first step leaves the bracket [0, 1] and the column bisects
    level = np.array([0.25, 0.5, 0.9])
    args = (y0, hf0 / h[None, :], y1, hf1 / h[None, :], h, level)
    s = steppers._crossing(*args)
    want = np.array([1.0, 2.0 - math.sqrt(2.0), (2.0 * (1.0 - math.sqrt(0.9))) ** (1 / 3)])
    assert np.abs(s / h - want).max() < 1e-14
    assert s[0] == h[0]
    for r in range(3):
        alone = steppers._crossing(*(a[..., r:r + 1].copy() for a in args))
        assert s[r].tobytes() == alone[0].tobytes()
    # reversed, each column still gets its own bits
    back = steppers._crossing(*(a[..., ::-1].copy() for a in args))
    assert back[::-1].tobytes() == s.tobytes()


@pytest.mark.parametrize("unr", list(Unraveling))
def test_nan_row_fails_its_own_row(unr):
    # every comparison with NaN is False, so a guard written as "fail if
    # x > bound" lets a NaN row through; the guards must fail it instead
    model, dims = example_model()
    rng = np.random.default_rng(8)
    y = rng.standard_normal((3, math.prod(dims))) + 1j * rng.standard_normal((3, math.prod(dims)))
    y = (y / np.linalg.norm(y, axis=1)[:, None]).T.copy()
    y[3, 1] = np.nan
    freedoms = [FreedomSpec(FIELD, 5), FreedomSpec(SPIN, 2)]
    noise = np.zeros((2, 3), dtype=complex) if unr is Unraveling.QSD \
        else Draws(*[[0.5]] * 3)
    with np.errstate(invalid="ignore"):
        with pytest.raises(StepError) as err:
            make_stepper(model, unr, 1e-3).step(y, freedoms, 0.0, noise)
    assert err.value.row == 1


# --- compiled forms kept by the model ----------------------------------------


def family(exprs, frs):
    """The trees exprs compiled afresh as one family for the basis of frs."""
    return CenteredForm(tuple(exprs), tuple((f.ptype, f.dim_used) for f in frs)).bind(
        [f.center for f in frs])


def test_model_builds_one_form_per_shape_and_rebinds_moved_centers(monkeypatch):
    # shapes A -> B -> A, the second A with moved centers: h_eff and the L_j
    # family compile once per shape, every basis change rebinds, and asking
    # for the last basis again does neither
    built, bound = [], []
    init, bind = CenteredForm.__init__, CenteredForm.bind

    def counted_init(self, trees, shape):
        built.append(shape)
        init(self, trees, shape)

    def counted_bind(self, centers):
        bound.append(tuple(centers))
        return bind(self, centers)

    h = number(0) * position(1) + 0.4 * (sigma_plus(2) * sigma_minus(2))
    model = ModelOperators(h, [0.8 * destroy(0), (0.3 - 0.2j) * destroy(1)])

    def basis(used, centers):
        return [FreedomSpec(FIELD, 6, used, centers[0]), FreedomSpec(FIELD, 4, 3, centers[1]),
                FreedomSpec(SPIN, 2)]

    a1 = basis(4, (0.3j, 0j))
    b = basis(5, (0.3j, 0j))
    a2 = basis(4, (-0.7 + 0.1j, 0.25))
    monkeypatch.setattr(CenteredForm, "__init__", counted_init)
    monkeypatch.setattr(CenteredForm, "bind", counted_bind)
    got = [model.compiled(frs) for frs in (a1, b, a2)]
    again = model.compiled(a2)
    monkeypatch.undo()

    shape_a = tuple((f.ptype, f.dim_used) for f in a1)
    shape_b = tuple((f.ptype, f.dim_used) for f in b)
    assert built == [shape_a] * 2 + [shape_b] * 2
    assert len(bound) == 6
    assert again[0] is got[2][0] and again[1] is got[2][1]
    # a rebound form gives the bits a fresh compile gives
    rng = np.random.default_rng(2)
    for frs, (h_eff, lstack) in zip((a1, b, a2), got):
        n = math.prod(f.dim_used for f in frs)
        y = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))).T.copy()
        assert np.array_equal(h_eff.apply(y), compile_operator(model.h_eff, frs).apply(y))
        assert np.array_equal(lstack.apply(y), family(model.lindblads, frs).apply(y))


def test_every_basis_change_binds_both_forms_and_the_same_basis_none(monkeypatch):
    # sm(1) reads no center, yet moving field 0's center binds h_eff and the
    # whole L_j family again; asking for the same basis binds nothing
    bound = []
    bind = CenteredForm.bind

    def counted_bind(self, centers):
        bound.append(self.channels)
        return bind(self, centers)

    model = ModelOperators(number(0), [0.5 * sigma_minus(1), 0.3 * destroy(0)])
    bases = [[FreedomSpec(FIELD, 6, 4, c), FreedomSpec(SPIN, 2)] for c in (0j, 0.4, -0.2j)]
    monkeypatch.setattr(CenteredForm, "bind", counted_bind)
    got = []
    for frs in bases:
        got.append(model.compiled(frs))
        assert bound == [None, 2]
        assert model.compiled(frs) is got[-1] and bound == [None, 2]
        bound.clear()
    monkeypatch.undo()
    rng = np.random.default_rng(5)
    y = (rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))).T.copy()
    for frs, (h_eff, lstack) in zip(bases, got):
        assert np.array_equal(h_eff.apply(y), compile_operator(model.h_eff, frs).apply(y))
        # the stacked sweep follows the moved center
        assert np.array_equal(lstack.apply(y), family(model.lindblads, frs).apply(y))
    # a model without L_j binds no family
    assert ModelOperators(number(0)).compiled(bases[0])[1] is None


def test_model_keeps_the_forms_of_its_last_shapes():
    from qtraj.steppers import FORMS_KEPT

    model = ModelOperators(number(0), [destroy(0)])
    frs = [FreedomSpec(FIELD, FORMS_KEPT + 2, 1)]
    for used in range(1, FORMS_KEPT + 3):
        frs[0].dim_used = used
        model.compiled(frs)
    assert len(model._shapes) == FORMS_KEPT
    assert min(shape[0][1] for shape in model._shapes) == 3  # the oldest two went


# --- batch parity (the lockstep ensembles rely on this) ---------------------


SHG = pathlib.Path(__file__).resolve().parents[1] / "models" / "shg.qt"


def shg_displaced():
    """models/shg.qt's operators on a displaced (3, 3, 2) basis: 13 bands in h_eff."""
    model = build_model(parse_model(SHG.read_text(encoding="utf-8")))[0]
    return model, [FreedomSpec(FIELD, 50, 3, 0.6 + 0.2j), FreedomSpec(FIELD, 50, 3, -0.3j),
                   FreedomSpec(SPIN, 2)]


def rand_cols(rng, b, n):
    """An (n, b) block of b random unit-norm trajectories."""
    ys = (rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))).T.copy()
    return ys / np.sqrt((np.abs(ys) ** 2).sum(axis=0))[None, :]


def test_batched_rows_equal_individual_rows():
    rng = np.random.default_rng(55)
    model, dims = example_model()
    # the channel uniform of each row that jumps; None: no jump
    cases = [(model, [FreedomSpec(FIELD, 5), FreedomSpec(SPIN, 2)], rand_cols(rng, 4, 10),
              [None, 0.2, None, 0.7])]
    # a gathered 13-band h_eff and a 3-channel stacked sweep; 0.995 picks
    # the weak third channel
    model, freedoms = shg_displaced()
    ys = rand_cols(rng, 17, 18)
    cases.append((model, freedoms, ys, [[0.0, 0.3, 0.6, 0.995, None][i % 5] for i in range(17)]))
    for model, freedoms, ys, channel_u in cases:
        b = ys.shape[1]

        # QSD
        dxi = NoiseSource(3, [0]).wiener(b, model.n_lindblads, 0.01)[0].T.copy()
        stepper = make_stepper(model, Unraveling.QSD, 0.01)
        batch, _ = stepper.step(ys.copy(), freedoms, 0.0, dxi)
        for i in range(b):
            si = make_stepper(model, Unraveling.QSD, 0.01)
            col, _ = si.step(ys[:, i:i + 1].copy(), freedoms, 0.0, dxi[:, i:i + 1].copy())
            assert batch[:, i].tobytes() == col[:, 0].tobytes()

        # jump flavors, mixed jump/no-jump rows
        def rows():
            return [[0.0] if c is None else [0.99999, c, 0.0] for c in channel_u]

        for unr in (Unraveling.JUMP, Unraveling.ORTHO_JUMP):
            stepper = make_stepper(model, unr, 0.01)
            batch, stats = stepper.step(ys.copy(), freedoms, 0.0, Draws(*rows()))
            assert 0 < stats.jumps < b
            for i in range(b):
                si = make_stepper(model, unr, 0.01)
                col, _ = si.step(ys[:, i:i + 1].copy(), freedoms, 0.0, Draws(rows()[i]))
                assert batch[:, i].tobytes() == col[:, 0].tobytes()


@pytest.mark.parametrize("unr", list(Unraveling), ids=lambda u: u.value)
def test_drift_rows_on_one_column_bands_equal_individual_rows(unr):
    # a driven, detuned, damped atom: h_eff's bands each cover one
    # amplitude, one with the complex diagonal -0.1 - 0.45i, where a (1, 1)
    # product can take another numpy loop than a many-column one
    model = ModelOperators(0.7 * (sigma_plus(0) + sigma_minus(0))
                           + 0.45 * (sigma_plus(0) * sigma_minus(0)),
                           [math.sqrt(0.2) * sigma_minus(0)])
    freedoms = [FreedomSpec(SPIN, 2)]
    ys = rand_cols(np.random.default_rng(0), 64, 2)
    batch = _drift2d(ys, freedoms, model, unr, 0.0)
    for i in range(64):
        alone = _drift2d(ys[:, i:i + 1].copy(), freedoms, model, unr, 0.0)
        assert batch[:, i].tobytes() == alone[:, 0].tobytes()


# --- the stacked Lindblad sweep ----------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_sweep_rows_equal_each_lindblad(m):
    # L_2 depends on time; m = 3 has enough bands (6) for the gathered kernel
    ls = [0.8 * destroy(0), (lambda t: 0.3 + 0.5j * t) * sigma_minus(1),
          number(0) + 0.2 * position(0)][:m]
    model = ModelOperators(number(0), ls)
    frs = [FreedomSpec(FIELD, 6, 4, 0.3 - 0.2j), FreedomSpec(SPIN, 2)]
    _, stacked = model.compiled(frs)
    assert stacked.gathered == (m == 3)
    y = rand_cols(np.random.default_rng(m), 5, 8)
    for t in (0.0, 0.7):
        got = stacked.apply(y, t)
        assert got.shape == (m, 8, 5)
        for j, l_expr in enumerate(ls):
            want = compile_operator(l_expr, frs).apply(y, t)
            assert np.abs(got[j] - want).max() <= 1e-15 * np.abs(want).max()


def test_shg_drift_makes_two_operator_sweeps(monkeypatch):
    # h_eff once and every L_j in one stacked sweep, not once per L_j; the
    # jump drift is the linear no-jump evolution h_eff y and reads no L_j
    model, freedoms = shg_displaced()
    y = rand_cols(np.random.default_rng(6), 3, 18)
    sweeps = []
    apply_ = DiagonalOperator.apply

    def counted(self, y, t=0.0):
        sweeps.append(self.channels)
        return apply_(self, y, t)

    monkeypatch.setattr(DiagonalOperator, "apply", counted)
    for unr in Unraveling:
        sweeps.clear()
        _drift2d(y, freedoms, model, unr, 0.0)
        assert sweeps == ([None] if unr is Unraveling.JUMP else [None, 3])


def test_qsd_step_does_not_depend_on_the_order_of_the_lindblads():
    # three channels on a displaced field: listing the L_j, and their noise
    # columns, in another order gives the same step to round-off, since
    # every L_j and <L_j> is read at one state
    h = 0.5 * (sigma_plus(0) * destroy(1) + sigma_minus(0) * destroy(1).hc())
    ls = [math.sqrt(0.5) * destroy(1), math.sqrt(0.2) * sigma_minus(0),
          math.sqrt(0.2) * number(1)]
    freedoms = [FreedomSpec(SPIN, 2), FreedomSpec(FIELD, 8, 6, 0.6 - 0.3j)]
    ys = rand_cols(np.random.default_rng(12), 4, 12)
    dxi = NoiseSource(4, [0]).wiener(4, 3, 0.01)[0].T.copy()
    want, _ = make_stepper(ModelOperators(h, ls), Unraveling.QSD, 0.01).step(
        ys.copy(), freedoms, 0.0, dxi)
    for perm in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
        model = ModelOperators(h, [ls[j] for j in perm])
        got, _ = make_stepper(model, Unraveling.QSD, 0.01).step(
            ys.copy(), freedoms, 0.0, dxi[list(perm)].copy())
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# --- the jump flavors' advance -------------------------------------------------


JUMP_FLAVORS = [Unraveling.JUMP, Unraveling.ORTHO_JUMP]


def driven_cavity(rate=lambda t: 0.5 + 2.0 * t):
    """A time-dependent H, a displaced field and three channels; rate scales the coupling."""
    h = rate * (sigma_plus(0) * destroy(1) + sigma_minus(0) * destroy(1).hc()) + 0.3 * number(1)
    ls = [math.sqrt(0.5) * destroy(1), math.sqrt(0.2) * sigma_minus(0),
          math.sqrt(0.2) * number(1)]
    return ModelOperators(h, ls), [FreedomSpec(SPIN, 2), FreedomSpec(FIELD, 6, 6, 0.6 - 0.3j)]


@pytest.mark.parametrize("kind", ["rk4", "adaptive"])
@pytest.mark.parametrize("unr", JUMP_FLAVORS, ids=lambda u: u.value)
def test_jump_step_equals_the_step_of_the_full_drift(unr, kind):
    # the steppers leave out 1/2 sum_j <L_j+ L_j> y, which only rescales y:
    # renormalized, their step is the full drift's step up to truncation
    model, freedoms = driven_cavity()
    ys = rand_cols(np.random.default_rng(21), 3, 12)
    t, dt = 0.3, 1e-3
    stepper = make_stepper(model, unr, dt, IntegratorConfig(kind))
    got, stats = stepper.step(ys.copy(), freedoms, t, never(3))
    assert stats.jumps == 0

    def full(v, s):  # s: one time, or each trajectory's
        return np.stack([drift(StateVector(freedoms, col), model, unr, si).amps
                         for col, si in zip(v.T, np.broadcast_to(s, v.shape[1]))], axis=1)

    if kind == "rk4":
        want, nsub = rk4_step(full, ys, t, dt), ys.shape[1]
    else:
        want, nsub, _ = rkck_adaptive(full, ys, t, dt, stepper.integrator.eps)
    want /= row_norm(want)[None, :]
    assert stats.substeps == nsub
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["rk4", "adaptive"])
@pytest.mark.parametrize("unr", JUMP_FLAVORS, ids=lambda u: u.value)
def test_jump_advance_never_grows_the_norm(unr, kind):
    # the advance decays the squared norm at the total jump rate,
    # sum_j <L_j+ L_j>, less sum_j |<L_j>|^2 for orthojump, so the check on
    # unstable steps still sees every growth
    model, freedoms = driven_cavity()
    _, lstack = model.compiled(freedoms)
    for dt in (1e-3, 1e-2):
        stepper = make_stepper(model, unr, dt, IntegratorConfig(kind))
        for seed in range(4):
            ys = rand_cols(np.random.default_rng(seed), 8, 12)
            out, _ = stepper._advance_det(ys, freedoms, 0.3)
            assert (row_norm2(out) < row_norm2(ys)).all()
            ly = lstack.apply(ys, 0.3)
            rate = row_norm2(ly).sum(axis=0)
            if unr is Unraveling.ORTHO_JUMP:
                rate -= (np.abs(np.einsum("nb,mnb->mb", ys.conj(), ly)) ** 2).sum(axis=0)
            loss = (row_norm2(ys) - row_norm2(out)) / dt
            assert np.abs(loss / rate - 1.0).max() < 20 * dt


def test_jump_advance_norm_is_the_no_jump_probability():
    # the jump advance is y' = h_eff y, so its squared norm is the
    # probability of no jump, |exp(h_eff dt) y|^2, up to RK4's truncation,
    # which is below 2 sum_{k>=5} x^k / k! < x^5 / 60 at x = dt |h_eff| < 1
    from scipy.linalg import expm

    model, freedoms = driven_cavity(rate=1.5)
    heff = to_dense(model.h_eff, (2, 6), centers=[0j, freedoms[1].center])
    ys = rand_cols(np.random.default_rng(5), 6, 12)
    for dt in (1e-3, 1e-2):
        out, _ = make_stepper(model, Unraveling.JUMP, dt)._advance_det(ys, freedoms, 0.0)
        want = row_norm2(expm(dt * heff) @ ys)
        assert want.max() < 1.0 - 0.01 * dt
        bound = (dt * np.linalg.norm(heff, 2)) ** 5 / 60 + 1e-15
        assert np.abs(row_norm2(out) - want).max() <= bound


@pytest.mark.parametrize("kind", ["rk4", "adaptive"])
def test_jump_drift_makes_one_sweep_and_no_row_reduction(monkeypatch, kind):
    model, freedoms = driven_cavity()
    calls = []
    apply_ = DiagonalOperator.apply

    def counted(self, y, t=0.0):
        calls.append(self.channels)
        return apply_(self, y, t)

    monkeypatch.setattr(DiagonalOperator, "apply", counted)
    def counted_reduction(name):
        reduce_ = getattr(steppers, name)

        def counted(*args):
            calls.append(name)
            return reduce_(*args)

        return counted

    for name in ("row_norm2", "row_dot"):
        monkeypatch.setattr(steppers, name, counted_reduction(name))
    ys = rand_cols(np.random.default_rng(2), 4, 12)
    _drift2d(ys, freedoms, model, Unraveling.JUMP, 0.3)
    assert calls == [None]  # h_eff alone
    calls.clear()
    _drift2d(ys, freedoms, model, Unraveling.ORTHO_JUMP, 0.3)
    assert calls == [None, "row_norm2", 3, "row_dot"]  # no reduction over the stack's norms
    calls.clear()
    stepper = make_stepper(model, Unraveling.JUMP, 1e-3, IntegratorConfig(kind))
    _, nsub = stepper._advance_det(ys, freedoms, 0.3)
    # rk4: four stages; adaptive: six stages per substep of the block, and
    # nsub counts each trajectory's accepted substeps (here one each, none
    # rejected)
    assert nsub == ys.shape[1]
    assert calls == [None] * (4 if kind == "rk4" else 6)


def test_orthojump_advance_norm_decays_at_the_orthojump_rate():
    # with the qsd coefficient -1/2 |<L_j>|^2 the orthojump advance's squared
    # norm decays at exactly its jump rate sum_j (<L_j+ L_j> - |<L_j>|^2),
    # so it is the survival probability the jumps are timed by
    model, freedoms = driven_cavity()
    _, lstack = model.compiled(freedoms)
    ys = rand_cols(np.random.default_rng(9), 6, 12)
    ly = lstack.apply(ys, 0.3)
    gamma = (row_norm2(ly) - np.abs(np.einsum("nb,mnb->mb", ys.conj(), ly)) ** 2).sum(axis=0)
    assert (gamma > 0.2).all() and (row_norm2(ly).sum(axis=0) > 1.2 * gamma).all()
    for dt in (1e-3, 1e-4):
        out, _ = make_stepper(model, Unraveling.ORTHO_JUMP, dt)._advance_det(ys, freedoms, 0.3)
        assert np.abs(-np.log(row_norm2(out)) / dt / gamma - 1.0).max() < 10 * dt


@pytest.mark.parametrize("m", [1, 3])
def test_rows_at_their_own_times_equal_each_row_alone(m):
    # a (B,) t gives each trajectory its own time: the sliced h_eff and the
    # gathered three-channel sweep (m = 3) scale their time groups by a
    # (1, B) row, and an RK4 step with per-trajectory t and h advances each
    # trajectory as alone
    model, freedoms = driven_cavity()
    ls = [0.8 * destroy(1), (lambda t: 0.3 + 0.5j * t) * sigma_minus(0),
          number(1) + 0.2 * position(1)][:m]
    model = ModelOperators(model.hamiltonian, ls)
    h_eff, stacked = model.compiled(freedoms)
    assert stacked.gathered == (m == 3)
    b = 7
    ys = rand_cols(np.random.default_rng(m), b, 12)
    t = np.array([0.3, 0.1, 0.3, 0.25, 0.0, 0.1, 0.7])
    h = np.array([1e-3, 2e-3, 0.0, 1e-3, 5e-4, 1e-3, 3e-3])
    f = lambda v, s: _drift2d(v, freedoms, model, Unraveling.ORTHO_JUMP, s)
    for op in (h_eff, stacked):
        got = op.apply(ys, t)
        for i in range(b):
            alone = op.apply(ys[:, i:i + 1].copy(), t[i])
            assert got[..., i].tobytes() == alone[..., 0].tobytes()
    got = rk4_step(f, ys, t, h)
    for i in range(b):
        alone = rk4_step(f, ys[:, i:i + 1].copy(), t[i], h[i])
        assert got[:, i].tobytes() == alone[:, 0].tobytes()
    got, _, h_next = rkck_adaptive(f, ys, t, h, 1e-8)
    for i in range(b):
        col, _, h_col = rkck_adaptive(f, ys[:, i:i + 1].copy(), t[i], h[i], 1e-8)
        assert got[:, i].tobytes() == col[:, 0].tobytes() and h_next[i] == h_col[0]


def test_zero_length_advance_leaves_the_row_and_its_substep_size():
    # the jump loop advances a row by h = 0 when its crossing falls at the
    # start of its step: the row comes back bit for bit, with no substep,
    # and the substep size it carries is untouched
    model, freedoms = driven_cavity()
    ys = rand_cols(np.random.default_rng(8), 3, 12)
    stepper = make_stepper(model, Unraveling.ORTHO_JUMP, 0.05, IntegratorConfig("adaptive"))
    stepper._advance_det(ys, freedoms, 0.3)  # every row now carries a substep size
    carried = stepper._h.copy()
    out, nsub = stepper._advance_det(ys[:, 1:].copy(), freedoms, np.full(2, 0.3), np.zeros(2),
                                     np.array([1, 2]))
    assert out.tobytes() == ys[:, 1:].copy().tobytes() and nsub == 0
    assert stepper._h.tobytes() == carried.tobytes()
    out, nsub = stepper._advance_det(ys, freedoms, np.full(3, 0.3), np.array([0.0, 0.01, 0.0]))
    assert out[:, [0, 2]].tobytes() == ys[:, [0, 2]].tobytes() and nsub >= 1
    assert stepper._h[[0, 2]].tobytes() == carried[[0, 2]].tobytes()
    assert stepper._h[1] != carried[1]


# --- the RK4 propagator of a linear, autonomous coarse step ---------------------


def random_static_model(rng, monkeypatch):
    """(model, freedoms, dims): acceptance 3's random trees on 1-2 freedoms, 0-3 L_j.

    H is T + T+ for a random tree T; every tree is scaled to entries of at
    most 1.  A field freedom gets a random center half the time.
    """
    import test_acceptance

    second = (None, ATOM, SPIN)[rng.integers(3)]
    d0 = int(rng.integers(2, 9 if second is None else 6))
    freedoms = [FreedomSpec(FIELD, d0, d0, complex(*rng.normal(size=2)) * rng.integers(2))]
    leaves = [create(0), destroy(0), number(0), position(0), momentum(0)]
    if second is ATOM:
        freedoms.append(FreedomSpec(ATOM, 3))
        leaves += [transition(1, 0, 1), transition(1, 1, 2), transition(1, 2, 0)]
    elif second is SPIN:
        freedoms.append(FreedomSpec(SPIN, 2))
        leaves += [sigma_plus(1), sigma_minus(1), sigma_z(1)]
    monkeypatch.setattr(test_acceptance, "_SWEEP_LEAVES", tuple(leaves))
    dims = tuple(f.dim_used for f in freedoms)
    centers = [f.center for f in freedoms]

    def tree():
        t = test_acceptance._random_tree(rng, 3)
        return (1.0 / max(np.abs(to_dense(t, dims, centers)).max(), 1.0)) * t

    t = tree()
    model = ModelOperators(t + t.hc(), [tree() for _ in range(rng.integers(4))])
    return model, freedoms, dims


def dense_p4(a):
    eye = np.eye(len(a), dtype=complex)
    return eye + a @ (eye + a @ (eye + a @ (eye + a / 4) / 3) / 2)


def test_rk4_propagator_matches_the_dense_polynomial_and_the_rk4_step(monkeypatch):
    rng = np.random.default_rng(23)
    dt = 0.05
    for _ in range(40):
        model, freedoms, dims = random_static_model(rng, monkeypatch)
        h_eff, _ = model.compiled(freedoms)
        p4 = h_eff.taylor(dt, 4)
        n = h_eff.size
        a = dt * to_dense(model.h_eff, dims, [f.center for f in freedoms])
        assert np.abs(p4.apply(np.eye(n, dtype=complex)) - dense_p4(a)).max() <= 1e-13
        ys = rand_cols(rng, 5, n)
        want = rk4_step(lambda v, s: h_eff.apply(v, s), ys, 0.0, dt)
        err = np.abs(p4.apply(ys) - want).max(axis=0) / np.abs(want).max(axis=0)
        assert err.max() <= 1e-14


def test_rk4_propagator_advance_is_the_same_for_every_batch_size(monkeypatch):
    # the propagator goes through the per-column kernels: lockstep equals serial
    rng = np.random.default_rng(29)
    taken = 0
    for _ in range(20):
        model, freedoms, dims = random_static_model(rng, monkeypatch)
        stepper = make_stepper(model, Unraveling.JUMP, 0.05)
        ys = rand_cols(rng, 300, math.prod(dims))
        for b in (1, 7, 300):
            got, nsub = stepper._advance_det(ys[:, :b].copy(), freedoms, 0.0)
            assert nsub == b
            for i in range(b):
                alone, _ = stepper._advance_det(ys[:, i:i + 1].copy(), freedoms, 0.0)
                assert got[:, i].tobytes() == alone[:, 0].tobytes()
        taken += stepper._p4[1] is not None
    assert taken >= 10


def counted_stages(monkeypatch):
    """{"rk4_step": calls, "_drift2d": calls}, counted from now on."""
    calls = {"rk4_step": 0, "_drift2d": 0}
    for name in calls:
        original = getattr(steppers, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(steppers, name, counted)
    return calls


def test_only_a_static_linear_autonomous_rk4_step_takes_the_propagator(monkeypatch):
    calls = counted_stages(monkeypatch)
    g, gam = 0.5, 0.25
    jc = ModelOperators(g * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1)),
                        [math.sqrt(2 * gam) * destroy(1)])
    jc_freedoms = [FreedomSpec(SPIN, 2), FreedomSpec(FIELD, 8)]
    atom = ModelOperators(None, [math.sqrt(0.2) * sigma_minus(0)])
    rabi = ModelOperators(1.1 * (sigma_plus(0) + sigma_minus(0)), [])
    spin = [FreedomSpec(SPIN, 2)]
    cavity, cavity_freedoms = driven_cavity()
    drive = ModelOperators(position(0), [])  # 2 bands; its P4 has 9 > 4 * 2
    field = [FreedomSpec(FIELD, 8)]

    cases = [  # model, freedoms, unraveling, integrator, takes the propagator
        (jc, jc_freedoms, Unraveling.JUMP, "rk4", True),
        (atom, spin, Unraveling.JUMP, "rk4", True),
        (jc, jc_freedoms, Unraveling.JUMP, "adaptive", False),
        (jc, jc_freedoms, Unraveling.ORTHO_JUMP, "rk4", False),
        (jc, jc_freedoms, Unraveling.QSD, "rk4", False),
        (cavity, cavity_freedoms, Unraveling.JUMP, "rk4", False),  # time-dependent h_eff
        (drive, field, Unraveling.JUMP, "rk4", False),
    ] + [(rabi, spin, unr, "rk4", True) for unr in Unraveling]
    for model, freedoms, unr, kind, taken in cases:
        n = math.prod(f.dim_used for f in freedoms)
        stepper = make_stepper(model, unr, 1e-3, IntegratorConfig(kind))
        noise = np.zeros((model.n_lindblads, 4), dtype=complex) if unr is Unraveling.QSD \
            else never(4)
        calls.update(rk4_step=0, _drift2d=0)
        _, stats = stepper.step(rand_cols(np.random.default_rng(3), 4, n), freedoms, 0.3, noise)
        assert stats.jumps == 0 and stats.substeps >= 4
        assert (calls["_drift2d"] == 0) == taken, (unr, kind, calls)
        assert calls["rk4_step"] == (0 if taken or kind == "adaptive" else 1)
        assert (stepper._p4[1] is not None) == taken


def test_a_moving_basis_run_keeps_the_stages(monkeypatch):
    # the same jump run takes the propagator on a static basis (its rk4
    # steps are the crossing rows' own) and the stages on a moving one
    calls = counted_stages(monkeypatch)
    model = ModelOperators(0.5 * number(0), [math.sqrt(0.5) * destroy(0)])
    psi = coherent_state(12, 0.8 + 0.3j)
    spec = OutputSpec(operators=(number(0),))
    static = RunConfig(dt=0.01, numdts=10, numsteps=2, seed=4, unraveling=Unraveling.JUMP)
    steps = static.numdts * static.numsteps
    res = run_single(psi, model, static, spec, stream=io.StringIO())
    assert calls["rk4_step"] <= 2 * res.jumps
    calls.update(rk4_step=0)
    moving = dataclasses.replace(static, moving=MovingBasisParams(n_moving=1))
    run_single(psi, model, moving, spec, stream=io.StringIO())
    assert calls["rk4_step"] >= steps
