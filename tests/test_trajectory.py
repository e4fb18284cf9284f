"""Driver loop: observables, output formats, ensembles, reproducibility."""

import cmath
import dataclasses
import io
import math
import os
import pathlib
import re

import numpy as np
import pytest

from qtraj import (
    SPIN,
    ATOM,
    IntegratorConfig,
    ModelOperators,
    MovingBasisParams,
    NoiseSource,
    OutputSpec,
    RunConfig,
    Unraveling,
    basis_state,
    coherent_state,
    compare_ensemble,
    create,
    destroy,
    expectation,
    number,
    oracle_expectations,
    product_state,
    run_ensemble,
    run_single,
    sigma_minus,
    sigma_plus,
    sigma_z,
    to_dense,
    transition,
    variance,
)
from qtraj import operators, steppers, trajectory
from qtraj.modelfile import load_model
from qtraj.trajectory import _Welford, _run


def damped_cavity(dim=6, gamma=0.5):
    model = ModelOperators(number(0), [math.sqrt(2 * gamma) * destroy(0)])
    return model, basis_state(dim, 1)


def decaying_atom(kappa=0.1):
    model = ModelOperators(None, [math.sqrt(2 * kappa) * sigma_minus(0)])
    return model, basis_state(2, 1, SPIN)


def quiet(**kw):
    kw.setdefault("stream", io.StringIO())
    return kw


# --- observables -------------------------------------------------------------


def test_expectation_and_variance_coherent():
    # Poisson photon statistics: <n> = var n = |alpha|^2
    psi = coherent_state(25, 0.6 - 0.2j)
    n = number(0)
    assert expectation(n, psi) == pytest.approx(0.4, abs=1e-12)
    assert variance(n, psi) == pytest.approx(0.4, abs=1e-10)


def test_variance_superposition():
    # (|0> + |2>)/sqrt(2): <n> = 1, <n^2> = 2, var = 1
    psi = (basis_state(6, 0) + basis_state(6, 2)).normalize()
    assert expectation(number(0), psi) == pytest.approx(1.0, abs=1e-12)
    assert variance(number(0), psi) == pytest.approx(1.0, abs=1e-12)


def test_variance_spin_eigenstate_is_zero():
    from qtraj import sigma_z
    psi = basis_state(2, 1, SPIN)
    assert variance(sigma_z(0), psi) == pytest.approx(0.0, abs=1e-14)


# --- config validation -------------------------------------------------------


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(dt=0.0, numdts=1, numsteps=1)
    with pytest.raises(ValueError):
        RunConfig(dt=0.1, numdts=0, numsteps=1)
    with pytest.raises(ValueError):
        RunConfig(dt=0.1, numdts=1, numsteps=-1)
    with pytest.raises(ValueError):
        RunConfig(dt=0.1, numdts=1, numsteps=1, n_trajectories=0)


def test_runconfig_rejects_negative_seed():
    # a seed names the noise streams, and stream seeds are non-negative
    with pytest.raises(ValueError, match="seed must be non-negative"):
        RunConfig(dt=0.1, numdts=1, numsteps=1, seed=-1)


def test_outputspec_validation():
    n = number(0)
    with pytest.raises(ValueError):
        OutputSpec(operators=())
    with pytest.raises(TypeError):
        OutputSpec(operators=(n, "n"))
    with pytest.raises(ValueError):
        OutputSpec(operators=(n,), file_names=("a.out", "b.out"))
    with pytest.raises(ValueError):
        OutputSpec(operators=(n,), pipe=(1, 2, 3))
    with pytest.raises(ValueError):
        OutputSpec(operators=(n,), pipe=(1, 2, 3, 5))
    with pytest.raises(ValueError):
        OutputSpec(operators=(n,), pipe=(0, 1, 2, 3))


def test_unnormalized_initial_state_rejected():
    model, psi = damped_cavity()
    psi = psi * 2.0
    cfg = RunConfig(dt=0.01, numdts=2, numsteps=1)
    spec = OutputSpec(operators=(number(0),))
    with pytest.raises(ValueError, match="normalized"):
        run_single(psi, model, cfg, spec, **quiet())


def test_mode_must_be_auto_or_serial():
    model, psi = damped_cavity()
    spec = OutputSpec(operators=(number(0),))
    cfg = RunConfig(dt=0.01, numdts=2, numsteps=1)
    for mode in ("lockstep", "batched"):
        with pytest.raises(ValueError, match="mode"):
            run_ensemble(psi, model, cfg, spec, mode=mode, **quiet())


# --- shapes, times, formats ---------------------------------------------------


def test_numsteps_zero_records_initial_point_only():
    model, psi = damped_cavity()
    cfg = RunConfig(dt=0.01, numdts=5, numsteps=0)
    spec = OutputSpec(operators=(number(0),))
    res = run_single(psi, model, cfg, spec, **quiet())
    assert res.times.shape == (1,)
    assert res.times[0] == 0.0
    assert res.expectations[0, 0] == pytest.approx(1.0)
    assert len(res.stdout_lines) == 1


def test_times_and_substep_columns():
    model, psi = damped_cavity()
    cfg = RunConfig(dt=0.01, numdts=4, numsteps=3)
    spec = OutputSpec(operators=(number(0),))
    res = run_single(psi, model, cfg, spec, **quiet())
    want = np.array([i * 4 * 0.01 for i in range(4)])
    assert np.array_equal(res.times, want)
    assert res.substeps[0] == 0
    assert np.all(res.substeps[1:] == 4)  # rk4: one substep per dt


def test_stdout_line_shape_and_pipe_mapping():
    model, psi = damped_cavity()
    spec = OutputSpec(operators=(number(0), destroy(0)), pipe=(5, 6, 7, 8))
    cfg = RunConfig(dt=0.01, numdts=2, numsteps=2)
    res = run_single(psi, model, cfg, spec, **quiet())
    assert len(res.stdout_lines) == 3
    for k, line in enumerate(res.stdout_lines):
        toks = line.split()
        assert len(toks) == 7
        assert float(toks[0]) == res.times[k]
        # pipe 5..8 selects the quad of the second operator
        assert float(toks[1]) == res.expectations[1, k].real
        assert float(toks[2]) == res.expectations[1, k].imag
        assert float(toks[3]) == res.variances[1, k].real
        assert float(toks[4]) == res.variances[1, k].imag
        assert int(toks[5]) == res.basis_sizes[k]
        assert int(toks[6]) == res.substeps[k]


def test_file_round_trip_single_and_ensemble(tmp_path):
    model, psi = damped_cavity()
    names = (str(tmp_path / "n.out"), str(tmp_path / "a.out"))
    spec = OutputSpec(operators=(number(0), destroy(0)), file_names=names)
    cfg = RunConfig(dt=0.01, numdts=2, numsteps=3, unraveling=Unraveling.QSD)
    res = run_single(psi, model, cfg, spec, **quiet())
    for i, name in enumerate(names):
        data = np.loadtxt(name)
        assert data.shape == (4, 5)
        # repr round-trips float64 exactly
        assert np.array_equal(data[:, 0], res.times)
        assert np.array_equal(data[:, 1], res.expectations[i].real)
        assert np.array_equal(data[:, 2], res.expectations[i].imag)
        assert np.array_equal(data[:, 3], res.variances[i].real)
        assert np.array_equal(data[:, 4], res.variances[i].imag)

    cfg = RunConfig(dt=0.01, numdts=2, numsteps=3, n_trajectories=3)
    ens = run_ensemble(psi, model, cfg, spec, **quiet())
    for i, name in enumerate(names):
        data = np.loadtxt(name)
        assert data.shape == (4, 7)
        assert np.array_equal(data[:, 1], ens.mean_expectations[i].real)
        assert np.array_equal(data[:, 5], ens.se_re[i])
        assert np.array_equal(data[:, 6], ens.se_im[i])


def test_emitted_stdout_matches_result_lines():
    model, psi = damped_cavity()
    spec = OutputSpec(operators=(number(0),))
    cfg = RunConfig(dt=0.01, numdts=2, numsteps=2)
    buf = io.StringIO()
    res = run_single(psi, model, cfg, spec, stream=buf)
    assert buf.getvalue() == "\n".join(res.stdout_lines) + "\n"


# --- reproducibility and equivalences -----------------------------------------


def test_rerun_is_bitwise_identical():
    model, psi = damped_cavity()
    spec = OutputSpec(operators=(number(0),))
    cfg = RunConfig(dt=0.01, numdts=5, numsteps=4, seed=42)
    a = run_single(psi, model, cfg, spec, **quiet())
    b = run_single(psi, model, cfg, spec, **quiet())
    assert a.stdout_lines == b.stdout_lines
    assert np.array_equal(a.expectations, b.expectations)
    assert np.array_equal(a.variances, b.variances)


def test_ensemble_of_one_equals_single():
    model, psi = damped_cavity()
    spec = OutputSpec(operators=(number(0),))
    cfg = RunConfig(dt=0.01, numdts=5, numsteps=4, seed=7, n_trajectories=1)
    one = run_ensemble(psi, model, cfg, spec, **quiet())
    single = run_single(psi, model, cfg, spec, **quiet())
    assert np.array_equal(one.mean_expectations, single.expectations)
    assert np.array_equal(one.mean_variances, single.variances)
    assert np.all(one.se_re == 0.0) and np.all(one.se_im == 0.0)


def runs_by_workers(monkeypatch, psi, model, cfg, spec, modes=("auto", "serial")):
    """{(mode, workers): result} of each mode with 1 and with 2 usable CPUs."""
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(trajectory, "_usable_cpus", lambda: workers)
        for mode in modes:
            runs[mode, workers] = run_ensemble(psi, model, cfg, spec, mode=mode, **quiet())
    return runs


def assert_same_bits(a, b):
    assert np.array_equal(a.mean_expectations, b.mean_expectations)
    assert np.array_equal(a.mean_variances, b.mean_variances)
    assert np.array_equal(a.se_re, b.se_re)
    assert np.array_equal(a.se_im, b.se_im)
    assert np.array_equal(a.basis_sizes, b.basis_sizes)
    assert np.array_equal(a.substeps, b.substeps)
    assert np.array_equal(a.jumps_per_trajectory, b.jumps_per_trajectory)
    assert a.stdout_lines == b.stdout_lines


@pytest.mark.parametrize("unr", list(Unraveling))
def test_lockstep_equals_serial_exactly(unr, monkeypatch):
    # with one and with two workers, each running a part of the ensemble
    model, psi = damped_cavity(dim=5, gamma=0.4)
    spec = OutputSpec(operators=(number(0), destroy(0)))
    cfg = RunConfig(dt=0.02, numdts=5, numsteps=4, seed=11, n_trajectories=6,
                    unraveling=unr)
    runs = runs_by_workers(monkeypatch, psi, model, cfg, spec)
    for res in runs.values():
        assert_same_bits(runs["auto", 1], res)


@pytest.mark.parametrize("unr", list(Unraveling))
def test_lockstep_equals_serial_jaynes_cummings(unr, monkeypatch):
    # two freedoms with a Hamiltonian: the construction of acceptance 2, N=16
    g, gam = 0.5, 0.25
    h = g * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1))
    model = ModelOperators(h, [math.sqrt(2 * gam) * destroy(1)])
    psi = product_state([basis_state(2, 1, SPIN), basis_state(8, 0)])
    spec = OutputSpec(operators=(number(1), sigma_plus(0) * sigma_minus(0)))
    cfg = RunConfig(dt=0.01, numdts=30, numsteps=10, seed=23, n_trajectories=16,
                    unraveling=unr)
    runs = runs_by_workers(monkeypatch, psi, model, cfg, spec)
    for res in runs.values():
        assert_same_bits(runs["auto", 1], res)
    if unr is not Unraveling.QSD:
        assert runs["auto", 1].jumps_per_trajectory.sum() > 0


@pytest.mark.parametrize("unr", [Unraveling.JUMP, Unraveling.ORTHO_JUMP], ids=lambda u: u.value)
def test_lockstep_equals_serial_with_two_jump_channels(unr, monkeypatch):
    # decay and dephasing of a driven atom: in one step some rows fire one
    # channel and some the other, and <L> is nonzero in both.  Then pump and
    # decay at rate 8 with dt = 0.1 under a time-dependent drive: rows jump
    # several times a step, each continuing on its own clock
    psi = basis_state(2, 1, SPIN)
    spec = OutputSpec(operators=(sigma_plus(0) * sigma_minus(0), sigma_minus(0)))
    drive = sigma_plus(0) + sigma_minus(0)
    inputs = [  # model, dt, numdts, trajectories, fewest jumps
        (ModelOperators(0.7 * drive, [1.5 * sigma_minus(0), sigma_z(0)]), 0.01, 20, 40, 40),
        (ModelOperators((lambda t: 0.7 + 2.0 * t) * drive,
                        [math.sqrt(8.0) * sigma_plus(0), math.sqrt(8.0) * sigma_minus(0)]),
         0.1, 2, 16, 16 * 8 * 1.0 * 0.5),
    ]
    for model, dt, numdts, n, fewest in inputs:
        cfg = RunConfig(dt=dt, numdts=numdts, numsteps=5, seed=3, n_trajectories=n,
                        unraveling=unr)
        runs = runs_by_workers(monkeypatch, psi, model, cfg, spec)
        for res in runs.values():
            assert_same_bits(runs["auto", 1], res)
        assert runs["auto", 1].jumps_per_trajectory.sum() > fewest


def test_adaptive_ensemble_is_independent_of_the_worker_count(monkeypatch):
    # auto runs adaptive ensembles in lockstep; stdout sums every row's substeps
    model, psi = damped_cavity(dim=5, gamma=0.4)
    spec = OutputSpec(operators=(number(0), destroy(0)))
    for unr in Unraveling:
        cfg = RunConfig(dt=0.1, numdts=4, numsteps=3, seed=19, n_trajectories=5,
                        unraveling=unr, integrator=IntegratorConfig("adaptive", 1e-9))
        runs = runs_by_workers(monkeypatch, psi, model, cfg, spec, modes=("auto",))
        assert_same_bits(runs["auto", 1], runs["auto", 2])
        assert runs["auto", 1].substeps[1:].min() > cfg.numdts * cfg.n_trajectories


@pytest.mark.parametrize("unr", list(Unraveling))
def test_adaptive_lockstep_equals_serial(unr, monkeypatch):
    # a time-dependent drive and two channels at a coarse dt: rows take
    # substep counts of their own, and jump rows jump inside their steps
    h = (lambda t: 0.6 + 2.0 * t) * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1))
    model = ModelOperators(h + 0.3 * number(1), [math.sqrt(3.0) * destroy(1),
                                                 math.sqrt(2.0) * sigma_minus(0)])
    psi = product_state([basis_state(2, 1, SPIN), coherent_state(6, 0.8)])
    spec = OutputSpec(operators=(number(1), sigma_plus(0) * sigma_minus(0), destroy(1)))
    cfg = RunConfig(dt=0.1, numdts=3, numsteps=2, seed=29, n_trajectories=10,
                    unraveling=unr, integrator=IntegratorConfig("adaptive", 1e-7))
    runs = runs_by_workers(monkeypatch, psi, model, cfg, spec)
    for res in runs.values():
        assert_same_bits(runs["auto", 1], res)
    subs = {tuple(_run(psi, model, cfg, spec, [i])[4]) for i in range(cfg.n_trajectories)}
    assert len(subs) > 1
    if unr is not Unraveling.QSD:
        assert runs["auto", 1].jumps_per_trajectory.sum() >= cfg.n_trajectories // 2


def test_parts_run_here_when_no_worker_can_start(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        starts.append(args)
        raise OSError("no worker for this test")

    model, psi = damped_cavity(dim=5, gamma=0.4)
    spec = OutputSpec(operators=(number(0), destroy(0)))
    cfg = RunConfig(dt=0.02, numdts=5, numsteps=4, seed=5, n_trajectories=7,
                    unraveling=Unraveling.JUMP)
    want = runs_by_workers(monkeypatch, psi, model, cfg, spec)
    starts = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for mode in ("auto", "serial"):
        assert_same_bits(want[mode, 1], run_ensemble(psi, model, cfg, spec, mode=mode,
                                                     **quiet()))
    assert len(starts) == 2


def test_failures_name_the_trajectory(monkeypatch):
    # level 1 decays to level 0 at rate 0.5; level 0 is pumped to level 2 at
    # rate 100, whose no-jump evolution RK4 cannot follow at dt = 0.1
    # (1/2 * 100 * dt = 5): the advance after a trajectory's first jump,
    # from the jump to the end of its step or over the next step, fails
    dt = 0.1
    model = ModelOperators(None, [math.sqrt(0.5) * transition(0, 0, 1),
                                  math.sqrt(100.0) * transition(0, 2, 0)])
    psi = basis_state(3, 1, ATOM)
    spec = OutputSpec(operators=(transition(0, 0, 1),))
    # with seed 5 and two parts (0-3, 4-7) the first failure in time is
    # trajectory 5's, in the second part, while trajectory 0 fails later
    for seed in (4, 5):
        cfg = RunConfig(dt=dt, numdts=1, numsteps=20, seed=seed, n_trajectories=8,
                        unraveling=Unraveling.JUMP)

        fail_at = {}  # trajectory -> time its own run fails, replayed alone
        for i in range(cfg.n_trajectories):
            try:
                _run(psi, model, cfg, spec, [i])
            except RuntimeError as err:
                m = re.match(rf"trajectory {i} failed at t=(\S+): squared norm grew",
                             str(err))
                assert m, str(err)
                fail_at[i] = float(m[1])
        assert 0 < len(fail_at) < cfg.n_trajectories

        first = min(fail_at, key=lambda i: (fail_at[i], i))
        lowest = min(fail_at)
        for workers in (1, 2):
            monkeypatch.setattr(trajectory, "_usable_cpus", lambda: workers)
            with pytest.raises(RuntimeError) as lock_err:
                run_ensemble(psi, model, cfg, spec, mode="auto", **quiet())
            assert str(lock_err.value).startswith(
                f"trajectory {first} failed at t={fail_at[first]:.6g}: ")

            with pytest.raises(RuntimeError) as serial_err:
                run_ensemble(psi, model, cfg, spec, mode="serial", **quiet())
            assert str(serial_err.value).startswith(
                f"trajectory {lowest} failed at t={fail_at[lowest]:.6g}: ")


def test_modes_chunk_the_ensemble(monkeypatch):
    # one usable CPU: every chunk is one _run call in this process, so the
    # lockstep-equals-serial tests above do compare two different chunkings
    model, psi = damped_cavity()
    spec = OutputSpec(operators=(number(0),))
    calls = []

    def counted(*args):
        calls.append(list(args[-1]))
        return _run(*args)

    monkeypatch.setattr(trajectory, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(trajectory, "_run", counted)
    fixed = RunConfig(dt=0.02, numdts=5, numsteps=2, seed=3, n_trajectories=4)
    moving = dataclasses.replace(fixed, moving=MovingBasisParams(n_moving=1))
    for cfg, mode, chunks in ((fixed, "auto", [[0, 1, 2, 3]]),
                              (moving, "auto", [[0], [1], [2], [3]]),
                              (fixed, "serial", [[0], [1], [2], [3]])):
        calls.clear()
        run_ensemble(psi, model, cfg, spec, mode=mode, **quiet())
        assert calls == chunks, (mode, cfg.moving)


def _die_in_worker(rows, lockstep):
    os._exit(3)


def test_dead_worker_gives_the_one_process_results(monkeypatch):
    # a worker that dies inside its part: the ensemble runs again here
    model, psi = damped_cavity(dim=5, gamma=0.4)
    spec = OutputSpec(operators=(number(0), destroy(0)))
    cfg = RunConfig(dt=0.02, numdts=5, numsteps=4, seed=5, n_trajectories=7,
                    unraveling=Unraveling.JUMP)
    want = runs_by_workers(monkeypatch, psi, model, cfg, spec)
    monkeypatch.setattr(trajectory, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(trajectory, "_worker_part", _die_in_worker)
    for mode in ("auto", "serial"):
        assert_same_bits(want[mode, 1], run_ensemble(psi, model, cfg, spec, mode=mode,
                                                     **quiet()))


def test_auto_mode_keeps_cutoff_upkeep_without_moving_freedoms():
    # moving = 0 recenters nothing but still adjusts every field cutoff, which
    # is per trajectory; auto must run it exactly as serial does
    g, gam = 0.5, 0.25
    h = g * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1))
    model = ModelOperators(h, [math.sqrt(2 * gam) * destroy(1)])
    psi = product_state([basis_state(2, 1, SPIN), basis_state(30, 0)])
    spec = OutputSpec(operators=(number(1), sigma_plus(0) * sigma_minus(0)))
    cfg = RunConfig(dt=0.01, numdts=10, numsteps=4, seed=5, n_trajectories=4,
                    moving=MovingBasisParams(n_moving=0, cutoff_epsilon=0.01))
    auto = run_ensemble(psi, model, cfg, spec, mode="auto", **quiet())
    ser = run_ensemble(psi, model, cfg, spec, mode="serial", **quiet())
    assert np.array_equal(auto.basis_sizes, ser.basis_sizes)
    assert auto.basis_sizes[1:].max() < 60  # the cutoff has trimmed the field
    assert np.array_equal(auto.mean_expectations, ser.mean_expectations)
    assert np.array_equal(auto.mean_variances, ser.mean_variances)
    assert np.array_equal(auto.se_re, ser.se_re)
    assert auto.stdout_lines == ser.stdout_lines


# --- statistics ----------------------------------------------------------------


def test_standard_error_shrinks_with_ensemble_size():
    model, psi = damped_cavity(dim=6, gamma=0.5)
    spec = OutputSpec(operators=(number(0),))
    mid = 3
    ses = []
    for n in (100, 400):
        cfg = RunConfig(dt=0.01, numdts=10, numsteps=5, seed=2, n_trajectories=n)
        res = run_ensemble(psi, model, cfg, spec, **quiet())
        ses.append(res.se_re[0, mid])
    ratio = ses[0] / ses[1]
    assert 1.4 < ratio < 2.8  # ~2 expected, wide statistical margin


def _fold(x, cuts):
    """_Welford over the samples x[..., r], fed in chunks split at cuts."""
    w = _Welford(x.shape[:-1])
    edges = [0, *cuts, x.shape[-1]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        w.update(x[..., lo:hi])
    return w


def test_chunk_fold_is_chunking_invariant_and_matches_two_pass():
    rng = np.random.default_rng(17)
    n = 257
    shape = (2, 3, n)
    x = 1e3 + 0.5j + rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x[1] *= 1e-4  # a spread far below the mean of the first block
    whole = _fold(x, [])
    one_by_one = _fold(x, range(1, n))
    split = _fold(x, sorted(rng.choice(np.arange(1, n), size=12, replace=False)))
    for w in (one_by_one, split):
        assert w.n == n
        assert np.array_equal(w.mean, whole.mean)
        assert all(np.array_equal(a, b) for a, b in zip(w.se(), whole.se()))
    np.testing.assert_allclose(whole.mean, x.mean(axis=-1), rtol=1e-12, atol=0)
    se_re, se_im = whole.se()
    root_n = math.sqrt(n)
    np.testing.assert_allclose(se_re, x.real.std(axis=-1, ddof=1) / root_n, rtol=1e-12, atol=0)
    np.testing.assert_allclose(se_im, x.imag.std(axis=-1, ddof=1) / root_n, rtol=1e-12, atol=0)


def test_chunk_fold_se_is_zero_for_one_or_identical_samples():
    one = _fold(np.full((2, 3, 1), 0.3 - 0.7j), [])
    same = _fold(np.full((2, 3, 40), 0.3 - 0.7j), [7, 8, 30])
    for w in (one, same):
        assert np.all(w.mean == 0.3 - 0.7j)
        se_re, se_im = w.se()
        assert np.all(se_re == 0.0) and np.all(se_im == 0.0)


@pytest.mark.parametrize("unr", [Unraveling.QSD, Unraveling.JUMP])
def test_noise_block_rows_equal_per_stream_draws(unr, monkeypatch):
    # qsd: the engine draws each output interval into one (B, numdts, m)
    # block, and row r, handed to the stepper as column r of each step's
    # (m, B) increments, must carry exactly the draws of stream streams[r].
    # jump: trajectory r draws from stream streams[r] through the chunk's
    # one source, one threshold at its first step and a channel uniform and
    # a threshold per jump, in order
    model = ModelOperators(number(0), [destroy(0), 0.3 * number(0)])
    psi = basis_state(6, 1)
    seen = []
    make = trajectory.make_stepper

    def recording(*args, **kwargs):
        stepper = make(*args, **kwargs)
        step = stepper.step

        def step_and_record(y, freedoms, t, noise):
            seen.append(noise.copy() if unr is Unraveling.QSD else noise)
            return step(y, freedoms, t, noise)

        stepper.step = step_and_record
        return stepper

    drawn = []  # (id of the source, its columns, what they drew), in call order
    uniforms = NoiseSource.uniforms

    def recording_uniforms(self, n, cols=None):
        u = uniforms(self, n, cols)
        drawn.append((id(self), range(u.shape[1]) if cols is None else list(cols), u.copy()))
        return u

    monkeypatch.setattr(trajectory, "make_stepper", recording)
    monkeypatch.setattr(NoiseSource, "uniforms", recording_uniforms)
    cfg = RunConfig(dt=0.2, numdts=4, numsteps=3, seed=13, unraveling=unr)
    streams = [5, 0, 2]
    jumps = _run(psi, model, cfg, OutputSpec(operators=(number(0),)), streams)[5]
    if unr is Unraveling.QSD:
        got = np.stack(seen)  # (numsteps * numdts, m, B)
        for b, k in enumerate(streams):
            src = NoiseSource(13, [k])
            want = [src.wiener(4, 2, 0.2)[0] for _ in range(3)]
            assert got[..., b].tobytes() == np.concatenate(want).tobytes()
        return
    assert all(source is seen[0] for source in seen)
    assert {who for who, _, _ in drawn} == {id(seen[0])}
    assert jumps.sum() > 0
    per_row = [[] for _ in streams]
    for _, cols, u in drawn:
        for i, c in enumerate(cols):
            per_row[c].extend(u[:, i])
    for got, k, n in zip(per_row, streams, jumps):
        assert len(got) == 1 + 2 * n
        want = uniforms(NoiseSource(13, [k]), len(got))[:, 0]
        assert np.array(got).tobytes() == want.tobytes()


def test_jump_ensemble_tracks_exponential_decay():
    kappa = 0.1
    model, psi = decaying_atom(kappa)
    spec = OutputSpec(operators=(sigma_plus(0) * sigma_minus(0),))
    cfg = RunConfig(dt=0.005, numdts=40, numsteps=10, seed=5,
                    n_trajectories=400, unraveling=Unraveling.JUMP)
    res = run_ensemble(psi, model, cfg, spec, **quiet())
    for k, t in enumerate(res.times):
        want = math.exp(-2 * kappa * t)
        tol = 4 * res.se_re[0, k] + 2e-3
        assert abs(res.mean_expectations[0, k].real - want) < tol

    # a two-level emitter decays at most once
    assert np.all(res.jumps_per_trajectory <= 1)
    # mean jump count ~ 1 - exp(-2 kappa T)
    want_jumps = 1 - math.exp(-2 * kappa * res.times[-1])
    mean_jumps = res.jumps_per_trajectory.mean()
    se = res.jumps_per_trajectory.std(ddof=1) / math.sqrt(len(res.jumps_per_trajectory))
    assert abs(mean_jumps - want_jumps) < 3 * se + 1e-3


def test_jump_scheme_has_no_first_order_bias():
    # one jump decision per step, with p = 2 kappa dt taken at the step
    # start, would give P_e(1) = (1 - 2 kappa dt)^20 = 0.1216 instead of the
    # exact exp(-2 kappa) = 0.1353, 11 SE away at 100000 trajectories; the
    # waiting-time algorithm times each jump by the survival itself
    kappa, dt = 1.0, 0.05
    model, psi = decaying_atom(kappa)
    spec = OutputSpec(operators=(sigma_plus(0) * sigma_minus(0),))
    cfg = RunConfig(dt=dt, numdts=20, numsteps=1, seed=3, n_trajectories=100000,
                    unraveling=Unraveling.JUMP)
    res = run_ensemble(psi, model, cfg, spec, **quiet())
    assert res.times[-1] == pytest.approx(1.0)
    pe, se = res.mean_expectations[0, -1].real, res.se_re[0, -1]
    assert abs(pe - math.exp(-2 * kappa)) < 3 * se
    assert abs(pe - (1 - 2 * kappa * dt) ** 20) > 4 * se


def test_several_jumps_per_step_count_the_jump_rate():
    # pump and decay both at rate k: the total jump rate is k in every
    # state, so the jump count is Poisson with mean k T.  At k dt = 0.8 a
    # row often jumps more than once in a step
    k, dt = 8.0, 0.1
    model = ModelOperators(None, [math.sqrt(k) * sigma_plus(0), math.sqrt(k) * sigma_minus(0)])
    psi = basis_state(2, 1, SPIN)
    spec = OutputSpec(operators=(sigma_plus(0) * sigma_minus(0),))
    for unr in (Unraveling.JUMP, Unraveling.ORTHO_JUMP):
        cfg = RunConfig(dt=dt, numdts=10, numsteps=2, seed=9, n_trajectories=500,
                        unraveling=unr)
        res = run_ensemble(psi, model, cfg, spec, **quiet())
        counts = res.jumps_per_trajectory
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - k * res.times[-1]) < 3 * se
        # both levels are populated alike by then
        assert abs(res.mean_expectations[0, -1].real - 0.5) < 3 * res.se_re[0, -1] + 1e-3


@pytest.mark.parametrize("unr", [Unraveling.JUMP, Unraveling.ORTHO_JUMP], ids=lambda u: u.value)
def test_driven_atom_matches_oracle_at_a_coarse_step(unr):
    # dt = 0.1 with decay rate 1 and drive 1: a jump decision per step taken
    # from the rates at the step start misses the oracle here by 4 to 10 SE
    # at 4000 trajectories; jumps located inside the step do not
    gamma = 0.5
    model = ModelOperators(sigma_plus(0) + sigma_minus(0),
                           [math.sqrt(2 * gamma) * sigma_minus(0)])
    psi0 = basis_state(2, 1, SPIN)
    ops = (sigma_plus(0) * sigma_minus(0), sigma_minus(0))
    cfg = RunConfig(dt=0.1, numdts=5, numsteps=8, n_trajectories=4000, seed=11,
                    unraveling=unr)
    res = run_ensemble(psi0, model, cfg, OutputSpec(ops), **quiet())
    oracle = oracle_expectations(psi0, model, ops, res.times, dt_oracle=1e-3)
    rep = compare_ensemble(res.times, res.mean_expectations, res.se_re, res.se_im,
                           oracle, z=3.0)
    assert rep.passed, rep.table


@pytest.mark.parametrize("unr", list(Unraveling), ids=lambda u: u.value)
def test_driven_atom_matches_oracle(unr):
    # the drive keeps <sigma-> nonzero, so the orthogonal jump's projection
    # on <L> changes the jumped state here (it is exactly 0 for an undriven
    # atom); every unraveling must agree with the density-matrix oracle
    gamma = 0.5
    model = ModelOperators(sigma_plus(0) + sigma_minus(0),
                           [math.sqrt(2 * gamma) * sigma_minus(0)])
    psi0 = basis_state(2, 1, SPIN)
    ops = (sigma_plus(0) * sigma_minus(0), sigma_minus(0))
    cfg = RunConfig(dt=2e-3, numdts=100, numsteps=10, n_trajectories=2000, seed=11,
                    unraveling=unr)
    res = run_ensemble(psi0, model, cfg, OutputSpec(ops), **quiet())
    oracle = oracle_expectations(psi0, model, ops, res.times, dt_oracle=1e-3)
    rep = compare_ensemble(res.times, res.mean_expectations, res.se_re, res.se_im,
                           oracle, z=3.0)
    assert rep.passed, rep.table


def test_qsd_with_three_channels_matches_oracle():
    # Jaynes-Cummings with field damping, atom decay and field dephasing:
    # every L_j enters the noise of one QSD step, read at one state
    h = 0.5 * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1))
    model = ModelOperators(h, [math.sqrt(0.5) * destroy(1), math.sqrt(0.2) * sigma_minus(0),
                               math.sqrt(0.2) * number(1)])
    psi0 = product_state([basis_state(2, 1, SPIN), coherent_state(8, 0.8)])
    ops = (number(1), sigma_plus(0) * sigma_minus(0), destroy(1))
    cfg = RunConfig(dt=4e-3, numdts=25, numsteps=10, n_trajectories=2000, seed=5,
                    unraveling=Unraveling.QSD)
    res = run_ensemble(psi0, model, cfg, OutputSpec(ops), **quiet())
    oracle = oracle_expectations(psi0, model, ops, res.times, dt_oracle=1e-3)
    rep = compare_ensemble(res.times, res.mean_expectations, res.se_re, res.se_im,
                           oracle, z=3.0)
    assert rep.passed, rep.table


@pytest.mark.parametrize("integrator", ["rk4", "adaptive"])
def test_exact_unraveling_invariances(integrator):
    # Jaynes-Cummings with field damping and atom decay.  Each change below
    # leaves the master equation alone (Breuer & Petruccione 2002, sec. 3.2)
    # and each trajectory of the unravelings it keeps, for the same noise;
    # the other unravelings agree with the unchanged model only in the mean
    a, sm = destroy(0), sigma_minus(1)
    h = 0.3 * number(0) + 0.5 * (create(0) * sm + a * sigma_plus(1))
    ls = [math.sqrt(2) * a, 0.4 * sm]
    one = sigma_z(1) * sigma_z(1)  # the identity
    c = 0.7 - 0.4j
    changes = {
        # H -> H + 0.7 1 only turns the phase of the state
        "energy": ((h + 0.7 * one, ls), set(Unraveling)),
        # L_j -> exp(i phi_j) L_j
        "phases": ((h, [cmath.exp(0.9j) * ls[0], cmath.exp(-2.1j) * ls[1]]),
                   {Unraveling.JUMP, Unraveling.ORTHO_JUMP}),
        # L -> L + c, H -> H + (c* L - c L+)/(2i)
        "shift": ((h - 0.5j * (c.conjugate() * ls[0] - c * ls[0].hc()), [ls[0] + c * one, ls[1]]),
                  {Unraveling.QSD, Unraveling.ORTHO_JUMP}),
    }
    # a Fock field: from a coherent one the orthogonal jumps never fire
    psi0 = product_state([basis_state(8, 2), basis_state(2, 1, SPIN)])
    ops = (number(0), a, sigma_z(1))

    def run(model, unr):
        cfg = RunConfig(dt=2e-3, numdts=1, numsteps=300, seed=3, unraveling=unr,
                        integrator=IntegratorConfig(integrator))
        res = run_single(psi0, ModelOperators(*model), cfg, OutputSpec(ops), **quiet())
        return np.concatenate([res.expectations, res.variances]), res.jumps

    for unr in Unraveling:
        want, jumps = run((h, ls), unr)
        assert jumps > 0 or unr is Unraveling.QSD
        for name, (model, kept) in changes.items():
            got, _ = run(model, unr)
            diff = np.abs(got - want).max()
            assert diff < 1e-9 if unr in kept else diff > 1e-3, (name, unr, diff)


def test_moving_basis_run_matches_fixed_basis():
    # driven leaky cavity; the moving frame needs only a handful of levels
    e_amp, gamma = 1.0, 1.0
    h = 1j * e_amp * (create(0) - destroy(0))
    model = ModelOperators(h, [math.sqrt(2 * gamma) * destroy(0)])
    spec = OutputSpec(operators=(number(0),))
    moving = MovingBasisParams(n_moving=1, cutoff_epsilon=1e-10, pad_size=2,
                               shift_accuracy=1e-8)
    cfg_mov = RunConfig(dt=0.01, numdts=10, numsteps=5, seed=9, moving=moving)
    cfg_fix = RunConfig(dt=0.01, numdts=10, numsteps=5, seed=9)
    res_mov = run_single(basis_state(16, 0), model, cfg_mov, spec, **quiet())
    res_fix = run_single(basis_state(60, 0), model, cfg_fix, spec, **quiet())
    assert np.abs(res_mov.expectations - res_fix.expectations).max() < 1e-6
    # the t=0 row reports the allocation; afterwards the cutoff has trimmed
    assert res_mov.basis_sizes[1:].max() < 16


def test_moving_basis_requires_leading_fields():
    model, psi = decaying_atom()
    spec = OutputSpec(operators=(sigma_plus(0) * sigma_minus(0),))
    cfg = RunConfig(dt=0.01, numdts=2, numsteps=1,
                    moving=MovingBasisParams(n_moving=1))
    with pytest.raises(ValueError, match="field"):
        run_single(psi, model, cfg, spec, **quiet())


def test_multi_freedom_run_with_spin_field():
    # Jaynes-Cummings exchange keeps total excitation number constant
    g = 0.7
    h = g * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1))
    model = ModelOperators(h, [])
    psi = product_state([basis_state(2, 1, SPIN), basis_state(5, 0)])
    ntot = sigma_plus(0) * sigma_minus(0) + number(1)
    spec = OutputSpec(operators=(ntot,))
    cfg = RunConfig(dt=0.005, numdts=20, numsteps=4)
    res = run_single(psi, model, cfg, spec, **quiet())
    assert np.abs(res.expectations[0] - 1.0).max() < 1e-9


# --- moving basis: trimmed first step, one compile per basis shape ------------

SHG = pathlib.Path(__file__).resolve().parents[1] / "models" / "shg.qt"


def shg_run(numdts, numsteps):
    """The shg.qt model on a shorter grid, writing no files."""
    _, model, psi0, cfg, spec = load_model(str(SHG))
    cfg = dataclasses.replace(cfg, numdts=numdts, numsteps=numsteps)
    return model, psi0, cfg, OutputSpec(spec.operators, pipe=spec.pipe)


def test_moving_run_steps_a_trimmed_block_from_the_first_step(monkeypatch):
    model, psi0, cfg, spec = shg_run(numdts=2, numsteps=1)
    widths = []
    make = trajectory.make_stepper

    def recording(*args, **kwargs):
        stepper = make(*args, **kwargs)
        step = stepper.step

        def step_and_record(y, freedoms, t, noise):
            widths.append((y.shape[0], math.prod(f.dim_used for f in freedoms)))
            return step(y, freedoms, t, noise)

        stepper.step = step_and_record
        return stepper

    monkeypatch.setattr(trajectory, "make_stepper", recording)
    res = run_single(psi0, model, cfg, spec, **quiet())
    assert res.stdout_lines[0].split()[5] == "5000"  # row 0 reports the allocation
    # both fields start in vacuum: 1 level plus a pad of 2 each, times the spin
    assert widths[0] == (18, 18)
    assert len(widths) == 2


def test_moving_run_compiles_h_eff_once_per_basis_shape(monkeypatch):
    model, psi0, cfg, spec = shg_run(numdts=10, numsteps=2)
    compiles = []
    compile_node = operators._compile_node

    def counting(node, shape, size):
        if node is model.h_eff:
            compiles.append(tuple(dim for _, dim in shape))
        return compile_node(node, shape, size)

    shapes = set()
    drift = steppers._drift2d

    def drift_and_record(y, freedoms, *args):
        shapes.add(tuple(f.dim_used for f in freedoms))
        return drift(y, freedoms, *args)

    shifts = []
    recenter = trajectory.recenter

    def recenter_and_record(*args):
        shifts.append(recenter(*args))
        return shifts[-1]

    monkeypatch.setattr(operators, "_compile_node", counting)
    monkeypatch.setattr(steppers, "_drift2d", drift_and_record)
    monkeypatch.setattr(trajectory, "recenter", recenter_and_record)
    run_single(psi0, model, cfg, spec, **quiet())
    assert sorted(compiles) == sorted(shapes)  # each shape compiled exactly once
    assert sum(s != 0 for s in shifts) > 2 * len(compiles)


@pytest.mark.parametrize("unr, kind", [(Unraveling.ORTHO_JUMP, "rk4"),
                                       (Unraveling.QSD, "adaptive"),
                                       (Unraveling.JUMP, "adaptive")],
                         ids=["orthojump-rk4", "qsd-adaptive", "jump-adaptive"])
def test_lockstep_equals_serial_with_a_time_dependent_drive(unr, kind):
    # a cos(w t) drive puts per-trajectory times through the kernels:
    # crossing columns of the jump step and every column of an adaptive
    # block keep clocks of their own, so the lockstep block scales its time
    # groups by a (1, B) row of factors, while a serial chunk is one column
    drive = lambda t: 0.6 * math.cos(1.7 * t)
    h = 0.5 * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1)) \
        + drive * (destroy(1) + create(1))
    model = ModelOperators(h, [math.sqrt(0.4) * destroy(1), math.sqrt(0.3) * sigma_minus(0)])
    psi0 = product_state([basis_state(2, 1, SPIN), basis_state(4, 0)])
    cfg = RunConfig(dt=0.02, numdts=25, numsteps=4, n_trajectories=16, seed=3,
                    unraveling=unr, integrator=IntegratorConfig(kind))
    spec = OutputSpec((number(1), sigma_plus(0) * sigma_minus(0)))
    lock = run_ensemble(psi0, model, cfg, spec, mode="auto", **quiet())
    serial = run_ensemble(psi0, model, cfg, spec, mode="serial", **quiet())
    for name in ("mean_expectations", "mean_variances", "se_re", "se_im", "substeps",
                 "jumps_per_trajectory"):
        assert getattr(lock, name).tobytes() == getattr(serial, name).tobytes(), name
    assert lock.stdout_lines == serial.stdout_lines
    if unr is not Unraveling.QSD:
        assert 0 < lock.jumps_per_trajectory.sum()


# --- static runs step the box their dynamics can reach ------------------------


def jc_model(lindblads=True):
    """Acceptance 2's Jaynes-Cummings model: atom (spin 0) and field (1)."""
    h = 0.5 * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1))
    return ModelOperators(h, [math.sqrt(0.5) * destroy(1)] if lindblads else [])


def jc_state(levels):
    return product_state([basis_state(2, 1, SPIN), basis_state(levels, 0)])


@pytest.mark.parametrize("unr", list(Unraveling), ids=lambda u: u.value)
def test_static_ensemble_steps_its_reachable_box_with_the_same_bits(unr):
    # from |up,0>, H conserves the excitation number and a lowers it: only
    # field levels 0 and 1 are ever occupied, so 8 levels step as 2 do
    spec = OutputSpec((number(1), sigma_plus(0) * sigma_minus(0)))
    cfg = RunConfig(dt=0.01, numdts=100, numsteps=3, n_trajectories=40, seed=11,
                    unraveling=unr)
    wide = run_ensemble(jc_state(8), jc_model(), cfg, spec, **quiet())
    narrow = run_ensemble(jc_state(2), jc_model(), cfg, spec, **quiet())
    assert wide.basis_sizes.tolist() == [16, 4, 4, 4]
    assert narrow.basis_sizes.tolist() == [4, 4, 4, 4]
    for name in ("mean_expectations", "mean_variances", "se_re", "se_im", "substeps",
                 "jumps_per_trajectory"):
        assert getattr(wide, name).tobytes() == getattr(narrow, name).tobytes(), name
    if unr is not Unraveling.QSD:
        assert 0 < wide.jumps_per_trajectory.sum()


def dense_rk4(h, ops, psi0, cfg):
    """(n_ops, numsteps+1) expectations and variances of RK4 steps of y' = -iHy, renormalized.

    The qsd stepper of a model without L_j takes exactly these steps, so a
    run must match them to round-off.
    """
    dims = tuple(f.dim_used for f in psi0.freedoms)
    a = -1j * cfg.dt * to_dense(h, dims)
    p4 = np.eye(len(a)) + a @ (np.eye(len(a)) + a / 2 @ (np.eye(len(a)) + a / 3 @ (
        np.eye(len(a)) + a / 4)))
    mats = [to_dense(op, dims) for op in ops]
    y = psi0.amps.copy()
    exps = np.zeros((len(ops), cfg.numsteps + 1), dtype=complex)
    vars_ = np.zeros_like(exps)
    for k in range(cfg.numsteps + 1):
        for _ in range(cfg.numdts if k else 0):
            y = p4 @ y
            y /= np.linalg.norm(y)
        for i, m in enumerate(mats):
            exps[i, k] = y.conj() @ m @ y
            vars_[i, k] = y.conj() @ m @ m @ y - exps[i, k] ** 2
    return exps, vars_


def test_an_output_operator_widens_the_box_to_what_its_variance_reads():
    # without L_j the state stays in |up,0> and |down,1>, but (a + a+)^2
    # reads field level 2 through |down,1>: only the variance shows it
    model = jc_model(lindblads=False)
    x = destroy(1) + create(1)
    cfg = RunConfig(dt=0.01, numdts=30, numsteps=4)
    res = run_single(jc_state(8), model, cfg, OutputSpec((x,)), **quiet())
    assert res.basis_sizes.tolist() == [16, 6, 6, 6, 6]
    exps, vars_ = dense_rk4(model.hamiltonian, (x,), jc_state(8), cfg)
    assert np.abs(res.expectations - exps).max() < 1e-12
    assert np.abs(res.variances - vars_).max() < 1e-12
    assert vars_[0, -1].real > 1.1  # level 2 carries weight


def test_a_product_through_a_level_above_the_box_widens_it():
    # a a+ takes |1> through |2>: compiled on two levels its top entry would
    # read 0, not 2, and turn the phase the other way, so the box takes
    # level 2 although the state never occupies it
    h = destroy(0) * create(0)
    psi0 = (basis_state(8, 0) + basis_state(8, 1)) * (1 / math.sqrt(2))
    cfg = RunConfig(dt=0.01, numdts=30, numsteps=4)
    res = run_single(psi0, ModelOperators(h), cfg, OutputSpec((destroy(0),)), **quiet())
    assert res.basis_sizes.tolist() == [8, 3, 3, 3, 3]
    exps, vars_ = dense_rk4(h, (destroy(0),), psi0, cfg)
    assert np.abs(res.expectations - exps).max() < 1e-12
    assert np.abs(res.variances - vars_).max() < 1e-12


def driven_mode(levels):
    h = 2j * (create(0) - destroy(0))
    return ModelOperators(h, [math.sqrt(2.0) * destroy(0)]), basis_state(levels, 0)


def test_runs_the_box_does_not_apply_to_keep_their_allocation():
    cfg = RunConfig(dt=1e-3, numdts=5, numsteps=2, seed=5)
    spec = OutputSpec((number(0),))
    # acceptance 5's driven mode reaches every level of its 200
    model, psi0 = driven_mode(200)
    assert run_single(psi0, model, cfg, spec, **quiet()).basis_sizes.tolist() == [200] * 3
    # a time group anywhere, in h_eff or in an output, keeps the allocation
    drive = lambda t: math.cos(t)
    timed = ModelOperators(drive * number(0), [destroy(0)])
    res = run_single(basis_state(6, 1), timed, cfg, spec, **quiet())
    assert res.basis_sizes.tolist() == [6] * 3
    static = ModelOperators(number(0), [destroy(0)])
    res = run_single(basis_state(6, 1), static, cfg, OutputSpec((drive * number(0),)), **quiet())
    assert res.basis_sizes.tolist() == [6] * 3
    assert run_single(basis_state(6, 1), static, cfg, spec,
                      **quiet()).basis_sizes.tolist() == [6, 2, 2]
    # a moving basis keeps its own cutoff, padded past the box
    moving = dataclasses.replace(cfg, moving=MovingBasisParams(
        n_moving=1, cutoff_epsilon=1e-10, pad_size=2, shift_accuracy=1e-8))
    res = run_single(basis_state(20, 0), ModelOperators(number(0)), moving, spec, **quiet())
    assert res.basis_sizes.tolist() == [20, 3, 3]
