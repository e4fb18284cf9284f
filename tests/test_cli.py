"""Command line interface: subcommands, overrides, exit codes."""

import os
import pathlib
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from qtraj.cli import main
from qtraj.modelfile import RUN_KEYS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment of a child python3, with this checkout's src first on its path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))

ATOM_MODEL = textwrap.dedent("""\
    freedoms:
      s spin

    params:
      kappa = 0.1

    lindblads:
      sqrt(2*kappa)*sm(s)

    initial:
      s up

    output:
      up.out sp(s)*sm(s)

    run:
      dt = 0.01
      numdts = 20
      numsteps = 5
      trajectories = 200
      unraveling = jump
    """)


@pytest.fixture
def atom_model(tmp_path):
    path = tmp_path / "atom.qt"
    path.write_text(ATOM_MODEL)
    return str(path)


def test_run_writes_files_and_stdout(atom_model, tmp_path, capsys):
    rc = main(["run", "--model", atom_model, "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 6
    first = lines[0].split()
    assert len(first) == 7
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0  # starts in the upper state
    data = np.loadtxt(tmp_path / "up.out")
    assert data.shape == (6, 5)
    assert data[0, 1] == 1.0


def test_ensemble_writes_se_columns(atom_model, tmp_path, capsys):
    rc = main(["ensemble", "--model", atom_model, "--out-dir", str(tmp_path),
               "--trajectories", "100", "--seed", "3"])
    assert rc == 0
    data = np.loadtxt(tmp_path / "up.out")
    assert data.shape == (6, 7)
    assert data[-1, 5] > 0  # spread across trajectories once jumps fire


def test_ensemble_of_one_matches_run(atom_model, tmp_path, capsys):
    rc = main(["run", "--model", atom_model, "--out-dir", str(tmp_path),
               "--seed", "7"])
    assert rc == 0
    single = capsys.readouterr().out.strip().splitlines()
    rc = main(["ensemble", "--model", atom_model, "--out-dir", str(tmp_path),
               "--trajectories", "1", "--seed", "7"])
    assert rc == 0
    ens = capsys.readouterr().out.strip().splitlines()
    assert [l.split()[:5] for l in ens] == [l.split()[:5] for l in single]


def test_cli_overrides(atom_model, tmp_path, capsys):
    rc = main(["run", "--model", atom_model, "--out-dir", str(tmp_path),
               "--numsteps", "2", "--numdts", "5", "--dt", "0.5",
               "--unraveling", "qsd", "--integrator", "adaptive", "--eps", "1e-7",
               "--pipe", "1", "1", "1", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert float(lines[-1].split()[0]) == 5.0  # 2 steps of 5*0.5
    # pipe column 1 repeats Re<O>; exactly 1.0 at t=0 from the upper state
    assert lines[0].split()[1:5] == ["1.0"] * 4


def test_oracle_check_passes(atom_model, tmp_path, capsys):
    rc = main(["oracle-check", "--model", atom_model, "--out-dir", str(tmp_path),
               "--trajectories", "300", "--seed", "1", "--dt-oracle", "1e-3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "worst" in out
    assert "up.out" in out


def test_oracle_check_fails_with_bad_statistics(atom_model, tmp_path, capsys):
    # one QSD trajectory cannot track the mean: SE is zero, floor 1e-3
    rc = main(["oracle-check", "--model", atom_model, "--out-dir", str(tmp_path),
               "--trajectories", "1", "--unraveling", "qsd", "--seed", "0",
               "--dt-oracle", "1e-3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_print_model_round_trips(atom_model, capsys):
    rc = main(["print-model", "--model", atom_model])
    assert rc == 0
    echoed = capsys.readouterr().out
    assert echoed.startswith("freedoms:")
    from qtraj import parse_model
    assert parse_model(echoed) == parse_model(ATOM_MODEL)


def test_missing_model_file_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--model", str(tmp_path / "nope.qt")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err
    rc = main(["print-model", "--model", str(tmp_path / "nope.qt")])
    assert rc == 2


def test_out_dir_that_is_a_file_cannot_be_written(atom_model, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main(["run", "--model", atom_model, "--out-dir", str(taken)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("qtraj: cannot write output: [Errno 17] File exists")


def test_output_file_that_is_a_directory_cannot_be_written(atom_model, tmp_path, capsys):
    (tmp_path / "up.out").mkdir()
    rc = main(["ensemble", "--model", atom_model, "--out-dir", str(tmp_path),
               "--trajectories", "4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("qtraj: cannot write output: [Errno 21] Is a directory")
    assert "up.out" in err


TWO_WORKER_SCRIPT = """
import sys
from qtraj import cli, trajectory
trajectory._usable_cpus = lambda: 2
print("before the run")  # still in stdout's buffer when the workers fork
sys.exit(cli.main(sys.argv[1:]))
"""


def test_two_worker_ensemble_writes_each_line_once_and_no_warning(atom_model, tmp_path):
    # stdout is a pipe, so it is block-buffered: a worker forked with the
    # first line still buffered would write it a second time on exit.  At
    # dt = 0.6 a step holds a jump rate times dt of 0.12, which needs no
    # warning: jumps are located inside the step
    numsteps = 5
    proc = subprocess.run(
        [sys.executable, "-c", TWO_WORKER_SCRIPT, "ensemble", "--model", atom_model,
         "--out-dir", str(tmp_path), "--dt", "0.6", "--numdts", "1",
         "--numsteps", str(numsteps), "--trajectories", "50"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "before the run"
    assert len(lines[1:]) == numsteps + 1
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qt"
    bad.write_text("freedoms:\n  s spin\nwibble:\n")
    rc = main(["run", "--model", str(bad)])
    assert rc == 2
    assert "unknown section" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "nonherm.qt"
    bad.write_text(textwrap.dedent("""\
        freedoms:
          m field 4

        hamiltonian:
          a(m)

        initial:
          m fock 0

        output:
          n.out n(m)

        run:
          dt = 0.01
          numdts = 1
          numsteps = 1
        """))
    rc = main(["run", "--model", str(bad)])
    assert rc == 1
    assert "Hermitian" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["run"])  # --model is required
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate", "--model", "x"])
    assert e.value.code == 2


def test_out_dir_env_var(atom_model, tmp_path, monkeypatch, capsys):
    target = tmp_path / "outputs"
    monkeypatch.setenv("QTRAJ_OUT_DIR", str(target))
    rc = main(["run", "--model", atom_model])
    assert rc == 0
    assert (target / "up.out").exists()


def test_module_entry_point(atom_model, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qtraj", "run", "--model", atom_model,
         "--out-dir", str(tmp_path), "--numsteps", "1"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 2


def test_moving_basis_flags_need_a_moving_count(atom_model, tmp_path, capsys):
    # same rule and message as the model file's run section
    for flag, value in (("--cutoff-epsilon", "0.05"), ("--pad", "3"),
                        ("--shift-accuracy", "1e-5")):
        rc = main(["run", "--model", atom_model, "--out-dir", str(tmp_path), flag, value])
        assert rc == 2
        assert "moving-basis keys need 'moving = <count>'" in capsys.readouterr().err
    rc = main(["run", "--model", atom_model, "--out-dir", str(tmp_path),
               "--moving", "0", "--cutoff-epsilon", "0.05"])
    assert rc == 0


def test_cli_run_does_not_import_scipy(atom_model, tmp_path):
    # scipy is a test dependency only; importing it would dominate start-up
    code = ("import sys\n"
            "from qtraj import cli\n"
            "rc = cli.main(['run', '--model', sys.argv[1], '--out-dir', sys.argv[2],"
            " '--numsteps', '1'])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code, atom_model, str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


CAVITY_RUN = {"dt": "0.01", "numdts": "5", "numsteps": "3", "trajectories": "4"}


def cavity_model(run):
    lines = "".join(f"  {key} = {value}\n" for key, value in run.items())
    return textwrap.dedent("""\
        freedoms:
          m field 12

        hamiltonian:
          1.5i*(adag(m) - a(m))

        lindblads:
          sqrt(2)*a(m)

        initial:
          m fock 0

        output:
          n.out n(m)
          a.out a(m)

        run:
        """) + lines


def _outcome(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    # the file names its model path and the line of the key; the flag has neither
    err = re.sub(r"^qtraj: \S+: (line \d+, col \d+: )?", "qtraj: ", err)
    return rc, out, err


FLAG_CASES = [
    {"dt": "0.02"}, {"dt": "-1"}, {"dt": "abc"},
    {"numdts": "3"}, {"numdts": "0"}, {"numdts": "2.5"},
    {"numsteps": "0"}, {"numsteps": "-1"},
    {"trajectories": "2"}, {"trajectories": "0"},
    {"seed": "5"}, {"seed": "1e3"}, {"seed": "1.5"},
    {"unraveling": "jump"}, {"unraveling": "bogus"},
    {"integrator": "adaptive"}, {"integrator": "euler"},
    {"integrator": "adaptive", "eps": "1e-4"}, {"eps": "0"},
    {"moving": "1"}, {"moving": "0"}, {"moving": "-1"}, {"moving": "2"},
    {"moving": "1", "cutoff_epsilon": "0.05"}, {"cutoff_epsilon": "0.05"},
    {"moving": "1", "pad": "3"}, {"moving": "1", "pad": "0"}, {"pad": "3"},
    {"moving": "1", "shift_accuracy": "1e-3"}, {"shift_accuracy": "1e-3"},
    {"moving": "1", "cutoff_epsilon": "0.7"}, {"moving": "1", "shift_accuracy": "0"},
    {"pipe": "5 6 7 8"}, {"pipe": "1 2 3 9"},
]


@pytest.mark.parametrize("keys", FLAG_CASES,
                         ids=lambda keys: " ".join(f"{k}={v}" for k, v in keys.items()))
def test_flags_match_model_file_run_keys(keys, tmp_path, capsys):
    # a run-key flag and the same key in the run section give the same run,
    # or fail with the same exit code and message
    base = tmp_path / "base.qt"
    base.write_text(cavity_model(CAVITY_RUN))
    edited = tmp_path / "edited.qt"
    edited.write_text(cavity_model({**CAVITY_RUN, **keys}))
    flags = []
    for key, value in keys.items():
        flags += ["--" + key.replace("_", "-")] + value.split()
    common = ["ensemble", "--seed", "3"] if "seed" not in keys else ["ensemble"]
    by_flag = _outcome(common + ["--model", str(base), "--out-dir", str(tmp_path / "flag")]
                       + flags, capsys)
    by_file = _outcome(common + ["--model", str(edited),
                                 "--out-dir", str(tmp_path / "file")], capsys)
    assert by_flag == by_file


def test_every_run_key_has_one_flag_and_a_flag_case(capsys):
    # a new run key cannot land without its flag and a flag-versus-file case
    assert {key for keys in FLAG_CASES for key in keys} == set(RUN_KEYS)
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    flags = re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    run_flags = [f for f in flags if f not in ("--help", "--model", "--out-dir")]
    assert sorted(run_flags) == sorted("--" + key.replace("_", "-") for key in RUN_KEYS)


@pytest.mark.parametrize("keys, message", [
    ({"eps": "0"}, "integrator eps must be positive"),
    ({"moving": "1", "cutoff_epsilon": "0.7"}, "cutoff_epsilon must lie in (0, 0.5)"),
    ({"moving": "1", "shift_accuracy": "0"}, "shift_accuracy must be positive"),
    ({"seed": "-1"}, "run key 'seed' must be >= 0"),
], ids=["eps", "cutoff_epsilon", "shift_accuracy", "seed"])
def test_out_of_range_run_values_exit_2(keys, message, tmp_path, capsys):
    # values the config dataclasses reject are model errors, as pad = 0 is:
    # exit 2 with the dataclass's message, at the key's line in a file
    edited = tmp_path / "edited.qt"
    edited.write_text(cavity_model({**CAVITY_RUN, **keys}))
    key, value = list(keys.items())[-1]
    lineno = edited.read_text().splitlines().index(f"  {key} = {value}") + 1
    assert main(["run", "--model", str(edited), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"qtraj: {edited}: line {lineno}, col 1: {message}\n"
    base = tmp_path / "base.qt"
    base.write_text(cavity_model(CAVITY_RUN))
    flags = [arg for k, v in keys.items() for arg in ("--" + k.replace("_", "-"), v)]
    assert main(["run", "--model", str(base), "--out-dir", str(tmp_path)] + flags) == 2
    assert capsys.readouterr().err == f"qtraj: {base}: {message}\n"


UNSTABLE_MODEL = textwrap.dedent("""\
    freedoms:
      m field 3000

    hamiltonian:
      n(m)

    initial:
      m coherent 40

    output:
      n.out n(m)

    run:
      dt = 0.01
      numdts = 2
      numsteps = 5
    """)


def test_unstable_rk4_step_fails_instead_of_renormalizing(tmp_path, capsys):
    # omega*dt reaches 30 on the upper levels, far outside RK4's stability
    # region; renormalizing after each step used to hide the blow-up and
    # report a drifting <n> that H = n(m) conserves
    path = tmp_path / "unstable.qt"
    path.write_text(UNSTABLE_MODEL)
    rc = main(["run", "--model", str(path), "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "trajectory 0 failed at t=0: " in captured.err
    assert "reduce dt" in captured.err
    assert captured.out == ""
    rc = main(["run", "--model", str(path), "--out-dir", str(tmp_path), "--dt", "1e-4"])
    assert rc == 0
    n = np.loadtxt(tmp_path / "n.out")[:, 1]
    assert len(n) == 6
    assert np.abs(n / 1600 - 1).max() < 1e-4


def finite_model(hamiltonian="n(m)", params="", initial="m fock 0", run="", numdts=1,
                 numsteps=1):
    text = textwrap.dedent("""\
        freedoms:
          m field 4
        """)
    if params:
        text += f"params:\n  {params}\n"
    return text + textwrap.dedent(f"""\
        hamiltonian:
          {hamiltonian}

        initial:
          {initial}

        output:
          n.out n(m)

        run:
          dt = 0.01
          numdts = {numdts}
          numsteps = {numsteps}
        """) + run


@pytest.mark.parametrize("model, where, message", [
    (finite_model("exp(1000)*n(m)"), "line 4, col 3", "value overflows"),
    (finite_model("2^99999*n(m)"), "line 4, col 4", "value overflows"),
    (finite_model("a(m)^1e999"), "line 4, col 8", "number literal '1e999' overflows"),
    (finite_model("k*n(m)", params="k = exp(800)"), "line 4, col 7", "value overflows"),
    (finite_model(initial="m coherent 1e999"), "line 7, col 14",
     "number literal '1e999' overflows"),
    (finite_model(run="  seed = 1e999\n"), "line 16, col 10",
     "number literal '1e999' overflows"),
    (finite_model(run="  trajectories = 1e999\n"), "line 16, col 18",
     "number literal '1e999' overflows"),
    (finite_model(run="  moving = 1e999\n"), "line 16, col 12",
     "number literal '1e999' overflows"),
    (finite_model("1e999*n(m)"), "line 4, col 3", "number literal '1e999' overflows"),
    (finite_model("(1e308*10)*n(m)"), "line 4, col 9", "value overflows"),
], ids=["exp", "power", "exponent", "param", "coherent", "seed", "trajectories",
        "moving", "literal", "product"])
def test_numbers_that_overflow_are_parse_errors(model, where, message, tmp_path, capsys):
    # every number a model file holds must be finite; an overflow is a
    # located parse error, never a traceback or an echo that cannot be read back
    path = tmp_path / "overflow.qt"
    path.write_text(model)
    for command in ("print-model", "run"):
        argv = [command, "--model", str(path)]
        if command == "run":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"qtraj: {path}: {where}: {message}\n"
        assert captured.out == ""


def test_coherent_amplitude_past_overflow_of_its_square_builds(tmp_path, capsys):
    # |alpha|^2 overflows to inf; the peak level is clamped before int()
    path = tmp_path / "coherent.qt"
    path.write_text(finite_model(initial="m coherent 1e200"))
    assert main(["run", "--model", str(path), "--out-dir", str(tmp_path)]) == 0
    assert np.loadtxt(tmp_path / "n.out")[0, 1] == 3.0  # all weight on the top level


@pytest.mark.parametrize("hamiltonian, message", [
    ("1e308*n(m) + 1e308*n(m)", "hamiltonian has a matrix element that is not finite at t=0.0"),
    ("exp(1000*t)*n(m)", "hamiltonian: a time-dependent factor overflows at t=1"),
], ids=["infinite-element", "time-function"])
def test_non_finite_hamiltonian_is_a_validation_error(hamiltonian, message, tmp_path, capsys):
    # with finite literals H can still hold inf; its adjointness defect was
    # NaN, which passed the check, and the run wrote nan rows
    path = tmp_path / "nonfinite.qt"
    path.write_text(finite_model(hamiltonian))
    assert main(["run", "--model", str(path), "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"qtraj: {path}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("lindblad, message", [
    ("1e200*(1e200*sm(s))",
     "lindblad 1 (1e+200*(1e+200*sm(s))) has a matrix element that is not finite at t=0.0"),
    ("exp(1000*t)*sm(s)",
     "lindblad 1 (exp(1000.0*t)*sm(s)): a time-dependent factor overflows at t=1"),
    # L is finite, but the L+L that h_eff adds overflows
    ("1e160*sm(s)",
     "L+L of lindblad 1 (1e+160*sm(s)) has a matrix element that is not finite at t=0.0"),
    ("exp(400*t)*sm(s)",
     "L+L of lindblad 1 (exp(400.0*t)*sm(s)): a time-dependent factor overflows at t=1"),
], ids=["infinite-element", "time-function",
        "infinite-l-dagger-l", "l-dagger-l-time-function"])
def test_non_finite_lindblad_is_a_validation_error(lindblad, message, tmp_path, capsys):
    # finite literals whose product overflows: the run used to warn from
    # numpy and then fail on a NaN jump probability, blaming dt
    path = tmp_path / "nonfinite.qt"
    path.write_text(ATOM_MODEL.replace("sqrt(2*kappa)*sm(s)", lindblad))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check reports overflow, numpy must not
        assert main(["run", "--model", str(path), "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"qtraj: {path}: {message}\n"
    assert captured.out == ""


def test_time_function_overflow_fails_the_run_at_its_time(tmp_path, capsys):
    # exp(400*t) overflows at t = 709.78/400 = 1.7745; the vacuum never
    # feels the growing H = exp(400 t) n, so the run gets that far
    path = tmp_path / "late.qt"
    path.write_text(finite_model("exp(400*t)*n(m)", numdts=100, numsteps=2))
    assert main(["run", "--model", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("qtraj: trajectory 0 failed at t=1.77: "
                   "a time-dependent factor overflows at t=1.775\n")
