"""The three benchmark workloads and the correctness gates on their outputs.

Each workload is a list of `qtraj` CLI commands run in order; one
repetition of the workload runs all of them.  The seed reaches the program
only as `--seed`.  Sizes are chosen so that one repetition takes a few
seconds on a 2-core machine and a run holds several repetitions; see
README.md for why each workload exists and what it bypasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

JC_MODEL = "perfbench/models/jaynes_cummings.qt"

# A correct solver fails an oracle gate with probability at most this,
# summed over every compared (operator, time) point of one workload.
GATE_FALSE_FAIL = 1e-3
DT_ORACLE = 1e-3
# Smallest deviation the oracle gate resolves.  At the early output times
# of the jump unravelings only a handful of trajectories (often none) have
# jumped, so the sample SE is near zero although the mean still deviates by
# up to P(jump) * |change of <O> at a jump|, about 0.008 for Jaynes-Cummings
# at t = 0.6.  Below this floor the normal approximation behind z fails.
GATE_ABS_FLOOR = 0.01


@dataclass(frozen=True)
class Command:
    subcommand: str          # "run" or "ensemble"
    trajectories: int
    numdts: int
    numsteps: int
    unraveling: str = None   # None keeps the model file's unraveling

    def argv(self, model, seed, out_dir):
        argv = [self.subcommand, "--model", model, "--seed", str(seed),
                "--out-dir", out_dir, "--numdts", str(self.numdts),
                "--numsteps", str(self.numsteps)]
        if self.subcommand == "ensemble":
            argv += ["--trajectories", str(self.trajectories)]
        if self.unraveling is not None:
            argv += ["--unraveling", self.unraveling]
        return argv

    @property
    def traj_steps(self):
        """Trajectories times coarse steps: the work the command completes."""
        return self.trajectories * self.numdts * self.numsteps


@dataclass(frozen=True)
class Workload:
    model: str
    commands: tuple
    tiny: tuple     # the same commands at smoke-check size
    gate: str       # "structure" or "oracle"


UNRAVELINGS = ("qsd", "jump", "orthojump")

WORKLOADS = {
    # One adaptive QSD trajectory on a moving basis: B = 1, the basis size
    # changes every step, and tree-walking operator kernels dominate.
    "shg_moving": Workload(
        model="models/shg.qt",
        commands=(Command("run", 1, 10, 10),),
        tiny=(Command("run", 1, 1, 10),),
        gate="structure"),
    # Lockstep RK4 over a wide static (B, 16) batch, all three unravelings.
    "jc_lockstep": Workload(
        model=JC_MODEL,
        commands=tuple(Command("ensemble", 250, 300, 2, u) for u in UNRAVELINGS),
        tiny=tuple(Command("ensemble", 20, 300, 1, u) for u in UNRAVELINGS),
        gate="oracle"),
    # Tens of thousands of two-level trajectories: per-trajectory noise
    # streams, row reductions over a length-2 axis and Welford updates.
    "atom_wide": Workload(
        model="models/damped_atom.qt",
        commands=(Command("ensemble", 20000, 100, 2),),
        tiny=(Command("ensemble", 500, 100, 2),),
        gate="oracle"),
}


def _load(path):
    from qtraj.modelfile import build_model, parse_model
    with open(path, "r", encoding="utf-8") as fh:
        return build_model(parse_model(fh.read()))


def check_jc_definition():
    """Problems (empty when none) between the JC model file and acceptance 2."""
    from qtraj import (SPIN, basis_state, create, destroy, number, product_state,
                       sigma_minus, sigma_plus, to_dense)

    model, psi0, cfg, outspec = _load(JC_MODEL)
    g, gam = 0.5, 0.25
    want_h = g * (sigma_plus(0) * destroy(1) + sigma_minus(0) * create(1))
    want_l = math.sqrt(2 * gam) * destroy(1)
    want_psi0 = product_state([basis_state(2, 1, SPIN), basis_state(8, 0)])
    dims = (2, 8)
    problems = []
    if model.hamiltonian is None or len(model.lindblads) != 1:
        return ["JC model must have one Hamiltonian and one Lindblad operator"]
    pairs = (("hamiltonian", model.hamiltonian, want_h),
             ("lindblad", model.lindblads[0], want_l),
             ("output n(f)", outspec.operators[0], number(1)),
             ("output sp*sm", outspec.operators[1], sigma_plus(0) * sigma_minus(0)))
    for name, got, want in pairs:
        err = float(np.abs(to_dense(got, dims) - to_dense(want, dims)).max())
        if err > 1e-12:
            problems.append(f"{name} differs from acceptance 2 by {err:.3g}")
    if psi0.used_dims() != dims or not np.array_equal(psi0.amps, want_psi0.amps):
        problems.append("initial state differs from acceptance 2")
    if (cfg.dt, cfg.numdts, cfg.numsteps) != (1e-3, 300, 10):
        problems.append(f"grid {(cfg.dt, cfg.numdts, cfg.numsteps)} != (0.001, 300, 10)")
    return problems


def _lines(blob):
    return blob.decode("utf-8").splitlines()


def oracle_gate(model_path, outputs):
    """Compare each ensemble command's output files with the dense oracle.

    outputs: one {file name: bytes} per command.  Returns one list of
    problems per command.  z is set so that, over all points compared, a
    correct solver fails with probability below GATE_FALSE_FAIL.
    """
    from qtraj import compare_ensemble, oracle_expectations

    model, psi0, _, outspec = _load(model_path)
    names = list(outspec.file_names)
    tables = []
    for files in outputs:
        if sorted(files) != sorted(names + ["stdout"]):
            tables.append(None)
            continue
        data = [np.loadtxt(_lines(files[name])) for name in names]
        tables.append((data[0][:, 0],
                       np.array([d[:, 1] + 1j * d[:, 2] for d in data]),
                       np.array([d[:, 5] for d in data]),
                       np.array([d[:, 6] for d in data])))
    n_points = sum(t[1].size for t in tables if t is not None)
    z = NormalDist().inv_cdf(1.0 - GATE_FALSE_FAIL / (2 * max(n_points, 1)))
    oracle = {}
    problems = []
    for files, table in zip(outputs, tables):
        if table is None:
            problems.append([f"output files {sorted(files)}, want {names} and stdout"])
            continue
        times, means, se_re, se_im = table
        key = tuple(times)
        if key not in oracle:
            oracle[key] = oracle_expectations(psi0, model, outspec.operators, times,
                                              dt_oracle=DT_ORACLE)
        rep = compare_ensemble(times, means, se_re, se_im, oracle[key], names,
                               z=z, abs_floor=GATE_ABS_FLOOR)
        problems.append([] if rep.passed else
                        [f"oracle gate at z={z:.2f}: {rep.n_fail} of "
                         f"{means.size} points fail, worst {rep.worst}"])
    return problems


def structure_gate(commands, outputs):
    """The structural checks of acceptance 6 on each `run` of shg.qt."""
    problems = []
    for command, files in zip(commands, outputs):
        bad = []
        rows = command.numsteps + 1
        lines = _lines(files["stdout"])
        if len(lines) != rows:
            bad.append(f"{len(lines)} stdout rows, want {rows}")
        head = lines[0].split() if lines else []
        if len(head) != 7:
            bad.append(f"first row has {len(head)} columns")
        else:
            if any(float(v) != 0.0 for v in head[:5]):
                bad.append(f"first row values {head[:5]} not all zero")
            if int(head[5]) != 5000:
                bad.append(f"initial basis {head[5]} != 50*50*2")
            if int(head[6]) != 0:
                bad.append(f"initial substep count {head[6]} != 0")
        sizes = [int(line.split()[5]) for line in lines[1:]]
        if sizes and sizes[0] >= 200:
            bad.append(f"basis still {sizes[0]} at the first output time")
        if sizes and max(sizes) >= 200:
            bad.append(f"basis peaked at {max(sizes)} after t=0")
        for name in ("X1.out", "X2.out", "A2.out", "N1.out", "N2.out"):
            if name not in files:
                bad.append(f"missing output file {name}")
                continue
            shape = np.loadtxt(_lines(files[name])).shape
            if shape != (rows, 5):
                bad.append(f"{name} shape {shape}, want ({rows}, 5)")
        problems.append(bad)
    return problems
