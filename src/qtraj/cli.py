"""Command line front end: run, ensemble, oracle-check, print-model.

Exit codes: 0 success, 1 validation failure (non-Hermitian Hamiltonian,
failed oracle comparison, a run aborting), 2 usage or parse errors.
The default output directory comes from QTRAJ_OUT_DIR when --out-dir is
not given.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .modelfile import (
    ModelParseError,
    ModelValidationError,
    build_model,
    parse_model,
    print_model,
)
from .moving_basis import MovingBasisParams
from .oracle import compare_ensemble, oracle_expectations
from .steppers import IntegratorConfig, Unraveling
from .trajectory import OutputSpec, run_ensemble, run_single

__all__ = ["main"]

_UNRAVELING_NAMES = {"qsd": Unraveling.QSD, "jump": Unraveling.JUMP,
                     "orthojump": Unraveling.ORTHO_JUMP}


def _build_parser():
    top = argparse.ArgumentParser(
        prog="qtraj",
        description="Quantum trajectory solver for Lindblad master equations")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="model file path")
    common.add_argument("--out-dir", default=None,
                        help="directory for output files "
                             "(default: $QTRAJ_OUT_DIR or current directory)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--trajectories", type=int, default=None)
    common.add_argument("--unraveling", choices=sorted(_UNRAVELING_NAMES),
                        default=None)
    common.add_argument("--dt", type=float, default=None)
    common.add_argument("--numdts", type=int, default=None)
    common.add_argument("--numsteps", type=int, default=None)
    common.add_argument("--integrator", choices=("rk4", "adaptive"), default=None)
    common.add_argument("--eps", type=float, default=None,
                        help="adaptive integrator accuracy")
    common.add_argument("--moving", type=int, default=None,
                        help="number of leading field freedoms to recenter")
    common.add_argument("--cutoff-epsilon", type=float, default=None)
    common.add_argument("--pad", type=int, default=None)
    common.add_argument("--shift-accuracy", type=float, default=None)
    common.add_argument("--pipe", type=int, nargs=4, default=None,
                        metavar=("C1", "C2", "C3", "C4"))

    sub.add_parser("run", parents=[common],
                   help="single trajectory (noise stream 0)")
    sub.add_parser("ensemble", parents=[common],
                   help="average over trajectories")
    oc = sub.add_parser("oracle-check", parents=[common],
                        help="compare an ensemble against the dense integrator")
    oc.add_argument("--z", type=float, default=3.0,
                    help="standard-error multiple for PASS")
    oc.add_argument("--dt-oracle", type=float, default=1e-4,
                    help="fixed step for the dense integrator")

    pm = sub.add_parser("print-model", help="echo the parsed model in normal form")
    pm.add_argument("--model", required=True)
    return top


def _apply_overrides(cfg, args):
    repl = {}
    for attr, key in (("dt", "dt"), ("numdts", "numdts"), ("numsteps", "numsteps"),
                      ("trajectories", "n_trajectories"), ("seed", "seed")):
        v = getattr(args, attr)
        if v is not None:
            repl[key] = v
    if args.unraveling is not None:
        repl["unraveling"] = _UNRAVELING_NAMES[args.unraveling]
    if args.integrator is not None or args.eps is not None:
        kind = args.integrator or cfg.integrator.kind
        eps = args.eps if args.eps is not None else cfg.integrator.eps
        repl["integrator"] = IntegratorConfig(kind, eps)
    tuning = (args.cutoff_epsilon, args.pad, args.shift_accuracy)
    if cfg.moving is None and args.moving is None and any(v is not None for v in tuning):
        # the model file rejects these keys without a moving count; so does the CLI
        raise ModelParseError("moving-basis keys need 'moving = <count>'")
    if args.moving is not None or any(v is not None for v in tuning):
        base = cfg.moving or MovingBasisParams(n_moving=0)
        repl["moving"] = MovingBasisParams(
            n_moving=args.moving if args.moving is not None else base.n_moving,
            cutoff_epsilon=(args.cutoff_epsilon if args.cutoff_epsilon is not None
                            else base.cutoff_epsilon),
            pad_size=args.pad if args.pad is not None else base.pad_size,
            shift_accuracy=(args.shift_accuracy if args.shift_accuracy is not None
                            else base.shift_accuracy))
    return dataclasses.replace(cfg, **repl) if repl else cfg


def _load(args):
    with open(args.model, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_model(text)


def _prepare(args):
    mf = _load(args)
    out_dir = args.out_dir if args.out_dir is not None else os.environ.get("QTRAJ_OUT_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    model, psi0, cfg, outspec = build_model(mf, out_dir=out_dir)
    cfg = _apply_overrides(cfg, args)
    if args.pipe is not None:
        outspec = OutputSpec(outspec.operators, outspec.file_names, tuple(args.pipe))
    return mf, model, psi0, cfg, outspec


def _cmd_run(args):
    _, model, psi0, cfg, outspec = _prepare(args)
    run_single(psi0, model, cfg, outspec)
    return 0


def _cmd_ensemble(args):
    _, model, psi0, cfg, outspec = _prepare(args)
    run_ensemble(psi0, model, cfg, outspec)
    return 0


def _cmd_oracle_check(args):
    _, model, psi0, cfg, outspec = _prepare(args)
    ens = run_ensemble(psi0, model, cfg, outspec)
    try:
        oracle = oracle_expectations(psi0, model, outspec.operators, ens.times,
                                     dt_oracle=args.dt_oracle)
    except ValueError as e:
        print(f"qtraj: {e}", file=sys.stderr)
        return 1
    names = [os.path.basename(n) for n in outspec.file_names] \
        if outspec.file_names else None
    report = compare_ensemble(ens.times, ens.mean_expectations, ens.se_re,
                              ens.se_im, oracle, names, z=args.z)
    print(report.table)
    return 0 if report.passed else 1


def _cmd_print_model(args):
    mf = _load(args)
    sys.stdout.write(print_model(mf))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "ensemble": _cmd_ensemble,
                "oracle-check": _cmd_oracle_check, "print-model": _cmd_print_model}
    try:
        return handlers[args.command](args)
    except OSError as e:
        print(f"qtraj: cannot read model file: {e}", file=sys.stderr)
        return 2
    except ModelParseError as e:
        print(f"qtraj: {args.model}: {e}", file=sys.stderr)
        return 2
    except ModelValidationError as e:
        print(f"qtraj: {args.model}: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as e:
        print(f"qtraj: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
