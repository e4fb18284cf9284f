"""Command line front end: run, ensemble, oracle-check, print-model.

Exit codes: 0 success, 1 validation failure (non-Hermitian Hamiltonian,
failed oracle comparison, a run aborting) or an output that cannot be
written, 2 usage or parse errors and an unreadable model file.
Each run key of the model file has one flag (--dt, --moving, --pipe, ...,
made from RUN_KEYS) that overrides the run section; its value is read and
checked by the same rules, so an invalid value is a usage error as it would
be in the file.  The default output directory
comes from QTRAJ_OUT_DIR when --out-dir is not given.
"""

from __future__ import annotations

import argparse
import os
import sys

from .modelfile import (
    RUN_KEYS,
    ModelParseError,
    ModelValidationError,
    build_model,
    override_run,
    parse_model,
    print_model,
)
from .oracle import compare_ensemble, oracle_expectations
from .trajectory import run_ensemble, run_single

__all__ = ["main"]


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
    # one flag per run key; its text goes through override_run as a run line
    run_keys = common.add_argument_group(
        "run-key overrides",
        "each flag replaces the model file's run key of the same name and is "
        "checked by the same rules")
    for key in RUN_KEYS:
        values = {"nargs": 4, "metavar": ("C1", "C2", "C3", "C4")} if key == "pipe" else {}
        run_keys.add_argument("--" + key.replace("_", "-"), **values)

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


class _UnreadableModel(Exception):
    """The model file could not be read (the OSError's text)."""


def _load(args):
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _UnreadableModel(e) from e
    return parse_model(text)


def _prepare(args):
    flags = {key: getattr(args, key) for key in RUN_KEYS}
    if flags["pipe"] is not None:
        flags["pipe"] = " ".join(flags["pipe"])
    mf = override_run(_load(args), flags)
    out_dir = args.out_dir if args.out_dir is not None else os.environ.get("QTRAJ_OUT_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    model, psi0, cfg, outspec = build_model(mf, out_dir=out_dir)
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
    except _UnreadableModel as e:
        print(f"qtraj: cannot read model file: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # the output directory or an output file
        print(f"qtraj: cannot write output: {e}", file=sys.stderr)
        return 1
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
