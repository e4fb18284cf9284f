"""The benchmark's span tracer still finds every qtraj layer it wraps.

perfbench/tracer.py wraps module and class attributes by name and reads
their arguments by position, so a rename or a changed signature in qtraj
would only show up as zero metrics in a traced benchmark run.  These tests
load the tracer as it is and fail on such drift instead.
"""

import importlib.util
from pathlib import Path

from qtraj import steppers
from qtraj.cli import main

ROOT = Path(__file__).resolve().parents[1]
# the operator tree walker these wrap was replaced by compiled operators
STALE = {"qtraj.trajectory._apply_node", "qtraj.steppers._apply_node"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    module = _tracer_module()
    missing = {f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in module._targets(module.Tracer())
               if attr not in vars(owner)}
    assert missing <= STALE


def test_traced_shg_run_counts_its_basis(tmp_path, capsys):
    module = _tracer_module()
    tracer = module.Tracer()
    drift = steppers._drift2d
    with module.installed(tracer):
        rc = main(["run", "--model", str(ROOT / "models" / "shg.qt"), "--numdts", "1",
                   "--numsteps", "2", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert set(tracer.missing) <= STALE
    assert tracer.counters["basis_size_sum"] > 0
    assert tracer.totals()["steppers.drift"][0] > 0
    assert steppers._drift2d is drift  # the originals are back
