"""Time one CLI start-up in a fresh interpreter: import, parse, build.

    python3 perfbench/setup_probe.py MODEL

Prints one JSON line with the seconds spent importing qtraj.cli, parsing
the model file and building it (operators, Hermiticity check, initial
state): the work a `qtraj` command does before its first step.
Interpreter start-up itself is not included.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import qtraj.cli  # noqa: E402
from qtraj.modelfile import build_model, parse_model  # noqa: E402

t1 = perf_counter()
with open(sys.argv[1], "r", encoding="utf-8") as fh:
    mf = parse_model(fh.read())
t2 = perf_counter()
build_model(mf)
t3 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "build_s": t3 - t2,
                  "total_s": t3 - t0}))
