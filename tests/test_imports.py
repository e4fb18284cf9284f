"""No dead imports or private helpers in the package: ast scans of src/qtraj/*.py.

An imported name counts as used when the module reads it (a bare name, the
base of an attribute chain, or a name inside a quoted annotation) or lists
it in __all__.  `from __future__` imports and the re-exports of __init__.py
are skipped.  A private module-level name (a def, class or assignment whose
name starts with one underscore) counts as used when some statement other
than its own definition reads it, as a bare name or an attribute, in any
module of the package; a helper that only calls itself is dead.  Standard
library only.
"""

import ast
import os
import re
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qtraj"


def _imports(tree):
    """{bound name: line} of every import outside `from __future__`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _names_read(tree):
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(e.value for e in getattr(node.value, "elts", ())
                        if isinstance(e, ast.Constant))
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return read


def unused_imports(source: str):
    """Sorted (line, name) of the imports that source never reads."""
    tree = ast.parse(source)
    read = _names_read(tree)
    return sorted((line, name) for name, line in _imports(tree).items() if name not in read)


def test_scanner_flags_only_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "from .hilbert import StateVector\n"
        "__all__ = ['tau']\n"
        "def f(x: 'StateVector') -> int:\n"
        "    return np.sum(os.sep) + pi\n")
    assert unused_imports(source) == [(2, "sys")]


def test_package_has_no_unused_imports():
    start = time.perf_counter()
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        dead = unused_imports(path.read_text(encoding="utf-8"))
        if dead:
            found[path.name] = dead
    assert not found, f"unused imports (line, name): {found}"
    assert time.perf_counter() - start < 0.5


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources):
    """Sorted (module, name) of private module-level names nobody else reads.

    sources maps module names to their source text.
    """
    defined = {}   # (module, name) -> index of the defining top-level statement
    reads = {}     # name -> {(module, index of the reading top-level statement)}
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update(((module, n), i) for n in names if _private(n))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add((module, i))
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, set()).add((module, i))
    return sorted((module, name) for (module, name), i in defined.items()
                  if not reads.get(name, set()) - {(module, i)})


def test_private_scanner_flags_only_unread_names():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_unused = 1\n"
              "def _walk(n):\n"
              "    return _walk(n - 1) if n else 0\n"
              "def _used():\n"
              "    return _LIMIT\n"
              "class _Box:\n"
              "    pass\n"
              "__all__ = []\n"),
        "b": "from . import a\nx = a._used() + a._Box\n",
    }
    assert unread_private_names(sources) == [("a", "_unused"), ("a", "_walk")]


def test_package_private_names_are_read():
    start = time.perf_counter()
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    dead = unread_private_names(sources)
    assert not dead, f"private names defined but never read (module, name): {dead}"
    assert time.perf_counter() - start < 0.5


ROOT = SRC.parents[1]


def _code_reads(paths, imports=False):
    """Names the code in paths reads (bare names and attributes), plus, with
    imports, the names its `from` imports bind."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif imports and isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def readme_code_names(text):
    """Identifiers inside the fenced blocks and inline code spans of markdown."""
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(fenced + inline)))


def test_readme_scanner_reads_spans_and_blocks():
    text = "Use `run_single(x)` or\n```python\nfrom q import drift\n```\nnot plain_name.\n"
    assert readme_code_names(text) == {"run_single", "x", "from", "q", "import", "drift"}


def test_every_export_has_a_reader():
    # an export earns its place when the package itself, the benchmark code
    # or the README's code uses it; one that only tests use is dead weight
    import qtraj

    package = _code_reads(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    bench = _code_reads((ROOT / "perfbench").glob("*.py"), imports=True)
    readme = readme_code_names((ROOT / "README.md").read_text(encoding="utf-8"))
    unread = sorted(name for name in qtraj.__all__ if name != "__version__"
                    and name not in package | bench | readme)
    assert not unread, f"exports read by no package code, benchmark code or README: {unread}"


LAZY_IMPORTS_SCRIPT = """
import contextlib, io, sys
import qtraj.cli
print("numpy.random" in sys.modules)
print(any(m in sys.modules for m in ("multiprocessing", "concurrent.futures.process")))
with contextlib.redirect_stdout(io.StringIO()):
    rc = qtraj.cli.main(["ensemble", "--model", "models/damped_atom.qt", "--trajectories",
                         "200", "--numsteps", "3", "--out-dir", sys.argv[1]])
print(rc, "numpy.ma" in sys.modules, "numpy.random" in sys.modules)
"""


def test_cli_import_and_jump_ensemble_leave_heavy_numpy_modules_unimported(tmp_path):
    # numpy.random and multiprocessing cost the start-up of every run
    # (setup_s), and numpy.ma (pulled in by np.unique, for one) and
    # numpy.random, which a jump run's noise does not need, add to its peak
    # RSS; a fresh interpreter shows whether any of them is imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS_SCRIPT, str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "0", "False", "False"], \
        "expected: import qtraj.cli leaves numpy.random, multiprocessing and " \
        "concurrent.futures.process out, the ensemble runs (0) " \
        f"and leaves numpy.ma and numpy.random out; got {proc.stdout.split()}"
    assert (tmp_path / "updens.out").exists()
