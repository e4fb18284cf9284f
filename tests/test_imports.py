"""No dead imports in the package: an ast scan of src/qtraj/*.py.

An imported name counts as used when the module reads it (a bare name, the
base of an attribute chain, or a name inside a quoted annotation) or lists
it in __all__.  `from __future__` imports and the re-exports of __init__.py
are skipped.  Standard library only.
"""

import ast
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
