"""Source hygiene: no module of the package imports a name it never uses.

``__init__`` is left out, as its imports are the package's exports."""

import ast
from pathlib import Path

import pytest

import ffwitness

MODULES = sorted(p for p in Path(ffwitness.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that nothing else in it reads,
    counting names inside annotations written as strings."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from typing import Iterable, Sequence\n"
        "import numpy as np\n"
        "def f(x: 'list[Iterable]') -> None:\n"
        "    '''Sequence and sys are named only here.'''\n"
        "    np.abs(os.path.sep)\n"
    )
    assert unused_imports(source) == ["Sequence (line 3)", "sys (line 2)"]
