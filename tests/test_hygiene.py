"""Source hygiene: no module of the package imports a name it never uses
(``__init__`` is left out, as its imports are the package's exports), and
no private function, method or class is defined but never reached."""

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


def orphaned_private_definitions(sources: list[str]) -> list[str]:
    """Non-dunder ``_name`` functions, methods and classes defined in the
    sources that no ``Name`` or ``Attribute`` in any of them reads."""
    defined, read = {}, set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name} (line {line})" for name, line in sorted(defined.items()) if name not in read]


def test_no_orphaned_private_definitions():
    sources = [p.read_text(encoding="utf-8") for p in Path(ffwitness.__file__).parent.glob("*.py")]
    assert orphaned_private_definitions(sources) == []


def test_an_orphaned_private_definition_is_found():
    sources = [
        "class _Used:\n"
        "    def __init__(self):\n"
        "        self._called()\n"
        "    def _called(self):\n"
        "        pass\n"
        "    def _never(self):\n"
        "        pass\n"
        "def _orphan():\n"
        "    return _Used\n",
        "from m import _Used\n"
        "def public():\n"
        "    return _Used()\n",
    ]
    assert orphaned_private_definitions(sources) == ["_never (line 6)", "_orphan (line 8)"]


def call_sites(source: str, callee: str) -> list[str]:
    """The enclosing function (dotted through classes and nested functions,
    ``<module>`` at top level) of each call of ``callee`` by name or as an
    attribute, in source order."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == callee or getattr(func, "attr", None) == callee:
                    sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_omega_is_read_only_by_the_char_sums_kernel():
    # every character value goes through charsum.char_sums
    sites = {
        p.name: call_sites(p.read_text(encoding="utf-8"), "_omega")
        for p in Path(ffwitness.__file__).parent.glob("*.py")
    }
    assert {name: s for name, s in sites.items() if s} == {"charsum.py": ["char_sums"]}


def test_a_second_omega_call_site_is_found():
    source = (
        "def _omega(fd):\n"
        "    return fd\n"
        "def char_sums(fd, logs, indices):\n"
        "    return _omega(fd)[logs]\n"
        "class Character:\n"
        "    def __call__(self, beta):\n"
        "        return _omega(self.field)[beta]\n"
        "TABLE = charsum._omega(None)\n"
    )
    assert call_sites(source, "_omega") == ["char_sums", "Character.__call__", "<module>"]


def test_plus_one_is_called_only_by_zech_table_and_add_vec():
    # the one odd-p addition rule: the Zech table and the vector kernel
    sites = {
        p.name: call_sites(p.read_text(encoding="utf-8"), "_plus_one")
        for p in Path(ffwitness.__file__).parent.glob("*.py")
    }
    assert {name: s for name, s in sites.items() if s} == {
        "field.py": ["FieldDescriptor.zech_table", "FieldDescriptor.add_vec"],
    }


def test_a_third_plus_one_call_site_is_found():
    source = (
        "class FieldDescriptor:\n"
        "    def _plus_one(self, w):\n"
        "        return w + 1\n"
        "    def zech_table(self):\n"
        "        return self._log[self._plus_one(self._exp)]\n"
        "    def add_vec(self, u, v):\n"
        "        return self._plus_one(u)\n"
        "    def sub_vec(self, u, v):\n"
        "        return self._plus_one(u - v)\n"
    )
    assert call_sites(source, "_plus_one") == [
        "FieldDescriptor.zech_table", "FieldDescriptor.add_vec", "FieldDescriptor.sub_vec",
    ]


def test_within_bound_is_called_only_by_ok_and_the_primitive_audit():
    # the one tolerance rule for a character sum against its Weil bound
    sites = {
        p.name: call_sites(p.read_text(encoding="utf-8"), "_within_bound")
        for p in Path(ffwitness.__file__).parent.glob("*.py")
    }
    assert {name: s for name, s in sites.items() if s} == {
        "charsum.py": ["CharSumResult.ok", "primitive_weil_audit"],
    }


def test_a_third_within_bound_call_site_is_found():
    source = (
        "def _within_bound(values, bound):\n"
        "    return abs(values) <= bound + 1e-6\n"
        "class CharSumResult:\n"
        "    def ok(self):\n"
        "        return _within_bound(self.value, self.bound)\n"
        "def primitive_weil_audit(sums, bound):\n"
        "    return _within_bound(sums, bound).all()\n"
        "def incomplete_char_sum(value, bound):\n"
        "    return charsum._within_bound(value, bound)\n"
    )
    assert call_sites(source, "_within_bound") == [
        "CharSumResult.ok", "primitive_weil_audit", "incomplete_char_sum",
    ]
