import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pentachain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, found by walking its AST."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_detected():
    source = "from typing import Iterable, Sequence\nimport os.path\n\nx: Sequence = ()\n"
    assert unused_imports(source) == ["Iterable (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def bare_asserts(source: str) -> list[int]:
    """Lines of the ``assert`` statements in a module; ``python -O`` strips
    them, so a check the package relies on must raise instead."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_bare_assert_is_detected():
    source = "def f(x):\n    assert x > 0, 'x'\n    return x\n"
    assert bare_asserts(source) == [2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_bare_assert(path):
    assert bare_asserts(path.read_text()) == []


def function_imports(source: str) -> list[int]:
    """Lines of the ``import`` statements inside a function body; such an
    import runs again on every call, so the package keeps them at module
    level."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [
                inner.lineno for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return sorted(set(lines))


def test_function_import_is_detected():
    source = "import os\n\ndef f():\n    import random as r\n    def g():\n        from math import gcd\n    return r\n"
    assert function_imports(source) == [4, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_function_import(path):
    assert function_imports(path.read_text()) == []
