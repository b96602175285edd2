import ast
import io
import tokenize
from functools import cache
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


def package_modules_imported(source: str) -> set[str]:
    """Modules of the package a module imports from: ``x`` for ``from .x
    import ...``, ``from . import x`` and ``pentachain.x``, and
    ``pentachain`` for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            for parts in (name.split(".") for name in names):
                if parts[0] == "pentachain":
                    found.add(parts[1] if len(parts) > 1 else "pentachain")
    return found


def test_package_import_is_detected():
    source = (
        "from __future__ import annotations\nimport os\nfrom . import cli\n"
        "from .chain import ChainComplex\nimport pentachain.torsion\nfrom pentachain import exact\n"
    )
    assert package_modules_imported(source) == {"cli", "chain", "torsion", "pentachain"}


def test_library_imports_only_errors_and_triangulation():
    """The builtins need the gluing model and its errors, nothing of the
    chain: the paper's partitions and geometry, written with the chain's
    basis names, are test data."""
    assert package_modules_imported((PACKAGE / "library.py").read_text()) == {"errors", "triangulation"}


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


def private_definitions(source: str) -> dict[str, int]:
    """Private names a module defines, with their lines: its module-level
    functions, classes and constants, and the methods of its classes.
    Dunder names are not private."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            defined.update(
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update((name.id, node.lineno) for name in ast.walk(target) if isinstance(name, ast.Name))
    return {name: line for name, line in defined.items() if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names a module reads, plainly or as attributes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def dead_private_names(source: str, read: set[str]) -> list[str]:
    """Private names ``source`` defines that are not in ``read``."""
    return [f"{name} (line {line})" for name, line in private_definitions(source).items() if name not in read]


def test_dead_private_name_is_detected():
    source = (
        "_USED = 1\n_UNUSED: int = 2\n\n\ndef _helper():\n    return _USED\n\n\n"
        "class _Box:\n    def __init__(self):\n        self._kept()\n\n"
        "    def _kept(self):\n        pass\n\n    def _orphan(self):\n        pass\n\n\n"
        "_helper(), _Box()\n"
    )
    assert dead_private_names(source, read_names(source)) == ["_UNUSED (line 2)", "_orphan (line 16)"]


@cache
def names_read_in_package_and_tests() -> frozenset[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    return frozenset().union(*(read_names(path.read_text()) for path in sources))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_private_names_are_read(path):
    """Every private function, class, constant and method of the package
    is read somewhere in the package or its tests."""
    assert dead_private_names(path.read_text(), names_read_in_package_and_tests()) == []


# the package's public names other than its modules; a name added or
# dropped is a deliberate change of this list
EXPORTS = (
    "BUILTIN_NAMES", "BasisPartition", "ChainComplex", "DegenerateGeometryError", "EdgeClass", "FaceClass",
    "FivePointConfig", "GeometryAssignment", "Gluing", "InvarianceError", "InvariantResult", "KINDS",
    "MoveError", "MoveSite", "NotAcyclicError", "ParseError", "PentachainError", "RatMatrix", "TorsionError",
    "Triangulation", "ValidationError", "VertexClass", "apply_move", "assign_geometry", "build_chain",
    "check_acyclic", "det", "dump_chain", "edge_values", "enumerate_sites",
    "face_circulations", "format_rational", "invariant", "load_builtin", "minors",
    "parse_geometry", "parse_rational", "random_walk", "rank", "select_partition", "subseed", "tau",
    "verify_chain", "verify_pentagon", "verify_vector_identities", "walk_states",
)


def exported_names(source: str) -> list[str]:
    """Public names a package ``__init__`` binds, sorted: the names it
    imports from its modules or assigns, not the modules."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return sorted(name for name in names if not name.startswith("_"))


def test_exported_names_are_detected():
    source = (
        '"""Doc."""\nfrom . import cli\nfrom .chain import build_chain, _private as alias\n'
        "from .exact import rank as matrix_rank\n__version__ = '1'\nLIMIT = 3\n"
    )
    assert exported_names(source) == ["LIMIT", "alias", "build_chain", "matrix_rank"]


def test_package_exports_are_pinned():
    assert exported_names((PACKAGE / "__init__.py").read_text()) == sorted(EXPORTS)
    assert len(EXPORTS) == 46


def public_definitions(source: str) -> dict[str, int]:
    """Public names a module defines at module level, with their lines:
    its functions, classes and constants."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update((name.id, node.lineno) for name in ast.walk(target) if isinstance(name, ast.Name))
    return {name: line for name, line in defined.items() if not name.startswith("_")}


def unread_public_names(source: str, read: set[str]) -> list[str]:
    """Public names ``source`` defines that are not in ``read``."""
    return [f"{name} (line {line})" for name, line in public_definitions(source).items() if name not in read]


def test_unread_public_name_is_detected():
    source = (
        "LIMIT = 3\nLEFTOVER: int = 4\n\n\ndef helper():\n    return LIMIT\n\n\n"
        "def exported():\n    pass\n\n\nclass Orphan:\n    pass\n\n\n_PRIVATE = 5\n"
    )
    read = read_names(source) | {"exported"}
    assert unread_public_names(source, read) == ["LEFTOVER (line 2)", "helper (line 5)", "Orphan (line 13)"]


@cache
def names_read_or_exported_by_package() -> frozenset[str]:
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    exported = exported_names((PACKAGE / "__init__.py").read_text())
    return frozenset().union(exported, *(read_names(source) for source in sources))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_public_names_have_a_package_reader(path):
    """Every public module-level function, class and constant of a package
    module is read by some package module or exported by the package; a
    helper only tests call belongs with the tests."""
    assert unread_public_names(path.read_text(), names_read_or_exported_by_package()) == []


NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that some code token lies on.

    Comments, blank lines and docstrings do not count; a docstring is any
    statement that is one string token alone.  A token spanning several
    lines, such as a multi-line string argument, counts on each of them.
    """
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in NOT_CODE:
            statement.append(tok)
    return len(lines)


def test_code_lines_skips_comments_blanks_and_docstrings():
    source = '''"""Module docstring
over two lines."""

# a comment
def f(x):  # trailing comment
    'Docstring.'
    text = """one
two"""
    return (x +

            1)
'''
    # def, both lines of the string, and the two lines of the return
    assert code_lines(source) == 5


if __name__ == "__main__":
    # code lines per module of the package, then the total
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    print(f"{len(exported_names((PACKAGE / '__init__.py').read_text())):6d}  exported names")
