"""Static checks over the package and test source, using only the stdlib parser."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "eviq"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_flags_a_leftover():
    tree = ast.parse("from .autodiff import add, add_rowvec\n"
                     "import numpy as np\n"
                     "def f(a, b):\n    return add(a, b)\n")
    assert _unused_imports(tree) == ["line 1: add_rowvec", "line 2: np"]


def _builtin_hash_calls(tree: ast.Module) -> list[str]:
    # str and bytes hashes are salted per process, so a seed or key drawn
    # from hash() changes from one run to the next
    return [f"line {n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "hash"]


@pytest.mark.parametrize(
    "path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_never_calls_builtin_hash(path):
    assert _builtin_hash_calls(ast.parse(path.read_text())) == []


def test_builtin_hash_check_flags_a_salted_seed():
    tree = ast.parse("import zlib\n"
                     "def seed(op):\n"
                     "    a = zlib.crc32(op.encode())\n"
                     "    return hash(op) % 2 ** 32, a, obj.hash(op)\n")
    assert _builtin_hash_calls(tree) == ["line 4"]
