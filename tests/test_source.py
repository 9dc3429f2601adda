"""Static checks over the package and test source, using only the stdlib
parser, and over the benchmark records kept at the root of the repository."""

import ast
import json
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "eviq"


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


def _environment_reads(tree: ast.Module) -> list[str]:
    # a knob read from the environment changes behaviour without a
    # parameter saying so; settings go through arguments instead
    found = []
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and n.attr in ("environ", "getenv")
                and isinstance(n.value, ast.Name) and n.value.id == "os"):
            found.append((n.lineno, n.attr))
        elif isinstance(n, ast.ImportFrom) and n.module == "os":
            found += [(n.lineno, a.name) for a in n.names
                      if a.name in ("environ", "getenv")]
    return [f"line {line}: os.{name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_never_reads_the_environment(path):
    assert _environment_reads(ast.parse(path.read_text())) == []


def test_environment_check_flags_each_way_of_reading():
    tree = ast.parse("import os\n"
                     "from os import getenv\n"
                     "a = os.environ.get('X')\n"
                     "b = os.getenv('Y', '')\n"
                     "c = os.environ['Z']\n"
                     "d = os.confstr('CS_GNU_LIBC_VERSION'), env.environ\n")
    assert _environment_reads(tree) == [
        "line 2: os.getenv", "line 3: os.environ", "line 4: os.getenv",
        "line 5: os.environ"]


_THREAD_MODULES = ("threading", "_thread", "concurrent.futures", "concurrent")


def _thread_imports(tree: ast.Module) -> list[str]:
    # threads belong to eviq.cores alone, so every module stays
    # single-threaded unless it hands its work to that helper
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            found += [(n.lineno, a.name) for a in n.names if a.name in _THREAD_MODULES]
        elif isinstance(n, ast.ImportFrom) and n.module in _THREAD_MODULES:
            found.append((n.lineno, n.module))
    return [f"line {line}: {name}" for line, name in found]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_cores_helper_imports_threads(path):
    found = [hit.split(": ")[1] for hit in _thread_imports(ast.parse(path.read_text()))]
    assert found == (["threading", "concurrent.futures"] if path.name == "cores.py"
                     else [])


def test_thread_import_check_flags_each_way_of_importing():
    tree = ast.parse("import threading\n"
                     "from concurrent.futures import ThreadPoolExecutor\n"
                     "import concurrent.futures as cf, os\n"
                     "from concurrent import futures\n"
                     "import _thread\n"
                     "from threadpoolctl import threadpool_limits\n")
    assert _thread_imports(tree) == [
        "line 1: threading", "line 2: concurrent.futures",
        "line 3: concurrent.futures", "line 4: concurrent", "line 5: _thread"]


def _public_names(tree: ast.Module) -> list[tuple[int, str]]:
    # module-level names, and the methods and properties of public classes
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [(n.lineno, n.name) for n in node.body
                          if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found if not name.startswith("_")]


def _names_read(tree: ast.Module) -> set[str]:
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(a.name for a in n.names)
    return read


def _unread_exports(tree: ast.Module, read: set[str]) -> list[str]:
    # nothing is exported that nothing uses: a public name no module, test
    # or benchmark reads is dead code
    return [f"line {line}: {name}" for line, name in _public_names(tree)
            if name not in read]


@pytest.fixture(scope="module")
def names_read_anywhere():
    paths = [*SRC.glob("*.py"), *TESTS.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    return set().union(*(_names_read(ast.parse(p.read_text())) for p in paths))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_public_name_is_read_somewhere(path, names_read_anywhere):
    assert _unread_exports(ast.parse(path.read_text()), names_read_anywhere) == []


def test_unread_export_check_flags_a_planted_name():
    module = ast.parse("LIMIT = 3\n"
                       "COUNT = _HIDDEN = 0\n"
                       "def used(x):\n    return x + LIMIT\n"
                       "def unused():\n    return used(1)\n"
                       "class Shape:\n    pass\n")
    reader = ast.parse("from m import used\n"
                       "import m\n"
                       "m.Shape()\n"
                       "m.COUNT = 1\n")
    read = _names_read(module) | _names_read(reader)
    assert _unread_exports(module, read) == ["line 2: COUNT", "line 5: unused"]


def test_unread_export_check_flags_a_planted_method():
    module = ast.parse("class Cache:\n"
                       "    def __init__(self):\n        self.rows = []\n"
                       "    def step(self):\n        return self._grow()\n"
                       "    def _grow(self):\n        return self.rows\n"
                       "    @property\n    def size(self):\n        return 0\n"
                       "    def reorder(self, parents):\n        pass\n"
                       "class _Hidden:\n"
                       "    def reorder(self):\n        pass\n")
    reader = ast.parse("import m\n"
                       "c = m.Cache()\n"
                       "c.step()\n"
                       "c.reorder = None\n")
    read = _names_read(module) | _names_read(reader)
    assert _unread_exports(module, read) == ["line 9: size", "line 11: reorder"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_bench_record_says_what_it_measured(path):
    # a speed claim counts only with its record: what changed, against which
    # parent, on which machine, and whether the claim was met
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    missing = [k for k in ("what", "parent", "machine", "claim")
               if not record.get(k)]
    assert missing == []
