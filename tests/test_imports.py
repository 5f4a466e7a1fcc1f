"""Import hygiene of the package and its tests.

No linter runs with the tests, so AST scans stand in for three checks: an
imported name must be referenced somewhere in its module (as a name or the
root of an attribute chain); a top-level function in ``tests/`` other than
a test or a pytest fixture must be named (as a name or an attribute) in
some test file; and a top-level function of the package, or a public
method or property of one of its classes, must be named in some file under
``src/`` or ``bench/``, since one that only tests call is code no program
path needs.  A method counts as named wherever its name appears as a name
or an attribute, whatever the object; dataclass fields are not scanned,
since their names collide too often for such a scan to mean anything.
Imports from ``__future__`` are exempt.

The package ``__init__`` imports no submodule, so nothing fixes the order
in which they load.  Each one is imported alone in a fresh interpreter:
an import cycle would otherwise fail only for whichever module a program
happens to import first.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "milrank").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
SCANNED = PACKAGE + TESTS


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    return [f"{path.relative_to(ROOT)}:{lineno}: {name}"
            for lineno, name in imported_names(tree) if name not in used]


def test_no_unused_imports():
    assert [line for path in SCANNED for line in unused_imports(path)] == []


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport json, os.path\n"
              "from x import y, z as w\ny()\nos.sep\n")
    tree = ast.parse(source)
    assert [name for _, name in imported_names(tree) if name not in used_names(tree)] == ["json", "w"]


def is_fixture(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "attr", getattr(target, "id", None)) == "fixture"


def helper_functions(tree):
    """Top-level functions other than tests and pytest fixtures."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_") \
                and not any(map(is_fixture, node.decorator_list)):
            yield node.lineno, node.name


def package_functions(tree):
    """Top-level functions, and public methods and properties of top-level classes as ``Class.name``."""
    yield from helper_functions(tree)
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield node.lineno, f"{cls.name}.{node.name}"


def named(tree):
    return used_names(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def dead_helpers(trees, naming_trees=None, definitions=helper_functions):
    """Functions that ``definitions`` finds in ``trees`` and no tree of ``naming_trees``
    (default ``trees``) names; a ``Class.name`` counts as named where ``name`` is."""
    names = set().union(*map(named, (naming_trees or trees).values()))
    return [f"{path}:{lineno}: {name}" for path, tree in trees.items()
            for lineno, name in definitions(tree) if name.rpartition(".")[2] not in names]


def parsed(paths):
    return {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def test_no_dead_test_helpers():
    assert dead_helpers(parsed(TESTS)) == []


def test_no_dead_package_functions():
    assert dead_helpers(parsed(PACKAGE), parsed(PACKAGE + BENCH), package_functions) == []


def test_scan_sees_a_dead_helper():
    helpers = ("import pytest\nimport oracle\n@pytest.fixture\ndef data(): pass\n"
               "@pytest.fixture(scope='module')\ndef model(): pass\n"
               "def used(): pass\ndef by_attribute(): pass\ndef dead(): pass\n")
    tests = "from helpers import used\ndef test_x(data, model):\n    used(oracle.by_attribute())\n"
    trees = {"helpers.py": ast.parse(helpers), "test_x.py": ast.parse(tests)}
    assert dead_helpers(trees) == ["helpers.py:9: dead"]


def test_scan_sees_a_dead_package_function():
    module = "def run(): helper()\ndef helper(): pass\ndef benched(): pass\ndef tested(): pass\n"
    package = {"pkg.py": ast.parse(module), "cli.py": ast.parse("from pkg import run\nrun()\n")}
    bench = {"bench.py": ast.parse("import pkg\npkg.benched()\n")}
    tests = {"test_pkg.py": ast.parse("from pkg import tested\ndef test_x():\n    tested()\n")}
    # a call from a test is not a program path
    assert dead_helpers(package, {**package, **bench}) == ["pkg.py:4: tested"]
    assert dead_helpers(package, {**package, **bench, **tests}) == []


def test_scan_sees_a_dead_method():
    module = ("class Model:\n    def used(self): pass\n    @property\n    def size(self): pass\n"
              "    def dead(self): pass\n    def _private(self): pass\n    def __len__(self): return 0\n"
              "def run():\n    model = Model()\n    model.used()\n    return model.size\n")
    package = {"pkg.py": ast.parse(module), "cli.py": ast.parse("from pkg import run\nrun()\n")}
    assert dead_helpers(package, definitions=package_functions) == ["pkg.py:5: Model.dead"]


@pytest.mark.parametrize("module", [
    "milrank" if path.stem == "__init__" else f"milrank.{path.stem}" for path in PACKAGE])
def test_module_imports_alone(module):
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import {module}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
