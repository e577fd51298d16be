"""The package imports nothing outside the standard library, uses every name
it imports, and names every function and class it defines somewhere else."""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "algact"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {
        (path.name, name)
        for path in files
        for name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "algact"
    }
    assert outside == set()


def _unused_imports(path):
    """Names imported in ``path`` that are neither used nor in ``__all__``."""
    imported, used, exported = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return imported - used - exported


def test_every_imported_name_is_used():
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert files
    unused = {(path.name, name) for path in files for name in _unused_imports(path)}
    assert unused == set()


def _definitions(tree):
    """Names of the module-level and class-level functions and classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (child.name for child in node.body if isinstance(child, defs))


def _names(tree):
    """Every identifier, attribute and string constant that appears in
    ``tree``, apart from the names it defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_named_elsewhere():
    """A function or class of the package that no other line of the package,
    the tests or the benchmark names is dead code."""
    roots = (SRC, SRC.parent.parent / "tests", SRC.parent.parent / "perfbench")
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for root in roots for path in sorted(root.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    dead = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _definitions(trees[path])
        if not (name.startswith("__") and name.endswith("__")) and not named[name]
    }
    assert dead == set()
