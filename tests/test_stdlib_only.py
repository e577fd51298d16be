"""The package imports nothing outside the standard library, and uses every
name it imports."""

import ast
import sys
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
