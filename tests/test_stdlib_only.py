"""The package imports nothing outside the standard library."""

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
