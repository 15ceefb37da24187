"""The package runs on the Python standard library alone: every absolute
import in src/ewtab names a standard-library module."""

import ast
import sys
from pathlib import Path

import ewtab

PACKAGE = Path(ewtab.__file__).resolve().parent


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
