"""Runtime checks in the package must survive `python -O`, which strips
every assert statement; they raise DomainError or RuntimeError instead."""

import ast
from pathlib import Path

import ewtab

PACKAGE = Path(ewtab.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
