"""Each module's __all__ is its public surface: every name it lists exists,
and every public function or class the module defines at top level is
listed."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import ewtab

MODULES = [ewtab] + [
    module for module in (importlib.import_module("ewtab." + info.name)
                          for info in pkgutil.iter_modules(ewtab.__path__)
                          if not info.name.startswith("_"))
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_all_lists_exactly_the_public_definitions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    tree = ast.parse(inspect.getsource(module))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert [name for name in defined if name not in module.__all__] == []
