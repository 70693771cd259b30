import ast
import importlib
import sys
from pathlib import Path

import pytest

MODULES = ("fedmrl", "fedmrl.core", "fedmrl.numerics")
SOURCE = Path(__file__).parents[1] / "src" / "fedmrl"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A deleted function must leave no dangling entry in __all__.
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _imported_roots(path):
    """The top-level package of every absolute import in a module; relative ones are fedmrl."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "fedmrl" if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_the_standard_library_and_numpy(path):
    # The simulator's one runtime dependency is numpy.
    allowed = {*sys.stdlib_module_names, "numpy", "fedmrl"}
    assert sorted(set(_imported_roots(path)) - allowed) == []
