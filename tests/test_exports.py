import importlib

import pytest

MODULES = ("fedmrl", "fedmrl.core", "fedmrl.numerics")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A deleted function must leave no dangling entry in __all__.
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
