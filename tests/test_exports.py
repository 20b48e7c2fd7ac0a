"""Every name a cascor module lists in ``__all__`` resolves in that module."""
import importlib
import pkgutil

import pytest

import cascor

MODULES = ["cascor", *(f"cascor.{m.name}" for m in pkgutil.iter_modules(cascor.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
