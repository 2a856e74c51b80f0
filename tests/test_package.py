"""Package surface: every name a module exports resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import cipgnav

MODULES = ["cipgnav"] + [f"cipgnav.{m.name}" for m in pkgutil.iter_modules(cipgnav.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
