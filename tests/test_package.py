"""Package surface: every name a module exports resolves, and every module
attribute the benchmark's tracer rebinds (``perfbench/workloads.py``) exists."""

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


# module -> attributes that perfbench/workloads.py rebinds with Tracer.patch.
TRACED = {
    "cascade": ["ipg_step", "slide_window", "preintegrate_burst", "propagate_orientation",
                "cascade_step"],
    "ipg": ["stacked_map", "stacked_jacobian", "precondition_update", "iterate_update"],
    "baselines": ["preintegrate_burst", "kalman_update"],
    "cli": ["load_stream", "synchronize", "hash_epochs", "write_trajectory"],
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_attributes_exist(name):
    module = importlib.import_module(f"cipgnav.{name}")
    missing = [attr for attr in TRACED[name] if not callable(getattr(module, attr, None))]
    assert not missing, f"cipgnav.{name} lacks attributes the benchmark tracer rebinds: {missing}"
