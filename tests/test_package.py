"""Package surface: every name a module exports resolves, every module
attribute the benchmark's tracer rebinds (``perfbench/workloads.py``) exists
and the InEKF update reaches ``kalman_update`` through it, every product that
may run on BLAS sits in a function allowed to, and no norm is numpy's
``linalg.norm``."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_inekf_update_calls_kalman_update_through_its_module_attribute(monkeypatch):
    # The tracer's baselines.kalman_update span rebinds this attribute: an InEKF
    # update that called its Joseph form any other way would leave the span at 0.
    from cipgnav import baselines

    calls = []
    kalman_update = baselines.kalman_update

    def counting(*args, **kwargs):
        calls.append(args)
        return kalman_update(*args, **kwargs)

    monkeypatch.setattr(baselines, "kalman_update", counting)
    config = baselines.FilterConfig()
    state = baselines.InekfState.start(cipgnav.NavState(velocity=[1.0, 0.0, 0.0]), config)
    baselines.inekf_update(state, [1.1, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], config)
    assert len(calls) == 1


# module -> functions whose products may run on BLAS: the filters' covariance
# algebra and gain solve, and the generic window solver.  Every other product
# goes through quat.ordered_matmul or Python floats, which round alike under
# every BLAS kernel.
BLAS_PRODUCTS = {
    "baselines": {"kalman_update", "_propagate", "ekf_predict", "ekf_update"},
    "ipg": {"_stacked_jacobian_chain", "precondition_update", "iterate_update", "ipg_step"},
}


def _is_product(node) -> bool:
    """Whether ``node`` is an ``@``, an ``@=`` or a call of a ``.dot`` or ``.matmul``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dot", "matmul"))


def blas_products(source: str) -> list:
    """(innermost enclosing function, line) of each product in ``source`` that
    ``_is_product`` finds; the function is None at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if _is_product(child):
                found.append((function, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("name", [m.rsplit(".", 1)[1] for m in MODULES[1:]])
def test_blas_products_sit_in_allowed_functions(name):
    module = importlib.import_module(f"cipgnav.{name}")
    source = Path(module.__file__).read_text(encoding="utf-8")
    allowed = BLAS_PRODUCTS.get(name, set())
    stray = [f"{function or '<module>'} (line {line})"
             for function, line in blas_products(source) if function not in allowed]
    assert not stray, f"cipgnav.{name} forms products on BLAS outside {sorted(allowed)}: {stray}"


def test_blas_product_finder():
    source = ("import numpy as np\n"
              "def f(a, b):\n    return a @ b\n"
              "def g(a, b):\n    a @= b\n    return np.dot(a, b), np.matmul(a, b), a.dot(b)\n"
              "def h(a, b):\n    def inner():\n        return a @ b\n    return inner\n"
              "x = np.eye(2) @ np.eye(2)\n")
    assert blas_products(source) == [("f", 3), ("g", 5), ("g", 6), ("g", 6), ("g", 6),
                                     ("inner", 9), (None, 11)]


def linalg_norms(source: str) -> list:
    """Lines of ``source`` that name numpy's ``linalg.norm``, whose 1-D norm is a
    BLAS dot: as an attribute (``np.linalg.norm``, ``linalg.norm``) or imported
    from ``numpy.linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "norm":
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                    or isinstance(owner, ast.Name) and owner.id == "linalg"):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name == "norm" for alias in node.names):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("name", [m.rsplit(".", 1)[1] for m in MODULES[1:]])
def test_norms_go_through_quat(name):
    # Every norm is quat.row_norms or quat._norm: the sum of squares in index
    # order, which no BLAS kernel rounds differently.
    module = importlib.import_module(f"cipgnav.{name}")
    lines = linalg_norms(Path(module.__file__).read_text(encoding="utf-8"))
    assert not lines, f"cipgnav.{name} calls numpy's linalg.norm at lines {lines}"


def test_linalg_norm_finder():
    source = ("import numpy as np\nfrom numpy import linalg\n"
              "from numpy.linalg import norm, solve\n"
              "def f(a):\n    return np.linalg.norm(a), linalg.norm(a), norm(a)\n"
              "def g(a):\n    return np.linalg.solve(a, a), a.norm, np.norm\n")
    assert linalg_norms(source) == [3, 5, 5]
