"""Every layer hook of the end-to-end benchmark's tracer binds to the program.

``e2ebench/tracing.py`` attributes wall time to layers by swapping timing
wrappers onto named functions and methods of ``repro``.  A hook whose name
no longer resolves — a function renamed, a method inherited instead of
defined in the class the tracer walks — installs nothing and that layer
silently reads zero.  This test loads the tracer's hook tables (read-only,
without installing anything) and checks that every entry names a function
defined under ``src/``.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "_e2ebench_tracing", ROOT / "e2ebench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _defined_in_src(function) -> bool:
    path = Path(inspect.getsourcefile(inspect.unwrap(function))).resolve()
    return SRC in path.parents


@pytest.mark.parametrize(
    "module_name, attr, layer",
    tracing.FUNCTION_HOOKS,
    ids=[f"{module}.{attr}" for module, attr, _ in tracing.FUNCTION_HOOKS],
)
def test_function_hook_binds(module_name, attr, layer):
    function = getattr(importlib.import_module(module_name), attr, None)
    assert inspect.isfunction(function), f"{module_name}.{attr} ({layer}) is not a function"
    assert _defined_in_src(function)


@pytest.mark.parametrize(
    "module_name, class_name, methods, layer",
    tracing.METHOD_HOOKS,
    ids=[f"{module}.{cls}" for module, cls, _, _ in tracing.METHOD_HOOKS],
)
def test_method_hook_binds(module_name, class_name, methods, layer):
    root = getattr(importlib.import_module(module_name), class_name, None)
    assert inspect.isclass(root), f"{module_name}.{class_name} ({layer}) is not a class"
    for method in methods:
        # the tracer hooks only classes whose own __dict__ defines the name;
        # subclasses other test modules define do not count
        owners = [
            owner
            for owner in tracing._classes_defining(root, method)
            if owner.__module__.split(".")[0] == "repro"
        ]
        assert owners, f"no class under {class_name} defines {method!r} ({layer})"
        for owner in owners:
            function = owner.__dict__[method]
            assert inspect.isfunction(function), f"{owner.__name__}.{method} ({layer})"
            assert _defined_in_src(function)
