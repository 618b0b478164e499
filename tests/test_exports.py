"""Every name in a module's ``__all__`` resolves.

The benchmark's tracer runs ``getattr`` on each name in the ``__all__`` of
every layer module, so a stale entry would break it before any workload runs.
"""

import importlib
import pkgutil

import pytest

import stringcones

LAYER_MODULES = ("weyl", "diagram", "paths", "cones", "polyhedra", "polytopes")
MODULES = sorted(m.name for m in pkgutil.iter_modules(stringcones.__path__) if not m.name.startswith("__"))


def test_layer_modules_declare_exports():
    assert set(LAYER_MODULES) <= set(MODULES)
    for name in LAYER_MODULES:
        assert importlib.import_module(f"stringcones.{name}").__all__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"stringcones.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"stringcones.{name}.__all__ names missing attributes: {missing}"
