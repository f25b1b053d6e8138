import importlib

import pytest

MODULES = ["robustport"] + [f"robustport.{name}" for name in (
    "model", "worst_case", "pde", "strategy", "simulate", "csvio",
    "config", "cli")]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing

