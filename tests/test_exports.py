"""Every exported name exists: a stale ``__all__`` entry fails here, not at import *."""

import importlib

import pytest

MODULES = ["fraclv", "fraclv.cli", "fraclv.model", "fraclv.presets", "fraclv.solvers",
           "fraclv.spectral", "fraclv.stability"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
