"""The package's public names: one sorted list, every name bound, every export resolving.

A rewrite of the package __init__, such as one that imports its
submodules lazily, must keep these names.
"""

from __future__ import annotations

import importlib
import pkgutil
import types

import pytest

import wcifano

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(wcifano.__path__) if not m.name.startswith("_"))


def test_all_is_sorted_without_duplicates():
    assert wcifano.__all__ == sorted(set(wcifano.__all__))


def test_all_equals_the_public_names_the_package_binds():
    # resolved by attribute first, so a module __getattr__ that binds a
    # name on first use passes too
    resolved = {name for name in wcifano.__all__ if hasattr(wcifano, name)}
    bound = {
        name
        for name, value in vars(wcifano).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert resolved == set(wcifano.__all__) == bound
    assert len(bound) == 58


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_export_resolves(name):
    module = importlib.import_module(f"wcifano.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert module.__all__ and missing == []
