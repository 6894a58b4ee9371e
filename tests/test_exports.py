"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import sddpkit

_MODULES = [sddpkit] + [
    importlib.import_module(f"sddpkit.{info.name}") for info in pkgutil.iter_modules(sddpkit.__path__)
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing
