"""What the package and its modules export: every name resolves, and the
package exports each library module's names."""

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


def test_the_package_exports_every_library_module_name_once():
    """``sddpkit.__all__`` is ``__version__`` plus each module's ``__all__``
    (the CLI aside), and no two modules export the same name."""
    library = [module for module in _MODULES[1:] if module.__name__ != "sddpkit.cli"]
    names = ["__version__"] + [name for module in library for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(sddpkit.__all__) == sorted(names)
