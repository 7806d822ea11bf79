"""Every exported name resolves, so ``from lagspec.X import *`` works."""

import importlib
import inspect
import pkgutil

import pytest

import lagspec

MODULES = ["lagspec"] + [f"lagspec.{m.name}"
                         for m in pkgutil.iter_modules(lagspec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_package_names_are_exported_where_defined():
    # the package has no __all__ of its own: each public name it binds
    # must be in the __all__ of the module that defines it
    for name, obj in vars(lagspec).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"{name} not in {obj.__module__}.__all__"
