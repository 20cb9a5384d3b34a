"""Each public name has one import path: the module that defines it."""

import importlib
import pkgutil
import types

import pytest

import ecocast

MODULES = sorted(m.name for m in pkgutil.iter_modules(ecocast.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_a_module_all_resolves(module_name):
    module = importlib.import_module(f"ecocast.{module_name}")
    assert module.__all__, module_name
    for name in module.__all__:
        assert hasattr(module, name), f"ecocast.{module_name}.{name}"


def test_the_package_binds_no_public_name_but_its_submodules():
    for module_name in MODULES:
        importlib.import_module(f"ecocast.{module_name}")
    public = {n: v for n, v in vars(ecocast).items() if not n.startswith("_")}
    assert set(public) == set(MODULES)
    for name, value in public.items():
        assert isinstance(value, types.ModuleType) and value.__name__ == f"ecocast.{name}"
