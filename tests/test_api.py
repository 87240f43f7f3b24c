"""The public surface: every ``__all__`` entry resolves and star-imports work."""

import importlib
import pkgutil

import pytest

import pnofdm

# Every submodule but the command-line entry point, which exports nothing.
MODULES = sorted(m.name for m in pkgutil.iter_modules(pnofdm.__path__) if m.name != "cli")


def test_package_all_resolves():
    missing = [name for name in pnofdm.__all__ if not hasattr(pnofdm, name)]
    assert missing == []


def test_package_star_import():
    namespace = {}
    exec("from pnofdm import *", namespace)
    assert set(pnofdm.__all__) <= set(namespace)


@pytest.mark.parametrize("mod", MODULES)
def test_module_all_resolves(mod):
    module = importlib.import_module(f"pnofdm.{mod}")
    assert module.__all__, f"pnofdm.{mod} exports nothing"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("mod", MODULES)
def test_module_star_import(mod):
    namespace = {}
    exec(f"from pnofdm.{mod} import *", namespace)
    assert set(importlib.import_module(f"pnofdm.{mod}").__all__) <= set(namespace)
