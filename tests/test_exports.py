"""Every name a module exports resolves, so ``from <module> import *`` works.

A deletion that leaves its name in an ``__all__`` list breaks only the
star import, which no other test performs.
"""

import importlib
import inspect
import pkgutil

import pytest

import feeder_nilm

MODULES = ["feeder_nilm"] + [f"feeder_nilm.{info.name}" for info in pkgutil.iter_modules(feeder_nilm.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_package_names_its_submodules():
    # The package re-exports nothing, so a module is never hidden behind a function of its name.
    from feeder_nilm import evaluate, featurize

    assert inspect.ismodule(featurize) and featurize.__name__ == "feeder_nilm.featurize"
    assert inspect.ismodule(evaluate) and evaluate.__name__ == "feeder_nilm.evaluate"
