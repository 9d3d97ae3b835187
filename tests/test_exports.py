"""Every exported name of the package resolves, from one import path.

A deleted function whose name stays in a module's ``__all__`` only fails a
``from poolal.<module> import *``; these tests name it at once. The package
itself re-exports nothing, so each name is imported from its own module.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import poolal

MODULES = sorted(m.name for m in pkgutil.iter_modules(poolal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"poolal.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_the_package_binds_only_its_modules_and_version():
    """``poolal`` holds its submodules, dunder names and ``__version__``, and no re-exported name."""
    for name in MODULES:
        importlib.import_module(f"poolal.{name}")
    extra = [n for n in vars(poolal) if n not in MODULES and not (n.startswith("__") and n.endswith("__"))]
    assert extra == []
    assert isinstance(poolal.__version__, str)
