"""Every exported name of the package resolves.

A deleted function whose name stays in a module's ``__all__`` only fails a
``from poolal.<module> import *``; these tests name it at once.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import poolal

MODULES = sorted(m.name for m in pkgutil.iter_modules(poolal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"poolal.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def _package_imports() -> list[tuple[str, str]]:
    """Each ``(module, name)`` that ``poolal/__init__.py`` imports with ``from .module import name``."""
    tree = ast.parse(Path(poolal.__file__).read_text(encoding="utf-8"))
    relative = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    return [(node.module, alias.name) for node in relative for alias in node.names]


def test_every_name_the_package_imports_resolves():
    imports = _package_imports()
    assert imports
    missing = [f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(f"poolal.{m}"), n)]
    assert missing == []
    assert all(hasattr(poolal, n) for _, n in imports)


def test_every_name_the_package_imports_is_in_its_module_all():
    """A module without ``__all__`` (``errors``) exports every name it defines."""
    modules = {m: importlib.import_module(f"poolal.{m}") for m, _ in _package_imports()}
    unlisted = [f"{m}.{n}" for m, n in _package_imports() if n not in getattr(modules[m], "__all__", [n])]
    assert unlisted == []
