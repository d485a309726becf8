"""Every exported name resolves: each module's ``__all__`` entry, and each
name the package imports into ``gibbsmix`` itself. A deletion that leaves an
export behind fails here rather than at a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gibbsmix

_MODULES = sorted(info.name for info in pkgutil.iter_modules(gibbsmix.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_module_all_entries_resolve(name):
    module = importlib.import_module(f"gibbsmix.{name}")
    exported = getattr(module, "__all__", [])
    assert [e for e in exported if not hasattr(module, e)] == []
    assert len(set(exported)) == len(exported)


def test_package_imports_resolve():
    tree = ast.parse(Path(gibbsmix.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 50
    for module, name in imported:
        assert hasattr(importlib.import_module(f"gibbsmix.{module}"), name), (module, name)
        assert hasattr(gibbsmix, name), name


def test_the_scalar_subset_step_name_stays_retired():
    # perfbench/child.py wraps a function named subset_couple_arrays where it
    # exists and reads its result as one (succeeded, lam_x, lam_y) tuple; the
    # batched step returns arrays, so it must not take that name
    assert hasattr(gibbsmix, "subset_couple_batch")
    for name in _MODULES:
        assert not hasattr(importlib.import_module(f"gibbsmix.{name}"), "subset_couple_arrays")
