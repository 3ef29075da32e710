"""Every name a module exports in ``__all__`` must exist.

A stale entry otherwise fails only on ``from module import *``.
"""

import importlib
import pkgutil

import pytest

import splitstream

MODULES = [
    f"splitstream.{m.name}"
    for m in pkgutil.iter_modules(splitstream.__path__)
    if m.name != "__main__"  # runs the CLI on import
]


def test_every_module_listed():
    assert {"splitstream.tiling", "splitstream.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []
