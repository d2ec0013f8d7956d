"""Every name the package and its modules export resolves.

Moving code out of a module must take its ``__all__`` entry along; a stale
entry would only fail at ``from module import *`` time.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import conbeck

MODULES = ["conbeck"] + [
    f"conbeck.{info.name}" for info in pkgutil.iter_modules(conbeck.__path__)
    if info.name != "__main__"  # importing it runs the command
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from conbeck import *", namespace)
    assert set(conbeck.__all__) <= namespace.keys()
