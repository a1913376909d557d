"""Every name a package exports resolves, so `import *` works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["chowkit", "chowkit.lattice", "chowkit.worksheet"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
