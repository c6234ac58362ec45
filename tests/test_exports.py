"""Every name a module exports resolves, so a stale ``__all__`` entry fails here."""

import pkgutil

import pytest

import itmflow

MODULES = ["itmflow"] + [f"itmflow.{m.name}" for m in pkgutil.iter_modules(itmflow.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # ``import *`` raises AttributeError on a name in ``__all__`` that does not exist.
    exec(f"from {module} import *", {})
