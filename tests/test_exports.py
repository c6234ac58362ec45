"""Every name a module exports resolves, so a stale ``__all__`` entry fails here;
and no module reaches into a sibling through a private name."""

import ast
import pkgutil
from pathlib import Path

import pytest

import itmflow

MODULES = ["itmflow"] + [f"itmflow.{m.name}" for m in pkgutil.iter_modules(itmflow.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # ``import *`` raises AttributeError on a name in ``__all__`` that does not exist.
    exec(f"from {module} import *", {})


def test_no_private_imports_between_modules():
    private = []
    for path in sorted(Path(itmflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
