"""Every name a module exports resolves, so a stale ``__all__`` entry fails here;
the package re-exports its modules' ``__all__`` and declares no name of its own
but ``__version__``; no module reaches into a sibling through a private name; and
no module imports numpy."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import itmflow

MODULES = ["itmflow"] + [f"itmflow.{m.name}" for m in pkgutil.iter_modules(itmflow.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # ``import *`` raises AttributeError on a name in ``__all__`` that does not exist.
    exec(f"from {module} import *", {})


def test_package_reexports_each_module_all():
    # ``itmflow.scan`` is the function, so the modules come from importlib.
    modules = [importlib.import_module(f"itmflow.{name}")
               for name in ("ode", "models", "transform", "solver", "scan")]
    assert itmflow.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert len(set(itmflow.__all__)) == len(itmflow.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(itmflow, name) is getattr(module, name), name


def test_no_private_imports_between_modules():
    private = []
    for path in sorted(Path(itmflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_no_module_imports_numpy():
    imports = []
    for path in sorted(Path(itmflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] == "numpy"]
    assert imports == []
