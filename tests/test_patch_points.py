"""The names the benchmark's tracer (perfbench/tracing.py) swaps stay call-time lookups.

Each case replaces one module attribute with a recording wrapper, runs the
smallest call that reaches it and checks that the wrapper ran; a rename, or
an import that binds the name once, fails here instead of in a traced run.
"""

import pytest

import itmflow
import itmflow.cli
from itmflow import ScanGrid, scan, solve_blasius_topfer
from itmflow.cli import main


def _topfer_solve():
    solve_blasius_topfer()


def _two_point_scan():
    scan(ScanGrid(2.5, 3.5, 2), -1)


CASES = {
    "solver.integrate_adaptive": _topfer_solve,
    "solver.rescale_trajectory": _topfer_solve,
    "solver.GammaEvaluation.from_far_field": _two_point_scan,
    "cli.solve_sakiadis": lambda: main(["sakiadis", "--max-iterations", "2"]),
    "cli.solve_blasius_topfer": lambda: main(["blasius"]),
    "cli.scan": lambda: main(["scan", "--count", "2"]),
}


@pytest.mark.parametrize("target", CASES)
def test_patched_name_is_called(target, monkeypatch, capsys):
    calls = []

    def recording(func):
        def wrapper(*args, **kwargs):
            calls.append(target)
            return func(*args, **kwargs)
        return wrapper

    module_name, _, path = target.partition(".")
    attr, _, method = path.partition(".")
    module = getattr(itmflow, module_name)
    if method:
        # Replaced as a whole module attribute, as the tracer does.
        original = getattr(getattr(module, attr), method)
        monkeypatch.setattr(module, attr,
                            type(attr, (), {method: staticmethod(recording(original))}))
    else:
        monkeypatch.setattr(module, attr, recording(getattr(module, attr)))
    CASES[target]()
    assert calls
