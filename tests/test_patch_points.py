"""The names the benchmark's tracer (perfbench/tracing.py) swaps stay call-time lookups.

Each case replaces one module attribute with a recording wrapper, runs the
smallest call that reaches it and checks that the wrapper ran; a rename, or
an import that binds the name once, fails here instead of in a traced run.
"""

import pytest

import itmflow
import itmflow.cli
from itmflow import (DegenerateFarFieldError, ItmConfig, IvpSpec, OdeSystem, ScanGrid,
                     evaluate_gamma_at, scan, solve_blasius_topfer)
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


def _rhs_called(monkeypatch):
    """Make every probe march call its rhs, as the tracer's ``integrate_adaptive`` does.

    The tracer rebuilds each spec around an ``OdeSystem`` of the system's rhs,
    which has no text, and passes ``control`` through.
    """
    integrate = itmflow.solver.integrate_adaptive

    def called(spec, control=None):
        system = OdeSystem(rhs=spec.system.rhs, dim=spec.system.dim)
        return integrate(IvpSpec(spec.start, spec.end, spec.initial_state, system), control)

    monkeypatch.setattr(itmflow.solver, "integrate_adaptive", called)


PROBE_CONFIGS = {
    "secant-1": ItmConfig(),
    "secant+1": ItmConfig(sign=1),
    "newton": ItmConfig(root_finder="newton"),
}


@pytest.mark.parametrize("h_star", [2.5, 3.5, 10.0])
@pytest.mark.parametrize("config", PROBE_CONFIGS.values(), ids=PROBE_CONFIGS)
def test_probe_through_a_called_rhs_is_equal(config, h_star, monkeypatch):
    inline = evaluate_gamma_at(h_star, config)
    _rhs_called(monkeypatch)
    assert evaluate_gamma_at(h_star, config) == inline


def _certificate(config):
    """The message and eta of the certificate of the sign -1 probe at h* = 1."""
    with pytest.raises(DegenerateFarFieldError) as err:
        evaluate_gamma_at(1.0, config)
    return str(err.value), err.value.eta


@pytest.mark.parametrize("root_finder", ["secant", "newton"])
def test_certificate_through_a_called_rhs_is_equal(root_finder, monkeypatch):
    config = ItmConfig(root_finder=root_finder)
    inline = _certificate(config)
    _rhs_called(monkeypatch)
    assert _certificate(config) == inline
