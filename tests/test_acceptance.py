"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected number is frozen from an independent oracle: either a
rtol=atol=1e-12 reference integration, a finite-difference computation, or
closed-form arithmetic.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import json
import math

import numpy as np
import pytest

from itmflow import (ItmConfig, ScanGrid, StepControl, augmented_ic,
                     evaluate_gamma_at, evaluate_gamma_with_derivative,
                     integrate_adaptive, sakiadis_star_ic,
                     scan, solve_blasius_topfer, solve_sakiadis)
from itmflow.cli import main
from itmflow.models import AUGMENTED_SYSTEM, SIMILARITY_SYSTEM
from itmflow.ode import IvpSpec, OdeSystem

ROOT_H = 2.954391
ROOT_LAMBDA = 1.311043
ROOT_SHEAR = -0.443761
BLASIUS_SHEAR = 0.332057
BLASIUS_LAMBDA_REF = 0.6924754160  # far-field plateau parameter, rtol=1e-12 run

NEWTON_REF_H = [2.5, 2.634888, 2.812401, 2.929233, 2.953635, 2.954391, 2.954391]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_sakiadis_secant_defaults():
    res = solve_sakiadis()
    checks = [
        res.converged,
        abs(res.final_h_star - ROOT_H) <= 1e-5,
        abs(res.final_lambda - ROOT_LAMBDA) <= 1e-5,
        abs(res.final_wall_shear - ROOT_SHEAR) <= 1e-5,
        res.gamma_evaluations <= 10,
    ]
    ok = all(checks)
    _report(1, ok, f"secant h*={res.final_h_star:.6f} lambda={res.final_lambda:.6f} "
                   f"f''(0)={res.final_wall_shear:.6f} in {res.gamma_evaluations} evaluations")
    assert ok, checks


def test_criterion_02_sakiadis_newton():
    res = solve_sakiadis(ItmConfig(root_finder="newton"))
    row_match = (len(res.iterates) <= len(NEWTON_REF_H)) and all(
        abs(it.h_star - ref) <= 1e-3
        for it, ref in zip(res.iterates, NEWTON_REF_H)
    )
    checks = [
        res.converged,
        abs(res.final_h_star - ROOT_H) <= 1e-5,
        abs(res.final_lambda - ROOT_LAMBDA) <= 1e-5,
        abs(res.final_wall_shear - ROOT_SHEAR) <= 1e-5,
        res.gamma_evaluations <= 7,
        row_match,
    ]
    ok = all(checks)
    _report(2, ok, f"newton reached the same root in {res.gamma_evaluations} "
                   f"evaluations, iterate rows match to 1e-3")
    assert ok, checks


def test_criterion_03_first_evaluation_golden_values():
    ev = evaluate_gamma_at(2.5)
    checks = [
        0.967341 <= ev.gamma <= 0.967347,
        abs(ev.lam - 1.061732) <= 2e-6,
    ]
    ok = all(checks)
    _report(3, ok, f"Gamma(2.5)={ev.gamma:.6f} lambda(2.5)={ev.lam:.6f}")
    assert ok, checks


def test_criterion_04_blasius_topfer():
    res = solve_blasius_topfer()  # boundaries (4, 6, 8, 10), agreement 1e-3
    lam = dict(res.lambda_checks)
    checks = [
        res.accepted_eta == 6.0,  # the (4, 6) pair already agrees
        abs(lam[4.0] - lam[6.0]) <= 1e-3,
        abs(res.wall_shear - BLASIUS_SHEAR) <= 1e-5,
        abs(res.accepted_lambda - BLASIUS_LAMBDA_REF) <= 1e-5,
    ]
    ok = all(checks)
    _report(4, ok, f"accepted at eta*={res.accepted_eta:g}, f''(0)={res.wall_shear:.6f}, "
                   f"parameter error {abs(res.accepted_lambda - BLASIUS_LAMBDA_REF):.1e} < 1e-5")
    assert ok, checks


def test_criterion_05_wall_shear_increase(capsys):
    code = main(["compare", "--format", "json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    increase = doc["final"]["increase_percent"]
    sak = doc["final"]["sakiadis_wall_shear"]
    bla = doc["final"]["blasius_wall_shear"]
    checks = [
        code == 0,
        abs(increase - 33.64) <= 0.05,
        abs(sak) > abs(bla),
    ]
    ok = all(checks)
    with capsys.disabled():
        _report(5, ok, f"compare reports {increase:.2f}% increase")
    assert ok, checks


def test_criterion_06_uniqueness_scan():
    grid = ScanGrid(0.5, 20.0, 40)
    neg = scan(grid, -1)
    pos = scan(grid, 1)
    neg_ok = (neg.verdict == "unique_zero" and len(neg.brackets) == 1
              and 2.5 <= neg.brackets[0][0] and neg.brackets[0][1] <= 3.5)
    pos_ok = pos.verdict == "no_zero" and not pos.brackets
    ok = neg_ok and pos_ok
    _report(6, ok, f"sign -1 -> {neg.verdict} {neg.brackets}; sign +1 -> {pos.verdict}")
    assert ok, (neg.verdict, neg.brackets, pos.verdict, pos.brackets)


def test_criterion_07_sensitivity_matches_finite_differences():
    control = StepControl(abs_tol=1e-11, rel_tol=1e-11)
    # h* = 2.0 diverges before eta* = 10 on this branch; probe it at 6
    cases = [(2.0, 6.0), (2.5, 10.0), (3.0, 10.0), (3.5, 10.0)]
    worst = 0.0

    def far_state(h, eta_inf):
        spec = IvpSpec(0.0, eta_inf, sakiadis_star_ic(h), SIMILARITY_SYSTEM)
        return integrate_adaptive(spec, control).states[-1]

    ok = True
    for h, eta_inf in cases:
        spec = IvpSpec(0.0, eta_inf, augmented_ic(h), AUGMENTED_SYSTEM)
        aug = integrate_adaptive(spec, control).states[-1]
        delta = 1e-5 * h
        hi = far_state(h + delta, eta_inf)
        lo = far_state(h - delta, eta_inf)
        fd_u2 = (hi[1] - lo[1]) / (2 * delta)
        fd_u3 = (hi[2] - lo[2]) / (2 * delta)
        rel_u2 = abs(aug[4] - fd_u2) / abs(fd_u2)
        rel_u3 = abs(aug[5] - fd_u3) / abs(fd_u3)
        cfg = ItmConfig(eta_inf_star=eta_inf, step_control=control)
        dgamma = evaluate_gamma_with_derivative(h, cfg).dgamma_dh
        fd_g = (evaluate_gamma_at(h + delta, cfg).gamma
                - evaluate_gamma_at(h - delta, cfg).gamma) / (2 * delta)
        rel_g = abs(dgamma - fd_g) / abs(fd_g)
        worst = max(worst, rel_u2, rel_u3, rel_g)
        ok = ok and rel_u2 <= 1e-4 and rel_u3 <= 1e-4 and rel_g <= 1e-4
    _report(7, ok, f"sensitivities track central differences, worst rel err {worst:.1e}")
    assert ok, worst


def test_criterion_08_rescaling_contract():
    control = StepControl(max_step=0.02)
    res = solve_sakiadis(ItmConfig(step_control=control))
    sol = res.rescaled_solution
    etas, states = sol.etas, sol.states
    idx = np.unique(np.linspace(1, len(sol) - 2, 20).astype(int))
    worst = 0.0
    for i in idx:
        x0, x1, x2 = etas[i - 1], etas[i], etas[i + 1]
        y0, y1, y2 = states[i - 1, 2], states[i, 2], states[i + 1, 2]
        # derivative at x1 of the quadratic through the three samples
        fd3 = (y0 * (x1 - x2) / ((x0 - x1) * (x0 - x2))
               + y1 * (2 * x1 - x0 - x2) / ((x1 - x0) * (x1 - x2))
               + y2 * (x1 - x0) / ((x2 - x0) * (x2 - x1)))
        residual = abs(fd3 + 0.5 * states[i, 0] * states[i, 2])
        worst = max(worst, residual)
    checks = [
        states[0, 0] == 0.0,
        abs(states[0, 1] - 1.0) <= 1e-9,
        abs(states[-1, 1]) <= 1e-3,
        worst <= 1e-4,
    ]
    ok = all(checks)
    _report(8, ok, f"f(0)=0, |f'(0)-1|={abs(states[0, 1] - 1.0):.1e}, "
                   f"|f'(end)|={abs(states[-1, 1]):.1e}, max residual {worst:.1e}")
    assert ok, checks


def test_criterion_09_integrator_order():
    # Tolerances of 1 accept every attempt, so the march keeps the uniform
    # step h.  RK4 is order 4 and the extrapolation (two - full)/15 removes
    # its h^4 error term, so the march is order 5: halving h divides the
    # error by about 2^5 = 32.
    system = OdeSystem(lambda eta, y: y.copy(), 1)
    spec = IvpSpec(0.0, 1.0, np.array([1.0]), system)

    def error(h):
        control = StepControl(abs_tol=1.0, rel_tol=1.0, initial_step=h, min_step=h, max_step=h)
        return abs(integrate_adaptive(spec, control).states[-1, 0] - math.e)

    errs = [error(h) for h in (0.1, 0.05, 0.025)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    ok = 28.0 <= r1 <= 36.0 and 28.0 <= r2 <= 36.0
    _report(9, ok, f"halving-h error ratios {r1:.2f}, {r2:.2f} (order 5)")
    assert ok, (r1, r2)


@pytest.mark.parametrize("argv", [
    ["sakiadis", "--format", "csv"],
    ["sakiadis", "--format", "json"],
    ["blasius", "--format", "csv"],
    ["scan", "--format", "csv"],
    ["compare", "--format", "json"],
], ids=["sakiadis-csv", "sakiadis-json", "blasius-csv", "scan-csv", "compare-json"])
def test_criterion_10_byte_identical_reruns(argv, tmp_path, capsys):
    first = tmp_path / "a.out"
    second = tmp_path / "b.out"
    code1 = main([*argv, "--output", str(first)])
    code2 = main([*argv, "--output", str(second)])
    capsys.readouterr()
    ok = code1 == code2 == 0 and first.read_bytes() == second.read_bytes()
    with capsys.disabled():
        _report(10, ok, f"{' '.join(argv)} reruns byte-identical")
    assert ok


@pytest.mark.parametrize("root_finder", ["secant", "newton"])
def test_criterion_11_truncated_boundary_twenty(root_finder):
    # The default seeds at eta_inf* = 20: the seed h* = 2.5 is certified
    # below the root, and the bracketing solve converges to the
    # eta-converged value -0.4437483 (measured error 1.37e-8).
    tight = StepControl(abs_tol=1e-11, rel_tol=1e-11)
    res = solve_sakiadis(ItmConfig(root_finder=root_finder,
                                   h1=3.5 if root_finder == "secant" else None,
                                   eta_inf_star=20.0, gamma_tol=1e-11, step_control=tight))
    err = abs(res.final_wall_shear + 0.4437483) if res.converged else math.inf
    ok = res.converged and err <= 1e-7
    _report(11, ok, f"{root_finder} at eta_inf*=20: |f''(0) + 0.4437483| = {err:.2e} "
                    f"in {res.gamma_evaluations} evaluations")
    assert ok, err
