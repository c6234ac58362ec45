"""A direct-shooting oracle for the Sakiadis and Blasius solves, which uses no scaling group.

At Gamma = 0 the rescaled ITM solution solves the truncated problem on
[0, eta_inf] with eta_inf = lambda * eta_inf*: f(0) = 0, f'(0) = 1 and
f'(eta_inf) = 0.  Topfer's rescaled solution solves f(0) = f'(0) = 0 and
f'(E) = 1 with E = eta*/lambda at the accepted boundary eta*.  Shooting on
s = f''(0) in the original variables, at tight tolerances, must give the
reported wall shear up to the solve's IVP tolerance; that wall shear must be
the f''(0) of the rescaled solution, to the last bit.
"""

import pytest

from itmflow import (SIMILARITY_SYSTEM, ItmConfig, IvpSpec, StepControl, integrate_adaptive,
                     solve_blasius_topfer, solve_sakiadis)

SHOOTING_CONTROL = StepControl(abs_tol=1e-12, rel_tol=1e-12)


def shoot(wall_shear: float, end: float, wall_slope: float, far_slope: float) -> float:
    """The f''(0) within 1% of ``wall_shear`` for which the march from
    (0, wall_slope, f''(0)) ends with f'(end) = far_slope, by 55 bisection steps."""
    def ends_above(s):
        spec = IvpSpec(0.0, end, (0.0, wall_slope, s), SIMILARITY_SYSTEM)
        return integrate_adaptive(spec, SHOOTING_CONTROL).final_state[1] > far_slope

    lo, hi = sorted((wall_shear * 0.99, wall_shear * 1.01))
    lo_above = ends_above(lo)
    assert ends_above(hi) != lo_above, "the 1% bracket holds no root"
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        if ends_above(mid) == lo_above:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("eta_inf_star", [10.0, 15.0, 20.0])
@pytest.mark.parametrize("root_finder", ["secant", "newton"])
def test_itm_matches_direct_shooting(root_finder, eta_inf_star, tol):
    res = solve_sakiadis(ItmConfig(root_finder=root_finder, eta_inf_star=eta_inf_star,
                                   step_control=StepControl(abs_tol=tol, rel_tol=tol)))
    assert res.converged
    rows = res.rescaled_solution.rows
    assert rows[-1][0] == res.final_lambda * eta_inf_star
    assert res.final_wall_shear == rows[0][3]
    shot = shoot(res.final_wall_shear, rows[-1][0], 1.0, 0.0)
    # The worst cases measured were 5.24e-9, 6.92e-11 and 2.92e-12 at tol = 1e-6, 1e-8, 1e-10.
    assert abs(res.final_wall_shear - shot) <= 0.02 * tol + 5e-12


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("eta_checks", [(4.0, 6.0, 8.0, 10.0), (6.0, 8.0, 10.0, 12.0), (8.0, 10.0)],
                         ids=["4-6-8-10", "6-8-10-12", "8-10"])
def test_topfer_matches_direct_shooting(eta_checks, tol):
    res = solve_blasius_topfer(eta_checks, step_control=StepControl(abs_tol=tol, rel_tol=tol))
    assert res.wall_shear == res.rescaled_solution.rows[0][3]
    shot = shoot(res.wall_shear, res.accepted_eta / res.accepted_lambda, 0.0, 1.0)
    # The worst cases measured were 3.94e-9, 4.31e-11 and 4.42e-13 at tol = 1e-6, 1e-8, 1e-10.
    assert abs(res.wall_shear - shot) <= 0.02 * tol + 5e-12
