"""A direct-shooting oracle for the Sakiadis solve, which uses no scaling group and no Gamma.

At Gamma = 0 the rescaled ITM solution solves the truncated problem on
[0, eta_inf] with eta_inf = lambda * eta_inf*: f(0) = 0, f'(0) = 1 and
f'(eta_inf) = 0.  Shooting on s = f''(0) in the original variables, at tight
tolerances, must give the ITM's wall shear, and the f''(0) of its rescaled
solution, up to the ITM's IVP tolerance.
"""

import pytest

from itmflow import (SIMILARITY_SYSTEM, ItmConfig, IvpSpec, StepControl, integrate_adaptive,
                     solve_sakiadis)

SHOOTING_CONTROL = StepControl(abs_tol=1e-12, rel_tol=1e-12)


def shoot(wall_shear: float, end: float) -> float:
    """The f''(0) within 1% of ``wall_shear`` for which the march from (0, 1, f''(0)) ends
    with f'(end) = 0, by 55 bisection steps."""
    def far_slope_positive(s):
        spec = IvpSpec(0.0, end, (0.0, 1.0, s), SIMILARITY_SYSTEM)
        return integrate_adaptive(spec, SHOOTING_CONTROL).final_state[1] > 0.0

    lo, hi = sorted((wall_shear * 0.99, wall_shear * 1.01))
    lo_positive = far_slope_positive(lo)
    assert far_slope_positive(hi) != lo_positive, "the 1% bracket holds no root"
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        if far_slope_positive(mid) == lo_positive:
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
    shot = shoot(res.final_wall_shear, rows[-1][0])
    # The worst cases measured were 5.24e-9, 6.92e-11 and 2.92e-12 at tol = 1e-6, 1e-8, 1e-10.
    for wall_shear in (res.final_wall_shear, rows[0][3]):
        assert abs(wall_shear - shot) <= 0.02 * tol + 5e-12
