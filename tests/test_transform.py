"""Group algebra: lambda extraction, the transformation function, rescaling."""

import math
import re

import numpy as np
import pytest

from itmflow import (DegenerateFarFieldError, GammaEvaluation, IvpSpec,
                     Trajectory, integrate_adaptive, rescale_trajectory,
                     sakiadis_star_ic)
from itmflow.models import SIMILARITY_SYSTEM


class TestLambda:
    def test_unit_fixed_point(self):
        assert GammaEvaluation.from_far_field(1.0, 0.0).lam == 1.0

    def test_direct_evaluation(self):
        assert GammaEvaluation.from_far_field(4.0, 2.0).lam == 2.0

    def test_degenerate_radicand(self):
        with pytest.raises(DegenerateFarFieldError):
            GammaEvaluation.from_far_field(1.0, -2.0).lam
        with pytest.raises(DegenerateFarFieldError):
            GammaEvaluation.from_far_field(1.0, math.inf).lam

    def test_requires_positive_h(self):
        with pytest.raises(ValueError):
            GammaEvaluation.from_far_field(-1.0, 1.0).lam


def gamma(h_star, far_slope):
    return GammaEvaluation.from_far_field(h_star, far_slope).gamma


def dgamma_dh(h_star, far_slope, far_slope_sensitivity):
    return GammaEvaluation.from_far_field(h_star, far_slope, far_slope_sensitivity).dgamma_dh


class TestGamma:
    def test_exact_root_of_algebra(self):
        assert gamma(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        assert gamma(4.0, 2.0) == pytest.approx(-0.75, abs=1e-15)

    def test_zero_far_slope_is_always_a_root(self):
        for h in (0.3, 1.9, 7.2):
            assert gamma(h, 0.0) == pytest.approx(0.0, abs=1e-14)


class TestGammaDerivative:
    def test_balanced_case_vanishes(self):
        assert dgamma_dh(1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences_of_composed_gamma(self, tight_control):
        # eta_inf = 3 keeps the far-field radicand positive over all of [1.5, 4]
        eta_inf = 3.0

        def far(h):
            spec = IvpSpec(0.0, eta_inf, sakiadis_star_ic(h), SIMILARITY_SYSTEM)
            return integrate_adaptive(spec, tight_control).final_state[1]

        def far_sensitivity(h):
            from itmflow import AUGMENTED_SYSTEM, augmented_ic
            spec = IvpSpec(0.0, eta_inf, augmented_ic(h), AUGMENTED_SYSTEM)
            return integrate_adaptive(spec, tight_control).final_state[4]

        rng = np.random.default_rng(7)
        for h in rng.uniform(1.5, 4.0, size=10):
            h = float(h)
            analytic = dgamma_dh(h, far(h), far_sensitivity(h))
            delta = 1e-5 * h
            fd = (gamma(h + delta, far(h + delta))
                  - gamma(h - delta, far(h - delta))) / (2.0 * delta)
            assert analytic == pytest.approx(fd, rel=1e-4)


class TestGammaEvaluation:
    def test_construction_invariants(self):
        ev = GammaEvaluation.from_far_field(2.5, -0.45)
        assert ev.lam ** 2 == pytest.approx(-0.45 + math.sqrt(2.5), rel=1e-15)
        assert ev.gamma == pytest.approx(2.5 / ev.lam ** 4 - 1.0, rel=1e-14)
        assert ev.dgamma_dh is None

    def test_with_sensitivity(self):
        ev = GammaEvaluation.from_far_field(4.0, 2.0, 0.0)
        assert ev.dgamma_dh == pytest.approx(1.0 / 32.0, abs=1e-15)


class TestRescaling:
    def _toy_trajectory(self):
        return Trajectory([(0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 4.0, 8.0)])

    def test_identity_group_leaves_trajectory(self):
        traj = self._toy_trajectory()
        out = rescale_trajectory(1.0, traj)
        assert out.rows == traj.rows

    def test_single_sample_power_arithmetic(self):
        traj = self._toy_trajectory()
        out = rescale_trajectory(2.0, traj)
        assert out.rows[1][0] == 2.0
        assert np.allclose(out.rows[1][1:], [1.0, 1.0, 1.0])

    def test_group_closure(self):
        ic = sakiadis_star_ic(2.5)
        spec = IvpSpec(0.0, 5.0, ic, SIMILARITY_SYSTEM)
        traj = integrate_adaptive(spec)
        one = rescale_trajectory(1.3, rescale_trajectory(0.8, traj))
        two = rescale_trajectory(1.3 * 0.8, traj)
        one, two = np.array(one.rows), np.array(two.rows)
        assert np.allclose(one[:, 0], two[:, 0], rtol=1e-14, atol=0)
        assert np.allclose(one[:, 1:], two[:, 1:], rtol=1e-13, atol=1e-16)

    def test_rescaled_derivs_consistent_with_rhs(self):
        # the group maps slopes like states divided once more by lam (eta is stretched)
        ic = sakiadis_star_ic(2.5)
        spec = IvpSpec(0.0, 5.0, ic, SIMILARITY_SYSTEM)
        lam = 1.7
        star = integrate_adaptive(spec)
        out = rescale_trajectory(lam, star)
        slope_scale = np.array([lam ** -2, lam ** -3, lam ** -4])
        for i in (0, len(out) // 2, len(out) - 1):
            assert np.allclose(SIMILARITY_SYSTEM.rhs(0.0, out.rows[i][1:]),
                               SIMILARITY_SYSTEM.rhs(0.0, star.rows[i][1:]) * slope_scale,
                               rtol=1e-12, atol=1e-15)

    def test_requires_three_components(self):
        flat = Trajectory([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            rescale_trajectory(2.0, flat)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_rejects_bad_group_parameter(self, lam):
        message = f"group parameter must be positive and finite, got {lam}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rescale_trajectory(lam, self._toy_trajectory())

    def test_topfer_powers(self):
        # A Topfer far slope of 4 rescales unit starred curvature by sqrt(4):
        # the reported f''(0) is exactly 4**-1.5
        out = rescale_trajectory(4.0 ** 0.5, Trajectory([(0.0, 0.0, 0.0, 1.0), (1.0, 0.5, 1.0, 0.5)]))
        assert out.rows[0][3] == 4.0 ** -1.5 == 0.125
        assert out.rows[1] == (2.0, 0.25, 0.25, 0.0625)

    def test_overflowing_power_is_value_error(self):
        # lam**-3 overflows below about 1.78e-103
        with pytest.raises(ValueError, match=r"^group parameter 1e-150 is too small: lam\*\*-3 overflows$"):
            rescale_trajectory(1e-150, self._toy_trajectory())

