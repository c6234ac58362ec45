"""Integrator tests: RK4 step, fixed and adaptive marches, dense output."""

import math

import numpy as np
import pytest

from itmflow import (BlowUpError, IvpSpec, OdeSystem, StepControl,
                     StepLimitError, StepUnderflowError, blasius_star_ic,
                     integrate_adaptive, integrate_fixed, rk4_step, state_at)
from itmflow.models import SIMILARITY_SYSTEM


def _const_zero(eta, y):
    return np.zeros_like(y)

def _identity(eta, y):
    return y.copy()

def _harmonic(eta, y):
    return np.array([y[1], -y[0]])

def _cosine(eta, y):
    return np.array([math.cos(eta)])

def _square(eta, y):
    return y * y


ZERO_1D = OdeSystem(_const_zero, 1)
EXP_1D = OdeSystem(_identity, 1)
HARMONIC = OdeSystem(_harmonic, 2)


class TestRk4Step:
    def test_zero_derivative_keeps_state(self):
        out = rk4_step(ZERO_1D, 0.0, np.array([7.0]), 0.1)
        assert out[0] == 7.0

    def test_exponential_one_step(self):
        out = rk4_step(EXP_1D, 0.0, np.array([1.0]), 0.1)
        assert abs(out[0] - math.exp(0.1)) < 1e-7

    def test_blasius_hand_march_step_tenth(self):
        # classical fixed grid 0.1 from unit curvature out to eta* = 6
        spec = IvpSpec(0.0, 6.0, blasius_star_ic(), SIMILARITY_SYSTEM)
        traj = integrate_fixed(spec, 0.1)
        slopes = traj.states[:, 1]
        assert np.all(np.diff(slopes) > 0)
        far = traj.states[-1, 1]
        assert far == pytest.approx(2.08540824, abs=1e-6)  # frozen, rtol=1e-12 reference
        assert far ** -1.5 == pytest.approx(0.332057, abs=1e-5)

    def test_rejects_nonpositive_step(self):
        for h in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="h must be positive and finite"):
                rk4_step(EXP_1D, 0.0, np.array([1.0]), h)

    def test_rejects_nonfinite_state(self):
        with pytest.raises(ValueError):
            rk4_step(EXP_1D, 0.0, np.array([math.nan]), 0.1)

    def test_blowup_carries_eta(self):
        sys = OdeSystem(_square, 1)
        with pytest.raises(BlowUpError) as err:
            rk4_step(sys, 2.0, np.array([1e200]), 1.0)
        assert err.value.eta == 2.0


class TestIntegrateFixed:
    def test_constant_grid_and_samples(self):
        spec = IvpSpec(0.0, 10.0, np.array([3.0]), ZERO_1D)
        traj = integrate_fixed(spec, 0.5)
        assert len(traj) == 21
        assert np.all(traj.states == 3.0)
        assert traj.etas[0] == 0.0 and traj.etas[-1] == 10.0

    def test_exponential_growth_error(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        err = abs(integrate_fixed(spec, 0.1).states[-1, 0] - math.e)
        # RK4 theory for y'=y gives e*h^4/120 ~ 2.1e-6 at h=0.1
        assert 1e-6 < err < 3e-6
        err5 = abs(integrate_fixed(spec, 0.05).states[-1, 0] - math.e)
        assert err5 < 1e-6

    def test_harmonic_oscillator_period(self):
        spec = IvpSpec(0.0, 2.0 * math.pi, np.array([1.0, 0.0]), HARMONIC)
        final = integrate_fixed(spec, 0.01).states[-1]
        assert np.max(np.abs(final - np.array([1.0, 0.0]))) < 1e-6

    def test_partial_final_step_lands_on_end(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_fixed(spec, 0.3)
        assert traj.etas[-1] == 1.0
        assert len(traj) == 5

    def test_nonautonomous_rhs(self):
        spec = IvpSpec(0.0, 0.5 * math.pi, np.array([0.0]), OdeSystem(_cosine, 1))
        traj = integrate_fixed(spec, 0.01)
        assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-9)

    def test_step_budget(self):
        spec = IvpSpec(0.0, 10.0, np.array([1.0]), EXP_1D)
        with pytest.raises(StepLimitError):
            integrate_fixed(spec, 1e-9)
        with pytest.raises(StepLimitError):
            integrate_fixed(spec, 5e-324)  # the step count overflows to inf

    def test_order_four_convergence(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        errs = [abs(integrate_fixed(spec, h).states[-1, 0] - math.e)
                for h in (0.1, 0.05, 0.025)]
        assert 14.0 <= errs[0] / errs[1] <= 18.0
        assert 14.0 <= errs[1] / errs[2] <= 18.0


class TestIntegrateAdaptive:
    def test_zero_rhs_single_accepted_macro_steps(self):
        spec = IvpSpec(0.0, 10.0, np.array([7.0]), ZERO_1D)
        traj = integrate_adaptive(spec)
        assert np.all(traj.states == 7.0)
        # zero error estimate -> every step accepted, growth capped at 5x
        assert len(traj) < 12

    def test_exponential_hits_tolerance(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec)
        assert abs(traj.states[-1, 0] - math.e) <= 1e-6

    def test_sakiadis_far_slope(self):
        ic = np.array([0.0, math.sqrt(2.5), -1.0])
        spec = IvpSpec(0.0, 10.0, ic, SIMILARITY_SYSTEM)
        traj = integrate_adaptive(spec)
        # frozen from a rtol=atol=1e-12 reference run
        assert traj.states[-1, 1] == pytest.approx(-0.4538642512, abs=5e-7)

    def test_agrees_with_fine_fixed_grid(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        adaptive = integrate_adaptive(spec).states[-1]
        fixed = integrate_fixed(spec, 1e-4).states[-1]
        assert np.max(np.abs(adaptive - fixed)) <= 10 * 1e-6

    def test_endpoints_exact(self):
        spec = IvpSpec(0.25, 0.73, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec)
        assert traj.etas[0] == 0.25
        assert traj.etas[-1] == 0.73

    def test_deterministic_bitwise(self):
        ic = np.array([0.0, math.sqrt(2.5), -1.0])
        spec = IvpSpec(0.0, 10.0, ic, SIMILARITY_SYSTEM)
        a = integrate_adaptive(spec)
        b = integrate_adaptive(spec)
        assert np.array_equal(a.etas, b.etas)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivs, b.derivs)

    def test_nonfinite_rhs_raises_blowup(self):
        def bad(eta, y):
            return np.array([1.0]) if eta < 0.5 else np.array([math.nan])

        spec = IvpSpec(0.0, 3.0, np.array([1.0]), OdeSystem(bad, 1))
        with pytest.raises(BlowUpError):
            integrate_adaptive(spec)

    def test_finite_time_singularity_reports_location(self):
        # moving-plate probe at h* = 0.5 escapes near eta = 4.99
        from itmflow import IntegrationError, sakiadis_star_ic
        from itmflow.models import SIMILARITY_SYSTEM
        spec = IvpSpec(0.0, 10.0, sakiadis_star_ic(0.5), SIMILARITY_SYSTEM)
        with pytest.raises(IntegrationError) as err:
            integrate_adaptive(spec)
        assert 4.8 < err.value.eta < 5.2

    def test_step_underflow(self):
        # near the pole of y' = y^2 the controller needs steps below min_step
        spec = IvpSpec(0.0, 3.0, np.array([1.0]), OdeSystem(_square, 1))
        control = StepControl(min_step=1e-3, initial_step=1e-3)
        with pytest.raises((StepUnderflowError, BlowUpError)):
            integrate_adaptive(spec, control)

    def test_step_limit(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        control = StepControl(max_steps=3)
        with pytest.raises(StepLimitError):
            integrate_adaptive(spec, control)


class TestStateAt:
    def test_exact_at_samples(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec)
        for i in (0, len(traj) // 2, len(traj) - 1):
            out = state_at(traj, float(traj.etas[i]))
            assert np.array_equal(out, traj.states[i])

    def test_exponential_midpoint(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, StepControl(abs_tol=1e-8, rel_tol=1e-8))
        out = state_at(traj, 0.5)
        assert abs(out[0] - math.sqrt(math.e)) <= 1e-6

    def test_reproduces_cubics(self):
        etas = np.array([0.0, 0.7, 1.9, 3.0])
        states = (etas ** 3).reshape(-1, 1)
        derivs = (3.0 * etas ** 2).reshape(-1, 1)
        from itmflow import Trajectory
        traj = Trajectory(etas, states, derivs)
        for q in (0.31, 1.25, 2.6):
            assert state_at(traj, q)[0] == pytest.approx(q ** 3, abs=1e-12)

    def test_linear_solution_exact(self):
        etas = np.array([0.0, 1.0, 2.5])
        states = (2.0 * etas).reshape(-1, 1)
        derivs = np.full((3, 1), 2.0)
        from itmflow import Trajectory
        traj = Trajectory(etas, states, derivs)
        assert state_at(traj, 1.7)[0] == pytest.approx(3.4, abs=1e-14)

    def test_outside_span(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec)
        for eta in (1.5, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="outside trajectory span"):
                state_at(traj, eta)


class TestValidation:
    def test_ivp_spec_checks(self):
        with pytest.raises(ValueError):
            IvpSpec(1.0, 0.5, np.array([1.0]), EXP_1D)
        with pytest.raises(ValueError):
            IvpSpec(0.0, 1.0, np.array([1.0, 2.0]), EXP_1D)
        with pytest.raises(ValueError):
            IvpSpec(0.0, 1.0, np.array([math.inf]), EXP_1D)
        with pytest.raises(ValueError):
            IvpSpec(0.0, math.inf, np.array([1.0]), EXP_1D)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"rel_tol": -1e-6},
        {"safety": 1.0},
        {"min_step": 0.1, "initial_step": 0.01},
        {"initial_step": 3.0, "max_step": 1.0},
        {"max_steps": 0},
        {"abs_tol": math.inf, "rel_tol": math.inf},
        {"max_steps": math.nan},
    ])
    def test_step_control_checks(self, kwargs):
        with pytest.raises(ValueError):
            StepControl(**kwargs)

    @pytest.mark.parametrize("h, max_steps, message", [
        (0.0, None, "h must be positive and finite"),
        (math.nan, None, "h must be positive and finite"),
        (math.inf, None, "h must be positive and finite"),
        (0.1, 0, "max_steps must be positive"),
        (0.1, -5, "max_steps must be positive"),
        (0.1, math.nan, "max_steps must be positive"),
    ])
    def test_integrate_fixed_checks(self, h, max_steps, message):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        with pytest.raises(ValueError, match=message):
            integrate_fixed(spec, h, max_steps)
