"""Integrator tests: RK4 step, fixed and adaptive marches."""

import math
import re

import numpy as np
import pytest

from itmflow import (BlowUpError, IvpSpec, OdeSystem, StepControl,
                     StepLimitError, StepUnderflowError, blasius_star_ic,
                     integrate_adaptive, integrate_fixed)
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
    """One RK4 step: a fixed march whose span is a single step."""

    def test_zero_derivative_keeps_state(self):
        spec = IvpSpec(0.0, 0.1, np.array([7.0]), ZERO_1D)
        assert integrate_fixed(spec, 0.1).states[-1, 0] == 7.0

    def test_exponential_one_step(self):
        spec = IvpSpec(0.0, 0.1, np.array([1.0]), EXP_1D)
        traj = integrate_fixed(spec, 0.1)
        assert len(traj) == 2
        assert abs(traj.states[-1, 0] - math.exp(0.1)) < 1e-7

    def test_blowup_carries_eta(self):
        # 1e200 squared overflows in the first stage, at the step's start
        spec = IvpSpec(2.0, 3.0, np.array([1e200]), OdeSystem(_square, 1))
        with pytest.raises(BlowUpError) as err:
            integrate_fixed(spec, 1.0)
        assert err.value.eta == 2.0


class TestIntegrateFixed:
    def test_blasius_hand_march_step_tenth(self):
        # classical fixed grid 0.1 from unit curvature out to eta* = 6
        spec = IvpSpec(0.0, 6.0, blasius_star_ic(), SIMILARITY_SYSTEM)
        traj = integrate_fixed(spec, 0.1)
        slopes = traj.states[:, 1]
        assert np.all(np.diff(slopes) > 0)
        far = traj.states[-1, 1]
        assert far == pytest.approx(2.08540824, abs=1e-6)  # frozen, rtol=1e-12 reference
        assert far ** -1.5 == pytest.approx(0.332057, abs=1e-5)

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

    def test_max_step_below_default_initial_step(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, StepControl(max_step=0.005))
        assert traj.etas[-1] == 1.0
        assert np.diff(traj.etas).max() <= 0.005 * (1 + 1e-9)

    def test_deterministic_bitwise(self):
        ic = np.array([0.0, math.sqrt(2.5), -1.0])
        spec = IvpSpec(0.0, 10.0, ic, SIMILARITY_SYSTEM)
        a = integrate_adaptive(spec)
        b = integrate_adaptive(spec)
        assert np.array_equal(a.etas, b.etas)
        assert np.array_equal(a.states, b.states)

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


class TestRhsContract:
    @pytest.mark.parametrize("integrate, args", [
        (integrate_adaptive, (StepControl(abs_tol=1e-10, rel_tol=1e-10, initial_step=1.0),)),
        (integrate_fixed, (0.3,)),
    ], ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("system", [SIMILARITY_SYSTEM, OdeSystem(_square, 1)],
                             ids=["similarity", "square"])
    def test_rhs_receives_fresh_float_vector(self, integrate, args, system):
        received = []

        def recording(eta, y):
            assert type(y) is np.ndarray
            assert y.dtype == np.float64 and y.shape == (system.dim,)
            received.append(y)
            return system.rhs(eta, y)

        spec = IvpSpec(0.0, 1.0, np.full(system.dim, 0.5), OdeSystem(recording, system.dim))
        traj = integrate(spec, *args)
        # Every call got its own array (all are still alive, so ids are unique).
        assert len({id(y) for y in received}) == len(received)
        if integrate is integrate_adaptive:
            # One start call, 11 per accepted step and 10 per rejected one:
            # the oversized first step must have been rejected.
            assert len(received) > 1 + 11 * (len(traj) - 1)

    @pytest.mark.parametrize("integrate, args", [
        (integrate_adaptive, ()),
        (integrate_fixed, (0.1,)),
    ], ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("shape", [(1,), (2,), (4,), (1, 3)], ids=str)
    def test_wrong_rhs_shape_is_rejected(self, integrate, args, shape):
        spec = IvpSpec(0.0, 1.0, np.ones(3), OdeSystem(lambda eta, y: np.ones(shape), 3))
        message = f"rhs returned shape {shape}, system dimension is 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate(spec, *args)


class TestValidation:
    @pytest.mark.parametrize("dim", [0, -1, 2.5, math.nan, "3"])
    def test_ode_system_checks(self, dim):
        with pytest.raises(ValueError, match="system dimension must be"):
            OdeSystem(_identity, dim)

    def test_ivp_spec_checks(self):
        with pytest.raises(ValueError):
            IvpSpec(1.0, 0.5, np.array([1.0]), EXP_1D)
        with pytest.raises(ValueError):
            IvpSpec(0.0, 1.0, np.array([1.0, 2.0]), EXP_1D)
        with pytest.raises(ValueError):
            IvpSpec(0.0, 1.0, np.array([math.inf]), EXP_1D)
        with pytest.raises(ValueError):
            IvpSpec(0.0, 1.0, np.array([math.nan]), EXP_1D)
        with pytest.raises(ValueError):
            IvpSpec(0.0, math.inf, np.array([1.0]), EXP_1D)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"rel_tol": -1e-6},
        {"max_step": -1.0},
        {"min_step": 0.1, "initial_step": 0.01},
        {"max_step": 1e-13},
        {"max_steps": 0},
        {"abs_tol": math.inf, "rel_tol": math.inf},
        {"max_steps": math.nan},
        {"max_steps": 2.5},
    ])
    def test_step_control_checks(self, kwargs):
        with pytest.raises(ValueError):
            StepControl(**kwargs)

    @pytest.mark.parametrize("h, max_steps, message", [
        (0.0, None, "h must be positive and finite"),
        (-0.1, None, "h must be positive and finite"),
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
