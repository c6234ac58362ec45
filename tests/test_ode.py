"""Integrator tests: the adaptive RK4 march, free and pinned to a uniform step."""

import math
import re

import numpy as np
import pytest

from itmflow import (BlowUpError, IntegrationError, IvpSpec, ItmConfig, OdeSystem,
                     StepControl, StepLimitError, StepUnderflowError, Trajectory,
                     integrate_adaptive, sakiadis_star_ic, solve_blasius_topfer,
                     solve_sakiadis)
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
    return [v * v for v in y]


class _SizeOneRow:
    """A one-entry row that float() converts, as numpy before 2.4 treats a size-1 array."""

    def __len__(self):
        return 1

    def __float__(self):
        return 1.0


ZERO_1D = OdeSystem(_const_zero, 1)
EXP_1D = OdeSystem(_identity, 1)
HARMONIC = OdeSystem(_harmonic, 2)


def _pinned(h):
    """Tolerances loose enough that every attempt at the uniform step h is accepted."""
    return StepControl(abs_tol=1.0, rel_tol=1.0, initial_step=h, min_step=h, max_step=h)


class TestRk4Step:
    """One RK4 macro step: a pinned march whose span is a single step."""

    def test_zero_derivative_keeps_state(self):
        spec = IvpSpec(0.0, 0.1, np.array([7.0]), ZERO_1D)
        assert integrate_adaptive(spec, _pinned(0.1)).states[-1, 0] == 7.0

    def test_exponential_one_step(self):
        spec = IvpSpec(0.0, 0.1, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, _pinned(0.1))
        assert len(traj) == 2
        assert abs(traj.states[-1, 0] - math.exp(0.1)) < 1e-7

    def test_blowup_carries_eta(self):
        # 1e200 squared overflows in the first slope, at the march's start
        spec = IvpSpec(2.0, 3.0, np.array([1e200]), OdeSystem(_square, 1))
        with pytest.raises(BlowUpError) as err:
            integrate_adaptive(spec)
        assert err.value.eta == 2.0


class TestIntegrateFixed:
    """The adaptive march pinned to a uniform step: the grid is fixed."""

    def test_constant_grid_and_samples(self):
        spec = IvpSpec(0.0, 10.0, np.array([3.0]), ZERO_1D)
        traj = integrate_adaptive(spec, _pinned(0.5))
        assert len(traj) == 21
        assert np.all(traj.states == 3.0)
        assert traj.etas[0] == 0.0 and traj.etas[-1] == 10.0

    def test_harmonic_oscillator_period(self):
        spec = IvpSpec(0.0, 2.0 * math.pi, np.array([1.0, 0.0]), HARMONIC)
        final = integrate_adaptive(spec, _pinned(0.01)).states[-1]
        assert np.max(np.abs(final - np.array([1.0, 0.0]))) < 1e-6

    def test_partial_final_step_lands_on_end(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, _pinned(0.3))
        assert traj.etas[-1] == 1.0
        assert len(traj) == 5

    def test_nonautonomous_rhs(self):
        spec = IvpSpec(0.0, 0.5 * math.pi, np.array([0.0]), OdeSystem(_cosine, 1))
        traj = integrate_adaptive(spec, _pinned(0.01))
        assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-9)


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
        fixed = integrate_adaptive(spec, _pinned(1e-4)).states[-1]
        assert np.max(np.abs(adaptive - fixed)) <= 10 * 1e-6

    def test_endpoints_exact(self):
        spec = IvpSpec(0.25, 0.73, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec)
        assert traj.etas[0] == 0.25
        assert traj.etas[-1] == 0.73
        # a step cap that does not divide the span: the last step is cut short
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, StepControl(max_step=0.3))
        assert traj.etas[0] == 0.0
        assert traj.etas[-1] == 1.0
        assert np.array_equal(traj.states[0], spec.initial_state)

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

    def test_nan_error_ratio_is_reported(self):
        # The first attempt's full step samples +c at 0, 2.5 and 5, its half
        # steps -c at 1.25 and 3.75: the two results differ by more than the
        # float range, and with rel_tol = 1e308 the second component's error
        # ratio is inf/inf = NaN while every state stays finite.
        def wild(eta, y):
            return np.array([1.0, 2.9e307 * math.cos(2.0 * math.pi * eta / 2.5)])

        spec = IvpSpec(0.0, 20.0, np.array([1.0, 10.0]), OdeSystem(wild, 2))
        control = StepControl(rel_tol=1e308, initial_step=5.0, max_step=5.0)
        with pytest.raises(IntegrationError) as err:
            integrate_adaptive(spec, control)
        assert type(err.value) is IntegrationError
        assert str(err.value) == ("error estimate is not a number near eta = 0: "
                                  "abs_tol + rel_tol*|y| overflowed")
        assert err.value.eta == 0.0

    def test_finite_time_singularity_reports_location(self):
        # moving-plate probe at h* = 0.5 escapes near eta = 4.99
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


class TestTerminalEvent:
    def test_stop_sees_every_accepted_sample(self):
        seen = []
        control = StepControl(stop=lambda eta, y: seen.append((eta, y)))
        traj = integrate_adaptive(IvpSpec(0.0, 1.0, np.array([1.0, 0.0]), HARMONIC), control)
        assert [eta for eta, _ in seen] == traj.etas[1:].tolist()
        assert [y for _, y in seen] == traj.states[1:].tolist()
        assert all(type(y) is list for _, y in seen)

    def test_stop_ends_the_march(self):
        def stop(eta, y):
            if y[0] >= 2.0:
                raise IntegrationError("crossed 2", eta)

        with pytest.raises(IntegrationError, match="crossed 2") as err:
            integrate_adaptive(IvpSpec(0.0, 2.0, np.array([1.0]), EXP_1D),
                               StepControl(stop=stop))
        # the first accepted sample past eta = ln 2
        assert math.log(2.0) <= err.value.eta < 1.0

    @pytest.mark.parametrize("stop", [1.0, "stop"])
    def test_stop_must_be_callable(self, stop):
        with pytest.raises(ValueError, match="stop must be callable or None"):
            StepControl(stop=stop)


class TestRhsContract:
    # One march is left; the id still names it.
    @pytest.mark.parametrize("integrate", [integrate_adaptive], ids=["adaptive"])
    @pytest.mark.parametrize("system", [SIMILARITY_SYSTEM, OdeSystem(_square, 1)],
                             ids=["similarity", "square"])
    def test_rhs_receives_fresh_float_vector(self, integrate, system):
        received = []

        def recording(eta, y):
            assert type(y) is list and len(y) == system.dim
            assert all(type(v) is float for v in y)
            received.append(y)
            return system.rhs(eta, y)

        spec = IvpSpec(0.0, 1.0, np.full(system.dim, 0.5), OdeSystem(recording, system.dim))
        traj = integrate(spec, StepControl(abs_tol=1e-10, rel_tol=1e-10, initial_step=1.0))
        # Every call got its own list (all are still alive, so ids are unique).
        assert len({id(y) for y in received}) == len(received)
        # One start call, 11 per accepted step and 10 per rejected one:
        # the oversized first step must have been rejected.
        assert len(received) > 1 + 11 * (len(traj) - 1)

    def test_rhs_that_mutates_its_argument_leaves_states_untouched(self):
        # The rhs overwrites a component whose slope is zero: every stored
        # sample must be what the rhs was given, not what it left behind.
        given = []

        def overwriting(eta, y):
            given.append(tuple(y))
            y[1] = 7.0
            return [1.0, 0.0]

        spec = IvpSpec(0.0, 1.0, np.zeros(2), OdeSystem(overwriting, 2))
        traj = integrate_adaptive(spec)
        assert traj.states[0].tolist() == [0.0, 0.0]
        assert {tuple(state) for state in traj.states.tolist()} <= set(given)

    @pytest.mark.parametrize("integrate", [integrate_adaptive], ids=["adaptive"])
    @pytest.mark.parametrize("shape", [(1,), (2,), (4,), (1, 3), (3, 1)], ids=str)
    def test_wrong_rhs_shape_is_rejected(self, integrate, shape):
        spec = IvpSpec(0.0, 1.0, np.ones(3), OdeSystem(lambda eta, y: np.ones(shape), 3))
        message = f"rhs returned shape {shape}, system dimension is 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate(spec)

    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_list_is_rejected(self, length):
        spec = IvpSpec(0.0, 1.0, np.ones(3), OdeSystem(lambda eta, y: [1.0] * length, 3))
        message = f"rhs returned shape ({length},), system dimension is 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate_adaptive(spec)

    def test_wrong_length_list_is_rejected_without_numpy(self, fresh_python):
        child = fresh_python(
            "import sys\n"
            "from itmflow import IvpSpec, OdeSystem, integrate_adaptive\n"
            "system = OdeSystem(lambda eta, y: [1.0, 1.0], 3)\n"
            "try:\n"
            "    integrate_adaptive(IvpSpec(0.0, 1.0, [1.0, 1.0, 1.0], system))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "print('numpy' in sys.modules)\n")
        assert child.stdout == "rhs returned shape (2,), system dimension is 3\nFalse\n"

    def test_ndarray_rhs_still_integrates(self):
        # numpy scalars in place of floats: the same arithmetic, bit for bit
        def as_ndarray(eta, y):
            return np.array(SIMILARITY_SYSTEM.rhs(eta, y))

        ic = sakiadis_star_ic(2.5)
        lists = integrate_adaptive(IvpSpec(0.0, 10.0, ic, SIMILARITY_SYSTEM))
        arrays = integrate_adaptive(IvpSpec(0.0, 10.0, ic, OdeSystem(as_ndarray, 3)))
        assert np.array_equal(arrays.etas, lists.etas)
        assert np.array_equal(arrays.states, lists.states)


class TestTrajectory:
    @pytest.fixture(scope="class")
    def trajectories(self):
        """A probe, a converged secant and Newton solve and a Topfer solve."""
        probe = integrate_adaptive(IvpSpec(0.0, 10.0, sakiadis_star_ic(2.5), SIMILARITY_SYSTEM))
        return [probe,
                solve_sakiadis().rescaled_solution,
                solve_sakiadis(ItmConfig(root_finder="newton", h1=None)).rescaled_solution,
                solve_blasius_topfer().rescaled_solution]

    def test_rows_and_final_state_are_floats(self, trajectories):
        for traj in trajectories:
            rows = traj.rows()
            assert len(rows) == len(traj) and {len(row) for row in rows} == {1 + traj.dim}
            assert all(type(v) is float for row in rows for v in row)
            assert traj.final_state == rows[-1][1:]

    def test_arrays_are_the_rows_cached_read_only(self, trajectories):
        for traj in trajectories:
            etas, states = traj.etas, traj.states
            assert traj.etas is etas and traj.states is states
            assert etas.dtype == states.dtype == np.float64
            assert etas.shape == (len(traj),) and states.shape == (len(traj), traj.dim)
            assert etas.tolist() == [row[0] for row in traj.rows()]
            assert states.tolist() == [list(row[1:]) for row in traj.rows()]
            assert not (etas.flags.writeable or states.flags.writeable)

    def test_constructor_coerces_arrays_to_float_rows(self):
        traj = Trajectory(np.array([0, 1]), np.array([[1, 2], [3, 4]]))
        assert traj.rows() == ((0.0, 1.0, 2.0), (1.0, 3.0, 4.0))
        assert all(type(v) is float for row in traj.rows() for v in row)

    def test_arrays_are_built_on_first_read(self, fresh_python):
        child = fresh_python(
            "import sys\n"
            "from itmflow import IvpSpec, SIMILARITY_SYSTEM, integrate_adaptive\n"
            "traj = integrate_adaptive(IvpSpec(0.0, 1.0, [0.0, 0.0, 1.0], SIMILARITY_SYSTEM))\n"
            "print(len(traj.rows()), traj.final_state[2] < 1.0, 'numpy' in sys.modules)\n"
            "print(traj.states.shape, 'numpy' in sys.modules)\n")
        rows = child.stdout.split()[0]
        assert child.stdout == f"{rows} True False\n({rows}, 3) True\n"


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
        # numpy < 2.4 lets float() flatten each size-1 row of np.ones((3, 1))
        # with only a DeprecationWarning; _SizeOneRow stands in for such a row.
        for state in (np.ones((3, 1)), [_SizeOneRow()] * 3, np.ones((1, 3)),
                      [[0.0], [1.0], [2.0]], [0.0, "one", 2.0], [0.0, None, 2.0],
                      np.float64(1.0)):
            with pytest.raises(ValueError, match="initial state must be a flat sequence"):
                IvpSpec(0.0, 1.0, state, SIMILARITY_SYSTEM)

    def test_ivp_spec_coerces_to_floats(self):
        spec = IvpSpec(0, 1, np.array([1, 2, 3]), SIMILARITY_SYSTEM)
        assert spec.initial_state == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in (spec.start, spec.end, *spec.initial_state))

    @pytest.mark.parametrize("etas, states", [
        (np.array([[0.0], [1.0]]), np.zeros((2, 3))),
        (np.array([0.0, 1.0]), np.zeros(2)),
        ([0.0, 1.0], [0.0, 0.0]),
        ([0.0, 1.0], [(0.0, 0.0), (0.0,)]),
        ([0.0, 1.0, 2.0], np.zeros((2, 3))),
    ], ids=["2-D etas", "1-D states", "flat state list", "ragged", "count"])
    def test_trajectory_checks(self, etas, states):
        with pytest.raises(ValueError, match="inconsistent trajectory arrays"):
            Trajectory(etas, states)

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
