"""Integrator tests: the adaptive RK4 march, free and pinned to a uniform step."""

import functools
import math
import re
import traceback

import numpy as np
import pytest

from itmflow import (BlowUpError, IntegrationError, IvpSpec, ItmConfig, OdeSystem,
                     StepControl, StepLimitError, StepUnderflowError, Trajectory,
                     integrate_adaptive, sakiadis_star_ic, solve_blasius_topfer,
                     solve_sakiadis)
from itmflow import ode
from itmflow.models import AUGMENTED_SYSTEM, SIMILARITY_SYSTEM, augmented_ic


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


def _last_call_returns(value, initial_state, system):
    """An IVP of ``system`` on [0, 1] whose rhs returns ``value`` on the last call of the march."""
    calls = []

    def rhs(eta, y):
        calls.append(eta)
        return value if len(calls) == last else system.rhs(eta, np.array(y))

    last = 0
    spec = IvpSpec(0.0, 1.0, initial_state, OdeSystem(rhs, system.dim))
    integrate_adaptive(spec)  # a clean march, to count its calls
    last = len(calls)
    calls.clear()
    return spec


def _pinned(h):
    """Tolerances loose enough that every attempt at the uniform step h is accepted."""
    return StepControl(abs_tol=1.0, rel_tol=1.0, initial_step=h, min_step=h, max_step=h)


class TestRk4Step:
    """One RK4 macro step: a pinned march whose span is a single step."""

    def test_zero_derivative_keeps_state(self):
        spec = IvpSpec(0.0, 0.1, np.array([7.0]), ZERO_1D)
        assert integrate_adaptive(spec, _pinned(0.1)).final_state[0] == 7.0

    def test_exponential_one_step(self):
        spec = IvpSpec(0.0, 0.1, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, _pinned(0.1))
        assert len(traj) == 2
        assert abs(traj.final_state[0] - math.exp(0.1)) < 1e-7

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
        assert {row[1:] for row in traj.rows} == {(3.0,)}
        assert traj.rows[0][0] == 0.0 and traj.rows[-1][0] == 10.0

    def test_harmonic_oscillator_period(self):
        spec = IvpSpec(0.0, 2.0 * math.pi, np.array([1.0, 0.0]), HARMONIC)
        final = np.array(integrate_adaptive(spec, _pinned(0.01)).final_state)
        assert np.max(np.abs(final - np.array([1.0, 0.0]))) < 1e-6

    def test_partial_final_step_lands_on_end(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, _pinned(0.3))
        assert traj.rows[-1][0] == 1.0
        assert len(traj) == 5

    def test_nonautonomous_rhs(self):
        spec = IvpSpec(0.0, 0.5 * math.pi, np.array([0.0]), OdeSystem(_cosine, 1))
        traj = integrate_adaptive(spec, _pinned(0.01))
        assert traj.final_state[0] == pytest.approx(1.0, abs=1e-9)


class TestIntegrateAdaptive:
    def test_zero_rhs_single_accepted_macro_steps(self):
        spec = IvpSpec(0.0, 10.0, np.array([7.0]), ZERO_1D)
        traj = integrate_adaptive(spec)
        assert {row[1:] for row in traj.rows} == {(7.0,)}
        # zero error estimate -> every step accepted, growth capped at 5x
        assert len(traj) < 12

    def test_exponential_hits_tolerance(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec)
        assert abs(traj.final_state[0] - math.e) <= 1e-6

    def test_sakiadis_far_slope(self):
        ic = np.array([0.0, math.sqrt(2.5), -1.0])
        spec = IvpSpec(0.0, 10.0, ic, SIMILARITY_SYSTEM)
        traj = integrate_adaptive(spec)
        # frozen from a rtol=atol=1e-12 reference run
        assert traj.final_state[1] == pytest.approx(-0.4538642512, abs=5e-7)

    def test_agrees_with_fine_fixed_grid(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        adaptive = np.array(integrate_adaptive(spec).final_state)
        fixed = np.array(integrate_adaptive(spec, _pinned(1e-4)).final_state)
        assert np.max(np.abs(adaptive - fixed)) <= 10 * 1e-6

    def test_endpoints_exact(self):
        spec = IvpSpec(0.25, 0.73, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec)
        assert traj.rows[0][0] == 0.25
        assert traj.rows[-1][0] == 0.73
        # a step cap that does not divide the span: the last step is cut short
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, StepControl(max_step=0.3))
        assert traj.rows[0][0] == 0.0
        assert traj.rows[-1][0] == 1.0
        assert traj.rows[0][1:] == spec.initial_state

    def test_max_step_below_default_initial_step(self):
        spec = IvpSpec(0.0, 1.0, np.array([1.0]), EXP_1D)
        traj = integrate_adaptive(spec, StepControl(max_step=0.005))
        assert traj.rows[-1][0] == 1.0
        assert np.diff([row[0] for row in traj.rows]).max() <= 0.005 * (1 + 1e-9)

    def test_deterministic_bitwise(self):
        ic = np.array([0.0, math.sqrt(2.5), -1.0])
        spec = IvpSpec(0.0, 10.0, ic, SIMILARITY_SYSTEM)
        a = integrate_adaptive(spec)
        b = integrate_adaptive(spec)
        assert a.rows == b.rows

    def test_nonfinite_rhs_raises_blowup(self):
        def bad(eta, y):
            return np.array([1.0]) if eta < 0.5 else np.array([math.nan])

        spec = IvpSpec(0.0, 3.0, np.array([1.0]), OdeSystem(bad, 1))
        with pytest.raises(BlowUpError):
            integrate_adaptive(spec)

    def test_huge_finite_states_are_not_a_blow_up(self):
        # Two components of 1e308 sum to inf; the finiteness check must not.
        spec = IvpSpec(0.0, 1.0, [1e308, 1e308], OdeSystem(lambda eta, y: [0.0, 0.0], 2))
        traj = integrate_adaptive(spec)
        assert traj.rows[-1][0] == 1.0 and traj.final_state == (1e308, 1e308)

    def test_nonfinite_last_slope_raises_blowup_at_end(self):
        # The slope at the last accepted sample is never stepped from, but is checked.
        spec = _last_call_returns([math.nan], [1.0], EXP_1D)
        with pytest.raises(BlowUpError) as err:
            integrate_adaptive(spec)
        assert err.value.eta == spec.end

    def test_nan_error_ratio_is_reported(self):
        # The first attempt's full step samples +c at 0, 2.5 and 5, its half
        # steps -c at 1.25 and 3.75: the two results differ by more than the
        # float range, and with rel_tol = 1e308 the second component's error
        # ratio is inf/inf = NaN while every state stays finite.
        def wild(eta, y):
            return np.array([1.0, 2.9e307 * math.cos(2.0 * math.pi * eta / 2.5)])

        spec = IvpSpec(0.0, 20.0, np.array([1.0, 10.0]), OdeSystem(wild, 2))
        control = StepControl(rel_tol=1e308, initial_step=5.0, max_step=5.0)
        # numpy scalars warn of the overflow and the invalid value on the way.
        with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as err:
            integrate_adaptive(spec, control)
        assert type(err.value) is IntegrationError
        assert str(err.value) == ("error estimate is not a number near eta = 0: "
                                  "abs_tol + rel_tol*|y| overflowed")
        assert err.value.eta == 0.0

    def test_numpy_warnings_reach_the_caller(self):
        # itmflow leaves numpy's error state alone: an ndarray rhs warns as numpy does.
        spec = IvpSpec(0.0, 3.0, [1e200], OdeSystem(lambda eta, y: np.array(y) ** 2, 1))
        with pytest.warns(RuntimeWarning, match="overflow encountered in square"), \
                pytest.raises(BlowUpError) as err:
            integrate_adaptive(spec)
        assert err.value.eta == 0.0

    def test_finite_time_singularity_reports_location(self):
        # moving-plate probe at h* = 0.5 escapes near eta = 4.99
        spec = IvpSpec(0.0, 10.0, sakiadis_star_ic(0.5), SIMILARITY_SYSTEM)
        with pytest.raises(IntegrationError) as err:
            integrate_adaptive(spec)
        assert 4.8 < err.value.eta < 5.2

    def test_overflowing_error_estimate_rejects_the_attempt(self, monkeypatch):
        # On the first attempt (h = 10) the full and the two half steps end at
        # finite states 2e308 apart: the error overflows to inf, the attempt is
        # rejected and the march goes on from h = 1.
        C = 1.5e307
        ratios, nonfinite_ratio = [], ode._nonfinite_ratio

        def recording(*args):
            ratios.append(nonfinite_ratio(*args))
            return ratios[-1]

        monkeypatch.setattr(ode, "_nonfinite_ratio", recording)
        system = OdeSystem(lambda eta, y: [-C if eta in (2.5, 7.5) else C], 1)
        traj = integrate_adaptive(IvpSpec(0.0, 10.0, [0.0], system),
                                  StepControl(initial_step=10.0, max_step=10.0))
        assert ratios == [math.inf]
        assert traj.rows[1][0] == 1.0 and math.isfinite(traj.final_state[0])

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
        assert [eta for eta, _ in seen] == [row[0] for row in traj.rows[1:]]
        assert [y for _, y in seen] == [list(row[1:]) for row in traj.rows[1:]]
        assert all(type(y) is list for _, y in seen)

    def test_stop_gets_its_own_list(self):
        # A rhs that overwrites its argument must not change what stop sees.
        def overwriting(eta, y):
            y[1] = 7.0
            return [1.0, 0.0]

        seen = []
        control = StepControl(stop=lambda eta, y: seen.append((eta, *y)))
        traj = integrate_adaptive(IvpSpec(0.0, 1.0, [0.0, 0.0], OdeSystem(overwriting, 2)),
                                  control)
        assert seen == list(traj.rows[1:])

    def test_stop_ends_the_march(self):
        def stop(eta, y):
            if y[0] >= 2.0:
                raise IntegrationError("crossed 2", eta)

        with pytest.raises(IntegrationError, match="crossed 2") as err:
            integrate_adaptive(IvpSpec(0.0, 2.0, np.array([1.0]), EXP_1D),
                               StepControl(stop=stop))
        # the first accepted sample past eta = ln 2
        assert math.log(2.0) <= err.value.eta < 1.0

    @pytest.mark.parametrize("system", [SIMILARITY_SYSTEM, OdeSystem(SIMILARITY_SYSTEM.rhs, 3)],
                             ids=["inlined", "called"])
    def test_stop_value_error_propagates_unchanged(self, system):
        def stop(eta, y):
            raise ValueError("stop failed")

        with pytest.raises(ValueError, match="^stop failed$"):
            integrate_adaptive(IvpSpec(0.0, 1.0, sakiadis_star_ic(2.5), system),
                               StepControl(stop=stop))

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
        assert traj.rows[0][1:] == (0.0, 0.0)
        assert {row[1:] for row in traj.rows} <= set(given)

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

    def test_scalar_and_nested_rhs_are_rejected_as_with_numpy(self, fresh_python):
        # The same two rhs results, before and after numpy is loaded.
        child = fresh_python(
            "import sys\n"
            "from itmflow import IvpSpec, OdeSystem, integrate_adaptive\n"
            "def messages():\n"
            "    for value in (1.0, [[1.0]]):\n"
            "        try:\n"
            "            integrate_adaptive(IvpSpec(0.0, 1.0, [1.0], OdeSystem(lambda eta, y: value, 1)))\n"
            "        except ValueError as exc:\n"
            "            print(exc)\n"
            "messages()\n"
            "print('numpy' in sys.modules)\n"
            "import numpy\n"
            "messages()\n")
        lines = ["rhs returned shape (), system dimension is 1",
                 "rhs returned shape (1, 1), system dimension is 1"]
        assert child.stdout.splitlines() == [*lines, "False", *lines]

    def test_rhs_that_changes_length_mid_march_is_rejected(self):
        def shrinking(eta, y):
            return [1.0, 0.0] if eta <= 0.5 else [1.0]

        traj = None
        with pytest.raises(ValueError, match=r"system dimension is 2$"):
            traj = integrate_adaptive(IvpSpec(0.0, 1.0, [0.0, 0.0], OdeSystem(shrinking, 2)))
        assert traj is None

    def test_rhs_that_changes_length_at_the_last_sample_is_rejected(self):
        spec = _last_call_returns([1.0, 0.0, 0.0], [1.0, 0.0], HARMONIC)
        message = "rhs returned a result of another length near eta = 1, system dimension is 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integrate_adaptive(spec)

    def test_rhs_value_error_propagates_unchanged(self):
        def failing(eta, y):
            if eta > 0.5:
                raise ValueError("rhs failed")
            return [1.0]

        with pytest.raises(ValueError, match="^rhs failed$"):
            integrate_adaptive(IvpSpec(0.0, 1.0, [0.0], OdeSystem(failing, 1)))

    def test_value_error_of_a_rhs_without_python_frame_propagates_unchanged(self):
        # A ufunc adds no Python frame; its own ValueError is not a length fault.
        rhs = functools.partial(np.add, out=np.empty(2))
        with pytest.raises(ValueError, match="^operands could not be broadcast"):
            ode._march(3)(rhs, 0.0, 1.0, 0.1, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                          1e-6, 1e-6, 1e-12, 0.25, 10, None)

    def test_traceback_shows_the_unrolled_stage(self):
        calls = []

        def failing(eta, y):
            calls.append(eta)
            if len(calls) == 3:  # the full step's second stage
                raise RuntimeError("rhs failed")
            return [y[1], -y[0], 0.0]

        with pytest.raises(RuntimeError) as err:
            integrate_adaptive(IvpSpec(0.0, 1.0, [1.0, 0.0, 0.0], OdeSystem(failing, 3)))
        frames = [frame for frame in traceback.extract_tb(err.value.__traceback__)
                  if frame.filename == "<itmflow.ode march dim=3>"]
        assert len(frames) == 1
        assert frames[0].line.startswith("r = c0, c1, c2, = rhs(eta + hh, [y0 + hh * b0,")

    def test_ndarray_rhs_still_integrates(self):
        # numpy scalars in place of floats: the same arithmetic, bit for bit
        def as_ndarray(eta, y):
            return np.array(SIMILARITY_SYSTEM.rhs(eta, y))

        ic = sakiadis_star_ic(2.5)
        lists = integrate_adaptive(IvpSpec(0.0, 10.0, ic, SIMILARITY_SYSTEM))
        arrays = integrate_adaptive(IvpSpec(0.0, 10.0, ic, OdeSystem(as_ndarray, 3)))
        assert arrays.rows == lists.rows


class TestInlinedRhs:
    """The package's systems march with their rhs inlined, bit for bit as when it is called."""

    @staticmethod
    def _outcome(spec, control):
        try:
            return integrate_adaptive(spec, control).rows
        except IntegrationError as exc:
            return type(exc), str(exc), exc.eta

    @staticmethod
    def _certify(root):
        """The sign -1 probe's certified stop, as the solver sets it."""
        def stop(eta, y):
            if y[1] + root <= 0.0:
                raise IntegrationError(f"f' + sqrt(h*) = {y[1] + root!r}", eta)
        return stop

    def _pool(self):
        """60 probes: both signs, with and without the stop, and the augmented system."""
        controls = (StepControl(), StepControl(abs_tol=1e-10, rel_tol=1e-10),
                    StepControl(max_steps=7))
        for h_star in (0.5, 1.5, 2.5, 3.5, 8.0):
            starts = [(sakiadis_star_ic(h_star, 1), SIMILARITY_SYSTEM, None),
                      (sakiadis_star_ic(h_star, -1), SIMILARITY_SYSTEM, None),
                      (sakiadis_star_ic(h_star, -1), SIMILARITY_SYSTEM, math.sqrt(h_star)),
                      (augmented_ic(h_star), AUGMENTED_SYSTEM, math.sqrt(h_star))]
            for control in controls:
                for ic, system, root in starts:
                    stop = None if root is None else self._certify(root)
                    yield ic, system, StepControl(**{**vars(control), "stop": stop})

    def test_pool_matches_the_called_rhs(self):
        kinds = set()
        for ic, system, control in self._pool():
            called = OdeSystem(lambda eta, y, rhs=system.rhs: rhs(eta, y), system.dim)
            inlined = self._outcome(IvpSpec(0.0, 10.0, ic, system), control)
            assert repr(inlined) == repr(self._outcome(IvpSpec(0.0, 10.0, ic, called), control))
            kinds.add(inlined[0] if isinstance(inlined[0], type) else Trajectory)
        # trajectories, certified stops, step underflows and exhausted budgets all occur
        assert {Trajectory, IntegrationError, StepUnderflowError, StepLimitError} <= kinds

    @pytest.mark.parametrize("system", [SIMILARITY_SYSTEM, AUGMENTED_SYSTEM],
                             ids=["similarity", "augmented"])
    def test_march_never_calls_rhs(self, system):
        # Given no rhs at all, the inlined march still integrates.
        ic = sakiadis_star_ic(2.5) if system.dim == 3 else augmented_ic(2.5)
        traj = integrate_adaptive(IvpSpec(0.0, 10.0, ic, system))
        rows = ode._march(system.dim, system._text)(
            None, 0.0, 10.0, 0.01, ic, tuple(system.rhs(0.0, list(ic))),
            1e-6, 1e-6, 1e-12, 2.5, 10 ** 6, None)
        assert rows == list(traj.rows)


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
            rows = traj.rows
            assert len(rows) == len(traj) and {len(row) for row in rows} == {1 + traj.dim}
            assert all(type(v) is float for row in rows for v in row)
            assert traj.final_state == rows[-1][1:]

    def test_constructor_coerces_arrays_to_float_rows(self):
        for rows in ([(0, 1, 2), (1, 3, 4)], np.array([[0, 1, 2], [1, 3, 4]])):
            traj = Trajectory(rows)
            assert traj.rows == ((0.0, 1.0, 2.0), (1.0, 3.0, 4.0))
            assert all(type(v) is float for row in traj.rows for v in row)

    def test_arrays_are_built_on_first_read(self, fresh_python):
        # Integrating and reading the rows loads no numpy.
        child = fresh_python(
            "import sys\n"
            "from itmflow import IvpSpec, SIMILARITY_SYSTEM, integrate_adaptive\n"
            "traj = integrate_adaptive(IvpSpec(0.0, 1.0, [0.0, 0.0, 1.0], SIMILARITY_SYSTEM))\n"
            "print(len(traj.rows) > 1, traj.final_state[2] < 1.0, 'numpy' in sys.modules)\n")
        assert child.stdout == "True True False\n"


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

    @pytest.mark.parametrize("rows, message", [
        ([([0.0], 0.0, 0.0, 0.0), ([1.0], 0.0, 0.0, 0.0)], "inconsistent trajectory rows"),
        ([(0.0, np.zeros(3)), (1.0, np.zeros(3))], "inconsistent trajectory rows"),
        ([0.0, 0.0], "inconsistent trajectory rows"),
        ([(0.0, 0.0, 0.0), (1.0, 0.0)], "inconsistent trajectory rows"),
        ([(), ()], "inconsistent trajectory rows"),
        ([(0.0, 1.0)], "a trajectory needs at least two samples"),
        ([(0.0, 1.0), (0.0, 1.0)], "trajectory etas must be strictly increasing"),
    ], ids=["2-D etas", "1-D states", "flat state list", "ragged", "empty rows", "one sample",
            "repeated eta"])
    def test_trajectory_checks(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Trajectory(rows)

    @pytest.mark.parametrize("text", [("f, fp", "fp, g"), ("f, fp", "fp")],
                             ids=["unknown name", "count"])
    def test_text_system_checks(self, text):
        with pytest.raises(ValueError, match="are not expressions over"):
            OdeSystem._from_text(*text)

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
