"""The list-of-floats RK4 kernel against the ndarray kernel it replaced.

``_rk4`` and ``reference_adaptive`` below are the ndarray versions of the
adaptive march, kept verbatim as the reference; an adapter hands them the
library's float-list rhs as an ndarray one.  The library kernel carries
states as Python floats but keeps every float operation in the same order,
so trajectories, errors and the whole sequence of rhs calls must match bit
for bit; regrouping any of the arithmetic fails here.
"""

import struct

import numpy as np
import pytest

from itmflow import (AUGMENTED_SYSTEM, SIMILARITY_SYSTEM, IntegrationError,
                     IvpSpec, OdeSystem, StepControl, StepUnderflowError,
                     Trajectory, augmented_ic, integrate_adaptive,
                     sakiadis_star_ic)
from itmflow.ode import _SAFETY, _blow_up, _finite, _step_limit


def _rk4(rhs, eta, y, k1, h):
    """One classical four-stage RK4 update over ``[eta, eta + h]``, given ``k1 = rhs(eta, y)``."""
    k2 = rhs(eta + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(eta + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(eta + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_adaptive(spec, control=None):
    control = StepControl() if control is None else control
    rhs, start, end = spec.system.rhs, spec.start, spec.end
    abs_tol, rel_tol = control.abs_tol, control.rel_tol
    min_step, max_steps = control.min_step, control.max_steps
    max_step = (end - start) / 4.0 if control.max_step is None else control.max_step
    y = np.array(spec.initial_state)
    eta = start
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        k1 = rhs(eta, y)
        if not _finite(k1):
            raise _blow_up(eta)
        etas, states = [eta], [y]
        h = min(control.initial_step, end - start, max_step)
        attempts = 0
        while eta < end:
            last = False
            if eta + h >= end:
                h = end - eta
                last = True
            attempts += 1
            if attempts > max_steps:
                raise _step_limit(eta)
            hh = 0.5 * h
            y_full = _rk4(rhs, eta, y, k1, h)
            y_mid = _rk4(rhs, eta, y, k1, hh)
            mid = eta + hh
            y_two = _rk4(rhs, mid, y_mid, rhs(mid, y_mid), hh)
            if not (_finite(y_full) and _finite(y_two)):
                raise _blow_up(eta)
            ratio = float(np.max(np.abs(y_two - y_full) / (abs_tol + rel_tol * np.abs(y))))
            if ratio <= 1.0:
                y = y_two + (y_two - y_full) / 15.0
                eta = end if last else eta + h
                k1 = rhs(eta, y)
                if not (_finite(y) and _finite(k1)):
                    raise _blow_up(eta)
                etas.append(eta)
                states.append(y)
                fac = 5.0 if ratio == 0.0 else min(_SAFETY * ratio ** -0.2, 5.0)
                h = max(min(h * fac, max_step), min_step)
            else:
                h *= max(_SAFETY * ratio ** -0.2, 0.1)
                if h < min_step:
                    raise StepUnderflowError(
                        f"required step fell below min_step near eta = {eta:.6g}", eta
                    )
        return Trajectory(etas, states)


def _square(eta, y):
    return [v * v for v in y]


def _ndarray_rhs(rhs):
    """``rhs`` with the ndarray argument and result the reference kernel expects."""
    return lambda eta, y: np.array(rhs(eta, y.tolist()))


def _ivp(h_star, sign):
    return IvpSpec(0.0, 10.0, sakiadis_star_ic(h_star, sign), SIMILARITY_SYSTEM)


TIGHT = StepControl(abs_tol=1e-10, rel_tol=1e-10)

ADAPTIVE_CASES = {
    **{f"sakiadis-{h}-{sign:+d}-{name}": (_ivp(h, sign), control)
       for h in (0.5, 2.5, 3.0, 100.0) for sign in (1, -1)
       for name, control in (("default", None), ("tight", TIGHT))},
    "augmented": (IvpSpec(0.0, 10.0, augmented_ic(2.5), AUGMENTED_SYSTEM), None),
    "square-blow-up": (IvpSpec(0.0, 3.0, np.array([1e200]), OdeSystem(_square, 1)), None),
    "square-underflow": (IvpSpec(0.0, 3.0, np.array([1.0]), OdeSystem(_square, 1)), None),
    "step-limit": (_ivp(2.5, -1), StepControl(max_steps=5)),
}


def _outcome(integrate, spec, *args, adapt=lambda rhs: rhs):
    """(rhs calls as bytes, trajectory or error) of one integration."""
    calls = []

    def recording(eta, y):
        calls.append((struct.pack("<d", eta), struct.pack(f"<{len(y)}d", *y)))
        return spec.system.rhs(eta, y)

    wrapped = IvpSpec(spec.start, spec.end, spec.initial_state,
                      OdeSystem(adapt(recording), spec.system.dim))
    try:
        traj = integrate(wrapped, *args)
    except IntegrationError as exc:
        return calls, (type(exc), str(exc), exc.eta)
    return calls, traj


def _assert_same(library, reference):
    (calls, result), (ref_calls, ref_result) = library, reference
    assert len(calls) == len(ref_calls)
    assert calls == ref_calls
    if isinstance(ref_result, Trajectory):
        assert np.array_equal(result.etas, ref_result.etas)
        assert np.array_equal(result.states, ref_result.states)
    else:
        kind, message, eta = result
        ref_kind, ref_message, ref_eta = ref_result
        assert (kind, message) == (ref_kind, ref_message)
        assert struct.pack("<d", eta) == struct.pack("<d", ref_eta)


@pytest.mark.parametrize("case", ADAPTIVE_CASES)
def test_adaptive_matches_reference(case):
    spec, control = ADAPTIVE_CASES[case]
    _assert_same(_outcome(integrate_adaptive, spec, control),
                 _outcome(reference_adaptive, spec, control, adapt=_ndarray_rhs))
