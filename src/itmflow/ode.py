"""Classical fourth-order Runge-Kutta integration for small first-order systems.

Provides one adaptive step-doubling march (one full step checked against two
half steps, Richardson-extrapolated acceptance).

``rhs(eta, y)`` receives a fresh list of ``dim`` Python floats, must return a
sequence of ``dim`` floats and must not modify its argument; a rhs written with
numpy expressions (``y ** 2``) must call ``np.asarray(y)`` itself.  The march
stays on Python floats, which on a few elements cost far less than numpy.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BACKEND", "OdeSystem", "IvpSpec", "StepControl", "Trajectory",
    "IntegrationError", "BlowUpError", "StepUnderflowError", "StepLimitError",
    "integrate_adaptive",
]

# The one integration kernel: interpreted Python stepping over float lists.
# Reported in run metadata (``--verbose``); not a setting.
BACKEND = "numpy"

# Damping of the adaptive march's (tol/err)^(1/5) step-size update.
_SAFETY = 0.9


class IntegrationError(RuntimeError):
    """Base class for integration failures; ``eta`` locates the failure."""

    def __init__(self, message: str, eta: float | None = None):
        super().__init__(message)
        self.eta = eta


class BlowUpError(IntegrationError):
    """A state or right-hand-side component became non-finite."""


class StepUnderflowError(IntegrationError):
    """Error control demanded a step smaller than ``min_step``."""


class StepLimitError(IntegrationError):
    """The integration exceeded ``max_steps`` step attempts."""


@dataclass(frozen=True)
class OdeSystem:
    """First-order system ``dy/deta = rhs(eta, y)`` of fixed dimension.

    ``rhs`` receives a fresh list of ``dim`` Python floats, must return a
    sequence of ``dim`` floats and must not modify its argument.
    """

    rhs: Callable[[float, list], Sequence[float]]
    dim: int

    def __post_init__(self):
        try:
            operator.index(self.dim)
        except TypeError:
            raise ValueError(f"system dimension must be an integer, got {self.dim!r}") from None
        if self.dim < 1:
            raise ValueError("system dimension must be positive")


@dataclass(frozen=True)
class IvpSpec:
    """An initial value problem on ``[start, end]``.

    ``initial_state`` is coerced to a float vector and must match the system
    dimension; ``end`` must lie strictly beyond ``start``.
    """

    start: float
    end: float
    initial_state: np.ndarray
    system: OdeSystem

    def __post_init__(self):
        state = np.asarray(self.initial_state, dtype=float)
        object.__setattr__(self, "initial_state", state)
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("start and end must be finite")
        if not self.end > self.start:
            raise ValueError(f"end ({self.end}) must exceed start ({self.start})")
        if state.shape != (self.system.dim,):
            raise ValueError(
                f"initial state has shape {state.shape}, system dimension is {self.system.dim}"
            )
        if not np.all(np.isfinite(state)):
            raise ValueError("initial state must be finite")


@dataclass(frozen=True)
class StepControl:
    """Adaptive integration policy.

    Acceptance is per component against ``abs_tol + rel_tol * |y_i|``.
    ``max_step=None`` resolves to a quarter of the integration span.  A
    march starts at ``min(initial_step, span, max_step)``.  ``max_steps``
    caps the step attempts of one integration.  ``stop(eta, y)``, if set, sees
    each accepted state as a float list it must not modify, and ends the march by raising.
    """

    abs_tol: float = 1e-6
    rel_tol: float = 1e-6
    initial_step: float = 0.01
    min_step: float = 1e-12
    max_step: float | None = None
    max_steps: int = 10 ** 6
    stop: Callable[[float, list], None] | None = None

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "initial_step", "min_step"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.min_step > self.initial_step:
            raise ValueError("min_step must not exceed initial_step")
        if self.max_step is not None:
            if not (self.max_step > 0 and math.isfinite(self.max_step)):
                raise ValueError("max_step must be positive and finite")
            if self.min_step > self.max_step:
                raise ValueError("min_step must not exceed max_step")
        try:
            operator.index(self.max_steps)
        except TypeError:
            raise ValueError(f"max_steps must be an integer, got {self.max_steps!r}") from None
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if not (self.stop is None or callable(self.stop)):
            raise ValueError(f"stop must be callable or None, got {self.stop!r}")


class Trajectory:
    """Accepted integration samples.

    Attributes
    ----------
    etas : ndarray, shape (n,)
        Strictly increasing sample abscissae; the first equals the IVP start
        and the last equals its end.
    states : ndarray, shape (n, dim)
        State at each sample.
    """

    __slots__ = ("etas", "states")

    def __init__(self, etas, states):
        etas = np.asarray(etas, dtype=float)
        states = np.asarray(states, dtype=float)
        if etas.ndim != 1 or states.ndim != 2 or states.shape[0] != etas.size:
            raise ValueError("inconsistent trajectory arrays")
        if etas.size < 2:
            raise ValueError("a trajectory needs at least two samples")
        if not np.all(np.diff(etas) > 0):
            raise ValueError("trajectory etas must be strictly increasing")
        self.etas = etas
        self.states = states

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def __len__(self) -> int:
        return self.etas.size


def _rk4(rhs, eta, y, k1, h):
    """One classical four-stage RK4 update over ``[eta, eta + h]``, given ``k1 = rhs(eta, y)``.

    States and slopes are float sequences; every operation keeps the order of
    the ndarray form ``y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``.
    """
    hh = 0.5 * h
    mid = eta + hh
    k2 = rhs(mid, [a + hh * b for a, b in zip(y, k1)])
    k3 = rhs(mid, [a + hh * b for a, b in zip(y, k2)])
    k4 = rhs(eta + h, [a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _blow_up(eta) -> BlowUpError:
    return BlowUpError(f"solution blew up near eta = {eta:.6g}", eta)


def _step_limit(eta) -> StepLimitError:
    return StepLimitError(f"exceeded step budget near eta = {eta:.6g}", eta)


def integrate_adaptive(spec: IvpSpec, control: StepControl | None = None) -> Trajectory:
    """Integrate with step-doubling error control.

    Each attempt takes one full RK4 step and two half steps.  The accepted
    state is the Richardson extrapolation of the two-half-step result; the
    raw difference drives the ``(tol/err)^(1/5)`` step update.  ``control``
    defaults to :class:`StepControl()`.

    Returns the accepted samples, both endpoints included (the last abscissa
    is exactly ``spec.end``).  Raises :class:`BlowUpError`,
    :class:`StepUnderflowError` or :class:`StepLimitError`, a plain
    :class:`IntegrationError` when the error estimate is not a number, or
    whatever ``control.stop`` raises.
    """
    control = StepControl() if control is None else control
    rhs, start, end = spec.system.rhs, spec.start, spec.end
    abs_tol, rel_tol = control.abs_tol, control.rel_tol
    min_step, max_steps, stop = control.min_step, control.max_steps, control.stop
    max_step = (end - start) / 4.0 if control.max_step is None else control.max_step
    y = spec.initial_state.tolist()
    eta = start
    etas, states = [eta], [tuple(y)]
    # A rhs may return an ndarray; its numpy scalars must overflow silently.
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        k1 = rhs(eta, y)
        if np.shape(k1) != (len(y),):
            raise ValueError(f"rhs returned shape {np.shape(k1)}, system dimension is {len(y)}")
        if not _finite(k1):
            raise _blow_up(eta)
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
            errs = [abs(two - full) / (abs_tol + rel_tol * abs(v))
                    for two, full, v in zip(y_two, y_full, y)]
            # As np.max: the first NaN component (inf/inf under an extreme
            # rel_tol) if there is one, which is truthy, else the largest.
            ratio = next(filter(math.isnan, errs), None) or max(errs)
            if ratio <= 1.0:
                y = [two + (two - full) / 15.0 for two, full in zip(y_two, y_full)]
                eta = end if last else eta + h
                etas.append(eta)
                states.append(tuple(y))
                k1 = rhs(eta, y)
                if not (_finite(y) and _finite(k1)):
                    raise _blow_up(eta)
                if stop is not None:
                    stop(eta, y)
                fac = 5.0 if ratio == 0.0 else min(_SAFETY * ratio ** -0.2, 5.0)
                h = max(min(h * fac, max_step), min_step)
            else:
                if math.isnan(ratio):
                    raise IntegrationError("error estimate is not a number near eta = "
                                           f"{eta:.6g}: abs_tol + rel_tol*|y| overflowed", eta)
                h *= max(_SAFETY * ratio ** -0.2, 0.1)
                if h < min_step:
                    raise StepUnderflowError(
                        f"required step fell below min_step near eta = {eta:.6g}", eta
                    )
        return Trajectory(etas, states)

