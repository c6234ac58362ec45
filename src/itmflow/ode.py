"""Classical fourth-order Runge-Kutta integration for small first-order systems.

Provides a fixed-step march and an adaptive step-doubling scheme (one full
step checked against two half steps, Richardson-extrapolated acceptance),
plus cubic-Hermite dense output over the accepted samples.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BACKEND", "OdeSystem", "IvpSpec", "StepControl", "Trajectory",
    "IntegrationError", "BlowUpError", "StepUnderflowError", "StepLimitError",
    "DEFAULT_MAX_STEPS", "rk4_step", "integrate_fixed", "integrate_adaptive",
    "state_at",
]

# The one integration kernel: interpreted Python stepping over numpy vectors.
# Reported in run metadata (``--verbose``); not a setting.
BACKEND = "numpy"

# Step budget of every integration unless a caller passes its own.
DEFAULT_MAX_STEPS = 10 ** 6


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
    """First-order system ``dy/deta = rhs(eta, y)`` of fixed dimension."""

    rhs: Callable[[float, np.ndarray], np.ndarray]
    dim: int

    def __post_init__(self):
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
    ``max_step=None`` resolves to a quarter of the integration span.
    ``max_steps`` caps the step attempts of one integration.
    """

    abs_tol: float = 1e-6
    rel_tol: float = 1e-6
    initial_step: float = 0.01
    min_step: float = 1e-12
    max_step: float | None = None
    safety: float = 0.9
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "initial_step", "min_step"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.safety < 1.0:
            raise ValueError("safety must lie in (0, 1)")
        if self.min_step > self.initial_step:
            raise ValueError("min_step must not exceed initial_step")
        if self.max_step is not None:
            if not (self.max_step > 0 and math.isfinite(self.max_step)):
                raise ValueError("max_step must be positive and finite")
            if self.initial_step > self.max_step:
                raise ValueError("initial_step must not exceed max_step")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")

    def resolved_max_step(self, span: float) -> float:
        return span / 4.0 if self.max_step is None else self.max_step


class Trajectory:
    """Accepted integration samples with stored right-hand-side values.

    Attributes
    ----------
    etas : ndarray, shape (n,)
        Strictly increasing sample abscissae; the first equals the IVP start
        and the last equals its end.
    states : ndarray, shape (n, dim)
        State at each sample.
    derivs : ndarray, shape (n, dim)
        Right-hand side at each sample, used for dense output.
    """

    __slots__ = ("etas", "states", "derivs")

    def __init__(self, etas, states, derivs):
        etas = np.asarray(etas, dtype=float)
        states = np.asarray(states, dtype=float)
        derivs = np.asarray(derivs, dtype=float)
        if etas.ndim != 1 or states.ndim != 2 or states.shape[0] != etas.size \
                or derivs.shape != states.shape:
            raise ValueError("inconsistent trajectory arrays")
        if etas.size < 2:
            raise ValueError("a trajectory needs at least two samples")
        if not np.all(np.diff(etas) > 0):
            raise ValueError("trajectory etas must be strictly increasing")
        self.etas = etas
        self.states = states
        self.derivs = derivs

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def __len__(self) -> int:
        return self.etas.size


def _rk4(rhs, eta, y, k1, h):
    """One classical four-stage RK4 update over ``[eta, eta + h]``, given ``k1 = rhs(eta, y)``."""
    k2 = rhs(eta + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(eta + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(eta + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _blow_up(eta) -> BlowUpError:
    return BlowUpError(f"solution blew up near eta = {eta:.6g}", eta)


def _step_limit(eta) -> StepLimitError:
    return StepLimitError(f"exceeded step budget near eta = {eta:.6g}", eta)


def rk4_step(system: OdeSystem, eta: float, state: np.ndarray, h: float) -> np.ndarray:
    """One classical four-stage RK4 update of ``state`` over ``[eta, eta + h]``."""
    if h <= 0:
        raise ValueError("step size must be positive")
    y = np.asarray(state, dtype=float)
    if y.shape != (system.dim,):
        raise ValueError(f"state shape {y.shape} does not match system dimension {system.dim}")
    if not np.all(np.isfinite(y)):
        raise ValueError("state must be finite")
    rhs = system.rhs
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = _rk4(rhs, eta, y, rhs(eta, y), h)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(f"non-finite RK4 update at eta = {eta:.6g}", eta)
    return out


def _march_fixed(rhs, start, end, y0, h, max_steps):
    # Uniform RK4 march; the final step is shortened so the last node is
    # exactly ``end``.
    n_steps = max(1, int(np.ceil((end - start) / h - 1e-12)))
    if n_steps > max_steps:
        raise _step_limit(start)
    dim = y0.shape[0]
    etas = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, dim))
    derivs = np.empty((n_steps + 1, dim))
    y = y0.copy()
    eta = start
    etas[0] = eta
    states[0] = y
    for step in range(n_steps):
        k1 = rhs(eta, y)
        if not _finite(k1):
            raise _blow_up(eta)
        derivs[step] = k1
        if step < n_steps - 1:
            hi = h
            eta_next = start + (step + 1) * h
        else:
            hi = end - eta
            eta_next = end
        y = _rk4(rhs, eta, y, k1, hi)
        if not _finite(y):
            raise _blow_up(eta_next)
        eta = eta_next
        etas[step + 1] = eta
        states[step + 1] = y
    k1 = rhs(end, y)
    if not _finite(k1):
        raise _blow_up(end)
    derivs[n_steps] = k1
    return Trajectory(etas, states, derivs)


def _march_adaptive(rhs, start, end, y0, abs_tol, rel_tol, h0, min_step,
                    max_step, safety, max_steps):
    # Step doubling: one full RK4 step against two half steps.  The accepted
    # state is the Richardson extrapolation of the two-half-step result; the
    # raw difference drives the (tol/err)^(1/5) step update.
    etas = np.empty(256)
    states = np.empty((256, y0.shape[0]))
    derivs = np.empty_like(states)
    y = y0.copy()
    eta = start
    k1 = rhs(eta, y)
    if not _finite(k1):
        raise _blow_up(eta)
    etas[0] = eta
    states[0] = y
    derivs[0] = k1
    n = 1
    h = min(h0, end - start, max_step)
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
            if n == etas.size:
                etas, states, derivs = (np.concatenate((a, np.empty_like(a)))
                                        for a in (etas, states, derivs))
            etas[n] = eta
            states[n] = y
            derivs[n] = k1
            n += 1
            fac = 5.0 if ratio == 0.0 else min(safety * ratio ** -0.2, 5.0)
            h = max(min(h * fac, max_step), min_step)
        else:
            h *= max(safety * ratio ** -0.2, 0.1)
            if h < min_step:
                raise StepUnderflowError(
                    f"required step fell below min_step near eta = {eta:.6g}", eta
                )
    return Trajectory(etas[:n].copy(), states[:n].copy(), derivs[:n].copy())


def integrate_fixed(spec: IvpSpec, h: float, max_steps: int | None = None) -> Trajectory:
    """Integrate with a uniform RK4 grid of step ``h``.

    The march lands on ``spec.end`` exactly; the final step may be shorter
    than ``h``.  Raises :class:`StepLimitError` when the grid would exceed
    the step budget and :class:`BlowUpError` on non-finite states.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    budget = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return _march_fixed(spec.system.rhs, spec.start, spec.end,
                            spec.initial_state, float(h), budget)


def integrate_adaptive(spec: IvpSpec, control: StepControl | None = None) -> Trajectory:
    """Integrate with step-doubling error control.

    Parameters
    ----------
    spec : IvpSpec
        Problem definition.
    control : StepControl, optional
        Tolerances and step bounds; defaults to :class:`StepControl()`.

    Returns
    -------
    Trajectory
        Accepted samples including both endpoints (the last abscissa is
        exactly ``spec.end``).

    Raises
    ------
    BlowUpError, StepUnderflowError, StepLimitError
    """
    control = StepControl() if control is None else control
    max_step = control.resolved_max_step(spec.end - spec.start)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return _march_adaptive(spec.system.rhs, spec.start, spec.end,
                               spec.initial_state, control.abs_tol,
                               control.rel_tol, control.initial_step,
                               control.min_step, max_step, control.safety,
                               control.max_steps)


def state_at(trajectory: Trajectory, eta: float) -> np.ndarray:
    """State at ``eta`` by cubic Hermite interpolation between accepted samples.

    Exact (bit-for-bit) at sample points; uses the stored right-hand-side
    values as slopes, so cubic solutions are reproduced to rounding.
    """
    etas = trajectory.etas
    if eta < etas[0] or eta > etas[-1]:
        raise ValueError(
            f"eta = {eta:.6g} outside trajectory span [{etas[0]:.6g}, {etas[-1]:.6g}]"
        )
    idx = int(np.searchsorted(etas, eta, side="left"))
    if idx < etas.size and etas[idx] == eta:
        return trajectory.states[idx].copy()
    lo = idx - 1
    t0, t1 = etas[lo], etas[lo + 1]
    h = t1 - t0
    s = (eta - t0) / h
    y0, y1 = trajectory.states[lo], trajectory.states[lo + 1]
    f0, f1 = trajectory.derivs[lo], trajectory.derivs[lo + 1]
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1
