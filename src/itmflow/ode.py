"""Classical fourth-order Runge-Kutta integration for small first-order systems.

Provides one adaptive step-doubling march (one full step checked against two
half steps, Richardson-extrapolated acceptance).

``rhs(eta, y)`` receives a fresh list of ``dim`` Python floats, must return a
sequence of ``dim`` floats and must not modify its argument; a rhs written with
numpy expressions (``y ** 2``) must call ``np.asarray(y)`` itself.  The march
stays on Python floats, which on a few elements cost far less than numpy, and
this module does not import numpy: a :class:`Trajectory` builds its ndarrays
only when a caller reads them.
"""

import contextlib
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

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


def _float_tuple(values) -> tuple:
    """``values``, a flat sequence of numbers, as a tuple of floats.

    Raises ``TypeError`` or ``ValueError`` for anything else.  An entry with a
    length (a nested list, an array row, a string) is refused, because
    ``float()`` would flatten a size-1 array row.
    """
    entries = tuple(values)
    if any(hasattr(v, "__len__") for v in entries):
        raise ValueError("a nested entry")
    return tuple(map(float, entries))


@dataclass(frozen=True)
class IvpSpec:
    """An initial value problem on ``[start, end]``.

    ``start`` and ``end`` are coerced to floats and ``initial_state`` to a
    tuple of floats, which must match the system dimension; ``end`` must lie
    strictly beyond ``start``.
    """

    start: float
    end: float
    initial_state: tuple[float, ...]
    system: OdeSystem

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("start and end must be finite")
        try:
            state = _float_tuple(self.initial_state)
        except (TypeError, ValueError):
            raise ValueError("initial state must be a flat sequence of numbers, "
                             f"got {self.initial_state!r}") from None
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "end", float(self.end))
        object.__setattr__(self, "initial_state", state)
        if not self.end > self.start:
            raise ValueError(f"end ({self.end}) must exceed start ({self.start})")
        if len(state) != self.system.dim:
            raise ValueError(
                f"initial state has shape ({len(state)},), system dimension is {self.system.dim}"
            )
        if not _finite(state):
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
    """Accepted integration samples, held as float tuples.

    ``rows()`` gives each sample as an ``(eta, *state)`` tuple and
    ``final_state`` the last state; etas are strictly increasing, the first
    equals the IVP start and the last equals its end.

    Attributes
    ----------
    etas : ndarray, shape (n,)
        Sample abscissae.
    states : ndarray, shape (n, dim)
        State at each sample.

    Both arrays are built from the samples, importing numpy, on first
    access, then cached read-only.
    """

    __slots__ = ("_rows", "_etas", "_states")

    def __init__(self, etas, states):
        try:
            etas, states = _float_tuple(etas), [_float_tuple(state) for state in states]
            if len(states) != len(etas) or len(set(map(len, states))) > 1:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError("inconsistent trajectory arrays") from None
        self._set_rows([(eta, *state) for eta, state in zip(etas, states)])

    @classmethod
    def _from_rows(cls, rows):
        """A trajectory of ``(eta, *state)`` float tuples of one length, made by this package."""
        traj = cls.__new__(cls)
        traj._set_rows(rows)
        return traj

    def _set_rows(self, rows):
        if len(rows) < 2:
            raise ValueError("a trajectory needs at least two samples")
        etas = [row[0] for row in rows]
        if not all(map(operator.lt, etas, etas[1:])):
            raise ValueError("trajectory etas must be strictly increasing")
        self._rows = tuple(rows)
        self._etas = self._states = None

    def rows(self) -> tuple[tuple[float, ...], ...]:
        """Every sample as an ``(eta, *state)`` tuple of floats (``np.float64``
        states where the rhs returns ndarrays)."""
        return self._rows

    @property
    def etas(self):
        if self._etas is None:
            self._build_arrays()
        return self._etas

    @property
    def states(self):
        if self._states is None:
            self._build_arrays()
        return self._states

    def _build_arrays(self):
        import numpy as np

        self._etas = np.array([row[0] for row in self._rows])
        self._states = np.array([row[1:] for row in self._rows])
        self._etas.flags.writeable = self._states.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self._rows[0]) - 1

    @property
    def final_state(self) -> tuple[float, ...]:
        return self._rows[-1][1:]

    def __len__(self) -> int:
        return len(self._rows)


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
    y = list(spec.initial_state)
    eta = start
    rows = [(eta, *y)]
    # A rhs may return an ndarray, whose numpy scalars must overflow silently.
    # It can only do so once numpy is loaded; without numpy the check is len().
    np = sys.modules.get("numpy")
    errstate = (contextlib.nullcontext() if np is None
                else np.errstate(over="ignore", invalid="ignore", under="ignore"))
    with errstate:
        k1 = rhs(eta, y)
        shape = (len(k1),) if np is None else np.shape(k1)
        if shape != (len(y),):
            raise ValueError(f"rhs returned shape {shape}, system dimension is {len(y)}")
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
                rows.append((eta, *y))
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
        return Trajectory._from_rows(rows)

