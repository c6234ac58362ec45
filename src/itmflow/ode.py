"""Classical fourth-order Runge-Kutta integration for small first-order systems.

Provides one adaptive step-doubling march (one full step checked against two
half steps, Richardson-extrapolated acceptance).

``rhs(eta, y)`` receives a fresh list of ``dim`` Python floats, must return
exactly ``dim`` floats on every call (a sequence or a 1-D ndarray) and must
not modify its argument; a rhs written with numpy expressions (``y ** 2``)
must call ``np.asarray(y)`` itself.  itmflow leaves numpy's error state to
the caller, so the numpy scalars of an ndarray result warn as numpy does.
The march stays on Python floats, which on a few elements cost far less
than numpy: the whole march, its step attempts unrolled, is one function
generated and compiled once per system dimension, with no loop over the
components.  A system written as text (``OdeSystem._from_text``, as the
package's own models are) gets a march of its own that computes the rhs
expressions in place of each call, with no call and no list; any other
system's march calls its ``rhs``.  itmflow does not install numpy and no
module of it imports numpy.
"""

import functools
import linecache
import math
import operator
import re
from collections.abc import Callable, Sequence

__all__ = [
    "BACKEND", "OdeSystem", "IvpSpec", "StepControl", "Trajectory",
    "IntegrationError", "BlowUpError", "StepUnderflowError", "StepLimitError",
    "integrate_adaptive",
]

# The one integration kernel: interpreted Python stepping over floats, one
# unrolled march function per system dimension and one per system written as
# text.  Not a setting: it stays public only for perfbench's run metadata.
BACKEND = "numpy"

# Damping of the adaptive march's (tol/err)^(1/5) step-size update.
_SAFETY = 0.9
_INF = math.inf


def _compile(source: str, filename: str, name: str):
    """The function ``name`` that ``source`` defines, compiled under ``filename``.

    The source is registered with :mod:`linecache` under that pseudo-filename,
    so tracebacks and profiles show its lines.
    """
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace[name]


class Record:
    """The base of the package's records, whose fields are the class's annotations.

    What ``dataclass`` writes for an immutable class, without field metadata: a
    subclass's ``__match_args__`` names its fields, and its ``__init__``,
    compiled once under ``<itmflow.ode record QualName>``, takes them in order,
    a class attribute being a field's default, then calls ``__post_init__`` if
    the class has one.  ``__repr__`` reads ``QualName(field=value!r, ...)``,
    ``__eq__`` compares the field tuples of two instances of one class and
    ``__hash__`` hashes the field tuple.  Setting or deleting an attribute
    raises (``object.__setattr__`` still sets one).
    """

    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", {}))
        params = "".join(f", {f}=cls.{f}" if f in cls.__dict__ else f", {f}" for f in fields)
        source = (f"def make(cls):\n    def __init__(self{params}):\n        d = self.__dict__\n"
                  + "".join(f"        d[{f!r}] = {f}\n" for f in fields)
                  + ("        self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
                  + "    return __init__\n")
        init = _compile(source, f"<itmflow.ode record {cls.__qualname__}>", "make")(cls)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls.__match_args__ = fields

    @classmethod
    def _unchecked(cls, fields):
        """The record whose fields are ``fields``, a dict giving every field a checked value.

        ``__post_init__`` does not run: the package builds such records from
        values it has already checked, as :meth:`Trajectory._from_rows` takes
        rows it made.
        """
        record = cls.__new__(cls)
        record.__dict__.update(fields)
        return record

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __repr__(self):
        values = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{self.__class__.__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive, finite number."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_count(name: str, value, least: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be " + ("positive" if least == 1 else f"at least {least}"))


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


class OdeSystem(Record):
    """First-order system ``dy/deta = rhs(eta, y)`` of fixed dimension.

    ``rhs`` receives a fresh list of ``dim`` Python floats, must return
    exactly ``dim`` floats on every call and must not modify its argument.
    """

    rhs: Callable[[float, list], Sequence[float]]
    dim: int

    def __post_init__(self):
        check_count("system dimension", self.dim)

    def __reduce_ex__(self, protocol):
        # The rhs of a system written as text has no import path: such a
        # system pickles as its text, which gives back the same system.
        text = getattr(self, "_text", None)
        return super().__reduce_ex__(protocol) if text is None else (OdeSystem._from_text, text)

    @classmethod
    @functools.cache
    def _from_text(cls, components: str, expressions: str) -> "OdeSystem":
        """The autonomous system ``(components) -> (expressions)``, its rhs written once.

        ``components`` names the state entries and ``expressions`` gives their
        derivatives, each comma-separated, as float arithmetic over those names
        only.  The one text, kept as the system's ``_text``, makes both the
        callable ``rhs`` and every rhs call of the system's march (see
        :func:`_inline`), so the two do the same float operations.
        """
        names, exprs = _terms((components, expressions))
        words = set(re.findall(r"\b[^\W\d]\w*", expressions))
        if len(exprs) != len(names) or not words <= set(names):
            raise ValueError(f"{expressions!r} are not expressions over {components!r}")
        source = ("def rhs(eta, y):\n"
                  f"    {''.join(name + ', ' for name in names)}= y\n"
                  f"    return [{expressions}]\n")
        rhs = _compile(source, f"<itmflow.ode rhs: {expressions}>", "rhs")
        rhs.__doc__ = f"({components}) -> ({expressions})"
        system = cls(rhs, len(names))
        object.__setattr__(system, "_text", (components, expressions))
        return system


def _terms(text) -> tuple:
    """The component names and the expressions of a ``(components, expressions)`` text."""
    components, expressions = text
    return tuple(re.findall(r"\w+", components)), tuple(map(str.strip, expressions.split(",")))


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


class IvpSpec(Record):
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


class StepControl(Record):
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
            check_positive(name, getattr(self, name))
        if self.min_step > self.initial_step:
            raise ValueError("min_step must not exceed initial_step")
        if self.max_step is not None:
            check_positive("max_step", self.max_step)
            if self.min_step > self.max_step:
                raise ValueError("min_step must not exceed max_step")
        check_count("max_steps", self.max_steps)
        if not (self.stop is None or callable(self.stop)):
            raise ValueError(f"stop must be callable or None, got {self.stop!r}")


class Trajectory(Record):
    """Accepted integration samples, a record like the package's others.

    ``rows`` holds every sample as an ``(eta, *state)`` tuple of floats
    (``np.float64`` states where the rhs returns ndarrays), and ``final_state``
    the last state; an IVP's first eta is its start and its last eta its end.
    ``Trajectory(rows)`` coerces each row to floats; it needs at least two rows
    of one length, with strictly increasing etas.  ``np.array(traj.rows)`` is
    the ``(n, 1 + dim)`` array of the samples: column 0 holds the etas,
    columns ``1:`` the states.
    """

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        try:
            rows = [_float_tuple(row) for row in self.rows]
            if len(set(map(len, rows))) > 1 or not all(rows):
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError("inconsistent trajectory rows") from None
        self._set_rows(rows)

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
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.rows[0]) - 1

    @property
    def final_state(self) -> tuple[float, ...]:
        return self.rows[-1][1:]

    def __len__(self) -> int:
        return len(self.rows)


# The adaptive step-doubling march for one system dimension: from the state y
# with slope k = rhs(eta, y), each attempt over [eta, eta + h] takes a full RK4
# step and two half steps, unrolled.  Each `...` span is repeated for components
# 0 .. dim-1 with @ as the index and joined by ", ", or by the text before a
# leading |: a tuple span only unpacks a sequence (`y0, y1, y2, = y`), and each
# per-component value is its own statement (`f0 = ...; f1 = ...`).  Each rhs
# call's abscissa is a left-to-right sum from eta written in the call, so an
# inlined call, which drops it, leaves no abscissa arithmetic.
# Every float operation keeps the order and grouping of the ndarray form
# y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), of max and min in the step
# update, and of sum in the finiteness gate.  The error ratio is the largest
# component of |two - full| / (abs_tol + rel_tol*|y|); a ratio of at most 1
# accepts the Richardson extrapolation two + (two - full) / 15.  The state
# stays in component locals; each rhs call gets a fresh list, or is written
# out inline (_inline).
_MARCH = """\
def march(rhs, eta, end, h, y, k, abs_tol, rel_tol, min_step, max_step, max_steps, stop):
    `y@`, = y
    r = `k@`, = k
    rows = [(eta, `y@`)]
    attempts = 0
    try:
        while eta < end:
            last = False
            if eta + h >= end:
                h = end - eta
                last = True
            attempts += 1
            if attempts > max_steps:
                raise _step_limit(eta)
            # the full step
            hh = 0.5 * h
            r = `b@`, = rhs(eta + hh, [`y@ + hh * k@`])
            r = `c@`, = rhs(eta + hh, [`y@ + hh * b@`])
            r = `d@`, = rhs(eta + h, [`y@ + h * c@`])
            s = h / 6.0
            `; |f@ = y@ + s * (k@ + 2.0 * b@ + 2.0 * c@ + d@)`
            # the first half step
            q = 0.5 * hh
            r = `b@`, = rhs(eta + q, [`y@ + q * k@`])
            r = `c@`, = rhs(eta + q, [`y@ + q * b@`])
            r = `d@`, = rhs(eta + hh, [`y@ + hh * c@`])
            s = hh / 6.0
            `; |u@ = y@ + s * (k@ + 2.0 * b@ + 2.0 * c@ + d@)`
            # the second half step
            r = `a@`, = rhs(eta + hh, [`u@`])
            r = `b@`, = rhs(eta + hh + q, [`u@ + q * a@`])
            r = `c@`, = rhs(eta + hh + q, [`u@ + q * b@`])
            r = `d@`, = rhs(eta + hh + hh, [`u@ + hh * c@`])
            `; |t@ = u@ + s * (a@ + 2.0 * b@ + 2.0 * c@ + d@)`
            `; |e@ = abs(t@ - f@) / (abs_tol + rel_tol * abs(y@))`
            # A finite sum means finite t and f (a non-finite one gives an inf or NaN
            # term) and no NaN; the ratio is then the max, as no term is negative.
            if ` + |e@` < _INF:
                ratio = 0.0; `; |ratio = e@ if e@ > ratio else ratio`
            else:
                ratio = _nonfinite_ratio(eta, (`e@`,), (`f@`,), (`t@`,))
            if ratio <= 1.0:
                eta = end if last else eta + h
                `; |y@ = t@ + (t@ - f@) / 15.0`
                rows.append((eta, `y@`))
                r = `k@`, = rhs(eta, [`y@`])
                # x - x is 0.0 for a finite x and NaN otherwise; it cannot overflow.
                if ` + |(y@ - y@) + (k@ - k@)` != 0.0:
                    raise _blow_up(eta)
                if stop is not None:
                    stop(eta, [`y@`])
                fac = 5.0 if ratio == 0.0 else _SAFETY * ratio ** -0.2
                h *= 5.0 if fac > 5.0 else fac
                h = max_step if h > max_step else h
                h = min_step if h < min_step else h
            else:
                fac = _SAFETY * ratio ** -0.2
                h *= 0.1 if fac < 0.1 else fac
                if h < min_step:
                    raise StepUnderflowError(
                        f"required step fell below min_step near eta = {eta:.6g}", eta)
    except ValueError as exc:
        # r is the newest rhs result, bound before it is unpacked: one of the
        # system's length means the rhs or stop raised, and that passes on.
        if hasattr(r, "__len__") and len(r) == len(y):
            raise
        raise ValueError(f"rhs returned a result of another length near eta = {eta:.6g}, "
                         f"system dimension is {len(y)}") from exc
    return rows
"""


# A rhs call of the march: r = `X@`, = rhs(at, [`S`]) hands the rhs a fresh
# list of the stage values S and keeps its result in r; _inline drops the r.
_STAGE = re.compile(r"^( *)r = `(\w)@`, = rhs\([^\n\[]*\[`([^`]*)`\]\)$", re.M)


def _inline(source: str, text) -> str:
    """``source``, the march template, with ``text`` written out for each rhs call.

    ``text`` is the ``_text`` of an :meth:`OdeSystem._from_text` system.
    A call becomes the expressions on its stage values, the components renamed
    to ``z0, z1, ...`` bound to those values, or straight to the state locals a
    call passes (``u@``, ``y@``), so no model name meets a march local.
    """
    names, exprs = _terms(text)

    def stage(match):
        indent, target, values = match.groups()
        local, bind = values, ""
        if not re.fullmatch(r"\w+@", values):
            local, bind = "z@", f"{indent}`; |z@ = {values}`\n"
        rename = {name: local.replace("@", str(i)) for i, name in enumerate(names)}
        return bind + indent + "; ".join(
            f"{target}{i} = " + re.sub(r"\w+", lambda m: rename.get(m[0], m[0]), expr)
            for i, expr in enumerate(exprs))

    return _STAGE.sub(stage, source)


@functools.cache
def _march(dim: int, text=None):
    """The adaptive march for a ``dim``-equation system, compiled from ``_MARCH``.

    With the ``text`` of an :meth:`OdeSystem._from_text` the march computes that
    rhs inline and never calls its ``rhs`` argument; with ``None`` it calls it.
    """
    def repeat(span):
        joiner, _, body = span[1].rpartition("|")
        return (joiner or ", ").join(body.replace("@", str(i)) for i in range(dim))

    source = re.sub(r"`([^`]*)`", repeat, _MARCH if text is None else _inline(_MARCH, text))
    label = "" if text is None else ": " + text[1]
    march, zeros = _compile(source, f"<itmflow.ode march dim={dim}{label}>", "march"), (0.0,) * dim
    # CPython 3.11 specializes a function's bytecode from its 8th call on, and
    # a march is called once per IVP: warm it up on empty spans.
    for _ in range(8):
        march(None, 0.0, 0.0, 0.0, zeros, zeros, 0.0, 0.0, 0.0, 0.0, 0, None)
    return march


def _nonfinite_ratio(eta, errs, y_full, y_two):
    """The error ratio when the sum of the components' is not finite.

    Raises :class:`BlowUpError` when a state component is not finite, and a
    plain :class:`IntegrationError` when a component's ratio is NaN (inf/inf
    under an extreme ``rel_tol``); otherwise returns the largest, as ``max``.
    """
    if not (_finite(y_full) and _finite(y_two)):
        raise _blow_up(eta)
    if any(map(math.isnan, errs)):
        raise IntegrationError("error estimate is not a number near eta = "
                               f"{eta:.6g}: abs_tol + rel_tol*|y| overflowed", eta)
    return max(errs)


def _shape(values) -> tuple:
    """The shape of a rhs result, as ``np.shape`` gives it up to two dimensions.

    ``()`` for a number, ``(n,)`` for ``n`` entries without a length, and
    ``(n, m)`` when the first entry that has a length has ``m``.
    """
    try:
        n = len(values)
    except TypeError:
        return ()
    row = next((v for v in values if hasattr(v, "__len__")), None)
    return (n,) if row is None else (n, len(row))


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
    :class:`IntegrationError` when the error estimate is not a number,
    ``ValueError`` when a rhs result does not hold ``dim`` values, or
    whatever ``control.stop`` or the rhs raises.
    """
    control = StepControl() if control is None else control
    rhs, start, end, y = spec.system.rhs, spec.start, spec.end, spec.initial_state
    text = getattr(spec.system, "_text", None)
    max_step = (end - start) / 4.0 if control.max_step is None else control.max_step
    k = rhs(start, list(y))
    if text is None:  # a system written as text returns its dim floats by construction
        shape = _shape(k)
        if shape != (len(y),):
            raise ValueError(f"rhs returned shape {shape}, system dimension is {len(y)}")
    if not _finite(k):
        raise _blow_up(start)
    march = _march(len(y), text)
    rows = march(rhs, start, end, min(control.initial_step, end - start, max_step), y, k,
                 control.abs_tol, control.rel_tol, control.min_step, max_step,
                 control.max_steps, control.stop)
    return Trajectory._from_rows(rows)
