"""Sweep the transformation function over an h* grid and judge its zeros.

A sign change of Gamma between neighbouring grid points brackets a root;
the number of brackets is a numerical existence/uniqueness probe for the
underlying boundary value problem.  Probes that diverge are recorded as
failed samples rather than aborting the sweep; one whose far field is
certified degenerate (lam^2 <= 0) still counts as Gamma = +inf in brackets.
"""

import math

from .ode import IntegrationError, Record, StepControl, check_count, check_positive
from .solver import ItmConfig, evaluate_gamma_at
from .transform import DegenerateFarFieldError

__all__ = [
    "ScanGrid", "ScanSample", "ScanReport", "ScanFailedError",
    "NO_ZERO", "UNIQUE_ZERO", "MULTIPLE_ZEROS", "INCONCLUSIVE",
    "scan",
]

NO_ZERO = "no_zero"
UNIQUE_ZERO = "unique_zero"
MULTIPLE_ZEROS = "multiple_zeros"
INCONCLUSIVE = "inconclusive"


class ScanFailedError(IntegrationError):
    """Every grid point failed to produce a Gamma value or a certificate."""


class ScanGrid(Record):
    """Non-decreasing grid of positive h* values from exactly ``h_min`` to ``h_max``.

    A span of a few ulps repeats points, as ``np.linspace`` does.
    """

    h_min: float
    h_max: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        check_positive("h_min", self.h_min)
        if not (self.h_max > self.h_min and math.isfinite(self.h_max)):
            raise ValueError("h_max must be finite and exceed h_min")
        check_count("count", self.count, least=2)
        if self.spacing not in ("linear", "logarithmic"):
            raise ValueError(f"spacing must be 'linear' or 'logarithmic', got {self.spacing!r}")

    def points(self) -> list[float]:
        h_min, h_max = float(self.h_min), float(self.h_max)
        log = self.spacing == "logarithmic"
        lo, hi = (math.log10(h_min), math.log10(h_max)) if log else (h_min, h_max)
        # np.linspace's arithmetic, bit for bit, on h* or on log10(h*): lo + i * step,
        # and (i / div) * delta when the step underflows.
        div = self.count - 1
        delta = hi - lo
        step = delta / div
        if step == 0.0:
            inner = [lo + i / div * delta for i in range(1, div)]
        else:
            inner = [lo + i * step for i in range(1, div)]
        if log:
            # 10.0 ** y may round past an end, and 10.0 ** hi may overflow.
            inner = [min(max(10.0 ** y, h_min), h_max) if y < hi else h_max for y in inner]
        return [h_min, *inner, h_max]


class ScanSample(Record):
    """One probe; ``gamma`` and ``lam`` are NaN when ``failed``."""

    h_star: float
    gamma: float
    lam: float
    failed: bool


class ScanReport(Record):
    """A scan's samples in grid order, the (lo, hi) brackets of its sign changes and its verdict."""

    samples: list[ScanSample]
    brackets: list[tuple[float, float]]
    verdict: str


def _brackets_of(signed: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    for (ha, ga), (hb, gb) in zip(signed, signed[1:]):
        if ga == 0.0:
            out.append((ha, ha))
        elif ga * gb < 0.0:
            out.append((ha, hb))
    if signed and signed[-1][1] == 0.0:
        out.append((signed[-1][0], signed[-1][0]))
    return out


def _verdict_of(samples, brackets) -> str:
    if not brackets:
        return NO_ZERO
    lo_edge = samples[0].h_star
    hi_edge = samples[-1].h_star
    for lo, hi in brackets:
        if lo == lo_edge or hi == hi_edge:
            return INCONCLUSIVE
        for s in samples:
            if s.failed and lo < s.h_star < hi:
                return INCONCLUSIVE
    return UNIQUE_ZERO if len(brackets) == 1 else MULTIPLE_ZEROS


def scan(grid: ScanGrid, sign: int, eta_inf_star: float = 10.0,
         step_control: StepControl | None = None) -> ScanReport:
    """Probe Gamma over the grid from ``h_max`` down and classify the sign changes.

    Each probe integrates the starred IVP with initial curvature ``sign``
    to the truncated boundary ``eta_inf_star`` under ``step_control``
    (default :class:`StepControl()`).  The verdict is ``unique_zero`` for
    exactly one bracket with no failed probe inside it, ``no_zero`` /
    ``multiple_zeros`` by bracket count, and ``inconclusive`` when a
    bracket touches a grid edge or contains a failed probe.  A probe fails by
    raising an :class:`IntegrationError`; a :class:`DegenerateFarFieldError`
    certifies Gamma = +inf there, and such a probe ends brackets like a
    positive Gamma.  On the sign -1 branch the certificate is monotone in
    h*: for a = sqrt(h*) > b, the starred solutions F_a and F_b differ by
    D = F_a - F_b with D(0) = 0, D'(0) = a - b and
    D'' = exp(-int F_b / 2) - exp(-int F_a / 2) >= 0 while D >= 0, so
    F_a' + a >= F_b' + b + 2 (a - b) at every eta and a certificate at a
    is one at b.  Every grid point below a certified probe is therefore
    recorded as certified without a march, and the caller's
    ``step_control.stop`` runs on marched probes only.  An exception that
    is not an :class:`IntegrationError` propagates from the highest probe
    that raises it.  If no probe gives a Gamma value or a certificate,
    :class:`ScanFailedError` is raised.
    """
    config = ItmConfig(sign=sign, eta_inf_star=eta_inf_star,
                       step_control=StepControl() if step_control is None else step_control)
    points = grid.points()
    # Both lists run from h_max down until they are reversed below.
    samples = []
    signed = []  # (h*, Gamma) of every probe with a Gamma value or a certified +inf
    for i in range(len(points) - 1, -1, -1):
        h = points[i]
        try:
            evaluation = evaluate_gamma_at(h, config)
            samples.append(ScanSample(h, evaluation.gamma, evaluation.lam, False))
            signed.append((h, evaluation.gamma))
        except IntegrationError as exc:
            samples.append(ScanSample(h, math.nan, math.nan, True))
            if isinstance(exc, DegenerateFarFieldError):
                signed.append((h, math.inf))
                if config.sign == -1:  # every lower grid point is certified too
                    below = points[:i][::-1]
                    samples += [ScanSample(b, math.nan, math.nan, True) for b in below]
                    signed += [(b, math.inf) for b in below]
                    break
    samples.reverse()
    signed.reverse()
    if not signed:
        raise ScanFailedError(
            f"every probe failed on [{grid.h_min:.6g}, {grid.h_max:.6g}] with sign {sign:+g}"
        )
    brackets = _brackets_of(signed)
    return ScanReport(samples=samples, brackets=brackets,
                      verdict=_verdict_of(samples, brackets))
