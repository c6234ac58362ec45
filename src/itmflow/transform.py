"""Scaling-group algebra linking starred IVP solutions to the original flows.

The extended group ``f* = lam f, eta* = eta / lam, h* = lam^4 h`` leaves the
similarity equation invariant.  Its parameter is read off the computed far
field, and the transformation function ``Gamma(h*) = h* / lam^4 - 1`` marks
(through its zero) the group member that maps back to the original problem.
"""

import math
from dataclasses import dataclass

from .ode import IntegrationError, Trajectory

__all__ = [
    "DegenerateFarFieldError", "GammaEvaluation", "rescale_trajectory", "topfer_reduce",
]


class DegenerateFarFieldError(IntegrationError):
    """``far_slope + sqrt(h*)`` was not a positive finite number.

    This is the algebraic signature of a diverged IVP (or an invalid h*):
    the group parameter would not be real.  A sign -1 probe raises it at the
    first sample where f' + sqrt(h*) <= 0, with ``eta`` locating that sample.
    """


@dataclass(frozen=True)
class GammaEvaluation:
    """One evaluation of the transformation function at ``h_star``.

    Always built through :meth:`from_far_field`, so
    ``lam**2 == far_slope + sqrt(h_star)`` and
    ``gamma == h_star * lam**-4 - 1`` hold by construction.  Given the
    h*-sensitivity ``u5`` of the far slope, ``dgamma_dh`` is, with
    ``t = far_slope + sqrt(h*)``,
    ``t^-2 (1 - 2 (u5 + 1/(2 sqrt(h*))) h* / t)``.
    """

    h_star: float
    far_slope: float
    lam: float
    gamma: float
    dgamma_dh: float | None = None

    @classmethod
    def from_far_field(cls, h_star: float, far_slope: float,
                       far_slope_sensitivity: float | None = None):
        if not float(h_star) > 0:
            raise ValueError(f"h* must be positive, got {h_star}")
        radicand = far_slope + math.sqrt(h_star)
        if not math.isfinite(radicand) or radicand <= 0:
            raise DegenerateFarFieldError(
                f"far_slope + sqrt(h*) = {radicand:.6g} is not positive; "
                "the starred IVP diverged or h* is invalid"
            )
        lam = math.sqrt(radicand)
        value = h_star / lam ** 4 - 1.0
        deriv = None
        if far_slope_sensitivity is not None:
            t = lam * lam
            inner = 1.0 - 2.0 * (far_slope_sensitivity + 0.5 / math.sqrt(h_star)) * h_star / t
            deriv = inner / (t * t)
        return cls(h_star=float(h_star), far_slope=float(far_slope),
                   lam=lam, gamma=value, dgamma_dh=deriv)


def rescale_trajectory(lam: float, star_traj: Trajectory) -> Trajectory:
    """Map a starred (f, f', f'') trajectory back through the group.

    Each sample ``(eta*, f*, f*', f*'')`` becomes
    ``(lam eta*, f*/lam, f*'/lam^2, f*''/lam^3)``: one correctly rounded
    product per entry, as the ndarray broadcast gives.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"group parameter must be positive and finite, got {lam}")
    if star_traj.dim != 3:
        raise ValueError(f"rescaling expects a 3-component trajectory, got dim {star_traj.dim}")
    s1, s2, s3 = lam ** -1, lam ** -2, lam ** -3
    return Trajectory._from_rows([(lam * eta, f * s1, fp * s2, fpp * s3)
                                  for eta, f, fp, fpp in star_traj.rows()])


def topfer_reduce(far_slope: float) -> tuple[float, float]:
    """Blasius non-iterative reduction of the starred far slope.

    Returns ``(lam, wall_shear)`` with ``lam = far_slope**-0.5`` and
    ``wall_shear = far_slope**-1.5`` (the rescaled f''(0) for unit starred
    curvature).  Raises ``ValueError`` unless the far slope is positive,
    finite and above about 3.14e-206, below which ``far_slope**-1.5`` overflows.
    """
    if not (far_slope > 0 and math.isfinite(far_slope)):
        raise ValueError(f"far slope must be positive and finite, got {far_slope}")
    try:
        return far_slope ** -0.5, far_slope ** -1.5
    except OverflowError:
        raise ValueError(f"far slope {far_slope:.6g} is too small: far_slope**-1.5 overflows") from None
