"""Scaling-group algebra linking starred IVP solutions to the original flows.

The extended group ``f* = lam f, eta* = eta / lam, h* = lam^4 h`` leaves the
similarity equation invariant.  Its parameter is read off the computed far
field, and the transformation function ``Gamma(h*) = h* / lam^4 - 1`` marks
(through its zero) the group member that maps back to the original problem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ode import Trajectory

__all__ = [
    "DegenerateFarFieldError", "ExtendedGroup",
    "GammaEvaluation", "lambda_from_far_field", "gamma", "gamma_derivative",
    "rescale_missing_ic", "rescale_trajectory", "topfer_reduce",
]


class DegenerateFarFieldError(ValueError):
    """``far_slope + sqrt(h*)`` was not a positive finite number.

    This is the algebraic signature of a diverged IVP (or an invalid h*):
    the group parameter would not be real.
    """


@dataclass(frozen=True)
class ExtendedGroup:
    """Parameter of the extended scaling group; must be positive."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"group parameter must be positive, got {self.lam}")


def lambda_from_far_field(far_slope: float, h_star: float) -> float:
    """Group parameter ``lam = sqrt(far_slope + sqrt(h*))``."""
    h = float(h_star)
    if not h > 0:
        raise ValueError(f"h* must be positive, got {h_star}")
    radicand = far_slope + math.sqrt(h)
    if not math.isfinite(radicand) or radicand <= 0:
        raise DegenerateFarFieldError(
            f"far_slope + sqrt(h*) = {radicand:.6g} is not positive; "
            "the starred IVP diverged or h* is invalid"
        )
    return math.sqrt(radicand)


def gamma(h_star: float, far_slope: float) -> float:
    """Transformation function ``Gamma = h* / lam^4 - 1``."""
    lam = lambda_from_far_field(far_slope, h_star)
    return h_star / lam ** 4 - 1.0


def gamma_derivative(h_star: float, far_slope: float,
                     far_slope_sensitivity: float) -> float:
    """d(Gamma)/dh* from the far slope and its h*-sensitivity.

    With ``t = far_slope + sqrt(h*)``:
    ``t^-2 (1 - 2 (u5 + 1/(2 sqrt(h*))) h* / t)``.
    """
    lam = lambda_from_far_field(far_slope, h_star)
    t = lam * lam
    inner = 1.0 - 2.0 * (far_slope_sensitivity + 0.5 / math.sqrt(h_star)) * h_star / t
    return inner / (t * t)


@dataclass(frozen=True)
class GammaEvaluation:
    """One evaluation of the transformation function at ``h_star``.

    Always built through :func:`lambda_from_far_field`, so
    ``lam**2 == far_slope + sqrt(h_star)`` and
    ``gamma == h_star * lam**-4 - 1`` hold by construction.
    """

    h_star: float
    far_slope: float
    lam: float
    gamma: float
    dgamma_dh: float | None = None

    @classmethod
    def from_far_field(cls, h_star: float, far_slope: float,
                       far_slope_sensitivity: float | None = None):
        lam = lambda_from_far_field(far_slope, h_star)
        value = h_star / lam ** 4 - 1.0
        deriv = None
        if far_slope_sensitivity is not None:
            deriv = gamma_derivative(h_star, far_slope, far_slope_sensitivity)
        return cls(h_star=float(h_star), far_slope=float(far_slope),
                   lam=lam, gamma=value, dgamma_dh=deriv)


def rescale_missing_ic(group: ExtendedGroup, star_curvature: float) -> float:
    """Missing initial curvature of the original problem: ``lam^-3 f*''(0)``."""
    return star_curvature / group.lam ** 3


def rescale_trajectory(group: ExtendedGroup, star_traj: Trajectory) -> Trajectory:
    """Map a starred (f, f', f'') trajectory back through the group.

    Each sample ``(eta*, f*, f*', f*'')`` becomes
    ``(lam eta*, f*/lam, f*'/lam^2, f*''/lam^3)``; the stored right-hand
    sides pick up one further power of ``lam`` because the abscissa is
    stretched by it.
    """
    if star_traj.dim != 3:
        raise ValueError(f"rescaling expects a 3-component trajectory, got dim {star_traj.dim}")
    lam = group.lam
    state_scale = np.array([lam ** -1, lam ** -2, lam ** -3])
    deriv_scale = state_scale / lam
    return Trajectory(
        lam * star_traj.etas,
        star_traj.states * state_scale,
        star_traj.derivs * deriv_scale,
    )


def topfer_reduce(far_slope: float) -> tuple[float, float]:
    """Blasius non-iterative reduction of the starred far slope.

    Returns ``(lam, wall_shear)`` with ``lam = far_slope**-0.5`` and
    ``wall_shear = far_slope**-1.5`` (the rescaled f''(0) for unit starred
    curvature).
    """
    if not far_slope > 0:
        raise ValueError(f"far slope must be positive, got {far_slope}")
    return far_slope ** -0.5, far_slope ** -1.5
