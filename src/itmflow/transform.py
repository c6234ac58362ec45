"""Scaling-group algebra linking starred IVP solutions to the original flows.

The extended group ``f* = lam f, eta* = eta / lam, h* = lam^4 h`` leaves the
similarity equation invariant.  Its parameter is read off the computed far
field, and the transformation function ``Gamma(h*) = h* / lam^4 - 1`` marks
(through its zero) the group member that maps back to the original problem.
"""

import math

from .ode import IntegrationError, Record, Trajectory, check_positive

__all__ = [
    "DegenerateFarFieldError", "GammaEvaluation", "rescale_trajectory",
]


class DegenerateFarFieldError(IntegrationError):
    """``far_slope + sqrt(h*)`` was not a positive finite number.

    As h* is checked positive and finite, this is the algebraic signature of a
    diverged IVP: the group parameter would not be real.  A sign -1 probe
    raises it at the first sample where f' + sqrt(h*) <= 0, with ``eta``
    locating that sample.
    """


class GammaEvaluation(Record):
    """One evaluation of the transformation function at ``h_star``.

    Always built through :meth:`from_far_field`, so
    ``lam**2 == far_slope + sqrt(h_star)`` and
    ``gamma == h_star * lam**-4 - 1`` hold by construction.  Given the
    h*-sensitivity ``dfp`` of the far slope, ``dgamma_dh`` is, with
    ``t = far_slope + sqrt(h*)``,
    ``t^-2 (1 - 2 (dfp + 1/(2 sqrt(h*))) h* / t)``.
    """

    h_star: float
    far_slope: float
    lam: float
    gamma: float
    dgamma_dh: float | None = None

    @classmethod
    def from_far_field(cls, h_star: float, far_slope: float,
                       far_slope_sensitivity: float | None = None):
        check_positive("h*", h_star)
        radicand = far_slope + math.sqrt(h_star)
        if not math.isfinite(radicand) or radicand <= 0:
            raise DegenerateFarFieldError(
                f"far_slope + sqrt(h*) = {radicand:.6g} is not positive; the starred IVP diverged"
            )
        lam = math.sqrt(radicand)
        value = h_star / lam ** 4 - 1.0
        deriv = None
        if far_slope_sensitivity is not None:
            t = lam * lam
            inner = 1.0 - 2.0 * (far_slope_sensitivity + 0.5 / math.sqrt(h_star)) * h_star / t
            deriv = inner / (t * t)
        return cls(float(h_star), float(far_slope), lam, value, deriv)


def rescale_trajectory(lam: float, star_traj: Trajectory) -> Trajectory:
    """Map a starred (f, f', f'') trajectory back through the group.

    Each sample ``(eta*, f*, f*', f*'')`` becomes
    ``(lam eta*, f*/lam, f*'/lam^2, f*''/lam^3)``: one correctly rounded
    product per entry, as the ndarray broadcast gives.  This is the one
    starred -> original map: every f''(0) a solve reports is the first row's.
    Raises ``ValueError`` unless ``lam`` is positive, finite and at least
    about 1.78e-103, below which ``lam**-3`` overflows.
    """
    check_positive("group parameter", lam)
    if star_traj.dim != 3:
        raise ValueError(f"rescaling expects a 3-component trajectory, got dim {star_traj.dim}")
    try:
        s1, s2, s3 = lam ** -1, lam ** -2, lam ** -3
    except OverflowError:
        raise ValueError(f"group parameter {lam:.6g} is too small: lam**-3 overflows") from None
    return Trajectory._from_rows([(lam * eta, f * s1, fp * s2, fpp * s3)
                                  for eta, f, fp, fpp in star_traj.rows])
