"""Right-hand sides and initial conditions for the similarity flows.

The Blasius and Sakiadis flows obey the same reduced equation
``f''' + f f''/2 = 0``; they differ only in boundary conditions, so a single
3-dimensional right-hand side serves both.  The 6-dimensional augmented
system appends the derivatives of the state with respect to the shooting
parameter h*, which Newton's root-finder needs.
"""

import math

from .ode import OdeSystem, check_positive

__all__ = [
    "SIMILARITY_SYSTEM", "AUGMENTED_SYSTEM",
    "blasius_star_ic", "sakiadis_star_ic", "augmented_ic",
]

VALID_SIGNS = (1, -1)


# The model is written once, as text: the march computes it inline and the
# callable ``rhs`` compiles the same expressions.
_SIMILARITY = ("f, fp, fpp", "fp, fpp, -0.5 * f * fpp")
SIMILARITY_SYSTEM = OdeSystem._from_text(*_SIMILARITY)
# The same text with its h*-tangent (df, df', df'') appended.
AUGMENTED_SYSTEM = OdeSystem._from_text(
    _SIMILARITY[0] + ", df, dfp, dfpp",
    _SIMILARITY[1] + ", dfp, dfpp, -0.5 * (df * fpp + f * dfpp)")


def blasius_star_ic() -> tuple[float, ...]:
    """Unit-curvature Blasius start: (0, 0, 1)."""
    return (0.0, 0.0, 1.0)


def sakiadis_star_ic(h_star: float, sign: int = -1) -> tuple[float, ...]:
    """Sakiadis starred start: (0, sqrt(h*), sign) with sign = +-1."""
    check_positive("h*", h_star)
    if sign not in VALID_SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return (0.0, math.sqrt(h_star), float(sign))


def augmented_ic(h_star: float) -> tuple[float, ...]:
    """The sign -1 Sakiadis start with its h*-tangent (0, 1/(2 sqrt(h*)), 0).

    The curvature is pinned to -1: Newton mode only makes sense on the
    branch where the transformation function has its zero.
    """
    start = sakiadis_star_ic(h_star)
    return start + (0.0, 0.5 / start[1], 0.0)
