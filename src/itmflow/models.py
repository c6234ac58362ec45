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


# Each right-hand side is written once, as text: the march computes it inline
# and the callable ``rhs`` compiles the same expressions.
# (f, f', f'') -> (f', f'', -f f''/2)
SIMILARITY_SYSTEM = OdeSystem._from_text("f, fp, fpp", "fp, fpp, -0.5 * f * fpp")
# (u1..u6) -> (u2, u3, -u1 u3/2, u5, u6, -(u4 u3 + u1 u6)/2)
AUGMENTED_SYSTEM = OdeSystem._from_text(
    "u1, u2, u3, u4, u5, u6", "u2, u3, -0.5 * u1 * u3, u5, u6, -0.5 * (u4 * u3 + u1 * u6)")


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
    """Augmented start: (0, sqrt(h*), -1, 0, 1/(2 sqrt(h*)), 0).

    The curvature is pinned to -1: Newton mode only makes sense on the
    branch where the transformation function has its zero.
    """
    check_positive("h*", h_star)
    root = math.sqrt(h_star)
    return (0.0, root, -1.0, 0.0, 0.5 / root, 0.0)
