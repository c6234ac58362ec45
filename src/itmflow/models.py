"""Right-hand sides and initial conditions for the similarity flows.

The Blasius and Sakiadis flows obey the same reduced equation
``f''' + f f''/2 = 0``; they differ only in boundary conditions, so a single
3-dimensional right-hand side serves both.  The 6-dimensional augmented
system appends the derivatives of the state with respect to the shooting
parameter h*, which Newton's root-finder needs.
"""

import math

from .ode import OdeSystem

__all__ = [
    "SIMILARITY_SYSTEM", "AUGMENTED_SYSTEM",
    "blasius_star_ic", "sakiadis_star_ic", "augmented_ic",
]

VALID_SIGNS = (1, -1)


def _similarity_rhs(eta, y):
    """(f, f', f'') -> (f', f'', -f f''/2)."""
    f, fp, fpp = y
    return [fp, fpp, -0.5 * f * fpp]


def _augmented_rhs(eta, y):
    """(u1..u6) -> (u2, u3, -u1 u3/2, u5, u6, -(u4 u3 + u1 u6)/2)."""
    u1, u2, u3, u4, u5, u6 = y
    return [u2, u3, -0.5 * u1 * u3, u5, u6, -0.5 * (u4 * u3 + u1 * u6)]


SIMILARITY_SYSTEM = OdeSystem(rhs=_similarity_rhs, dim=3)
AUGMENTED_SYSTEM = OdeSystem(rhs=_augmented_rhs, dim=6)


def blasius_star_ic() -> tuple[float, ...]:
    """Unit-curvature Blasius start: (0, 0, 1)."""
    return (0.0, 0.0, 1.0)


def _check_h_star(h_star: float) -> float:
    h = float(h_star)
    if not h > 0:
        raise ValueError(f"h* must be positive, got {h_star}")
    return h


def sakiadis_star_ic(h_star: float, sign: int = -1) -> tuple[float, ...]:
    """Sakiadis starred start: (0, sqrt(h*), sign) with sign = +-1."""
    h = _check_h_star(h_star)
    if sign not in VALID_SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return (0.0, math.sqrt(h), float(sign))


def augmented_ic(h_star: float) -> tuple[float, ...]:
    """Augmented start: (0, sqrt(h*), -1, 0, 1/(2 sqrt(h*)), 0).

    The curvature is pinned to -1: Newton mode only makes sense on the
    branch where the transformation function has its zero.
    """
    h = _check_h_star(h_star)
    root = math.sqrt(h)
    return (0.0, root, -1.0, 0.0, 0.5 / root, 0.0)
