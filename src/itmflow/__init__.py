"""Boundary-layer similarity BVPs on semi-infinite intervals, solved by
scaling-transformation methods.

The Blasius (static plate) problem falls to Topfer's non-iterative
rescaling of a single IVP; the Sakiadis (moving plate) problem, whose
asymptotic condition is scaling-invariant, needs the iterative
transformation method: embed the problem in a scaling family, then drive
the transformation function Gamma(h*) to zero with a secant or Newton
iteration.  Scanning Gamma over a grid doubles as a numerical
existence/uniqueness probe.
"""

from . import models, ode, scan, solver, transform

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.  Read scan's
# before ``from .scan import *`` rebinds ``scan`` from the module to the function.
__all__ = ["__version__"]
__all__ += ode.__all__
__all__ += models.__all__
__all__ += transform.__all__
__all__ += solver.__all__
__all__ += scan.__all__

from .ode import *  # noqa: E402,F403
from .models import *  # noqa: E402,F403
from .transform import *  # noqa: E402,F403
from .solver import *  # noqa: E402,F403
from .scan import *  # noqa: E402,F403
