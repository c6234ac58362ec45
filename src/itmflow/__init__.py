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

from .models import (AUGMENTED_SYSTEM, SIMILARITY_SYSTEM, augmented_ic,
                     blasius_star_ic, sakiadis_star_ic)
from .ode import (BACKEND, BlowUpError, IntegrationError, IvpSpec, OdeSystem,
                  StepControl, StepLimitError, StepUnderflowError, Trajectory,
                  integrate_adaptive)
from .scan import (ScanFailedError, ScanGrid, ScanReport, ScanSample,
                   export_scan, scan)
from .solver import (ItmConfig, ItmIterate, ItmResult,
                     RootFinderBreakdownError, TopferAgreementError,
                     TopferResult, evaluate_gamma_at,
                     evaluate_gamma_with_derivative, solve_blasius_topfer,
                     solve_sakiadis)
from .transform import (DegenerateFarFieldError, GammaEvaluation,
                        rescale_trajectory, topfer_reduce)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "__version__",
    # ode
    "OdeSystem", "IvpSpec", "StepControl", "Trajectory",
    "IntegrationError", "BlowUpError", "StepUnderflowError", "StepLimitError",
    "integrate_adaptive",
    # models
    "SIMILARITY_SYSTEM", "AUGMENTED_SYSTEM",
    "blasius_star_ic", "sakiadis_star_ic", "augmented_ic",
    # transform
    "GammaEvaluation", "DegenerateFarFieldError", "rescale_trajectory", "topfer_reduce",
    # solver
    "ItmConfig", "ItmIterate", "ItmResult", "TopferResult",
    "RootFinderBreakdownError", "TopferAgreementError",
    "evaluate_gamma_at", "evaluate_gamma_with_derivative",
    "solve_sakiadis", "solve_blasius_topfer",
    # scan
    "ScanGrid", "ScanSample", "ScanReport", "ScanFailedError",
    "scan", "export_scan",
]
