"""Solution drivers: the iterative transformation method and Topfer's reduction.

``solve_sakiadis`` hunts the zero of the transformation function with a
secant or Newton iteration, each probe costing one starred IVP solve (the
Newton probe integrates the 6-equation augmented system to get an exact
derivative).  ``solve_blasius_topfer`` needs no iteration at all: one IVP
solve plus a far-field agreement check across truncated boundaries.
"""

import math
import operator
from dataclasses import dataclass, field, replace

from .models import (AUGMENTED_SYSTEM, SIMILARITY_SYSTEM, VALID_SIGNS,
                     augmented_ic, blasius_star_ic, sakiadis_star_ic)
from .ode import IvpSpec, StepControl, Trajectory, integrate_adaptive
from .transform import DegenerateFarFieldError, GammaEvaluation, rescale_trajectory, topfer_reduce

__all__ = [
    "SECANT", "NEWTON", "ItmConfig", "ItmIterate", "ItmResult", "TopferResult",
    "RootFinderBreakdownError", "TopferAgreementError",
    "evaluate_gamma_at", "evaluate_gamma_with_derivative",
    "solve_sakiadis", "solve_blasius_topfer",
]

SECANT = "secant"
NEWTON = "newton"

_MIN_DERIVATIVE = 1e-14


class RootFinderBreakdownError(RuntimeError):
    """The secant secured no slope (equal Gamma values) or Newton's derivative vanished."""


class TopferAgreementError(RuntimeError):
    """No pair of subsequent truncated-boundary parameters agreed."""

    def __init__(self, message: str, lambda_checks):
        super().__init__(message)
        self.lambda_checks = list(lambda_checks)


@dataclass(frozen=True)
class ItmConfig:
    """Configuration for the iterative transformation method.

    Secant mode consumes both seeds ``h0`` and ``h1``; Newton mode starts
    from ``h0`` alone and requires the negative-curvature branch.
    ``max_iterations`` caps the total number of Gamma evaluations, except
    that secant always evaluates both seeds (``max_iterations=1`` gives 2).
    """

    root_finder: str = SECANT
    h0: float = 2.5
    h1: float | None = 3.5
    sign: int = -1
    eta_inf_star: float = 10.0
    gamma_tol: float = 1e-9
    max_iterations: int = 50
    step_control: StepControl = field(default_factory=StepControl)

    def __post_init__(self):
        if self.root_finder not in (SECANT, NEWTON):
            raise ValueError(f"root_finder must be {SECANT!r} or {NEWTON!r}, got {self.root_finder!r}")
        if not (self.h0 > 0 and math.isfinite(self.h0)):
            raise ValueError(f"h0 must be positive and finite, got {self.h0}")
        if self.sign not in VALID_SIGNS:
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.root_finder == SECANT:
            if self.h1 is None:
                raise ValueError("secant mode needs a second seed h1")
            if not (self.h1 > 0 and math.isfinite(self.h1)):
                raise ValueError(f"h1 must be positive and finite, got {self.h1}")
            if self.h1 == self.h0:
                raise ValueError("secant seeds h0 and h1 must differ")
        if self.root_finder == NEWTON and self.sign != -1:
            raise ValueError("newton mode requires sign = -1 (no zero exists on the +1 branch)")
        if not (self.eta_inf_star > 0 and math.isfinite(self.eta_inf_star)):
            raise ValueError(f"eta_inf_star must be positive and finite, got {self.eta_inf_star}")
        if not (self.gamma_tol > 0 and math.isfinite(self.gamma_tol)):
            raise ValueError(f"gamma_tol must be positive and finite, got {self.gamma_tol}")
        try:
            operator.index(self.max_iterations)
        except TypeError:
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}") from None
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class ItmIterate:
    """One root-finder row: iterate index, h*, group parameter, Gamma, rescaled f''(0).

    A probe certified below the root (lam^2 <= 0) has ``gamma = inf`` and NaN
    ``lam`` and ``wall_shear``.
    """

    j: int
    h_star: float
    lam: float
    gamma: float
    wall_shear: float


@dataclass
class ItmResult:
    """Outcome of an ITM solve; final fields are ``None`` when not converged."""

    iterates: list[ItmIterate]
    converged: bool
    final_h_star: float | None = None
    final_lambda: float | None = None
    final_wall_shear: float | None = None
    rescaled_solution: Trajectory | None = None

    @property
    def gamma_evaluations(self) -> int:
        return len(self.iterates)


@dataclass
class TopferResult:
    """Topfer reduction outcome: per-boundary parameters and the accepted values."""

    lambda_checks: list[tuple[float, float]]
    accepted_eta: float
    accepted_lambda: float
    wall_shear: float
    rescaled_solution: Trajectory


def _evaluate(h_star, sign, eta_inf_star, control, with_derivative):
    """One probe of the transformation function.

    Integrates the starred IVP (the 6-equation augmented system when
    ``with_derivative``) to the truncated boundary and reads the far field;
    returns the evaluation together with the raw starred trajectory.
    Every failed probe raises an :class:`IntegrationError`.  On the sign -1
    branch f' decreases, so the march stops with a
    :class:`DegenerateFarFieldError` at the first accepted sample where
    ``f' + sqrt(h*) <= 0``: lam^2 <= 0 at the boundary is then certain.
    """
    if with_derivative:
        initial, system = augmented_ic(h_star), AUGMENTED_SYSTEM
    else:
        initial, system = sakiadis_star_ic(h_star, sign), SIMILARITY_SYSTEM
    if sign == -1:
        root = initial[1]

        def certify(eta, y):
            if y[1] + root <= 0.0:
                raise DegenerateFarFieldError(
                    f"f' + sqrt(h*) = {y[1] + root:.6g} is not positive at eta = {eta:.6g}; "
                    "lam^2 <= 0 at the truncated boundary", eta)

        control = replace(control, stop=certify)
    traj = integrate_adaptive(IvpSpec(0.0, eta_inf_star, initial, system), control)
    far = traj.final_state
    sensitivity = far[4] if with_derivative else None
    return GammaEvaluation.from_far_field(h_star, far[1], sensitivity), traj


def evaluate_gamma_at(h_star: float, config: ItmConfig | None = None) -> GammaEvaluation:
    """Gamma and lambda at ``h_star`` from one 3-equation starred IVP solve."""
    config = ItmConfig() if config is None else config
    evaluation, _ = _evaluate(h_star, config.sign, config.eta_inf_star,
                              config.step_control, False)
    return evaluation


def evaluate_gamma_with_derivative(h_star: float,
                                   config: ItmConfig | None = None) -> GammaEvaluation:
    """Gamma, lambda and dGamma/dh* from one 6-equation augmented IVP solve."""
    config = ItmConfig() if config is None else config
    if config.sign != -1:
        raise ValueError("the augmented system is defined on the sign = -1 branch only")
    evaluation, _ = _evaluate(h_star, -1, config.eta_inf_star,
                              config.step_control, True)
    return evaluation


def solve_sakiadis(config: ItmConfig | None = None) -> ItmResult:
    """Solve the Sakiadis problem by the iterative transformation method.

    Every Gamma evaluation is recorded as an :class:`ItmIterate` (including
    the seeds), mirroring the iteration tables the method produces.
    Convergence is ``|Gamma| <= gamma_tol``, and the result is that of the
    newest probe within it: when both secant seeds converge, the second one.
    Only that probe's starred trajectory is kept.  A probe with a certified
    degenerate far field counts as Gamma = +inf.  Once both signs occur they
    bracket the root, and a secant or Newton step that leaves the bracket is
    replaced by an Illinois step (bisection next to a certified end).
    Before that, an unusable step doubles h* after a positive Gamma and
    halves it after a negative one.  When the iteration budget runs out, or
    a sign +1 probe after the seeds has Gamma <= -3/4 (f'' > 0 gives
    lam^4 > 4 h*: no root), the result carries ``converged=False``.

    Raises :class:`RootFinderBreakdownError` on a flat secant or a vanishing
    Newton derivative with no bracket, and propagates every other failed
    probe as an :class:`IntegrationError`.
    """
    config = ItmConfig() if config is None else config
    newton = config.root_finder == NEWTON
    iterates: list[ItmIterate] = []
    ends = {}  # Gamma > 0 -> [h*, Illinois weight] of the newest probe with that sign
    # (iterate, starred trajectory) of the newest probe within gamma_tol; the newest dGamma/dh*
    converged = slope = None

    def probe(h_star):
        nonlocal converged, slope
        try:
            evaluation, traj = _evaluate(h_star, config.sign, config.eta_inf_star,
                                         config.step_control, newton)
            lam, gamma, slope = evaluation.lam, evaluation.gamma, evaluation.dgamma_dh
        except DegenerateFarFieldError:
            lam, gamma = math.nan, math.inf
        # The missing initial curvature maps back as lam^-3 f*''(0).
        iterates.append(ItmIterate(j=len(iterates), h_star=float(h_star), lam=lam,
                                   gamma=gamma, wall_shear=float(config.sign) / lam ** 3))
        side = gamma > 0.0
        if len(iterates) > 1 and (iterates[-2].gamma > 0.0) == side and (not side) in ends:
            ends[not side][1] *= 0.5  # Illinois: an end kept twice running has its weight halved
        ends[side] = [float(h_star), gamma]
        if abs(gamma) <= config.gamma_tol:
            converged = iterates[-1], traj

    probe(config.h0)
    if not newton:
        probe(config.h1)
    while converged is None:
        cur = iterates[-1]
        if len(iterates) >= config.max_iterations or (config.sign == 1 and cur.gamma <= -0.75):
            return ItmResult(iterates=iterates, converged=False)
        bracket = sorted(ends.values()) if len(ends) == 2 else None
        h_next = math.nan
        # A certified probe (NaN lam) gives no step to take.
        if newton and not math.isnan(cur.lam):
            if abs(slope) >= _MIN_DERIVATIVE:
                h_next = cur.h_star - cur.gamma / slope
            elif bracket is None:
                raise RootFinderBreakdownError(
                    f"newton breakdown: |dGamma/dh*| = {abs(slope):.3g} at "
                    f"h* = {cur.h_star:.6g}"
                )
        elif not newton and not any(math.isnan(it.lam) for it in iterates[-2:]):
            prev = iterates[-2]
            if cur.gamma != prev.gamma:
                h_next = cur.h_star - cur.gamma * (cur.h_star - prev.h_star) \
                    / (cur.gamma - prev.gamma)
            elif bracket is None:
                raise RootFinderBreakdownError(
                    f"secant breakdown: Gamma({prev.h_star:.6g}) == Gamma({cur.h_star:.6g})"
                )
        if bracket is not None:
            (a, ga), (b, gb) = bracket
            if not a < h_next < b:
                h_next = (a * gb - b * ga) / (gb - ga)  # NaN next to a certified end
                if not a < h_next < b:
                    h_next = 0.5 * (a + b)
        elif not h_next > 0.0:
            h_next = 2.0 * cur.h_star if cur.gamma > 0.0 else 0.5 * cur.h_star
        probe(h_next)
    accepted, traj = converged
    return ItmResult(iterates=iterates, converged=True, final_h_star=accepted.h_star,
                     final_lambda=accepted.lam, final_wall_shear=accepted.wall_shear,
                     rescaled_solution=rescale_trajectory(
                         accepted.lam, Trajectory._from_rows([row[:4] for row in traj.rows()])))


def solve_blasius_topfer(eta_checks=(4.0, 6.0, 8.0, 10.0),
                         agreement_tol: float = 1e-3,
                         step_control: StepControl | None = None) -> TopferResult:
    """Solve the Blasius problem by Topfer's non-iterative reduction.

    One starred IVP is marched through the given truncated boundaries (the
    march is split so every boundary lands on an accepted sample).  At each
    boundary the group parameter is read off the far slope; the first pair
    of subsequent parameters agreeing within ``agreement_tol`` fixes the
    result, and the whole starred trajectory is rescaled back to the
    original variables.

    Raises :class:`TopferAgreementError` (carrying all per-boundary
    parameters) when no pair agrees.
    """
    checks = [float(c) for c in eta_checks]
    if not all(map(math.isfinite, checks)):
        raise ValueError("truncated boundaries must be finite")
    if len(checks) < 2:
        raise ValueError("need at least two truncated boundaries")
    if any(b <= a for a, b in zip(checks, checks[1:])):
        raise ValueError("truncated boundaries must be strictly increasing")
    if checks[0] <= 0:
        raise ValueError("truncated boundaries must be positive")
    if not agreement_tol > 0:
        raise ValueError("agreement_tol must be positive")
    control = StepControl() if step_control is None else step_control

    rows, lambda_checks = [], []
    accepted = None  # (boundary, far slope, lam, wall shear) of the first agreeing boundary
    state = blasius_star_ic()
    for start, boundary in zip([0.0] + checks, checks):
        piece = integrate_adaptive(IvpSpec(start, boundary, state, SIMILARITY_SYSTEM), control)
        rows += piece.rows()[1:] if rows else piece.rows()  # a later piece repeats the last sample
        state = piece.final_state
        lam, wall_shear = topfer_reduce(state[1])
        if accepted is None and lambda_checks and abs(lam - lambda_checks[-1][1]) <= agreement_tol:
            accepted = boundary, state[1], lam, wall_shear
        lambda_checks.append((boundary, lam))
    if accepted is None:
        raise TopferAgreementError(
            "no subsequent truncated-boundary parameters agree within "
            f"{agreement_tol:.3g}", lambda_checks
        )
    accepted_eta, far, lam, wall_shear = accepted
    # The starred->original map stretches eta by sqrt(far slope), the
    # reciprocal of the reported parameter.
    rescaled = rescale_trajectory(far ** 0.5, Trajectory._from_rows(rows))
    return TopferResult(
        lambda_checks=lambda_checks,
        accepted_eta=accepted_eta,
        accepted_lambda=lam,
        wall_shear=wall_shear,
        rescaled_solution=rescaled,
    )
