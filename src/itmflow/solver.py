"""Solution drivers: the iterative transformation method and Topfer's reduction.

``solve_sakiadis`` hunts the zero of the transformation function with a
secant or Newton iteration, each probe costing one starred IVP solve (the
Newton probe integrates the 6-equation augmented system to get an exact
derivative).  ``solve_blasius_topfer`` needs no iteration at all: one IVP
solve plus a far-field agreement check across truncated boundaries.
"""

import math

from .models import (AUGMENTED_SYSTEM, SIMILARITY_SYSTEM, VALID_SIGNS,
                     augmented_ic, blasius_star_ic, sakiadis_star_ic)
from .ode import (IvpSpec, Record, StepControl, Trajectory, check_count, check_positive,
                  integrate_adaptive)
from .transform import DegenerateFarFieldError, GammaEvaluation, rescale_trajectory

__all__ = [
    "SECANT", "NEWTON", "ItmConfig", "ItmIterate", "ItmResult", "TopferResult",
    "RootFinderBreakdownError", "TopferAgreementError",
    "evaluate_gamma_at", "solve_sakiadis", "solve_blasius_topfer",
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


class ItmConfig(Record):
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
    step_control: StepControl = StepControl()  # immutable, so one instance serves every config

    def __post_init__(self):
        if self.root_finder not in (SECANT, NEWTON):
            raise ValueError(f"root_finder must be {SECANT!r} or {NEWTON!r}, got {self.root_finder!r}")
        check_positive("h0", self.h0)
        if self.sign not in VALID_SIGNS:
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.root_finder == SECANT:
            if self.h1 is None:
                raise ValueError("secant mode needs a second seed h1")
            check_positive("h1", self.h1)
            if self.h1 == self.h0:
                raise ValueError("secant seeds h0 and h1 must differ")
        if self.root_finder == NEWTON and self.sign != -1:
            raise ValueError("newton mode requires sign = -1 (no zero exists on the +1 branch)")
        check_positive("eta_inf_star", self.eta_inf_star)
        check_positive("gamma_tol", self.gamma_tol)
        check_count("max_iterations", self.max_iterations)
        if not isinstance(self.step_control, StepControl):
            raise ValueError(f"step_control must be a StepControl, got {self.step_control!r}")


class ItmIterate(Record):
    """One root-finder row: iterate index, h*, group parameter, Gamma, rescaled f''(0).

    A probe certified below the root (lam^2 <= 0) has ``gamma = inf`` and NaN
    ``lam`` and ``wall_shear``.
    """

    j: int
    h_star: float
    lam: float
    gamma: float
    wall_shear: float


class ItmResult(Record):
    """Outcome of an ITM solve; final fields are ``None`` when not converged.

    ``final_wall_shear`` is ``rescaled_solution``'s first-row f''(0) to the last bit."""

    iterates: list[ItmIterate]
    converged: bool
    final_h_star: float | None = None
    final_lambda: float | None = None
    final_wall_shear: float | None = None
    rescaled_solution: Trajectory | None = None

    @property
    def gamma_evaluations(self) -> int:
        return len(self.iterates)


class TopferResult(Record):
    """Topfer reduction outcome: per-boundary parameters and the accepted values.

    ``wall_shear`` is ``rescaled_solution``'s first-row f''(0)."""

    lambda_checks: list[tuple[float, float]]
    accepted_eta: float
    accepted_lambda: float
    wall_shear: float
    rescaled_solution: Trajectory


def _evaluate(h_star, config):
    """One probe of the transformation function, the one ``solve_sakiadis`` takes.

    Integrates the starred IVP of ``config`` (the 6-equation augmented system
    under Newton, for dGamma/dh*) to the truncated boundary and reads the far
    field; returns the evaluation together with the raw starred trajectory.
    Every failed probe raises an :class:`IntegrationError`.  On the sign -1
    branch f' decreases, so the march stops with a
    :class:`DegenerateFarFieldError` at the first accepted sample where
    ``f' + sqrt(h*) <= 0``: lam^2 <= 0 at the boundary is then certain.
    """
    newton, control = config.root_finder == NEWTON, config.step_control
    if newton:
        initial, system = augmented_ic(h_star), AUGMENTED_SYSTEM
    else:
        initial, system = sakiadis_star_ic(h_star, config.sign), SIMILARITY_SYSTEM
    if config.sign == -1:
        root = initial[1]

        def certify(eta, y):
            if y[1] + root <= 0.0:
                raise DegenerateFarFieldError(
                    f"f' + sqrt(h*) = {y[1] + root:.6g} is not positive at eta = {eta:.6g}; "
                    "lam^2 <= 0 at the truncated boundary", eta)

        control = StepControl(**{**vars(control), "stop": certify})
    traj = integrate_adaptive(IvpSpec(0.0, config.eta_inf_star, initial, system), control)
    far = traj.final_state
    return GammaEvaluation.from_far_field(h_star, far[1], far[4] if newton else None), traj


def evaluate_gamma_at(h_star: float, config: ItmConfig | None = None) -> GammaEvaluation:
    """Gamma and lambda at ``h_star`` as ``solve_sakiadis(config)`` computes them.

    The probe marches the 3-equation starred IVP, or under a Newton config
    the 6-equation augmented one, which also gives ``dgamma_dh``.
    """
    return _evaluate(h_star, ItmConfig() if config is None else config)[0]


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
            evaluation, traj = _evaluate(h_star, config)
            lam, gamma, slope = evaluation.lam, evaluation.gamma, evaluation.dgamma_dh
        except DegenerateFarFieldError:
            lam, gamma = math.nan, math.inf
        # The missing initial curvature maps back as f*''(0) lam^-3, as rescale_trajectory maps it.
        iterates.append(ItmIterate(j=len(iterates), h_star=float(h_star), lam=lam,
                                   gamma=gamma, wall_shear=float(config.sign) * lam ** -3))
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
                         accepted.lam, Trajectory._from_rows([row[:4] for row in traj.rows])))


def solve_blasius_topfer(eta_checks=(4.0, 6.0, 8.0, 10.0),
                         agreement_tol: float = 1e-3,
                         step_control: StepControl | None = None) -> TopferResult:
    """Solve the Blasius problem by Topfer's non-iterative reduction.

    One starred IVP is marched through the given truncated boundaries (the
    march is split so every boundary lands on an accepted sample).  At each
    boundary the group parameter is read off the far slope; the first pair
    of subsequent parameters agreeing within ``agreement_tol`` fixes the
    result, and the whole starred trajectory is rescaled back to the
    original variables; the reported f''(0) is its first row's.

    Raises :class:`TopferAgreementError` (carrying all per-boundary
    parameters) when no pair agrees, and ``ValueError`` when the accepted
    far slope is so small (below about 3.14e-206) that the rescale overflows.
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
    if not isinstance(control, StepControl):
        raise ValueError(f"step_control must be a StepControl, got {control!r}")

    rows, lambda_checks = [], []
    accepted = None  # (boundary, far slope, lam) of the first agreeing boundary
    state = blasius_star_ic()
    for start, boundary in zip([0.0] + checks, checks):
        piece = integrate_adaptive(IvpSpec(start, boundary, state, SIMILARITY_SYSTEM), control)
        rows += piece.rows[1:] if rows else piece.rows  # a later piece repeats the last sample
        state = piece.final_state
        check_positive("far slope", state[1])
        lam = state[1] ** -0.5
        if accepted is None and lambda_checks and abs(lam - lambda_checks[-1][1]) <= agreement_tol:
            accepted = boundary, state[1], lam
        lambda_checks.append((boundary, lam))
    if accepted is None:
        raise TopferAgreementError(
            "no subsequent truncated-boundary parameters agree within "
            f"{agreement_tol:.3g}", lambda_checks
        )
    accepted_eta, far, lam = accepted
    # The starred->original map stretches eta by sqrt(far slope), the
    # reciprocal of the reported parameter.
    rescaled = rescale_trajectory(far ** 0.5, Trajectory._from_rows(rows))
    return TopferResult(
        lambda_checks=lambda_checks,
        accepted_eta=accepted_eta,
        accepted_lambda=lam,
        wall_shear=rescaled.rows[0][3],
        rescaled_solution=rescaled,
    )
