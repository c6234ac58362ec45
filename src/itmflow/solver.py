"""Solution drivers: the iterative transformation method and Topfer's reduction.

``solve_sakiadis`` hunts the zero of the transformation function with a
secant or Newton iteration, each probe costing one starred IVP solve (the
Newton probe integrates the 6-equation augmented system to get an exact
derivative).  ``solve_blasius_topfer`` needs no iteration at all: one IVP
solve plus a far-field agreement check across truncated boundaries.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .models import (AUGMENTED_SYSTEM, SIMILARITY_SYSTEM, VALID_SIGNS,
                     augmented_ic, blasius_star_ic, sakiadis_star_ic)
from .ode import IvpSpec, StepControl, Trajectory, integrate_adaptive
from .transform import GammaEvaluation, rescale_trajectory, topfer_reduce

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
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class ItmIterate:
    """One root-finder row: iterate index, h*, group parameter, Gamma, rescaled f''(0)."""

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

    Integrates the starred IVP to the truncated boundary and reads the far
    field; returns the evaluation together with the 3-component starred
    trajectory (the augmented run is projected onto its leading block).
    """
    if with_derivative:
        spec = IvpSpec(0.0, eta_inf_star, augmented_ic(h_star), AUGMENTED_SYSTEM)
        traj = integrate_adaptive(spec, control)
        far = float(traj.states[-1, 1])
        sensitivity = float(traj.states[-1, 4])
        evaluation = GammaEvaluation.from_far_field(h_star, far, sensitivity)
        traj3 = Trajectory(traj.etas, traj.states[:, :3], traj.derivs[:, :3])
        return evaluation, traj3
    spec = IvpSpec(0.0, eta_inf_star, sakiadis_star_ic(h_star, sign), SIMILARITY_SYSTEM)
    traj = integrate_adaptive(spec, control)
    far = float(traj.states[-1, 1])
    return GammaEvaluation.from_far_field(h_star, far), traj


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


def _finalize(iterates, accepted, traj):
    """Converged result at the ``accepted`` iterate, whose starred trajectory is ``traj``."""
    return ItmResult(
        iterates=iterates,
        converged=True,
        final_h_star=accepted.h_star,
        final_lambda=accepted.lam,
        final_wall_shear=accepted.wall_shear,
        rescaled_solution=rescale_trajectory(accepted.lam, traj),
    )


def solve_sakiadis(config: ItmConfig | None = None) -> ItmResult:
    """Solve the Sakiadis problem by the iterative transformation method.

    Every Gamma evaluation is recorded as an :class:`ItmIterate` (including
    the seeds), mirroring the iteration tables the method produces.
    Convergence is ``|Gamma| <= gamma_tol``; a proposed nonpositive h* is
    replaced by half the previous iterate.  When the iteration budget runs
    out the result carries ``converged=False``.

    Raises :class:`RootFinderBreakdownError` on a flat secant or a vanishing
    Newton derivative, and propagates integration failures.
    """
    config = ItmConfig() if config is None else config
    newton = config.root_finder == NEWTON
    iterates: list[ItmIterate] = []
    latest = []  # (evaluation, starred trajectory) of the last two probes, newest first

    def probe(h_star):
        evaluation, traj = _evaluate(h_star, config.sign, config.eta_inf_star,
                                     config.step_control, newton)
        # The missing initial curvature maps back as lam^-3 f*''(0).
        iterates.append(ItmIterate(j=len(iterates), h_star=float(h_star),
                                   lam=evaluation.lam, gamma=evaluation.gamma,
                                   wall_shear=float(config.sign) / evaluation.lam ** 3))
        latest[:] = [(evaluation, traj)] + latest[:1]

    probe(config.h0)
    if not newton:
        probe(config.h1)
    while True:
        # Only the secant seed h0 can converge as the older of the two probes.
        for age, (evaluation, traj) in enumerate(latest):
            if abs(evaluation.gamma) <= config.gamma_tol:
                return _finalize(iterates, iterates[-1 - age], traj)
        if len(iterates) >= config.max_iterations:
            return ItmResult(iterates=iterates, converged=False)
        cur = latest[0][0]
        if newton:
            if abs(cur.dgamma_dh) < _MIN_DERIVATIVE:
                raise RootFinderBreakdownError(
                    f"newton breakdown: |dGamma/dh*| = {abs(cur.dgamma_dh):.3g} at "
                    f"h* = {cur.h_star:.6g}"
                )
            h_next = cur.h_star - cur.gamma / cur.dgamma_dh
        else:
            prev = latest[1][0]
            if cur.gamma == prev.gamma:
                raise RootFinderBreakdownError(
                    f"secant breakdown: Gamma({prev.h_star:.6g}) == Gamma({cur.h_star:.6g})"
                )
            h_next = cur.h_star - cur.gamma * (cur.h_star - prev.h_star) \
                / (cur.gamma - prev.gamma)
        if h_next <= 0.0:
            h_next = 0.5 * cur.h_star
        probe(h_next)


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

    pieces = []
    state = blasius_star_ic()
    start = 0.0
    for boundary in checks:
        spec = IvpSpec(start, boundary, state, SIMILARITY_SYSTEM)
        pieces.append(integrate_adaptive(spec, control))
        state = pieces[-1].final_state
        start = boundary

    etas = np.concatenate([pieces[0].etas] + [p.etas[1:] for p in pieces[1:]])
    states = np.vstack([pieces[0].states] + [p.states[1:] for p in pieces[1:]])
    derivs = np.vstack([pieces[0].derivs] + [p.derivs[1:] for p in pieces[1:]])
    star_traj = Trajectory(etas, states, derivs)

    far_slopes = [float(p.states[-1, 1]) for p in pieces]
    lambda_checks = [(boundary, topfer_reduce(far)[0])
                     for boundary, far in zip(checks, far_slopes)]

    accepted = None
    for k in range(len(checks) - 1):
        if abs(lambda_checks[k + 1][1] - lambda_checks[k][1]) <= agreement_tol:
            accepted = k + 1
            break
    if accepted is None:
        raise TopferAgreementError(
            "no subsequent truncated-boundary parameters agree within "
            f"{agreement_tol:.3g}", lambda_checks
        )

    far = far_slopes[accepted]
    lam, wall_shear = topfer_reduce(far)
    # The starred->original map stretches eta by sqrt(far slope), the
    # reciprocal of the reported parameter.
    rescaled = rescale_trajectory(far ** 0.5, star_traj)
    return TopferResult(
        lambda_checks=lambda_checks,
        accepted_eta=checks[accepted],
        accepted_lambda=lam,
        wall_shear=wall_shear,
        rescaled_solution=rescaled,
    )
