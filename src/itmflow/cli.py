"""Command-line front end: solve, scan and compare the similarity flows.

Exit codes: 0 success, 1 usage or validation error, 2 non-convergence,
3 integration blow-up.  Machine formats (CSV, JSON) carry 12-digit numbers
and stable headers/keys; identical configurations produce byte-identical
output.  Run metadata only ever goes to stderr (``--verbose``).
"""

import argparse
import json
import sys
from dataclasses import dataclass

from .ode import BACKEND, IntegrationError, StepControl
from .scan import ScanFailedError, ScanGrid, export_scan, scan
from .solver import (ItmConfig, RootFinderBreakdownError, TopferAgreementError,
                     solve_blasius_topfer, solve_sakiadis)
from .transform import DegenerateFarFieldError

DEFAULT_ETA_CHECKS = (4.0, 6.0, 8.0, 10.0)
DEFAULT_AGREEMENT_TOL = 1e-3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Validated flag set for one invocation."""

    subcommand: str
    format: str
    output_path: str | None
    verbose: bool
    abs_tol: float
    rel_tol: float
    root_finder: str | None = None
    h0: float | None = None
    h1: float | None = None
    sign: int | None = None
    eta_inf_star: float | None = None
    gamma_tol: float | None = None
    max_iterations: int | None = None
    eta_checks: tuple[float, ...] | None = None
    agreement_tol: float | None = None
    h_min: float | None = None
    h_max: float | None = None
    count: int | None = None
    spacing: str | None = None

    def step_control(self) -> StepControl:
        return StepControl(abs_tol=self.abs_tol, rel_tol=self.rel_tol)


def _fmt(value) -> str:
    return f"{value:.12e}"


def _jnum(value):
    return float(_fmt(value))


def _fmt_gamma(value) -> str:
    return f"{value:12.6f}" if abs(value) >= 1e-3 else f"{value:12.3e}"


def _parse_checks(text: str) -> tuple[float, ...]:
    try:
        checks = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"invalid eta checks {text!r}") from None
    if not checks:
        raise UsageError("eta checks must not be empty")
    return checks


def _add_common(sub):
    sub.add_argument("--abs-tol", type=float, default=1e-6,
                     help="absolute IVP tolerance (default 1e-6)")
    sub.add_argument("--rel-tol", type=float, default=1e-6,
                     help="relative IVP tolerance (default 1e-6)")
    sub.add_argument("--format", choices=("table", "csv", "json"),
                     default="table", help="output format (default table)")
    sub.add_argument("--output", "-o", default=None, metavar="PATH",
                     help="write the report to PATH instead of stdout")
    sub.add_argument("--verbose", action="store_true",
                     help="print run metadata on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="itmflow",
                     description="Boundary-layer similarity solvers built on "
                                 "scaling-transformation methods.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sak = subs.add_parser("sakiadis", help="moving-plate flow via the "
                          "iterative transformation method")
    sak.add_argument("--root-finder", choices=("secant", "newton"),
                     default="secant")
    sak.add_argument("--h0", type=float, default=2.5, help="first seed (default 2.5)")
    sak.add_argument("--h1", type=float, default=3.5,
                     help="second secant seed (default 3.5; ignored by newton)")
    sak.add_argument("--sign", type=int, choices=(1, -1), default=-1,
                     help="starred initial curvature (default -1)")
    sak.add_argument("--eta-inf", type=float, default=10.0, dest="eta_inf",
                     help="truncated boundary (default 10)")
    sak.add_argument("--gamma-tol", type=float, default=1e-9,
                     help="convergence criterion on |Gamma| (default 1e-9)")
    sak.add_argument("--max-iterations", type=int, default=50)
    _add_common(sak)

    bla = subs.add_parser("blasius", help="static-plate flow via Topfer's "
                          "non-iterative rescaling")
    bla.add_argument("--eta-checks", default="4,6,8,10", metavar="LIST",
                     help="comma-separated truncated boundaries (default 4,6,8,10)")
    bla.add_argument("--agreement-tol", type=float, default=DEFAULT_AGREEMENT_TOL,
                     help="required agreement of subsequent parameters (default 1e-3)")
    _add_common(bla)

    scn = subs.add_parser("scan", help="sweep the transformation function "
                          "over an h* grid")
    scn.add_argument("--sign", type=int, choices=(1, -1), default=-1)
    scn.add_argument("--h-min", type=float, default=0.5)
    scn.add_argument("--h-max", type=float, default=20.0)
    scn.add_argument("--count", type=int, default=40)
    scn.add_argument("--spacing", choices=("linear", "logarithmic"),
                     default="linear")
    scn.add_argument("--eta-inf", type=float, default=10.0, dest="eta_inf")
    _add_common(scn)

    cmp_ = subs.add_parser("compare", help="wall shear of both flows and "
                           "the percentage increase")
    _add_common(cmp_)

    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(
        subcommand=args.subcommand,
        format=args.format,
        output_path=args.output,
        verbose=args.verbose,
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
    )
    if args.subcommand == "sakiadis":
        cfg.root_finder = args.root_finder
        cfg.h0 = args.h0
        cfg.h1 = None if args.root_finder == "newton" else args.h1
        cfg.sign = args.sign
        cfg.eta_inf_star = args.eta_inf
        cfg.gamma_tol = args.gamma_tol
        cfg.max_iterations = args.max_iterations
    elif args.subcommand == "blasius":
        cfg.eta_checks = _parse_checks(args.eta_checks)
        cfg.agreement_tol = args.agreement_tol
    elif args.subcommand == "scan":
        cfg.sign = args.sign
        cfg.h_min = args.h_min
        cfg.h_max = args.h_max
        cfg.count = args.count
        cfg.spacing = args.spacing
        cfg.eta_inf_star = args.eta_inf
    return cfg


def _trajectory_csv(traj) -> str:
    lines = ["eta,f,df,ddf"]
    for eta, state in zip(traj.etas, traj.states):
        lines.append(f"{_fmt(eta)},{_fmt(state[0])},{_fmt(state[1])},{_fmt(state[2])}")
    return "\n".join(lines) + "\n"


def _json_doc(config: dict, iterates, final, verdict) -> str:
    doc = {"config": config, "iterates": iterates, "final": final,
           "verdict": verdict}
    return json.dumps(doc, indent=2) + "\n"


def cmd_sakiadis(cfg: RunConfig) -> tuple[int, str]:
    itm = ItmConfig(
        root_finder=cfg.root_finder,
        h0=cfg.h0,
        h1=cfg.h1,
        sign=cfg.sign,
        eta_inf_star=cfg.eta_inf_star,
        gamma_tol=cfg.gamma_tol,
        max_iterations=cfg.max_iterations,
        step_control=cfg.step_control(),
    )
    result = solve_sakiadis(itm)
    status = 0 if result.converged else 2
    if cfg.verbose:
        print(f"itmflow: backend={BACKEND} root_finder={cfg.root_finder} "
              f"gamma_evaluations={result.gamma_evaluations}", file=sys.stderr)

    if cfg.format == "csv":
        if not result.converged:
            print("itmflow: not converged; no trajectory to export", file=sys.stderr)
            return 2, ""
        return status, _trajectory_csv(result.rescaled_solution)

    if cfg.format == "json":
        config = {
            "subcommand": "sakiadis",
            "root_finder": cfg.root_finder,
            "h0": _jnum(cfg.h0),
            "h1": None if cfg.h1 is None else _jnum(cfg.h1),
            "sign": cfg.sign,
            "eta_inf_star": _jnum(cfg.eta_inf_star),
            "gamma_tol": _jnum(cfg.gamma_tol),
            "abs_tol": _jnum(cfg.abs_tol),
            "rel_tol": _jnum(cfg.rel_tol),
            "max_iterations": cfg.max_iterations,
        }
        iterates = [
            {"j": it.j, "h_star": _jnum(it.h_star), "lambda": _jnum(it.lam),
             "gamma": _jnum(it.gamma), "wall_shear": _jnum(it.wall_shear)}
            for it in result.iterates
        ]
        final = {
            "converged": result.converged,
            "h_star": None if result.final_h_star is None else _jnum(result.final_h_star),
            "lambda": None if result.final_lambda is None else _jnum(result.final_lambda),
            "wall_shear": None if result.final_wall_shear is None else _jnum(result.final_wall_shear),
            "gamma_evaluations": result.gamma_evaluations,
        }
        verdict = "converged" if result.converged else "not_converged"
        return status, _json_doc(config, iterates, final, verdict)

    lines = [f"{'j':>3} {'h*_j':>12} {'lambda_j':>12} {'Gamma(h*_j)':>12} "
             f"{'d2f/deta2(0)':>13}"]
    for it in result.iterates:
        lines.append(f"{it.j:>3} {it.h_star:>12.6f} {it.lam:>12.6f} "
                     f"{_fmt_gamma(it.gamma)} {it.wall_shear:>13.6f}")
    if result.converged:
        lines.append(
            f"converged: h* = {result.final_h_star:.6f}  "
            f"lambda = {result.final_lambda:.6f}  "
            f"f''(0) = {result.final_wall_shear:.6f}  "
            f"({result.gamma_evaluations} Gamma evaluations)"
        )
    else:
        lines.append(f"not converged after {result.gamma_evaluations} Gamma evaluations")
    return status, "\n".join(lines) + "\n"


def cmd_blasius(cfg: RunConfig) -> tuple[int, str]:
    result = solve_blasius_topfer(
        eta_checks=cfg.eta_checks,
        agreement_tol=cfg.agreement_tol,
        step_control=cfg.step_control(),
    )
    if cfg.verbose:
        print(f"itmflow: backend={BACKEND} accepted_eta={result.accepted_eta}",
              file=sys.stderr)

    if cfg.format == "csv":
        return 0, _trajectory_csv(result.rescaled_solution)

    if cfg.format == "json":
        config = {
            "subcommand": "blasius",
            "eta_checks": [_jnum(c) for c in cfg.eta_checks],
            "agreement_tol": _jnum(cfg.agreement_tol),
            "abs_tol": _jnum(cfg.abs_tol),
            "rel_tol": _jnum(cfg.rel_tol),
        }
        iterates = [{"eta_star": _jnum(eta), "lambda": _jnum(lam)}
                    for eta, lam in result.lambda_checks]
        final = {
            "accepted_eta_star": _jnum(result.accepted_eta),
            "lambda": _jnum(result.accepted_lambda),
            "wall_shear": _jnum(result.wall_shear),
        }
        return 0, _json_doc(config, iterates, final, "converged")

    lines = [f"{'eta*_j':>10} {'lambda_j':>12}"]
    for eta, lam in result.lambda_checks:
        lines.append(f"{eta:>10.6f} {lam:>12.6f}")
    lines.append(
        f"accepted at eta* = {result.accepted_eta:g}: "
        f"lambda = {result.accepted_lambda:.6f}  "
        f"f''(0) = {result.wall_shear:.6f}"
    )
    return 0, "\n".join(lines) + "\n"


def cmd_scan(cfg: RunConfig) -> tuple[int, str]:
    grid = ScanGrid(h_min=cfg.h_min, h_max=cfg.h_max, count=cfg.count,
                    spacing=cfg.spacing)
    itm = ItmConfig(eta_inf_star=cfg.eta_inf_star, step_control=cfg.step_control())
    report = scan(grid, cfg.sign, itm)
    if cfg.verbose:
        failed = sum(1 for s in report.samples if s.failed)
        print(f"itmflow: backend={BACKEND} samples={len(report.samples)} "
              f"failed={failed}", file=sys.stderr)

    if cfg.format == "csv":
        return 0, export_scan(report) + f"# verdict: {report.verdict}\n"

    if cfg.format == "json":
        config = {
            "subcommand": "scan",
            "sign": cfg.sign,
            "h_min": _jnum(cfg.h_min),
            "h_max": _jnum(cfg.h_max),
            "count": cfg.count,
            "spacing": cfg.spacing,
            "eta_inf_star": _jnum(cfg.eta_inf_star),
            "abs_tol": _jnum(cfg.abs_tol),
            "rel_tol": _jnum(cfg.rel_tol),
        }
        iterates = [
            {"h_star": _jnum(s.h_star),
             "gamma": None if s.failed else _jnum(s.gamma),
             "lambda": None if s.failed else _jnum(s.lam),
             "failed": s.failed}
            for s in report.samples
        ]
        final = {"brackets": [[_jnum(lo), _jnum(hi)] for lo, hi in report.brackets]}
        return 0, _json_doc(config, iterates, final, report.verdict)

    lines = [f"{'h_star':>10} {'Gamma':>12} {'lambda':>10}  failed"]
    for s in report.samples:
        if s.failed:
            lines.append(f"{s.h_star:>10.4f} {'-':>12} {'-':>10}  true")
        else:
            lines.append(f"{s.h_star:>10.4f} {_fmt_gamma(s.gamma)} "
                         f"{s.lam:>10.6f}  false")
    for lo, hi in report.brackets:
        lines.append(f"sign change in [{lo:.6f}, {hi:.6f}]")
    lines.append(f"verdict: {report.verdict}")
    return 0, "\n".join(lines) + "\n"


def _increase_percent(base_shear: float, other_shear: float) -> float:
    """Percentage wall-shear increase of ``other`` over ``base`` (by magnitude)."""
    return abs(abs(base_shear) - abs(other_shear)) / abs(base_shear) * 100.0


def cmd_compare(cfg: RunConfig) -> tuple[int, str]:
    control = cfg.step_control()
    topfer = solve_blasius_topfer(eta_checks=DEFAULT_ETA_CHECKS,
                                  agreement_tol=DEFAULT_AGREEMENT_TOL,
                                  step_control=control)
    itm = solve_sakiadis(ItmConfig(step_control=control))
    if not itm.converged:
        print("itmflow: Sakiadis solve did not converge", file=sys.stderr)
        return 2, ""
    increase = _increase_percent(topfer.wall_shear, itm.final_wall_shear)
    if cfg.verbose:
        print(f"itmflow: backend={BACKEND}", file=sys.stderr)

    if cfg.format == "csv":
        lines = ["blasius_wall_shear,sakiadis_wall_shear,increase_percent",
                 f"{_fmt(topfer.wall_shear)},{_fmt(itm.final_wall_shear)},"
                 f"{_fmt(increase)}"]
        return 0, "\n".join(lines) + "\n"

    if cfg.format == "json":
        config = {
            "subcommand": "compare",
            "abs_tol": _jnum(cfg.abs_tol),
            "rel_tol": _jnum(cfg.rel_tol),
        }
        final = {
            "blasius_wall_shear": _jnum(topfer.wall_shear),
            "sakiadis_wall_shear": _jnum(itm.final_wall_shear),
            "increase_percent": _jnum(increase),
        }
        return 0, _json_doc(config, [], final, "converged")

    lines = [
        f"blasius   f''(0) = {topfer.wall_shear:9.6f}",
        f"sakiadis  f''(0) = {itm.final_wall_shear:9.6f}",
        f"wall-shear increase: {increase:.2f}%",
    ]
    return 0, "\n".join(lines) + "\n"


_HANDLERS = {
    "sakiadis": cmd_sakiadis,
    "blasius": cmd_blasius,
    "scan": cmd_scan,
    "compare": cmd_compare,
}


def _write(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        status, text = _HANDLERS[cfg.subcommand](cfg)
    except UsageError as exc:
        print(f"itmflow: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, DegenerateFarFieldError, ScanFailedError) as exc:
        print(f"itmflow: integration failed: {exc}", file=sys.stderr)
        return 3
    except (RootFinderBreakdownError, TopferAgreementError) as exc:
        print(f"itmflow: did not converge: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"itmflow: {exc}", file=sys.stderr)
        return 1
    _write(text, cfg.output_path)
    return status


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
