"""Command-line front end: solve, scan and compare the similarity flows.

Exit codes: 0 success, 1 usage or validation error (or an ``--output`` path
that cannot be written), 2 non-convergence, 3 integration failure.  Machine
formats (CSV, JSON) carry 12-digit numbers and stable headers/keys.  Output
depends only on the flags, which the JSON ``config`` block records (no env
variable is read), so identical configurations produce byte-identical output.
Run metadata only ever goes to stderr (``--verbose``).
"""

import argparse
import math
import sys

from .ode import IntegrationError, Record, StepControl
from .scan import ScanGrid, scan
from .solver import (NEWTON, SECANT, ItmConfig, RootFinderBreakdownError,
                     TopferAgreementError, solve_blasius_topfer, solve_sakiadis)


class UsageError(Exception):
    pass


class _NoOutput(Exception):
    """The run has nothing to print in the chosen format (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class Report(Record):
    """Everything one subcommand prints, for the table, CSV and JSON renderers.

    The four JSON blocks, the table lines, the CSV text (``None``: no
    trajectory to export) and the ``--verbose`` stderr line.  The exit status
    is 2 when the verdict is ``not_converged``, else 0.
    """

    config: dict
    iterates: list
    final: dict
    verdict: str
    table: list[str]
    csv: str | None
    verbose: str


def _fmt(value) -> str:
    return f"{value:.12e}"


def _fmt_gamma(value) -> str:
    return f"{value:12.6f}" if abs(value) >= 1e-3 else f"{value:12.3e}"


def _parse_checks(text: str) -> tuple[float, ...]:
    try:
        checks = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"invalid eta checks {text!r}") from None
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
    sak.add_argument("--root-finder", choices=(SECANT, NEWTON), default=SECANT,
                     help="root-finder on Gamma(h*) (default secant)")
    sak.add_argument("--h0", type=float, default=2.5, help="first seed (default 2.5)")
    sak.add_argument("--h1", type=float, default=3.5,
                     help="second secant seed (default 3.5; ignored by newton)")
    sak.add_argument("--sign", type=int, choices=(1, -1), default=-1,
                     help="starred initial curvature (default -1)")
    sak.add_argument("--eta-inf", type=float, default=10.0, dest="eta_inf_star",
                     metavar="ETA_INF", help="truncated boundary (default 10)")
    sak.add_argument("--gamma-tol", type=float, default=1e-9,
                     help="convergence criterion on |Gamma| (default 1e-9)")
    _add_common(sak)
    sak.add_argument("--max-iterations", type=int, default=50,
                     help="Gamma evaluation budget (default 50; secant always "
                          "evaluates both seeds)")

    bla = subs.add_parser("blasius", help="static-plate flow via Topfer's "
                          "non-iterative rescaling")
    bla.add_argument("--eta-checks", type=_parse_checks, default="4,6,8,10", metavar="LIST",
                     help="comma-separated truncated boundaries (default 4,6,8,10)")
    bla.add_argument("--agreement-tol", type=float, default=1e-3,
                     help="required agreement of subsequent parameters (default 1e-3)")
    _add_common(bla)

    scn = subs.add_parser("scan", help="sweep the transformation function "
                          "over an h* grid")
    scn.add_argument("--sign", type=int, choices=(1, -1), default=-1,
                     help="starred initial curvature (default -1)")
    scn.add_argument("--h-min", type=float, default=0.5,
                     help="lowest h* of the grid (default 0.5)")
    scn.add_argument("--h-max", type=float, default=20.0,
                     help="highest h* of the grid (default 20)")
    scn.add_argument("--count", type=int, default=40,
                     help="number of grid points (default 40)")
    scn.add_argument("--spacing", choices=("linear", "logarithmic"),
                     default="linear", help="grid spacing (default linear)")
    scn.add_argument("--eta-inf", type=float, default=10.0, dest="eta_inf_star",
                     metavar="ETA_INF", help="truncated boundary (default 10)")
    _add_common(scn)

    cmp_ = subs.add_parser("compare", help="wall shear of both flows and "
                           "the percentage increase")
    _add_common(cmp_)

    return parser


def _config(args) -> dict:
    """The JSON ``config`` block: the subcommand, then every flag but the output ones."""
    return {name: value for name, value in vars(args).items()
            if name not in ("format", "output", "verbose")}


def _step_control(args) -> StepControl:
    return StepControl(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: numbers by ``_fmt``, booleans as true/false."""
    lines = [header]
    lines += [",".join(("true" if v else "false") if isinstance(v, bool) else _fmt(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_sakiadis(args) -> Report:
    args.h1 = None if args.root_finder == NEWTON else args.h1  # newton has no h1
    result = solve_sakiadis(ItmConfig(
        root_finder=args.root_finder, h0=args.h0, h1=args.h1, sign=args.sign,
        eta_inf_star=args.eta_inf_star, gamma_tol=args.gamma_tol,
        max_iterations=args.max_iterations, step_control=_step_control(args)))
    table = [f"{'j':>3} {'h*_j':>12} {'lambda_j':>12} {'Gamma(h*_j)':>12} "
             f"{'d2f/deta2(0)':>13}"]
    # A probe certified below the root has no lambda, Gamma or f''(0) to print.
    table += [f"{it.j:>3} {it.h_star:>12.6f} {'-':>12} {'-':>12} {'-':>13}"
              if math.isinf(it.gamma) else
              f"{it.j:>3} {it.h_star:>12.6f} {it.lam:>12.6f} "
              f"{_fmt_gamma(it.gamma)} {it.wall_shear:>13.6f}"
              for it in result.iterates]
    if result.converged:
        table.append(f"converged: h* = {result.final_h_star:.6f}  "
                     f"lambda = {result.final_lambda:.6f}  "
                     f"f''(0) = {result.final_wall_shear:.6f}  "
                     f"({result.gamma_evaluations} Gamma evaluations)")
    else:
        table.append(f"not converged after {result.gamma_evaluations} Gamma evaluations")
    return Report(
        config=_config(args),
        iterates=[{"j": it.j, "h_star": it.h_star, "lambda": it.lam,
                   "gamma": it.gamma, "wall_shear": it.wall_shear}
                  for it in result.iterates],
        final={"converged": result.converged, "h_star": result.final_h_star,
               "lambda": result.final_lambda, "wall_shear": result.final_wall_shear,
               "gamma_evaluations": result.gamma_evaluations},
        verdict="converged" if result.converged else "not_converged",
        table=table,
        csv=_csv("eta,f,df,ddf", result.rescaled_solution.rows) if result.converged else None,
        verbose=f"root_finder={args.root_finder} gamma_evaluations={result.gamma_evaluations}",
    )


def cmd_blasius(args) -> Report:
    if not math.isfinite(args.agreement_tol):  # JSON has no Infinity or NaN
        raise UsageError("agreement_tol must be finite")
    result = solve_blasius_topfer(eta_checks=args.eta_checks,
                                  agreement_tol=args.agreement_tol,
                                  step_control=_step_control(args))
    table = [f"{'eta*_j':>10} {'lambda_j':>12}"]
    table += [f"{eta:>10.6f} {lam:>12.6f}" for eta, lam in result.lambda_checks]
    table.append(f"accepted at eta* = {result.accepted_eta:g}: "
                 f"lambda = {result.accepted_lambda:.6f}  "
                 f"f''(0) = {result.wall_shear:.6f}")
    return Report(
        config=_config(args),
        iterates=[{"eta_star": eta, "lambda": lam}
                  for eta, lam in result.lambda_checks],
        final={"accepted_eta_star": result.accepted_eta,
               "lambda": result.accepted_lambda,
               "wall_shear": result.wall_shear},
        verdict="converged",
        table=table,
        csv=_csv("eta,f,df,ddf", result.rescaled_solution.rows),
        verbose=f"accepted_eta={result.accepted_eta}",
    )


def cmd_scan(args) -> Report:
    grid = ScanGrid(h_min=args.h_min, h_max=args.h_max, count=args.count,
                    spacing=args.spacing)
    report = scan(grid, args.sign, args.eta_inf_star, _step_control(args))
    table = [f"{'h_star':>10} {'Gamma':>12} {'lambda':>10}  failed"]
    table += [f"{s.h_star:>10.4f} {'-':>12} {'-':>10}  true" if s.failed else
              f"{s.h_star:>10.4f} {_fmt_gamma(s.gamma)} {s.lam:>10.6f}  false"
              for s in report.samples]
    table += [f"sign change in [{lo:.6f}, {hi:.6f}]" for lo, hi in report.brackets]
    table.append(f"verdict: {report.verdict}")
    failed = sum(s.failed for s in report.samples)
    return Report(
        config=_config(args),
        iterates=[{"h_star": s.h_star, "gamma": s.gamma, "lambda": s.lam, "failed": s.failed}
                  for s in report.samples],
        final={"brackets": report.brackets},
        verdict=report.verdict,
        table=table,
        csv=_csv("h_star,gamma,lambda,failed",
                 [(s.h_star, s.gamma, s.lam, s.failed) for s in report.samples])
            + f"# verdict: {report.verdict}\n",
        verbose=f"samples={len(report.samples)} failed={failed}",
    )


def _increase_percent(base_shear: float, other_shear: float) -> float:
    """Percentage wall-shear increase of ``other`` over ``base`` (by magnitude)."""
    return abs(abs(base_shear) - abs(other_shear)) / abs(base_shear) * 100.0


def cmd_compare(args) -> Report:
    control = _step_control(args)
    topfer = solve_blasius_topfer(step_control=control)
    itm = solve_sakiadis(ItmConfig(step_control=control))
    if not itm.converged:
        raise _NoOutput("Sakiadis solve did not converge")
    blasius, sakiadis = topfer.wall_shear, itm.final_wall_shear
    increase = _increase_percent(blasius, sakiadis)
    return Report(
        config=_config(args),
        iterates=[],
        final={"blasius_wall_shear": blasius, "sakiadis_wall_shear": sakiadis,
               "increase_percent": increase},
        verdict="converged",
        table=[f"blasius   f''(0) = {blasius:9.6f}",
               f"sakiadis  f''(0) = {sakiadis:9.6f}",
               f"wall-shear increase: {increase:.2f}%"],
        csv=_csv("blasius_wall_shear,sakiadis_wall_shear,increase_percent",
                 [(blasius, sakiadis, increase)]),
        verbose=f"gamma_evaluations={itm.gamma_evaluations} accepted_eta={topfer.accepted_eta}",
    )


_HANDLERS = {"sakiadis": cmd_sakiadis, "blasius": cmd_blasius, "scan": cmd_scan,
             "compare": cmd_compare}


def _rounded(value):
    """JSON value with every float cut to the 12 significant digits of the CSV.

    JSON has no inf or NaN: a non-finite float becomes ``None`` (null).
    """
    if isinstance(value, float):
        return float(_fmt(value)) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def render_json(report: Report) -> str:
    import json  # only JSON output needs it

    doc = {"config": report.config, "iterates": report.iterates,
           "final": report.final, "verdict": report.verdict}
    return json.dumps(_rounded(doc), indent=2) + "\n"


def render_csv(report: Report) -> str:
    if report.csv is None:
        raise _NoOutput("not converged; no trajectory to export")
    return report.csv


def render_table(report: Report) -> str:
    return "\n".join(report.table) + "\n"


_RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = _HANDLERS[args.subcommand](args)
        if args.verbose:
            print(f"itmflow: {report.verbose}", file=sys.stderr)
        text = _RENDERERS[args.format](report)
        status = 2 if report.verdict == "not_converged" else 0
    except IntegrationError as exc:
        print(f"itmflow: integration failed: {exc}", file=sys.stderr)
        return 3
    except (RootFinderBreakdownError, TopferAgreementError) as exc:
        print(f"itmflow: did not converge: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"itmflow: {exc}", file=sys.stderr)
        return 1
    except _NoOutput as exc:
        print(f"itmflow: {exc}", file=sys.stderr)
        status, text = 2, ""
    try:
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"itmflow: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return 1
    return status


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
