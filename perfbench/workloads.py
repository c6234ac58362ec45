"""Seeded request pools for the three workloads, and the checks on each result.

A pool is the request list of one run; the run repeats it in whole passes.
Draws are stratified (continuous draws spread evenly over their range,
discrete settings dealt out evenly), so that two seeds give different
requests but nearly the same mix of cheap, expensive and failing ones.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import dataclass

import itmflow
from itmflow import ItmConfig, ScanGrid, StepControl
from tracing import PLAIN_API, run_cli_main

# f''(0) of the Sakiadis flow, converged in the truncated boundary, and of
# the Blasius flow (Boyd).  Checks use the literature value -0.44375.
SAKIADIS_REF = -0.4437483
BLASIUS_REF = 0.33205734
SAKIADIS_CHECK = -0.44375
SAKIADIS_TOL = 2e-5
BLASIUS_TOL = 1e-6

# Errors through which itmflow declines a request; any other exception is a
# defect that ends the run.
SOLVE_ERRORS = (itmflow.IntegrationError, itmflow.DegenerateFarFieldError,
                itmflow.RootFinderBreakdownError, itmflow.TopferAgreementError,
                itmflow.ScanFailedError)

CLI_COMMANDS = (
    ("sakiadis",),
    ("sakiadis", "--root-finder", "newton", "--format", "json"),
    ("blasius", "--format", "csv"),
    ("compare", "--format", "json"),
    ("scan", "--count", "10", "--format", "csv"),
)

# Full and smoke (self-test) pool sizes.
POOL_SIZES = {"solve": (180, 8), "scan": (31, 4), "cli": (20, 5)}


@dataclass(frozen=True)
class Request:
    kind: str          # secant, newton, topfer, noroot, scan or cli
    params: tuple


@dataclass(frozen=True)
class Outcome:
    """A checked result.  ``signature`` must repeat for a repeated request."""

    ok: bool
    signature: str
    wall_shear_err: float | None = None


def _strata(rng, n, lo, hi):
    """``n`` draws from U[lo, hi], one in each of ``n`` equal strata, shuffled."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [lo + (hi - lo) * (c + rng.random()) / n for c in cells]


def _lattice(rng, n, lo, hi):
    """``n`` evenly spaced points of [lo, hi] under one random shift, in increasing order."""
    shift = rng.random()
    return [lo + (hi - lo) * (j + shift) / n for j in range(n)]


def _dealt(rng, n, values):
    """``values`` repeated evenly over ``n`` slots, shuffled."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def solve_pool(rng, n):
    """40 % secant, 30 % Newton, 15 % Topfer, 15 % no-root (sign +1) requests.

    Each root-finder's seeds ``h0`` form one shifted lattice whose points
    are dealt to the (eta_inf_star, tolerance) settings in turn, so every
    setting sees seeds spread over the whole range and the number of seeds
    below the root's failure threshold hardly changes with the seed.
    """
    n_sec, n_new, n_top = round(0.4 * n), round(0.3 * n), round(0.15 * n)
    n_none = n - n_sec - n_new - n_top
    settings = [(eta, tol) for eta in (10.0, 15.0, 20.0) for tol in (1e-6, 1e-8)]
    pool = []
    for j, (h0, gap) in enumerate(zip(_lattice(rng, n_sec, 1.5, 3.5),
                                      _strata(rng, n_sec, 0.3, 1.0))):
        pool.append(Request("secant", (h0, h0 + gap) + settings[j % len(settings)]))
    for j, h0 in enumerate(_lattice(rng, n_new, 1.5, 4.5)):
        pool.append(Request("newton", (h0, None) + settings[j % len(settings)]))
    pool += [Request("topfer", (tol,)) for tol in _dealt(rng, n_top, (1e-6, 1e-8, 1e-10))]
    for h0, gap in zip(_lattice(rng, n_none, 1.5, 3.5), _strata(rng, n_none, 0.3, 1.0)):
        pool.append(Request("noroot", (h0, h0 + gap)))
    rng.shuffle(pool)
    return pool


def scan_pool(rng, n):
    """40-point scans alternating sign +1/-1 and linear/logarithmic spacing.

    An odd pool puts one more sign +1 scan in: every sign -1 scan costs
    more than every sign +1 scan, so with equal numbers the median would
    fall on the gap between the two.  Within a class the (h_min, h_max)
    pairs form a shifted rank-1 lattice (the j-th h_min meets the (3j mod
    m)-th h_max; 3 is prime to every class size m used), which covers the
    square evenly, so the few costliest scans hardly change with the seed.
    """
    classes = [(1, "linear"), (-1, "linear"), (1, "logarithmic"), (-1, "logarithmic")]
    per_class = [[] for _ in classes]
    for k in range(n):
        per_class[k % len(classes)].append(k)
    pool = [None] * n
    for (sign, spacing), slots in zip(classes, per_class):
        m = len(slots)
        lows = _lattice(rng, m, 0.3, 1.0)
        highs = _lattice(rng, m, 10.0, 30.0)
        for j, k in enumerate(slots):
            pool[k] = Request("scan", (sign, spacing, lows[j], highs[3 * j % m]))
    return pool


def cli_pool(rng, n):
    """Cycles of the five command lines, each cycle in its own order."""
    pool = []
    while len(pool) < n:
        cycle = list(CLI_COMMANDS)
        rng.shuffle(cycle)
        pool += [Request("cli", argv) for argv in cycle]
    return pool[:n]


POOLS = {"solve": solve_pool, "scan": scan_pool, "cli": cli_pool}


def make_pool(workload, seed, smoke=False):
    return POOLS[workload](random.Random(seed), POOL_SIZES[workload][smoke])


# A fixed set of calls into every module, traced after the workload so that
# each traced run reports every per-module metric.
REFERENCE_OPS = (
    Request("secant", (2.5, 3.5, 10.0, 1e-6)),
    Request("newton", (2.5, None, 10.0, 1e-6)),
    Request("topfer", (1e-6,)),
    Request("noroot", (2.5, 3.5)),
    Request("scan", (-1, "linear", 0.5, 20.0)),
    Request("scan", (1, "linear", 0.5, 20.0)),
) + tuple(Request("inproc_cli", argv) for argv in CLI_COMMANDS)


# --- library ops -----------------------------------------------------------

def call_library(req, api):
    """Run one library request through ``api`` (plain or traced); return its result."""
    kind, p = req.kind, req.params
    if kind == "scan":
        sign, spacing, lo, hi = p
        return api.scan(ScanGrid(lo, hi, 40, spacing), sign)
    if kind == "topfer":
        return api.solve_blasius_topfer(step_control=StepControl(abs_tol=p[0], rel_tol=p[0]))
    if kind == "noroot":
        return api.solve_sakiadis(ItmConfig(h0=p[0], h1=p[1], sign=1, max_iterations=5))
    h0, h1, eta, tol = p
    return api.solve_sakiadis(ItmConfig(root_finder=kind, h0=h0, h1=h1, eta_inf_star=eta,
                                        step_control=StepControl(abs_tol=tol, rel_tol=tol)))


def check_library(req, result) -> Outcome:
    """Check a library result (or the itmflow error it raised)."""
    if isinstance(result, BaseException):
        return Outcome(False, type(result).__name__)
    kind = req.kind
    if kind == "scan":
        want = "unique_zero" if req.params[0] == -1 else "no_zero"
        return Outcome(result.verdict == want, result.verdict)
    if kind == "topfer":
        err = abs(result.wall_shear - BLASIUS_REF)
        return Outcome(err <= BLASIUS_TOL, repr(result.wall_shear), err)
    if kind == "noroot":
        return Outcome(not result.converged, f"converged={result.converged}")
    if not result.converged:
        return Outcome(False, "not_converged")
    shear = result.final_wall_shear
    return Outcome(abs(shear - SAKIADIS_CHECK) <= SAKIADIS_TOL, repr(shear),
                   abs(shear - SAKIADIS_REF))


# --- command-line ops ------------------------------------------------------

def child_env(root):
    """Environment of every child: numpy backend, default step budget, this checkout's src."""
    env = {k: v for k, v in os.environ.items() if k != "ITM_MAX_STEPS"}
    env["ITMFLOW_BACKEND"] = "numpy"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(cmd, env, cwd) -> tuple[int, str, str, float]:
    """Run ``cmd`` to completion; return exit code, stdout, stderr and its peak RSS in MB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd, text=True)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    # wait4, not Popen.wait, so the child's own resource usage is returned.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], usage.ru_maxrss / 1024.0


def cli_command(argv):
    return [sys.executable, "-m", "itmflow.cli", *argv]


_SHEAR_LINE = re.compile(r"f''\(0\) = +(-?[0-9.]+)")


def _cli_shears(argv, stdout):
    """(reference, value) pairs of every f''(0) the output reports."""
    sub, fmt = argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if fmt == "json":
        final = json.loads(stdout)["final"]
        if sub == "compare":
            return [(BLASIUS_REF, final["blasius_wall_shear"]),
                    (SAKIADIS_REF, final["sakiadis_wall_shear"])]
        if sub == "sakiadis":
            return [(SAKIADIS_REF, final["wall_shear"])]
    if sub == "blasius" and fmt == "csv":
        return [(BLASIUS_REF, float(stdout.splitlines()[1].split(",")[3]))]
    if sub == "sakiadis":
        return [(SAKIADIS_REF, float(m.group(1))) for m in _SHEAR_LINE.finditer(stdout)]
    return []


def check_cli(argv, status, stdout, first_stdout) -> Outcome:
    """Exit 0, stdout identical to the first run of the same command line, right f''(0)."""
    if status != 0:
        return Outcome(False, f"exit={status}")
    signature = hashlib.sha1(stdout.encode()).hexdigest()
    if first_stdout is not None and stdout != first_stdout:
        return Outcome(False, signature)
    if argv[0] == "scan":
        return Outcome(stdout.rstrip().endswith("# verdict: unique_zero"), signature)
    shears = _cli_shears(argv, stdout)
    ok = bool(shears)
    err = 0.0
    for ref, value in shears:
        if value is None:
            return Outcome(False, signature)
        tol, target = ((BLASIUS_TOL, BLASIUS_REF) if ref == BLASIUS_REF
                       else (SAKIADIS_TOL, SAKIADIS_CHECK))
        ok = ok and abs(value - target) <= tol
        err = max(err, abs(value - ref))
    return Outcome(ok, signature, err if shears else None)


def warm_up(workload):
    """One call of each kind the workload makes, so lazy set-up and caches are filled."""
    if workload == "cli":
        for argv in CLI_COMMANDS:
            run_cli_main(argv)
        return
    kinds = ("secant", "newton", "topfer", "noroot") if workload == "solve" else ("scan",)
    for req in REFERENCE_OPS:
        if req.kind in kinds:
            call_library(req, PLAIN_API)
