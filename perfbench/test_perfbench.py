"""The benchmark's own test: every workload at minimal size, no timing assertions.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
os.environ["ITMFLOW_BACKEND"] = "numpy"

import itmflow  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("solve", "scan", "cli")
COUNT_METRICS = ("ode.ivp_calls", "ode.rhs_evals", "ode.steps_accepted", "ode.steps_rejected",
                 "ode.failed_ivps", "solver.probes", "scan.probes", "scan.failed_probe_share",
                 "fail_share", "wall_shear_abs_err")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload, trace, seed=7):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_shape(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    _check_shape(_result(workload, 0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_at_one_seed(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    _check_shape(first, SPEC["per_layer"])
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_sets_request_list(workload):
    assert workloads.make_pool(workload, 1) == workloads.make_pool(workload, 1)
    assert workloads.make_pool(workload, 1) != workloads.make_pool(workload, 2)


def test_solve_pool_mix():
    kinds = [req.kind for req in workloads.make_pool("solve", 3)]
    assert [kinds.count(k) for k in ("secant", "newton", "topfer", "noroot")] == [72, 54, 27, 27]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("solve", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("h_star,sign,tol", [(2.5, -1, 1e-6), (1.2, -1, 1e-8), (20.0, 1, 1e-10)])
def test_counting_rhs_matches_driver(h_star, sign, tol):
    counter = tracing.CountingRhs(itmflow.SIMILARITY_SYSTEM.rhs)
    spec = itmflow.IvpSpec(0.0, 10.0, itmflow.sakiadis_star_ic(h_star, sign),
                           itmflow.OdeSystem(rhs=counter, dim=3))
    try:
        traj = itmflow.integrate_adaptive(spec, itmflow.StepControl(abs_tol=tol, rel_tol=tol))
    except itmflow.IntegrationError:
        traj = None
    if traj is not None:
        assert counter.accepted == len(traj) - 1
    assert counter.calls == 1 + 10 * counter.attempts + counter.accepted


def test_cli_checks():
    argv = ("compare", "--format", "json")
    status, out = tracing.run_cli_main(argv)
    assert workloads.check_cli(argv, status, out, out).ok
    assert not workloads.check_cli(argv, status, out, out + " ").ok
    assert not workloads.check_cli(argv, 3, out, out).ok
