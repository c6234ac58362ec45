#!/usr/bin/env python3
"""itmflow benchmark: seeded solve, scan and cli workloads with checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {solve,scan,cli} --seed N --seconds S --trace {0,1}

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs every request twice, untraced and traced in
alternating order, and reports the per-module metrics and the tracing
overhead.  Every line but the last is a human-readable report; the last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "op_ms.p50": "ms", "op_ms.p90": "ms", "ops_per_s": "1/s", "ok_share": "share",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "models.rhs3_us": "us", "models.rhs6_us": "us",
    "ode.ivp_calls": "count", "ode.rhs_evals": "count", "ode.steps_accepted": "count",
    "ode.steps_rejected": "count", "ode.ivp3_ms": "ms", "ode.ivp6_ms": "ms",
    "ode.us_per_rhs_eval": "us", "ode.failed_ivps": "count",
    "ode.failed_ivp_time_share": "share", "ode.time_share": "share",
    "transform.ms_per_op": "ms",
    "solver.probes": "count", "solver.self_ms": "ms", "solver.topfer_ms": "ms",
    "scan.probes": "count", "scan.failed_probe_share": "share", "scan.self_ms": "ms",
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms", "cli.render_ms": "ms",
    "trace.overhead_share": "share", "fail_share": "share", "wall_shear_abs_err": "1",
}
# Fewest ops and passes of an end-to-end run: at least ten latencies lie
# beyond p90, and each request's median latency rejects one outlier.
MIN_OPS = 110
MIN_PASSES = 3
SETUP_RUNS = 7
CALIBRATION_RUNS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "scan", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools, one set-up sample and no minimum op count "
                             "(the benchmark's own test); figures are not comparable")
    return parser.parse_args(argv)


def _import_itmflow():
    """Import itmflow from this checkout's src/ with the benchmark environment pinned."""
    if not os.path.isfile(os.path.join(SRC, "itmflow", "__init__.py")):
        sys.exit(f"perfbench: no itmflow sources under {SRC}")
    os.environ["ITMFLOW_BACKEND"] = "numpy"
    os.environ.pop("ITM_MAX_STEPS", None)
    sys.path.insert(0, SRC)
    import itmflow
    if os.path.dirname(os.path.dirname(os.path.abspath(itmflow.__file__))) != SRC:
        sys.exit(f"perfbench: imported itmflow from {itmflow.__file__}, not from {SRC}")
    return itmflow


class Tally:
    """Latencies and checked outcomes of one series of ops."""

    def __init__(self, meter):
        self.meter = meter
        self.requests = []
        self.raw = []
        self.at = []
        self.failed = 0
        self.shear_err = 0.0
        self.signatures = {}
        self.deterministic = True

    def add(self, req, raw, at, outcome):
        self.requests.append(req)
        self.raw.append(raw)
        self.at.append(at)
        self.failed += not outcome.ok
        if outcome.wall_shear_err is not None:
            self.shear_err = max(self.shear_err, outcome.wall_shear_err)
        first = self.signatures.setdefault(req, outcome.signature)
        self.deterministic &= first == outcome.signature

    @property
    def attempted(self):
        return len(self.raw)

    def seconds(self):
        """Op times at nominal machine speed."""
        return [raw / self.meter.factor(at) for raw, at in zip(self.raw, self.at)]

    def latencies(self):
        """Each op's latency: the median time of its request over the run.

        On a shared machine a single op can be slowed by 10 % or more; the
        median over the repeats of the same request removes that, so that
        the percentiles rank requests rather than noise.
        """
        by_request = {}
        for req, seconds in zip(self.requests, self.seconds()):
            by_request.setdefault(req, []).append(seconds)
        medians = {req: statistics.median(v) for req, v in by_request.items()}
        return [medians[req] for req in self.requests]


class Runner:
    """Executes one request, untraced or traced, and checks its output.

    Every op is followed by a speed sample; ``run`` returns the op's raw
    time, the index of that sample and the checked outcome.
    """

    def __init__(self, workload, meter):
        import tracing
        import workloads
        self.tracing, self.workloads = tracing, workloads
        self.meter = meter
        self.cli = workload == "cli"
        self.env = workloads.child_env(ROOT)
        self.tracer = tracing.Tracer()
        self.traced_ops = []
        self.first_stdout = {}
        self.peak_child_mb = 0.0

    def run(self, req, traced=False):
        first_span = len(self.tracer.spans)
        if self.cli:
            raw, outcome = self._cli(req, traced)
        elif traced:
            with self.tracing.instrument(self.tracer) as api:
                raw, outcome = self._library(req, api)
        else:
            raw, outcome = self._library(req, self.tracing.PLAIN_API)
        at = self.meter.sample()
        if traced:
            self.traced_ops.append((first_span, len(self.tracer.spans), at))
        return raw, at, outcome

    def _library(self, req, api):
        t0 = time.perf_counter()
        try:
            result = self.workloads.call_library(req, api)
        except self.workloads.SOLVE_ERRORS as exc:
            result = exc
        raw = time.perf_counter() - t0
        return raw, self.workloads.check_library(req, result)

    def _cli(self, req, traced):
        wl = self.workloads
        cmd = ([sys.executable, os.path.join(HERE, "traced_cli.py"), *req.params] if traced
               else wl.cli_command(req.params))
        t0 = time.perf_counter()
        status, out, err, rss_mb = wl.run_child(cmd, self.env, ROOT)
        raw = time.perf_counter() - t0
        if traced:
            record = json.loads(out)
            self.tracer.extend(record["spans"])
            status, out = record["status"], record["stdout"]
        else:
            self.peak_child_mb = max(self.peak_child_mb, rss_mb)
        if status != 0:
            print(f"perfbench: {' '.join(req.params)} exited {status}: {err.strip()}",
                  file=sys.stderr)
        first = self.first_stdout.setdefault(req.params, out)
        return raw, wl.check_cli(req.params, status, out, first)


def _rescale(spans, ops, meter):
    """Put each op's spans, given as (first span, end span, speed sample), at nominal speed."""
    for first, end, at in ops:
        factor = meter.factor(at)
        for span in spans[first:end]:
            span.start /= factor
            span.end /= factor


def _passes(pool, seconds, step, min_ops=1, min_passes=1):
    """Call ``step(count, request)`` over whole passes of the pool; ``count`` numbers the calls.

    Stops after the first pass that ends once ``seconds`` have elapsed, at
    least ``min_ops`` requests were run and ``min_passes`` passes are done;
    returns the number of passes.
    """
    start = time.perf_counter()
    done = passes = 0
    while True:
        for req in pool:
            step(done, req)
            done += 1
        passes += 1
        if (time.perf_counter() - start >= seconds and done >= min_ops
                and passes >= min_passes):
            return passes


def _setup_seconds(workload, env, runs):
    """Median set-up time (import itmflow + warm-up) over fresh interpreters, at nominal speed."""
    samples = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"), workload],
                             env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _percentile_ms(seconds, q):
    """The ``q``-th percentile in ms, smoothed: the mean of percentiles ``q - 3`` to ``q + 3``.

    The pools hold clusters of near-identical requests (the same failure at
    the same probe); a plain percentile that falls on the edge of a cluster
    jumps across the gap when the cluster gains or loses one request.
    """
    cuts = statistics.quantiles(seconds, n=100)
    return statistics.fmean(cuts[q - 4:q + 3]) * 1e3


def _start_costs(runner):
    """Median bare interpreter start and ``import itmflow`` cost in ms, at nominal speed."""
    timings = {"pass": [], "import itmflow": []}
    wl, meter = runner.workloads, runner.meter
    for _ in range(CALIBRATION_RUNS):
        for code, out in timings.items():
            t0 = time.perf_counter()
            status, _, err, _ = wl.run_child([sys.executable, "-c", code], runner.env, ROOT)
            out.append((time.perf_counter() - t0, meter.sample()))
            if status != 0:
                sys.exit(f"perfbench: python -c {code!r} failed: {err}")
    bare, imported = (statistics.median(raw / meter.factor(at) for raw, at in out) * 1e3
                      for out in timings.values())
    return bare, imported - bare


def measure_end_to_end(args, runner, pool):
    tally = Tally(runner.meter)
    passes = _passes(pool, args.seconds, lambda _, req: tally.add(req, *runner.run(req)),
                     1 if args.smoke else MIN_OPS, 1 if args.smoke else MIN_PASSES)
    latencies = tally.latencies()
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_ms.p50": _percentile_ms(latencies, 50),
        "op_ms.p90": _percentile_ms(latencies, 90),
        "ops_per_s": tally.attempted / sum(latencies),
        "ok_share": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": runner.peak_child_mb if runner.cli else own_rss,
    }
    report = {"passes": passes,
              "fail_share": tally.failed / tally.attempted,
              "wall_shear_abs_err": tally.shear_err,
              "samples_beyond_p90": sum(s * 1e3 > metrics["op_ms.p90"] for s in latencies),
              "raw_op_ms.p50": _percentile_ms(tally.raw, 50),
              "raw_op_ms.p90": _percentile_ms(tally.raw, 90),
              "speed_factor.median": statistics.median(runner.meter.factor(at) for at in tally.at)}
    return tally, metrics, report


def measure_layers(args, runner, pool):
    tracing, wl, meter = runner.tracing, runner.workloads, runner.meter
    plain, traced = Tally(meter), Tally(meter)

    def step(count, req):
        # Alternate which of the pair runs first, so drift hits both alike.
        for is_traced in ((False, True) if count % 2 == 0 else (True, False)):
            (traced if is_traced else plain).add(req, *runner.run(req, is_traced))

    passes = _passes(pool, args.seconds, step)

    reference = tracing.Tracer()
    ref_ops, ref_seconds = [], []
    for req in wl.REFERENCE_OPS:
        first = len(reference.spans)
        t0 = time.perf_counter()
        if req.kind == "inproc_cli":
            tracing.traced_cli_main(reference, req.params)
        else:
            with tracing.instrument(reference) as api:
                try:
                    wl.call_library(req, api)
                except wl.SOLVE_ERRORS:
                    pass
        ref_seconds.append(time.perf_counter() - t0)
        ref_ops.append((first, len(reference.spans), meter.sample()))
    rhs_cost = tracing.rhs_costs(meter)
    interp_ms, import_ms = _start_costs(runner)

    _rescale(runner.tracer.spans, runner.traced_ops, meter)
    own = tracing.layer_metrics(runner.tracer.spans, traced.attempted, sum(traced.seconds()),
                                rhs_cost)
    _rescale(reference.spans, ref_ops, meter)
    ref = tracing.layer_metrics(reference.spans, len(ref_ops),
                                sum(raw / meter.factor(at)
                                    for raw, (_, _, at) in zip(ref_seconds, ref_ops)),
                                rhs_cost)

    metrics = tracing.merge(own, ref)
    metrics.update({
        "models.rhs3_us": rhs_cost[3],
        "models.rhs6_us": rhs_cost[6],
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_share": sum(traced.latencies()) / sum(plain.latencies()) - 1.0,
        "fail_share": traced.failed / traced.attempted,
        "wall_shear_abs_err": traced.shear_err,
    })
    missing = [name for name in PER_LAYER if metrics.get(name) is None]
    if missing:
        sys.exit(f"perfbench: no measurement for {', '.join(missing)}")
    report = {"passes": passes, "untraced_fail_share": plain.failed / plain.attempted}
    plain.deterministic &= plain.signatures == traced.signatures
    return traced, plain, {k: metrics[k] for k in PER_LAYER}, report


def main(argv=None):
    args = _parse_args(argv)
    itmflow = _import_itmflow()
    import numpy
    import speed
    import workloads

    pool = workloads.make_pool(args.workload, args.seed, args.smoke)
    meter = speed.SpeedMeter("python" if args.workload == "cli" else "numpy")
    runner = Runner(args.workload, meter)
    if not args.trace:
        setup_s = _setup_seconds(args.workload, runner.env, 1 if args.smoke else SETUP_RUNS)

    workloads.warm_up(args.workload)
    if runner.cli:
        for argv_ in workloads.CLI_COMMANDS:
            workloads.run_child(workloads.cli_command(argv_), runner.env, ROOT)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "pool_size": len(pool), "python": platform.python_version(),
            "numpy": numpy.__version__, "backend": itmflow.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "smoke": args.smoke}
    if args.trace:
        tally, plain, metrics, report = measure_layers(args, runner, pool)
        correct = tally.deterministic and plain.deterministic
        units = PER_LAYER
    else:
        tally, metrics, report = measure_end_to_end(args, runner, pool)
        metrics["setup_s"] = setup_s
        correct = tally.deterministic
        units = END_TO_END
    report["attempted"], report["failed"] = tally.attempted, tally.failed

    print("# perfbench " + json.dumps(meta, sort_keys=True))
    for name, value in sorted(report.items()):
        print(f"#   {name:<28} {value}")
    for name in units:
        print(f"{name:<28} {metrics[name]:>16.6g} {units[name]}")
    if not correct:
        print("perfbench: a repeated request gave a different result", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
