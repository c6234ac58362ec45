"""Spans and work counters recorded around the calls into each itmflow module.

Nothing inside ``itmflow`` is changed.  :func:`instrument` swaps, for the
duration of a ``with`` block, the module attributes that itmflow's own code
resolves at call time:

* ``itmflow.solver.integrate_adaptive`` -- every starred IVP of the
  root-finders, of Topfer's reduction and of the scan (``scan`` reaches the
  integrator through ``solver._evaluate``);
* ``itmflow.solver.rescale_trajectory`` and
  ``itmflow.solver.GammaEvaluation.from_far_field`` -- the transform layer;
* ``itmflow.cli.solve_sakiadis`` / ``solve_blasius_topfer`` / ``scan`` --
  the solver and scan calls made by the command-line front end.

Spans are kept in memory as :class:`Span` records and aggregated by
:func:`layer_metrics` when the run ends.
"""

import contextlib
import io
import statistics
import time

import numpy as np

import itmflow
import itmflow.cli
import itmflow.solver

IVP = "ode.ivp"
SAKIADIS = "solver.sakiadis"
TOPFER = "solver.topfer"
SCAN = "scan.scan"
CLI_MAIN = "cli.main"
RESCALE = "transform.rescale_trajectory"
FAR_FIELD = "transform.from_far_field"


class Span:
    """One timed call: name, start/end (perf_counter seconds), parent index, attributes."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent, attrs):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def export(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def load(cls, row, offset):
        name, start, end, parent, attrs = row
        span = cls(name, None if parent is None else parent + offset, attrs)
        span.start, span.end = start, end
        return span


class Tracer:
    """In-memory span recorder; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = Span(name, self._open[-1] if self._open else None, attrs)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException:
            record.attrs["error"] = True
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def export(self) -> list:
        return [s.export() for s in self.spans]

    def extend(self, rows) -> None:
        """Append spans exported by another tracer (from a child process)."""
        offset = len(self.spans)
        self.spans.extend(Span.load(row, offset) for row in rows)


class CountingRhs:
    """Right-hand side wrapper that counts calls and classifies step attempts.

    The adaptive step-doubling RK4 driver evaluates the rhs once at the
    start, ten times per step attempt, and once more at each accepted point.
    The call that follows an attempt lies beyond the attempt's first stage
    (at eta + h/2) only when the step was accepted: it is then the new k1 at
    eta + h, while after a rejection it is the next attempt's first stage at
    eta + h'/2 with h' < h.
    """

    __slots__ = ("rhs", "calls", "attempts", "accepted", "_phase", "_first_eta")

    def __init__(self, rhs):
        self.rhs = rhs
        self.calls = self.attempts = self.accepted = 0
        self._phase = -1
        self._first_eta = 0.0

    def __call__(self, eta, y):
        self.calls += 1
        phase = self._phase
        if phase < 0:
            self._phase = 0
        elif phase == 10 and eta > self._first_eta:
            self.accepted += 1
            self._phase = 0
        else:
            if phase == 0 or phase == 10:
                self.attempts += 1
                self._first_eta = eta
                phase = 0
            self._phase = phase + 1
        return self.rhs(eta, y)


class _Api:
    """The library entry points an op calls; traced or plain."""

    def __init__(self, solve_sakiadis, solve_blasius_topfer, scan):
        self.solve_sakiadis = solve_sakiadis
        self.solve_blasius_topfer = solve_blasius_topfer
        self.scan = scan


PLAIN_API = _Api(itmflow.solve_sakiadis, itmflow.solve_blasius_topfer, itmflow.scan)


def _spanned(tracer, name, func):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch itmflow's call-time names to record spans; yield the traced :class:`_Api`."""
    integrate = itmflow.solver.integrate_adaptive
    gamma_evaluation = itmflow.solver.GammaEvaluation

    def traced_integrate(spec, control=None):
        counter = CountingRhs(spec.system.rhs)
        wrapped = itmflow.IvpSpec(spec.start, spec.end, spec.initial_state,
                                  itmflow.OdeSystem(rhs=counter, dim=spec.system.dim))
        traj = None
        try:
            with tracer.span(IVP, dim=spec.system.dim) as span:
                traj = integrate(wrapped, control)
        finally:
            # A returned trajectory gives the accepted count exactly; a failed
            # IVP returns nothing, so its count comes from the call pattern.
            accepted = counter.accepted if traj is None else len(traj) - 1
            span.attrs.update(calls=counter.calls, accepted=accepted,
                              rejected=counter.attempts - accepted)
        return traj

    class TracedGammaEvaluation:
        from_far_field = staticmethod(
            _spanned(tracer, FAR_FIELD, gamma_evaluation.from_far_field))

    api = _Api(_spanned(tracer, SAKIADIS, itmflow.solve_sakiadis),
               _spanned(tracer, TOPFER, itmflow.solve_blasius_topfer),
               _spanned(tracer, SCAN, itmflow.scan))
    patches = [
        (itmflow.solver, "integrate_adaptive", traced_integrate),
        (itmflow.solver, "rescale_trajectory",
         _spanned(tracer, RESCALE, itmflow.solver.rescale_trajectory)),
        (itmflow.solver, "GammaEvaluation", TracedGammaEvaluation),
        (itmflow.cli, "solve_sakiadis", api.solve_sakiadis),
        (itmflow.cli, "solve_blasius_topfer", api.solve_blasius_topfer),
        (itmflow.cli, "scan", api.scan),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        yield api
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def run_cli_main(argv) -> tuple[int, str]:
    """``itmflow.cli.main(argv)`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = itmflow.cli.main(list(argv))
    return status, buf.getvalue()


def traced_cli_main(tracer, argv) -> tuple[int, str]:
    """:func:`run_cli_main` inside a ``cli.main`` span, with itmflow instrumented."""
    with instrument(tracer), tracer.span(CLI_MAIN):
        return run_cli_main(argv)


def per_call_us(func, dim, meter, calls=2000, batches=7) -> float:
    """Median per-call cost of ``func(eta, y)`` in microseconds at nominal speed."""
    y = np.linspace(0.1, 0.6, dim)
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            func(1.0, y)
        costs.append(((time.perf_counter() - t0) / calls * 1e6, meter.sample()))
    return statistics.median(cost / meter.factor(at) for cost, at in costs)


def rhs_costs(meter) -> dict:
    """Per-call cost of both model right-hand sides, bare and behind :class:`CountingRhs`."""
    out = {}
    for dim, system in ((3, itmflow.SIMILARITY_SYSTEM), (6, itmflow.AUGMENTED_SYSTEM)):
        out[dim] = per_call_us(system.rhs, dim, meter)
        out[("wrapped", dim)] = per_call_us(CountingRhs(system.rhs), dim, meter)
    return out


def _direct_children(spans, index, names):
    return [s for s in spans if s.parent == index and s.name in names]


def _mean(values):
    return sum(values) / len(values) if values else None


def layer_metrics(spans, n_ops, op_seconds, rhs_cost) -> dict:
    """Per-module metrics from one set of traced ops.

    ``n_ops`` and ``op_seconds`` are the number of ops and their total traced
    time; ``rhs_cost`` is :func:`rhs_costs`.  A metric whose calls never
    happened in these spans is ``None``.
    """
    ivps = [s for s in spans if s.name == IVP]
    ivp_time = sum(s.duration for s in ivps)
    failed = [s for s in ivps if s.attrs.get("error")]
    calls = sum(s.attrs["calls"] for s in ivps)
    driver_time = sum(s.duration - s.attrs["calls"] * rhs_cost[("wrapped", s.attrs["dim"])] * 1e-6
                      for s in ivps)
    m = {
        "ode.ivp_calls": len(ivps) / n_ops,
        "ode.rhs_evals": calls / n_ops,
        "ode.steps_accepted": sum(s.attrs["accepted"] for s in ivps) / n_ops,
        "ode.steps_rejected": sum(s.attrs["rejected"] for s in ivps) / n_ops,
        "ode.failed_ivps": len(failed) / n_ops,
        "ode.time_share": ivp_time / op_seconds,
        "ode.failed_ivp_time_share": (sum(s.duration for s in failed) / ivp_time
                                      if ivps else None),
        "ode.us_per_rhs_eval": driver_time / calls * 1e6 if calls else None,
        "transform.ms_per_op": sum(s.duration for s in spans
                                   if s.name in (RESCALE, FAR_FIELD)) / n_ops * 1e3,
    }
    for dim in (3, 6):
        m[f"ode.ivp{dim}_ms"] = _mean([s.duration * 1e3 for s in ivps if s.attrs["dim"] == dim])

    def self_ms(name, child_names):
        return _mean([(s.duration - sum(c.duration
                                        for c in _direct_children(spans, i, child_names))) * 1e3
                      for i, s in enumerate(spans) if s.name == name])

    solves = [i for i, s in enumerate(spans) if s.name == SAKIADIS]
    m["solver.probes"] = _mean([len(_direct_children(spans, i, (IVP,))) for i in solves])
    m["solver.self_ms"] = self_ms(SAKIADIS, (IVP,))
    m["solver.topfer_ms"] = _mean([s.duration * 1e3 for s in spans if s.name == TOPFER])

    scans = [i for i, s in enumerate(spans) if s.name == SCAN]
    probes = [c for i in scans for c in _direct_children(spans, i, (IVP, FAR_FIELD))]
    n_probes = sum(1 for c in probes if c.name == IVP)
    m["scan.probes"] = n_probes / len(scans) if scans else None
    m["scan.failed_probe_share"] = (sum(1 for c in probes if c.attrs.get("error")) / n_probes
                                    if n_probes else None)
    m["scan.self_ms"] = self_ms(SCAN, (IVP,))

    m["cli.main_ms"] = _mean([s.duration * 1e3 for s in spans if s.name == CLI_MAIN])
    m["cli.render_ms"] = self_ms(CLI_MAIN, (SAKIADIS, TOPFER, SCAN))
    return m


def merge(own: dict, reference: dict) -> dict:
    """``own`` metrics, with any the workload's ops could not produce taken from ``reference``."""
    return {k: (own[k] if own.get(k) is not None else reference.get(k))
            for k in own.keys() | reference.keys()}
