"""tropopt benchmark: seeded solve and certify requests in one process.

    python3 benchmarks/run.py --workload lin-int-d25 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its src/.
A closed loop with one client: each instance of the workload's seeded pool
gets a bisection and a Newton solve request, and an optimal instance then
gets a certify request, one request at a time.  Every answer is checked.
With --trace 0 the loop cycles the pool for --seconds, and through all of
it at least once, and the end-to-end metrics are printed; an operation
(one request on one instance) that runs more than once is counted once,
with the median of its latencies, so `attempted` and `failed` depend only
on the seed.  With --trace 1 a fixed number of instances are each run once
untraced and once traced, and the per-layer metrics are printed.  Times are
scaled to a reference speed (see calibrate.py).  The last line of stdout is
one JSON object; diagnostics go to stderr.  See NOTES.md in this directory.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

from calibrate import Clock  # noqa: E402
from tracer import BINDINGS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    AnswerMismatch,
    CertificateRejected,
    Program,
    certify_request,
    check_outcome,
    cross_check,
    solve_request,
)

SETUPS = 3
TAIL_PCT = 75
FAIL_TYPES = ("EngineError", "AssertionError", "OverflowError", "AnswerMismatch", "CertificateRejected")
WRONG_ANSWERS = ("AnswerMismatch", "CertificateRejected")
SOLVERS = ("bisect", "newton")
CLASSES = ("bisect", "newton", "infeasible", "certify")


def percentile(xs, q):
    """Linear interpolation between closest ranks."""
    s = sorted(xs)
    k = (len(s) - 1) * q / 100
    f = math.floor(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


class Tally:
    """Operations, their latency samples (scaled ms) and their failures.

    An operation is one request on one instance of the pool, keyed by
    (instance index, request).  The timed loop may run an operation more
    than once; every run is a latency sample of the same operation, and the
    operation has failed if any run failed.  So `attempted` and `failed`
    depend only on the pool, not on how far the loop got."""

    def __init__(self):
        self.ops = {}  # (instance, request) -> _Op
        self.statuses = {}  # instance -> Newton's (or bisection's) status
        self.solve_s = 0.0
        self.solves_ok = 0
        self.iterations = {s: [] for s in SOLVERS}

    def record(self, key, cls, ms, err):
        op = self.ops.setdefault(key, _Op(cls))
        op.ms.append(ms)
        if op.err is None:
            op.err = err

    def class_ms(self, cls):
        """One latency per operation of the class: the median of its runs,
        so that every instance of the pool weighs the same."""
        return [statistics.median(op.ms) for op in self.ops.values() if op.cls == cls]

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def fails(self):
        return Counter(type(op.err).__name__ for op in self.ops.values() if op.err is not None)

    @property
    def fails_by_class(self):
        return Counter(f"{op.cls}:{type(op.err).__name__}" for op in self.ops.values() if op.err is not None)

    @property
    def status(self):
        return Counter(self.statuses.values())

    @property
    def solves_per_s(self):
        return self.solves_ok / self.solve_s

    @property
    def failed(self):
        return sum(self.fails.values())

    @property
    def correct(self):
        return not any(self.fails[t] for t in WRONG_ANSWERS)


@dataclass
class _Op:
    cls: str
    ms: list = field(default_factory=list)
    err: Exception | None = None


@dataclass
class _Attempt:
    out: object
    err: Exception | None
    ms: float


def timed(clock, tracer, name, fn):
    """(result, error, scaled ms) of one request; a failure is returned,
    not raised, and keeps its elapsed time."""
    span = None
    res = err = None
    t0 = perf_counter()
    try:
        if tracer is None:
            res = fn()
        else:
            with tracer.span(name) as span:
                res = fn()
    except Exception as e:  # counted by the caller, never fatal
        err = e
    wall = perf_counter() - t0
    f = clock.factor()
    if span is not None:
        tracer.scale[span.request] = f
    return res, err, wall * 1000.0 * f


def run_instance(prog, wl, i, text, tally, clock, tracer=None):
    """Solve requests, checks and (if optimal) the certify request for
    instance i of the pool; returns {solver: outcome or None}."""
    att = {}
    for solver in SOLVERS:
        res, err, ms = timed(
            clock, tracer, f"request.solve.{solver}",
            lambda: solve_request(prog, text, solver, wl.mode),
        )
        out = res[1] if res is not None else None
        if err is None:
            try:
                check_outcome(prog, res[0], out)
            except AnswerMismatch as e:
                err = e
        att[solver] = _Attempt(out, err, ms)
    bis, newt = att["bisect"], att["newton"]
    if bis.err is None and newt.err is None:
        try:
            cross_check(bis.out, newt.out, wl.mode)
        except AnswerMismatch as e:
            bis.err = e
    # Newton is exact in both modes, so its answer classifies the instance.
    ref = newt if newt.err is None else bis if bis.err is None else None
    status = ref.out.status if ref is not None else None
    for solver, a in att.items():
        tally.record((i, solver), "infeasible" if status == "infeasible" else solver, a.ms, a.err)
        tally.solve_s += a.ms / 1000.0
        if a.err is None:
            tally.solves_ok += 1
            if a.out.status == "optimal":
                tally.iterations[solver].append(a.out.iterations)
    tally.statuses.setdefault(i, status or "unknown")
    if status == "optimal":
        verdict, err, ms = timed(
            clock, tracer, "request.certify",
            lambda: certify_request(prog, text, ref.out.lam.value),
        )
        if err is None and verdict != (True, False):
            err = CertificateRejected(f"optimal, unbounded = {verdict}")
        tally.record((i, "certify"), "certify", ms, err)
    return {s: a.out for s, a in att.items()}


def setup(wl, seed):
    """Fresh import, instance generation, JSON dump, one warm-up request.

    The warm-up instance does not depend on the seed, so its cost is the
    same in every run."""
    prog = Program()
    texts = wl.texts(prog, seed)
    warm = prog.io.dump_problem(wl.make(prog, 0))
    try:
        solve_request(prog, warm, "newton", wl.mode)
    except Exception:  # the measured requests record any failure
        pass
    return prog, texts


def namespaces(prog):
    return {k: dict(vars(m)) for k, m in prog.modules.items()}


def check_namespaces(prog, before):
    """Every module attribute is the object it was before the run."""
    for k, m in prog.modules.items():
        now = vars(m)
        for attr, val in before[k].items():
            if now.get(attr) is not val:
                raise RuntimeError(f"tropopt.{k}.{attr} was left rebound")


def timed_loop(prog, wl, texts, seconds, clock):
    """Cycles the pool for `seconds`, and through all of it at least once."""
    tally = Tally()
    n = 0
    t_end = perf_counter() + seconds
    while n < len(texts) or perf_counter() < t_end:
        i = n % len(texts)
        run_instance(prog, wl, i, texts[i], tally, clock)
        n += 1
    return tally, n


def end_to_end(tally, setups):
    m = {"setup_s": (statistics.median(setups), "s")}
    for cls in CLASSES:
        ms = tally.class_ms(cls)
        if not ms:
            raise RuntimeError(f"no {cls} samples in this run")
        m[f"{cls}_ms_p50"] = (percentile(ms, 50), "ms")
    m["ok_frac"] = (1.0 - tally.failed / tally.attempted, "ratio")
    return m


def traced_run(prog, wl, texts, clock):
    """Each instance once untraced, then once traced; returns the two
    tallies and the tracer."""
    plain, traced, tracer = Tally(), Tally(), Tracer()
    for i, text in enumerate(texts[: wl.trace_instances]):
        run_instance(prog, wl, i, text, plain, clock)
        with tracer.installed(prog.modules):
            run_instance(prog, wl, i, text, traced, clock, tracer)
    return plain, traced, tracer


def per_layer(plain, traced, tracer, k):
    totals = tracer.totals()
    m = {}
    for name in BINDINGS:
        calls, self_ms = totals.get(name, (0, 0.0))
        m[f"{name}.calls"] = (calls / k, "count")
        m[f"{name}.self_ms"] = (self_ms / k, "ms")
    m["games.feasible_finite.fallback_frac"] = (tracer.fallback_frac(), "ratio")
    probe_calls, probe_ms = totals.get("games.solve_arena.probe", (0, 0.0))
    m["games.solve_arena.probe.ms_per_call"] = (probe_ms / probe_calls if probe_calls else 0.0, "ms")
    for solver in SOLVERS:
        its = traced.iterations[solver]
        m[f"solver.{solver}.iterations_mean"] = (sum(its) / len(its) if its else 0.0, "count")
    for st in ("optimal", "infeasible", "unbounded"):
        m[f"status.{st}"] = (traced.status[st], "count")
    for t in FAIL_TYPES:
        m[f"fail.{t}"] = (traced.fails[t], "count")
    m["fail.other"] = (sum(c for t, c in traced.fails.items() if t not in FAIL_TYPES), "count")
    m["failed_frac"] = (traced.failed / traced.attempted, "ratio")
    m["solves_per_s"] = (plain.solves_per_s, "1/s")
    m["trace.overhead_frac"] = (traced.solve_s / plain.solve_s - 1.0, "ratio")
    return m


def report(tally, n_runs, clock):
    """Sample counts, tail latencies and throughput, for reading only."""
    tails = {cls: f"{len(v)}@{percentile(v, TAIL_PCT):.1f}" for cls in CLASSES if (v := tally.class_ms(cls))}
    print(
        f"instance_runs={n_runs} pool={len(tally.statuses)} ops@p{TAIL_PCT}_ms={tails} "
        f"solves_per_s={tally.solves_per_s:.3f} attempted={tally.attempted} "
        f"failed={dict(tally.fails_by_class)} status={dict(tally.status)} "
        f"reference_loop_ms_p50={statistics.median(clock.ref_ms):.3f}",
        file=sys.stderr,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    clock = Clock()
    setups = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        prog, texts = setup(wl, args.seed)
        setups.append((perf_counter() - t0) * clock.factor())
    before = namespaces(prog)
    if args.trace:
        plain, tally, tracer = traced_run(prog, wl, texts, clock)
        check_namespaces(prog, before)
        report(tally, wl.trace_instances, clock)
        metrics = per_layer(plain, tally, tracer, wl.trace_instances)
        correct = plain.correct and tally.correct
    else:
        tally, n = timed_loop(prog, wl, texts, args.seconds, clock)
        check_namespaces(prog, before)
        report(tally, n, clock)
        metrics = end_to_end(tally, setups)
        correct = tally.correct
    doc = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
