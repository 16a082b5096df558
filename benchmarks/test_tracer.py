"""Self-test of the benchmark's tracer on small instances.

    python3 -m pytest benchmarks/test_tracer.py
"""

import pytest

from calibrate import Clock
from run import Tally, check_namespaces, namespaces, run_instance
from tracer import Tracer
from workloads import Program, Workload, decimal


def _small_lin(prog, s):
    return prog.modules["random_instances"].gen_random(6, 6, 20, 100, s)


def _small_quad(prog, s):
    return prog.modules["random_instances"].gen_random(5, 5, 20, 100, s, quadratic=True)


def _small_dec(prog, s):
    return decimal(prog, _small_lin(prog, s))


@pytest.fixture(scope="module")
def prog():
    return Program()


@pytest.mark.parametrize(
    "mode, make", [("integer", _small_lin), ("integer", _small_quad), ("real", _small_dec)]
)
def test_traced_run_matches_untraced(prog, mode, make):
    wl = Workload("small", mode, 12, 12, make)
    texts = wl.texts(prog, 0)
    before = namespaces(prog)
    plain, traced, tracer, clock = Tally(), Tally(), Tracer(), Clock()
    for i, text in enumerate(texts):
        a = run_instance(prog, wl, i, text, plain, clock)
        check_namespaces(prog, before)  # the untraced run rebinds nothing
        with tracer.installed(prog.modules):
            b = run_instance(prog, wl, i, text, traced, clock, tracer)
        for solver in a:
            x, y = a[solver], b[solver]
            assert (x.status, x.lam, x.x, x.iterations, x.trace) == (
                y.status, y.lam, y.x, y.iterations, y.trace
            )
    assert plain.status["optimal"] > 0 and plain.status["infeasible"] > 0
    assert plain.status == traced.status and traced.failed == 0

    check_namespaces(prog, before)  # no rebound name is left behind

    # self time plus the children's wall time is each span's wall time
    for s in tracer.spans:
        kids = [tracer.spans[c] for c in s.children]
        assert tracer.self_ms(s) + sum(c.ms for c in kids) == pytest.approx(s.ms, abs=1e-9)
        assert tracer.self_ms(s) >= 0
        assert all(s.start <= c.start <= c.end <= s.end for c in kids)
        assert all(c.request == s.request for c in kids)
    roots = [s for s in tracer.spans if s.parent is None]
    assert {s.name for s in roots} <= {"request.solve.bisect", "request.solve.newton", "request.certify"}
    total_self = sum(ms for _, ms in tracer.totals().values())
    assert total_self == pytest.approx(sum(s.ms * tracer.scale[s.request] for s in roots))
    names = {s.name for s in tracer.spans}
    assert {"io.parse_problem", "games.solve_arena.probe", "games.feasible_finite"} <= names
