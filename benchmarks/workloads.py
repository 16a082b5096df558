"""Seeded workloads, the two request kinds, and the answer checks.

A solve request is the `tropopt solve --trace` path: parse_problem, one
solver, format_outcome(include_trace=True).  A certify request is the
`tropopt certify` path at a level: parse_problem, optimality_certificate +
certify_optimal, then unboundedness_certificate + certify_unbounded.
Every call goes through a module attribute of the Program, so the tracer's
rebinding sees it.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("io", "pseudolinear", "pseudoquadratic", "games", "matrix", "random_instances", "semiring")


class AnswerMismatch(Exception):
    """A solve answer failed a cross-check or a re-check of its point."""


class CertificateRejected(Exception):
    """The certify request did not return optimal=True, unbounded=False."""


class Program:
    """The tropopt modules of one fresh import from the checkout's src/."""

    def __init__(self):
        init = SRC / "tropopt" / "__init__.py"
        if not init.is_file():
            raise FileNotFoundError(f"no package source at {init}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules if m == "tropopt" or m.startswith("tropopt.")]:
            del sys.modules[name]
        pkg = importlib.import_module("tropopt")
        if Path(pkg.__file__).resolve() != init:
            raise ImportError(f"tropopt imported from {pkg.__file__}, not {init}")
        self.modules = {m: importlib.import_module(f"tropopt.{m}") for m in MODULES}
        self.io = self.modules["io"]
        self.pl = self.modules["pseudolinear"]
        self.pq = self.modules["pseudoquadratic"]
        # Bound now, before any tracing, so checks record no spans.
        self._objective = self.pl.objective
        self._objective_quad = self.pq.objective_quad
        self._mat_vec_mul = self.modules["matrix"].mat_vec_mul
        self._tmax = self.modules["semiring"].tmax
        self._fin = self.modules["semiring"].fin


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    pool: int  # instances generated at set-up; the timed loop cycles them, all at least once
    trace_instances: int  # instances in each pass of a traced run
    make: object  # (Program, instance seed) -> problem

    def texts(self, prog: Program, seed: int):
        return [prog.io.dump_problem(self.make(prog, seed * 1000003 + i)) for i in range(self.pool)]


def _lin_int(prog, s):
    return prog.modules["random_instances"].gen_random(25, 25, 500, 100, s)


def _quad_int(prog, s):
    return prog.modules["random_instances"].gen_random(10, 10, 500, 100, s, quadratic=True)


def decimal(prog, p):
    """p with every finite entry divided by 100: two-decimal rationals."""
    fin, TropMatrix = prog._fin, prog.modules["matrix"].TropMatrix

    def sc(e):
        return fin(e.value / 100) if e.is_finite else e

    def mat(M):
        return TropMatrix([[sc(e) for e in row] for row in M.data], "max")

    vecs = [[sc(e) for e in v] for v in (p.b, p.d, p.p, p.q)]
    return prog.pl.PseudolinearProblem(mat(p.U), mat(p.V), *vecs)


def _lin_dec(prog, s):
    return decimal(prog, prog.modules["random_instances"].gen_random(20, 20, 50000, 100, s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lin-int-d25", "integer", 60, 28, _lin_int),
        Workload("quad-int-d10", "integer", 200, 110, _quad_int),
        Workload("lin-dec-d20", "real", 64, 40, _lin_dec),
    )
}

# Real-mode bisection stops within this of the optimum (its default tol).
REAL_TOL = Fraction(1, 10**6)


def solve_request(prog: Program, text: str, solver: str, mode: str):
    """(problem, outcome) of one solve request; solver is bisect or newton."""
    prob = prog.io.parse_problem(text)
    if isinstance(prob, prog.pl.PseudolinearProblem):
        fn = prog.pl.bisection_solve if solver == "bisect" else prog.pl.newton_solve
    else:
        fn = prog.pq.bisection_solve_quad if solver == "bisect" else prog.pq.newton_solve_quad
    out = fn(prob, mode=mode)
    prog.io.format_outcome(out, include_trace=True)
    return prob, out


def certify_request(prog: Program, text: str, lam: Fraction):
    """(optimal, unbounded) verdicts of the certify sequence at lam."""
    prob = prog.io.parse_problem(text)
    tau = prog.pl.optimality_certificate(prob, lam)
    opt = tau is not None and prog.pl.certify_optimal(prob, lam, tau)
    sig = prog.pl.unboundedness_certificate(prob)
    unb = sig is not None and prog.pl.certify_unbounded(prob, sig)
    return opt, unb


def check_outcome(prog: Program, prob, out):
    """An optimal answer's point is feasible and attains lam."""
    if out.status not in ("optimal", "infeasible", "unbounded"):
        raise AnswerMismatch(f"unknown status {out.status!r}")
    if out.status != "optimal":
        return
    fin, tmax, mv = prog._fin, prog._tmax, prog._mat_vec_mul
    x = [fin(v) for v in out.x]
    if isinstance(prob, prog.pl.PseudolinearProblem):
        f = prog._objective(prob, x)
    else:
        f = prog._objective_quad(prob, x)
    if f != out.lam:
        raise AnswerMismatch(f"objective(x) = {f} but lam = {out.lam}")
    lhs = [tmax(a, b) for a, b in zip(mv(prob.U, x), prob.b)]
    rhs = [tmax(a, d) for a, d in zip(mv(prob.V, x), prob.d)]
    if not all(a <= c for a, c in zip(lhs, rhs)):
        raise AnswerMismatch("x violates U x + b <= V x + d")


def cross_check(bis, newt, mode: str):
    """The two solvers agree: same status; on optimal, the same lam in
    integer mode and bisection within REAL_TOL above Newton in real mode."""
    if bis.status != newt.status:
        raise AnswerMismatch(f"status {bis.status} (bisect) vs {newt.status} (newton)")
    if bis.status != "optimal":
        return
    lo = newt.lam.value
    hi = lo if mode == "integer" else lo + REAL_TOL
    if not lo <= bis.lam.value <= hi:
        raise AnswerMismatch(f"lam {bis.lam} (bisect) vs {newt.lam} (newton)")
