"""Dump every answer of the solvers and certificates on a fixed corpus.

    python3 tools/dump_answers.py --out answers.txt
    python3 tools/dump_answers.py --out answers.txt --count 20 --family lin-int

The package is imported from the src/ next to this script, so two
checkouts dump their own answers; `cmp` of the two files then shows
whether a change kept every answer byte for byte.  One line per request:
the family, the instance, the request, and either its canonical answer or
the exception's type and message.

Each instance is parsed once from its canonical JSON, as the CLI does, and
every request runs on that one problem object, so per-problem state that
leaks from one request into the next shows up as a difference.  The
requests: the a-priori bounds, both solvers (status, lam, x, iterations
and trace as `format_outcome(..., include_trace=True)`), the spectral
value at the certificate level, and at that level (Newton's optimum, or 0
when there is none) the optimality certificate and its check with the
computed and with the solver's point, the unboundedness certificate and
its check.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tropopt import io, pseudolinear as pl, pseudoquadratic as pq  # noqa: E402
from tropopt.matrix import TropMatrix  # noqa: E402
from tropopt.random_instances import gen_random  # noqa: E402
from tropopt.semiring import fin  # noqa: E402


def _decimal(prob):
    """prob with every finite entry divided by 100."""

    def sc(e):
        return fin(e.value / 100) if e.is_finite else e

    def mat(M):
        return TropMatrix([[sc(e) for e in row] for row in M.data], "max")

    vecs = [[sc(e) for e in v] for v in (prob.b, prob.d, prob.p, prob.q)]
    if isinstance(prob, pq.PseudoquadraticProblem):
        return pq.PseudoquadraticProblem(mat(prob.U), mat(prob.V), *vecs, mat(prob.C))
    return pl.PseudolinearProblem(mat(prob.U), mat(prob.V), *vecs)


def _huge(prob):
    """prob with its finite entries divided by 5^30 and 7^25 in turn: a
    denominator lcm of 39 digits, past every int64 guard."""
    dens = iter([5**30, 7**25] * (4 * sum(prob.shape) ** 2))

    def sc(e):
        return fin(e.value / next(dens)) if e.is_finite else e

    def mat(M):
        return TropMatrix([[sc(e) for e in row] for row in M.data], "max")

    vecs = [[sc(e) for e in v] for v in (prob.b, prob.d, prob.p, prob.q)]
    if isinstance(prob, pq.PseudoquadraticProblem):
        return pq.PseudoquadraticProblem(mat(prob.U), mat(prob.V), *vecs, mat(prob.C))
    return pl.PseudolinearProblem(mat(prob.U), mat(prob.V), *vecs)


# name -> (mode, seed offset, instance maker)
FAMILIES = {
    "lin-int": ("integer", 0, lambda s: gen_random(25, 25, 500, 100, s)),
    "lin-dec": ("real", 1, lambda s: _decimal(gen_random(20, 20, 50000, 100, s))),
    "lin-dense": ("integer", 2, lambda s: gen_random(6, 5, 10, 100, s)),
    "lin-sparse": ("integer", 3, lambda s: gen_random(5, 6, 10, 40, s)),
    "lin-sparse-dec": ("real", 4, lambda s: _decimal(gen_random(6, 6, 1000, 50, s))),
    "quad-int": ("integer", 5, lambda s: gen_random(10, 10, 500, 100, s, True)),
    "quad-sparse": ("integer", 6, lambda s: gen_random(5, 5, 20, 60, s, True)),
    "quad-rat": ("real", 7, lambda s: _decimal(gen_random(6, 6, 1000, 50, s, True))),
    "lin-huge": ("real", 8, lambda s: _huge(gen_random(3, 4, 20, 70, s))),
    "quad-huge": ("real", 9, lambda s: _huge(gen_random(3, 3, 20, 70, s, True))),
}


def _run(fn):
    try:
        return fn()
    except Exception as e:  # every failure is part of the answer
        return f"!{type(e).__name__}: {e}"


def _scalars(vals):
    return None if vals is None else [io.scalar_to_json(v) for v in vals]


def dump_instance(family, i, text, mode):
    """The answer lines of one instance."""
    prob = io.parse_problem(text)
    quad = isinstance(prob, pq.PseudoquadraticProblem)
    bisect, newton = (pq.bisection_solve_quad, pq.newton_solve_quad) if quad else (
        pl.bisection_solve,
        pl.newton_solve,
    )
    bounds = pq.bounds_quad if quad else pl.initial_bounds
    lines = []

    def emit(req, ans):
        lines.append(f"{family} {i} {req} {ans}")

    def fmt_bounds():
        lb, up, wit = bounds(prob)
        return [io.scalar_to_json(lb), io.scalar_to_json(up), _scalars(wit)]

    emit("bounds", _run(fmt_bounds))
    outs = {}
    for name, solver in (("bisect", bisect), ("newton", newton)):
        out = _run(lambda: solver(prob, mode=mode))
        outs[name] = out
        emit(name, out if isinstance(out, str) else io.format_outcome(out, include_trace=True))
    newt = outs["newton"]
    optimal = not isinstance(newt, str) and newt.status == "optimal"
    lam = newt.lam.value if optimal else Fraction(0)
    emit("phi", _run(lambda: io.scalar_to_json(pl.spectral_value(prob, lam))))
    tau = _run(lambda: pl.optimality_certificate(prob, lam))
    emit("tau", tau)
    if isinstance(tau, list):
        emit("certify_optimal", _run(lambda: pl.certify_optimal(prob, lam, tau)))
        if optimal:
            emit("certify_optimal_x", _run(lambda: pl.certify_optimal(prob, lam, tau, newt.x)))
    sigma = _run(lambda: pl.unboundedness_certificate(prob))
    emit("sigma", sigma)
    if isinstance(sigma, list):
        emit("certify_unbounded", _run(lambda: pl.certify_unbounded(prob, sigma)))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--count", type=int, default=150, help="instances per family")
    ap.add_argument("--family", action="append", choices=sorted(FAMILIES), help="default: all")
    args = ap.parse_args(argv)
    with open(args.out, "w") as fh:
        for family in args.family or FAMILIES:
            mode, offset, make = FAMILIES[family]
            for i in range(args.count):
                text = io.dump_problem(make(7000000 + 1000 * offset + i))
                for line in dump_instance(family, i, text, mode):
                    fh.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
