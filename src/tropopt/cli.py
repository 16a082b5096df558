"""Command line front end.

Subcommands: solve (bisection or the Newton-style scheme, integer or real
mode), phi (parametric game value at a level), certify (run both
certificate checkers at a level and print the verdicts), gen (seeded
random instance), bench (batch experiments to CSV).  solve exits 0/2/3
for optimal/infeasible/unbounded; any error exits 1, or is re-raised with
its traceback under --debug.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import _kind, parse_dims, run_experiments, write_csv
from .games import IsolatedNode
from .io import (
    dump_problem,
    format_outcome,
    parse_level,
    parse_problem,
    scalar_to_json,
)
from .pseudolinear import (
    certify_optimal,
    certify_unbounded,
    optimality_certificate,
    spectral_value,
    unboundedness_certificate,
)
from .random_instances import gen_random

_EXIT = {"optimal": 0, "infeasible": 2, "unbounded": 3}


def _load(path):
    with open(path, "r") as fh:
        return parse_problem(fh.read())


def _emit(doc):
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _cmd_solve(args):
    prob = _load(args.file)
    bisect, newton = _kind(prob)
    fn = bisect if args.method == "bisection" else newton
    tol = parse_level(args.tol) if args.tol is not None else None
    out = fn(prob, mode=args.mode, tol=tol)
    print(format_outcome(out, include_trace=args.trace))
    return _EXIT[out.status]


def _cmd_phi(args):
    prob = _load(args.file)
    lam = parse_level(args.level)
    val = spectral_value(prob, lam)
    print(str(scalar_to_json(val)))
    return 0


def _cmd_certify(args):
    prob = _load(args.file)
    lam = parse_level(args.level)
    try:
        tau = optimality_certificate(prob, lam)
        opt = tau is not None and certify_optimal(prob, lam, tau)
        sig = unboundedness_certificate(prob)
        unb = sig is not None and certify_unbounded(prob, sig)
    except IsolatedNode:
        # a finite left side against an empty right side: the problem is
        # infeasible, so neither verdict holds
        opt = unb = False
    _emit({"lambda": scalar_to_json(lam), "optimal": opt, "unbounded": unb})
    return 0


def _cmd_gen(args):
    prob = gen_random(
        args.n, args.m, args.weight_range, args.density, args.seed, args.quadratic
    )
    with open(args.out, "w") as fh:
        fh.write(dump_problem(prob) + "\n")
    return 0


def _cmd_bench(args):
    dims = parse_dims(args.dims)
    rows = run_experiments(
        dims, args.trials, args.weight_range, args.density, args.seed
    )
    write_csv(rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tropopt",
        description="Tropical two-sided optimization via mean-payoff games.",
    )
    ap.add_argument("--debug", action="store_true", help="re-raise errors with their traceback")
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("solve", help="minimize the level of a problem file")
    s.add_argument("file")
    s.add_argument("--method", choices=("bisection", "newton"), default="bisection")
    s.add_argument("--mode", choices=("integer", "real"), default="integer")
    s.add_argument(
        "--tol",
        default=None,
        help="real-mode tolerance, integer or num/den; validated, but the answer is exact anyway",
    )
    s.add_argument("--trace", action="store_true", help="include probed levels")
    s.set_defaults(fn=_cmd_solve)

    s = sub.add_parser("phi", help="parametric game value at a level")
    s.add_argument("file")
    s.add_argument("--lambda", dest="level", required=True)
    s.set_defaults(fn=_cmd_phi)

    s = sub.add_parser("certify", help="run both certificate checkers at a level")
    s.add_argument("file")
    s.add_argument("--lambda", dest="level", required=True)
    s.set_defaults(fn=_cmd_certify)

    s = sub.add_parser("gen", help="write a seeded random instance")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--range", dest="weight_range", type=int, default=10)
    s.add_argument("--density", type=float, default=100.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--quadratic", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("bench", help="batch experiments to CSV")
    s.add_argument("--dims", required=True, help="A:B or A:B:STEP, n = m = dim")
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--range", dest="weight_range", type=int, default=10)
    s.add_argument("--density", type=float, default=100.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        if args.debug:
            raise
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
