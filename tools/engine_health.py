"""Solve a fixed set of seeded instances with every solver and hash the answers.

    python3 tools/engine_health.py [--instances 300] [--src DIR]

For each s below --instances, the pseudolinear instance
gen_random(25, 25, 500, 100, 900000 + s) gets bisection_solve and
newton_solve, and the pseudoquadratic instance
gen_random(10, 10, 500, 100, 900000 + s, True) gets bisection_solve_quad
and newton_solve_quad: 1,200 solves by default.  A solve that raises is a
failure.  The hash is the sha256 of repr() of the list, in solve order,
of (status, str(lam)) per answer and (exception type, message) per
failure, so two checkouts (--src, default this checkout's src/) answer
alike exactly when their hashes are equal.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def health(src, instances):
    sys.path.insert(0, str(src))
    pl = importlib.import_module("tropopt.pseudolinear")
    pq = importlib.import_module("tropopt.pseudoquadratic")
    gen_random = importlib.import_module("tropopt.random_instances").gen_random
    kinds = (
        (False, 25, (pl.bisection_solve, pl.newton_solve)),
        (True, 10, (pq.bisection_solve_quad, pq.newton_solve_quad)),
    )
    answers, failures = [], []
    for s in range(instances):
        for quad, d, solvers in kinds:
            args = (d, d, 500, 100, 900000 + s, quad)
            for solve in solvers:
                try:
                    out = solve(gen_random(*args))
                    answers.append((out.status, str(out.lam)))
                except Exception as e:
                    answers.append((type(e).__name__, str(e)))
                    failures.append(
                        {"solver": solve.__name__, "gen_random": args, "error": answers[-1]}
                    )
    return {
        "solves": len(answers),
        "failures": failures,
        "sha256": hashlib.sha256(repr(answers).encode()).hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=300)
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args(argv)
    print(json.dumps({"src": args.src, **health(args.src, args.instances)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
