"""tools/engine_health.py on a few instances, in its own process: every
solver answers, and the hash is that of the answers in solve order."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from tropopt.pseudolinear import bisection_solve, newton_solve
from tropopt.pseudoquadratic import bisection_solve_quad, newton_solve_quad
from tropopt.random_instances import gen_random

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "engine_health.py"


def test_engine_health_smoke():
    run = subprocess.run(
        [sys.executable, str(_TOOL), "--instances", "2"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["solves"] == 8 and out["failures"] == []
    answers = []
    for s in range(2):
        for quad, d, solvers in (
            (False, 25, (bisection_solve, newton_solve)),
            (True, 10, (bisection_solve_quad, newton_solve_quad)),
        ):
            for solve in solvers:
                res = solve(gen_random(d, d, 500, 100, 900000 + s, quad))
                answers.append((res.status, str(res.lam)))
    assert out["sha256"] == hashlib.sha256(repr(answers).encode()).hexdigest()
