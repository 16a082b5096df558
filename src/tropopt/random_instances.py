"""Seeded random problem instances.

Every slot is filled independently: with probability density% a uniform
integer in [-weight_range, weight_range], otherwise the neutral value for
its field (-inf in matrices and lower anchors, +inf in upper anchors).
The same (seed, shape) always reproduces the same instance.  The draws go
straight into the problem's integer record (pseudolinear._Compiled), in
its field order, which is also the order of the random stream: U, V, b,
d, p, q, then C.
"""

from __future__ import annotations

import random

from .pseudolinear import PseudolinearProblem, _Compiled
from .pseudoquadratic import PseudoquadraticProblem


def gen_random(n, m, weight_range, density, seed, quadratic=False):
    """Random instance with n variables and m two-sided constraint rows."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if weight_range < 1:
        raise ValueError("weight_range must be at least 1")
    if not 0 < density <= 100:
        raise ValueError("density must be in (0, 100]")
    rng = random.Random(seed)
    rand, randrange, W = rng.random, rng.randrange, int(weight_range)
    size = 2 * m * n + 2 * m + 2 * n + (n * n if quadratic else 0)
    # randrange(-W, W + 1) is randint(-W, W), the same draw
    draws = [randrange(-W, W + 1) if rand() * 100 < density else None for _ in range(size)]
    finite = [v is not None for v in draws]
    rec = _Compiled([v or 0 for v in draws], finite, 1, m, n, bool(quadratic))
    return (PseudoquadraticProblem if quadratic else PseudolinearProblem)._of(rec)
