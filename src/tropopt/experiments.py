"""Batch experiments over random instances.

For each dimension d the harness draws `trials` seeded instances with
n = m = d, solves the feasible ones, and aggregates one summary row:

    dim, feasible, lb_optimal_frac, bisect_iters_mean, newton_iters_mean, ms_mean

feasible counts instances that admit any finite point.  lb_optimal_frac is,
among feasible instances whose a-priori lower level bound is finite, the
fraction where that bound is already the optimum.  Iteration means cover
instances solved to a finite optimum; ms_mean is the mean wall time per
feasible instance for the two solves together.  Infeasible instances and
those with an infinite lower bound contribute to no statistic but the
feasible count.

With lb_only=True the harness skips the solvers and decides lower-bound
optimality alone (a single feasibility test at the bound), leaving the
iteration and timing columns empty.
"""

from __future__ import annotations

import csv
import time

from .games import EngineError
from .pseudolinear import (
    PseudolinearProblem,
    _compiled,
    bisection_solve,
    initial_bounds,
    newton_solve,
)
from .pseudoquadratic import bisection_solve_quad, newton_solve_quad
from .random_instances import gen_random

CSV_FIELDS = [
    "dim",
    "feasible",
    "lb_optimal_frac",
    "bisect_iters_mean",
    "newton_iters_mean",
    "ms_mean",
]


def _kind(prob):
    """(bisection, Newton) of the problem's kind."""
    if isinstance(prob, PseudolinearProblem):
        return bisection_solve, newton_solve
    return bisection_solve_quad, newton_solve_quad


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def run_experiments(dims, trials, weight_range, density, seed, lb_only=False, quadratic=False):
    """One summary dict per dimension (see the module docstring)."""
    rows = []
    for di, dim in enumerate(dims):
        feasible = 0
        lb_used = 0
        lb_hits = 0
        bis_iters = []
        newt_iters = []
        ms = []
        for t in range(trials):
            s = seed * 1000003 + di * 10007 + t
            prob = gen_random(dim, dim, weight_range, density, s, quadratic)
            bisect, newton = _kind(prob)
            if lb_only:
                rec = _compiled(prob)
                lb, up, wit = initial_bounds(prob)
                if wit is None:
                    continue
                feasible += 1
                if rec.free_objective or not lb.is_finite:
                    continue
                lb_used += 1
                # same test as feasible_finite on the level system, but on
                # the fast parametric engine: feasible iff the value is >= 0
                if rec.struct.phi(lb.value) >= 0:
                    lb_hits += 1
                continue
            t0 = time.perf_counter()
            bis = bisect(prob)
            newt = newton(prob)
            elapsed = (time.perf_counter() - t0) * 1000.0
            if bis.status == "infeasible":
                continue
            feasible += 1
            ms.append(elapsed)
            if newt.status != bis.status:
                raise EngineError(
                    f"solvers disagree: {bis.status} (bisection), {newt.status} (Newton)"
                )
            if bis.status != "optimal":
                continue
            bis_iters.append(bis.iterations)
            newt_iters.append(newt.iterations)
            # the start point is cached on the solved problem
            lb = initial_bounds(prob)[0]
            if lb.is_finite:
                lb_used += 1
                if bis.lam.value == lb.value:
                    lb_hits += 1
        rows.append(
            {
                "dim": dim,
                "feasible": feasible,
                "lb_optimal_frac": (lb_hits / lb_used) if lb_used else None,
                "bisect_iters_mean": _mean(bis_iters),
                "newton_iters_mean": _mean(newt_iters),
                "ms_mean": _mean(ms),
            }
        )
    return rows


def _fmt(key, val):
    if val is None:
        return ""
    if key in ("dim", "feasible"):
        return str(val)
    if key == "lb_optimal_frac":
        return f"{val:.4f}"
    if key == "ms_mean":
        return f"{val:.3f}"
    return f"{val:.2f}"


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for row in rows:
            w.writerow([_fmt(k, row[k]) for k in CSV_FIELDS])


def parse_dims(text: str):
    """Dimension list "A:B" or "A:B:STEP" (inclusive), or a single "A"."""
    parts = text.split(":")
    if not 1 <= len(parts) <= 3:
        raise ValueError(f"bad dims {text!r}")
    try:
        nums = [int(x) for x in parts]
    except ValueError:
        raise ValueError(f"bad dims {text!r}") from None
    if len(nums) == 1:
        lo = hi = nums[0]
        step = 1
    elif len(nums) == 2:
        lo, hi = nums
        step = 1
    else:
        lo, hi, step = nums
    if lo < 1 or hi < lo or step < 1:
        raise ValueError(f"bad dims {text!r}")
    return list(range(lo, hi + 1, step))
