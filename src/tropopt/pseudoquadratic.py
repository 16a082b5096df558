"""Pseudoquadratic extension: the objective gains a self-coupling term.

Minimize  f(x) = max( max_j max(p_j - x_j, x_j - q_j),
                      max_j ((C x)_j - x_j) )
over finite x with  U x + b <= V x + d.  The parametric system stacks the
structural rows, one row per coupling row of C (right-hand side lam at the
same variable), the epigraph rows for p, and the collecting row for q.
With integer data the optimum has denominator at most n + 1, so exact
search works on the grid of rationals with bounded denominator; rational
data is handled by clearing its common denominator first.

The problem's compiled record knows its kind, so the pseudolinear
functions serve both kinds: objective_quad, parametric_game_quad and
bounds_quad are objective, parametric_game and initial_bounds, which add
the coupling terms and the largest cycle mean of C exactly for this
kind's data.  Only the level grid and Newton's drop differ from the
linear solvers, and the record picks those too.
"""

from __future__ import annotations

from fractions import Fraction

from .pseudolinear import (
    SolveOutcome,
    _FareyGrid,
    _Field,
    _bisect,
    _newton,
    _ProblemData,
    _require,
    initial_bounds,
    objective,
    parametric_game,
)

__all__ = [
    "PseudoquadraticProblem",
    "objective_quad",
    "parametric_game_quad",
    "bounds_quad",
    "round_bounded",
    "bisection_solve_quad",
    "newton_solve_quad",
]


class PseudoquadraticProblem(_ProblemData):
    """Data (U, V, b, d, p, q, C): constraints U x + b <= V x + d, the
    (p, q) anchors, and the n x n coupling matrix C of the extra
    objective term (C x - x)."""

    _fields = _ProblemData._fields + ("C",)
    C = _Field()

    def __init__(self, U, V, b, d, p, q, C):
        self._load(dict(U=U, V=V, b=b, d=d, p=p, q=q, C=C))


parametric_game_quad = parametric_game
objective_quad = objective
bounds_quad = initial_bounds


def round_bounded(lam, D: int, direction: str) -> Fraction:
    """Round lam onto the grid of rationals with denominator at most D.

    direction: "down"/"up" give the nearest grid point on that side
    (lam itself when already on the grid); "strict_down"/"strict_up"
    give the nearest strictly beyond lam."""
    try:
        x = Fraction(lam)
    except OverflowError:  # Fraction(nan) already raises ValueError
        raise ValueError(f"cannot round the non-finite level {lam!r}") from None
    if D < 1:
        raise ValueError("denominator bound must be at least 1")
    return _FareyGrid(D, 1).snap(direction, x)


def bisection_solve_quad(prob: PseudoquadraticProblem, mode="integer", tol=None) -> SolveOutcome:
    """Exact minimizer by level bisection on the bounded-denominator grid.

    Both modes search the levels whose multiple by L, the data's
    denominator lcm, has denominator at most n + 1, probing the one at
    or below each midpoint, and return the exact optimum; real mode only
    validates tol (the answer is within any)."""
    _require(prob, PseudoquadraticProblem)
    return _bisect(prob, mode, tol)


def newton_solve_quad(prob: PseudoquadraticProblem, mode="integer", tol=None) -> SolveOutcome:
    """Exact minimizer by strategy iteration on the level.

    As in the pseudolinear scheme, the row player's optimal strategy
    just below the current level is fixed, and the level drops to the
    least one at which the strategy-reduced one-player game stays
    nonnegative: the largest ratio -W0 / K over its cycles, each weighing
    W0 + K * lam, found exactly on the integer arcs by the cycle-ratio
    kernel that also evaluates the strategies (Dinkelbach's iteration on
    Bellman-Ford, games._least_level).  iterations counts strategy
    evaluations; real mode only validates tol."""
    _require(prob, PseudoquadraticProblem)
    return _newton(prob, mode, tol)
