"""Pseudoquadratic extension: the objective gains a self-coupling term.

Minimize  f(x) = max( max_j max(p_j - x_j, x_j - q_j),
                      max_j ((C x)_j - x_j) )
over finite x with  U x + b <= V x + d.  The parametric system stacks the
structural rows, one row per coupling row of C (right-hand side lam at the
same variable), the epigraph rows for p, and the collecting row for q.
With integer data the optimum has denominator at most n + 1, so exact
search works on the grid of rationals with bounded denominator; rational
data is handled by clearing its common denominator first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import TropMatrix
from .games import EngineError, TwoSidedSystem
from .semiring import ExtScalar, NEG_INF, POS_INF, fin, tmax
from .pseudolinear import (
    SolveOutcome,
    _FareyGrid,
    _affine_witness,
    _bisect,
    _checked_point,
    _compiled,
    _literal_pair,
    _optimal_witness,
    _presolve,
    _NEWTON_CAP,
    _ProblemData,
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


@dataclass
class PseudoquadraticProblem(_ProblemData):
    """Data (U, V, b, d, p, q, C): constraints U x + b <= V x + d, the
    (p, q) anchors, and the n x n coupling matrix C of the extra
    objective term (C x - x)."""

    U: TropMatrix
    V: TropMatrix
    b: list
    d: list
    p: list
    q: list
    C: TropMatrix

    def _objective(self, x):
        return objective_quad(self, x)


def parametric_game_quad(prob: PseudoquadraticProblem, lam) -> TwoSidedSystem:
    """The literal parametric two-sided system at level lam; raises
    IsolatedNode when a variable never occurs on the constraining side."""
    A, B, _ = _literal_pair(prob, lam, aug=False)
    return TwoSidedSystem(A, B)


def objective_quad(prob: PseudoquadraticProblem, x) -> ExtScalar:
    """max of the (p, q) anchor terms and the coupling terms (C x)_j - x_j,
    exact on the compiled record's integers."""
    return _compiled(prob).objective(_checked_point(x, prob.shape[1]), coupling=True)


def round_bounded(lam, D: int, direction: str) -> Fraction:
    """Round lam onto the grid of rationals with denominator at most D.

    direction: "down"/"up" give the nearest grid point on that side
    (lam itself when already on the grid); "strict_down"/"strict_up"
    give the nearest strictly beyond lam."""
    x = Fraction(lam)
    if D < 1:
        raise ValueError("denominator bound must be at least 1")
    return _FareyGrid(D, 1).snap(direction, x)


def _lower_bound_quad(prob) -> ExtScalar:
    """The anchor gap, or the largest cycle mean of C when that is higher
    (a cycle of C bounds the coupling term from below on any x); the
    cycle mean runs on the compiled record's integers."""
    rec = _compiled(prob)
    mu = rec.coupling_mean
    return rec.anchor if mu is None else tmax(rec.anchor, fin(mu))


def bounds_quad(prob: PseudoquadraticProblem):
    """(lower, upper, witness): a-priori level bounds, the lower one
    combining the anchor gap with the largest coupling cycle mean.
    An infeasible problem gets upper = POS_INF and no witness."""
    lb = _lower_bound_quad(prob)
    wit = _affine_witness(prob)
    if wit is None:
        return lb, POS_INF, None
    return lb, objective_quad(prob, wit), wit


def bisection_solve_quad(prob: PseudoquadraticProblem, mode="integer", tol=None) -> SolveOutcome:
    """Exact minimizer by level bisection on the bounded-denominator grid.

    Integer mode searches denominators up to n + 1 exactly; real mode
    bisects to within tol (default 1e-6) and returns lam = f(witness)."""
    return _bisect(prob, mode, tol, bounds_quad, _FareyGrid(prob.shape[1] + 1, 1))


def newton_solve_quad(prob: PseudoquadraticProblem, mode="integer", tol=None) -> SolveOutcome:
    """Exact minimizer by strategy iteration on the level.

    As in the pseudolinear scheme, the row player's optimal strategy
    just below the current level is fixed, and the level drops to the
    least one at which the strategy-reduced one-player game stays
    nonnegative: the largest ratio -W0 / K over its cycles, each weighing
    W0 + K * lam, found exactly by Dinkelbach's iteration on the integer
    arcs (games._least_level).  iterations counts strategy evaluations."""
    start = _presolve(prob, mode, None if mode == "integer" else tol, bounds_quad)
    if isinstance(start, SolveOutcome):
        return start
    struct, lb, up, _ = start
    n = prob.shape[1]
    grid = _FareyGrid(n + 1, _compiled(prob).L)
    lam_floor = grid.down(prob._lam_floor())
    lam_k = up.value
    if grid.down(lam_k) != lam_k:
        raise EngineError(f"start level {lam_k} is off the level grid")
    iters = 0
    tr = []
    for _ in range(_NEWTON_CAP):
        lam_minus = grid.strict_down(lam_k)
        chi, tau, sigma = struct.solve(lam_minus)
        iters += 1
        ph = min(chi)
        tr.append((lam_k, ph))
        if ph < 0:
            x = _optimal_witness(prob, struct, lam_k)
            return SolveOutcome("optimal", fin(lam_k), x, iters, tr)
        lam = struct.drop(struct.last_sig_idx(), lam_floor)
        if lam is None:
            if not lb.is_neg_inf:
                raise EngineError("unbounded drop despite a finite lower bound")
            return SolveOutcome("unbounded", NEG_INF, None, iters, tr)
        theta = grid.up(lam)
        if not theta < lam_k:
            raise EngineError(f"drop to {theta} does not lower the level {lam_k}")
        lam_k = theta
    raise EngineError("level iteration failed to converge")
