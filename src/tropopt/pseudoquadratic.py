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
from itertools import chain
from math import ceil, floor, lcm

from .matrix import TropMatrix, TypingError, abs_max, mat_vec_mul
from .games import EngineError, TwoSidedSystem, _den_lcm, _max_cycle_mean, _scaled
from .semiring import ExtScalar, NEG_INF, POS_INF, fin, scal, tmax
from .pseudolinear import (
    SolveOutcome,
    _FareyGrid,
    _affine_witness,
    _assemble,
    _bisect_on_grid,
    _bisect_real,
    _check_mode,
    _literal_pair,
    _optimal_witness,
    _outcome_infeasible,
    _vec,
    _NEWTON_CAP,
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
class PseudoquadraticProblem:
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

    def __post_init__(self):
        if self.U.typing != "max" or self.V.typing != "max" or self.C.typing != "max":
            raise TypingError("problem matrices must be max-plus typed")
        if self.U.shape != self.V.shape:
            raise TypingError("U and V must have equal shapes")
        m, n = self.U.shape
        if n < 1:
            raise TypingError("at least one variable is required")
        if self.C.shape != (n, n):
            raise TypingError("C must be n x n")
        self.b = _vec(self.b, "b", forbid_pos=True)
        self.d = _vec(self.d, "d", forbid_pos=True)
        self.p = _vec(self.p, "p", forbid_pos=True)
        self.q = _vec(self.q, "q", forbid_neg=True)
        for nm, v, ln in (("b", self.b, m), ("d", self.d, m), ("p", self.p, n), ("q", self.q, n)):
            if len(v) != ln:
                raise TypingError(f"{nm} has length {len(v)}, expected {ln}")

    @property
    def shape(self):
        return self.U.shape

    def weight_bound(self) -> Fraction:
        return abs_max(
            chain(*self.U.data, *self.V.data, *self.C.data, self.b, self.d, self.p, self.q)
        )

    def data_denominator_lcm(self) -> int:
        # infinities carry value 0
        data = chain(*self.U.data, *self.V.data, *self.C.data, self.b, self.d, self.p, self.q)
        return lcm(*(e.value.denominator for e in data))

    def _prepare(self, ignore_objective=False):
        return _assemble(self, self.C.data, ignore_objective)

    def _objective(self, x):
        return objective_quad(self, x)

    def _lam_floor(self) -> Fraction:
        return _lam_floor_quad(self)


def parametric_game_quad(prob: PseudoquadraticProblem, lam) -> TwoSidedSystem:
    """The literal parametric two-sided system at level lam; raises
    IsolatedNode when a variable never occurs on the constraining side."""
    A, B, _ = _literal_pair(prob, lam, aug=False)
    return TwoSidedSystem(A, B)


def objective_quad(prob: PseudoquadraticProblem, x) -> ExtScalar:
    """max of the (p, q) anchor terms and the coupling terms (C x)_j - x_j."""
    xs = [scal(v) for v in x]
    n = prob.shape[1]
    if len(xs) != n:
        raise TypingError("point has wrong dimension")
    if not all(v.is_finite for v in xs):
        raise TypingError("objective requires a finite point")
    terms = []
    for j, v in enumerate(xs):
        terms.append(prob.p[j] + (-v))
        terms.append(v + prob.q[j].conj())
    Cx = mat_vec_mul(prob.C, xs)
    for j in range(n):
        if not Cx[j].is_neg_inf:
            terms.append(Cx[j] + (-xs[j]))
    return tmax(*terms)


def round_bounded(lam, D: int, direction: str) -> Fraction:
    """Round lam onto the grid of rationals with denominator at most D.

    direction: "down"/"up" give the nearest grid point on that side
    (lam itself when already on the grid); "strict_down"/"strict_up"
    give the nearest strictly beyond lam."""
    x = Fraction(lam)
    if D < 1:
        raise ValueError("denominator bound must be at least 1")
    if direction == "down":
        return max(Fraction(floor(x * d), d) for d in range(1, D + 1))
    if direction == "up":
        return min(Fraction(ceil(x * d), d) for d in range(1, D + 1))
    if direction == "strict_down":
        return max(Fraction(ceil(x * d) - 1, d) for d in range(1, D + 1))
    if direction == "strict_up":
        return min(Fraction(floor(x * d) + 1, d) for d in range(1, D + 1))
    raise ValueError(f"unknown direction {direction!r}")


def _lower_bound_quad(prob) -> ExtScalar:
    """The anchor gap, or the largest cycle mean of C when that is higher
    (a cycle of C bounds the coupling term from below on any x); the
    cycle mean runs on C scaled to integers."""
    terms = [prob.p[j] + prob.q[j].conj() for j in range(len(prob.p))]
    anchor = tmax(*terms).half()
    L = _den_lcm(prob.C)
    mu = _max_cycle_mean(*_scaled(prob.C, L))
    return anchor if mu is None else tmax(anchor, fin(mu / L))


def _lam_floor_quad(prob) -> Fraction:
    m, n = prob.shape
    W = prob.weight_bound()
    return Fraction(-(2 * m + 6 * n + 6)) * max(Fraction(1), W)


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
    _check_mode(prob, mode, tol)
    prep = prob._prepare()
    if prep.kind == "row_infeasible":
        return _outcome_infeasible()
    if prep.kind == "free_objective":
        if _affine_witness(prob) is None:
            return _outcome_infeasible()
        return SolveOutcome("unbounded", NEG_INF, None, 0, [])
    struct = prep.struct
    lb, up, wit = bounds_quad(prob)
    if wit is None:
        return _outcome_infeasible()
    n = prob.shape[1]
    if mode == "integer":
        grid = _FareyGrid(n + 1, 1)
        return _bisect_on_grid(prob, struct, grid, lb, up, _lam_floor_quad(prob))
    tolF = Fraction(tol) if tol is not None else Fraction(1, 10**6)
    if tolF <= 0:
        raise ValueError("tol must be positive")
    return _bisect_real(prob, struct, lb, up, tolF, _lam_floor_quad(prob))


def newton_solve_quad(prob: PseudoquadraticProblem, mode="integer", tol=None) -> SolveOutcome:
    """Exact minimizer by strategy iteration on the level.

    As in the pseudolinear scheme, the row player's optimal strategy
    just below the current level is fixed; the drop target (the least
    level at which the strategy-reduced one-player game stays
    nonnegative) has no closed form here, so it is found by exact
    bisection on the bounded-denominator grid with cheap one-player
    probes.  iterations counts outer strategy evaluations only."""
    _check_mode(prob, mode, None if mode == "integer" else tol)
    prep = prob._prepare()
    if prep.kind == "row_infeasible":
        return _outcome_infeasible()
    if prep.kind == "free_objective":
        if _affine_witness(prob) is None:
            return _outcome_infeasible()
        return SolveOutcome("unbounded", NEG_INF, None, 0, [])
    struct = prep.struct
    lb, up, wit = bounds_quad(prob)
    if wit is None:
        return _outcome_infeasible()
    n = prob.shape[1]
    grid = _FareyGrid(n + 1, prob.data_denominator_lcm())
    lam_floor = grid.down(_lam_floor_quad(prob))
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
        sig = struct.last_sig_idx()
        lo = lam_floor
        if struct.phi_fixed_sigma(lo, sig) >= 0:
            if not lb.is_neg_inf:
                raise EngineError("unbounded drop despite a finite lower bound")
            return SolveOutcome("unbounded", NEG_INF, None, iters, tr)
        hi = lam_minus
        guard = 0
        while lo < hi:
            guard += 1
            if guard > 10000:
                raise EngineError("inner level bisection failed to converge")
            mid = (lo + hi) / 2
            if struct.phi_fixed_sigma(mid, sig) >= 0:
                hi = grid.down(mid)
            else:
                lo = grid.strict_up(mid)
        theta = hi
        if not theta < lam_k:
            raise EngineError(f"drop to {theta} does not lower the level {lam_k}")
        lam_k = theta
    raise EngineError("level iteration failed to converge")
