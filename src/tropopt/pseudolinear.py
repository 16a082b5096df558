"""Minimization of a tropical distance-style objective under two-sided
max-plus affine constraints.

The problem: minimize  f(x) = max_j max(p_j - x_j, x_j - q_j)  over finite
vectors x satisfying  U x + b <= V x + d  (max-plus matrix action, entrywise
comparison).  f(x) <= lam pins x into the box  p_j - lam <= x_j <= q_j + lam,
so feasibility at level lam is a homogeneous two-sided system over (x, t):
the structural rows, one epigraph row per finite p_j, and one row collecting
the x_j - q_j terms; the rows encoding the box carry lam on the right-hand
side.  Solvers probe the mean-payoff value of that parametric game.

The least level A(lam) >= 0 is found two ways: bisection over lam, and a
Newton-style scheme that repeatedly fixes the row player's optimal strategy
just below the current level and solves the resulting one-sided (alcoved)
problem in closed form.  For data with denominator lcm L, the optimum lies
on the grid of multiples of 1/(2L), which makes both schemes exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partialmethod
from itertools import chain
from math import gcd, lcm

import numpy as np

from .matrix import (
    DivergentStar,
    TropMatrix,
    TypingError,
    _den_lcm,
    _fit,
    _scaled,
    _star,
    abs_max,
)
from .games import (
    Arena,
    EngineError,
    InvalidStrategy,
    TwoSidedSystem,
    _descend,
    _finite_point,
    _least_level,
    _mean_signs,
    _min_arcs,
    _solve_pair,
    _solves,
    feasible_finite,
    solve_arena,
)
from .semiring import ExtScalar, NEG_INF, POS_INF, ZERO, fin, scal, tmax

_NEWTON_CAP = 100000
_BISECT_CAP = 100000


class InfeasibleReduction(ValueError):
    """A strategy-reduced system that admits no solution."""


@dataclass
class SolveOutcome:
    """Result of a solve: status is "optimal", "infeasible" or "unbounded".

    For "optimal", lam is the exact optimum, x an optimal finite point
    (Fractions) with objective equal to lam.  trace lists (lam, phi)
    pairs: probed levels for bisection, per-evaluation current iterates
    for the Newton scheme.  iterations counts bisection loop passes or
    Newton strategy evaluations."""

    status: str
    lam: object
    x: object
    iterations: int
    trace: list = field(default_factory=list)


def _vec(entries, name, forbid_pos=False, forbid_neg=False):
    out = []
    for e in entries:
        s = scal(e)
        if forbid_pos and s.is_pos_inf:
            raise TypingError(f"{name} entries must not be +inf")
        if forbid_neg and s.is_neg_inf:
            raise TypingError(f"{name} entries must not be -inf")
        out.append(s)
    return out


@dataclass
class PseudolinearProblem:
    """Data (U, V, b, d, p, q): constraints U x + b <= V x + d, objective
    from the lower anchors p (no +inf) and upper anchors q (no -inf)."""

    U: TropMatrix
    V: TropMatrix
    b: list
    d: list
    p: list
    q: list

    def __post_init__(self):
        if self.U.typing != "max" or self.V.typing != "max":
            raise TypingError("constraint matrices must be max-plus typed")
        if self.U.shape != self.V.shape:
            raise TypingError("U and V must have equal shapes")
        m, n = self.U.shape
        if n < 1:
            raise TypingError("at least one variable is required")
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
        return abs_max(chain(*self.U.data, *self.V.data, self.b, self.d, self.p, self.q))

    def data_denominator_lcm(self) -> int:
        # infinities carry value 0
        data = chain(*self.U.data, *self.V.data, self.b, self.d, self.p, self.q)
        return lcm(*(e.value.denominator for e in data))

    def _lam_floor(self) -> Fraction:
        return _lam_floor_linear(self)


def parametric_game(prob: PseudolinearProblem, lam) -> TwoSidedSystem:
    """The two-sided system over (x, t) whose finite solvability is
    equivalent to feasibility at level lam.  Raises IsolatedNode when a
    variable never occurs on the constraining side."""
    A, B, _ = _literal_pair(prob, lam, aug=False)
    return TwoSidedSystem(A, B)


def objective(prob, x) -> ExtScalar:
    """f(x) = max_j max(p_j - x_j, x_j - q_j); x must be finite."""
    xs = [scal(v) for v in x]
    if len(xs) != len(prob.p):
        raise TypingError("point has wrong dimension")
    if not all(v.is_finite for v in xs):
        raise TypingError("objective requires a finite point")
    terms = []
    for j, v in enumerate(xs):
        terms.append(prob.p[j] + (-v))
        terms.append(v + prob.q[j].conj())
    return tmax(*terms)


# ---------------------------------------------------------------------------
# rounding grids


class _FareyGrid:
    """Rationals that, after scaling by L, have denominator at most D;
    D = 1 gives the multiples of 1/L."""

    def __init__(self, D: int, L: int):
        self.D = D
        self.L = L

    def snap(self, direction: str, x: Fraction) -> Fraction:
        """round_bounded of x * L = a / b, divided by L, on Python ints: the
        numerator over d is floor(a d / b) for down, ceil(a d / b) - 1 =
        floor((a d - 1) / b) for strict_down, and those of -x, negated, for
        up and strict_up; cross-multiplied compares, one Fraction built."""
        if direction not in ("down", "up", "strict_down", "strict_up"):
            raise ValueError(f"unknown direction {direction!r}")
        s = -1 if direction.endswith("up") else 1
        a, b, e = s * x.numerator * self.L, x.denominator, int(direction.startswith("strict"))
        c, q = (a - e) // b, 1
        for d in range(2, self.D + 1):
            t = (a * d - e) // b
            if t * q > c * d:
                c, q = t, d
        return Fraction(s * c, q * self.L)

    down = partialmethod(snap, "down")
    up = partialmethod(snap, "up")
    strict_down = partialmethod(snap, "strict_down")
    strict_up = partialmethod(snap, "strict_up")


# ---------------------------------------------------------------------------
# prepared parametric structure


class _ParamStruct:
    """Preprocessed parametric system with fast integer arc arrays.

    Row bookkeeping: meta[r] is ("struct", i), ("cblock", j), ("plow", j),
    ("qrow",) or ("aug", col).  b_entries[r] lists (target, weight, is_lam)
    with weight None on lam entries."""

    def __init__(self, A: TropMatrix, b_entries, meta, n):
        self.A = A
        self.b_entries = b_entries
        self.meta = meta
        self.n = n
        self.n_min = n + 1
        self.n_max = A.rows
        self._warm = None
        L = _den_lcm(A)
        for ents in b_entries:
            for (_, wv, islam) in ents:
                if not islam:
                    L = lcm(L, wv.value.denominator)
        self.L0 = L
        self._a_off, self._a_src, self._a_tgt, a_w0 = _min_arcs(*_scaled(A, L))
        self._a_w0 = np.asarray(a_w0, dtype=np.int64)
        b_tgt, b_w, b_lam = [], [], []
        b_off = [0]
        for ents in b_entries:
            for (t, wv, islam) in ents:
                b_tgt.append(t)
                b_w.append(0 if islam else wv.value.numerator * (L // wv.value.denominator))
                b_lam.append(islam)
            b_off.append(len(b_tgt))
        self._b_off = np.asarray(b_off, dtype=np.int64)
        self._b_tgt = np.asarray(b_tgt, dtype=np.int64)
        self._b_w0 = np.asarray(b_w, dtype=np.int64)
        self._b_lam = np.asarray(b_lam, dtype=bool)
        m0 = 1
        if len(self._a_w0):
            m0 = max(m0, int(np.max(np.abs(self._a_w0))))
        if len(self._b_w0):
            m0 = max(m0, int(np.max(np.abs(self._b_w0))))
        self._absmax0 = m0

    def arena(self, lam: Fraction) -> Arena:
        num, den = lam.numerator, lam.denominator
        S = self.L0 * den // gcd(self.L0, den)
        fa = S // self.L0
        fl = S // den
        v = max(self.n_min, self.n_max) + 2
        big = max(self._absmax0 * fa, abs(num) * fl, 1)
        if big * v * v * v >= (1 << 62):
            raise EngineError("probe level too fine for the integer engine")
        aw = self._a_w0 * fa
        bw = self._b_w0 * fa
        bw[self._b_lam] = num * fl
        return Arena.raw(
            self.n_min,
            self.n_max,
            self._a_off,
            self._a_src,
            self._a_tgt,
            aw,
            self._b_off,
            self._b_tgt,
            bw,
            S,
        )

    def solve(self, lam: Fraction):
        chi, tau, sigma, sig_idx = solve_arena(self.arena(lam), self._warm)
        self._warm = sig_idx
        return chi, tau, sigma

    def phi(self, lam: Fraction) -> Fraction:
        chi, _, _ = self.solve(lam)
        return min(chi)

    def drop(self, sig_idx, lam_floor: Fraction):
        """Least level at which the one-player game left after fixing the
        row strategy (a Min arc and its row's sigma arc make one arc) is
        nonnegative, or None when it is so at lam_floor."""
        pos = (self._b_off[:-1] + sig_idx)[self._a_tgt]
        w0 = self._a_w0 + self._b_w0[pos]
        tgt, k = self._b_tgt[pos], self._b_lam[pos]
        return _least_level(self.n_min, self._a_src, tgt, w0, k, self.L0, lam_floor)

    def last_sig_idx(self):
        return None if self._warm is None else self._warm.copy()

    def system(self, lam: Fraction) -> TwoSidedSystem:
        lamS = fin(lam)
        rows = []
        for ents in self.b_entries:
            row = [NEG_INF] * self.n_min
            for (t, wv, islam) in ents:
                row[t] = lamS if islam else wv
            rows.append(row)
        return TwoSidedSystem(self.A, TropMatrix(rows, "max"))

    def witness(self, lam: Fraction):
        """Finite point at a feasible level: solve the system at lam,
        de-homogenize."""
        w = feasible_finite(self.system(lam))
        if w is None:
            raise EngineError(f"no finite point at the feasible level {lam}")
        t = w[self.n]
        return [w[j] - t for j in range(self.n)]

    def sigma_struct(self, sigma, m):
        """Full-length structural strategy (None on dropped rows)."""
        out = [None] * m
        for r, tag in enumerate(self.meta):
            if tag[0] == "struct":
                out[tag[1]] = sigma[r]
        return out


class _Prep:
    __slots__ = ("kind", "struct")

    def __init__(self, kind, struct=None):
        self.kind = kind
        self.struct = struct


def _row_classes(U, V, b, d):
    """Partition structural rows: kept, vacuous (dropped), or a proof of
    infeasibility (finite left side against an all -inf right side)."""
    m, n = U.shape
    kept = []
    for i in range(m):
        lhs = any(U.data[i][j].is_finite for j in range(n)) or b[i].is_finite
        rhs = any(V.data[i][j].is_finite for j in range(n)) or d[i].is_finite
        if not lhs:
            continue
        if not rhs:
            return None
        kept.append(i)
    return kept


def _assemble(prob, crows=None, ignore_objective=False):
    """Build the prepared structure; returns a _Prep."""
    m, n = prob.shape
    kept = _row_classes(prob.U, prob.V, prob.b, prob.d)
    if kept is None:
        return _Prep("row_infeasible")
    has_c = crows is not None and any(
        any(e.is_finite for e in row) for row in crows
    )
    if (
        not ignore_objective
        and all(e.is_neg_inf for e in prob.p)
        and all(e.is_pos_inf for e in prob.q)
        and not has_c
    ):
        return _Prep("free_objective")
    arows, b_entries, meta = [], [], []
    for i in kept:
        arows.append(list(prob.U.data[i]) + [prob.b[i]])
        ents = [(j, prob.V.data[i][j], False) for j in range(n) if prob.V.data[i][j].is_finite]
        if prob.d[i].is_finite:
            ents.append((n, prob.d[i], False))
        b_entries.append(ents)
        meta.append(("struct", i))
    if crows is not None:
        for j in range(n):
            if any(e.is_finite for e in crows[j]):
                arows.append(list(crows[j]) + [NEG_INF])
                b_entries.append([(j, None, True)])
                meta.append(("cblock", j))
    for j in range(n):
        if prob.p[j].is_finite:
            arows.append([NEG_INF] * n + [prob.p[j]])
            b_entries.append([(j, None, True)])
            meta.append(("plow", j))
    if any(e.is_finite for e in prob.q):
        arows.append([qj.conj() for qj in prob.q] + [NEG_INF])
        b_entries.append([(n, None, True)])
        meta.append(("qrow",))
    for c in range(n + 1):
        if not any(row[c].is_finite for row in arows):
            arows.append([ZERO if k == c else NEG_INF for k in range(n + 1)])
            b_entries.append([(c, ZERO, False)])
            meta.append(("aug", c))
    A = TropMatrix(arows, "max")
    return _Prep("ok", _ParamStruct(A, b_entries, meta, n))


def _prepare(prob, ignore_objective=False) -> _Prep:
    if isinstance(prob, PseudolinearProblem):
        return _assemble(prob, None, ignore_objective)
    return prob._prepare(ignore_objective)


# ---------------------------------------------------------------------------
# feasibility front-end


def _affine_witness(prob):
    """A finite solution of U x + b <= V x + d, or None.

    First a greatest-point descent from a seed pinned at (2W+2): each
    sweep maps x to x /\\ U# (V x + d), which preserves every solution
    below the seed; a fixpoint that also passes the b rows is a solution.
    Only when the descent is inconclusive is infeasibility decided on the
    parametric engine: any finite feasible point has bounded spread, so
    the level cap -lam_floor is reachable whenever any level is.  A
    feasible system then gets its point exactly from the homogenized
    game."""
    m, n = prob.shape
    kept = _row_classes(prob.U, prob.V, prob.b, prob.d)
    if kept is None:
        return None
    L = prob.data_denominator_lcm()
    Vd = TropMatrix([row + [di] for row, di in zip(prob.V.data, prob.d)], "max")
    fix = _descend(prob.U, Vd, prob.weight_bound(), L, min(3 * (m + n) + 6, 64))
    if fix is not None:
        x, finite, y, y_fin = fix
        if finite.all() and all(
            e.is_neg_inf or (y_fin[i] and e.value * L <= int(y[i]))
            for i, e in enumerate(prob.b)
        ):
            return [Fraction(int(v), L) for v in x[:n]]
    pre = _assemble(prob, None, True)
    if pre.kind == "ok":
        try:
            if pre.struct.phi(-_lam_floor_linear(prob)) < 0:
                return None
        except EngineError:
            pass
    # homogenize [U | b] <= [V | d] over (x, t) and let the game decide
    arows, brows = [], []
    for i in kept:
        arows.append(list(prob.U.data[i]) + [prob.b[i]])
        brows.append(list(prob.V.data[i]) + [prob.d[i]])
    for c in range(n + 1):
        if not any(row[c].is_finite for row in arows):
            arows.append([ZERO if k == c else NEG_INF for k in range(n + 1)])
            brows.append([ZERO if k == c else NEG_INF for k in range(n + 1)])
    w = feasible_finite(TwoSidedSystem(TropMatrix(arows, "max"), TropMatrix(brows, "max")))
    if w is None:
        return None
    return [w[j] - w[n] for j in range(n)]


def initial_bounds(prob: PseudolinearProblem):
    """(lower, upper, witness): the a-priori level bounds and a finite
    feasible point realizing the upper one.  upper is f(witness); an
    infeasible problem gets upper = POS_INF and no witness."""
    lb = _lower_bound_linear(prob)
    wit = _affine_witness(prob)
    if wit is None:
        return lb, POS_INF, None
    return lb, objective(prob, wit), wit


def _lower_bound_linear(prob) -> ExtScalar:
    terms = [prob.p[j] + prob.q[j].conj() for j in range(len(prob.p))]
    return tmax(*terms).half()


def _lam_floor_linear(prob) -> Fraction:
    m, n = prob.shape
    W = prob.weight_bound()
    return Fraction(-(2 * m + 2 * n + 4)) * max(Fraction(1), W)


def _check_mode(prob, mode, tol):
    if mode not in ("integer", "real"):
        raise ValueError("mode must be 'integer' or 'real'")
    if mode == "integer" and prob.data_denominator_lcm() != 1:
        raise ValueError("integer mode requires integer data")
    if tol is not None and mode == "integer":
        raise ValueError("tol applies to real mode only")


def spectral_value(prob, lam) -> ExtScalar:
    """The parametric game value at level lam: least value over the
    column nodes, NEG_INF when a constraint row is structurally violated.
    Nonnegative exactly when some finite x is feasible with f(x) <= lam.
    (Variables missing from every constraining side are stabilized by a
    tautological row, which caps the value at zero but keeps its sign.)"""
    lamF = scal(lam)
    if not lamF.is_finite:
        raise TypingError("level must be finite")
    prep = _prepare(prob)
    if prep.kind == "row_infeasible":
        return NEG_INF
    if prep.kind == "free_objective":
        prep = _prepare(prob, ignore_objective=True)
    return fin(prep.struct.phi(lamF.value))


# ---------------------------------------------------------------------------
# bisection


def _outcome_infeasible(tr=None):
    return SolveOutcome("infeasible", None, None, 0, tr or [])


def _presolve(prob, mode, tol, bounds):
    """What the solvers do before any level search: an outcome when that
    settles the problem, else (struct, lb, up, wit) from the prepared
    structure and the a-priori bounds."""
    _check_mode(prob, mode, tol)
    prep = _prepare(prob)
    if prep.kind == "row_infeasible":
        return _outcome_infeasible()
    if prep.kind == "free_objective":
        if _affine_witness(prob) is None:
            return _outcome_infeasible()
        return SolveOutcome("unbounded", NEG_INF, None, 0, [])
    lb, up, wit = bounds(prob)
    if wit is None:
        return _outcome_infeasible()
    return prep.struct, lb, up, wit


def bisection_solve(prob: PseudolinearProblem, mode="integer", tol=None) -> SolveOutcome:
    """Exact minimizer by level bisection.

    Integer mode bisects the half-integer grid and returns the exact
    optimum.  Real mode bisects to within tol (default 1e-6) and returns
    lam = f(witness), which satisfies A(lam) >= 0 and A(lam - tol) < 0."""
    start = _presolve(prob, mode, tol, initial_bounds)
    if isinstance(start, SolveOutcome):
        return start
    struct, lb, up, _ = start
    if mode == "integer":
        grid = _FareyGrid(1, 2)
        return _bisect_on_grid(prob, struct, grid, lb, up, _lam_floor_linear(prob))
    tolF = Fraction(tol) if tol is not None else Fraction(1, 10**6)
    if tolF <= 0:
        raise ValueError("tol must be positive")
    return _bisect_real(prob, struct, lb, up, tolF, _lam_floor_linear(prob))


def _bisect_on_grid(prob, struct, grid, lb, up, lam_floor) -> SolveOutcome:
    tr = []
    if lb.is_neg_inf:
        lf = grid.down(lam_floor)
        ph = struct.phi(lf)
        tr.append((lf, ph))
        if ph >= 0:
            return SolveOutcome("unbounded", NEG_INF, None, 0, tr)
        lo = grid.strict_up(lf)
    else:
        lo = grid.up(lb.value)
        ph = struct.phi(lo)
        tr.append((lo, ph))
        if ph >= 0:
            return SolveOutcome("optimal", fin(lo), _optimal_witness(prob, struct, lo), 0, tr)
    hi = grid.down(up.value)
    iters = 0
    while lo < hi:
        if iters > _BISECT_CAP:
            raise EngineError("bisection failed to converge")
        mid = (lo + hi) / 2
        ph = struct.phi(mid)
        iters += 1
        tr.append((mid, ph))
        if ph >= 0:
            hi = grid.down(mid)
        else:
            lo = grid.strict_up(mid)
    return SolveOutcome("optimal", fin(lo), _optimal_witness(prob, struct, lo), iters, tr)


def _optimal_witness(prob, struct, lam):
    """A finite point at level lam with objective exactly lam."""
    x = struct.witness(lam)
    if _outer_objective(prob, x) != fin(lam):
        raise EngineError(f"witness objective differs from the optimal level {lam}")
    return x


def _bisect_real(prob, struct, lb, up, tolF, lam_floor) -> SolveOutcome:
    tr = []
    if lb.is_neg_inf:
        lo = lam_floor
        ph = struct.phi(lo)
        tr.append((lo, ph))
        if ph >= 0:
            return SolveOutcome("unbounded", NEG_INF, None, 0, tr)
    else:
        lo = lb.value
        ph = struct.phi(lo)
        tr.append((lo, ph))
        if ph >= 0:
            return SolveOutcome("optimal", fin(lo), struct.witness(lo), 0, tr)
    hi = up.value
    iters = 0
    while hi - lo > tolF:
        if iters > _BISECT_CAP:
            raise EngineError("bisection failed to converge")
        mid = (lo + hi) / 2
        ph = struct.phi(mid)
        iters += 1
        tr.append((mid, ph))
        if ph >= 0:
            hi = mid
        else:
            lo = mid
    x = struct.witness(hi)
    val = _outer_objective(prob, x)
    return SolveOutcome("optimal", val, x, iters, tr)


def _outer_objective(prob, x) -> ExtScalar:
    if isinstance(prob, PseudolinearProblem):
        return objective(prob, x)
    return prob._objective(x)


# ---------------------------------------------------------------------------
# strategy reduction and the alcoved closed form


@dataclass
class AlcovedProblem:
    """One-sided problem: minimize the (p, q) objective over
    { x : R x <= x, l <= x <= u }."""

    R: TropMatrix
    l: list
    u: list
    p: list
    q: list

    def __post_init__(self):
        if self.R.typing != "max" or self.R.rows != self.R.cols:
            raise TypingError("R must be a square max-plus matrix")
        n = self.R.rows
        self.l = _vec(self.l, "l", forbid_pos=True)
        self.u = _vec(self.u, "u", forbid_neg=True)
        self.p = _vec(self.p, "p", forbid_pos=True)
        self.q = _vec(self.q, "q", forbid_neg=True)
        for nm, v in (("l", self.l), ("u", self.u), ("p", self.p), ("q", self.q)):
            if len(v) != n:
                raise TypingError(f"{nm} has length {len(v)}, expected {n}")


def _filled(parts, S: int, n: int):
    """The drop step's integer form of (vector or matrix, sign) pairs:
    each entry times S, with -big / +big for an infinity of that sign.
    big = 16(n+1)(A+1), A the largest |scaled entry|, exceeds every finite
    value _reduce and _alcoved form from data of this size; int64 while
    that fits, Python ints beyond.  Returns (arrays, big)."""
    sc = [_scaled(M if isinstance(M, TropMatrix) else [M], S) for M, _ in parts]
    A = max(int(np.abs(w).max()) for w, _ in sc)
    big = 16 * (n + 1) * (A + 1)
    out = []
    for (w, f), (M, sign) in zip(sc, parts):
        v = _fit(np.where(f, w, sign * big), big)
        out.append(v if isinstance(M, TropMatrix) else v[0])
    return out, big


def _ext(v, S: int, big):
    """ExtScalars of an array in the drop step's integer form."""
    return [
        NEG_INF if e <= -big else POS_INF if e >= big else fin(Fraction(int(e), S)) for e in v
    ]


def _drop_data(prob):
    """(U, V, b, d, p, q, S, big): the problem in the drop step's integer
    form, scaled by S = 2L.  Every entry of the reduced problem is then a
    multiple of 2, so the closed form's halving stays integral."""
    S = 2 * prob.data_denominator_lcm()
    arrays, big = _filled(
        [(prob.U, -1), (prob.V, -1), (prob.b, -1), (prob.d, -1), (prob.p, -1), (prob.q, 1)],
        S,
        prob.shape[1],
    )
    return (*arrays, S, big)


def _reduce(U, V, b, d, sigma, big):
    """reduce_by_strategy on the drop step's integer form: (R, l, u)."""
    m, n = U.shape
    if len(sigma) != m:
        raise InvalidStrategy("sigma length mismatch")
    lhs = (U > -big).any(axis=1) | (b > -big)
    rows, tgts, consts = [], [], []
    for i, s in enumerate(sigma):
        if s is None:
            if lhs[i]:
                raise InvalidStrategy(f"row {i} is not vacuous")
        elif not (0 <= s <= n):
            raise InvalidStrategy(f"sigma[{i}] out of range")
        elif s == n:
            if not d[i] > -big:
                raise InvalidStrategy(f"sigma[{i}] selects a -inf constant")
            if not b[i] <= d[i]:
                raise InfeasibleReduction(f"row {i}: constant sides conflict")
            consts.append(i)
        elif not V[i, s] > -big:
            raise InvalidStrategy(f"sigma[{i}] selects a -inf entry")
        else:
            rows.append(i)
            tgts.append(s)
    R = np.full((n, n), -big, dtype=U.dtype)
    l = np.full(n, -big, dtype=U.dtype)
    if rows:
        # row i, pinned to column s, gives U_ik - V_is to R_sk and
        # b_i - V_is to l_s; rows sorted by s reduce by segment
        order = np.argsort(tgts, kind="stable")
        rows, tgts = np.asarray(rows)[order], np.asarray(tgts)[order]
        heads, starts = np.unique(tgts, return_index=True)
        vis = V[rows, tgts]
        Ur, br = U[rows], b[rows]
        R[heads] = np.maximum.reduceat(np.where(Ur > -big, Ur - vis[:, None], -big), starts)
        l[heads] = np.maximum.reduceat(np.where(br > -big, br - vis, -big), starts)
    u = np.full(n, big, dtype=U.dtype)
    if consts:
        Uc = U[consts]
        u = np.where(Uc > -big, d[consts][:, None] - Uc, big).min(axis=0)
    return R, l, u


def reduce_by_strategy(prob, sigma) -> AlcovedProblem:
    """Collapse each structural row onto one chosen right-hand term.

    sigma maps row i to a column (0..n-1), to n for the constant d_i, or
    to None for a vacuous row.  Rows sent to n require b_i <= d_i, else
    the reduction is infeasible.  The result keeps all n variables:
    R x <= x gathers the rows pinned to a column, u the rows pinned to
    their constant.  Exact on scaled integers (see _reduce)."""
    U, V, b, d, _, _, S, big = _drop_data(prob)
    R, l, u = _reduce(U, V, b, d, sigma, big)
    R = TropMatrix([_ext(row, S, big) for row in R], "max")
    return AlcovedProblem(R, _ext(l, S, big), _ext(u, S, big), prob.p, prob.q)


def _mv(M, x, big):
    """Max-plus product M x in the drop step's integer form."""
    return np.where((M > -big) & (x > -big), M + x, -big).max(axis=1)


def _alcoved(R, l, u, p, q, big):
    """solve_alcoved on the drop step's integer form (see _filled), whose
    max-plus entries -q_j + R*_jk + p_k must be even: (theta, x) in the
    same scale, theta None when the objective is unbounded below."""
    try:
        Rs = _star(R, big)
    except DivergentStar:
        raise InfeasibleReduction("positive self-coupling cycle") from None
    Rl, Rp = _mv(Rs, l, big), _mv(Rs, p, big)
    if np.any(Rl > u):
        raise InfeasibleReduction("bounds incompatible with coupling")
    pf, qf = p > -big, q < big
    # the closed form max(half(q^c R* p), u^c R* p, q^c R* l), -big if all
    # three are -inf
    f1, f2, f3 = (_mv(a[None], y, big)[0] for a, y in ((-q, Rp), (-u, Rp), (-q, Rl)))
    theta = int(max(f1 // 2 if f1 > -big else -big, f2, f3))
    if theta == -big:
        return None, None
    w = np.minimum(np.where(qf, theta + q, big), u)
    vup = -_mv(Rs.T, -w, big)  # min-plus product with the conjugate of R*
    alt = np.maximum(l, np.where(pf, p - theta, -big))
    x = _mv(Rs, np.where(vup < big, vup, np.where(alt > -big, alt, 0)), big)
    if not np.all(x > -big):
        raise EngineError("alcoved point is not finite")
    ok = (l <= x) & (x <= u) & (_mv(R, x, big) <= x)
    ok &= (~qf | (x - q <= theta)) & (~pf | (p - x <= theta))
    if not ok.all():
        raise EngineError(
            f"alcoved point fails its bounds, R x <= x or theta at {int(np.argmin(ok))}"
        )
    return theta, x


def solve_alcoved(alc: AlcovedProblem):
    """Exact minimum level of an alcoved problem and a point achieving it.

    Returns (theta, x): theta NEG_INF with x None when the objective is
    unbounded below on the feasible set.  Requires the feasible set to be
    nonempty: no positive cycle in R and R* l <= u.  Exact on the data
    scaled by twice its denominator lcm (see _alcoved)."""
    data = chain(*alc.R.data, alc.l, alc.u, alc.p, alc.q)
    S = 2 * lcm(*(e.value.denominator for e in data))
    parts = [(alc.R, -1), (alc.l, -1), (alc.u, 1), (alc.p, -1), (alc.q, 1)]
    arrays, big = _filled(parts, S, alc.R.rows)
    theta, x = _alcoved(*arrays, big)
    if theta is None:
        return NEG_INF, None
    return fin(Fraction(theta, S)), [Fraction(int(v), S) for v in x]


# ---------------------------------------------------------------------------
# Newton scheme


def newton_solve(prob: PseudolinearProblem, mode="integer", tol=None) -> SolveOutcome:
    """Exact minimizer by strategy iteration on the level.

    From a feasible start, repeatedly: probe just below the current
    level, certify with the game, fix the row player's optimal strategy
    there, and drop to the exact minimum level of the strategy-reduced
    alcoved problem.  Exact in both modes (tol is not used; rational
    data works on the 1/(2L) grid)."""
    start = _presolve(prob, mode, None if mode == "integer" else tol, initial_bounds)
    if isinstance(start, SolveOutcome):
        return start
    struct, lb, up, wit = start
    m, n = prob.shape
    U, V, b, d, p, q, S, big = _drop_data(prob)
    grid = _FareyGrid(1, S)
    lam_k = up.value
    if grid.down(lam_k) != lam_k:
        raise EngineError(f"start level {lam_k} is off the 1/(2L) grid")
    x_wit = wit
    iters = 0
    tr = []
    for _ in range(_NEWTON_CAP):
        lam_minus = grid.strict_down(lam_k)
        chi, tau, sigma = struct.solve(lam_minus)
        iters += 1
        ph = min(chi)
        tr.append((lam_k, ph))
        if ph < 0:
            return SolveOutcome("optimal", fin(lam_k), x_wit, iters, tr)
        try:
            R, l, u = _reduce(U, V, b, d, struct.sigma_struct(sigma, m), big)
            theta, x_red = _alcoved(R, l, u, p, q, big)
        except InfeasibleReduction:
            # cannot happen for a certified strategy; drop target +inf
            return SolveOutcome("optimal", fin(lam_k), x_wit, iters, tr)
        if theta is None:
            if not lb.is_neg_inf:
                raise EngineError("unbounded drop despite a finite lower bound")
            return SolveOutcome("unbounded", NEG_INF, None, iters, tr)
        thv = Fraction(theta, S)
        if not thv < lam_k:
            raise EngineError(f"drop to {thv} does not lower the level {lam_k}")
        if grid.down(thv) != thv:
            raise EngineError(f"drop level {thv} is off the 1/(2L) grid")
        lam_k = thv
        x_wit = [Fraction(int(v), S) for v in x_red]
    raise EngineError("level iteration failed to converge")


# ---------------------------------------------------------------------------
# certificates


def _param_pair(prob):
    """The literal parametric pair (A, B(lam)) at lam = 0, with its
    stabilizing rows, on integer arrays: (Aw, Af, Bw, Bf, L, lam_rows),
    the weights scaled by the data's denominator lcm L (see _scaled) and
    the masks of finite entries.  The only place that knows the layout.

    Columns are x_1..x_n and the constant t.  Rows, in order: the m
    structural rows [U | b] <= [V | d]; for pseudoquadratic data, one row
    [C_j | -inf] <= lam x_j per coupling row; one epigraph row
    p_j t <= lam x_j per variable; the q row -q x <= lam t; then one
    tautological "aug" row x_c <= x_c for each column without a finite
    left entry.  lam_rows is the range of the rows bearing lam, and the
    finite right entries of those rows are exactly the lam entries."""
    m, n = prob.shape
    C = None if isinstance(prob, PseudolinearProblem) else prob.C
    L = prob.data_denominator_lcm()
    k = n if C is None else 2 * n  # lam rows before the q row
    rows = m + k + 1
    Aw, Bw = (np.zeros((rows, n + 1), dtype=object) for _ in "AB")
    Af, Bf = (np.zeros((rows, n + 1), dtype=bool) for _ in "AB")
    (b, d), (bf, df) = _scaled([prob.b, prob.d], L)
    (p, qc), (pf, qcf) = _scaled([prob.p, [e.conj() for e in prob.q]], L)
    Aw[:m, :n], Af[:m, :n] = _scaled(prob.U, L)
    Bw[:m, :n], Bf[:m, :n] = _scaled(prob.V, L)
    Aw[:m, n], Af[:m, n], Bw[:m, n], Bf[:m, n] = b, bf, d, df
    if C is not None:
        Aw[m : m + n, :n], Af[m : m + n, :n] = _scaled(C, L)
    Aw[m + k - n : m + k, n], Af[m + k - n : m + k, n] = p, pf
    Aw[-1, :n], Af[-1, :n] = qc, qcf
    Bf[np.arange(m, m + k), np.arange(k) % n] = True
    Bf[-1, n] = True
    aug = np.flatnonzero(~Af.any(axis=0))
    eye = np.zeros((len(aug), n + 1), dtype=bool)
    eye[np.arange(len(aug)), aug] = True
    Af, Bf = np.vstack([Af, eye]), np.vstack([Bf, eye])
    pad = np.zeros((len(aug), n + 1), dtype=object)
    return np.vstack([Aw, pad]), Af, np.vstack([Bw, pad]), Bf, L, range(m, rows)


def _at_level(pair, lam: Fraction, L=None):
    """The pair at level lam, rescaled to L: by default the lcm of its
    scale and lam's denominator, which is the pair's own denominator lcm;
    a given L must be a multiple of both."""
    Aw, Af, Bw, Bf, L0, lam_rows = pair
    if L is None:
        L = lcm(L0, lam.denominator)
    f = L // L0
    Aw, Bw = (Aw * f, Bw * f) if f != 1 else (Aw, Bw.copy())
    lr = slice(lam_rows.start, lam_rows.stop)
    Bw[lr][Bf[lr]] = lam.numerator * (L // lam.denominator)
    return Aw, Af, Bw, Bf, L, lam_rows


def _literal_pair(prob, lam, aug=True):
    """(A, B, lam_rows): the pair at level lam as max-plus matrices, with
    or without the stabilizing rows."""
    lamS = scal(lam)
    if lamS.is_pos_inf:
        raise TypingError("+inf entry in a max-plus typed matrix")
    Aw, Af, Bw, Bf, L, lam_rows = _at_level(_param_pair(prob), lamS.value)
    if lamS.is_neg_inf:
        Bf = Bf.copy()
        Bf[lam_rows.start : lam_rows.stop] = False
    keep = len(Af) if aug else lam_rows.stop

    def mat(w, f):
        rows = zip(w[:keep], f[:keep])
        return TropMatrix(
            [[fin(Fraction(int(v), L)) if ok else NEG_INF for v, ok in zip(*r)] for r in rows], "max"
        )

    return mat(Aw, Af), mat(Bw, Bf), frozenset(lam_rows)


_augmented_parametric = _literal_pair


def _finite_level(lam):
    lamS = scal(lam)
    if not lamS.is_finite:
        raise TypingError("certificate level must be finite")
    return lamS.value


def certify_optimal(prob, lam, tau, x=None) -> bool:
    """Check an optimality certificate for level lam.

    Validity needs (a) a finite feasible point at level lam (x when
    given, otherwise one is computed), and (b) a column strategy tau in
    the parametric game at lam from which some start column only reaches
    cycles of weight <= 0, with cycles avoiding every lam-bearing row
    strictly negative.  Such a tau forces a negative value below lam, so
    together the two halves pin the optimum at lam.

    tau indexes rows of the literal parametric pair; rows appended to
    stabilize absent variables come after those.  The check is exact on
    scaled integers: the point on the pair's integer weights, and (b) by
    reading only the signs of Karp's tables (see games._mean_signs)."""
    lam = _finite_level(lam)
    pair = _param_pair(prob)
    n1 = pair[1].shape[1]
    if x is not None:
        xs = [scal(v) for v in x]
        if len(xs) != n1 - 1 or not all(v.is_finite for v in xs):
            raise TypingError("certificate point must be finite of full dimension")
        L = lcm(pair[4], lam.denominator, *(v.value.denominator for v in xs))
        Aw, Af, Bw, Bf, L, lam_rows = _at_level(pair, lam, L)
        if not _solves(Aw, Af, Bw, Bf, [int(v.value * L) for v in xs] + [0]):
            return False
    else:
        Aw, Af, Bw, Bf, L, lam_rows = _at_level(pair, lam)
        if _finite_point(Aw, Af, Bw, Bf, L, 3 * sum(Af.shape) + 6) is None:
            return False
    M = len(Af)
    if len(tau) != n1:
        raise InvalidStrategy("tau length mismatch")
    for j, r in enumerate(tau):
        if not (0 <= r < M) or not Af[r, j]:
            raise InvalidStrategy(f"tau[{j}] selects no finite entry")
    # the tau graph: columns 0..n1-1, rows n1..n1+M-1, weights negated so
    # that a cycle of positive weight has a negative minimum mean
    t = np.asarray(tau, dtype=np.int64)
    br, bc = np.nonzero(Bf)
    src = np.concatenate([np.arange(n1), n1 + br])
    dst = np.concatenate([n1 + t, bc])
    neg = np.concatenate([Aw[t, np.arange(n1)], -Bw[Bf]])
    lam_node = np.zeros(n1 + M, dtype=bool)
    lam_node[n1 + lam_rows.start : n1 + lam_rows.stop] = True
    reach, cyc, top = _mean_signs(n1 + M, src, dst, neg)
    free = ~(lam_node[src] | lam_node[dst])
    _, cyc_free, top_free = _mean_signs(n1 + M, src[free], dst[free], neg[free])
    # a start fails when it reaches a cycle of weight > 0, or a lam-free
    # cycle of weight >= 0
    bad = (cyc & (top < 0)) | (cyc_free & (top_free <= 0))
    return bool(np.any(~np.any(reach[:n1] & bad, axis=1)))


def optimality_certificate(prob, lam):
    """A column strategy certifying optimality at level lam, or None.

    Solves the parametric game just below lam, closer than any breakpoint
    of the value functions (their breakpoints have bounded denominator),
    so the strategy found is optimal on a whole interval ending at lam
    and passes certify_optimal whenever lam really is the least feasible
    level."""
    lam = _finite_level(lam)
    pair = _param_pair(prob)
    nodes = sum(pair[1].shape)
    dl = lam.denominator
    L = lcm(pair[4], dl)
    delta = Fraction(1, 4 * nodes * nodes * L * dl)
    vals = _solve_pair(*_at_level(pair, lam - delta)[:5])
    return None if min(vals.chi) >= 0 else vals.tau


def unboundedness_certificate(prob):
    """A row strategy certifying the objective is unbounded below, or
    None.  Solves the parametric game at a level so low that any cycle
    through a level-bearing row would be negative; a nonnegative value
    there forces the strategy found to keep those rows out of cycles.
    Fully vacuous structural rows take no part; sigma is None there."""
    vals = _solve_pair(*_at_level(_param_pair(prob), prob._lam_floor())[:5])
    return None if min(vals.chi) < 0 else vals.sigma


def certify_unbounded(prob, sigma) -> bool:
    """Check an unboundedness certificate: a row strategy sigma in the
    parametric game (taken at level 0) under which no cycle passes
    through a lam-bearing row and every cycle has nonnegative weight.
    Both together keep the game value nonnegative at every level, so the
    objective is unbounded below on the feasible set.  sigma is None
    exactly at the fully vacuous structural rows.  One closure gives the
    SCCs at the lam rows, and one Karp table the sign of the least cycle
    mean."""
    Aw, Af, Bw, Bf, L, lam_rows = _at_level(_param_pair(prob), Fraction(0))
    M, n1 = Af.shape
    if len(sigma) != M:
        raise InvalidStrategy("sigma length mismatch")
    vacuous = ~Af.any(axis=1) & ~Bf.any(axis=1)
    for r, c in enumerate(sigma):
        if not (c is None if vacuous[r] else c is not None and 0 <= c < n1 and Bf[r, c]):
            raise InvalidStrategy(f"sigma[{r}] selects no finite entry")
    rows = np.flatnonzero(~vacuous)
    s = np.array([sigma[r] for r in rows], dtype=np.int64)
    ar, ac = np.nonzero(Af)
    src = np.concatenate([ac, n1 + rows])
    dst = np.concatenate([n1 + ar, s])
    w = np.concatenate([-Aw[Af], Bw[rows, s]])
    reach, cyc, top = _mean_signs(n1 + M, src, dst, w)
    lam_nodes = n1 + np.arange(lam_rows.start, lam_rows.stop)
    if np.any((reach & reach.T)[lam_nodes].sum(axis=1) > 1):
        return False  # a lam row lies on a cycle
    return not np.any(cyc & (top < 0))
