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
from functools import cached_property, partialmethod
from itertools import chain
from math import gcd, lcm

import numpy as np

from .matrix import (
    TropMatrix,
    TypingError,
    _GUARD,
    _abs_max,
    _fit,
    _max_cycle_mean,
    _reach_negative,
    _scaled,
    _segments,
)
from .games import (
    Arena,
    EngineError,
    InvalidStrategy,
    TwoSidedSystem,
    _descend_scaled,
    _finite_point,
    _game_point,
    _layout,
    _least,
    _least_level,
    _solve_pair,
    _solves,
    feasible_finite,
    solve_arena,
)
from .semiring import ExtScalar, NEG_INF, POS_INF, fin, scal, tmax

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
    """The entries as a tuple of scalars, checked for the infinity the
    field does not admit."""
    out = []
    for e in entries:
        s = scal(e)
        if forbid_pos and s.is_pos_inf:
            raise TypingError(f"{name} entries must not be +inf")
        if forbid_neg and s.is_neg_inf:
            raise TypingError(f"{name} entries must not be -inf")
        out.append(s)
    return tuple(out)


_FIELDS = ("U", "V", "b", "d", "p", "q", "C")


class _Field:
    """A problem field: its ExtScalars are built from the compiled record
    on first read and cached; setting it validates and recompiles."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, prob, owner=None):
        if prob is None:
            return self
        val = prob.__dict__.get(self.name)
        if val is None:
            val = prob.__dict__[self.name] = prob._rec.field(self.name)
        return val

    def __set__(self, prob, value):
        prob._load({**{f: getattr(prob, f) for f in prob._fields}, self.name: value})


class _ProblemData:
    """The storage of the two problem classes: the compiled record, with
    U, V, b, d, p, q (and C) as _Fields over it.  A problem given as
    scalars is validated and compiled once (_load); a parsed or generated
    one starts from its record (_of)."""

    _fields = _FIELDS[:6]
    U, V, b, d, p, q = (_Field() for _ in _fields)

    @classmethod
    def _of(cls, rec):
        prob = object.__new__(cls)
        prob.__dict__["_rec"] = rec
        return prob

    def _load(self, vals):
        """Validate and compile the fields given as scalars, in one scan of
        the entries; the problem is left unchanged when a check fails."""
        quad = "C" in vals
        U, V, C = vals["U"], vals["V"], vals.get("C")
        if any(not isinstance(M, TropMatrix) or M.typing != "max" for M in (U, V, C)[: 2 + quad]):
            what = "problem" if quad else "constraint"
            raise TypingError(f"{what} matrices must be max-plus typed")
        if U.shape != V.shape:
            raise TypingError("U and V must have equal shapes")
        m, n = U.shape
        if n < 1:
            raise TypingError("at least one variable is required")
        if quad and C.shape != (n, n):
            raise TypingError("C must be n x n")
        for nm in "bdpq":
            vals[nm] = _vec(vals[nm], nm, forbid_pos=nm != "q", forbid_neg=nm == "q")
        for nm, ln in (("b", m), ("d", m), ("p", n), ("q", n)):
            if len(vals[nm]) != ln:
                raise TypingError(f"{nm} has length {len(vals[nm])}, expected {ln}")
        ents = list(chain(*U.data, *V.data, *map(vals.get, "bdpq"), *(C.data if quad else ())))
        ratios = [e.value.as_integer_ratio() for e in ents]  # infinities carry value 0
        L = lcm(*{d for _, d in ratios})
        nums = [n * (L // d) for n, d in ratios]
        rec = _Compiled(nums, [e.kind == 0 for e in ents], L, m, n, quad)
        self.__dict__.update(vals, _rec=rec)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    @property
    def shape(self):
        return self._rec.m, self._rec.n

    def _lam_floor(self) -> Fraction:
        return self._rec.lam_floor()


class PseudolinearProblem(_ProblemData):
    """Data (U, V, b, d, p, q): constraints U x + b <= V x + d, objective
    from the lower anchors p (no +inf) and upper anchors q (no -inf)."""

    def __init__(self, U, V, b, d, p, q):
        self._load(dict(U=U, V=V, b=b, d=d, p=p, q=q))


def parametric_game(prob, lam) -> TwoSidedSystem:
    """The literal two-sided system over (x, t) at level lam of a
    pseudolinear or pseudoquadratic problem (parametric_game_quad is this
    function): finitely solvable exactly when some feasible x has
    objective at most lam.  Raises IsolatedNode when a variable never
    occurs on the constraining side."""
    A, B, _ = _literal_pair(prob, lam, aug=False)
    return TwoSidedSystem(A, B)


def objective(prob, x) -> ExtScalar:
    """f(x) = max_j max(p_j - x_j, x_j - q_j), and for a pseudoquadratic
    problem also the coupling terms max_j ((C x)_j - x_j) (objective_quad
    is this function); x must be finite.  Exact on the compiled record's
    integers."""
    rec = _compiled(prob)
    return rec.objective(_checked_point(x, rec.n))


def _require(prob, kind):
    """TypingError unless prob is a kind instance: each public solver
    answers for its own problem kind only."""
    if not isinstance(prob, kind):
        raise TypingError(f"this solver takes a {kind.__name__}, not a {type(prob).__name__}")


def _checked_point(x, n):
    """x as ExtScalars, checked to be a finite point of dimension n."""
    xs = [scal(v) for v in x]
    if len(xs) != n:
        raise TypingError("point has wrong dimension")
    if not all(v.is_finite for v in xs):
        raise TypingError("objective requires a finite point")
    return xs


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
# the compiled problem


class _Compiled:
    """A problem's data in the integer form that its solvers, bounds,
    witness and certificates read, and the problem's primary storage.

    It is built from the flat form: nums, the entries of the fields in
    _FIELDS order (matrices row by row) times L, the data's denominator
    lcm, 0 off the finite entries, and their finite flags; nums is a list
    of Python ints, or an array that the record then owns.  WL is the
    largest |num|.  data maps each field name to its (weights, finite
    mask), int64 below the guard and Python ints beyond; a field's
    infinity is the one it admits, +inf in q and -inf elsewhere.  core is
    the literal parametric pair at level 0 without its stabilizing rows,
    in the layout of _param_pair.  The rest is derived when asked for."""

    def __init__(self, nums, finite, L, m, n, quad):
        self.m, self.n, self.L, self.quad = m, n, L, quad
        if not isinstance(nums, np.ndarray):  # a list of Python ints
            nums = np.array(nums, dtype=np.int64 if max(map(abs, nums)) < _GUARD else object)
        self.WL = int(max(nums.max(), -nums.min()))
        # the level grid every solver searches: the optimum is a multiple
        # of 1/(2L) for linear data, and has denominator at most n + 1
        # after scaling by L for pseudoquadratic data
        self.grid = _FareyGrid(n + 1, L) if quad else _FareyGrid(1, 2 * L)
        w, f = _fit(nums, self.WL), np.asarray(finite, dtype=bool)
        self.data, at = {}, 0
        for name, shape in zip(_FIELDS[: 7 if quad else 6], [(m, n), (m, n), m, m, n, n, (n, n)]):
            size = int(np.prod(shape))
            self.data[name] = (w[at : at + size].reshape(shape), f[at : at + size].reshape(shape))
            at += size
        self._scalars = {self.WL + 1: NEG_INF, self.WL + 2: POS_INF}  # for field()
        self.k = k = 2 * n if quad else n  # lam rows before the q row
        Aw, Bw = (np.zeros((m + k + 1, n + 1), dtype=w.dtype) for _ in "AB")
        Af, Bf = (np.zeros((m + k + 1, n + 1), dtype=bool) for _ in "AB")
        (Aw[:m, :n], Af[:m, :n]), (Bw[:m, :n], Bf[:m, :n]) = self.data["U"], self.data["V"]
        (Aw[:m, n], Af[:m, n]), (Bw[:m, n], Bf[:m, n]) = self.data["b"], self.data["d"]
        if quad:
            Aw[m : m + n, :n], Af[m : m + n, :n] = self.data["C"]
        Aw[m + k - n : m + k, n], Af[m + k - n : m + k, n] = self.data["p"]
        Aw[-1, :n], Af[-1, :n] = -self.data["q"][0], self.data["q"][1]
        Bf[np.arange(m, m + k), np.arange(k) % n] = True
        Bf[-1, n] = True
        self.core = (Aw, Af, Bw, Bf)

    def entries(self, name, table, of):
        """The field's entries mapped through table (scaled value -> entry)
        as a list, or a list of rows; a finite value missing from table is
        added as of(value) first.  The infinities are keyed WL + 1 (-inf)
        and WL + 2 (+inf), which no finite value reaches."""
        w, f = self.data[name]
        for v in set(w[f].tolist()).difference(table):
            table[v] = of(v)
        keys = np.where(f, w, self.WL + (2 if name == "q" else 1)).tolist()
        get = table.__getitem__
        return list(map(get, keys)) if w.ndim == 1 else [list(map(get, r)) for r in keys]

    def field(self, name):
        """The field as ExtScalars: a tuple, or a TropMatrix for U, V and
        C.  Each distinct value is built once per record."""
        L = self.L

        def scalar(v):
            return ExtScalar(0, Fraction(v, L) if L > 1 else Fraction(v))

        rows = self.entries(name, self._scalars, scalar)
        return tuple(rows) if name in "bdpq" else TropMatrix(rows, "max")

    def lam_floor(self) -> Fraction:
        """A level below every achievable finite optimum of the problem's
        objective, pseudoquadratic or linear."""
        per_col = 6 * self.n + 6 if self.quad else 2 * self.n + 4
        return Fraction(-(2 * self.m + per_col)) * max(Fraction(1), Fraction(self.WL, self.L))

    @cached_property
    def row_infeasible(self) -> bool:
        """A structural row whose finite left side faces an all -inf
        right side."""
        _, Af, _, Bf = self.core
        return bool(np.any(Af[: self.m].any(axis=1) & ~Bf[: self.m].any(axis=1)))

    @cached_property
    def free_objective(self) -> bool:
        """No finite p, q or coupling entry: nothing bounds the level."""
        return not self.core[1][self.m :].any()

    def _with_aug(self, rows):
        """The pair of the core rows `rows` (ascending) with its aug rows
        (_with_aug_rows), rescaled to the denominator lcm of its own
        entries (on all rows that is L, the data's)."""
        Aw, Af, Bw, Bf = _with_aug_rows(*(a[rows] for a in self.core))
        L = self.L
        if L > 1:
            g = gcd(L, int(np.gcd.reduce(Aw.ravel())), int(np.gcd.reduce(Bw.ravel())))
            # int64 weights lie below the guard, so a g past it divides only zeros
            Aw, Bw = (w // g if w.dtype == object or g < _GUARD else 0 * w for w in (Aw, Bw))
            L //= g
        lo, hi = np.searchsorted(rows, [self.m, self.m + self.k + 1])
        return Aw, Af, Bw, Bf, L, range(int(lo), int(hi))

    @cached_property
    def pair(self):
        """_param_pair's tuple."""
        return self._with_aug(np.arange(len(self.core[0])))

    @cached_property
    def struct(self):
        """The problem's one prepared structure (_ParamStruct), on the
        core rows with a finite left entry.  Built on first read, which
        the solvers make only after the bounds found a feasible point, so
        a row-infeasible, free or infeasible request builds none."""
        rows = np.flatnonzero(self.core[1].any(axis=1))
        return _ParamStruct(self._with_aug(rows), rows, self.m)

    @cached_property
    def affine_witness(self):
        return _descent_witness(self)

    @cached_property
    def anchor(self) -> ExtScalar:
        """The anchor gap max_j (p_j - q_j) / 2, -inf when no j has both."""
        (p, pf), (q, qf) = self.data["p"], self.data["q"]
        both = pf & qf
        return fin(Fraction(int((p - q)[both].max()), 2 * self.L)) if both.any() else NEG_INF

    @cached_property
    def lower(self) -> ExtScalar:
        """The a-priori lower level bound: the anchor gap, raised for
        pseudoquadratic data to the largest cycle mean of C when that is
        higher (a cycle of C bounds the coupling term from below on any
        x)."""
        mu = _max_cycle_mean(*self.data["C"]) if self.quad else None
        return self.anchor if mu is None else tmax(self.anchor, fin(mu / self.L))

    @cached_property
    def drop(self):
        """(U, V, b, d, p, q, S, big): the problem in the drop step's
        integer form, scaled by S = 2L.  Every entry of the reduced
        problem is then a multiple of 2, so the closed form's halving
        stays integral."""
        parts = [(w * 2, f, -1) for w, f in map(self.data.get, "UVbdp")]
        arrays, big = _filled(parts + [(self.data["q"][0] * 2, self.data["q"][1], 1)], self.n)
        return (*arrays, 2 * self.L, big)

    def objective(self, xs):
        """The objective at the finite point xs (ExtScalars) on Python
        ints: the anchor terms, and the coupling terms of quad data."""
        L = lcm(self.L, *(v.value.denominator for v in xs))
        f = L // self.L
        x = np.array([v.value.numerator * (L // v.value.denominator) for v in xs], dtype=object)
        (p, pf), (q, qf) = self.data["p"], self.data["q"]
        terms = [(p.astype(object) * f - x)[pf], (x - q.astype(object) * f)[qf]]
        if self.quad:
            Cw, Cf = self.data["C"]
            Cw, live = Cw.astype(object) * f, Cf.any(axis=1)
            low = -(_abs_max(Cw.ravel()) + _abs_max(x) + 1)
            terms.append(np.where(Cf, Cw + x, low).max(axis=1)[live] - x[live])
        top = [int(t.max()) for t in terms if len(t)]
        return fin(Fraction(max(top), L)) if top else NEG_INF


def _with_aug_rows(Aw, Af, Bw, Bf):
    """(Aw, Af, Bw, Bf) of a pair plus one tautological "aug" row
    x_c <= x_c for each column c without a finite left entry, in the
    order of the columns."""
    aug = np.flatnonzero(~Af.any(axis=0))
    eye = np.zeros((len(aug), Af.shape[1]), dtype=bool)
    eye[np.arange(len(aug)), aug] = True
    zero = np.zeros(eye.shape, dtype=np.int64)
    return np.vstack([Aw, zero]), np.vstack([Af, eye]), np.vstack([Bw, zero]), np.vstack([Bf, eye])


def _compiled(prob) -> _Compiled:
    """The problem's compiled record."""
    return prob._rec


def _tmat(w, f, L):
    """The max-plus matrix of scaled weights w (finite where f) over L."""
    rows = [[fin(Fraction(int(v), L)) if ok else NEG_INF for v, ok in zip(*r)] for r in zip(w, f)]
    return TropMatrix(rows, "max")


class _ParamStruct:
    """The prepared parametric structure: the literal pair's rows with a
    finite left entry and the stabilizing rows they need, as a pair tuple
    (see _param_pair) scaled by the denominator lcm L0 of its own entries,
    its arc layout (_layout), which every level's arena shares, and its
    integer weights, int64 (EngineError, as the Arena's, past that).
    rows[r] is the core row of row r (the aug rows come after them).  It
    keeps no state of any solve: a probe's warm start is an argument
    (solve)."""

    def __init__(self, pair, rows, m):
        self.pair = pair
        Aw, Af, Bw, Bf, self.L0, self.lam_rows = pair
        self.rows = rows
        self.m = m
        self.n = Af.shape[1] - 1
        self.n_min = self.n + 1
        lay = self._lay = _layout(Af, Bf)
        try:
            self._a_w0 = np.asarray(-Aw.T[Af.T], dtype=np.int64)
            self._b_w0 = np.asarray(Bw[Bf], dtype=np.int64)
        except OverflowError:
            raise EngineError("weights too large for the integer engine") from None
        self._b_lam = (lay.b_row >= self.lam_rows.start) & (lay.b_row < self.lam_rows.stop)
        self._absmax0 = max(1, _abs_max(self._a_w0), _abs_max(self._b_w0))

    def arena(self, lam: Fraction) -> Arena:
        """The arena at level lam, on Python ints past _fit's bound, so
        that the Arena's guard, not an int64 cast, refuses a fine level."""
        num, den = lam.numerator, lam.denominator
        S = self.L0 * den // gcd(self.L0, den)
        fa = S // self.L0
        fl = S // den
        big = max(self._absmax0 * fa, abs(num) * fl, 1)
        bw = _fit(self._b_w0, big) * fa
        bw[self._b_lam] = num * fl
        return Arena(self._lay, _fit(self._a_w0, big) * fa, bw, S, big)

    def solve(self, lam: Fraction, warm=None):
        """The certified game at level lam: (phi, sigma, sig_idx, tau),
        phi its least value, sig_idx the row strategy and tau Min's tight
        arcs.  Policy iteration starts from warm, the (sig_idx, tau) of
        another probe, when given, and from the value-iteration seed
        otherwise."""
        arena = self.arena(lam)
        g_num, g_den, lvl, _, sigma, warm = solve_arena(arena, warm)
        return _least(g_num, g_den, lvl, arena.scale), sigma, *warm

    def phi(self, lam: Fraction) -> Fraction:
        return self.solve(lam)[0]

    def drop(self, sig_idx, lam_floor: Fraction):
        """Least level at which the one-player game left after fixing the
        row strategy (a Min arc and its row's sigma arc make one arc) is
        nonnegative, or None when it is so at lam_floor."""
        lay = self._lay
        pos = (lay.b_start + sig_idx)[lay.a_tgt]
        w0 = self._a_w0 + self._b_w0[pos]
        tgt, k = lay.b_tgt[pos], self._b_lam[pos]
        return _least_level(self.n_min, lay.a_src, tgt, w0, k, self.L0, lam_floor)

    def witness(self, lam: Fraction):
        """Finite point at a feasible level: solve the system at lam on
        its scaled arrays, de-homogenize."""
        w = feasible_finite(_at_level(self.pair, lam)[:5])
        if w is None:
            raise EngineError(f"no finite point at the feasible level {lam}")
        t = w[self.n]
        return [w[j] - t for j in range(self.n)]

    def sigma_struct(self, sigma):
        """Full-length structural strategy (None on dropped rows)."""
        out = [None] * self.m
        for r, row in enumerate(self.rows[self.rows < self.m]):
            out[row] = sigma[r]
        return out


# ---------------------------------------------------------------------------
# feasibility front-end


def _affine_witness(prob):
    """A finite solution of U x + b <= V x + d, or None; computed once
    per problem (_descent_witness)."""
    wit = _compiled(prob).affine_witness
    return None if wit is None else list(wit)


def _descent_witness(rec):
    """A finite solution of U x + b <= V x + d, or None.

    It is one greatest-point descent on the homogenized system
    [U | b] <= [V | d] over (x, t), which has a finite solution exactly
    when the affine one does (Akian, Gaubert and Guterman, IJAC 22,
    2012), from x = (2W+2) and t = 0, in the record's scale.  t descends
    like any other coordinate.  Past row_infeasible every row with a
    finite left entry has a finite right entry, so the iterates stay
    finite, and a fixpoint (x, t) gives the solution x - t.

    The descent's binding rows may prove the system infeasible on the
    way: tau(j), the first row attaining min_i (y_i - a_ij) over the
    entries of [U | b], y = [V | d] (x, t), is a column strategy on the
    homogenized system, with a tautological row per column that has no
    finite left entry, which is that column's tau.  When some column
    reaches only cycles that Max loses under it (_tau_passes with no lam
    rows), the system has no finite solution.  This is asked at sweep
    n + 1, the rounds of the game's value-iteration seed, and at the
    sweep cap.

    Only when the descent neither settles nor proves infeasibility does a
    game decide: that of the homogenized system on its own scale, whose
    least value is negative exactly when the system is infeasible, and
    whose optimal strategy otherwise gives the point (games._game_point).
    A game past the arena's int64 guard raises EngineError;
    feasible_finite's own, longer descent may still find the point."""
    if rec.row_infeasible:
        return None
    m, n, L = rec.m, rec.n, rec.L
    Aw, Af, Bw, Bf = (a[:m] for a in rec.core)
    sweeps = min(3 * (m + n) + 6, 64)
    pair = None

    def infeasible(k, y, fixed):
        nonlocal pair
        if fixed or k not in (n, sweeps - 1):
            return False
        if pair is None:
            pair = _with_aug_rows(Aw, Af, Bw, Bf)
        val = y[:, None] - Aw
        tau = np.where(Af, val, val.max() + 1).argmin(axis=0)
        aug = ~Af.any(axis=0)
        tau[aug] = m + np.arange(np.count_nonzero(aug))
        return _tau_passes(pair[0], pair[2], pair[3], range(0), tau)

    fix = _descend_scaled(Aw, Af, Bw, Bf, [2 * rec.WL + 2 * L] * n + [0], sweeps, infeasible)
    if fix is False:
        return None
    if fix is not None:
        x = fix[0]
        return [Fraction(int(v - x[n]), L) for v in x[:n]]
    hom = rec._with_aug(np.flatnonzero(Af.any(axis=1)))[:5]
    try:
        w = _game_point(hom)
    except EngineError:
        w = _finite_point(hom)
    if w is None:
        return None
    return [w[j] - w[n] for j in range(n)]


def initial_bounds(prob):
    """(lower, upper, witness): the a-priori level bounds of a
    pseudolinear or pseudoquadratic problem (bounds_quad is this
    function) and a finite feasible point realizing the upper one.  lower
    is the record's (_Compiled.lower), upper is f(witness), the coupling
    terms included for pseudoquadratic data; an infeasible problem gets
    upper = POS_INF and no witness."""
    lb = _compiled(prob).lower
    wit = _affine_witness(prob)
    if wit is None:
        return lb, POS_INF, None
    return lb, objective(prob, wit), wit


def _check_mode(prob, mode, tol):
    if mode not in ("integer", "real"):
        raise ValueError("mode must be 'integer' or 'real'")
    if mode == "integer" and _compiled(prob).L != 1:
        raise ValueError("integer mode requires integer data")
    if tol is not None:
        if mode == "integer":
            raise ValueError("tol applies to real mode only")
        try:
            ok = Fraction(tol) > 0
        except (TypeError, ValueError, ArithmeticError):  # inf, nan, "1/0", junk
            ok = False
        if not ok:
            raise ValueError(f"tol must be positive, finite and rational, not {tol!r}")


def spectral_value(prob, lam) -> ExtScalar:
    """The parametric game value at level lam: least value over the
    column nodes, NEG_INF when a constraint row is structurally violated.
    Nonnegative exactly when some finite x is feasible with f(x) <= lam.
    (Variables missing from every constraining side are stabilized by a
    tautological row, which caps the value at zero but keeps its sign.)"""
    lamF = scal(lam)
    if not lamF.is_finite:
        raise TypingError("level must be finite")
    rec = _compiled(prob)
    if rec.row_infeasible:
        return NEG_INF
    return fin(rec.struct.phi(lamF.value))


# ---------------------------------------------------------------------------
# bisection


def _presolve(prob, mode, tol):
    """What the solvers do before any level search: an outcome when the
    a-priori bounds (initial_bounds) settle the problem (no feasible
    point, or a free objective over a feasible set), else (struct, lb,
    up, wit) with the problem's prepared structure, built only then."""
    _check_mode(prob, mode, tol)
    lb, up, wit = initial_bounds(prob)
    if wit is None:
        return SolveOutcome("infeasible", None, None, 0, [])
    rec = _compiled(prob)
    if rec.free_objective:
        return SolveOutcome("unbounded", NEG_INF, None, 0, [])
    return rec.struct, lb, up, wit


def bisection_solve(prob: PseudolinearProblem, mode="integer", tol=None) -> SolveOutcome:
    """Exact minimizer by level bisection.

    Both modes bisect the grid of multiples of 1/(2L), L the data's
    denominator lcm, on which the optimum lies, and return the exact
    optimum; real mode only validates tol (the answer is within any)."""
    _require(prob, PseudolinearProblem)
    return _bisect(prob, mode, tol)


def _bisect(prob, mode, tol) -> SolveOutcome:
    """Both bisection solvers, on the problem's level grid.  Quad data
    probes the grid point at or below each midpoint, which keeps the
    probes' denominators those of the grid; lo is a grid point at or
    below it, so the loop still ends on the least feasible one."""
    start = _presolve(prob, mode, tol)
    if isinstance(start, SolveOutcome):
        return start
    struct, lb, up, _ = start
    rec, tr = _compiled(prob), []
    grid = rec.grid
    # each probe after the first starts from the previous one's
    # strategies, which are near-optimal at the nearby level
    if lb.is_neg_inf:
        lf = grid.down(prob._lam_floor())
        ph, _, *warm = struct.solve(lf)
        tr.append((lf, ph))
        if ph >= 0:
            return SolveOutcome("unbounded", NEG_INF, None, 0, tr)
        lo = grid.strict_up(lf)
    else:
        lo = grid.up(lb.value)
        ph, _, *warm = struct.solve(lo)
        tr.append((lo, ph))
        if ph >= 0:
            return SolveOutcome("optimal", fin(lo), _optimal_witness(prob, struct, lo), 0, tr)
    hi = grid.down(up.value)
    iters = 0
    while lo < hi:
        if iters > _BISECT_CAP:
            raise EngineError("bisection failed to converge")
        mid = grid.down((lo + hi) / 2) if rec.quad else (lo + hi) / 2
        ph, _, *warm = struct.solve(mid, warm)
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
    if objective(prob, x) != fin(lam):
        raise EngineError(f"witness objective differs from the optimal level {lam}")
    return x


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


def _filled(parts, n: int):
    """The drop step's integer form of (weights, finite mask, sign)
    triples already scaled by S: -big / +big for an infinity of that
    sign.  big = 16(n+1)(A+1), A the largest |scaled entry|, so every
    entry _reduce forms is under big / (8(n+1)) in size, which _alcoved's
    arithmetic on the infinities relies on; int64 while big fits, Python
    ints beyond.  Returns (arrays, big)."""
    big = 16 * (n + 1) * (max(_abs_max(w.ravel()) for w, _, _ in parts) + 1)
    return [np.where(f, _fit(w, big), sign * big) for w, f, sign in parts], big


def _ext(v, S: int, big):
    """ExtScalars of an array in the drop step's integer form."""
    return [
        NEG_INF if e <= -big else POS_INF if e >= big else fin(Fraction(int(e), S)) for e in v
    ]


def _reduce(U, V, b, d, sigma, big):
    """reduce_by_strategy on the drop step's integer form: (R, l, u).
    The row strategy is checked on whole arrays; the first faulty row
    raises, with its first fault in the order of the checks."""
    m, n = U.shape
    if len(sigma) != m:
        raise InvalidStrategy("sigma length mismatch")
    s = np.array([-1 if v is None else v for v in sigma], dtype=None if m else np.int64)
    picked = (s >= 0) & (s <= n)
    s = np.where(picked, s, n)
    # the picked term: V_is for a column, d_i for the constant
    vis = np.concatenate([V, d[:, None]], axis=1)[np.arange(m), s]
    consts = picked & (s == n)
    ok = picked & (vis > -big) & ((b <= d) | ~consts)
    if not ok.all():  # a fault, or a None: vacuous rows only may have it
        none = np.array([v is None for v in sigma], dtype=bool)
        bad = np.where(none, (U > -big).any(axis=1) | (b > -big), ~ok)
        if bad.any():
            i = int(np.argmax(bad))
            if none[i]:
                raise InvalidStrategy(f"row {i} is not vacuous")
            if not picked[i]:
                raise InvalidStrategy(f"sigma[{i}] out of range")
            if not vis[i] > -big:
                term = "constant" if consts[i] else "entry"
                raise InvalidStrategy(f"sigma[{i}] selects a -inf {term}")
            raise InfeasibleReduction(f"row {i}: constant sides conflict")
    rows, consts = np.flatnonzero(ok & ~consts), np.flatnonzero(consts)
    R = np.full((n, n), -big, dtype=U.dtype)
    l = np.full(n, -big, dtype=U.dtype)
    if len(rows):
        # row i, pinned to column s, gives U_ik - V_is to R_sk and
        # b_i - V_is to l_s; rows sorted by s reduce by segment
        rows = rows[np.argsort(s[rows], kind="stable")]
        heads, starts = _segments(s[rows])
        vis, Ur, br = vis[rows], U[rows], b[rows]
        R[heads] = np.maximum.reduceat(np.where(Ur > -big, Ur - vis[:, None], -big), starts)
        l[heads] = np.maximum.reduceat(np.where(br > -big, br - vis, -big), starts)
    u = np.full(n, big, dtype=U.dtype)
    if len(consts):
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
    U, V, b, d, _, _, S, big = _compiled(prob).drop
    R, l, u = _reduce(U, V, b, d, sigma, big)
    R = TropMatrix([_ext(row, S, big) for row in R], "max")
    return AlcovedProblem(R, _ext(l, S, big), _ext(u, S, big), prob.p, prob.q)


def _star_rows(R, X):
    """Each row x of X times the Kleene star of R: (R* x)_j, the greatest
    x_k plus the weight of a walk from j to k, by Jacobi Bellman-Ford
    rounds X <- max(X, R X) on all rows at once.  From any start the
    rounds settle within n exactly when R has no positive cycle; returns
    None when n + 1 rounds have not settled them."""
    for _ in range(len(R) + 1):
        Y = np.maximum(X, (R + X[:, None, :]).max(axis=2))
        if (Y == X).all():
            return X
        X = Y
    return None


def _alcoved(R, l, u, p, q, big):
    """solve_alcoved on the drop step's integer form (see _filled), whose
    max-plus entries -q_j + R*_jk + p_k must be even: (theta, x) in the
    same scale, theta None when the objective is unbounded below.

    R* is read only through its products with vectors, so it is never
    formed: each product is a longest-path pass (_star_rows), one on l
    and p together, which settles exactly when R has no positive cycle,
    one on R^T for the conjugate product with -w, and one for the point.
    The infinities take part as the numbers -big and big.  A finite
    value formed here is a sum of fewer than 4(n + 1) entries, each under
    big / (8(n + 1)) in size (_filled), so it lies within big / 2 of 0,
    a sum with an infinite term lies below -big / 2 and reads as -inf,
    and no sum leaves [-2 big, 2 big]: int64 wherever _filled chose it."""
    cut = -big // 2
    fwd = _star_rows(R, np.stack([l, p]))
    if fwd is None:
        raise InfeasibleReduction("positive self-coupling cycle")
    Rl, Rp = fwd
    if np.any(Rl > u):
        raise InfeasibleReduction("bounds incompatible with coupling")
    # the closed form max(half(q^c R* p), u^c R* p, q^c R* l); the
    # objective is unbounded below when all three are -inf
    terms = (((Rp - q).max(), 2), ((Rp - u).max(), 1), ((Rl - q).max(), 1))
    terms = [f // k for f, k in terms if f > cut]
    if not terms:
        return None, None
    theta = int(max(terms))
    w = np.minimum(np.where(q < big, theta + q, big), u)
    # the min-plus product with the conjugate of R*, -(R*^T (-w)), where
    # finite; the forward pass found no positive cycle, so the last two
    # passes settle
    back = _star_rows(R.T, -w[None])[0]
    alt = np.maximum(l, p - theta)
    x = _star_rows(R, np.where(back > cut, -back, np.where(alt > cut, alt, 0))[None])[0]
    if not np.all(x > cut):
        raise EngineError("alcoved point is not finite")
    ok = (l <= x) & (x <= u) & ((R + x).max(axis=1) <= x) & (x - q <= theta) & (p - x <= theta)
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
    parts = [(alc.R.data, -1), ([alc.l], -1), ([alc.u], 1), ([alc.p], -1), ([alc.q], 1)]
    (R, l, u, p, q), big = _filled([(*_scaled(M, S), sign) for M, sign in parts], alc.R.rows)
    theta, x = _alcoved(R, l[0], u[0], p[0], q[0], big)
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
    alcoved problem.  Exact in both modes on the grid of multiples of
    1/(2L); real mode only validates tol."""
    _require(prob, PseudolinearProblem)
    return _newton(prob, mode, tol)


def _newton(prob, mode, tol) -> SolveOutcome:
    """Both Newton solvers, on the problem's level grid.  Only the drop
    differs.  Linear data drops to the alcoved closed form of the
    strategy-reduced problem, whose point it keeps, in the drop's integer
    form until the last drop.  Pseudoquadratic data
    drops to the least level at which the strategy-reduced game stays
    nonnegative (_ParamStruct.drop), rounded up onto the grid, and finds
    its point at the optimum."""
    start = _presolve(prob, mode, tol)
    if isinstance(start, SolveOutcome):
        return start
    struct, lb, up, x = start
    rec = _compiled(prob)
    grid, lam_k = rec.grid, up.value
    if rec.quad:
        x, lam_floor = None, grid.down(prob._lam_floor())

        def drop(sigma, sig_idx):
            lam = struct.drop(sig_idx, lam_floor)
            return None if lam is None else grid.up(lam), None

    else:
        U, V, b, d, p, q, S, big = rec.drop

        def drop(sigma, sig_idx):
            R, l, u = _reduce(U, V, b, d, struct.sigma_struct(sigma), big)
            theta, x = _alcoved(R, l, u, p, q, big)
            return (None, None) if theta is None else (Fraction(theta, S), x)

    if grid.down(lam_k) != lam_k:
        raise EngineError(f"start level {lam_k} is off the level grid")
    iters = 0
    tr = []
    for _ in range(_NEWTON_CAP):
        # cold, from the value-iteration seed: the levels jump, so the
        # previous probe's strategy is a worse start than the seed
        ph, sigma, sig_idx, _ = struct.solve(grid.strict_down(lam_k))
        iters += 1
        tr.append((lam_k, ph))
        if ph < 0:
            break
        try:
            lam, x_lam = drop(sigma, sig_idx)
        except InfeasibleReduction:
            raise EngineError(f"infeasible strategy reduction below the level {lam_k}")
        if lam is None:
            if not lb.is_neg_inf:
                raise EngineError("unbounded drop despite a finite lower bound")
            return SolveOutcome("unbounded", NEG_INF, None, iters, tr)
        if not lam < lam_k:
            raise EngineError(f"drop to {lam} does not lower the level {lam_k}")
        if grid.down(lam) != lam:
            raise EngineError(f"drop level {lam} is off the level grid")
        lam_k, x = lam, x_lam
    else:
        raise EngineError("level iteration failed to converge")
    if x is None:
        x = _optimal_witness(prob, struct, lam_k)
    elif isinstance(x, np.ndarray):  # the last drop's point, scaled by S
        x = [Fraction(int(v), S) for v in x]
    return SolveOutcome("optimal", fin(lam_k), x, iters, tr)


# ---------------------------------------------------------------------------
# certificates


def _param_pair(prob):
    """The literal parametric pair (A, B(lam)) at lam = 0, with its
    stabilizing rows, on integer arrays: (Aw, Af, Bw, Bf, L, lam_rows),
    the weights scaled by the data's denominator lcm L (see _scaled) and
    the masks of finite entries, built once per problem by _Compiled.

    Columns are x_1..x_n and the constant t.  Rows, in order: the m
    structural rows [U | b] <= [V | d]; for pseudoquadratic data, one row
    [C_j | -inf] <= lam x_j per coupling row; one epigraph row
    p_j t <= lam x_j per variable; the q row -q x <= lam t; then one
    tautological "aug" row x_c <= x_c for each column without a finite
    left entry.  lam_rows is the range of the rows bearing lam, and the
    finite right entries of those rows are exactly the lam entries."""
    return _compiled(prob).pair


def _at_level(pair, lam: Fraction, L=None):
    """The pair at level lam, rescaled to L: by default the lcm of its
    scale and lam's denominator, which is the pair's own denominator lcm;
    a given L must be a multiple of both."""
    Aw, Af, Bw, Bf, L0, lam_rows = pair
    if L is None:
        L = lcm(L0, lam.denominator)
    f, lw = L // L0, lam.numerator * (L // lam.denominator)
    big = max(_abs_max(Aw.ravel()), _abs_max(Bw.ravel())) * f + abs(lw)
    Aw, Bw = _fit(Aw, big) * f, _fit(Bw, big) * f  # copies
    lr = slice(lam_rows.start, lam_rows.stop)
    Bw[lr][Bf[lr]] = lw
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
    return _tmat(Aw[:keep], Af[:keep], L), _tmat(Bw[:keep], Bf[:keep], L), frozenset(lam_rows)


def _finite_level(lam):
    lamS = scal(lam)
    if not lamS.is_finite:
        raise TypingError("certificate level must be finite")
    return lamS.value


def certify_optimal(prob, lam, tau, x=None) -> bool:
    """Check an optimality certificate for level lam.

    Validity needs (a) a finite feasible point at level lam (x when
    given, otherwise feasible_finite's, which it checks exactly), and (b)
    a column strategy tau in the parametric game at lam from which some
    start column only reaches cycles of weight <= 0, with cycles avoiding
    every lam-bearing row strictly negative.  Such a tau forces a negative value below lam, so
    together the two halves pin the optimum at lam.

    tau indexes rows of the literal parametric pair; rows appended to
    stabilize absent variables come after those.  The check is exact on
    scaled integers: the point on the pair's integer weights, and (b) by
    one negative-cycle test on tau's graph contracted onto the columns
    (see _tau_passes)."""
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
        if feasible_finite((Aw, Af, Bw, Bf, L)) is None:
            return False
    M = len(Af)
    if len(tau) != n1:
        raise InvalidStrategy("tau length mismatch")
    for j, r in enumerate(tau):
        if not (0 <= r < M) or not Af[r, j]:
            raise InvalidStrategy(f"tau[{j}] selects no finite entry")
    return _tau_passes(Aw, Bw, Bf, lam_rows, np.asarray(tau, dtype=np.int64))


def _tau_passes(Aw, Bw, Bf, lam_rows, t) -> bool:
    """Half (b) of certify_optimal on a pair's integer weights, t a valid
    tau.  Its graph is contracted onto the columns, as _gate contracts
    the row player's: an arc j -> c for each finite B[t_j, c], weighing
    a_{t_j j} - b_{t_j c} (negated, so that a cycle of positive weight is
    negative).  A column has one move, so the contraction keeps the
    cycles, their weights and what the columns reach, and a cycle avoids
    the lam rows when no arc on it passes one.  A start column fails when
    it reaches a negative cycle, or a lam-free cycle of weight 0.  With
    c = n1 + 1, an arc weighing (c + 1) c w + c on a lam row and
    (c + 1) c w - 1 elsewhere makes exactly those simple cycles (at most
    n1 arcs) negative, so one _reach_negative finds the failing starts.
    With no lam rows a passing tau proves that the pair has no finite
    solution: the start point's descent asks this of its binding rows at
    sweep n + 1 and at its cap (_descent_witness)."""
    src, dst = np.nonzero(Bf[t])  # row-major: grouped by source
    rows = t[src]
    w = Aw[rows, src] - Bw[rows, dst]
    c = len(t) + 1
    k = (c + 1) * c
    lam = (rows >= lam_rows.start) & (rows < lam_rows.stop)
    w = _fit(w, k * (_abs_max(w) + 1)) * k + np.where(lam, c, -1)
    return not _reach_negative(c - 1, src, dst, w).all()


def optimality_certificate(prob, lam):
    """A column strategy certifying optimality at level lam, or None.

    Solves the parametric game just below lam, closer than any breakpoint
    of the value functions (their breakpoints have bounded denominator),
    so the strategy found is optimal on a whole interval ending at lam
    and passes certify_optimal whenever lam really is the least feasible
    level.  The sign of the least value is read off the integer gains."""
    lam = _finite_level(lam)
    pair = _param_pair(prob)
    nodes = sum(pair[1].shape)
    dl = lam.denominator
    L = lcm(pair[4], dl)
    delta = Fraction(1, 4 * nodes * nodes * L * dl)
    g_num, _, tau, _ = _solve_pair(*_at_level(pair, lam - delta)[:5])
    return tau if np.any(g_num < 0) else None


def unboundedness_certificate(prob):
    """A row strategy certifying the objective is unbounded below, or
    None.  Solves the parametric game at a level so low that any cycle
    through a level-bearing row would be negative; a nonnegative value
    there forces the strategy found to keep those rows out of cycles.
    Fully vacuous structural rows take no part; sigma is None there.
    With a finite anchor gap no game is solved: every feasible x has
    f(x) >= anchor > lam_floor, so the value there is negative.  Nor with
    a free objective (_free_sigma).  A row-infeasible problem still goes
    to the game, which raises IsolatedNode."""
    rec = _compiled(prob)
    if not rec.row_infeasible:
        if rec.anchor.is_finite:
            return None
        if rec.free_objective:
            return _free_sigma(prob)
    g_num, _, _, sigma = _solve_pair(*_at_level(rec.pair, prob._lam_floor())[:5])
    return None if np.any(g_num < 0) else sigma


def _free_sigma(prob):
    """unboundedness_certificate of a free objective that is not row
    infeasible, from the start point x: on each row that is not vacuous,
    the first column attaining the max of the right side at (x, 0) and
    level 0.  x meets every structural row, so each arc j -> s_r weighs
    b_{r s_r} - a_{rj} >= x_j - x_{s_r} and no cycle is negative; the lam
    rows have no finite left entry, so they give no arc.  None when x is
    None: the constraints are infeasible."""
    x = _affine_witness(prob)
    if x is None:
        return None
    L = lcm(_compiled(prob).L, *(v.denominator for v in x))
    _, _, Bw, Bf, _, _ = _at_level(_param_pair(prob), Fraction(0), L)
    xs = np.array([v.numerator * (L // v.denominator) for v in x] + [0], dtype=object)
    big = 2 * (_abs_max(Bw.ravel()) + _abs_max(xs) + 1)
    right = np.where(Bf, _fit(Bw, big) + _fit(xs, big), -big)
    # with no row infeasible, a row with no finite right entry is vacuous
    return [int(c) if live else None for c, live in zip(right.argmax(axis=1), Bf.any(axis=1))]


def certify_unbounded(prob, sigma) -> bool:
    """Check an unboundedness certificate: a row strategy sigma in the
    parametric game (taken at level 0) under which no cycle passes
    through a lam-bearing row and every cycle has nonnegative weight.
    Both together keep the game value nonnegative at every level, so the
    objective is unbounded below on the feasible set.  sigma is None
    exactly at the fully vacuous structural rows.  The check runs on
    sigma's graph contracted onto the columns (see _sigma_passes)."""
    Aw, Af, Bw, Bf, L, lam_rows = _at_level(_param_pair(prob), Fraction(0))
    M, n1 = Af.shape
    if len(sigma) != M:
        raise InvalidStrategy("sigma length mismatch")
    vacuous = ~Af.any(axis=1) & ~Bf.any(axis=1)
    for r, c in enumerate(sigma):
        if not (c is None if vacuous[r] else c is not None and 0 <= c < n1 and Bf[r, c]):
            raise InvalidStrategy(f"sigma[{r}] selects no finite entry")
    s = np.array([-1 if c is None else c for c in sigma], dtype=np.int64)
    return _sigma_passes(Aw, Af, Bw, lam_rows, s)


def _sigma_passes(Aw, Af, Bw, lam_rows, s) -> bool:
    """certify_unbounded's verdict on a pair's integer weights, s a valid
    sigma (any value at the vacuous rows, which have no arc).  Its graph
    is contracted onto the columns: an arc j -> s_r for each finite
    A[r, j], weighing b_{r s_r} - a_{rj}.  The check fails when a lam row
    lies on a cycle, or some cycle is negative.  Lowering each lam-row
    arc by (n1 + 1)(W + 1), W the largest |weight|, makes every simple
    cycle through a lam row negative too, so one _reach_negative
    decides."""
    src, rows = np.nonzero(Af.T)  # row-major: grouped by source
    dst = s[rows]
    n1 = Af.shape[1]
    w = Bw[rows, dst] - Aw[rows, src]
    drop = (n1 + 1) * (_abs_max(w) + 1)
    w = _fit(w, 2 * drop)
    w[(rows >= lam_rows.start) & (rows < lam_rows.stop)] -= drop
    return not _reach_negative(n1, src, dst, w).any()
