"""Typed tropical matrices and the core operator kit.

A matrix is max-plus typed (entries in Q + {-inf}) or min-plus typed
(entries in Q + {+inf}).  Keeping the two families apart is what makes
the checked scalar sum safe: products never mix -inf with +inf.  One
max-plus loop (_dot) computes every product; the min-plus ones run it on
negated entries, min_k (a_k + b_k) = -max_k (-a_k - b_k), the conjugation
A -> -A^T of the residuated side.

Conventions: a matrix holds its ExtScalar entries as a tuple of row
tuples, so it cannot be edited in place; vectors are plain lists of
ExtScalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .semiring import ExtScalar, NEG_INF, ZERO, fin, scal, tmax, tmin


class TypingError(ValueError):
    """An entry not allowed by the matrix typing (e.g. +inf in max-plus)."""


class DivergentStar(ArithmeticError):
    """Kleene star of a matrix with a positive-mean cycle."""


class EngineError(RuntimeError):
    """The integer engine gives no certified answer: data beyond its int64
    guards, a failed check, or an iteration that ran out of its budget."""


# the infinity kind a typing excludes, and the error naming it
_EXCLUDED = {
    "max": (1, "+inf entry in a max-plus typed matrix"),
    "min": (-1, "-inf entry in a min-plus typed matrix"),
}


class TropMatrix:
    __slots__ = ("rows", "cols", "typing", "data")

    def __init__(self, entries, typing: str = "max"):
        data = tuple(tuple(x if type(x) is ExtScalar else scal(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise TypingError("matrix must have at least one row and column")
        if typing not in _EXCLUDED:
            raise TypingError("typing must be 'max' or 'min'")
        bad, msg = _EXCLUDED[typing]
        ncols = len(data[0])
        for row in data:
            if len(row) != ncols:
                raise TypingError("ragged rows")
            if any(x.kind == bad for x in row):
                raise TypingError(msg)
        self.rows = len(data)
        self.cols = ncols
        self.typing = typing
        self.data = data

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, TropMatrix)
            and self.typing == other.typing
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in row) for row in self.data)
        return f"TropMatrix[{self.typing}]({body})"

    def retyped(self, typing: str) -> "TropMatrix":
        """Same entries under the other typing; fails if any entry is illegal."""
        return TropMatrix(self.data, typing)

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]


def identity(n: int) -> TropMatrix:
    """Max-plus identity: 0 on the diagonal, -inf off it."""
    return TropMatrix(
        [[ZERO if i == j else NEG_INF for j in range(n)] for i in range(n)]
    )


def const_matrix(r: int, c: int, x: ExtScalar, typing: str = "max") -> TropMatrix:
    return TropMatrix([[x] * c for _ in range(r)], typing)


def mat_add(A: TropMatrix, B: TropMatrix) -> TropMatrix:
    """Entrywise tropical sum: max for max-typed, min for min-typed."""
    if A.shape != B.shape or A.typing != B.typing:
        raise TypingError("mat_add needs equal shapes and typings")
    pick = tmax if A.typing == "max" else tmin
    return TropMatrix(
        [[pick(A.data[i][j], B.data[i][j]) for j in range(A.cols)] for i in range(A.rows)],
        A.typing,
    )


def _dot(row, col) -> ExtScalar:
    """max_k (row_k + col_k) over the pairs with no -inf; -inf when none
    is left.  The min-plus products call it on negated entries: there
    min_k (a_k + b_k) over the pairs with no +inf is -_dot(-a, -b)."""
    best = NEG_INF
    for a, b in zip(row, col):
        if a.is_neg_inf or b.is_neg_inf:
            continue
        cand = a + b
        if best < cand:
            best = cand
    return best


def _neg(rows):
    return [[e.conj() for e in row] for row in rows]


def mat_mul(A: TropMatrix, B: TropMatrix) -> TropMatrix:
    """Max-plus product: C_ij = max_k (A_ik + B_kj)."""
    if A.typing != "max" or B.typing != "max":
        raise TypingError("mat_mul is for max-plus typed matrices")
    if A.cols != B.rows:
        raise TypingError("inner dimensions disagree")
    cols = list(zip(*B.data))
    return TropMatrix([[_dot(row, col) for col in cols] for row in A.data], "max")


def dual_mat_mul(A: TropMatrix, B: TropMatrix) -> TropMatrix:
    """Min-plus product: C_ij = min_k (A_ik + B_kj) = -max_k (-A_ik - B_kj)."""
    if A.typing != "min" or B.typing != "min":
        raise TypingError("dual_mat_mul is for min-plus typed matrices")
    if A.cols != B.rows:
        raise TypingError("inner dimensions disagree")
    cols = _neg(zip(*B.data))
    return TropMatrix([[_dot(row, col).conj() for col in cols] for row in _neg(A.data)], "min")


def conjugate(A: TropMatrix) -> TropMatrix:
    """Transpose with entrywise negation; flips the typing.

    conjugate(conjugate(A)) == A.
    """
    flipped = "min" if A.typing == "max" else "max"
    return TropMatrix(
        [[A.data[i][j].conj() for i in range(A.rows)] for j in range(A.cols)],
        flipped,
    )


def mat_vec_mul(A: TropMatrix, x: list) -> list:
    """Max-plus matrix–vector product; x may hold either infinity."""
    xs = [scal(v) for v in x]
    if A.typing != "max":
        raise TypingError("mat_vec_mul is for max-plus typed matrices")
    if len(xs) != A.cols:
        raise TypingError("dimension mismatch")
    return [_dot(row, xs) for row in A.data]


def dual_mat_vec_mul(A: TropMatrix, x: list) -> list:
    """Min-plus matrix–vector product, -((-A)(-x)) on the max-plus loop;
    x may hold either infinity."""
    xs = [scal(v) for v in x]
    if A.typing != "min":
        raise TypingError("dual_mat_vec_mul is for min-plus typed matrices")
    if len(xs) != A.cols:
        raise TypingError("dimension mismatch")
    neg_x = [v.conj() for v in xs]
    return [_dot(row, neg_x).conj() for row in _neg(A.data)]


# ---------------------------------------------------------------------------
# scaled integer form and the Kleene star

_GUARD = 1 << 61


def _fit(w, big):
    """w as int64 when big, a bound on every value the caller forms from
    it, stays below 2^61, otherwise as Python ints."""
    return w.astype(np.int64 if big < _GUARD else object, copy=False)


def _den_lcm(*mats: TropMatrix) -> int:
    """Common denominator of the entries (infinities carry value 0)."""
    L = 1
    for M in mats:
        for row in M.data:
            for e in row:
                L = lcm(L, e.value.denominator)
    return L


def _scaled(M, L: int):
    """(w, finite): L * M as Python ints (0 off the finite entries) in an
    object array, and the mask of finite entries.  M is a TropMatrix or a
    list of rows of scalars; its denominators must divide L."""
    rows = M.data if isinstance(M, TropMatrix) else M
    finite = np.array([[e.is_finite for e in row] for row in rows], dtype=bool)
    w = np.array(
        [[e.value.numerator * (L // e.value.denominator) for e in row] for row in rows],
        dtype=object,
    )
    return w, finite


def _star(W, big):
    """Kleene star of a square matrix of scaled integers with -big for
    -inf, by max-plus Floyd-Warshall; the star has the same form, with
    max(W*_ii, 0) on the diagonal.  big must exceed 2n max |w| over the
    finite entries: every walk weight met before a positive cycle is found
    stays below that.  Raises DivergentStar after the first pivot that
    closes a positive cycle."""
    n = len(W)
    for k in range(n):
        col, row = W[:, k, None], W[k]
        W = np.maximum(W, np.where((col > -big) & (row > -big), col + row, -big))
        if np.any(np.diagonal(W) > 0):
            raise DivergentStar("matrix has a positive-weight cycle")
    d = np.arange(n)
    W[d, d] = np.maximum(W[d, d], 0)
    return W


def kleene_star(A: TropMatrix) -> TropMatrix:
    """I + A + A^2 + ... + A^(n-1); requires max cycle mean <= 0.

    Raises DivergentStar otherwise.  Exact: the closure runs on the
    entries scaled by their denominator lcm (see _star)."""
    if A.typing != "max":
        raise TypingError("kleene_star is for max-plus typed matrices")
    if A.rows != A.cols:
        raise TypingError("kleene_star needs a square matrix")
    L = _den_lcm(A)
    w, finite = _scaled(A, L)
    big = 4 * (A.rows + 1) * (int(np.abs(w).max()) + 1)
    W = _star(_fit(np.where(finite, w, -big), big), big)
    return TropMatrix(
        [[fin(Fraction(int(v), L)) if v > -big else NEG_INF for v in row] for row in W], "max"
    )


# ---------------------------------------------------------------------------
# cycle ratios on scaled integers: Bellman-Ford, Dinkelbach's iteration,
# and the negative-cycle test of the gate and the certificate checks

_INF64 = np.int64(1) << 62


def _abs_max(w) -> int:
    """Largest |w| over an int64 array, or a list or object array of
    Python ints; 0 when empty."""
    return int(np.abs(np.asarray(w)).max()) if len(w) else 0


def _adjacency(ns, src, dst):
    adj = np.zeros((ns, ns), dtype=bool)
    adj[src, dst] = True
    return adj


def _closure(adj):
    """Reflexive-transitive closure of a boolean adjacency matrix, by
    repeated squaring.  The float32 product only counts 0/1 paths (sums of
    at most n ones), so it is exact."""
    r = adj | np.eye(len(adj), dtype=bool)
    count = np.count_nonzero(r)
    while True:
        f = r.astype(np.float32)
        r = (f @ f) > 0
        # a reflexive r lies inside its square: equal counts, equal sets
        new = np.count_nonzero(r)
        if new == count:
            return r
        count = new


def _segments(keys):
    """(heads, starts) of a nonempty array grouped by value (each value's
    entries contiguous): the values in order of their groups and the index
    where each group starts, as np.unique(keys, return_index=True) gives
    them on sorted keys, without a sort."""
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], starts


def _first(cond, off):
    """Per segment [off[k], off[k+1]) (none empty), the first index where
    cond holds, or -1."""
    idx = np.where(cond, np.arange(len(cond)), len(cond))
    first = np.minimum.reduceat(idx, off[:-1])
    return np.where(first == len(cond), -1, first)


def _first_best(val, off, best):
    """Per segment [off[k], off[k+1]) (none empty), the first index where
    val attains its best (np.minimum or np.maximum) over the segment."""
    top = best.reduceat(val, off[:-1])
    return _first(val == np.repeat(top, np.diff(off)), off)


def _relax(n, src, dst, w, x, trail=None, segs=None):
    """Bellman-Ford rounds x_u <- min(x_u, w + x_v) over the arcs u -> v,
    until nothing changes or n + 1 rounds have run.  The arcs must come
    grouped by source, as arenas and their turn graphs keep them (src
    nondecreasing); segs is _segments(src) when the caller has it.  When
    given, the list trail gets each round's minima min (w + x_v) over the
    arcs of each source, in the order of its segments."""
    if not len(src):
        return x
    heads, starts = _segments(src) if segs is None else segs
    x = x.copy()
    for _ in range(n + 1):
        best = np.minimum.reduceat(w + x[dst], starts)
        if trail is not None:
            trail.append(best)
        xh = x[heads]
        lower = best < xh
        if not lower.any():
            break
        x[heads] = np.minimum(xh, best)
    return x


def _negative_cycle(n, src, dst, w, trail, segs):
    """The parent arcs of the Bellman-Ford rounds from 0 at every node
    whose minima are trail (_relax), one out of each node they lowered:
    the first of its arcs that attains its value in the last round that
    lowered it.  The potentials before each round are replayed from the
    minima on the nodes alone.  Every cycle of the parent graph is
    negative, and a negative cycle keeps the rounds from settling, which
    leaves one there after n + 1 rounds.  segs is _segments(src)."""
    heads, starts = segs
    x = np.zeros(n, dtype=w.dtype)
    before = np.zeros((len(trail), n), dtype=w.dtype)
    last = np.full(n, -1)
    for r, best in enumerate(trail):
        before[r] = x
        xh = x[heads]
        last[heads[best < xh]] = r
        x[heads] = np.minimum(xh, best)
    hit = (last[src] >= 0) & (w + before[last[src], dst] == x[src])
    arc = _first(hit, np.append(starts, len(src)))
    return arc[arc >= 0]


def _reach_negative(n, src, dst, w):
    """Mask of the nodes that reach a cycle of negative weight.  Round
    n + 1 of a Jacobi Bellman-Ford from zeros lowers only such nodes:
    after n rounds a node that reaches no negative cycle holds its least
    walk weight, that of a simple path.  It lowers a node of every
    negative cycle, since unlowered nodes all round a cycle would sum to
    a weight >= 0.  So a node reaches a negative cycle exactly when it
    reaches a lowered node, which one zero-weight pass finds.

    Every _CHECK_ROUNDS rounds, as in _min_ratio, two looks may end it
    early: rounds that settle leave no negative cycle, and greedy arcs
    (one out of each node, attaining its least w + x_v) that close only
    negative cycles, with no node left without one, let every node reach
    one.  The arcs come grouped by source (see _relax); w is int64 or
    Python ints, and the rounds run on int64 while _fit admits every walk
    weight."""
    if not len(src):
        return np.zeros(n, dtype=bool)
    w = _fit(w, (n + 1) * (_abs_max(w) + 1))
    segs = _segments(src)
    x, done = np.zeros(n, dtype=w.dtype), 0
    while done < n:
        rounds = min(_CHECK_ROUNDS, n - done)
        x = _relax(rounds - 1, src, dst, w, x, segs=segs)
        done += rounds
        val = w + x[dst]
        lowered = x[src] > val
        if not lowered.any():
            return np.zeros(n, dtype=bool)
        if len(segs[0]) == n:
            g = _first_best(val, np.append(segs[1], len(src)), np.minimum)
            if _cycle_ratio(dst[g], -w[g], np.ones(n, dtype=np.int64))[0] > 0:
                return np.ones(n, dtype=bool)
    low = np.ones(n, dtype=np.int64)
    low[src[lowered]] = 0
    return _relax(n, src, dst, np.zeros(len(src), dtype=np.int64), low, segs=segs) == 0


def _cycle_ratio(nxt, c, t):
    """Least ratio W/T over the cycles of the functional graph u -> nxt[u]
    (nxt[u] < 0 where u has no arc), the arc out of u weighing c[u] and
    t[u] >= 0, as a reduced (num, den) of Python ints; None when no cycle
    has T > 0.  A cycle with T = 0 is skipped, and raises EngineError when
    its W < 0 too.  Each walk stops at the first node it or an earlier walk
    visited, or at a node with no arc; a walk that stops on itself has
    closed a new cycle."""
    nxt, c, t = nxt.tolist(), c.tolist(), t.tolist()
    walk = [-1] * len(nxt)
    best = None
    for s in range(len(nxt)):
        u = s
        while u >= 0 and walk[u] < 0:
            walk[u] = s
            u = nxt[u]
        if u >= 0 and walk[u] == s:
            W, T, v = c[u], t[u], nxt[u]
            while v != u:
                W, T, v = W + c[v], T + t[v], nxt[v]
            if T == 0:
                if W < 0:
                    raise EngineError("negative cycle without a level arc")
            elif best is None or W * best[1] < best[0] * T:
                best = (W, T)
    if best is None:
        return None
    g = gcd(*best)
    return best[0] // g, best[1] // g


_CHECK_ROUNDS = 8  # Bellman-Ford rounds between two looks for a lower cycle
_RATIO_CAP = 10000  # Dinkelbach steps of one _min_ratio


def _min_ratio(ns, src, dst, w, t, num, den, segs=None):
    """The least of num / den (den > 0) and the ratios W(C) / T(C) over
    the cycles C of a digraph (arc weights w and t >= 0, arcs grouped by
    source).

    Dinkelbach's iteration: Bellman-Ford from zeros on wp = w * den -
    t * num settles exactly when no cycle lies below num / den; otherwise
    some cycle is negative in wp, and the iteration moves down to its
    ratio.  That cycle is the greedy one of the unsettled potentials,
    tried every _CHECK_ROUNDS rounds, when it is lower, and after ns + 1
    rounds the least-ratio cycle of the Bellman-Ford parent graph, whose
    cycles are all negative (_negative_cycle).  A negative cycle with
    T = 0 has no ratio (EngineError).  Returns (num, den, wp, pi, steps):
    the least ratio (reduced, or num / den as given when nothing lies
    below it), wp and the settled potentials pi there, and the number of
    steps down.  On int64 while _fit admits every value formed, on
    Python ints beyond.  segs is _segments(src) when the caller has it."""
    segs = _segments(src) if segs is None else segs
    top, ttop = max(_abs_max(w), 1), max(_abs_max(t), 1)

    def ratio(arcs):
        """_cycle_ratio of the given arcs, at most one out of each node."""
        a = np.full(ns, -1, dtype=np.int64)
        a[src[arcs]] = arcs
        return _cycle_ratio(np.where(a < 0, -1, dst[a]), w[a], t[a])

    for steps in range(_RATIO_CAP):
        big = (ns + 2) * (top * den + ttop * abs(num))
        wp = _fit(w, big) * den - _fit(t, big) * num
        pi = np.zeros(ns, dtype=wp.dtype)
        trail, done = [], 0
        while done <= ns:
            rounds = min(_CHECK_ROUNDS, ns + 1 - done)
            pi = _relax(rounds - 1, src, dst, wp, pi, trail, segs)
            done += rounds
            val = wp + pi[dst]
            if not np.any(pi[src] > val):
                return num, den, wp, pi, steps
            lower = ratio(_first_best(val, np.append(segs[1], len(src)), np.minimum))
            if lower is not None and lower[0] * den < num * lower[1]:
                break
        else:
            lower = ratio(_negative_cycle(ns, src, dst, wp, trail, segs))
        num, den = lower
    raise EngineError("cycle-ratio iteration failed to converge")


def _max_cycle_mean(w, finite):
    """Largest cycle mean of the digraph of the finite entries of a square
    array of scaled integer weights, exact and in the same scale; None
    when the digraph is acyclic.  The least cycle mean of the negated
    weights (_min_ratio), from a ratio above every cycle's."""
    src, dst = np.nonzero(finite)
    if not len(src):
        return None
    neg = -w[finite]
    one = np.ones(len(src), dtype=np.int64)
    num, den, _, _, steps = _min_ratio(len(finite), src, dst, neg, one, _abs_max(neg) + 1, 1)
    return Fraction(-num, den) if steps else None


def max_cycle_mean(A: TropMatrix) -> ExtScalar:
    """Largest mean weight of a cycle in the digraph of finite entries.

    -inf when the digraph is acyclic.  Exact: Dinkelbach's iteration on
    the entries scaled by their denominator lcm (see _max_cycle_mean)."""
    if A.typing != "max":
        raise TypingError("max_cycle_mean is for max-plus typed matrices")
    if A.rows != A.cols:
        raise TypingError("max_cycle_mean needs a square matrix")
    L = _den_lcm(A)
    mu = _max_cycle_mean(*_scaled(A, L))
    return NEG_INF if mu is None else fin(mu / L)


def min_mean_cycle(nodes: list, arcs: list):
    """The minimum cycle mean on one strongly connected component.

    nodes: node ids; arcs: (u, v, w) with Fraction weights, all endpoints
    in nodes.  Returns the exact minimum mean as a Fraction, or None if
    the component has no cycle (single node, no self-loop).  Runs
    _max_cycle_mean on the negated weights, the least of parallel arcs
    kept."""
    idx = {u: i for i, u in enumerate(nodes)}
    neg = [[NEG_INF] * len(nodes) for _ in nodes]
    for u, v, w in arcs:
        cell = fin(-Fraction(w))
        if neg[idx[u]][idx[v]] < cell:
            neg[idx[u]][idx[v]] = cell
    mu = max_cycle_mean(TropMatrix(neg, "max")) if nodes else NEG_INF
    return None if mu.is_neg_inf else -mu.value
