"""Typed tropical matrices and the core operator kit.

A matrix is max-plus typed (entries in Q + {-inf}) or min-plus typed
(entries in Q + {+inf}).  Keeping the two families apart is what makes
the checked scalar sum safe: products never mix -inf with +inf.

Conventions: matrices are dense lists of ExtScalar rows; vectors are
plain lists of ExtScalar.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np

from .semiring import ExtScalar, Fraction as Frac, NEG_INF, POS_INF, ZERO, fin, scal, tmax, tmin


class TypingError(ValueError):
    """An entry not allowed by the matrix typing (e.g. +inf in max-plus)."""


class DivergentStar(ArithmeticError):
    """Kleene star of a matrix with a positive-mean cycle."""


def _check_entry(x: ExtScalar, typing: str):
    if typing == "max":
        if x.is_pos_inf:
            raise TypingError("+inf entry in a max-plus typed matrix")
    elif typing == "min":
        if x.is_neg_inf:
            raise TypingError("-inf entry in a min-plus typed matrix")
    else:
        raise TypingError("typing must be 'max' or 'min'")


class TropMatrix:
    __slots__ = ("rows", "cols", "typing", "data")

    def __init__(self, entries, typing: str = "max"):
        data = [[x if type(x) is ExtScalar else scal(x) for x in row] for row in entries]
        if not data or not data[0]:
            raise TypingError("matrix must have at least one row and column")
        ncols = len(data[0])
        for row in data:
            if len(row) != ncols:
                raise TypingError("ragged rows")
            for x in row:
                _check_entry(x, typing)
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

    def finite_abs_max(self) -> Fraction:
        """Largest |entry| over finite entries, 0 if none."""
        return abs_max(chain.from_iterable(self.data))


def abs_max(entries) -> Fraction:
    """Largest |value| over the finite scalars among entries, 0 if none.

    Compares the integer pairs (|numerator|, denominator) by cross
    multiplication rather than building a Fraction per entry."""
    bn, bd, best = 0, 1, Fraction(0)
    for x in entries:
        if x.kind == 0:
            v = x.value
            n, d = abs(v.numerator), v.denominator
            if n * bd > bn * d:
                bn, bd, best = n, d, v
    return abs(best)


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


def mat_mul(A: TropMatrix, B: TropMatrix) -> TropMatrix:
    """Max-plus product: C_ij = max_k (A_ik + B_kj)."""
    if A.typing != "max" or B.typing != "max":
        raise TypingError("mat_mul is for max-plus typed matrices")
    if A.cols != B.rows:
        raise TypingError("inner dimensions disagree")
    out = []
    for i in range(A.rows):
        arow = A.data[i]
        orow = []
        for j in range(B.cols):
            best = NEG_INF
            for k in range(A.cols):
                a = arow[k]
                if a.is_neg_inf:
                    continue
                b = B.data[k][j]
                if b.is_neg_inf:
                    continue
                cand = a + b
                if best < cand:
                    best = cand
            orow.append(best)
        out.append(orow)
    return TropMatrix(out, "max")


def dual_mat_mul(A: TropMatrix, B: TropMatrix) -> TropMatrix:
    """Min-plus product: C_ij = min_k (A_ik + B_kj)."""
    if A.typing != "min" or B.typing != "min":
        raise TypingError("dual_mat_mul is for min-plus typed matrices")
    if A.cols != B.rows:
        raise TypingError("inner dimensions disagree")
    out = []
    for i in range(A.rows):
        arow = A.data[i]
        orow = []
        for j in range(B.cols):
            best = POS_INF
            for k in range(A.cols):
                a = arow[k]
                if a.is_pos_inf:
                    continue
                b = B.data[k][j]
                if b.is_pos_inf:
                    continue
                cand = a + b
                if cand < best:
                    best = cand
            orow.append(best)
        out.append(orow)
    return TropMatrix(out, "min")


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
    """Max-plus matrix–vector product; x may contain -inf."""
    xs = [scal(v) for v in x]
    if A.typing != "max":
        raise TypingError("mat_vec_mul is for max-plus typed matrices")
    if len(xs) != A.cols:
        raise TypingError("dimension mismatch")
    out = []
    for i in range(A.rows):
        best = NEG_INF
        arow = A.data[i]
        for k in range(A.cols):
            a = arow[k]
            if a.is_neg_inf or xs[k].is_neg_inf:
                continue
            cand = a + xs[k]
            if best < cand:
                best = cand
        out.append(best)
    return out


def dual_mat_vec_mul(A: TropMatrix, x: list) -> list:
    """Min-plus matrix–vector product; x may contain +inf."""
    xs = [scal(v) for v in x]
    if A.typing != "min":
        raise TypingError("dual_mat_vec_mul is for min-plus typed matrices")
    if len(xs) != A.cols:
        raise TypingError("dimension mismatch")
    out = []
    for i in range(A.rows):
        best = POS_INF
        arow = A.data[i]
        for k in range(A.cols):
            a = arow[k]
            if a.is_pos_inf or xs[k].is_pos_inf:
                continue
            cand = a + xs[k]
            if cand < best:
                best = cand
        out.append(best)
    return out


# ---------------------------------------------------------------------------
# cycle means


def tarjan_sccs(n: int, succ) -> list:
    """Strongly connected components, iterative Tarjan.

    succ[u] is an iterable of successors.  Returns a list of components
    (each a list of nodes) in reverse topological order.
    """
    index = [0] * n
    low = [0] * n
    onstack = [False] * n
    visited = [False] * n
    stack = []
    comps = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter(succ[root]))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack[root] = True
        while work:
            u, it = work[-1]
            advanced = False
            for v in it:
                if not visited[v]:
                    visited[v] = True
                    index[v] = low[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    onstack[v] = True
                    work.append((v, iter(succ[v])))
                    advanced = True
                    break
                elif onstack[v]:
                    if index[v] < low[u]:
                        low[u] = index[v]
            if advanced:
                continue
            work.pop()
            if low[u] == index[u]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == u:
                        break
                comps.append(comp)
            if work:
                p = work[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
    return comps


def min_mean_cycle(nodes: list, arcs: list):
    """Karp's minimum cycle mean on one strongly connected component.

    nodes: node ids; arcs: (u, v, w) with Fraction weights, all endpoints
    in nodes.  Returns the exact minimum mean as a Fraction, or None if
    the component has no cycle (single node, no self-loop).
    """
    ns = len(nodes)
    if ns == 1:
        self_w = [w for (u, v, w) in arcs if u == v == nodes[0]]
        return min(self_w) if self_w else None
    if not arcs:
        return None
    idx = {u: i for i, u in enumerate(nodes)}
    local = [(idx[u], idx[v], w) for (u, v, w) in arcs]
    INF = None
    D = [[INF] * ns for _ in range(ns + 1)]
    D[0][0] = Fraction(0)
    for k in range(1, ns + 1):
        prev = D[k - 1]
        cur = D[k]
        for (u, v, w) in local:
            pu = prev[u]
            if pu is None:
                continue
            cand = pu + w
            if cur[v] is None or cand < cur[v]:
                cur[v] = cand
    best = None
    top = D[ns]
    for v in range(ns):
        if top[v] is None:
            continue
        worst = None
        for k in range(ns):
            dk = D[k][v]
            if dk is None:
                continue
            ratio = (top[v] - dk) / (ns - k)
            if worst is None or ratio > worst:
                worst = ratio
        if worst is not None and (best is None or worst < best):
            best = worst
    return best


def digraph_min_cycle_mean(n: int, arcs: list):
    """Exact minimum cycle mean over a whole digraph; None if acyclic.

    arcs: (u, v, w) with Fraction weights.
    """
    succ = [[] for _ in range(n)]
    for (u, v, _) in arcs:
        succ[u].append(v)
    best = None
    for comp in tarjan_sccs(n, succ):
        comp_set = set(comp)
        sub = [(u, v, w) for (u, v, w) in arcs if u in comp_set and v in comp_set]
        mu = min_mean_cycle(comp, sub)
        if mu is not None and (best is None or mu < best):
            best = mu
    return best


def max_cycle_mean(A: TropMatrix) -> ExtScalar:
    """Largest mean weight of a cycle in the digraph of finite entries.

    -inf when the digraph is acyclic.  Runs the minimum-mean routine on
    negated weights per strongly connected component and takes the max.
    """
    if A.typing != "max":
        raise TypingError("max_cycle_mean is for max-plus typed matrices")
    if A.rows != A.cols:
        raise TypingError("max_cycle_mean needs a square matrix")
    n = A.rows
    arcs = []
    for i in range(n):
        for j in range(n):
            x = A.data[i][j]
            if x.is_finite:
                arcs.append((i, j, -x.value))
    mu = digraph_min_cycle_mean(n, arcs)
    return NEG_INF if mu is None else ExtScalar.finite(-mu)


# ---------------------------------------------------------------------------
# scaled integer form and the Kleene star

_GUARD = 1 << 61


def _fit(w, big):
    """w as int64 when big, a bound on every value the caller forms from
    it, stays below 2^61, otherwise as Python ints."""
    return w.astype(np.int64 if big < _GUARD else object)


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
