"""Two-sided max-plus systems and their deterministic mean-payoff games.

A system A (x) <= B (x) (both m x n, max-plus typed) turns into a bipartite
game: one Min node per column, one Max node per row.  Min moves j -> i along
finite A entries at cost -a_ij, Max answers i -> l along finite B entries at
reward b_il.  The value of Min node j (cycle weight over number of turns,
a turn being a Min/Max move pair) is >= 0 exactly when the system has a
solution with x_j finite.

The solver is policy iteration for the Max player.  Evaluating a fixed Max
strategy is a one-player minimum-cycle problem handled exactly on whole
int64 arrays after clearing denominators: reachability and SCCs by boolean
matrix squaring, one Karp table for all SCCs, and the least reachable cycle
mean per node.  Every solve is finished by a verification gate: Min's tight
best response is extracted and its one-player problem solved independently;
values are only accepted when the two bounds coincide, which certifies a
saddle point no matter what path policy iteration took.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix import TropMatrix, TypingError, _den_lcm, _fit, _scaled
from .semiring import NEG_INF


class IsolatedNode(ValueError):
    """A variable column of A, or a row of B, with no finite entry."""


class InvalidStrategy(ValueError):
    """A strategy selecting a -inf entry or an out-of-range index."""


class EngineError(RuntimeError):
    """Policy iteration exhausted its budget without a certified solution."""


# ---------------------------------------------------------------------------
# systems and game graphs


class TwoSidedSystem:
    """A pair of m x n max-plus matrices for the system A (x) <= B (x).

    A must have a finite entry in every column and B in every row,
    otherwise the game would have a node without moves (IsolatedNode).
    """

    __slots__ = ("A", "B")

    def __init__(self, A: TropMatrix, B: TropMatrix):
        if A.typing != "max" or B.typing != "max":
            raise TypingError("two-sided systems use max-plus typed matrices")
        if A.shape != B.shape:
            raise TypingError("A and B must have equal shapes")
        for j in range(A.cols):
            if not any(A.data[i][j].is_finite for i in range(A.rows)):
                raise IsolatedNode(f"column {j} of the left matrix has no finite entry")
        for i in range(B.rows):
            if not any(x.is_finite for x in B.data[i]):
                raise IsolatedNode(f"row {i} of the right matrix has no finite entry")
        self.A = A
        self.B = B

    @property
    def shape(self):
        return self.A.shape


@dataclass
class GameGraph:
    n_min: int  # columns
    n_max: int  # rows
    min_arcs: list  # per Min node j: [(i, weight)] with weight = -a_ij
    max_arcs: list  # per Max node i: [(j, weight)] with weight = b_ij


@dataclass
class StrategyPair:
    tau: list  # per Min node: chosen Max node
    sigma: list  # per Max node: chosen Min node


@dataclass
class GameValues:
    chi: list  # per Min node: exact Fraction value
    tau: list
    sigma: list


def build_game(sys: TwoSidedSystem) -> GameGraph:
    """Bipartite game graph of a two-sided system."""
    A, B = sys.A, sys.B
    m, n = A.shape
    min_arcs = []
    for j in range(n):
        arcs = []
        for i in range(m):
            a = A.data[i][j]
            if a.is_finite:
                arcs.append((i, -a.value))
        min_arcs.append(arcs)
    max_arcs = []
    for i in range(m):
        arcs = []
        for j in range(n):
            b = B.data[i][j]
            if b.is_finite:
                arcs.append((j, b.value))
        max_arcs.append(arcs)
    return GameGraph(n, m, min_arcs, max_arcs)


def _check_strategies(game: GameGraph, strat: StrategyPair):
    if len(strat.tau) != game.n_min or len(strat.sigma) != game.n_max:
        raise InvalidStrategy("strategy length mismatch")
    for j, i in enumerate(strat.tau):
        if not any(t == i for (t, _) in game.min_arcs[j]):
            raise InvalidStrategy(f"tau[{j}] = {i} is not a finite move")
    for i, j in enumerate(strat.sigma):
        if not any(t == j for (t, _) in game.max_arcs[i]):
            raise InvalidStrategy(f"sigma[{i}] = {j} is not a finite move")


def play_value(game: GameGraph, j: int, strat: StrategyPair) -> Fraction:
    """Cycle weight over number of turns of the play from Min node j
    under positional strategies (tau, sigma)."""
    _check_strategies(game, strat)
    seen = {}
    cum = Fraction(0)
    turns = 0
    pos = j
    while pos not in seen:
        seen[pos] = (cum, turns)
        i = strat.tau[pos]
        w_min = next(w for (t, w) in game.min_arcs[pos] if t == i)
        nxt = strat.sigma[i]
        w_max = next(w for (t, w) in game.max_arcs[i] if t == nxt)
        cum += w_min + w_max
        turns += 1
        pos = nxt
    c0, t0 = seen[pos]
    return (cum - c0) / (turns - t0)


def restrict_strategies(sys: TwoSidedSystem, tau=None, sigma=None) -> TwoSidedSystem:
    """Keep only the strategy-selected entries: a_ij survives when i = tau[j],
    b_ij when j = sigma[i].  Either side may be None to keep that matrix."""
    A, B = sys.A, sys.B
    m, n = A.shape
    if tau is not None:
        if len(tau) != n:
            raise InvalidStrategy("tau length mismatch")
        for j, i in enumerate(tau):
            if not (0 <= i < m) or not A.data[i][j].is_finite:
                raise InvalidStrategy(f"tau[{j}] = {i} selects no finite entry")
        A = TropMatrix(
            [[A.data[i][j] if tau[j] == i else NEG_INF for j in range(n)] for i in range(m)],
            "max",
        )
    if sigma is not None:
        if len(sigma) != m:
            raise InvalidStrategy("sigma length mismatch")
        for i, j in enumerate(sigma):
            if not (0 <= j < n) or not B.data[i][j].is_finite:
                raise InvalidStrategy(f"sigma[{i}] = {j} selects no finite entry")
        B = TropMatrix(
            [[B.data[i][j] if sigma[i] == j else NEG_INF for j in range(n)] for i in range(m)],
            "max",
        )
    return TwoSidedSystem(A, B)


# ---------------------------------------------------------------------------
# the policy-iteration engine
#
# An Arena holds integer-scaled arc arrays.  Min arcs are grouped by Min
# node (a_src nondecreasing); Max arcs are grouped by Max node with
# offsets, so a Max strategy is an index into its group.

_INF64 = np.int64(1) << 62
_CUT64 = np.int64(1) << 61
_RATIO_CAP = 10000  # Dinkelbach steps of one _least_level


class Arena:
    def __init__(self, min_arcs, max_arcs, scale: int):
        # min_arcs: per j, [(i, int w)]; max_arcs: per i, [(j, int w)]
        for j, arcs in enumerate(min_arcs):
            if not arcs:
                raise IsolatedNode(f"column {j} has no finite entry")
        for i, arcs in enumerate(max_arcs):
            if not arcs:
                raise IsolatedNode(f"row {i} has no finite entry")
        a_src = np.array([j for j, arcs in enumerate(min_arcs) for _ in arcs], dtype=np.int64)
        b_src = np.array([i for i, arcs in enumerate(max_arcs) for _ in arcs], dtype=np.int64)
        self._fill(
            len(min_arcs),
            len(max_arcs),
            _offsets(a_src, len(min_arcs)),
            a_src,
            [i for arcs in min_arcs for (i, _) in arcs],
            [w for arcs in min_arcs for (_, w) in arcs],
            _offsets(b_src, len(max_arcs)),
            [j for arcs in max_arcs for (j, _) in arcs],
            [w for arcs in max_arcs for (_, w) in arcs],
            scale,
        )

    @classmethod
    def raw(cls, n_min, n_max, a_off, a_src, a_tgt, a_w, b_off, b_tgt, b_w, scale):
        """Wrap prebuilt arc arrays (already grouped; weights integer-scaled,
        int64 or Python ints)."""
        self = object.__new__(cls)
        self._fill(n_min, n_max, a_off, a_src, a_tgt, a_w, b_off, b_tgt, b_w, scale)
        return self

    def _fill(self, n_min, n_max, a_off, a_src, a_tgt, a_w, b_off, b_tgt, b_w, scale):
        maxw = max(1, _abs_max(a_w), _abs_max(b_w))
        v = max(n_min, n_max) + 2
        if maxw * v * v * v >= (1 << 62):
            raise EngineError("weights too large for the integer engine")
        self.n_min = n_min
        self.n_max = n_max
        self.scale = scale
        self.a_off = a_off
        self.a_src = np.asarray(a_src, dtype=np.int64)
        self.a_tgt = np.asarray(a_tgt, dtype=np.int64)
        self.a_w = np.asarray(a_w, dtype=np.int64)
        self.b_off = b_off
        self.b_tgt = np.asarray(b_tgt, dtype=np.int64)
        self.b_w = np.asarray(b_w, dtype=np.int64)

    def sigma_arrays(self, sig_idx):
        pos = self.b_off[:-1] + sig_idx
        return self.b_tgt[pos], self.b_w[pos]


def _abs_max(w) -> int:
    """Largest |w| over an int64 array, or a list or object array of
    Python ints; 0 when empty."""
    return int(np.max(np.abs(np.asarray(w)))) if len(w) else 0


def _offsets(src, k):
    """Group offsets of the nondecreasing node ids src over k nodes."""
    off = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=k), out=off[1:])
    return off


def _min_arcs(Aw, Af):
    """Min arcs of the finite entries of A scaled (Aw, Af), grouped by
    column with rows ascending: (a_off, a_src, a_tgt, a_w), a_w = -a."""
    a_src, a_tgt = np.nonzero(Af.T)
    return _offsets(a_src, Af.shape[1]), a_src, a_tgt, -Aw.T[Af.T]


def _live_rows(Af, Bf):
    """Mask of the rows of a scaled system that enter its game: all but
    the rows with no finite entry on either side, which constrain
    nothing.  Raises IsolatedNode, as TwoSidedSystem does, on a column
    without a finite left entry and on a row whose finite left side faces
    an empty right side."""
    cols = Af.any(axis=0)
    if not cols.all():
        raise IsolatedNode(f"column {int(np.argmin(cols))} of the left matrix has no finite entry")
    live = Bf.any(axis=1)
    dead = Af.any(axis=1) & ~live
    if dead.any():
        raise IsolatedNode(f"row {int(np.argmax(dead))} of the right matrix has no finite entry")
    return live


def _pair_arena(Aw, Af, Bw, Bf, scale):
    """(arena, rows): the arena of A (x) <= B (x) from weights scaled by
    `scale` (int64 or Python ints, 0 off the finite masks Af, Bf), in
    build_game's arc order, over the live rows `rows` (_live_rows)."""
    rows = np.flatnonzero(_live_rows(Af, Bf))
    if len(rows) < len(Af):
        Aw, Af, Bw, Bf = Aw[rows], Af[rows], Bw[rows], Bf[rows]
    a_off, a_src, a_tgt, a_w = _min_arcs(Aw, Af)
    b_src, b_tgt = np.nonzero(Bf)
    m, n = Af.shape
    arena = Arena.raw(n, m, a_off, a_src, a_tgt, a_w, _offsets(b_src, m), b_tgt, Bw[Bf], scale)
    return arena, rows


def _adjacency(ns, src, dst):
    adj = np.zeros((ns, ns), dtype=bool)
    adj[src, dst] = True
    return adj


def _closure(adj):
    """Reflexive-transitive closure of a boolean adjacency matrix, by
    repeated squaring.  The float32 product only counts 0/1 paths (sums of
    at most n ones), so it is exact."""
    r = adj | np.eye(len(adj), dtype=bool)
    while True:
        f = r.astype(np.float32)
        nr = (f @ f) > 0
        if np.array_equal(nr, r):
            return r
        r = nr


def _sccs(ns, src, dst):
    """(reach, root): the reflexive-transitive closure of a digraph, and
    the least node of each node's SCC (R & R^T gives the SCCs)."""
    reach = _closure(_adjacency(ns, src, dst))
    return reach, np.argmax(reach & reach.T, axis=1)


def _relax(n, src, dst, w, x, parent=None):
    """Bellman-Ford rounds x_u <- min(x_u, w + x_v) over the arcs u -> v,
    until nothing changes or n + 1 rounds have run.  When given, parent[u]
    is set to the arc that last lowered x_u."""
    if not len(src):
        return x
    order = np.argsort(src, kind="stable")
    ps, pd, pw = src[order], dst[order], w[order]
    heads, starts = np.unique(ps, return_index=True)
    x = x.copy()
    for _ in range(n + 1):
        cand = pw + x[pd]
        best = np.minimum.reduceat(cand, starts)
        xh = x[heads]
        lower = best < xh
        if not lower.any():
            break
        if parent is not None:
            seg = np.append(starts, len(ps))
            arc = _first(cand == np.repeat(best, np.diff(seg)), seg)
            parent[heads[lower]] = order[arc[lower]]
        x[heads] = np.minimum(xh, best)
    return x


def _negative_cycle(n, src, dst, w):
    """The arcs of a negative cycle, or None.  Bellman-Ford from 0 at every
    node with parent arcs: every cycle of the parent graph is negative, and
    a negative cycle keeps the rounds from settling, which leaves one there
    after n + 1 rounds; pointer doubling finds a node on it."""
    parent = np.full(n, -1, dtype=np.int64)
    _relax(n, src, dst, w, np.zeros(n, dtype=w.dtype), parent)
    nxt = np.append(np.append(dst, n)[parent], n)
    for _ in range(n.bit_length()):
        nxt = nxt[nxt]
    on = nxt[:n][nxt[:n] < n]
    if not len(on):
        return None
    start = v = int(on[0])
    arcs = []
    while not arcs or v != start:
        arcs.append(int(parent[v]))
        v = int(dst[arcs[-1]])
    return arcs


def _least_level(n, src, dst, w0, k, L: int, lam: Fraction):
    """Least level from lam on at which no cycle is negative, an arc
    weighing (w0 + k * level * L) / L with k >= 0; None when none is at lam.
    Dinkelbach's iteration: while some cycle C is negative, move up to the
    level at which C weighs 0, its ratio -W0(C) / (K(C) L).  On int64 while
    the walk weights fit, on Python ints beyond."""
    top = _abs_max(w0)
    for it in range(_RATIO_CAP):
        num, den = lam.numerator, lam.denominator
        big = (n + 2) * (top * den + abs(num) * L)
        w = _fit(w0, big) * den + _fit(k, big) * (num * L)
        cyc = _negative_cycle(n, src, dst, w)
        if cyc is None:
            return lam if it else None
        K = int(k[cyc].sum())
        if K == 0:
            raise EngineError("negative cycle without a level arc")
        lam = Fraction(-sum(int(v) for v in w0[cyc]), K * L)
    raise EngineError("cycle-ratio iteration failed to converge")


def _first(cond, off):
    """Per segment [off[k], off[k+1]) (none empty), the first index where
    cond holds, or -1."""
    idx = np.where(cond, np.arange(len(cond)), len(cond))
    first = np.minimum.reduceat(idx, off[:-1])
    return np.where(first == len(cond), -1, first)


def _last(cond, off):
    """Per segment, the last index where cond holds, or -1."""
    return np.maximum.reduceat(np.where(cond, np.arange(len(cond)), -1), off[:-1])


def _karp_table(ns, src, dst, w, root):
    """Karp's table for every SCC at once, walks starting at each SCC's
    least node (root) and using only arcs inside one SCC.

    Returns (D, N, cut): D[k, v] is the least weight of a k-arc walk from
    v's root to v, or at least cut when there is none, for k = 0..N with
    N the largest SCC size.  w is int64 (walk weights below 2^61) or
    Python ints in an object array, whose sentinel grows with the
    weights."""
    inner = root[src] == root[dst]
    isrc, idst, iw = src[inner], dst[inner], w[inner]
    N = int(np.max(np.bincount(root, minlength=ns)))
    inf = _INF64 if w.dtype != object else 4 * (N + 1) * (_abs_max(iw) + 1)
    D = np.full((N + 1, ns), inf, dtype=w.dtype)
    D[0, root == np.arange(ns)] = 0
    if len(idst):
        order = np.argsort(idst, kind="stable")
        isrc, idst, iw = isrc[order], idst[order], iw[order]
        heads, starts = np.unique(idst, return_index=True)
        for k in range(1, N + 1):
            D[k, heads] = np.minimum.reduceat(D[k - 1][isrc] + iw, starts)
    return D, N, inf // 2


def _karp_values(ns, src, dst, w, root):
    """Karp's value at every node, from one table for all SCCs.

    Returns (cyc, vn, vd): cyc marks the nodes v with a finite walk of N
    arcs, and vn/vd is the reduced fraction max_k (D_N(v) - D_k(v)) /
    (N - k) at those nodes.  Karp's theorem holds for any N at least the
    SCC size, so the least value over the cyc nodes of an SCC is its
    minimum cycle mean; an SCC without a cycle has no cyc node.  On
    Python ints every node is scanned exactly, with no float ratio."""
    D, N, cut = _karp_table(ns, src, dst, w, root)
    cyc = D[N] < cut
    ok = (D[:N] < cut) & cyc
    nums = np.where(ok, D[N] - D[:N], 0)
    dens = (N - np.arange(N, dtype=np.int64))[:, None]
    if w.dtype == object:
        vn, vd = np.zeros(ns, dtype=object), np.ones(ns, dtype=object)
        exact = np.zeros(ns, dtype=bool)
    else:
        kk = np.argmax(np.where(ok, nums / dens, -np.inf), axis=0)
        vn = nums[kk, np.arange(ns)]
        vd = dens[kk, 0]
        # float prefilter, re-checked exactly; exact scan where it missed
        exact = np.all(~ok | (vn * dens >= nums * vd), axis=0)
    for v in np.flatnonzero(cyc & ~exact):
        f = max(Fraction(int(nums[k, v]), int(dens[k, 0])) for k in np.flatnonzero(ok[:, v]))
        vn[v], vd[v] = f.numerator, f.denominator
    g = np.gcd(vn, vd)
    return cyc, np.where(cyc, vn // g, 0), np.where(cyc, vd // g, 1)


def _mean_signs(ns, src, dst, w):
    """Signs of the minimum cycle means of a digraph, with no division.

    Returns (reach, cyc, top): reach is the reflexive-transitive closure,
    and top[v] = max_k (D_N(v) - D_k(v)) at the nodes cyc of Karp's table.
    Every denominator N - k is positive, so top[v] has the sign of Karp's
    value at v; over the cyc nodes of any union of SCCs, the least value
    is their minimum cycle mean.  So a set of SCCs has a cycle of negative
    (nonpositive) mean exactly when one of its cyc nodes has top < 0
    (top <= 0).  w may hold Python ints; it runs on int64 whenever every
    walk weight fits."""
    reach, root = _sccs(ns, src, dst)
    big = (ns + 1) * _abs_max(w)
    D, N, cut = _karp_table(ns, src, dst, _fit(w, big), root)
    cyc = D[N] < cut
    top = np.where((D[:N] < cut) & cyc, D[N] - D[:N], -2 * cut).max(axis=0)
    return reach, cyc, top


def _max_cycle_mean(w, finite):
    """Largest cycle mean of the digraph of the finite entries of a square
    array of scaled integer weights, exact and in the same scale; None
    when the digraph is acyclic.  Karp on the negated weights, on int64
    whenever it fits and on Python ints beyond."""
    ns = len(finite)
    src, dst = np.nonzero(finite)
    neg = -w[finite]
    _, root = _sccs(ns, src, dst)
    cyc, vn, vd = _karp_values(ns, src, dst, _fit(neg, (ns + 2) ** 3 * _abs_max(neg)), root)
    if not cyc.any():
        return None
    return -min(Fraction(int(vn[v]), int(vd[v])) for v in np.flatnonzero(cyc))


def _one_player_min(ns, src, dst, w, need_bias):
    """Exact one-player evaluation of a Min-controlled weighted graph.

    Every node must have an outgoing arc.  Returns (g_num, g_den, vhat):
    per-node gain (minimum reachable cycle mean) as a reduced fraction,
    and, when need_bias, a per-node integer bias in units of 1/g_den of
    its own gain level.
    """
    reach, root = _sccs(ns, src, dst)
    cyc, vn, vd = _karp_values(ns, src, dst, w, root)
    cand = reach & cyc  # u reaches the cyc node v
    if not np.all(cand.any(axis=1)):
        raise EngineError("node with no reachable cycle; graph not total")
    best = np.argmin(np.where(cand, vn / vd, np.inf), axis=1)
    g_num, g_den = vn[best], vd[best]
    exact = np.all(
        ~cand | (g_num[:, None] * vd[None, :] <= vn[None, :] * g_den[:, None]), axis=1
    )
    for u in np.flatnonzero(~exact):
        f = min(Fraction(int(vn[v]), int(vd[v])) for v in np.flatnonzero(cand[u]))
        g_num[u], g_den[u] = f.numerator, f.denominator
    if not need_bias:
        return g_num, g_den, None

    # Bias, per gain level (admissible arcs join equal gains only), in
    # scaled integers.  Steps: potentials pi (<= 0, feasible for the
    # gain-adjusted weights), tight subgraph, critical nodes = nodes of
    # tight cycles, then distance-to-critical with boundary pi.
    adm = (g_num[src] == g_num[dst]) & (g_den[src] == g_den[dst])
    asrc, adst, aw = src[adm], dst[adm], w[adm]
    wprime = aw * g_den[asrc] - g_num[asrc]
    pi = _relax(ns, asrc, adst, wprime, np.zeros(ns, dtype=np.int64))
    tight = pi[asrc] == wprime + pi[adst]
    tadj = _adjacency(ns, asrc[tight], adst[tight])
    critical = np.any(tadj & _closure(tadj).T, axis=1)  # tight u -> v, v reaches u
    vhat = _relax(ns, asrc, adst, wprime, np.where(critical, pi, _INF64))
    if bool(np.any(vhat >= _CUT64)):
        raise EngineError("bias propagation failed to reach a critical node")
    return g_num, g_den, vhat


def _one_player_max(ns, src, dst, w):
    """Per-node maximum reachable cycle mean, via the min routine on
    negated weights."""
    g_num, g_den, _ = _one_player_min(ns, src, dst, -w, need_bias=False)
    return -g_num, g_den


class _Evaluation:
    __slots__ = ("g_num", "g_den", "vhat", "t_dst", "t_w")

    def __init__(self, g_num, g_den, vhat, t_dst, t_w):
        self.g_num = g_num
        self.g_den = g_den
        self.vhat = vhat
        self.t_dst = t_dst
        self.t_w = t_w


def _evaluate(arena: Arena, sig_idx) -> _Evaluation:
    sig_tgt, sig_w = arena.sigma_arrays(sig_idx)
    t_dst = sig_tgt[arena.a_tgt]
    t_w = arena.a_w + sig_w[arena.a_tgt]
    g_num, g_den, vhat = _one_player_min(
        arena.n_min, arena.a_src, t_dst, t_w, need_bias=True
    )
    return _Evaluation(g_num, g_den, vhat, t_dst, t_w)


def _improve(arena: Arena, sig_idx, ev: _Evaluation, reverse=False):
    """One all-switch improvement pass; returns the number of switches.

    Rule per Max node: lexicographically maximize (gain of target, then
    scaled bias appraisal within that gain level); switch only on strict
    improvement; ties go to the lowest target index (highest under
    reverse, used by the anti-cycling perturbation)."""
    gn, gd, vhat = ev.g_num, ev.g_den, ev.vhat
    off, tgt, ws = arena.b_off, arena.b_tgt, arena.b_w
    grp = np.repeat(np.arange(arena.n_max), np.diff(off))
    tn, td = gn[tgt], gd[tgt]
    ratios = tn / td
    kk = _first(ratios == np.maximum.reduceat(ratios, off[:-1])[grp], off)
    bn, bd = tn[kk], td[kk]
    exact = np.logical_and.reduceat(bn[grp] * td >= tn * bd[grp], off[:-1])
    for i in np.flatnonzero(~exact):
        # float prefilter missed a tie or rounding edge; exact scan
        lo, hi = off[i], off[i + 1]
        f = max(Fraction(int(n), int(d)) for n, d in zip(tn[lo:hi], td[lo:hi]))
        bn[i], bd[i] = f.numerator, f.denominator
    level = tn * bd[grp] == bn[grp] * td
    appr = ws * bd[grp] + vhat[tgt]
    top = np.maximum.reduceat(np.where(level, appr, np.iinfo(np.int64).min), off[:-1])
    hit = level & (appr == top[grp])
    pick = (_last if reverse else _first)(hit, off) - off[:-1]
    cur = off[:-1] + sig_idx
    ct = tgt[cur]
    # a lower current gain, or an equal one with a lower appraisal
    switch = (gn[ct] * bd < bn * gd[ct]) | (top > ws[cur] * bd + vhat[ct])
    sig_idx[switch] = pick[switch]
    return int(np.count_nonzero(switch))


def _tight_tau(arena: Arena, ev: _Evaluation):
    """Min's best response to the evaluated sigma: per Min node, the lowest
    Max row whose turn arc is gain-admissible and bias-tight."""
    gn, gd, vhat = ev.g_num, ev.g_den, ev.vhat
    j, l = arena.a_src, ev.t_dst
    tight = (gn[l] == gn[j]) & (gd[l] == gd[j])
    tight &= vhat[j] == ev.t_w * gd[j] - gn[j] + vhat[l]
    e = _first(tight, arena.a_off)
    if np.any(e < 0):
        raise EngineError(f"no tight move at Min node {int(np.argmax(e < 0))}")
    return arena.a_tgt[e].tolist()


def _gate(arena: Arena, ev: _Evaluation, tau):
    """Certify by solving Max's one-player game against tau.

    True when Max's best-response values match the sigma evaluation on
    every Min node, i.e. the pair is a saddle point."""
    tau_arr = np.asarray(tau, dtype=np.int64)
    e = _first(arena.a_tgt == tau_arr[arena.a_src], arena.a_off)
    if np.any(e < 0):
        raise EngineError("tau selects a missing arc")
    tau_w = arena.a_w[e]
    src = np.repeat(np.arange(arena.n_max, dtype=np.int64), np.diff(arena.b_off))
    dst = tau_arr[arena.b_tgt]
    w = arena.b_w + tau_w[arena.b_tgt]
    G_num, G_den = _one_player_max(arena.n_max, src, dst, w)
    return bool(np.all(ev.g_num * G_den[tau_arr] == G_num[tau_arr] * ev.g_den))


def solve_arena(arena: Arena, warm_sigma=None):
    """Certified exact game values of an arena.

    Returns (chi, tau, sigma, sig_idx) with chi as Fractions in original
    (unscaled) units."""
    if warm_sigma is not None and len(warm_sigma) == arena.n_max:
        sig_idx = np.asarray(warm_sigma, dtype=np.int64).copy()
    else:
        sig_idx = np.zeros(arena.n_max, dtype=np.int64)
    budget = 200 + 5 * (arena.n_min + arena.n_max)
    seen = set()
    reverse = False
    perturbs = 0
    for _ in range(budget):
        ev = _evaluate(arena, sig_idx)
        if _improve(arena, sig_idx, ev, reverse=reverse) == 0:
            tau = _tight_tau(arena, ev)
            if _gate(arena, ev, tau):
                chi = [
                    Fraction(int(ev.g_num[j]), int(ev.g_den[j])) / arena.scale
                    for j in range(arena.n_min)
                ]
                sig_tgt, _ = arena.sigma_arrays(sig_idx)
                return chi, tau, [int(t) for t in sig_tgt], sig_idx
            perturbs += 1
            reverse = not reverse
            if perturbs > 3:
                break
            continue
        key = sig_idx.tobytes()
        if key in seen:
            reverse = not reverse
            seen.clear()
            perturbs += 1
            if perturbs > 6:
                break
        seen.add(key)
    return _solve_by_enumeration(arena)


def _solve_by_enumeration(arena: Arena):
    """Last-resort exact solve by enumerating Max strategies.

    The optimal positional sigma dominates every other componentwise, so
    tracking the running componentwise-max holder finds it."""
    degs = [int(d) for d in np.diff(arena.b_off)]
    total = 1
    for d in degs:
        total *= d
        if total > 200000:
            raise EngineError(
                "policy iteration failed and the strategy space is too large"
            )
    best = None
    best_idx = None
    sig_idx = np.zeros(arena.n_max, dtype=np.int64)
    while True:
        ev = _evaluate(arena, sig_idx)
        vals = [
            Fraction(int(ev.g_num[j]), int(ev.g_den[j])) for j in range(arena.n_min)
        ]
        if best is None or all(v >= b for v, b in zip(vals, best)):
            best = vals
            best_idx = sig_idx.copy()
        k = arena.n_max - 1
        while k >= 0:
            sig_idx[k] += 1
            if sig_idx[k] < degs[k]:
                break
            sig_idx[k] = 0
            k -= 1
        if k < 0:
            break
    ev = _evaluate(arena, best_idx)
    tau = _tight_tau(arena, ev)
    if not _gate(arena, ev, tau):
        raise EngineError("enumeration failed to certify a saddle point")
    chi = [
        Fraction(int(ev.g_num[j]), int(ev.g_den[j])) / arena.scale
        for j in range(arena.n_min)
    ]
    sig_tgt, _ = arena.sigma_arrays(best_idx)
    return chi, tau, [int(t) for t in sig_tgt], best_idx


# ---------------------------------------------------------------------------
# public solve on systems


def _solve_pair(Aw, Af, Bw, Bf, scale) -> GameValues:
    """solve_values on a system already scaled: weights times `scale` and
    their finite masks, as _scaled returns them.  Rows with no finite
    entry take no part: tau never picks them and sigma is None there."""
    arena, rows = _pair_arena(Aw, Af, Bw, Bf, scale)
    chi, tau, sig, _ = solve_arena(arena)
    sigma = [None] * len(Af)
    for r, c in zip(rows, sig):
        sigma[r] = c
    return GameValues(chi, [int(rows[t]) for t in tau], sigma)


def solve_values(sys: TwoSidedSystem) -> GameValues:
    """Exact values chi_j of every Min node, with a certified saddle pair.

    chi_j >= 0 exactly when the system has a solution with x_j finite.
    """
    L = _den_lcm(sys.A, sys.B)
    return _solve_pair(*_scaled(sys.A, L), *_scaled(sys.B, L), L)


# ---------------------------------------------------------------------------
# finite witnesses


def _descend(A: TropMatrix, B: TropMatrix, W: Fraction, L: int, sweeps: int):
    """Greatest-solution descent for A (x) <= B (x) on data scaled by L,
    from the seed (2W+2)*ones; see _descend_scaled.  W and the data must
    have denominators dividing L."""
    return _descend_scaled(*_scaled(A, L), *_scaled(B, L), int((2 * W + 2) * L), sweeps)


def _descend_scaled(Aw, Af, Bw, Bf, seed: int, sweeps: int):
    """Greatest-solution descent for A (x) <= B (x), scaled (weights and
    finite masks as _scaled returns them).

    The alternating method of Cuninghame-Green and Butkovic: from the
    seed, each sweep maps x to x /\\ A#(B x), where A#(y)_j =
    min_i (y_i - a_ij) over the finite a_ij (-inf as soon as one such y_i
    is -inf).  Every solution below the seed survives each sweep, so a
    fixpoint is the greatest one there.  When B has one column more than
    A, that coordinate is a constant pinned at 0, which gives the affine
    form A (x) <= B (x) + d.

    Returns None when `sweeps` sweeps reach no fixpoint, otherwise
    (x, finite, y, y_finite): the fixpoint (-inf where finite is False)
    and B (x) at it, in the scaled units.  With seed (2W+2)L, a sweep
    lowers the least finite entry by at most 2WL, so every value met
    stays below (sweeps+2)*seed in absolute value; int64 holds that under
    2^61, Python ints beyond it.
    """
    big = (sweeps + 2) * seed
    Aw, Bw = _fit(Aw, big), _fit(Bw, big)
    n = Af.shape[1]
    x = np.full(Bf.shape[1], seed, dtype=Aw.dtype)
    x[n:] = 0
    finite = np.ones(Bf.shape[1], dtype=bool)
    for _ in range(sweeps):
        live = Bf & finite
        y = np.where(live, Bw + x, -big).max(axis=1)
        y_fin = live.any(axis=1)
        z = np.where(Af, y[:, None] - Aw, big).min(axis=0)
        nfin = finite.copy()
        nfin[:n] &= ~(Af & ~y_fin[:, None]).any(axis=0)
        nx = x.copy()
        nx[:n] = np.where(nfin[:n], np.minimum(x[:n], z), -big)
        if np.array_equal(nx, x) and np.array_equal(nfin, finite):
            return x, finite, y, y_fin
        x, finite = nx, nfin
    return None


def system_weight_bound(sys: TwoSidedSystem) -> Fraction:
    return max(sys.A.finite_abs_max(), sys.B.finite_abs_max())


def _solves(Aw, Af, Bw, Bf, xs) -> bool:
    """Whether the integer point xs solves the scaled system exactly:
    max_j (a_ij + x_j) <= max_j (b_ij + x_j) on every row, in int64 while
    every sum stays below 2^61 and on Python ints beyond."""
    big = max(_abs_max(Aw.ravel()), _abs_max(Bw.ravel())) + max(abs(v) for v in xs)
    xv = _fit(np.array(xs, dtype=object), big)
    lhs = np.where(Af, _fit(Aw, big) + xv, -big - 1).max(axis=1)
    rhs = np.where(Bf, _fit(Bw, big) + xv, -big - 1).max(axis=1)
    return not np.any(lhs > rhs)


def _check_witness(A: TropMatrix, B: TropMatrix, x, L: int):
    """Raise EngineError unless the finite point x solves A (x) <= B (x).

    Exact: the data and x are scaled by L and compared by _solves.
    x * L must be integral."""
    xs = [v * L for v in x]
    if any(v.denominator != 1 for v in xs):
        raise EngineError("finite witness is not on the 1/L grid of the data")
    if not _solves(*_scaled(A, L), *_scaled(B, L), [int(v) for v in xs]):
        raise EngineError("finite witness violates the system")


def _finite_point(Aw, Af, Bw, Bf, L: int, sweeps: int):
    """A finite solution of the system scaled by L, in scaled units, or
    None; the two stages of feasible_finite before its check.  Rows with
    no finite entry constrain nothing (see _live_rows)."""
    _live_rows(Af, Bf)
    WL = max(_abs_max(Aw.ravel()), _abs_max(Bw.ravel()))
    fix = _descend_scaled(Aw, Af, Bw, Bf, 2 * WL + 2 * L, sweeps)
    if fix is not None:
        x, finite, _, _ = fix
        return x if finite.all() else None  # greatest solution below the seed
    arena, _ = _pair_arena(Aw, Af, Bw, Bf, L)
    chi, tau, sigma, sig_idx = solve_arena(arena)
    if min(chi) < 0:
        return None
    return _bf_witness(arena, sig_idx)


def feasible_finite(sys: TwoSidedSystem, max_sweeps=None):
    """A finite solution of A (x) <= B (x) as a list of Fractions, or None.

    Three stages: a capped monotone descent from the seed (2W+2)*ones
    (its exact fixpoint below the seed is the greatest solution there,
    and this homogeneous system has a finite solution iff it has one
    below the seed); if the descent is inconclusive, the game decides
    the sign; a Bellman-Ford potential built from the optimal Max
    strategy then always produces a witness.  The witness is checked
    exactly before it is returned.
    """
    m, n = sys.shape
    if max_sweeps is None:
        max_sweeps = 3 * (m + n) + 6
    L = _den_lcm(sys.A, sys.B)
    Aw, Af = _scaled(sys.A, L)
    Bw, Bf = _scaled(sys.B, L)
    x = _finite_point(Aw, Af, Bw, Bf, L, max_sweeps)
    if x is None:
        return None
    xs = [int(v) for v in x]
    if not _solves(Aw, Af, Bw, Bf, xs):
        raise EngineError("finite witness violates the system")
    return [Fraction(v, L) for v in xs]


def _bf_witness(arena: Arena, sig_idx):
    """Finite solution, in scaled units, from the difference constraints
    x_j <= w + x_{sigma(i)} read off the turn graph of an optimal sigma
    (no negative cycles once every chi >= 0): super-source shortest
    paths, exact integers."""
    sig_tgt, sig_w = arena.sigma_arrays(sig_idx)
    dst = sig_tgt[arena.a_tgt]
    w = arena.a_w + sig_w[arena.a_tgt]
    return _relax(arena.n_min, arena.a_src, dst, w, np.zeros(arena.n_min, dtype=np.int64))
