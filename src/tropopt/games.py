"""Two-sided max-plus systems and their deterministic mean-payoff games.

A system A (x) <= B (x) (both m x n, max-plus typed) turns into a bipartite
game: one Min node per column, one Max node per row.  Min moves j -> i along
finite A entries at cost -a_ij, Max answers i -> l along finite B entries at
reward b_il.  The value of Min node j (cycle weight over number of turns,
a turn being a Min/Max move pair) is >= 0 exactly when the system has a
solution with x_j finite.

The solver is policy iteration for the Max player.  Evaluating a fixed Max
strategy is a one-player minimum-cycle problem handled exactly (Tarjan +
Karp + topological gain propagation, integer arithmetic after clearing
denominators).  Every solve is finished by a verification gate: Min's tight
best response is extracted and its one-player problem solved independently;
values are only accepted when the two bounds coincide, which certifies a
saddle point no matter what path policy iteration took.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .matrix import TropMatrix, TypingError, mat_vec_mul, tarjan_sccs
from .semiring import NEG_INF, fin


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


class Arena:
    def __init__(self, min_arcs, max_arcs, scale: int):
        # min_arcs: per j, [(i, int w)]; max_arcs: per i, [(j, int w)]
        self.n_min = len(min_arcs)
        self.n_max = len(max_arcs)
        self.scale = scale
        a_src, a_tgt, a_w = [], [], []
        self.a_off = np.zeros(self.n_min + 1, dtype=np.int64)
        for j, arcs in enumerate(min_arcs):
            if not arcs:
                raise IsolatedNode(f"column {j} has no finite entry")
            self.a_off[j + 1] = self.a_off[j] + len(arcs)
            for (i, w) in arcs:
                a_src.append(j)
                a_tgt.append(i)
                a_w.append(w)
        self.a_src = np.asarray(a_src, dtype=np.int64)
        self.a_tgt = np.asarray(a_tgt, dtype=np.int64)
        self.a_w = np.asarray(a_w, dtype=np.int64)
        b_tgt, b_w = [], []
        self.b_off = np.zeros(self.n_max + 1, dtype=np.int64)
        for i, arcs in enumerate(max_arcs):
            if not arcs:
                raise IsolatedNode(f"row {i} has no finite entry")
            self.b_off[i + 1] = self.b_off[i] + len(arcs)
            for (j, w) in arcs:
                b_tgt.append(j)
                b_w.append(w)
        self.b_tgt = np.asarray(b_tgt, dtype=np.int64)
        self.b_w = np.asarray(b_w, dtype=np.int64)
        maxw = 1
        if len(self.a_w):
            maxw = max(maxw, int(np.max(np.abs(self.a_w))))
        if len(self.b_w):
            maxw = max(maxw, int(np.max(np.abs(self.b_w))))
        v = max(self.n_min, self.n_max) + 2
        if maxw * v * v * v >= (1 << 62):
            raise EngineError("weights too large for the integer engine")

    @classmethod
    def raw(cls, n_min, n_max, a_off, a_src, a_tgt, a_w, b_off, b_tgt, b_w, scale):
        """Wrap prebuilt arc arrays (already grouped; weights integer-scaled)."""
        self = object.__new__(cls)
        self.n_min = n_min
        self.n_max = n_max
        self.scale = scale
        self.a_off = a_off
        self.a_src = a_src
        self.a_tgt = a_tgt
        self.a_w = a_w
        self.b_off = b_off
        self.b_tgt = b_tgt
        self.b_w = b_w
        maxw = 1
        if len(a_w):
            maxw = max(maxw, int(np.max(np.abs(a_w))))
        if len(b_w):
            maxw = max(maxw, int(np.max(np.abs(b_w))))
        v = max(n_min, n_max) + 2
        if maxw * v * v * v >= (1 << 62):
            raise EngineError("weights too large for the integer engine")
        return self

    def sigma_arrays(self, sig_idx):
        pos = self.b_off[:-1] + sig_idx
        return self.b_tgt[pos], self.b_w[pos]


def _min_mean_of_scc(nodes, src, dst, w):
    """Karp's minimum cycle mean on one SCC, exact.

    nodes: node ids of a strongly connected component; arcs all inside.
    Returns a Fraction, or None for a single node without a self-loop.
    """
    ns = len(nodes)
    if ns == 1:
        selfmask = src == dst
        if not np.any(selfmask):
            return None
        return Fraction(int(np.min(w[selfmask])), 1)
    remap = {int(u): k for k, u in enumerate(nodes)}
    ne = len(src)
    lsrc = np.fromiter((remap[int(u)] for u in src), dtype=np.int64, count=ne)
    ldst = np.fromiter((remap[int(u)] for u in dst), dtype=np.int64, count=ne)
    order = np.argsort(ldst, kind="stable")
    lsrc, ldst, lw = lsrc[order], ldst[order], w[order]
    grp_dst, grp_starts = np.unique(ldst, return_index=True)
    D = np.full((ns + 1, ns), _INF64, dtype=np.int64)
    D[0][0] = 0
    for k in range(1, ns + 1):
        cand = D[k - 1][lsrc] + lw
        segs = np.minimum.reduceat(cand, grp_starts)
        D[k][grp_dst] = segs
    top = D[ns]
    ks = np.arange(ns, dtype=np.int64)
    dens_all = ns - ks
    best = None
    for v in range(ns):
        tv = int(top[v])
        if tv >= int(_CUT64):
            continue
        col = D[:ns, v]
        mask = col < _CUT64
        if not np.any(mask):
            continue
        nums = tv - col[mask]
        dens = dens_all[mask]
        ratios = nums / dens
        kk = int(np.argmax(ratios))
        n0, d0 = int(nums[kk]), int(dens[kk])
        if np.all(n0 * dens >= nums * d0):
            cand_v = Fraction(n0, d0)
        else:
            # float prefilter missed a tie or rounding edge; exact scan
            cand_v = max(
                Fraction(int(nums[t]), int(dens[t])) for t in range(len(nums))
            )
        if best is None or cand_v < best:
            best = cand_v
    return best


class _SuccView:
    """Adjacency view over arc arrays, grouped by source node."""

    def __init__(self, n, src, dst):
        counts = np.bincount(src, minlength=n)
        self.off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.off[1:])
        order = np.argsort(src, kind="stable")
        self.dst = dst[order]

    def __getitem__(self, u):
        return self.dst[self.off[u] : self.off[u + 1]]


def _one_player_min(ns, src, dst, w, need_bias):
    """Exact one-player evaluation of a Min-controlled weighted graph.

    Every node must have an outgoing arc.  Returns (g_num, g_den, vhat):
    per-node gain (minimum reachable cycle mean) as a reduced fraction,
    and, when need_bias, a per-node integer bias in units of 1/g_den of
    its own gain level.
    """
    succ = _SuccView(ns, src, dst)
    comps = tarjan_sccs(ns, succ)  # successors listed before predecessors
    comp_of = np.empty(ns, dtype=np.int64)
    for ci, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = ci
    src_comp = comp_of[src]
    dst_comp = comp_of[dst]
    mus = []
    for ci, comp in enumerate(comps):
        if len(comp) == 1:
            u = comp[0]
            mask = (src == u) & (dst == u)
            if np.any(mask):
                mus.append(Fraction(int(np.min(w[mask])), 1))
            else:
                mus.append(None)
        else:
            mask = (src_comp == ci) & (dst_comp == ci)
            mus.append(
                _min_mean_of_scc(np.asarray(comp), src[mask], dst[mask], w[mask])
            )
    succ_comps = [set() for _ in comps]
    for e in range(len(src)):
        a, b = int(src_comp[e]), int(dst_comp[e])
        if a != b:
            succ_comps[a].add(b)
    g_comp = [None] * len(comps)
    for ci in range(len(comps)):
        best = mus[ci]
        for cj in succ_comps[ci]:
            gj = g_comp[cj]
            assert gj is not None  # Tarjan order: successors come first
            if best is None or gj < best:
                best = gj
        if best is None:
            raise EngineError("node with no reachable cycle; graph not total")
        g_comp[ci] = best
    g_num = np.empty(ns, dtype=np.int64)
    g_den = np.empty(ns, dtype=np.int64)
    for ci, comp in enumerate(comps):
        gn, gd = g_comp[ci].numerator, g_comp[ci].denominator
        for u in comp:
            g_num[u] = gn
            g_den[u] = gd
    if not need_bias:
        return g_num, g_den, None

    # Bias, per gain level (admissible arcs join equal gains only), in
    # scaled integers.  Steps: potentials pi (<= 0, feasible for the
    # gain-adjusted weights), tight subgraph, critical nodes = nodes of
    # tight cycles, then distance-to-critical with boundary pi.
    adm = (g_num[src] == g_num[dst]) & (g_den[src] == g_den[dst])
    asrc, adst, aw = src[adm], dst[adm], w[adm]
    wprime = aw * g_den[asrc] - g_num[asrc]
    pi = np.zeros(ns, dtype=np.int64)
    if len(asrc):
        order = np.argsort(asrc, kind="stable")
        ps, pd, pw = asrc[order], adst[order], wprime[order]
        grp_src, grp_starts = np.unique(ps, return_index=True)
        for _ in range(ns + 1):
            cand = pw + pi[pd]
            segs = np.minimum.reduceat(cand, grp_starts)
            new = pi.copy()
            new[grp_src] = np.minimum(new[grp_src], segs)
            np.minimum(new, 0, out=new)
            if np.array_equal(new, pi):
                break
            pi = new
    critical = np.zeros(ns, dtype=bool)
    if len(asrc):
        tightmask = pi[asrc] == wprime + pi[adst]
        ts, td = asrc[tightmask], adst[tightmask]
        if len(ts):
            tsucc = _SuccView(ns, ts, td)
            for comp in tarjan_sccs(ns, tsucc):
                if len(comp) > 1:
                    for u in comp:
                        critical[u] = True
            for u in ts[ts == td]:
                critical[u] = True
    vhat = np.where(critical, pi, _INF64)
    if len(asrc):
        for _ in range(ns + 1):
            cand = pw + vhat[pd]
            segs = np.minimum.reduceat(cand, grp_starts)
            new = vhat.copy()
            new[grp_src] = np.minimum(new[grp_src], segs)
            if np.array_equal(new, vhat):
                break
            vhat = new
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
    switches = 0
    for i in range(arena.n_max):
        lo, hi = int(arena.b_off[i]), int(arena.b_off[i + 1])
        if hi - lo == 1:
            continue
        tgts = arena.b_tgt[lo:hi]
        ws = arena.b_w[lo:hi]
        tn, td = gn[tgts], gd[tgts]
        ratios = tn / td
        kk = int(np.argmax(ratios))
        if not np.all(tn[kk] * td >= tn * td[kk]):
            best = None
            kk = 0
            for t in range(len(tn)):
                c = Fraction(int(tn[t]), int(td[t]))
                if best is None or c > best:
                    best = c
                    kk = t
        bn, bd = int(tn[kk]), int(td[kk])
        level = tn * bd == bn * td
        idxs = np.nonzero(level)[0]
        appr = ws[idxs] * bd + vhat[tgts[idxs]]
        if reverse:
            pick_local = len(appr) - 1 - int(np.argmax(appr[::-1]))
        else:
            pick_local = int(np.argmax(appr))
        pick = int(idxs[pick_local])
        cur = int(sig_idx[i])
        cn, cd = int(gn[tgts[cur]]), int(gd[tgts[cur]])
        if cn * bd < bn * cd:
            sig_idx[i] = pick
            switches += 1
            continue
        # equal gains: compare appraisals exactly (same level, same units)
        cur_appr = int(ws[cur]) * bd + int(vhat[tgts[cur]])
        best_appr = int(ws[pick]) * bd + int(vhat[tgts[pick]])
        if best_appr > cur_appr:
            sig_idx[i] = pick
            switches += 1
    return switches


def _tight_tau(arena: Arena, ev: _Evaluation):
    """Min's best response to the evaluated sigma: per Min node, the lowest
    Max row whose turn arc is gain-admissible and bias-tight."""
    gn, gd, vhat = ev.g_num, ev.g_den, ev.vhat
    tau = [-1] * arena.n_min
    for j in range(arena.n_min):
        lo, hi = int(arena.a_off[j]), int(arena.a_off[j + 1])
        for e in range(lo, hi):
            l = int(ev.t_dst[e])
            if gn[l] != gn[j] or gd[l] != gd[j]:
                continue
            wp = int(ev.t_w[e]) * int(gd[j]) - int(gn[j])
            if int(vhat[j]) == wp + int(vhat[l]):
                tau[j] = int(arena.a_tgt[e])
                break
        if tau[j] < 0:
            raise EngineError(f"no tight move at Min node {j}")
    return tau


def _gate(arena: Arena, ev: _Evaluation, tau):
    """Certify by solving Max's one-player game against tau.

    True when Max's best-response values match the sigma evaluation on
    every Min node, i.e. the pair is a saddle point."""
    tau_arr = np.asarray(tau, dtype=np.int64)
    tau_w = np.empty(arena.n_min, dtype=np.int64)
    for j in range(arena.n_min):
        lo, hi = int(arena.a_off[j]), int(arena.a_off[j + 1])
        for e in range(lo, hi):
            if int(arena.a_tgt[e]) == tau[j]:
                tau_w[j] = arena.a_w[e]
                break
        else:
            raise EngineError("tau selects a missing arc")
    src = np.repeat(np.arange(arena.n_max, dtype=np.int64), np.diff(arena.b_off))
    dst = tau_arr[arena.b_tgt]
    w = arena.b_w + tau_w[arena.b_tgt]
    G_num, G_den = _one_player_max(arena.n_max, src, dst, w)
    for j in range(arena.n_min):
        i = tau[j]
        if int(ev.g_num[j]) * int(G_den[i]) != int(G_num[i]) * int(ev.g_den[j]):
            return False
    return True


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


def _arena_from_system(sys: TwoSidedSystem) -> Arena:
    game = build_game(sys)
    L = _den_lcm(sys.A, sys.B)
    min_arcs = [[(i, int(w * L)) for (i, w) in arcs] for arcs in game.min_arcs]
    max_arcs = [[(j, int(w * L)) for (j, w) in arcs] for arcs in game.max_arcs]
    return Arena(min_arcs, max_arcs, L)


def solve_values(sys: TwoSidedSystem) -> GameValues:
    """Exact values chi_j of every Min node, with a certified saddle pair.

    chi_j >= 0 exactly when the system has a solution with x_j finite.
    """
    arena = _arena_from_system(sys)
    chi, tau, sigma, _ = solve_arena(arena)
    return GameValues(chi, tau, sigma)


# ---------------------------------------------------------------------------
# finite witnesses


def _den_lcm(*mats: TropMatrix) -> int:
    """Common denominator of the entries (infinities carry value 0)."""
    L = 1
    for M in mats:
        for row in M.data:
            for e in row:
                L = lcm(L, e.value.denominator)
    return L


def _scaled(M: TropMatrix, L: int):
    """(w, finite): L * M as Python ints (0 off the finite entries) in an
    object array, and the mask of finite entries.  The denominators of M
    must divide L."""
    finite = np.array([[e.is_finite for e in row] for row in M.data], dtype=bool)
    w = np.array(
        [[e.value.numerator * (L // e.value.denominator) for e in row] for row in M.data],
        dtype=object,
    )
    return w, finite


_GUARD = 1 << 61


def _descend(A: TropMatrix, B: TropMatrix, W: Fraction, L: int, sweeps: int):
    """Greatest-solution descent for A (x) <= B (x) on data scaled by L.

    The alternating method of Cuninghame-Green and Butkovic: from the
    seed (2W+2)*ones, each sweep maps x to x /\\ A#(B x), where A#(y)_j =
    min_i (y_i - a_ij) over the finite a_ij (-inf as soon as one such y_i
    is -inf).  Every solution below the seed survives each sweep, so a
    fixpoint is the greatest one there.  When B has one column more than
    A, that coordinate is a constant pinned at 0, which gives the affine
    form A (x) <= B (x) + d.  W and the data must have denominators
    dividing L.

    Returns None when `sweeps` sweeps reach no fixpoint, otherwise
    (x, finite, y, y_finite): the fixpoint times L (-inf where finite is
    False) and B (x) at it.  A sweep lowers the least finite entry by at
    most 2WL, so every value met stays below (sweeps+2)(2W+2)L in absolute
    value; int64 holds that under 2^61, Python ints beyond it.
    """
    seed = int((2 * W + 2) * L)
    big = (sweeps + 2) * seed
    dtype = np.int64 if big < _GUARD else object
    Aw, Af = _scaled(A, L)
    Bw, Bf = _scaled(B, L)
    Aw, Bw = Aw.astype(dtype), Bw.astype(dtype)
    n = A.cols
    x = np.full(B.cols, seed, dtype=dtype)
    x[n:] = 0
    finite = np.ones(B.cols, dtype=bool)
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


def _verify_solution(sys: TwoSidedSystem, x) -> bool:
    lhs = mat_vec_mul(sys.A, x)
    rhs = mat_vec_mul(sys.B, x)
    return all(l <= r for l, r in zip(lhs, rhs))


def feasible_finite(sys: TwoSidedSystem, max_sweeps=None):
    """A finite solution of A (x) <= B (x) as a list of Fractions, or None.

    Three stages: a capped monotone descent from the seed (2W+2)*ones
    (its exact fixpoint below the seed is the greatest solution there,
    and this homogeneous system has a finite solution iff it has one
    below the seed); if the descent is inconclusive, the game decides
    the sign; a Bellman-Ford potential built from the optimal Max
    strategy then always produces a witness.
    """
    m, n = sys.shape
    if max_sweeps is None:
        max_sweeps = 3 * (m + n) + 6
    L = _den_lcm(sys.A, sys.B)
    fix = _descend(sys.A, sys.B, system_weight_bound(sys), L, max_sweeps)
    if fix is not None:
        x, finite, _, _ = fix
        if not finite.all():
            return None  # greatest solution below the seed is not finite
        wit = [Fraction(int(v), L) for v in x]
    else:
        arena = _arena_from_system(sys)
        chi, tau, sigma, sig_idx = solve_arena(arena)
        if min(chi) < 0:
            return None
        wit = _bf_witness(arena, sig_idx)
    if not _verify_solution(sys, [fin(v) for v in wit]):
        raise EngineError("finite witness violates the system")
    return wit


def _bf_witness(arena: Arena, sig_idx):
    """Finite solution from the difference constraints x_j <= w + x_{sigma(i)}
    read off the turn graph of an optimal sigma (no negative cycles once
    every chi >= 0): super-source shortest paths, exact integers."""
    sig_tgt, sig_w = arena.sigma_arrays(sig_idx)
    src = arena.a_src
    dst = sig_tgt[arena.a_tgt]
    w = arena.a_w + sig_w[arena.a_tgt]
    order = np.argsort(src, kind="stable")
    ps, pd, pw = src[order], dst[order], w[order]
    grp_src, grp_starts = np.unique(ps, return_index=True)
    x = np.zeros(arena.n_min, dtype=np.int64)
    for _ in range(arena.n_min + 1):
        cand = pw + x[pd]
        segs = np.minimum.reduceat(cand, grp_starts)
        new = x.copy()
        new[grp_src] = np.minimum(new[grp_src], segs)
        if np.array_equal(new, x):
            break
        x = new
    return [Fraction(int(v), 1) / arena.scale for v in x]
