"""Shared test helpers: compact constructors and independent oracles.

The oracles here are deliberately primitive (exhaustive cycle
enumeration, grid search) so that library results are checked against
something that cannot share a bug with the solver machinery.
"""

import json
import re
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from tropopt import (
    NEG_INF,
    BadRational,
    DimensionMismatch,
    IllegalInfinity,
    MalformedJson,
    POS_INF,
    ZERO,
    AlcovedProblem,
    DivergentStar,
    ExtScalar,
    InfeasibleReduction,
    InvalidStrategy,
    IsolatedNode,
    PseudolinearProblem,
    PseudoquadraticProblem,
    TropMatrix,
    TwoSidedSystem,
    TypingError,
    build_game,
    conjugate,
    dual_mat_vec_mul,
    fin,
    mat_vec_mul,
    scal,
    tmax,
    tmin,
)
from tropopt.games import (
    _CUT64,
    _INF64,
    Arena,
    EngineError,
    GameValues,
    _Layout,
    _descend_scaled,
    _offsets,
    _solves,
    _values,
    solve_arena,
)
from tropopt.matrix import _abs_max, _den_lcm, _scaled, _segments
from tropopt.pseudolinear import _at_level, _tmat


def E(v):
    """None -> -inf, "+inf" -> +inf, numbers -> finite scalar."""
    if v is None:
        return NEG_INF
    if v == "+inf":
        return POS_INF
    if isinstance(v, ExtScalar):
        return v
    return fin(Fraction(v))


def M(rows, typing="max"):
    return TropMatrix([[E(v) for v in r] for r in rows], typing)


def V(vals):
    return [E(v) for v in vals]


def linprob(U, Vm, b, d, p, q):
    return PseudolinearProblem(M(U), M(Vm), V(b), V(d), V(p), V(q))


def quadprob(U, Vm, b, d, p, q, C):
    return PseudoquadraticProblem(M(U), M(Vm), V(b), V(d), V(p), V(q), M(C))


def golden_linear():
    """The worked two-variable instance with optimum 1 at x = (-1, 1)."""
    return linprob(
        [[None, -2], [3, None]],
        [[1, 0], [None, 1]],
        [None, None],
        [None, 1],
        [0, None],
        [-1, 0],
    )


def golden_game():
    """3x2 system whose game value vector is (-1, 4)."""
    A = M([[3, None], [7, None], [None, 0]])
    B = M([[2, None], [None, 1], [-3, 4]])
    return A, B


def swap_cycle_instance():
    """x1 <= x2, x2 <= x1, objective max(x2 - 0, 0 - x1): optimum 0,
    a-priori lower bound -inf."""
    return linprob(
        [[0, None], [None, 0]],
        [[None, 0], [0, None]],
        [None, None],
        [None, None],
        [0, None],
        ["+inf", 0],
    )


# ---------------------------------------------------------------------------
# exhaustive cycle oracles


def simple_cycles(n, arcs):
    """Elementary cycles of a digraph as lists of arc indices.

    Anchored enumeration: each cycle is reported once, from its
    smallest node.  Fine for n up to a dozen.
    """
    out = []
    by_src = [[] for _ in range(n)]
    for idx, (u, v, _) in enumerate(arcs):
        by_src[u].append((idx, v))

    def walk(anchor, node, path_nodes, path_arcs):
        for idx, nxt in by_src[node]:
            if nxt == anchor:
                out.append(path_arcs + [idx])
            elif nxt > anchor and nxt not in path_nodes:
                walk(anchor, nxt, path_nodes | {nxt}, path_arcs + [idx])

    for a in range(n):
        walk(a, a, {a}, [])
    return out


def reachable(n, arcs, start):
    adj = [[] for _ in range(n)]
    for u, v, _ in arcs:
        adj[u].append(v)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reach_negative(n, arcs):
    """Per node, whether it reaches an elementary cycle of negative
    weight (arcs (u, v, w), any number between two nodes)."""
    neg = set()
    for cyc in simple_cycles(n, arcs):
        if sum(arcs[i][2] for i in cyc) < 0:
            neg.update(arcs[i][0] for i in cyc)
    return [bool(reachable(n, arcs, u) & neg) for u in range(n)]


def cycle_means_from(n, arcs, start, turn_arcs=1):
    """Exact means of every elementary cycle reachable from start.

    turn_arcs: arcs per game turn (2 for bipartite game graphs)."""
    seen = reachable(n, arcs, start)
    sub = [a for a in arcs if a[0] in seen and a[1] in seen]
    means = []
    for cyc in simple_cycles(n, sub):
        w = sum(sub[i][2] for i in cyc)
        means.append(Fraction(w) / Fraction(len(cyc), turn_arcs))
    return means


def game_digraph(A, B):
    """Combined digraph of the bipartite game: columns 0..n-1, rows
    n..n+m-1; Min arcs weigh -a_ij, Max arcs weigh b_ij."""
    m, n = A.shape
    arcs = []
    for j in range(n):
        for i in range(m):
            if A.data[i][j].is_finite:
                arcs.append((j, n + i, -A.data[i][j].value))
    for i in range(m):
        for j in range(n):
            if B.data[i][j].is_finite:
                arcs.append((n + i, j, B.data[i][j].value))
    return m + n, arcs


def enum_min_strategies(A):
    """All column-player strategies: per column a row with finite entry."""
    m, n = A.shape
    choices = [[i for i in range(m) if A.data[i][j].is_finite] for j in range(n)]
    return [list(t) for t in product(*choices)]


def enum_max_strategies(B):
    m, n = B.shape
    choices = [[j for j in range(n) if B.data[i][j].is_finite] for i in range(m)]
    return [list(s) for s in product(*choices)]


def one_player_value(A, B, tau=None, sigma=None, start=0):
    """Value from a Min start when one player is pinned to a strategy:
    best reachable cycle mean of the remaining player (max when tau is
    pinned, min when sigma is pinned)."""
    m, n = A.shape
    arcs = []
    for j in range(n):
        rows = [tau[j]] if tau is not None else [
            i for i in range(m) if A.data[i][j].is_finite
        ]
        for i in rows:
            arcs.append((j, n + i, -A.data[i][j].value))
    for i in range(m):
        cols = [sigma[i]] if sigma is not None else [
            j for j in range(n) if B.data[i][j].is_finite
        ]
        for j in cols:
            arcs.append((n + i, j, B.data[i][j].value))
    means = cycle_means_from(m + n, arcs, start, turn_arcs=2)
    assert means, "a pinned game walk must reach a cycle"
    return max(means) if tau is not None else min(means)


# ---------------------------------------------------------------------------
# Karp on Fractions, one SCC at a time


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


def fraction_min_mean_cycle(nodes: list, arcs: list):
    """Karp's minimum cycle mean on one strongly connected component, on
    Fractions (the body tropopt.min_mean_cycle had before it wrapped the
    integer Karp).

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
        mu = fraction_min_mean_cycle(comp, sub)
        if mu is not None and (best is None or mu < best):
            best = mu
    return best


def oracle_max_cycle_mean(A):
    """tropopt.max_cycle_mean by the Fraction Karp on negated weights."""
    n = A.rows
    arcs = [(i, j, -e.value) for i in range(n) for j, e in enumerate(A.data[i]) if e.is_finite]
    mu = digraph_min_cycle_mean(n, arcs)
    return NEG_INF if mu is None else fin(-mu)


# ---------------------------------------------------------------------------
# greatest-solution descent on extended scalars


def _descent_step(A_conj, B, x):
    y = []
    for i in range(B.rows):
        best = NEG_INF
        row = B.data[i]
        for k in range(B.cols):
            a = row[k]
            if a.is_neg_inf or x[k].is_neg_inf:
                continue
            c = a + x[k]
            if best < c:
                best = c
        y.append(best)
    z = []
    for j in range(A_conj.rows):
        best = POS_INF
        row = A_conj.data[j]
        for i in range(len(y)):
            a = row[i]
            if a.is_pos_inf:
                continue
            c = a + y[i]  # finite + (-inf) = -inf: residuation forces -inf
            if c < best:
                best = c
        z.append(best)
    return [min(x[j], z[j]) for j in range(len(x))]


def _affine_step(Uc, V, d, x):
    n = V.cols
    y = []
    for i in range(V.rows):
        best = d[i]
        row = V.data[i]
        for k in range(n):
            a = row[k]
            if a.is_neg_inf:
                continue
            c = a + x[k]
            if best < c:
                best = c
        y.append(best)
    z = []
    for j in range(n):
        best = POS_INF
        row = Uc.data[j]
        for i in range(len(y)):
            a = row[i]
            if a.is_pos_inf:
                continue
            c = a + y[i]
            if c < best:
                best = c
        z.append(best)
    return [min(x[j], z[j]) for j in range(n)]


def descent_oracle(A, B, W, sweeps, d=None):
    """The Fraction-arithmetic descent from the seed (2W+2)*ones: x maps
    to x /\\ A#(B x), or to x /\\ A#(B x + d) when d is given.  Returns
    (x, converged) with x a list of extended scalars."""
    Ac = conjugate(A)
    x = [fin(2 * W + 2)] * A.cols
    for _ in range(sweeps):
        nxt = _descent_step(Ac, B, x) if d is None else _affine_step(Ac, B, d, x)
        if nxt == x:
            return x, True
        x = nxt
    return x, False


# ---------------------------------------------------------------------------
# game-engine kernels, one node or one SCC at a time
#
# The per-node engine the array kernels in tropopt.games replaced: Tarjan
# SCCs, one Karp table per SCC, gains propagated in topological order, and
# loops over the Max and Min nodes.  Same algorithm, same tie rules.


def _min_mean_of_scc(nodes, src, dst, w):
    """Karp's minimum cycle mean on one SCC, exact; None for a single
    node without a self-loop."""
    arcs = [(int(u), int(v), int(x)) for u, v, x in zip(src, dst, w)]
    mu = fraction_min_mean_cycle([int(u) for u in nodes], arcs)
    return None if mu is None else Fraction(mu)


class _SuccView:
    def __init__(self, n, src, dst):
        self.succ = [[] for _ in range(n)]
        for u, v in zip(src.tolist(), dst.tolist()):
            self.succ[u].append(v)

    def __getitem__(self, u):
        return self.succ[u]


def oracle_one_player_min(ns, src, dst, w, need_bias):
    """(g_num, g_den, vhat) as tropopt.games._one_player_min returns them."""
    comps = tarjan_sccs(ns, _SuccView(ns, src, dst))  # successors first
    comp_of = np.empty(ns, dtype=np.int64)
    for ci, comp in enumerate(comps):
        comp_of[comp] = ci
    g_comp = []
    for ci, comp in enumerate(comps):
        mask = (comp_of[src] == ci) & (comp_of[dst] == ci)
        best = _min_mean_of_scc(np.asarray(comp), src[mask], dst[mask], w[mask])
        for e in np.flatnonzero((comp_of[src] == ci) & (comp_of[dst] != ci)):
            gj = g_comp[comp_of[dst[e]]]
            if best is None or gj < best:
                best = gj
        if best is None:
            raise EngineError("node with no reachable cycle; graph not total")
        g_comp.append(best)
    g = [g_comp[c] for c in comp_of]
    g_num = np.array([f.numerator for f in g], dtype=np.int64)
    g_den = np.array([f.denominator for f in g], dtype=np.int64)
    if not need_bias:
        return g_num, g_den, None
    adm = [e for e in range(len(src)) if g[src[e]] == g[dst[e]]]
    wp = {e: int(w[e]) * int(g_den[src[e]]) - int(g_num[src[e]]) for e in adm}
    pi = [0] * ns
    for _ in range(ns + 1):
        new = list(pi)
        for e in adm:
            new[src[e]] = min(new[src[e]], wp[e] + pi[dst[e]])
        if new == pi:
            break
        pi = new
    tight = [e for e in adm if pi[src[e]] == wp[e] + pi[dst[e]]]
    ts = np.array([src[e] for e in tight], dtype=np.int64)
    td = np.array([dst[e] for e in tight], dtype=np.int64)
    critical = [False] * ns
    for comp in tarjan_sccs(ns, _SuccView(ns, ts, td)):
        if len(comp) > 1:
            for u in comp:
                critical[u] = True
    for e in tight:
        if src[e] == dst[e]:
            critical[src[e]] = True
    inf = int(_INF64)
    vhat = [pi[u] if critical[u] else inf for u in range(ns)]
    for _ in range(ns + 1):
        new = list(vhat)
        for e in adm:
            new[src[e]] = min(new[src[e]], wp[e] + vhat[dst[e]])
        if new == vhat:
            break
        vhat = new
    if any(v >= int(_CUT64) for v in vhat):
        raise EngineError("bias propagation failed to reach a critical node")
    return g_num, g_den, np.array(vhat, dtype=np.int64)


def oracle_improve(arena, sig_idx, ev):
    """tropopt.games._improve, one Max node at a time."""
    gn, gd, vhat = ev.g_num, ev.g_den, ev.vhat
    switches = 0
    for i in range(arena.n_max):
        lo, hi = int(arena.b_off[i]), int(arena.b_off[i + 1])
        tgts = [int(t) for t in arena.b_tgt[lo:hi]]
        gains = [Fraction(int(gn[t]), int(gd[t])) for t in tgts]
        best = max(gains)
        bd = best.denominator
        apprs = [
            (k, int(arena.b_w[lo + k]) * bd + int(vhat[t]))
            for k, t in enumerate(tgts)
            if gains[k] == best
        ]
        top = max(a for _, a in apprs)
        pick = next(k for k, a in apprs if a == top)
        cur = int(sig_idx[i])
        cur_appr = int(arena.b_w[lo + cur]) * bd + int(vhat[tgts[cur]])
        if gains[cur] < best or top > cur_appr:
            sig_idx[i] = pick
            switches += 1
    return switches


def oracle_tight_tau(arena, ev):
    """tropopt.games._tight_tau, one Min node at a time."""
    gn, gd, vhat = ev.g_num, ev.g_den, ev.vhat
    tau = []
    for j in range(arena.n_min):
        for e in range(int(arena.a_off[j]), int(arena.a_off[j + 1])):
            l = int(ev.t_dst[e])
            if gn[l] != gn[j] or gd[l] != gd[j]:
                continue
            wp = int(ev.t_w[e]) * int(gd[j]) - int(gn[j])
            if int(vhat[j]) == wp + int(vhat[l]):
                tau.append(int(arena.a_tgt[e]))
                break
        else:
            raise EngineError(f"no tight move at Min node {j}")
    return tau


def oracle_gate(arena, ev, tau):
    """tropopt.games._gate on the oracle one-player evaluation."""
    tau_w = []
    for j in range(arena.n_min):
        lo, hi = int(arena.a_off[j]), int(arena.a_off[j + 1])
        ws = [int(arena.a_w[e]) for e in range(lo, hi) if int(arena.a_tgt[e]) == tau[j]]
        if not ws:
            raise EngineError("tau selects a missing arc")
        tau_w.append(ws[0])
    tau_arr = np.asarray(tau, dtype=np.int64)
    src = np.repeat(np.arange(arena.n_max, dtype=np.int64), np.diff(arena.b_off))
    dst = tau_arr[arena.b_tgt]
    w = arena.b_w + np.asarray(tau_w, dtype=np.int64)[arena.b_tgt]
    G_num, G_den, _ = oracle_one_player_min(arena.n_max, src, dst, -w, False)
    return all(
        Fraction(int(ev.g_num[j]), int(ev.g_den[j]))
        == Fraction(-int(G_num[tau[j]]), int(G_den[tau[j]]))
        for j in range(arena.n_min)
    )


def oracle_seed_sigma(arena):
    """tropopt.games._seed_sigma node by node on Python ints: n_min rounds
    of value iteration from 0, renormalized to a largest value of 0, then
    per Max node the first arc of the largest value, and per Min node the
    first arc (its index in the arena's a-arrays) of the least value
    against those Max values."""
    a_off, a_tgt, a_w = arena.a_off.tolist(), arena.a_tgt.tolist(), arena.a_w.tolist()
    b_off, b_tgt, b_w = arena.b_off.tolist(), arena.b_tgt.tolist(), arena.b_w.tolist()

    def arc_values(i, x):
        return [b_w[e] + x[b_tgt[e]] for e in range(b_off[i], b_off[i + 1])]

    x = [0] * arena.n_min
    for _ in range(arena.n_min):
        y = [max(arc_values(i, x)) for i in range(arena.n_max)]
        x = [
            min(a_w[e] + y[a_tgt[e]] for e in range(a_off[j], a_off[j + 1]))
            for j in range(arena.n_min)
        ]
        top = max(x)
        x = [v - top for v in x]
    y = [max(arc_values(i, x)) for i in range(arena.n_max)]
    sigma = [v.index(y[i]) for i, v in enumerate(arc_values(i, x) for i in range(arena.n_max))]
    tau = []
    for j in range(arena.n_min):
        vals = [a_w[e] + y[a_tgt[e]] for e in range(a_off[j], a_off[j + 1])]
        tau.append(a_off[j] + vals.index(min(vals)))
    return sigma, tau


def oracle_arena_values(arena):
    """Game values of an arena by enumeration: every Max strategy
    evaluated by oracle_one_player_min, then the componentwise max, which
    an optimal positional strategy attains at every node at once."""
    best = None
    for sig in product(*(range(int(d)) for d in np.diff(arena.b_off))):
        pos = arena.b_off[:-1] + np.array(sig, dtype=np.int64)
        tgt, bw = arena.b_tgt[pos], arena.b_w[pos]
        g_num, g_den, _ = oracle_one_player_min(
            arena.n_min, arena.a_src, tgt[arena.a_tgt], arena.a_w + bw[arena.a_tgt], False
        )
        vals = [Fraction(int(n), int(d)) / arena.scale for n, d in zip(g_num, g_den)]
        best = vals if best is None else list(map(max, best, vals))
    return best


# ---------------------------------------------------------------------------
# certificates on Fractions
#
# The certificate route the integer one replaced: the literal pair built
# entry by entry as max-plus matrices, games solved through build_game,
# and the checkers running one Fraction Karp per start column on a
# reachable subgraph.  Fully vacuous structural rows are left out of the
# games (sigma None there), as the library does.


def oracle_pair(prob, lam):
    """(A, B, lam_rows): the literal parametric pair at lam plus one
    tautological row per column without a finite left entry."""
    lamS = scal(lam)
    m, n = prob.shape
    quad = isinstance(prob, PseudoquadraticProblem)
    arows, brows = [], []
    for i in range(m):
        arows.append(list(prob.U.data[i]) + [prob.b[i]])
        brows.append(list(prob.V.data[i]) + [prob.d[i]])
    lam_at = [[lamS if c == j else NEG_INF for c in range(n)] + [NEG_INF] for j in range(n)]
    if quad:
        for j in range(n):
            arows.append(list(prob.C.data[j]) + [NEG_INF])
            brows.append(lam_at[j])
    for j in range(n):
        arows.append([NEG_INF] * n + [prob.p[j]])
        brows.append(lam_at[j])
    arows.append([qj.conj() for qj in prob.q] + [NEG_INF])
    brows.append([NEG_INF] * n + [lamS])
    lam_rows = frozenset(range(m, len(arows)))
    for c in range(n + 1):
        if not any(row[c].is_finite for row in arows):
            arows.append([ZERO if k == c else NEG_INF for k in range(n + 1)])
            brows.append([ZERO if k == c else NEG_INF for k in range(n + 1)])
    return TropMatrix(arows, "max"), TropMatrix(brows, "max"), lam_rows


def arena_of(min_arcs, max_arcs, scale):
    """The Arena of per-node arc lists, min_arcs per Min node j [(i, int w)]
    and max_arcs per Max node i [(j, int w)], as build_game orders them."""
    for j, arcs in enumerate(min_arcs):
        if not arcs:
            raise IsolatedNode(f"column {j} has no finite entry")
    for i, arcs in enumerate(max_arcs):
        if not arcs:
            raise IsolatedNode(f"row {i} has no finite entry")
    a_src = np.array([j for j, arcs in enumerate(min_arcs) for _ in arcs], dtype=np.int64)
    b_src = np.array([i for i, arcs in enumerate(max_arcs) for _ in arcs], dtype=np.int64)
    a_tgt = np.array([i for arcs in min_arcs for (i, _) in arcs], dtype=np.int64)
    b_tgt = np.array([j for arcs in max_arcs for (j, _) in arcs], dtype=np.int64)
    a_off, b_off = _offsets(a_src, len(min_arcs)), _offsets(b_src, len(max_arcs))
    lay = _Layout(
        len(min_arcs), len(max_arcs), a_off, a_src, a_tgt, b_off, b_tgt,
        _segments(a_src), b_off[:-1], b_src,
    )
    a_w = [w for arcs in min_arcs for (_, w) in arcs]
    b_w = [w for arcs in max_arcs for (_, w) in arcs]
    return Arena(lay, a_w, b_w, scale, max(1, _abs_max(a_w), _abs_max(b_w)))


def oracle_solve_values(sys):
    """solve_values through build_game and per-entry Fraction scaling."""
    game = build_game(sys)
    L = _den_lcm(sys.A, sys.B)
    min_arcs = [[(i, int(w * L)) for (i, w) in arcs] for arcs in game.min_arcs]
    max_arcs = [[(j, int(w * L)) for (j, w) in arcs] for arcs in game.max_arcs]
    g_num, g_den, _, tau, sigma, _ = solve_arena(arena_of(min_arcs, max_arcs, L))
    return GameValues(_values(g_num, g_den, L), tau, sigma)


def _vacuous(A, B, r):
    return not any(e.is_finite for e in A.data[r]) and not any(e.is_finite for e in B.data[r])


def _live(A, B):
    """The pair without its vacuous rows, and the kept row indices; a row
    with a finite left entry and no finite right one is IsolatedNode."""
    rows = [r for r in range(A.rows) if not _vacuous(A, B, r)]
    for r in rows:
        if not any(e.is_finite for e in B.data[r]):
            raise IsolatedNode(f"row {r} of the right matrix has no finite entry")
    keep = lambda X: TropMatrix([X.data[r] for r in rows], "max")  # noqa: E731
    return keep(A), keep(B), rows


def _oracle_game(A, B):
    """Values of the pair's game without its vacuous rows, with tau and
    sigma on the pair's row indices (sigma None at the rows left out)."""
    sigma = [None] * A.rows
    vals = oracle_solve_values(TwoSidedSystem(*_live(A, B)[:2]))
    rows = _live(A, B)[2]
    for k, r in enumerate(rows):
        sigma[r] = vals.sigma[k]
    return vals.chi, [rows[t] for t in vals.tau], sigma


def _oracle_feasible(A, B, exact=False):
    """Whether A (x) <= B (x) (vacuous rows left out) has a finite
    solution: the Fraction descent when it converges, else the game on
    the integer engine, which refuses weights past its int64 guard as
    the library's engine does.  With exact, a pair past the guard gets
    the game's verdict on Fractions instead, by enumerating the row
    strategies: feasible exactly when each start column has one under
    which every cycle that Min reaches is nonnegative
    (one_player_value)."""
    A, B, _ = _live(A, B)
    sys = TwoSidedSystem(A, B)
    W = max(finite_abs_max(A), finite_abs_max(B))
    x, converged = descent_oracle(A, B, W, 3 * (A.rows + A.cols) + 6)
    if converged:
        return all(v.is_finite for v in x)
    if not exact or max(W * _den_lcm(A, B), 1) * (max(A.shape) + 2) ** 3 < 1 << 62:
        return min(oracle_solve_values(sys).chi) >= 0
    starts = set(range(A.cols))
    for sigma in enum_max_strategies(B):
        starts = {j for j in starts if one_player_value(A, B, sigma=sigma, start=j) < 0}
        if not starts:
            return True
    return False


def _finite_level(lam):
    lamS = scal(lam)
    if not lamS.is_finite:
        raise TypingError("certificate level must be finite")
    return lamS


def oracle_optimality_certificate(prob, lam):
    lamS = _finite_level(lam)
    A, B, _ = oracle_pair(prob, lamS)
    nodes = A.rows + A.cols
    dl = lamS.value.denominator
    L = _den_lcm(A, B)
    delta = Fraction(1, 4 * nodes * nodes * L * dl)
    chi, tau, _ = _oracle_game(*oracle_pair(prob, fin(lamS.value - delta))[:2])
    return None if min(chi) >= 0 else tau


def oracle_certify_optimal(prob, lam, tau, x=None):
    lamS = _finite_level(lam)
    A, B, lam_rows = oracle_pair(prob, lamS)
    M, n1 = A.shape
    if x is not None:
        xs = [scal(v) for v in x]
        if len(xs) != n1 - 1 or not all(v.is_finite for v in xs):
            raise TypingError("certificate point must be finite of full dimension")
        hom = xs + [ZERO]
        if not all(a <= c for a, c in zip(mat_vec_mul(A, hom), mat_vec_mul(B, hom))):
            return False
    elif not _oracle_feasible(A, B):
        return False
    if len(tau) != n1:
        raise InvalidStrategy("tau length mismatch")
    for j in range(n1):
        r = tau[j]
        if not (0 <= r < M) or not A.data[r][j].is_finite:
            raise InvalidStrategy(f"tau[{j}] selects no finite entry")
    return oracle_tau_passes(A, B, lam_rows, tau)


def oracle_tau_passes(A, B, lam_rows, tau):
    """Half (b) of oracle_certify_optimal for a valid tau: the Fraction
    Karp on the bipartite strategy graph, start by start."""
    M, n1 = A.shape
    arcs = [(j, n1 + tau[j], -A.data[tau[j]][j].value) for j in range(n1)]
    for r in range(M):
        for c in range(n1):
            if B.data[r][c].is_finite:
                arcs.append((n1 + r, c, B.data[r][c].value))
    lam_nodes = {n1 + r for r in lam_rows}
    for start in range(n1):
        reach = reachable(n1 + M, arcs, start)
        sub = [(s, t, w) for (s, t, w) in arcs if s in reach and t in reach]
        mm = digraph_min_cycle_mean(n1 + M, [(s, t, -w) for (s, t, w) in sub])
        if mm is not None and -mm > 0:
            continue
        hard = [(s, t, -w) for (s, t, w) in sub if s not in lam_nodes and t not in lam_nodes]
        mmh = digraph_min_cycle_mean(n1 + M, hard)
        if mmh is None or -mmh < 0:
            return True
    return False


def oracle_unboundedness_certificate(prob):
    chi, _, sigma = _oracle_game(*oracle_pair(prob, fin(prob._lam_floor()))[:2])
    return None if min(chi) < 0 else sigma


def oracle_certify_unbounded(prob, sigma):
    A, B, lam_rows = oracle_pair(prob, ZERO)
    M, n1 = A.shape
    if len(sigma) != M:
        raise InvalidStrategy("sigma length mismatch")
    for r in range(M):
        c = sigma[r]
        if _vacuous(A, B, r) and c is None:
            continue
        if c is None or not (0 <= c < n1) or not B.data[r][c].is_finite:
            raise InvalidStrategy(f"sigma[{r}] selects no finite entry")
    return oracle_sigma_passes(A, B, lam_rows, sigma)


def oracle_sigma_passes(A, B, lam_rows, sigma):
    """oracle_certify_unbounded's verdict for a valid sigma (None at the
    rows it leaves out): Tarjan's SCCs at the lam rows and the Fraction
    Karp on the bipartite strategy graph."""
    M, n1 = A.shape
    arcs = []
    for j in range(n1):
        for r in range(M):
            if A.data[r][j].is_finite:
                arcs.append((j, n1 + r, -A.data[r][j].value))
    for r in range(M):
        c = sigma[r]
        if c is not None:
            arcs.append((n1 + r, c, B.data[r][c].value))
    succ = [[] for _ in range(n1 + M)]
    for (s, t, _) in arcs:
        succ[s].append(t)
    for comp in tarjan_sccs(n1 + M, succ):
        if len(comp) > 1 and any(u - n1 in lam_rows for u in comp):
            return False
    mm = digraph_min_cycle_mean(n1 + M, arcs)
    return mm is None or mm >= 0


# ---------------------------------------------------------------------------
# the drop step on extended scalars


def oracle_kleene_star(A):
    """tropopt.kleene_star by max-plus Floyd-Warshall on ExtScalars, with
    the positive-diagonal check after every pivot."""
    n = A.rows
    D = [list(row) for row in A.data]
    for k in range(n):
        for i in range(n):
            dik = D[i][k]
            if dik.is_neg_inf:
                continue
            for j in range(n):
                dkj = D[k][j]
                if dkj.is_neg_inf:
                    continue
                cand = dik + dkj
                if D[i][j] < cand:
                    D[i][j] = cand
        for i in range(n):
            if D[i][i] > ZERO:
                raise DivergentStar("matrix has a positive-weight cycle")
    for i in range(n):
        if D[i][i] < ZERO:
            D[i][i] = ZERO
    return TropMatrix(D, "max")


def oracle_reduce_by_strategy(prob, sigma):
    """tropopt.reduce_by_strategy, one row and one entry at a time."""
    m, n = prob.shape
    if len(sigma) != m:
        raise InvalidStrategy("sigma length mismatch")
    R = [[NEG_INF] * n for _ in range(n)]
    l = [NEG_INF] * n
    u = [POS_INF] * n
    for i in range(m):
        s = sigma[i]
        if s is None:
            if any(prob.U.data[i][j].is_finite for j in range(n)) or prob.b[i].is_finite:
                raise InvalidStrategy(f"row {i} is not vacuous")
            continue
        if not (0 <= s <= n):
            raise InvalidStrategy(f"sigma[{i}] out of range")
        if s == n:
            if not prob.d[i].is_finite:
                raise InvalidStrategy(f"sigma[{i}] selects a -inf constant")
            if not prob.b[i] <= prob.d[i]:
                raise InfeasibleReduction(f"row {i}: constant sides conflict")
            for k in range(n):
                uik = prob.U.data[i][k]
                if uik.is_finite:
                    cand = prob.d[i] + (-uik)
                    if cand < u[k]:
                        u[k] = cand
        else:
            vis = prob.V.data[i][s]
            if not vis.is_finite:
                raise InvalidStrategy(f"sigma[{i}] selects a -inf entry")
            lc = prob.b[i] + (-vis)
            if l[s] < lc:
                l[s] = lc
            for k in range(n):
                uik = prob.U.data[i][k]
                if uik.is_finite:
                    rc = uik + (-vis)
                    if R[s][k] < rc:
                        R[s][k] = rc
    return AlcovedProblem(TropMatrix(R, "max"), l, u, prob.p, prob.q)


def _max_form(row, Mx, col):
    """max over j,k of row_j + Mx_jk + col_k, skipping -inf factors."""
    best = NEG_INF
    for j, rj in enumerate(row):
        if rj.is_neg_inf:
            continue
        Mrow = Mx.data[j]
        for k, ck in enumerate(col):
            if ck.is_neg_inf or Mrow[k].is_neg_inf:
                continue
            c = rj + Mrow[k] + ck
            if best < c:
                best = c
    return best


def oracle_solve_alcoved(alc):
    """tropopt.solve_alcoved through the ExtScalar operator kit: the star,
    three max-forms, the conjugate and the min-plus product."""
    n = alc.R.rows
    try:
        Rstar = oracle_kleene_star(alc.R)
    except DivergentStar:
        raise InfeasibleReduction("positive self-coupling cycle") from None
    Rl = mat_vec_mul(Rstar, alc.l)
    for k in range(n):
        if not Rl[k] <= alc.u[k]:
            raise InfeasibleReduction("bounds incompatible with coupling")
    qc = [e.conj() for e in alc.q]
    uc = [e.conj() for e in alc.u]
    theta = tmax(
        _max_form(qc, Rstar, alc.p).half(),
        _max_form(uc, Rstar, alc.p),
        _max_form(qc, Rstar, alc.l),
    )
    if theta.is_neg_inf:
        return NEG_INF, None
    w = [tmin(theta + alc.q[k], alc.u[k]) for k in range(n)]
    vup = dual_mat_vec_mul(conjugate(Rstar), w)
    v = []
    for j in range(n):
        if not vup[j].is_pos_inf:
            v.append(vup[j])
        else:
            alt = tmax(alc.l[j], alc.p[j] + (-theta))
            v.append(alt if not alt.is_neg_inf else ZERO)
    x = mat_vec_mul(Rstar, v)
    if not all(e.is_finite for e in x):
        raise EngineError("alcoved point is not finite")
    Rx = mat_vec_mul(alc.R, x)
    for j in range(n):
        if not (
            alc.l[j] <= x[j] <= alc.u[j]
            and Rx[j] <= x[j]
            and x[j] + alc.q[j].conj() <= theta
            and alc.p[j] + (-x[j]) <= theta
        ):
            raise EngineError(f"alcoved point fails its bounds, R x <= x or theta at {j}")
    return theta, [e.value for e in x]


# ---------------------------------------------------------------------------
# the pseudoquadratic Newton drop by bisection


def oracle_phi_fixed_sigma(struct, lam, sig_idx):
    """Value at lam of the one-player game a _ParamStruct leaves after
    fixing the row strategy sig_idx."""
    arena = struct.arena(lam)
    sig_tgt, sig_w = arena.sigma_arrays(sig_idx)
    t_w = arena.a_w + sig_w[arena.a_tgt]
    g_num, g_den, _ = oracle_one_player_min(
        arena.n_min, arena.a_src, sig_tgt[arena.a_tgt], t_w, need_bias=False
    )
    return min(Fraction(int(a), int(b)) for a, b in zip(g_num, g_den)) / arena.scale


def oracle_quad_drop(struct, sig_idx, lam_floor, lam_minus, grid):
    """newton_solve_quad's drop target by level bisection on the grid with
    one-player probes: the least grid level in [lam_floor, lam_minus] at
    which the fixed-sigma game is nonnegative, or None when it is so at
    lam_floor already (an unbounded drop)."""
    lo = lam_floor
    if oracle_phi_fixed_sigma(struct, lo, sig_idx) >= 0:
        return None
    hi = lam_minus
    guard = 0
    while lo < hi:
        guard += 1
        if guard > 10000:
            raise EngineError("inner level bisection failed to converge")
        mid = (lo + hi) / 2
        if oracle_phi_fixed_sigma(struct, mid, sig_idx) >= 0:
            hi = grid.down(mid)
        else:
            lo = grid.strict_up(mid)
    return hi


# ---------------------------------------------------------------------------
# the parametric structure and pair, built entry by entry


def _row_classes(U, V, b, d):
    """Kept structural rows (finite left side), or None when a finite left
    side faces an all -inf right side; rows with no finite left entry are
    dropped."""
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


def oracle_struct(prob, ignore_objective=False):
    """The prepared parametric structure, assembled row by row: the kept
    structural rows, the coupling rows with a finite entry (pseudoquadratic
    data), the epigraph rows of the finite p_j,
    the q row when some q_j is finite, then one tautological row per column
    without a finite left entry.  Returns "row_infeasible",
    "free_objective", or a dict of the integer arc arrays the engine reads,
    as Python ints, the scale L0 (the lcm of the structure's own
    denominators) and `rows`, the pair row of each non-aug row."""
    m, n = prob.shape
    quad = isinstance(prob, PseudoquadraticProblem)
    crows = prob.C.data if quad else None
    kept = _row_classes(prob.U, prob.V, prob.b, prob.d)
    if kept is None:
        return "row_infeasible"
    has_c = quad and any(e.is_finite for row in prob.C.data for e in row)
    if (
        not ignore_objective
        and all(e.is_neg_inf for e in prob.p)
        and all(e.is_pos_inf for e in prob.q)
        and not has_c
    ):
        return "free_objective"
    k = 2 * n if quad else n
    arows, b_entries, rows = [], [], []
    for i in kept:
        arows.append(list(prob.U.data[i]) + [prob.b[i]])
        ents = [(j, prob.V.data[i][j], False) for j in range(n) if prob.V.data[i][j].is_finite]
        if prob.d[i].is_finite:
            ents.append((n, prob.d[i], False))
        b_entries.append(ents)
        rows.append(i)
    if crows is not None:
        for j in range(n):
            if any(e.is_finite for e in crows[j]):
                arows.append(list(crows[j]) + [NEG_INF])
                b_entries.append([(j, None, True)])
                rows.append(m + j)
    for j in range(n):
        if prob.p[j].is_finite:
            arows.append([NEG_INF] * n + [prob.p[j]])
            b_entries.append([(j, None, True)])
            rows.append(m + k - n + j)
    if any(e.is_finite for e in prob.q):
        arows.append([qj.conj() for qj in prob.q] + [NEG_INF])
        b_entries.append([(n, None, True)])
        rows.append(m + k)
    for c in range(n + 1):
        if not any(row[c].is_finite for row in arows):
            arows.append([ZERO if i == c else NEG_INF for i in range(n + 1)])
            b_entries.append([(c, ZERO, False)])
    L = 1
    for row in arows:
        for e in row:
            L = L * e.value.denominator // gcd(L, e.value.denominator)
    for ents in b_entries:
        for (_, w, islam) in ents:
            if not islam:
                L = L * w.value.denominator // gcd(L, w.value.denominator)
    a_off, a_src, a_tgt, a_w0 = [0], [], [], []
    for j in range(n + 1):
        for r, row in enumerate(arows):
            if row[j].is_finite:
                a_src.append(j)
                a_tgt.append(r)
                a_w0.append(int(-row[j].value * L))
        a_off.append(len(a_src))
    b_off, b_tgt, b_w0, b_lam = [0], [], [], []
    for ents in b_entries:
        for (t, w, islam) in ents:
            b_tgt.append(t)
            b_w0.append(0 if islam else int(w.value * L))
            b_lam.append(islam)
        b_off.append(len(b_tgt))
    return dict(
        L0=L, a_off=a_off, a_src=a_src, a_tgt=a_tgt, a_w0=a_w0,
        b_off=b_off, b_tgt=b_tgt, b_w0=b_w0, b_lam=b_lam, rows=rows,
    )


def oracle_param_pair(prob):
    """The literal pair at level 0 with its stabilizing rows, scaled by
    the data's denominator lcm, entry by entry: (Aw, Af, Bw, Bf, L,
    lam_rows) with Python-int weights, 0 off the finite masks."""
    A, B, lam_rows = oracle_pair(prob, ZERO)
    L = _den_lcm(A, B)

    def arrays(M):
        w = np.array([[int(e.value * L) for e in row] for row in M.data], dtype=object)
        return w, np.array([[e.is_finite for e in row] for row in M.data], dtype=bool)

    (Aw, Af), (Bw, Bf) = arrays(A), arrays(B)
    lam = sorted(lam_rows)
    return Aw, Af, Bw, Bf, L, range(lam[0], lam[-1] + 1)


def oracle_objective(prob, x):
    """The objective at a finite point, term by term on extended
    scalars: the anchor terms p_j - x_j and x_j - q_j, and for
    pseudoquadratic data the coupling terms (C x)_j - x_j."""
    xs = [scal(v) for v in x]
    terms = []
    for j, v in enumerate(xs):
        terms.append(prob.p[j] + (-v))
        terms.append(v + prob.q[j].conj())
    if isinstance(prob, PseudoquadraticProblem):
        for j, Cx in enumerate(mat_vec_mul(prob.C, xs)):
            if not Cx.is_neg_inf:
                terms.append(Cx + (-xs[j]))
    return tmax(*terms)


# ---------------------------------------------------------------------------
# entry-level forms of the integer kernels, used only by tests


def _descend(A, B, W, L, sweeps):
    """Greatest-solution descent for A (x) <= B (x) on data scaled by L,
    from the seed (2W+2)*ones; see games._descend_scaled.  W and the data
    must have denominators dividing L."""
    return _descend_scaled(*_scaled(A, L), *_scaled(B, L), int((2 * W + 2) * L), sweeps)


def finite_abs_max(M) -> Fraction:
    """Largest |entry| over the finite entries of a TropMatrix, 0 if none."""
    return max((abs(e.value) for row in M.data for e in row if e.is_finite), default=Fraction(0))


def system_weight_bound(sys):
    return max(finite_abs_max(sys.A), finite_abs_max(sys.B))


def _problem_entries(prob):
    """Every entry of a problem's fields, as ExtScalars."""
    fields = [getattr(prob, f) for f in prob._fields]
    rows = [r for f in fields for r in (f.data if isinstance(f, TropMatrix) else [f])]
    return [e for r in rows for e in r]


def data_denominator_lcm(prob) -> int:
    """The denominator lcm of a problem's data, read off its fields."""
    return lcm(*(e.value.denominator for e in _problem_entries(prob)))


def weight_bound(prob) -> Fraction:
    """The largest |finite entry| of a problem's data, read off its fields."""
    return max((abs(e.value) for e in _problem_entries(prob) if e.is_finite), default=Fraction(0))


def _check_witness(A, B, x, L):
    """Raise EngineError unless the finite point x solves A (x) <= B (x).

    Exact: the data and x are scaled by L and compared by games._solves.
    x * L must be integral."""
    xs = [v * L for v in x]
    if any(v.denominator != 1 for v in xs):
        raise EngineError("finite witness is not on the 1/L grid of the data")
    if not _solves(*_scaled(A, L), *_scaled(B, L), [int(v) for v in xs]):
        raise EngineError("finite witness violates the system")


def struct_matrix(struct):
    """The left matrix of a prepared structure (pseudolinear._ParamStruct)."""
    Aw, Af, _, _, L, _ = struct.pair
    return _tmat(Aw, Af, L)


def struct_system(struct, lam):
    """A prepared structure's pair at level lam as a two-sided system."""
    Aw, Af, Bw, Bf, L, _ = _at_level(struct.pair, lam)
    return TwoSidedSystem(_tmat(Aw, Af, L), _tmat(Bw, Bf, L))


def b_entries(struct):
    """Per row of a prepared structure, the (target, weight, is_lam) of
    its finite right entries, with weight None on the lam entries."""
    _, _, Bw, Bf, L, lam = struct.pair
    return [
        [(int(c), None if r in lam else fin(Fraction(int(Bw[r, c]), L)), r in lam) for c in js]
        for r, js in enumerate(map(np.flatnonzero, Bf))
    ]


# ---------------------------------------------------------------------------
# the entry-by-entry parse: one scalar per entry, then the constructors

_ORACLE_RAT = re.compile(r"-?[0-9]+/[1-9][0-9]*")


def _oracle_reject_float(tok):
    raise BadRational(f"float literal {tok} (use \"num/den\")")


def oracle_scalar(tok):
    if isinstance(tok, bool) or not isinstance(tok, (int, str)):
        raise BadRational(f"bad scalar {tok!r}")
    if isinstance(tok, int):
        return fin(tok)
    if tok in ("-inf", "+inf"):
        return NEG_INF if tok == "-inf" else POS_INF
    if not _ORACLE_RAT.fullmatch(tok):
        raise BadRational(f"bad scalar {tok!r}")
    num, den = tok.split("/")
    return fin(Fraction(int(num), int(den)))


def _oracle_matrix(obj, name, rows=None, cols=None):
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise MalformedJson(f"{name} must be a list of rows")
    m = len(obj)
    if rows is not None and m != rows:
        raise DimensionMismatch(f"{name} has {m} rows, expected {rows}")
    if m == 0 or len(obj[0]) == 0:
        raise DimensionMismatch(f"{name} must be nonempty")
    n = len(obj[0])
    if any(len(r) != n for r in obj):
        raise DimensionMismatch(f"{name} has ragged rows")
    if cols is not None and n != cols:
        raise DimensionMismatch(f"{name} has {n} columns, expected {cols}")
    return TropMatrix([_oracle_entries(r, name, 1) for r in obj], "max")


def _oracle_entries(entries, name, forbid):
    """The entries' scalars; the first bad token or infinity of kind
    forbid raises."""
    out = []
    for e in entries:
        s = oracle_scalar(e)
        if s.kind == forbid:
            raise IllegalInfinity(f"{'+' if forbid > 0 else '-'}inf entry in {name}")
        out.append(s)
    return out


def _oracle_vector(obj, name, length, forbid):
    if not isinstance(obj, list):
        raise MalformedJson(f"{name} must be a list")
    if len(obj) != length:
        raise DimensionMismatch(f"{name} has length {len(obj)}, expected {length}")
    return _oracle_entries(obj, name, forbid)


def oracle_parse_problem(text):
    """The problem document parsed entry by entry, one ExtScalar per
    entry, into the problem constructors; the same checks and error
    messages as io.parse_problem, each entry checked in document order."""
    try:
        obj = json.loads(text, parse_float=_oracle_reject_float)
    except BadRational:
        raise
    except ValueError as e:
        raise MalformedJson(str(e)) from None
    if not isinstance(obj, dict):
        raise MalformedJson("top level must be an object")
    typ = obj.get("type")
    if typ not in ("pseudolinear", "pseudoquadratic"):
        raise MalformedJson("type must be pseudolinear or pseudoquadratic")
    keys = {"type", "U", "V", "b", "d", "p", "q"} | ({"C"} if typ == "pseudoquadratic" else set())
    if set(obj) != keys:
        extra, missing = sorted(set(obj) - keys), sorted(keys - set(obj))
        raise MalformedJson(f"bad keys: extra {extra}, missing {missing}")
    U = _oracle_matrix(obj["U"], "U")
    m, n = U.shape
    V = _oracle_matrix(obj["V"], "V", m, n)
    vecs = [_oracle_vector(obj[k], k, m, 1) for k in "bd"]
    vecs += [_oracle_vector(obj["p"], "p", n, 1), _oracle_vector(obj["q"], "q", n, -1)]
    if typ == "pseudolinear":
        return PseudolinearProblem(U, V, *vecs)
    return PseudoquadraticProblem(U, V, *vecs, _oracle_matrix(obj["C"], "C", n, n))
