"""Shared test helpers: compact constructors and independent oracles.

The oracles here are deliberately primitive (exhaustive cycle
enumeration, grid search) so that library results are checked against
something that cannot share a bug with the solver machinery.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from tropopt import (
    NEG_INF,
    POS_INF,
    ZERO,
    ExtScalar,
    InvalidStrategy,
    IsolatedNode,
    PseudolinearProblem,
    PseudoquadraticProblem,
    TropMatrix,
    TwoSidedSystem,
    TypingError,
    build_game,
    conjugate,
    fin,
    mat_vec_mul,
    scal,
)
from tropopt.games import _CUT64, _INF64, Arena, EngineError, GameValues, _den_lcm, solve_arena
from tropopt.matrix import digraph_min_cycle_mean, tarjan_sccs


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
        D[k][grp_dst] = np.minimum.reduceat(D[k - 1][lsrc] + lw, grp_starts)
    best = None
    for v in range(ns):
        tv = int(D[ns][v])
        if tv >= int(_CUT64):
            continue
        cands = [
            Fraction(tv - int(D[k][v]), ns - k)
            for k in range(ns)
            if int(D[k][v]) < int(_CUT64)
        ]
        if cands and (best is None or max(cands) < best):
            best = max(cands)
    return best


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


def oracle_improve(arena, sig_idx, ev, reverse=False):
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
        picks = [k for k, a in apprs if a == top]
        pick = picks[-1] if reverse else picks[0]
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


def oracle_solve_values(sys):
    """solve_values through build_game and per-entry Fraction scaling."""
    game = build_game(sys)
    L = _den_lcm(sys.A, sys.B)
    min_arcs = [[(i, int(w * L)) for (i, w) in arcs] for arcs in game.min_arcs]
    max_arcs = [[(j, int(w * L)) for (j, w) in arcs] for arcs in game.max_arcs]
    chi, tau, sigma, _ = solve_arena(Arena(min_arcs, max_arcs, L))
    return GameValues(chi, tau, sigma)


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


def _oracle_feasible(A, B):
    """Whether A (x) <= B (x) (vacuous rows left out) has a finite
    solution: the Fraction descent when it converges, else the game."""
    A, B, _ = _live(A, B)
    sys = TwoSidedSystem(A, B)
    W = max(A.finite_abs_max(), B.finite_abs_max())
    x, converged = descent_oracle(A, B, W, 3 * (A.rows + A.cols) + 6)
    if converged:
        return all(v.is_finite for v in x)
    return min(oracle_solve_values(sys).chi) >= 0


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
    arcs = []
    for j in range(n1):
        r = tau[j]
        if not (0 <= r < M) or not A.data[r][j].is_finite:
            raise InvalidStrategy(f"tau[{j}] selects no finite entry")
        arcs.append((j, n1 + r, -A.data[r][j].value))
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
    arcs = []
    for j in range(n1):
        for r in range(M):
            if A.data[r][j].is_finite:
                arcs.append((j, n1 + r, -A.data[r][j].value))
    for r in range(M):
        c = sigma[r]
        if _vacuous(A, B, r) and c is None:
            continue
        if c is None or not (0 <= c < n1) or not B.data[r][c].is_finite:
            raise InvalidStrategy(f"sigma[{r}] selects no finite entry")
        arcs.append((n1 + r, c, B.data[r][c].value))
    succ = [[] for _ in range(n1 + M)]
    for (s, t, _) in arcs:
        succ[s].append(t)
    for comp in tarjan_sccs(n1 + M, succ):
        if len(comp) > 1 and any(u - n1 in lam_rows for u in comp):
            return False
    mm = digraph_min_cycle_mean(n1 + M, arcs)
    return mm is None or mm >= 0
