"""Shared test helpers: compact constructors and independent oracles.

The oracles here are deliberately primitive (exhaustive cycle
enumeration, grid search) so that library results are checked against
something that cannot share a bug with the solver machinery.
"""

from fractions import Fraction
from itertools import product

from tropopt import (
    NEG_INF,
    POS_INF,
    ExtScalar,
    PseudolinearProblem,
    PseudoquadraticProblem,
    TropMatrix,
    conjugate,
    fin,
)


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
