"""Two-sided max-plus systems and their deterministic mean-payoff games.

A system A (x) <= B (x) (both m x n, max-plus typed) turns into a bipartite
game: one Min node per column, one Max node per row.  Min moves j -> i along
finite A entries at cost -a_ij, Max answers i -> l along finite B entries at
reward b_il.  The value of Min node j (cycle weight over number of turns,
a turn being a Min/Max move pair) is >= 0 exactly when the system has a
solution with x_j finite.

The solver is policy iteration for the Max player.  Evaluating a fixed Max
strategy is a one-player minimum-cycle problem handled exactly on whole
int64 arrays after clearing denominators.  It starts from a candidate
cycle, that of Min's tight arcs of the previous evaluation, and moves to
lower cycles (Dinkelbach) until a Bellman-Ford from zeros settles, which
proves the least cycle mean (matrix._min_ratio, the one cycle-ratio
kernel, which the pseudoquadratic Newton drop runs too); when every node
reaches a cycle of that mean it is every node's value.  An evaluation
with several values solves the nodes that reach none again, on their
own, level after level.  Each evaluation carries the previous one's bias on
its critical classes (the multichain rule of Cochet-Terrasson and
Gaubert, C. R. Acad. Sci. Paris 343, 2006), so every switch raises
(gain, bias) strictly and no strategy repeats; there is no fallback, and
a solve that still runs out of its budget raises EngineError.  Every
solve is finished by a verification gate: Min's tight best response tau
is extracted, and a potential on Max's one-player game against tau
proves that Max can get no more than the evaluated values there (_gate);
values are only accepted then, which certifies a saddle point no matter
what path policy iteration took.

A solve given no warm strategies starts from Max's greedy strategy after a
few rounds of value iteration (_seed_sigma), not from each node's first
arc, and from Min's greedy arcs against it: that start is near-optimal,
so a cold solve needs a quarter to a third of the evaluations, and the
gate keeps the values independent of the start.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix import (
    _INF64,
    EngineError,
    TropMatrix,
    TypingError,
    _abs_max,
    _adjacency,
    _closure,
    _cycle_ratio,
    _den_lcm,
    _first,
    _first_best,
    _fit,
    _min_ratio,
    _reach_negative,
    _relax,
    _scaled,
    _segments,
)
from .semiring import NEG_INF


class IsolatedNode(ValueError):
    """A variable column of A, or a row of B, with no finite entry."""


class InvalidStrategy(ValueError):
    """A strategy selecting a -inf entry or an out-of-range index."""


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

_CUT64 = np.int64(1) << 61
_MIN64 = np.iinfo(np.int64).min

_Layout = namedtuple("_Layout", "n_min n_max a_off a_src a_tgt b_off b_tgt a_segs b_start b_row")


def _layout(Af, Bf) -> _Layout:
    """The arcs of the finite masks Af, Bf of a pair, in build_game's
    order and without weights, and the bookkeeping every evaluation of an
    arena on them shares: the segments of a_src (_segments), the start of
    each Max node's arc group and each Max arc's node.  The weights and
    their number type do not enter it, so one layout serves every level of
    a parametric structure."""
    m, n = Af.shape
    a_src, a_tgt = np.nonzero(Af.T)
    b_row, b_tgt = np.nonzero(Bf)
    b_off = _offsets(b_row, m)
    segs = _segments(a_src)
    return _Layout(n, m, _offsets(a_src, n), a_src, a_tgt, b_off, b_tgt, segs, b_off[:-1], b_row)


class Arena:
    """The arcs of a layout (_layout), whose fields it carries as its own,
    with weights integer-scaled by `scale`, given as int64 or Python ints
    and stored as int64 once the guard admits maxw, a bound (at least 1)
    on every |weight| that the caller already has."""

    def __init__(self, lay: _Layout, a_w, b_w, scale, maxw):
        v = max(lay.n_min, lay.n_max) + 2
        if maxw * v * v * v >= (1 << 62):
            raise EngineError("weights too large for the integer engine")
        (self.n_min, self.n_max, self.a_off, self.a_src, self.a_tgt,
         self.b_off, self.b_tgt, self.a_segs, self.b_start, self.b_row) = lay
        self.scale = scale
        self.a_w = np.asarray(a_w, dtype=np.int64)
        self.b_w = np.asarray(b_w, dtype=np.int64)

    def sigma_arrays(self, sig_idx):
        pos = self.b_start + sig_idx
        return self.b_tgt[pos], self.b_w[pos]


def _offsets(src, k):
    """Group offsets of the nondecreasing node ids src over k nodes."""
    off = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=k), out=off[1:])
    return off


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
    a_w, b_w = -Aw.T[Af.T], Bw[Bf]
    maxw = max(1, _abs_max(a_w), _abs_max(b_w))
    return Arena(_layout(Af, Bf), a_w, b_w, scale, maxw), rows


def _least_level(n, src, dst, w0, k, L: int, lam: Fraction):
    """Least level from lam on at which no cycle is negative, an arc
    weighing (w0 + k * level * L) / L with k >= 0; None when none is at lam.
    That level is -W0(C) / (K(C) L) for the cycle C of least ratio
    W0(C) / K(C), which _min_ratio finds from the ratio -lam L: a cycle
    lies below that ratio exactly when it is negative at lam.  The arcs
    come grouped by source."""
    num, den, _, _, steps = _min_ratio(n, src, dst, w0, k, -lam.numerator * L, lam.denominator)
    return Fraction(-num, den * L) if steps else None


def _bias(ns, src, dst, wp, pi, prev=None, gain=None, segs=None):
    """(vhat, critical): the bias within the gain levels gain = (g_num,
    g_den), from a potential pi (<= 0) of their reduced weights wp.  The
    critical nodes lie on tight cycles (of mean exactly the gain).  Each
    class of them (an SCC of the tight arcs) is shifted to prev's bias at
    its lowest node critical in prev, the previous evaluation, with the
    same gain, and must stay above -_CUT64 (else EngineError).  Elsewhere
    the bias is the least wp-distance to a critical node plus its bias;
    at least _CUT64 at a node that reaches none.  segs is _segments(src)
    when the caller has it."""
    tight = pi[src] == wp + pi[dst]
    tadj = _adjacency(ns, src[tight], dst[tight])
    reach = _closure(tadj)
    critical = np.any(tadj & reach.T, axis=1)  # tight u -> v, v reaches u
    if prev is not None:
        keep = np.flatnonzero(prev.critical & (prev.g_num == gain[0]) & (prev.g_den == gain[1]))
        if len(keep):
            # cls[u, c]: keep[c] is in u's class; pi off the critical nodes goes unused
            cls = reach[:, keep] & reach[keep].T
            k = keep[np.argmax(cls, axis=1)]
            pi = np.where(cls.any(axis=1), pi + (prev.vhat - pi)[k], pi)
    vhat = _relax(ns, src, dst, wp, np.where(critical, pi, _INF64), segs=segs)
    if prev is not None and np.any(vhat <= -_CUT64):
        raise EngineError("carried bias beyond the int64 guard")
    return vhat, critical


def _one_player_min(ns, src, dst, w, cand, prev=None, segs=None):
    """Exact one-player evaluation of a Min-controlled weighted graph.

    Every node must have an outgoing arc.  Returns (g_num, g_den, vhat,
    critical, lvl): per-node gain (minimum reachable cycle mean) as a
    reduced fraction, a per-node integer bias in units of 1/g_den of its
    own gain level, the mask of the critical nodes (see _bias), and the
    rank of each node's gain level, 0 for the least gain.

    cand is a candidate Min strategy, one arc per node.  The least mean
    of its cycles bounds the graph's least cycle mean g from above, and
    _min_ratio lowers it to g.  When the bias then reaches a critical
    node (on a cycle of mean g) from every node, g is every node's gain.
    Otherwise the nodes that reach one have gain g, and the rest, which
    no arc leaves, is solved the same way from cand's arcs there, level
    after level; the bias per level then comes from the arcs that join
    equal gains.  Every cycle of a level's mean is critical, so the rest
    reaches none and each level's gain lies strictly above the last
    (Cochet-Terrasson and Gaubert, C. R. Acad. Sci. Paris 343, 2006): the
    ranks, numbered in the order the levels are found, order the gains
    exactly; a level that is not higher raises EngineError.  Either way
    the bias carries that of prev, the previous evaluation, when given
    (see _bias).  segs is _segments(src) when the caller has it."""
    one = np.ones(len(src), dtype=np.int64)
    start = _cycle_ratio(dst[cand], w[cand], one[cand])
    num, den, wp, pi, _ = _min_ratio(ns, src, dst, w, one, *start, segs)
    vhat, critical = _bias(ns, src, dst, wp, pi, prev, (num, den), segs)
    g_num, g_den = np.full(ns, num, dtype=np.int64), np.full(ns, den, dtype=np.int64)
    lvl = np.zeros(ns, dtype=np.int64)
    rest = vhat >= _CUT64
    if not rest.any():
        return g_num, g_den, vhat, critical, lvl
    while rest.any():
        inner = rest[src]
        s, d = src[inner], dst[inner]
        start = _cycle_ratio(np.where(rest, dst[cand], -1), w[cand], one[cand])
        low = num, den
        num, den, wp, pi, _ = _min_ratio(ns, s, d, w[inner], one[inner], *start)
        if num * low[1] <= low[0] * den:
            raise EngineError("a gain level is not above the one before it")
        g_num[rest], g_den[rest] = num, den
        lvl[rest] += 1
        rest &= _bias(ns, s, d, wp, pi)[0] >= _CUT64
    adm = lvl[src] == lvl[dst]
    asrc, adst = src[adm], dst[adm]
    wp = w[adm] * g_den[asrc] - g_num[asrc]
    pi = _relax(ns, asrc, adst, wp, np.zeros(ns, dtype=np.int64))
    vhat, critical = _bias(ns, asrc, adst, wp, pi, prev, (g_num, g_den))
    if bool(np.any(vhat >= _CUT64)):
        raise EngineError("bias propagation failed to reach a critical node")
    return g_num, g_den, vhat, critical, lvl


class _Evaluation(namedtuple("_Evaluation", "g_num g_den vhat critical lvl t_dst t_w")):
    """The evaluation of a Max strategy (_evaluate): _one_player_min's
    arrays, gains g_num / g_den, bias vhat, the critical mask and the
    level ranks lvl, with the turn graph's arcs (a Min arc and the
    strategy's answer from its row), grouped as the arena's a-arrays:
    target t_dst and weight t_w.  Within one evaluation lvl orders the
    gains exactly, so _improve, _tight_tau, _gate and _least compare
    ranks, not fractions."""

    __slots__ = ()


def _evaluate(arena: Arena, sig_idx, cand, prev=None) -> _Evaluation:
    """The one-player evaluation of sig_idx, from the candidate Min arcs
    cand and carrying the bias of the previous evaluation prev, when
    given (see _one_player_min)."""
    sig_tgt, sig_w = arena.sigma_arrays(sig_idx)
    t_dst = sig_tgt[arena.a_tgt]
    t_w = arena.a_w + sig_w[arena.a_tgt]
    out = _one_player_min(arena.n_min, arena.a_src, t_dst, t_w, cand, prev, arena.a_segs)
    return _Evaluation(*out, t_dst, t_w)


def _improve(arena: Arena, sig_idx, ev: _Evaluation):
    """One all-switch improvement pass; returns the number of switches.

    Rule per Max node: lexicographically maximize (rank of the target's
    gain level, then scaled bias appraisal b_w * g_den + vhat within that
    level); switch only on strict improvement; ties go to the lowest
    target index.  Ranks order the gains exactly (see _one_player_min),
    and a level's nodes share its g_den."""
    start, row, tgt = arena.b_start, arena.b_row, arena.b_tgt
    rank = ev.lvl[tgt]
    best = np.maximum.reduceat(rank, start)
    appr = np.where(rank == best[row], arena.b_w * ev.g_den[tgt] + ev.vhat[tgt], _MIN64)
    top = np.maximum.reduceat(appr, start)
    pick = _first(appr == top[row], arena.b_off) - start
    cur = start + sig_idx
    # a lower current level, or the best one with a lower appraisal
    switch = (rank[cur] < best) | (top > appr[cur])
    sig_idx[switch] = pick[switch]
    return int(np.count_nonzero(switch))


def _tight_tau(arena: Arena, ev: _Evaluation):
    """Min's best response to the evaluated sigma, as Min arcs (indices
    into the arena's a-arrays): per Min node, the arc to the lowest Max
    row whose turn arc stays on its gain level and is bias-tight."""
    gn, gd, vhat = ev.g_num, ev.g_den, ev.vhat
    j, l = arena.a_src, ev.t_dst
    tight = ev.lvl[l] == ev.lvl[j]
    tight &= vhat[j] == ev.t_w * gd[j] - gn[j] + vhat[l]
    e = _first(tight, arena.a_off)
    if np.any(e < 0):
        raise EngineError(f"no tight move at Min node {int(np.argmax(e < 0))}")
    return e


def _gate(arena: Arena, ev: _Evaluation, tau):
    """Certify the pair (tau, sigma) by potentials.

    Max's one-player game against tau, contracted onto the Min nodes, has
    an arc j -> l of weight a_w + b_w for each Max arc tau[j] -> l.  Max's
    best response to tau is at least the gains g of the sigma evaluation,
    and at most g, so the pair is a saddle point, exactly when no arc
    raises g (the rank of l's level is at most j's) and no cycle beats its
    gain level: some potential pi has pi_j <= r + pi_l on every arc within
    a level, r the reduced weight g_num - w * g_den.  The negated bias of
    the evaluation is one whenever no switch improves sigma and tau is
    tight, so it is tried first; otherwise one exists exactly when no
    cycle is negative in r (_reach_negative)."""
    tau_arr = np.asarray(tau, dtype=np.int64)
    e = _first(arena.a_tgt == tau_arr[arena.a_src], arena.a_off)
    if np.any(e < 0):
        raise EngineError("tau selects a missing arc")
    lo = arena.b_off[tau_arr]
    deg = arena.b_off[tau_arr + 1] - lo
    src = np.repeat(np.arange(arena.n_min), deg)
    arc = np.arange(len(src)) + np.repeat(lo - (np.cumsum(deg) - deg), deg)
    dst = arena.b_tgt[arc]
    lvl = ev.lvl
    if np.any(lvl[dst] > lvl[src]):
        return False
    level = lvl[dst] == lvl[src]
    src, dst = src[level], dst[level]
    w = ev.g_num[src] - (arena.a_w[e][src] + arena.b_w[arc[level]]) * ev.g_den[src]
    pi = -ev.vhat
    potential = not np.any(pi[src] > w + pi[dst])
    return potential or not _reach_negative(arena.n_min, src, dst, w).any()


def _seed_sigma(arena: Arena):
    """Cold start of policy iteration: (sig_idx, tau arcs), Max's greedy
    strategy after n_min rounds of value iteration from x = 0 (Zwick and
    Paterson), and Min's greedy arcs against the Max values of that
    strategy, ties to the lowest index as in _improve.  Each round adds
    at most 2 * maxw to |x|, so |x| <= 2 * maxw * n_min, which the Arena's
    guard maxw * v**3 < 2**62 keeps in int64."""
    a_start, b_start = arena.a_off[:-1], arena.b_start
    x = np.zeros(arena.n_min, dtype=np.int64)
    for _ in range(arena.n_min):
        y = np.maximum.reduceat(arena.b_w + x[arena.b_tgt], b_start)
        x = np.minimum.reduceat(arena.a_w + y[arena.a_tgt], a_start)
    val = arena.b_w + x[arena.b_tgt]
    sig_idx = _first_best(val, arena.b_off, np.maximum) - b_start
    y = val[b_start + sig_idx]
    return sig_idx, _first_best(arena.a_w + y[arena.a_tgt], arena.a_off, np.minimum)


def solve_arena(arena: Arena, warm=None):
    """Certified exact game values of an arena, by policy iteration from
    warm = (sig_idx, tau arcs) when given, the strategies another solve
    on the same arcs returned, else from _seed_sigma.  Each evaluation
    takes Min's arcs of the previous one (or of the start) as its
    candidate and carries its bias (see _bias), and its tight arcs are
    the next one's candidate and the gate's tau.  EngineError when the
    budget runs out or the gate fails.

    Returns (g_num, g_den, lvl, tau, sigma, warm): the value of Min node
    j is g_num[j] / g_den[j] in scaled units (see _least and _values),
    lvl ranks the values (see _one_player_min), and warm = (sig_idx, tau
    arcs) can start another solve."""
    if warm is not None and len(warm[0]) == arena.n_max:
        sig_idx, cand = np.asarray(warm[0], dtype=np.int64).copy(), warm[1]
    else:
        sig_idx, cand = _seed_sigma(arena)
    ev = None
    for _ in range(200 + 5 * (arena.n_min + arena.n_max)):
        ev = _evaluate(arena, sig_idx, cand, ev)
        cand = _tight_tau(arena, ev)
        if _improve(arena, sig_idx, ev) == 0:
            tau = arena.a_tgt[cand].tolist()
            if not _gate(arena, ev, tau):
                raise EngineError("the gate rejected a strategy pair with no switch")
            sig_tgt, _ = arena.sigma_arrays(sig_idx)
            return ev.g_num, ev.g_den, ev.lvl, tau, sig_tgt.tolist(), (sig_idx, cand)
    raise EngineError("policy iteration exhausted its budget")


def _values(g_num, g_den, scale: int):
    """The game values g_num / (g_den * scale) as Fractions."""
    return [Fraction(n, d) / scale for n, d in zip(g_num.tolist(), g_den.tolist())]


def _least(g_num, g_den, lvl, scale: int) -> Fraction:
    """min(_values(g_num, g_den, scale)) as one Fraction: the value of a
    node of rank 0, the least gain level (lvl, see _one_player_min)."""
    k = int(np.argmin(lvl))
    return Fraction(int(g_num[k]), int(g_den[k]) * scale)


# ---------------------------------------------------------------------------
# public solve on systems


def _solve_pair(Aw, Af, Bw, Bf, scale):
    """(g_num, g_den, tau, sigma): solve_arena on a system already scaled,
    weights times `scale` and their finite masks as _scaled returns them,
    with tau and sigma on the system's rows.  Rows with no finite entry
    take no part: tau never picks them and sigma is None there."""
    arena, rows = _pair_arena(Aw, Af, Bw, Bf, scale)
    g_num, g_den, _, tau, sig, _ = solve_arena(arena)
    sigma = [None] * len(Af)
    for r, c in zip(rows, sig):
        sigma[r] = c
    return g_num, g_den, [int(rows[t]) for t in tau], sigma


def solve_values(sys: TwoSidedSystem) -> GameValues:
    """Exact values chi_j of every Min node, with a certified saddle pair.

    chi_j >= 0 exactly when the system has a solution with x_j finite.
    """
    L = _den_lcm(sys.A, sys.B)
    g_num, g_den, tau, sigma = _solve_pair(*_scaled(sys.A, L), *_scaled(sys.B, L), L)
    return GameValues(_values(g_num, g_den, L), tau, sigma)


# ---------------------------------------------------------------------------
# finite witnesses


def _descend_scaled(Aw, Af, Bw, Bf, x0, sweeps: int, watch=None):
    """Greatest-solution descent for A (x) <= B (x), scaled (weights and
    finite masks as _scaled returns them).

    The alternating method of Cuninghame-Green and Butkovic: from the
    start x0, each sweep maps x to x /\\ A#(B x), where A#(y)_j =
    min_i (y_i - a_ij) over the finite a_ij (-inf as soon as one such y_i
    is -inf).  Every solution below x0 survives each sweep, so a fixpoint
    is the greatest one there.

    Returns None when `sweeps` sweeps reach no fixpoint, otherwise
    (x, finite, y, y_finite): the fixpoint (-inf where finite is False)
    and B (x) at it, in the scaled units.  x0 is a vector of integers in
    [0, seed], where the seed, its largest entry, exceeds twice every
    |weight|, as (2W+2)L does; then every finite value met stays within
    big = (sweeps+2)*seed, x is -big where -inf, and with the masked
    entries at -3big no sweep needs a mask: b_ij + x_j exceeds
    -big + seed/2 exactly when both are finite.  int64 holds the sums
    while 4big < 2^61, Python ints beyond.

    watch, when given, sees each sweep k (from 0) as watch(k, y, fixed):
    y = B (x) at the state x the sweep starts from, and whether the sweep
    leaves x as it is, x then being the fixpoint.  With W the largest
    |weight|, a -inf entry of y is held as a value at most -big + W, and
    a finite one stays above -big + 2 seed - W, since no sweep lowers the
    least finite value by more than 2W; so y_i - a_ij orders as on the
    extended reals.  When watch returns True, the descent stops and
    returns False.
    """
    seed = int(max(x0))
    big = (sweeps + 2) * seed
    Bm = np.where(Bf, _fit(Bw, 4 * big), -3 * big)
    Am = np.where(Af, _fit(Aw, 4 * big), -3 * big)
    cut = -big + seed // 2
    x = np.array(x0, dtype=Bm.dtype)
    finite = np.ones(len(x), dtype=bool)
    for k in range(sweeps):
        y = (Bm + x).max(axis=1)
        if y.min() > cut:
            nfin, low = finite, (y[:, None] - Am).min(axis=0)
        else:
            # a row with y_i = -inf ends every column it has a finite
            # a_ij in, and takes no part in the others' minima
            y_fin = y > cut
            nfin = finite & ~Af[~y_fin].any(axis=0)
            low = (np.where(y_fin, y, big)[:, None] - Am).min(axis=0)
        # low stays above -big, where x holds its -inf coordinates
        fixed = not (low < x).any() and (nfin is finite or (nfin == finite).all())
        if watch is not None and watch(k, y, fixed):
            return False
        if fixed:
            y_fin = y > cut
            return x, finite, np.where(y_fin, y, -big), y_fin
        if nfin is finite:
            np.minimum(x, low, out=x)
        else:
            x = np.where(nfin, np.minimum(x, low), -big)
            finite = nfin
    return None


def _solves(Aw, Af, Bw, Bf, xs) -> bool:
    """Whether the integer point xs solves the scaled system exactly:
    max_j (a_ij + x_j) <= max_j (b_ij + x_j) on every row, in int64 while
    every sum stays below 2^61 and on Python ints beyond."""
    big = max(_abs_max(Aw.ravel()), _abs_max(Bw.ravel())) + max(abs(v) for v in xs)
    xv = _fit(np.array(xs, dtype=object), big)
    lhs = np.where(Af, _fit(Aw, big) + xv, -big - 1).max(axis=1)
    rhs = np.where(Bf, _fit(Bw, big) + xv, -big - 1).max(axis=1)
    return not np.any(lhs > rhs)


def feasible_finite(sys: TwoSidedSystem, max_sweeps=None):
    """A finite solution of A (x) <= B (x) as a list of Fractions, or None.

    Three stages: a capped monotone descent from the seed (2W+2)*ones
    (its exact fixpoint below the seed is the greatest solution there,
    and this homogeneous system has a finite solution iff it has one
    below the seed); if the descent is inconclusive, the game decides
    the sign; a Bellman-Ford potential built from the optimal Max
    strategy then always produces a witness (_game_point).  The witness
    is checked exactly before it is returned.  Rows with no finite entry
    constrain nothing (see _live_rows).  sys may also be given scaled:
    the tuple (Aw, Af, Bw, Bf, L) of _scaled's arrays at the scale L.
    """
    if isinstance(sys, TwoSidedSystem):
        L = _den_lcm(sys.A, sys.B)
        sys = (*_scaled(sys.A, L), *_scaled(sys.B, L), L)
    return _finite_point(sys, max_sweeps)


def _finite_point(sys, max_sweeps=None):
    """feasible_finite on a scaled system: the descent's point, or, when
    the descent is inconclusive, the game's (_game_point)."""
    Aw, Af, Bw, Bf, L = sys
    if max_sweeps is None:
        max_sweeps = 3 * sum(Af.shape) + 6
    _live_rows(Af, Bf)
    WL = max(_abs_max(Aw.ravel()), _abs_max(Bw.ravel()))
    fix = _descend_scaled(Aw, Af, Bw, Bf, [2 * WL + 2 * L] * Af.shape[1], max_sweeps)
    if fix is None:
        return _game_point(sys)
    x, finite, _, _ = fix
    if not finite.all():  # the greatest solution below the seed
        return None
    return _checked_point(sys, x)


def _game_point(sys):
    """A finite solution of a scaled system from its game, or None when
    a value is negative: the point _bf_witness reads off Max's optimal
    strategy, checked exactly (_checked_point)."""
    arena, _ = _pair_arena(*sys)
    g_num, *_, (sig_idx, _) = solve_arena(arena)
    if np.any(g_num < 0):
        return None
    return _checked_point(sys, _bf_witness(arena, sig_idx))


def _checked_point(sys, x):
    """The integer point x of a scaled system as Fractions, once _solves
    has checked it (EngineError when it fails)."""
    Aw, Af, Bw, Bf, L = sys
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
