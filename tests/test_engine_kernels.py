"""The array kernels of the game engine against the per-node oracles.

`_one_player_min`, `_improve`, `_tight_tau` and `_gate` work on whole
int64 arrays; the oracles in _util do the same job one SCC or one node at
a time with Tarjan SCCs, one Karp table per SCC and exact fractions.  The
outputs must be identical: gains, biases, switch counts and strategies,
tight responses and gate verdicts, on random small graphs and arenas with
self-loops, several SCCs, acyclic tails, ties and weights just under the
engine's overflow guard.  The value-iteration cold start (`_seed_sigma`)
must leave every game value as an enumeration of Max's strategies finds
it, and must keep cutting the evaluations of a cold solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropopt import games, pseudolinear
from tropopt.games import (
    Arena,
    EngineError,
    _evaluate,
    _Evaluation,
    _gate,
    _improve,
    _one_player_min,
    _seed_sigma,
    _tight_tau,
    solve_arena,
)
from tropopt.random_instances import gen_random

from _util import (
    oracle_arena_values,
    oracle_gate,
    oracle_improve,
    oracle_one_player_min,
    oracle_seed_sigma,
    oracle_tight_tau,
)


def _guard_max(v):
    """Largest weight the engine admits with v = (node count) + 2."""
    return ((1 << 62) - 1) // v**3


def _weights(hi):
    """Small weights with many ties, or weights reaching out to +-hi."""
    return st.one_of(
        st.integers(-2, 2),
        st.integers(-hi, hi),
        st.integers(hi - 3, hi),
        st.integers(-hi, -hi + 3),
    )


@st.composite
def _graph(draw):
    """A total one-player graph (every node has an out-arc); arc weights
    as in an evaluation, sums of two arena weights."""
    ns = draw(st.integers(1, 7))
    hi = draw(st.sampled_from([1, 4, 2 * _guard_max(ns + 2)]))
    wt = _weights(hi)
    arcs = []
    for u in range(ns):
        for _ in range(draw(st.integers(1, 3))):
            arcs.append((u, draw(st.integers(0, ns - 1)), draw(wt)))
    src, dst, w = (np.array(c, dtype=np.int64) for c in zip(*arcs))
    return ns, src, dst, w


def _same(a, b):
    assert type(a) is type(b)
    if a is not None:
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


@settings(max_examples=400, deadline=None)
@given(_graph(), st.booleans())
def test_one_player_min_matches_oracle(graph, need_bias):
    ns, src, dst, w = graph
    try:
        want = oracle_one_player_min(ns, src, dst, w, need_bias)
    except EngineError as e:
        with pytest.raises(EngineError, match=str(e)):
            _one_player_min(ns, src, dst, w, need_bias)
        return
    got = _one_player_min(ns, src, dst, w, need_bias)
    for a, b in zip(want, got):
        _same(a, b)


@st.composite
def _arena(draw):
    n_min = draw(st.integers(1, 5))
    n_max = draw(st.integers(1, 5))
    hi = draw(st.sampled_from([1, 3, _guard_max(max(n_min, n_max) + 2)]))
    wt = _weights(hi)

    def arcs(n_from, n_to):
        out = []
        for _ in range(n_from):
            tgts = draw(st.lists(st.integers(0, n_to - 1), min_size=1, max_size=n_to, unique=True))
            out.append([(t, draw(wt)) for t in sorted(tgts)])
        return out

    arena = Arena(arcs(n_min, n_max), arcs(n_max, n_min), 1)
    degs = np.diff(arena.b_off)
    sig = np.array([draw(st.integers(0, int(d) - 1)) for d in degs], dtype=np.int64)
    return arena, sig


@settings(max_examples=300, deadline=None)
@given(_arena())
def test_improve_tight_tau_and_gate_match_oracles(arena_sig):
    arena, sig = arena_sig
    ev = _evaluate(arena, sig)
    want = oracle_one_player_min(arena.n_min, arena.a_src, ev.t_dst, ev.t_w, True)
    for a, b in zip(want, (ev.g_num, ev.g_den, ev.vhat)):
        _same(a, b)
    for reverse in (False, True):
        s_got, s_want = sig.copy(), sig.copy()
        n_got = _improve(arena, s_got, ev, reverse=reverse)
        assert n_got == oracle_improve(arena, s_want, ev, reverse=reverse)
        assert np.array_equal(s_got, s_want)
    tau = _tight_tau(arena, ev)
    assert tau == oracle_tight_tau(arena, ev)
    assert _gate(arena, ev, tau) is oracle_gate(arena, ev, tau)


@settings(max_examples=100, deadline=None)
@given(_arena())
def test_seeded_cold_start_keeps_the_values(arena_sig):
    """A cold solve starts from _seed_sigma, a warm one from the drawn
    sigma; both give the values of the enumeration oracle.  The seed is a
    valid index in every Max node's arc group, and equals the value
    iteration on Python ints: int64 does not overflow up to the guard."""
    arena, sig = arena_sig
    seed = _seed_sigma(arena)
    assert seed.dtype == np.int64
    assert np.all((seed >= 0) & (seed < np.diff(arena.b_off)))
    assert seed.tolist() == oracle_seed_sigma(arena)
    chi = solve_arena(arena)[0]
    assert solve_arena(arena, sig)[0] == chi
    assert chi == oracle_arena_values(arena)


def test_seed_cuts_the_evaluations_of_a_cold_solve(monkeypatch):
    """The first level probe of bisection_solve starts cold.  From the
    seed it takes about 2 one-player evaluations on these instances, from
    sigma = 0 about 7.5."""
    calls, per_solve = [0], []
    evaluate, solve = games._evaluate, pseudolinear._ParamStruct.solve

    def counting_evaluate(*args):
        calls[0] += 1
        return evaluate(*args)

    def counting_solve(struct, lam):
        before = calls[0]
        out = solve(struct, lam)
        per_solve.append(calls[0] - before)
        return out

    monkeypatch.setattr(games, "_evaluate", counting_evaluate)
    monkeypatch.setattr(pseudolinear._ParamStruct, "solve", counting_solve)
    first = []
    for s in range(10):
        per_solve.clear()
        pseudolinear.bisection_solve(gen_random(25, 25, 500, 100, s))
        first.append(per_solve[0])
    assert sum(first) <= 3 * len(first)


def test_float_ties_take_the_exact_fallback():
    """Weights near 2^55 where distinct fractions round to one float64:
    in the Karp values (first graph), in the least reachable cycle mean
    (second graph, self-loops 2^55 + 1 and 2^55), and in _improve's best
    target gain (the arena)."""
    base = _guard_max(5)
    karp = ([0, 0, 1, 2, 2], [2, 1, 2, 0, 2], [base, base - 4, base - 1, base - 2, base - 4])
    loops = ([0, 0, 1, 2], [1, 2, 1, 2], [0, 0, 2**55 + 1, 2**55])
    for src, dst, w in (karp, loops):
        src, dst, w = (np.array(c, dtype=np.int64) for c in (src, dst, w))
        want = oracle_one_player_min(3, src, dst, w, True)
        got = _one_player_min(3, src, dst, w, True)
        for a, b in zip(want, got):
            _same(a, b)
    assert int(got[0][0]) == 2**55
    big = 2**54
    arena = Arena(
        [[(0, 0)], [(1, 0)], [(2, 0)]],
        [[(1, 0), (2, 0)], [(1, big)], [(2, big + 1)]],
        1,
    )
    sig = np.zeros(3, dtype=np.int64)
    ev = _evaluate(arena, sig)
    want_sig = sig.copy()
    assert _improve(arena, sig, ev) == oracle_improve(arena, want_sig, ev) == 1
    assert np.array_equal(sig, want_sig) and sig[0] == 1


def test_no_reachable_cycle_raises():
    src, dst, w = (np.array(c, dtype=np.int64) for c in ([0], [1], [3]))
    for fn in (_one_player_min, oracle_one_player_min):
        with pytest.raises(EngineError, match="no reachable cycle"):
            fn(2, src, dst, w, False)


def test_no_tight_move_and_missing_tau_arc_raise():
    arena = Arena([[(0, 1), (1, 2)], [(1, 0)]], [[(0, 1), (1, 0)], [(1, -1)]], 1)
    ev = _evaluate(arena, np.zeros(2, dtype=np.int64))
    broken = _Evaluation(ev.g_num, ev.g_den, ev.vhat + np.array([1, 0]), ev.t_dst, ev.t_w)
    for fn in (_tight_tau, oracle_tight_tau):
        with pytest.raises(EngineError, match="no tight move at Min node 0"):
            fn(arena, broken)
    for fn in (_gate, oracle_gate):
        with pytest.raises(EngineError, match="tau selects a missing arc"):
            fn(arena, ev, [0, 0])
