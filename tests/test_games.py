"""Two-sided systems as mean-payoff games: values, strategies, solvability.

The exhaustive oracles pin each player to every positional strategy in
turn and compare the engine's value vector with the resulting minimax.
"""

import random
from fractions import Fraction

import pytest

from tropopt import (
    NEG_INF,
    GameValues,
    InvalidStrategy,
    IsolatedNode,
    StrategyPair,
    TropMatrix,
    TwoSidedSystem,
    build_game,
    conjugate,
    dual_mat_vec_mul,
    fin,
    feasible_finite,
    mat_vec_mul,
    play_value,
    restrict_strategies,
    solve_values,
)

from _util import (
    E,
    M,
    V,
    enum_max_strategies,
    enum_min_strategies,
    golden_game,
    one_player_value,
    system_weight_bound,
)


def _verify(sys, x):
    lhs = mat_vec_mul(sys.A, x)
    rhs = mat_vec_mul(sys.B, x)
    return all(l <= r for l, r in zip(lhs, rhs))


def test_system_validation():
    with pytest.raises(IsolatedNode):
        TwoSidedSystem(M([[None, 0], [None, 1]]), M([[0, 0], [0, 0]]))
    with pytest.raises(IsolatedNode):
        TwoSidedSystem(M([[0, 0], [0, 0]]), M([[None, None], [0, 0]]))
    sys = TwoSidedSystem(*golden_game())
    assert sys.shape == (3, 2)


def test_build_game_golden():
    game = build_game(TwoSidedSystem(*golden_game()))
    assert game.n_min == 2 and game.n_max == 3
    arc_count = sum(len(a) for a in game.min_arcs) + sum(len(a) for a in game.max_arcs)
    assert arc_count == 7
    assert game.min_arcs[0] == [(0, Fraction(-3)), (1, Fraction(-7))]
    assert game.min_arcs[1] == [(2, Fraction(0))]
    assert game.max_arcs[0] == [(0, Fraction(2))]
    assert game.max_arcs[1] == [(1, Fraction(1))]
    assert game.max_arcs[2] == [(0, Fraction(-3)), (1, Fraction(4))]


def test_play_value_golden():
    game = build_game(TwoSidedSystem(*golden_game()))
    strat = StrategyPair(tau=[0, 2], sigma=[0, 1, 1])
    assert play_value(game, 0, strat) == Fraction(-1)
    assert play_value(game, 1, strat) == Fraction(4)
    # a worse Min choice at column 0 drifts into the value-4 cycle
    worse = StrategyPair(tau=[1, 2], sigma=[0, 1, 1])
    assert play_value(game, 0, worse) == Fraction(4)


def test_play_value_rejects_bad_strategies():
    game = build_game(TwoSidedSystem(*golden_game()))
    with pytest.raises(InvalidStrategy):
        play_value(game, 0, StrategyPair(tau=[1], sigma=[0, 1, 1]))
    with pytest.raises(InvalidStrategy):
        play_value(game, 0, StrategyPair(tau=[2, 2], sigma=[0, 1, 1]))
    with pytest.raises(InvalidStrategy):
        play_value(game, 0, StrategyPair(tau=[0, 2], sigma=[1, 1, 1]))


def test_solve_values_golden():
    sys = TwoSidedSystem(*golden_game())
    vals = solve_values(sys)
    assert isinstance(vals, GameValues)
    assert vals.chi == [Fraction(-1), Fraction(4)]
    # the returned pair is an equilibrium: neither side improves anywhere
    game = build_game(sys)
    strat = StrategyPair(vals.tau, vals.sigma)
    base = [play_value(game, j, strat) for j in range(2)]
    assert base == vals.chi
    for j, choices in enumerate(game.min_arcs):
        for (i, _) in choices:
            alt = list(vals.tau)
            alt[j] = i
            assert play_value(game, j, StrategyPair(alt, vals.sigma)) >= base[j]
    for i, choices in enumerate(game.max_arcs):
        for (j2, _) in choices:
            alt = list(vals.sigma)
            alt[i] = j2
            for j in range(2):
                assert play_value(game, j, StrategyPair(vals.tau, alt)) <= base[j]


def test_partial_solvability_golden():
    """chi = (-1, 4): only the second variable supports a solution, so
    no finite solution of the whole system exists."""
    sys = TwoSidedSystem(*golden_game())
    assert feasible_finite(sys) is None
    vals = solve_values(sys)
    assert vals.chi[0] < 0 <= vals.chi[1]


def test_feasible_finite_witness_simple():
    sys = TwoSidedSystem(M([[0, None], [None, 0]]), M([[None, 1], [1, None]]))
    x = feasible_finite(sys)
    assert x is not None
    assert _verify(sys, [E(v) for v in x])


def _rand_system(rng, m, n, density=0.75, W=5):
    while True:
        A = TropMatrix(
            [
                [
                    fin(rng.randint(-W, W)) if rng.random() < density else NEG_INF
                    for _ in range(n)
                ]
                for _ in range(m)
            ],
            "max",
        )
        B = TropMatrix(
            [
                [
                    fin(rng.randint(-W, W)) if rng.random() < density else NEG_INF
                    for _ in range(n)
                ]
                for _ in range(m)
            ],
            "max",
        )
        try:
            return TwoSidedSystem(A, B)
        except IsolatedNode:
            continue


def test_saddle_point_vs_exhaustive():
    """Engine values equal both one-sided exhaustive optima:
    min over tau of Max's best reply = chi = max over sigma of Min's best
    reply, per start node."""
    rng = random.Random(31337)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        sys = _rand_system(rng, m, n)
        vals = solve_values(sys)
        for j in range(n):
            lower = min(
                one_player_value(sys.A, sys.B, tau=t, start=j)
                for t in enum_min_strategies(sys.A)
            )
            upper = max(
                one_player_value(sys.A, sys.B, sigma=s, start=j)
                for s in enum_max_strategies(sys.B)
            )
            assert lower == upper == vals.chi[j]


def test_restrict_strategies_consistency():
    rng = random.Random(555)
    for _ in range(60):
        sys = _rand_system(rng, rng.randint(1, 3), rng.randint(1, 3))
        vals = solve_values(sys)
        pinned = restrict_strategies(sys, tau=vals.tau, sigma=vals.sigma)
        game = build_game(sys)
        chi2 = solve_values(pinned).chi
        want = [
            play_value(game, j, StrategyPair(vals.tau, vals.sigma))
            for j in range(sys.shape[1])
        ]
        assert chi2 == want


def test_restrict_strategies_validation():
    sys = TwoSidedSystem(*golden_game())
    with pytest.raises(InvalidStrategy):
        restrict_strategies(sys, tau=[0])
    with pytest.raises(InvalidStrategy):
        restrict_strategies(sys, tau=[2, 2])  # A[2][0] is -inf
    with pytest.raises(InvalidStrategy):
        restrict_strategies(sys, sigma=[1, 1, 1])  # B[0][1] is -inf
    same = restrict_strategies(sys)
    assert same.A == sys.A and same.B == sys.B


def test_solvability_vs_grid_bruteforce():
    """feasible_finite agrees with an exhaustive shifted-grid search.

    Any solvable integer system has an integer solution whose spread is
    at most 2nW (difference-constraint potentials), so the grid with
    x_last = 0 and the rest in [-K, K], K = 2nW + 1, is conclusive."""
    rng = random.Random(777)
    n_checked = 0
    for _ in range(160):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        W = 2
        sys = _rand_system(rng, m, n, density=0.7, W=W)
        got = feasible_finite(sys)
        if got is not None:
            assert _verify(sys, [E(v) for v in got])
        K = 2 * n * W + 1
        found = False
        if n == 1:
            found = _verify(sys, [E(0)])
        else:
            span = range(-K, K + 1)
            import itertools

            for rest in itertools.product(span, repeat=n - 1):
                if _verify(sys, [E(v) for v in rest] + [E(0)]):
                    found = True
                    break
        assert (got is not None) == found
        n_checked += 1
    assert n_checked == 160


def test_cycle_time_iteration_bound():
    """k-step value iterates of x -> A# (B x) stay within (m+n)W/k of chi."""
    rng = random.Random(2024)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        sys = _rand_system(rng, m, n, density=0.8, W=4)
        chi = solve_values(sys).chi
        W = system_weight_bound(sys)
        Ac = conjugate(sys.A)
        x = [E(0)] * n
        bound_scale = Fraction(m + n) * W
        for k in range(1, 13):
            x = dual_mat_vec_mul(Ac, mat_vec_mul(sys.B, x))
            assert all(v.is_finite for v in x)
            for j in range(n):
                assert abs(x[j].value / k - chi[j]) <= bound_scale / k


def test_play_enters_cycle_quickly():
    """The pinned play from any start closes its cycle within m+n turns."""
    rng = random.Random(86)
    for _ in range(40):
        sys = _rand_system(rng, rng.randint(1, 4), rng.randint(1, 4))
        game = build_game(sys)
        tau = enum_min_strategies(sys.A)[0]
        sigma = enum_max_strategies(sys.B)[0]
        m, n = sys.shape
        for j in range(n):
            seen = []
            pos = j
            while pos not in seen:
                seen.append(pos)
                pos = sigma[tau[pos]]
            assert len(seen) <= m + n
