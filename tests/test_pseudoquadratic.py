"""Pseudoquadratic solver: coupling term, bounded-denominator grid, schemes.

Key cross-checks: degeneration to the pseudolinear solver when the
coupling matrix is empty, and exact agreement with a full scan of the
bounded-denominator level grid.
"""

import random
from fractions import Fraction

import pytest

from tropopt import (
    NEG_INF,
    POS_INF,
    PseudolinearProblem,
    PseudoquadraticProblem,
    TropMatrix,
    TypingError,
    bisection_solve,
    bisection_solve_quad,
    bounds_quad,
    fin,
    gen_random,
    initial_bounds,
    mat_vec_mul,
    newton_solve,
    newton_solve_quad,
    objective,
    objective_quad,
    parametric_game_quad,
    round_bounded,
    spectral_value,
)

from _util import E, M, V, oracle_objective, quadprob

F = Fraction


def _golden_quad():
    """Golden linear instance plus C = U as coupling."""
    return quadprob(
        [[None, -2], [3, None]],
        [[1, 0], [None, 1]],
        [None, None],
        [None, 1],
        [0, None],
        [-1, 0],
        [[None, -2], [3, None]],
    )


def _feasible_at_quad(prob, x, lam):
    xs = [E(v) for v in x]
    from tropopt import tmax

    lhs = mat_vec_mul(prob.U, xs)
    rhs = mat_vec_mul(prob.V, xs)
    for i in range(prob.shape[0]):
        if not tmax(lhs[i], prob.b[i]) <= tmax(rhs[i], prob.d[i]):
            return False
    return objective_quad(prob, xs).value <= lam


def test_validation():
    with pytest.raises(TypingError):
        quadprob([[0]], [[0]], [None], [None], [0], [0], [[0, 0]])
    with pytest.raises(TypingError):
        PseudoquadraticProblem(
            M([[0]]), M([[0]]), V([None]), V([None]), V([0]), V([0]), M([[0]], typing="min")
        )


def test_objective_quad_hand_values():
    prob = _golden_quad()
    # linear part 1, coupling part max((Cx)_j - x_j) = max(0, 1) = 1
    assert objective_quad(prob, V([-1, 1])) == fin(1)
    # moving x_2 down makes the coupling term from row 2 dominate
    assert objective_quad(prob, V([-1, 0])) == fin(2)
    solo = quadprob([[0]], [[0]], [None], [None], [None], ["+inf"], [[1]])
    assert objective_quad(solo, V([7])) == fin(1)  # (1 + x) - x
    nostar = quadprob([[0]], [[0]], [None], [None], [3], ["+inf"], [[None]])
    assert objective_quad(nostar, V([1])) == fin(2)


def test_round_bounded_examples():
    assert round_bounded(F(5, 12), 3, "down") == F(1, 3)
    assert round_bounded(F(5, 12), 3, "up") == F(1, 2)
    assert round_bounded(F(1, 3), 3, "down") == F(1, 3)
    assert round_bounded(F(1, 3), 3, "strict_down") == F(0)
    assert round_bounded(F(1, 3), 3, "strict_up") == F(1, 2)
    assert round_bounded(F(-5, 12), 2, "down") == F(-1, 2)
    assert round_bounded(F(-5, 12), 2, "up") == F(0)
    assert round_bounded(F(7), 4, "down") == F(7)
    with pytest.raises(ValueError):
        round_bounded(F(1), 0, "down")
    with pytest.raises(ValueError):
        round_bounded(F(1), 3, "sideways")


def _farey_points(D, lo, hi):
    pts = set()
    for d in range(1, D + 1):
        k = (lo * d).__ceil__()
        while F(k, d) <= hi:
            pts.add(F(k, d))
            k += 1
    return sorted(pts)


def test_round_bounded_vs_farey_enumeration():
    """Each direction matches a brute-force search of the D-grid."""
    for D in range(2, 7):
        for k in range(-49, 50):
            x = F(k, 24)
            grid = _farey_points(D, x - 2, x + 2)
            below = [g for g in grid if g <= x]
            above = [g for g in grid if g >= x]
            assert round_bounded(x, D, "down") == below[-1]
            assert round_bounded(x, D, "up") == above[0]
            strictly_below = [g for g in grid if g < x]
            strictly_above = [g for g in grid if g > x]
            assert round_bounded(x, D, "strict_down") == strictly_below[-1]
            assert round_bounded(x, D, "strict_up") == strictly_above[0]


def test_parametric_game_quad_shape():
    prob = _golden_quad()
    sys = parametric_game_quad(prob, F(1))
    m, n = prob.shape
    assert sys.shape == (m + 2 * n + 1, n + 1)
    A, B = sys.A, sys.B
    # coupling rows sit right after the structural block, lam at own column
    assert A[m + 0, 1] == fin(-2) and B[m + 0, 0] == fin(1)
    assert A[m + 1, 0] == fin(3) and B[m + 1, 1] == fin(1)
    assert B[m + 0, 1] == NEG_INF and B[m + 0, 2] == NEG_INF


def test_coupling_free_degenerates_to_linear():
    rng = random.Random(22)
    agree = 0
    for t in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        linear = gen_random(n, m, 8, rng.randint(55, 100), seed=31000 + t)
        quad = PseudoquadraticProblem(
            linear.U,
            linear.V,
            linear.b,
            linear.d,
            linear.p,
            linear.q,
            TropMatrix([[NEG_INF] * n for _ in range(n)], "max"),
        )
        ol = bisection_solve(linear)
        oq = bisection_solve_quad(quad)
        oqn = newton_solve_quad(quad)
        assert ol.status == oq.status == oqn.status
        if ol.status == "optimal":
            assert ol.lam == oq.lam == oqn.lam
            agree += 1
    assert agree >= 40


def test_quad_golden_coupling_only():
    prob = quadprob([[0]], [[0]], [None], [None], [None], ["+inf"], [[1]])
    out = bisection_solve_quad(prob)
    # objective is constantly 1; the lower bound (coupling cycle mean)
    # already equals the optimum, so zero bisection iterations
    assert out.status == "optimal" and out.lam == fin(1)
    assert out.iterations == 0
    outn = newton_solve_quad(prob)
    assert outn.status == "optimal" and outn.lam == fin(1)


def test_bounds_quad():
    prob = _golden_quad()
    lb, up, wit = bounds_quad(prob)
    # anchor bound 1/2 vs coupling cycle mean max(3-2, 3)/2... rho(C) = 1/2
    assert lb == fin(F(1, 2))
    assert wit is not None
    assert objective_quad(prob, wit) == up
    bad = quadprob([[0]], [[None]], [0], [None], [0], [0], [[None]])
    lb2, up2, wit2 = bounds_quad(bad)
    assert up2.is_pos_inf and wit2 is None


def test_one_bounds_and_objective_for_both_kinds():
    """bounds_quad and objective_quad are initial_bounds and objective,
    which read the kind off the problem's record.  On a pseudolinear
    problem they answer as the linear pair does (they raised KeyError 'C'
    when they were separate functions).  On pseudoquadratic data the
    upper bound is the start point's objective with its coupling terms,
    so it lies at or above the optimum; the linear objective alone put it
    below on seed 4 (14 against 19) and 3 other seeds here."""
    assert bounds_quad is initial_bounds and objective_quad is objective
    lin = gen_random(3, 3, 5, 100, 0)
    lb, up, wit = bounds_quad(lin)
    assert (lb, up) == (fin(2), fin(15))
    assert objective_quad(lin, wit) == oracle_objective(lin, V(wit)) == up
    below = 0
    for s in range(40):
        prob = gen_random(5, 5, 20, 100, s, True)
        lb, up, wit = initial_bounds(prob)
        out = bisection_solve_quad(prob)
        assert (wit is None) == (out.status == "infeasible")
        if out.status == "optimal":
            assert objective(prob, wit) == oracle_objective(prob, V(wit)) == up
            assert lb <= out.lam <= up
            anchors = PseudolinearProblem(*(getattr(prob, f) for f in "UVbdpq"))
            below += objective(anchors, wit) < out.lam
    assert below == 4


def test_golden_quad_solve():
    prob = _golden_quad()
    ob = bisection_solve_quad(prob)
    on = newton_solve_quad(prob)
    assert ob.status == on.status == "optimal"
    assert ob.lam == on.lam
    assert ob.lam.value.denominator <= prob.shape[1] + 1
    assert _feasible_at_quad(prob, ob.x, ob.lam.value)
    assert _feasible_at_quad(prob, on.x, on.lam.value)
    # optimum cannot be below the linear relaxation's
    lin = bisection_solve(
        __import__("tropopt").PseudolinearProblem(
            prob.U, prob.V, prob.b, prob.d, prob.p, prob.q
        )
    )
    assert ob.lam >= lin.lam


def _grid_scan_optimum(prob, lo, hi):
    """Oracle: least D-grid level with nonnegative parametric value."""
    D = prob.shape[1] + 1
    for lam in _farey_points(D, lo, hi):
        if spectral_value(prob, lam).value >= 0:
            return lam
    return None


def test_quad_bisection_vs_grid_scan():
    rng = random.Random(5151)
    matched = 0
    for t in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        prob = gen_random(n, m, 5, rng.randint(55, 100), seed=61000 + t, quadratic=True)
        out = bisection_solve_quad(prob)
        if out.status != "optimal":
            continue
        lb, up, wit = bounds_quad(prob)
        lo = lb.value if lb.is_finite else out.lam.value - 3
        want = _grid_scan_optimum(prob, lo, up.value)
        assert want == out.lam.value
        matched += 1
    assert matched >= 25


def test_quad_agreement_and_denominator_bound():
    rng = random.Random(808)
    optimal = 0
    for t in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        prob = gen_random(n, m, 6, rng.randint(55, 100), seed=62000 + t, quadratic=True)
        ob = bisection_solve_quad(prob)
        on = newton_solve_quad(prob)
        assert ob.status == on.status
        if ob.status == "optimal":
            assert ob.lam == on.lam
            assert ob.lam.value.denominator <= n + 1
            assert _feasible_at_quad(prob, ob.x, ob.lam.value)
            optimal += 1
    assert optimal >= 50


def test_quad_statuses():
    infeasible = quadprob([[0]], [[None]], [0], [None], [0], [0], [[0]])
    assert bisection_solve_quad(infeasible).status == "infeasible"
    assert newton_solve_quad(infeasible).status == "infeasible"
    unbounded = quadprob([[0]], [[0]], [None], [None], [None], [0], [[None]])
    assert bisection_solve_quad(unbounded).status == "unbounded"
    assert newton_solve_quad(unbounded).status == "unbounded"


def test_quad_real_mode_scaled_exact():
    base = _golden_quad()
    star = bisection_solve_quad(base).lam.value
    for s in (F(1, 3), F(3, 2)):

        def sc(e):
            return fin(e.value * s) if e.is_finite else e

        prob = PseudoquadraticProblem(
            TropMatrix([[sc(e) for e in r] for r in base.U.data], "max"),
            TropMatrix([[sc(e) for e in r] for r in base.V.data], "max"),
            [sc(e) for e in base.b],
            [sc(e) for e in base.d],
            [sc(e) for e in base.p],
            [sc(e) for e in base.q],
            TropMatrix([[sc(e) for e in r] for r in base.C.data], "max"),
        )
        out = newton_solve_quad(prob, mode="real")
        assert out.status == "optimal" and out.lam.value == star * s
        with pytest.raises(ValueError):
            bisection_solve_quad(prob)  # integer mode on rational data


def test_solvers_refuse_the_other_problem_kind():
    """Each solver takes its own kind only.  Before the bounds read the
    kind off the record, a linear solver on pseudoquadratic data bounded
    by the linear objective but probed the coupled structure (it raised
    EngineError: no finite point at the feasible level 14 on this
    instance), and a quad solver on linear data found no coupling matrix
    (KeyError 'C')."""
    quad = gen_random(5, 5, 20, 100, 4, True)
    linear = gen_random(5, 5, 20, 100, 4)
    assert bisection_solve_quad(quad).status == "optimal"
    assert bisection_solve(linear).status == "optimal"
    lin_only = "takes a PseudolinearProblem, not a PseudoquadraticProblem"
    quad_only = "takes a PseudoquadraticProblem, not a PseudolinearProblem"
    for fn, prob, msg in (
        (bisection_solve, quad, lin_only),
        (newton_solve, quad, lin_only),
        (bisection_solve_quad, linear, quad_only),
        (newton_solve_quad, linear, quad_only),
    ):
        with pytest.raises(TypingError, match=msg):
            fn(prob)
