"""The exact Newton drop: Dinkelbach's cycle-ratio iteration on the
parametric structure's integer arcs (games._least_level over the kernel
matrix._min_ratio), and the exact level search of real-mode bisection on
the same grids.

At every Newton step it must give the drop the former inner level
bisection gives (kept in _util as an oracle), on theta and on the
unbounded verdict, and on linear data the level of the alcoved closed
form.  The kernel itself is checked against brute-force cycle
enumeration on arc arrays, a third of them with weights and levels past
the int64 range, which runs it on Python ints.
"""

from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropopt import (
    PseudolinearProblem,
    PseudoquadraticProblem,
    TropMatrix,
    bisection_solve,
    bisection_solve_quad,
    fin,
    gen_random,
    newton_solve,
    newton_solve_quad,
)
from tropopt import matrix, pseudolinear
from tropopt.games import EngineError, _least_level
from tropopt.pseudolinear import _FareyGrid, _ParamStruct, _compiled

from _util import data_denominator_lcm, linprob, oracle_quad_drop, quadprob, simple_cycles

_DENS = [1, 1, 2, 3]


@st.composite
def _entry(draw, dens, miss, p):
    if draw(st.floats(0, 1)) >= p:
        return miss
    return Fraction(draw(st.integers(-8, 8)), draw(st.sampled_from(dens)))


@st.composite
def _problem(draw, quad):
    dens = _DENS if draw(st.booleans()) else [1]
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def vec(k, miss, p):
        return [draw(_entry(dens, miss, p)) for _ in range(k)]

    def mat(r, p):
        return [vec(n, None, p) for _ in range(r)]

    data = (mat(m, 0.5), mat(m, 0.5), vec(m, None, 0.3), vec(m, None, 0.5))
    objective = (vec(n, None, 0.5), vec(n, "+inf", 0.5))
    if quad:
        return quadprob(*data, *objective, mat(n, 0.3))
    return linprob(*data, *objective)


def _newton_drops(prob):
    """Run Newton in real mode; list every drop of the pseudoquadratic
    scheme as (struct, sig_idx, lam_floor, lam_minus, result), and every
    drop of the linear one as (struct, sig_idx, theta) with theta the
    closed form's level (None when unbounded)."""
    probes, drops = [], []
    solve, drop, alcoved = _ParamStruct.solve, _ParamStruct.drop, pseudolinear._alcoved

    def solve_rec(self, lam, warm=None):
        out = solve(self, lam, warm)
        probes.append((self, lam, out[2]))
        return out

    def drop_rec(self, sig_idx, lam_floor):
        got = drop(self, sig_idx, lam_floor)
        drops.append((self, sig_idx.copy(), lam_floor, probes[-1][1], got))
        return got

    def alcoved_rec(*args):
        theta, x = alcoved(*args)
        S = _compiled(prob).drop[6]
        struct, _, sig_idx = probes[-1]
        drops.append((struct, sig_idx.copy(), None if theta is None else Fraction(theta, S)))
        return theta, x

    with patch.object(_ParamStruct, "solve", solve_rec), patch.object(
        _ParamStruct, "drop", drop_rec
    ), patch.object(pseudolinear, "_alcoved", alcoved_rec):
        quad = isinstance(prob, PseudoquadraticProblem)
        (newton_solve_quad if quad else newton_solve)(prob, mode="real")
    return drops


def _check_quad(prob):
    grid = _FareyGrid(prob.shape[1] + 1, data_denominator_lcm(prob))
    drops = _newton_drops(prob)
    for struct, sig_idx, lam_floor, lam_minus, got in drops:
        want = oracle_quad_drop(struct, sig_idx, lam_floor, lam_minus, grid)
        assert (None if got is None else grid.up(got)) == want
    return drops


def _check_linear(prob):
    drops = _newton_drops(prob)
    for struct, sig_idx, theta in drops:
        assert struct.drop(sig_idx, prob._lam_floor()) == theta
    return drops


@settings(max_examples=150, deadline=None)
@given(_problem(quad=True))
def test_quad_drop_matches_bisection_oracle(prob):
    _check_quad(prob)


@settings(max_examples=150, deadline=None)
@given(_problem(quad=False))
def test_linear_closed_form_matches_cycle_ratio(prob):
    _check_linear(prob)


def test_drops_on_seeded_instances():
    """Every drop of seeded dense and sparse instances of both kinds, with
    finite and unbounded drops among them."""
    quad = [gen_random(3, 4, 20, 80, s, True) for s in range(25)]
    quad += [gen_random(5, 5, 20, 60, s, True) for s in range(25)]
    # unbounded: x_0 may grow, and x_1 = x_0 + 1 with it
    quad += [
        quadprob([[0]], [[0]], [0], [0], [0], ["+inf"], [[None]]),
        quadprob([[0, None]], [[None, 0]], [None], [None], [0, None], ["+inf", "+inf"], [[None, None], [1, None]]),
    ]
    lin = [gen_random(6, 5, 10, 100, s) for s in range(20)]
    lin += [gen_random(5, 6, 10, 40, s) for s in range(40)]
    qd = [d[-1] for p in quad for d in _check_quad(p)]
    ld = [d[-1] for p in lin for d in _check_linear(p)]
    for got in (qd, ld):
        assert any(t is None for t in got) and sum(t is not None for t in got) > 20


def _times(prob, s):
    """prob with every finite entry multiplied by s."""

    def sc(e):
        return fin(e.value * s) if e.is_finite else e

    def mat(M):
        return TropMatrix([[sc(e) for e in row] for row in M.data], "max")

    vecs = [[sc(e) for e in v] for v in (prob.b, prob.d, prob.p, prob.q)]
    if isinstance(prob, PseudoquadraticProblem):
        return PseudoquadraticProblem(mat(prob.U), mat(prob.V), *vecs, mat(prob.C))
    return PseudolinearProblem(mat(prob.U), mat(prob.V), *vecs)


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(_problem))
def test_real_bisection_is_exact(prob):
    """Real-mode bisection answers as real-mode Newton does, and as
    integer-mode bisection on the data scaled by its denominator lcm L,
    divided by L."""
    if isinstance(prob, PseudoquadraticProblem):
        bisect, newton = bisection_solve_quad, newton_solve_quad
    else:
        bisect, newton = bisection_solve, newton_solve
    got, want = bisect(prob, mode="real"), newton(prob, mode="real")
    assert (got.status, got.lam) == (want.status, want.lam)
    L = data_denominator_lcm(prob)
    ref = bisect(_times(prob, L))
    lam = fin(ref.lam.value / L) if ref.status == "optimal" else ref.lam
    assert (got.status, got.lam) == (ref.status, lam)


@st.composite
def _arcs(draw):
    """(n, src, dst, w0, k, L, lam): a digraph with weights scaled by L,
    its arcs grouped by source as _least_level requires; a third of them
    past the int64 range."""
    huge = draw(st.integers(0, 2)) == 0
    L = 5**30 if huge else draw(st.sampled_from([1, 2, 6]))
    n = draw(st.integers(1, 5))
    node = st.integers(0, n - 1)
    arcs = draw(
        st.lists(
            st.tuples(node, node, st.integers(-8 * L, 8 * L), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    lam = Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from([1, 3, 7**25] if huge else [1, 2, 3])))
    # object columns: np.array of Python ints past int64 would round them
    # to float64
    src, dst, w0, k = (np.array(c, dtype=object) for c in zip(*sorted(arcs, key=lambda a: a[0])))
    w0 = w0 if huge else w0.astype(np.int64)
    return n, src.astype(np.int64), dst.astype(np.int64), w0, k.astype(bool), L, lam


def _brute_level(n, src, dst, w0, k, L, lam):
    """_least_level by enumerating the simple cycles."""
    cycles = [
        (sum(int(w0[e]) for e in c), int(sum(k[e] for e in c)))
        for c in simple_cycles(n, list(zip(src.tolist(), dst.tolist(), w0)))
    ]
    if all(W + K * lam * L >= 0 for W, K in cycles):
        return None
    if any(W < 0 for W, K in cycles if K == 0):
        return EngineError, "negative cycle without a level arc"
    return max(Fraction(-W, K * L) for W, K in cycles if K > 0)


@settings(max_examples=400, deadline=None)
@given(_arcs())
def test_least_level_matches_cycle_enumeration(arcs):
    try:
        got = _least_level(*arcs)
    except EngineError as e:
        got = type(e), str(e)
    assert got == _brute_level(*arcs)


def test_least_level_cap_raises(monkeypatch):
    # two arcs 0 <-> 1: a negative cycle at level 0 whose ratio is 1/2
    src, dst = np.array([0, 1]), np.array([1, 0])
    w0, k = np.array([-3, 2]), np.array([True, True])
    assert _least_level(2, src, dst, w0, k, 1, Fraction(0)) == Fraction(1, 2)
    assert _least_level(2, src, dst, w0, k, 1, Fraction(1)) is None
    monkeypatch.setattr(matrix, "_RATIO_CAP", 1)
    with pytest.raises(EngineError, match="cycle-ratio iteration failed to converge"):
        _least_level(2, src, dst, w0, k, 1, Fraction(0))
