"""The scaled-integer greatest-solution descent and the integer arc build.

The descent kernel is checked against the extended-scalar sweep it
replaced (kept in _util as the oracle): same fixpoint, same finite mask,
same convergence flag after the same number of sweeps, from the seed on
every coordinate and from the start point's start, with the homogenizing
coordinate t at 0.
"""

import inspect
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tropopt import (
    NEG_INF,
    IsolatedNode,
    PseudolinearProblem,
    PseudoquadraticProblem,
    TropMatrix,
    TwoSidedSystem,
    feasible_finite,
    fin,
    gen_random,
    mat_vec_mul,
    solve_values,
    tmax,
)
from tropopt.games import EngineError, _descend_scaled, _den_lcm
from tropopt.matrix import _scaled
from tropopt.pseudolinear import _affine_witness, _compiled

from _util import (
    M,
    _check_witness,
    _descend,
    b_entries,
    descent_oracle,
    finite_abs_max,
    golden_linear,
    linprob,
    struct_matrix,
    system_weight_bound,
)

_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))
_entries = st.one_of(st.none(), _rationals, _rationals)


@st.composite
def _matrix(draw, m, n):
    return M([[draw(_entries) for _ in range(n)] for _ in range(m)])


@st.composite
def _pair(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    return draw(_matrix(m, n)), draw(_matrix(m, n))


def _unscale(v, finite, L):
    return [fin(Fraction(int(a), L)) if f else NEG_INF for a, f in zip(v, finite)]


def _verify(sys, x):
    lhs = mat_vec_mul(sys.A, x)
    rhs = mat_vec_mul(sys.B, x)
    return all(l <= r for l, r in zip(lhs, rhs))


@settings(max_examples=250, deadline=None)
@given(_pair(), st.integers(0, 12))
def test_homogeneous_descent_matches_oracle(pair, sweeps):
    A, B = pair
    W = max(finite_abs_max(A), finite_abs_max(B))
    L = _den_lcm(A, B)
    want, converged = descent_oracle(A, B, W, sweeps)
    got = _descend(A, B, W, L, sweeps)
    assert (got is not None) == converged
    if converged:
        x, finite, y, y_fin = got
        assert _unscale(x, finite, L) == want
        assert _unscale(y, y_fin, L) == mat_vec_mul(B, want)


@st.composite
def _homogenized(draw):
    """[U | b] and [V | d] over (x, t), n from 1 to 4."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(_matrix(m, n + 1)), draw(_matrix(m, n + 1))


@settings(max_examples=250, deadline=None)
@given(_homogenized(), _rationals, st.integers(0, 12))
def test_homogenized_descent_from_t_zero_matches_oracle(pair, extra, sweeps):
    """The start point's descent: from (s, ..., s, 0) with s = 2W+2, t
    descending like any other coordinate; W also covers data outside the
    system (extra), as the objective anchors do."""
    A, B = pair
    n = A.cols - 1
    W = max(finite_abs_max(A), finite_abs_max(B), abs(extra))
    L = _den_lcm(A, B, M([[extra]]))
    s = 2 * W + 2
    want, converged = descent_oracle(A, B, W, sweeps, x0=[fin(s)] * n + [fin(0)])
    got = _descend_scaled(*_scaled(A, L), *_scaled(B, L), [int(s * L)] * n + [0], sweeps)
    assert (got is not None) == converged
    if converged:
        x, finite, y, y_fin = got
        assert _unscale(x, finite, L) == want
        assert _unscale(y, y_fin, L) == mat_vec_mul(B, want)


@st.composite
def _affine_problem(draw):
    """U x + b <= V x + d with m and n from 1 to 4 on small rationals; p
    and q only raise W."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def vec(k):
        return [draw(_entries) for _ in range(k)]

    q = ["+inf" if v is None else v for v in vec(n)]
    return linprob([vec(n) for _ in range(m)], [vec(n) for _ in range(m)], vec(m), vec(m), vec(n), q)


@settings(max_examples=250, deadline=None)
@given(_affine_problem())
@example(golden_linear())
def test_start_point_keeps_the_t_pinned_fixpoint(prob):
    """Whenever the descent with t pinned at 0 (the oracle's affine form,
    which ignores the b rows) settles within the start point's sweep cap
    on a finite point that meets the b rows, the start point is exactly
    that point: the t-free iterates lie between the pinned ones and it.
    The golden instance's start point is one such point."""
    rec = _compiled(prob)
    m, n = rec.m, rec.n
    W = Fraction(rec.WL, rec.L)
    want, converged = descent_oracle(prob.U, prob.V, W, min(3 * (m + n) + 6, 64), d=list(prob.d))
    if not (converged and all(v.is_finite for v in want)):
        return
    lhs = [tmax(u, bi) for u, bi in zip(mat_vec_mul(prob.U, want), prob.b)]
    rhs = [tmax(v, di) for v, di in zip(mat_vec_mul(prob.V, want), prob.d)]
    if not all(l <= r for l, r in zip(lhs, rhs)):
        return
    assert _affine_witness(prob) == [v.value for v in want]


def test_golden_start_point():
    """The golden instance's start point is the t-pinned descent's
    fixpoint from the seed 2W+2 = 8: x_2 stays at 8, and the row
    3 + x_1 <= max(x_2 + 1, 1) lowers x_1 to 6."""
    assert _affine_witness(golden_linear()) == [Fraction(6), Fraction(8)]


def test_huge_denominator_lcm_runs_exactly_on_python_ints():
    A = M([[Fraction(1, 2**333), None], [0, Fraction(-1, 3**210)]])
    B = M([[0, Fraction(1, 5**143)], [Fraction(1, 7), 0]])
    sys = TwoSidedSystem(A, B)
    W = system_weight_bound(sys)
    L = _den_lcm(A, B)
    assert len(str(L)) >= 300
    sweeps = 3 * (2 + 2) + 6
    fix = _descend(A, B, W, L, sweeps)
    assert fix is not None and fix[0].dtype == object
    want, converged = descent_oracle(A, B, W, sweeps)
    assert converged and all(v.is_finite for v in want)
    got = feasible_finite(sys)
    assert got == [v.value for v in want]
    assert _verify(sys, [fin(v) for v in got])


def _rational(prob, rng):
    """prob with every finite entry divided by a small random integer."""

    def sc(e):
        return fin(e.value / rng.randint(1, 9)) if e.is_finite else e

    def mat(A):
        return TropMatrix([[sc(e) for e in row] for row in A.data], "max")

    vecs = [[sc(e) for e in v] for v in (prob.b, prob.d, prob.p, prob.q)]
    if isinstance(prob, PseudoquadraticProblem):
        return PseudoquadraticProblem(mat(prob.U), mat(prob.V), *vecs, mat(prob.C))
    return PseudolinearProblem(mat(prob.U), mat(prob.V), *vecs)


def _reference_arcs(struct):
    """The per-entry build of the integer arc arrays, column by column."""
    A, L = struct_matrix(struct), struct.L0
    a_off, a_src, a_tgt, a_w = [0], [], [], []
    for j in range(struct.n_min):
        for r in range(A.rows):
            e = A.data[r][j]
            if e.is_finite:
                a_src.append(j)
                a_tgt.append(r)
                a_w.append(int(-e.value * L))
        a_off.append(len(a_src))
    b_w = [
        0 if islam else int(wv.value * L)
        for ents in b_entries(struct)
        for (_, wv, islam) in ents
    ]
    return [np.asarray(v, dtype=np.int64) for v in (a_off, a_src, a_tgt, a_w, b_w)]


def test_param_arcs_match_reference_build():
    rng = random.Random(5)
    checked = 0
    for s in range(12):
        base = gen_random(6, 5, 40, 60, s, quadratic=bool(s % 2))
        for prob in (base, _rational(base, rng)):
            rec = _compiled(prob)
            if rec.row_infeasible:
                continue
            st_ = rec.struct
            got = [st_._lay.a_off, st_._lay.a_src, st_._lay.a_tgt, st_._a_w0, st_._b_w0]
            for g, w in zip(got, _reference_arcs(st_)):
                assert g.dtype == np.int64
                assert np.array_equal(g, w)
            checked += 1
    assert checked >= 12


def _rand_system(rng, m, n):
    while True:
        rows = [
            [
                Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])) if rng.random() < 0.7 else None
                for _ in range(n)
            ]
            for _ in range(2 * m)
        ]
        try:
            return TwoSidedSystem(M(rows[:m]), M(rows[m:]))
        except IsolatedNode:
            continue


def test_feasible_finite_max_sweeps():
    """max_sweeps caps the descent; below the fixpoint the game decides,
    and the default cap is 3(m+n)+6."""
    params = inspect.signature(feasible_finite).parameters
    assert list(params) == ["sys", "max_sweeps"]
    assert params["max_sweeps"].default is None
    rng = random.Random(31)
    fell_back = 0
    for _ in range(60):
        sys = _rand_system(rng, rng.randint(1, 4), rng.randint(1, 4))
        m, n = sys.shape
        W = system_weight_bound(sys)
        feasible = min(solve_values(sys).chi) >= 0
        for cap in (0, 1, 2, None):
            sweeps = 3 * (m + n) + 6 if cap is None else cap
            want, converged = descent_oracle(sys.A, sys.B, W, sweeps)
            got = feasible_finite(sys, max_sweeps=cap)
            assert (got is not None) == feasible
            if converged:
                finite = all(v.is_finite for v in want)
                assert got == ([v.value for v in want] if finite else None)
            else:
                fell_back += 1
            if got is not None:
                assert _verify(sys, [fin(v) for v in got])
    assert fell_back > 0


@settings(max_examples=250, deadline=None)
@given(_pair(), st.data())
def test_witness_check_matches_extended_scalar_check(pair, data):
    A, B = pair
    L = _den_lcm(A, B)
    x = [Fraction(data.draw(st.integers(-30, 30)), L) for _ in range(A.cols)]
    xs = [fin(v) for v in x]
    if all(l <= r for l, r in zip(mat_vec_mul(A, xs), mat_vec_mul(B, xs))):
        _check_witness(A, B, x, L)
    else:
        with pytest.raises(EngineError, match="violates"):
            _check_witness(A, B, x, L)


def test_witness_check_rejects_corrupted_points_on_both_dtype_paths():
    """x1 = x2 is the solution set.  Points near 2^70 do not fit int64, so
    they are checked on Python ints, like the 300-digit-LCM system."""
    A, B = M([[0, None], [None, 0]]), M([[None, 0], [0, None]])
    for t in (Fraction(3), Fraction(2**70)):
        _check_witness(A, B, [t, t], 1)
        with pytest.raises(EngineError, match="violates"):
            _check_witness(A, B, [t + 1, t], 1)
    with pytest.raises(EngineError, match="grid"):
        _check_witness(A, B, [Fraction(1, 2), Fraction(1, 2)], 1)
    A = M([[Fraction(1, 2**333), None], [0, Fraction(-1, 3**210)]])
    B = M([[0, Fraction(1, 5**143)], [Fraction(1, 7), 0]])
    L = _den_lcm(A, B)
    x = feasible_finite(TwoSidedSystem(A, B))
    _check_witness(A, B, x, L)
    bad = [x[0] + 1, x[1]]
    assert not _verify(TwoSidedSystem(A, B), [fin(v) for v in bad])
    with pytest.raises(EngineError, match="violates"):
        _check_witness(A, B, bad, L)
