"""The scaled-integer greatest-solution descent and the integer arc build.

The descent kernel is checked against the extended-scalar sweep it
replaced (kept in _util as the oracle): same fixpoint, same finite mask,
same convergence flag after the same number of sweeps, for the
homogeneous form and for the affine form with a pinned constant column.
"""

import inspect
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from tropopt.games import EngineError, _den_lcm
from tropopt.pseudolinear import _compiled

from _util import (
    M,
    _check_witness,
    _descend,
    b_entries,
    descent_oracle,
    finite_abs_max,
    struct_matrix,
    system_weight_bound,
)

_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))
_entries = st.one_of(st.none(), _rationals, _rationals)


@st.composite
def _matrix(draw, m, n):
    return M([[draw(_entries) for _ in range(n)] for _ in range(m)])


@st.composite
def _pair(draw, extra_col=False):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    return draw(_matrix(m, n)), draw(_matrix(m, n + extra_col))


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


@settings(max_examples=250, deadline=None)
@given(_pair(extra_col=True), _rationals, st.integers(0, 12))
def test_affine_descent_matches_oracle(pair, extra, sweeps):
    """B = [V | d] with the constant coordinate pinned at 0; W also covers
    data outside the system (extra), as the objective anchors do."""
    U, Vd = pair
    n = U.cols
    V = TropMatrix([row[:n] for row in Vd.data], "max")
    d = [row[n] for row in Vd.data]
    W = max(finite_abs_max(U), finite_abs_max(Vd), abs(extra))
    L = _den_lcm(U, Vd, M([[extra]]))
    want, converged = descent_oracle(U, V, W, sweeps, d=d)
    got = _descend(U, Vd, W, L, sweeps)
    assert (got is not None) == converged
    if converged:
        x, finite, y, y_fin = got
        assert finite[n] and x[n] == 0
        assert _unscale(x[:n], finite[:n], L) == want
        assert _unscale(y, y_fin, L) == [tmax(a, e) for a, e in zip(mat_vec_mul(V, want), d)]


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
