"""The drop step on scaled integers, against the extended-scalar route it
replaced (kept in _util as oracles).

reduce_by_strategy, solve_alcoved and kleene_star must match the oracles
exactly: the reduced problem, theta, x and R*, or the exception type and
message, for valid and invalid row strategies (vacuous rows, constant
picks, -inf picks, out-of-range picks), divergent stars, unbounded
problems, and rational data whose denominator lcm is past the int64 range,
which runs the same kernel on Python ints.

The integer-form drop (_alcoved), which never forms R*, must match the
Floyd-Warshall route through the whole star (oracle_alcoved_fw) in theta,
x, and the exception's type and message when both checks fail, on chains
whose longest path has n - 1 hops, positive cycles that only some nodes
reach, infinite bounds, and data sized on both sides of the point where
its sentinels leave int64.
"""

from fractions import Fraction

import numpy as np

from hypothesis import given, settings, strategies as st

from tropopt import (
    NEG_INF,
    AlcovedProblem,
    DivergentStar,
    InfeasibleReduction,
    InvalidStrategy,
    kleene_star,
    reduce_by_strategy,
    solve_alcoved,
)
from tropopt.games import EngineError
from tropopt.matrix import _GUARD
from tropopt.pseudolinear import _alcoved as alcoved_kernel, _compiled

from _util import (
    M,
    V,
    linprob,
    oracle_alcoved_fw,
    oracle_kleene_star,
    oracle_reduce_by_strategy,
    oracle_solve_alcoved,
)

# small denominators stay on int64; 5^30 and 7^25 put the scaled data
# past 2^61 and the kernel on Python ints
_DENS = {"small": [1, 1, 2, 3], "huge": [1, 2, 5**30, 7**25]}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvalidStrategy, InfeasibleReduction, EngineError, DivergentStar) as e:
        return type(e), str(e)


def _int_outcome(fn, *args):
    """theta and x as Python ints, or the exception, of an integer-form drop."""
    got = _outcome(fn, *args)
    if isinstance(got[0], type) or got[1] is None:
        return got
    return got[0], [int(v) for v in got[1]]


@st.composite
def _entry(draw, dens, miss, lo=-6, hi=6, dens_p=0.6):
    if draw(st.floats(0, 1)) >= dens_p:
        return miss
    return Fraction(draw(st.integers(lo, hi)), draw(st.sampled_from(dens)))


@st.composite
def _problem(draw):
    dens = _DENS[draw(st.sampled_from(["small", "small", "huge"]))]
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))

    def vec(k, miss, p=0.5):
        return [draw(_entry(dens, miss, dens_p=p)) for _ in range(k)]

    U = [vec(n, None) for _ in range(m)]
    Vm = [vec(n, None) for _ in range(m)]
    return linprob(U, Vm, vec(m, None, 0.3), vec(m, None), vec(n, None, 0.7), vec(n, "+inf", 0.7))


@st.composite
def _sigma(draw, prob):
    """Mostly valid picks per row, sometimes any index or None."""
    m, n = prob.shape
    out = []
    for i in range(m):
        valid = [j for j in range(n) if prob.V.data[i][j].is_finite]
        if prob.d[i].is_finite:
            valid.append(n)
        if not any(e.is_finite for e in prob.U.data[i]) and not prob.b[i].is_finite:
            valid.append(None)
        if valid and draw(st.integers(0, 5)):
            out.append(draw(st.sampled_from(valid)))
        else:
            out.append(draw(st.sampled_from([None, -1, n + 1, *range(n + 1)])))
    return out


@st.composite
def _alcoved(draw):
    dens = _DENS[draw(st.sampled_from(["small", "small", "huge"]))]
    n = draw(st.integers(1, 5))
    # entries up to +2 make some stars diverge
    R = [[draw(_entry(dens, None, -6, 2, 0.5)) for _ in range(n)] for _ in range(n)]

    def vec(miss, p):
        return V([draw(_entry(dens, miss, dens_p=p)) for _ in range(n)])

    return AlcovedProblem(M(R), vec(None, 0.4), vec("+inf", 0.4), vec(None, 0.6), vec("+inf", 0.6))


def _check_alcoved(alc):
    got = _outcome(solve_alcoved, alc)
    assert got == _outcome(oracle_solve_alcoved, alc)
    assert _outcome(kleene_star, alc.R) == _outcome(oracle_kleene_star, alc.R)
    return got


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduction_and_drop_match_oracles(data):
    prob = data.draw(_problem())
    sigma = data.draw(_sigma(prob))
    got = _outcome(reduce_by_strategy, prob, sigma)
    assert got == _outcome(oracle_reduce_by_strategy, prob, sigma)
    if isinstance(got, AlcovedProblem):
        _check_alcoved(got)


@settings(max_examples=300, deadline=None)
@given(_alcoved())
def test_alcoved_and_star_match_oracles(alc):
    _check_alcoved(alc)


def test_drop_edge_cases_match_oracles():
    R = M([[None, -1], [0, None]])
    cases = [
        (M([[None, 2], [-1, None]]), [0, 0], [5, 5], [0, 0], [0, 0]),  # divergent star
        (R, [None, None], ["+inf", 3], [None, None], ["+inf", "+inf"]),  # theta = -inf
        (R, [4, None], ["+inf", 3], [0, None], [0, "+inf"]),  # R* l > u
    ]
    got = [_check_alcoved(AlcovedProblem(Rm, *map(V, vs))) for Rm, *vs in cases]
    assert got == [
        (InfeasibleReduction, "positive self-coupling cycle"),
        (NEG_INF, None),
        (InfeasibleReduction, "bounds incompatible with coupling"),
    ]
    # each reduction error, the first failing row deciding
    prob = linprob(
        [[0, None], [None, 1], [None, None]],
        [[1, None], [None, None], [None, 2]],
        [5, None, None],
        [1, None, 0],
        [0, None],
        [0, "+inf"],
    )
    for sigma in ([0, 2, None], [2, 0, 1], [0, None, 1], [0, 1, 1], [3, 0, 1], [0], [None, 0, 1]):
        got = _outcome(reduce_by_strategy, prob, sigma)
        assert isinstance(got, tuple) and got == _outcome(oracle_reduce_by_strategy, prob, sigma)


def test_huge_lcm_drop_runs_on_python_ints():
    h1, h2 = 5**30, 7**25
    prob = linprob(
        [[0, Fraction(1, h1)], [Fraction(-3, h2), None]],
        [[Fraction(1, h2), 0], [None, Fraction(2, h1)]],
        [None, 0],
        [None, Fraction(7, h1)],
        [0, Fraction(1, h2)],
        [1, "+inf"],
    )
    assert _compiled(prob).drop[0].dtype == object
    solved = []
    for sigma in ([0, 1], [1, 2], [0, 2], [1, 1]):
        alc = _outcome(reduce_by_strategy, prob, sigma)
        assert alc == _outcome(oracle_reduce_by_strategy, prob, sigma)
        if isinstance(alc, AlcovedProblem):
            solved.append(_check_alcoved(alc)[0])
    assert any(getattr(t, "is_finite", False) for t in solved)



# big for the integer form: sized for the data as _filled sizes it,
# around 2^58, the largest big whose data is still int64 (_fit's 2^61;
# sums of two infinities reach -2 big there), and past int64
_BIGS = {
    "sized": None,
    "below": (_GUARD >> 3) - 1,
    "at": _GUARD >> 3,
    "top": _GUARD - 1,
    "python": 2 * _GUARD,
}


@st.composite
def _integer_form(draw):
    """(R, l, u, p, q, big) of the drop step: even entries within
    big / (16 (n + 1)), -big / +big for the infinities."""
    n = draw(st.integers(1, 7))
    big = _BIGS[draw(st.sampled_from(sorted(_BIGS)))] or 16 * (n + 1) * 13
    unit = (big // (16 * (n + 1)) - 1) // 12

    def val(lo, hi):
        return 2 * unit * draw(st.integers(lo, hi))

    def maybe(lo, hi, miss, p=0.6):
        return val(lo, hi) if draw(st.floats(0, 1)) < p else miss

    R = [[-big] * n for _ in range(n)]
    shape = draw(st.sampled_from(["random", "chain", "cycle"]))
    if shape == "random":  # entries up to +2 close some positive cycles
        R = [[maybe(-6, 2, -big, 0.5) for _ in range(n)] for _ in range(n)]
    else:
        # a chain 0 -> 1 -> ... -> c, whose longest path has c hops
        c = n - 1 if shape == "chain" else draw(st.integers(0, n - 1))
        for j in range(c):
            R[j][j + 1] = val(-1, 3)
        if shape == "cycle":  # a positive cycle at c, reached only from 0..c
            a = draw(st.integers(1, 4))
            if c + 1 < n:
                R[c][c + 1], R[c + 1][c] = 2 * unit * a, val(1 - a, 2)
            else:
                R[c][c] = 2 * unit * a
    l, p = ([maybe(-6, 6, -big) for _ in range(n)] for _ in range(2))
    u, q = [maybe(0, 6, big) for _ in range(n)], [maybe(-6, 6, big) for _ in range(n)]
    dtype = np.int64 if big < _GUARD else object
    return (*(np.array(v, dtype=dtype) for v in (R, l, u, p, q)), big)


@settings(max_examples=300, deadline=None)
@given(_integer_form())
def test_integer_form_drop_matches_floyd_warshall(form):
    assert _int_outcome(alcoved_kernel, *form) == _int_outcome(oracle_alcoved_fw, *form)


def test_integer_form_edges_match_floyd_warshall():
    """A chain whose zero row needs all n rounds, and a positive cycle that
    node 0 alone reaches, with bounds that fail too: the cycle is
    reported.  Each on both sides of the sentinels' int64 bound."""
    n = 6
    for big in (_BIGS["below"], _BIGS["at"], _BIGS["top"], _BIGS["python"]):
        unit = 2 * ((big // (16 * (n + 1)) - 1) // 12)
        dtype = np.int64 if big < _GUARD else object
        R = np.full((n, n), -big, dtype=dtype)
        R[np.arange(n - 1), np.arange(1, n)] = 3 * unit
        ninf, inf = np.full(n, -big, dtype=dtype), np.full(n, big, dtype=dtype)
        pf, zero = np.full(n, -unit, dtype=dtype), np.zeros(n, dtype=dtype)
        # theta is half of -q_0 + 5 hops of 3 unit + p_5
        chain = _int_outcome(alcoved_kernel, R, ninf, inf, pf, zero, big)
        assert chain == _int_outcome(oracle_alcoved_fw, R, ninf, inf, pf, zero, big)
        assert chain[0] == 7 * unit
        C = np.full((n, n), -big, dtype=dtype)
        C[0, 1], C[1, 1] = -unit, unit
        lf, uf = np.full(n, unit, dtype=dtype), np.full(n, 0, dtype=dtype)
        got = _int_outcome(alcoved_kernel, C, lf, uf, pf, inf, big)
        assert got == _int_outcome(oracle_alcoved_fw, C, lf, uf, pf, inf, big)
        assert got == (InfeasibleReduction, "positive self-coupling cycle")
