"""The certificate builders and checkers on scaled integers, against the
Fraction route they replaced (kept in _util as oracles).

Every certificate (tau, sigma), verdict, exception type and message must
match the oracle: with the point given and computed, for mutated finite
strategies, at the optimum (zero-weight cycles through lam rows are
allowed, lam-free ones are not) and half a step either side, with rows
that no column reaches, with fully vacuous rows, and on Python ints when
the denominators have a 300-digit lcm.  The quadratic lower bound's
integer cycle mean is checked against the Fraction Karp oracle.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropopt import (
    NEG_INF,
    POS_INF,
    InvalidStrategy,
    IsolatedNode,
    PseudolinearProblem,
    TropMatrix,
    TwoSidedSystem,
    bisection_solve,
    certify_optimal,
    certify_unbounded,
    fin,
    gen_random,
    newton_solve,
    newton_solve_quad,
    objective,
    objective_quad,
    optimality_certificate,
    parametric_game,
    parametric_game_quad,
    tmax,
    unboundedness_certificate,
)
from tropopt import games
from tropopt.cli import main as cli_main
from tropopt.io import BadRational, dump_problem
from tropopt.pseudolinear import _compiled, _literal_pair, _sigma_passes, _tau_passes

from _util import (
    M,
    data_denominator_lcm,
    linprob,
    oracle_certify_optimal,
    oracle_certify_unbounded,
    oracle_max_cycle_mean,
    oracle_optimality_certificate,
    oracle_pair,
    oracle_sigma_passes,
    oracle_tau_passes,
    oracle_unboundedness_certificate,
    quadprob,
)

F = Fraction


def _run(fn, *args, **kw):
    """A result, or the type and message of the exception raised."""
    try:
        return ("ok", fn(*args, **kw))
    except Exception as e:  # compared, not hidden
        return ("raised", type(e).__name__, str(e))


def _same(fn, oracle, *args, **kw):
    got = _run(fn, *args, **kw)
    want = _run(oracle, *args, **kw)
    assert got == want, (fn.__name__, args, kw)
    return got


def _same_unbounded(prob):
    """unboundedness_certificate against the oracle's game.  A free
    objective that is not row infeasible takes its sigma from the start
    point, with no game, so there the verdicts must agree and the sigma
    must pass the oracle's checker."""
    rec = _compiled(prob)
    if rec.row_infeasible or not rec.free_objective:
        return _same(unboundedness_certificate, oracle_unboundedness_certificate, prob)
    got, want = _run(unboundedness_certificate, prob), _run(oracle_unboundedness_certificate, prob)
    assert got[0] == want[0] == "ok" and (got[1] is None) == (want[1] is None), prob
    assert got[1] is None or oracle_certify_unbounded(prob, got[1]), prob
    return got


def _finite_choices(A):
    return [[r for r in range(A.rows) if A.data[r][j].is_finite] for j in range(A.cols)]


def _check_levels(prob, levels, x_opt, rng, mutations=3):
    """Builders and checkers against the oracles at every level, for the
    builder's tau, `mutations` random finite mutations of it, with the
    point computed, with x_opt at the levels it attains, and for the
    unboundedness pair with mutated sigmas."""
    for lam, x in levels:
        res = _same(optimality_certificate, oracle_optimality_certificate, prob, lam)
        if res[0] != "ok" or res[1] is None:
            continue
        tau = res[1]
        choices = _finite_choices(oracle_pair(prob, lam)[0])
        taus = [tau]
        for _ in range(mutations):
            t = list(tau)
            j = rng.randrange(len(t))
            t[j] = rng.choice(choices[j])
            taus.append(t)
        for t in taus:
            _same(certify_optimal, oracle_certify_optimal, prob, lam, t)
            if x is not None:
                _same(certify_optimal, oracle_certify_optimal, prob, lam, t, x=x)
    res = _same_unbounded(prob)
    if res[0] == "ok" and res[1] is not None:
        sig = res[1]
        A, B, _ = oracle_pair(prob, fin(0))
        sigmas = [sig]
        for _ in range(mutations):
            s = list(sig)
            r = rng.randrange(len(s))
            ch = [c for c in range(B.cols) if B.data[r][c].is_finite]
            s[r] = rng.choice(ch) if ch else None
            sigmas.append(s)
        for s in sigmas:
            _same(certify_unbounded, oracle_certify_unbounded, prob, s)


def _levels(prob, out):
    if out.status != "optimal":
        return [(F(0), None), (F(-3, 2), None)]
    lam = out.lam.value
    return [(lam, out.x), (lam + F(1, 2), None), (lam - F(1, 2), None)]


# ---------------------------------------------------------------------------
# random small problems

_rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3]))
_entries = st.one_of(st.none(), _rationals, _rationals)


@st.composite
def _problem(draw):
    """Linear or quadratic data with m, n <= 3; rows may be blanked to be
    fully vacuous, and p entries missing leave epigraph rows that no
    column reaches."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def row(k):
        return [draw(_entries) for _ in range(k)]

    U, Vm = [row(n) for _ in range(m)], [row(n) for _ in range(m)]
    b, d = row(m), row(m)
    for i in range(m):
        if draw(st.integers(0, 4)) == 0:  # a fully vacuous row
            U[i], Vm[i], b[i], d[i] = [None] * n, [None] * n, None, None
    p = row(n)
    q = [draw(st.one_of(_rationals, st.just("+inf"))) for _ in range(n)]
    if draw(st.booleans()):
        return quadprob(U, Vm, b, d, p, q, [row(n) for _ in range(n)])
    return linprob(U, Vm, b, d, p, q)


@settings(max_examples=150, deadline=None)
@given(_problem(), st.integers(0, 10**6))
def test_certificates_match_fraction_oracles(prob, seed):
    solve = newton_solve if isinstance(prob, PseudolinearProblem) else newton_solve_quad
    out = _run(solve, prob, mode="real")
    levels = _levels(prob, out[1]) if out[0] == "ok" else [(F(0), None)]
    _check_levels(prob, levels, None, random.Random(seed))


@settings(max_examples=100, deadline=None)
@given(_problem(), st.lists(st.integers(-6, 6), min_size=3, max_size=3), st.integers(0, 2))
def test_certify_optimal_with_any_point_matches_oracle(prob, xs, k):
    """A given point is checked exactly, feasible or not, on the 1/6 grid."""
    n = prob.shape[1]
    x = [F(v, 6) for v in xs[:n]]
    lam = F(k - 1, 2)
    A, _, _ = oracle_pair(prob, fin(lam))
    for tau in itertools.islice(itertools.product(*_finite_choices(A)), 12):
        _same(certify_optimal, oracle_certify_optimal, prob, lam, list(tau), x=x)


def test_exhaustive_strategies_at_and_above_the_optimum():
    """Every finite tau (up to 100 per level) at the optimum and half a
    step above, with the point given and computed: the zero-weight
    boundaries of both halves of the check are met at the optimum of
    integer data."""
    checked = 0
    for s in range(40):
        prob = gen_random(2 + s % 2, 2, 3, 75, 960000 + s, quadratic=bool(s % 3 == 0))
        solve = newton_solve if isinstance(prob, PseudolinearProblem) else newton_solve_quad
        out = solve(prob)
        if out.status != "optimal":
            continue
        for lam in (out.lam.value, out.lam.value + F(1, 2)):
            choices = _finite_choices(oracle_pair(prob, fin(lam))[0])
            if math.prod(len(c) for c in choices) > 100:
                continue
            for tau in itertools.product(*choices):
                _same(certify_optimal, oracle_certify_optimal, prob, lam, list(tau))
                _same(certify_optimal, oracle_certify_optimal, prob, lam, list(tau), x=out.x)
            checked += 1
    assert checked >= 30


def test_zero_weight_cycles_through_and_around_lam_rows():
    """f(x) = |x|, optimum 0.  At lam = 0 the only cycle, x -> q row ->
    t -> p row -> x, weighs 2 lam = 0 and passes through lam rows: the
    check accepts it.  The row x <= x adds a lam-free cycle of weight 0,
    which the check must reject when tau takes it."""
    prob = linprob([[None]], [[None]], [None], [None], [0], [0])  # row 0 vacuous
    assert newton_solve(prob).lam == fin(0)
    assert certify_optimal(prob, 0, [2, 1]) and certify_optimal(prob, 0, [2, 1], x=[0])
    assert not certify_optimal(prob, F(1, 2), [2, 1])
    assert optimality_certificate(prob, 0) == [2, 1]
    loop = linprob([[0]], [[0]], [None], [None], [0], [0])
    assert certify_optimal(loop, 0, [2, 1])
    assert not certify_optimal(loop, 0, [0, 1])
    assert not certify_optimal(loop, 0, [0, 1], x=[0])
    for p in (prob, loop):
        for tau in ([2, 1], [0, 1]):
            for lam in (F(0), F(1, 2), F(-1, 2)):
                _same(certify_optimal, oracle_certify_optimal, p, lam, tau)
                _same(certify_optimal, oracle_certify_optimal, p, lam, tau, x=[0])


def test_strategy_and_level_errors_match_oracle():
    """Wrong lengths, out-of-range and -inf picks, bad points and infinite
    levels raise the same errors as the oracle (row 1 is vacuous)."""
    prob = linprob(
        [[0, None], [None, None]], [[None, 0], [None, None]], [None, None], [None, None], [0, None], [1, "+inf"]
    )
    A, _, _ = oracle_pair(prob, fin(1))
    for tau in ([0, 0], [0, 0, 0, 0], [1, 2, 3], [-1, 2, 3], [0, 2, A.rows]):
        _same(certify_optimal, oracle_certify_optimal, prob, 1, tau)
    for x in ([0], [0, None], [F(1, 3), F(-2, 7)]):
        _same(certify_optimal, oracle_certify_optimal, prob, 1, [0, 4, 2], x=x)
    for lam in (NEG_INF, POS_INF):
        _same(certify_optimal, oracle_certify_optimal, prob, lam, [0, 4, 2])
        _same(optimality_certificate, oracle_optimality_certificate, prob, lam)


def test_vacuous_rows_are_left_out_of_the_certificates():
    """gen_random(5, 6, 8, 30, 940020) has a fully vacuous row 1.  The
    solvers drop it, and now the certificates do too: sigma is None there
    and only there, and the CLI certify call succeeds."""
    prob = gen_random(5, 6, 8, 30, 940020)
    assert newton_solve(prob).status == "unbounded" == bisection_solve(prob).status
    sig = unboundedness_certificate(prob)
    assert sig is not None and sig[1] is None and sum(s is None for s in sig) == 1
    assert certify_unbounded(prob, sig)
    assert sig == oracle_unboundedness_certificate(prob)
    assert optimality_certificate(prob, 0) is None
    bad = list(sig)
    bad[1] = 0
    with pytest.raises(InvalidStrategy, match=r"sigma\[1\] selects no finite entry"):
        certify_unbounded(prob, bad)
    bad = list(sig)
    bad[0] = None
    with pytest.raises(InvalidStrategy, match=r"sigma\[0\] selects no finite entry"):
        certify_unbounded(prob, bad)
    _check_levels(prob, [(F(0), None), (F(2), None)], None, random.Random(1))


def test_finite_left_side_against_empty_right_side_still_raises():
    prob = linprob([[None], [0]], [[None], [None]], [None, None], [None, None], [0], [0])
    for fn in (
        lambda: optimality_certificate(prob, 0),
        lambda: certify_optimal(prob, 0, [1, 2]),
        lambda: unboundedness_certificate(prob),
    ):
        with pytest.raises(IsolatedNode, match="row 1 of the right matrix has no finite entry"):
            fn()
    assert not certify_optimal(prob, 0, [1, 2], x=[0])  # the point violates row 1


def test_cli_certify_vacuous_row_and_debug(tmp_path, capsys):
    path = tmp_path / "vac.json"
    path.write_text(dump_problem(gen_random(5, 6, 8, 30, 940020)) + "\n")
    assert cli_main(["certify", str(path), "--lambda", "0"]) == 0
    assert '"unbounded":true' in capsys.readouterr().out
    # a finite left side against an empty right side: solve says
    # infeasible, and certify gives both verdicts false, --debug or not
    dead = tmp_path / "dead.json"
    quad = quadprob([[0, None]], [[None, None]], [None], [None], [0, 1], [0, 2], [[None, 1], [None, None]])
    for prob in (linprob([[0]], [[None]], [None], [None], [0], [0]), quad):
        dead.write_text(dump_problem(prob) + "\n")
        assert cli_main(["solve", str(dead)]) == 2
        capsys.readouterr()
        for debug in ([], ["--debug"]):
            assert cli_main([*debug, "certify", str(dead), "--lambda", "0"]) == 0
            assert capsys.readouterr().out == '{"lambda":0,"optimal":false,"unbounded":false}\n'
    assert cli_main(["certify", str(dead), "--lambda", "1.5"]) == 1
    assert "error: bad level '1.5'" in capsys.readouterr().err
    with pytest.raises(BadRational, match="bad level"):
        cli_main(["--debug", "certify", str(dead), "--lambda", "1.5"])


def _data(res):
    """The entries of an ok (A, B, lam_rows) or system result, so that
    results compare by value."""
    if res[0] != "ok":
        return res
    if isinstance(res[1], TwoSidedSystem):
        return res[1].A.data, res[1].B.data
    A, B, rows = res[1]
    return A.data, B.data, rows


def _oracle_system(prob, lam):
    """parametric_game* built from the entrywise pair: its rows up to the
    q row, validated as a system."""
    A, B, rows = oracle_pair(prob, lam)
    k = max(rows) + 1
    return TwoSidedSystem(TropMatrix(A.data[:k], "max"), TropMatrix(B.data[:k], "max"))


def test_literal_pairs_match_the_entrywise_build():
    """_literal_pair and parametric_game* wrap the array pair back
    into max-plus matrices: entry for entry the literal pair, with and
    without its stabilizing rows, and the same errors at infinite levels
    and on isolated columns."""
    rng = random.Random(3)
    for s in range(24):
        prob = gen_random(3, 4, 6, 40 + 2 * s, 970000 + s, quadratic=bool(s % 2))
        game = parametric_game if isinstance(prob, PseudolinearProblem) else parametric_game_quad
        for lam in (fin(F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))), NEG_INF, POS_INF):
            assert _data(_run(_literal_pair, prob, lam)) == _data(_run(oracle_pair, prob, lam))
            assert _data(_run(game, prob, lam)) == _data(_run(_oracle_system, prob, lam))


# ---------------------------------------------------------------------------
# Python ints: a 300-digit denominator lcm


_A, _C, _E = F(1, 2**333), F(1, 3**210), F(1, 5**143)
_OPT = (_A + _C - _E) / 2


def _huge_feasible():
    """x1 <= x0 <= x1 + e with objective max(a - x0, x1 + c): optimum
    (a + c - e)/2 at x = (a - opt, a - opt - e), on a 300-digit grid."""
    return linprob(
        [[0, None], [None, 0]], [[None, _E], [0, None]], [None, None], [None, None], [_A, None], ["+inf", -_C]
    )


def test_huge_lcm_checkers_match_oracle_on_python_ints():
    feasible, unbounded = _huge_feasible(), linprob([[0]], [[_E]], [None], [F(-1, 7)], [None], [_C])
    assert len(str(data_denominator_lcm(feasible))) >= 300
    x_opt = [_A - _OPT, _A - _OPT - _E]
    verdicts = set()
    for lam in (_OPT, _OPT + F(1, 2**400), _OPT - F(1, 2**400), F(0)):
        for tau in itertools.product(*_finite_choices(oracle_pair(feasible, fin(lam))[0])):
            for x in (None, x_opt, [F(1, 3), F(1, 3)]):
                verdicts.add(_same(certify_optimal, oracle_certify_optimal, feasible, lam, list(tau), x=x))
    # where the descent does not settle, the game cannot take these
    # weights either: a typed EngineError on both routes
    assert {("ok", True), ("ok", False)} <= verdicts
    assert verdicts - {("ok", True), ("ok", False)} == {
        ("raised", "EngineError", "weights too large for the integer engine")
    }
    verdicts = set()
    for prob in (feasible, unbounded):
        B = oracle_pair(prob, fin(0))[1]
        rows = [[c for c in range(B.cols) if B.data[r][c].is_finite] or [None] for r in range(B.rows)]
        for sig in itertools.product(*rows):
            verdicts.add(_same(certify_unbounded, oracle_certify_unbounded, prob, list(sig)))
    assert verdicts == {("ok", True), ("ok", False)}


def test_huge_lcm_accepts_the_exact_optimum_only():
    """The checker accepts the 300-digit optimum with some tau, and
    rejects every tau just above it."""
    prob = _huge_feasible()
    x = [_A - _OPT, _A - _OPT - _E]
    verdicts = []
    for t in itertools.product(*_finite_choices(oracle_pair(prob, fin(_OPT))[0])):
        verdicts.append(certify_optimal(prob, _OPT, list(t), x=x))
        assert not certify_optimal(prob, _OPT + F(1, 2**400), list(t), x=x)
    assert any(verdicts)


# ---------------------------------------------------------------------------
# the quadratic lower bound


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_quad_lower_bound_matches_fraction_cycle_mean(n, data):
    huge = data.draw(st.booleans())
    dens = [1, 2, 3] if not huge else [2**333, 3**210, 5**143, 7]
    ent = st.one_of(st.none(), st.builds(Fraction, st.integers(-9, 9), st.sampled_from(dens)))
    rows = [[data.draw(ent) for _ in range(n)] for _ in range(n)]
    p = [data.draw(st.one_of(st.none(), st.integers(-5, 5))) for _ in range(n)]
    prob = quadprob([[None] * n], [[None] * n], [None], [None], p, ["+inf"] * n, rows)
    C = M(rows)
    anchor = tmax(*[prob.p[j] + prob.q[j].conj() for j in range(n)]).half()
    assert _compiled(prob).lower == tmax(anchor, oracle_max_cycle_mean(C))


# ---------------------------------------------------------------------------
# the contracted checks and the builders' shortcuts

_S = 1 << 62  # a weight unit past the int64 guard of matrix._fit


class _Solved(Exception):
    """Raised by a patched game solve."""


def _tmatrix(w, f):
    return TropMatrix([[F(int(v)) if ok else NEG_INF for v, ok in zip(*r)] for r in zip(w, f)], "max")


@st.composite
def _strategy_pair(draw):
    """A pair's integer arrays, a lam row range and a valid tau: weights in
    -3..3, so that cycles of weight exactly 0 are common, times 2^62 when
    huge, so that they leave int64.  Some columns get a two-node cycle
    j -> tau_j -> j, some of weight 0, and some tau rows lose every
    finite right entry (a dead-end column)."""
    M, n1 = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def grid(elems):
        return np.array(draw(st.lists(elems, min_size=M * n1, max_size=M * n1))).reshape(M, n1)

    Af, Bf = grid(st.booleans()), grid(st.booleans())
    Aw, Bw = grid(st.integers(-3, 3)), grid(st.integers(-3, 3))
    for j in range(n1):
        if not Af[:, j].any():
            Af[draw(st.integers(0, M - 1)), j] = True
    tau = [draw(st.sampled_from(np.flatnonzero(Af[:, j]).tolist())) for j in range(n1)]
    for j in range(n1):
        kind = draw(st.integers(0, 5))
        if kind < 2:  # j -> tau_j -> j, of weight 0 when kind is 0
            Bf[tau[j], j] = True
            if kind == 0:
                Bw[tau[j], j] = Aw[tau[j], j]
        elif kind == 2:
            Bf[tau[j]] = False
    if draw(st.booleans()):
        Aw, Bw = Aw.astype(object) * _S, Bw.astype(object) * _S
    lo = draw(st.integers(0, M))
    return Aw, Af, Bw, Bf, range(lo, draw(st.integers(lo, M))), tau


@settings(max_examples=400, deadline=None)
@given(_strategy_pair(), st.data())
def test_contracted_checks_match_the_bipartite_karp(pair, data):
    """_tau_passes and _sigma_passes, on the strategy graphs contracted
    onto the columns, against the Fraction Karp on the bipartite graphs.
    For sigma, a row with a finite left entry and none on the right gets
    one, and a row with neither is vacuous (sigma None)."""
    Aw, Af, Bw, Bf, lam_rows, tau = pair
    A, B = _tmatrix(Aw, Af), _tmatrix(Bw, Bf)
    got = _tau_passes(Aw, Bw, Bf, lam_rows, np.array(tau, dtype=np.int64))
    assert got == oracle_tau_passes(A, B, lam_rows, tau)
    Bf = Bf.copy()
    sigma = []
    for r in range(len(Af)):
        if Af[r].any() and not Bf[r].any():
            Bf[r, data.draw(st.integers(0, Af.shape[1] - 1))] = True
        cols = np.flatnonzero(Bf[r]).tolist()
        sigma.append(data.draw(st.sampled_from(cols)) if cols else None)
    s = np.array([-1 if c is None else c for c in sigma], dtype=np.int64)
    got = _sigma_passes(Aw, Af, Bw, lam_rows, s)
    assert got == oracle_sigma_passes(A, _tmatrix(Bw, Bf), lam_rows, sigma)


def _max_plus(row, x, c):
    """max(row (x) x, c) on Python numbers, None for -inf."""
    vals = [a + v for a, v in zip(row, x) if a is not None] + ([c] if c is not None else [])
    return max(vals) if vals else None


@st.composite
def _problem_and_point(draw):
    """Integer data times 1 or 2^62, and an integer point x that meets
    every structural row: a row it violates has d raised to its left
    side.  Each lam at or above f(x) admits x, so the checkers reach
    their graph verdicts."""
    k = draw(st.sampled_from([1, _S]))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ent = st.one_of(st.none(), st.integers(-4, 4).map(lambda v: v * k))

    def row(size):
        return [draw(ent) for _ in range(size)]

    U, Vm, b, d = [row(n) for _ in range(m)], [row(n) for _ in range(m)], row(m), row(m)
    x = [draw(st.integers(-4, 4)) * k for _ in range(n)]
    for i in range(m):
        lhs, rhs = _max_plus(U[i], x, b[i]), _max_plus(Vm[i], x, d[i])
        if lhs is not None and (rhs is None or lhs > rhs):
            d[i] = lhs
    p = row(n)
    q = [draw(st.one_of(st.integers(-4, 4).map(lambda v: v * k), st.just("+inf"))) for _ in range(n)]
    if draw(st.booleans()):
        return quadprob(U, Vm, b, d, p, q, [row(n) for _ in range(n)]), x
    return linprob(U, Vm, b, d, p, q), x


@settings(max_examples=120, deadline=None)
@given(_problem_and_point(), st.sampled_from([F(0), F(1, 2), F(3)]))
def test_checkers_with_a_feasible_point_match_the_oracles(case, step):
    """certify_optimal with a point feasible at lam, for up to 12 taus,
    and certify_unbounded for up to 12 sigmas, against the oracles; on
    Python ints when the data is scaled by 2^62."""
    prob, x = case
    f = (objective if isinstance(prob, PseudolinearProblem) else objective_quad)(prob, x)
    lam = (f.value if f.is_finite else F(0)) + step
    A, B, _ = oracle_pair(prob, fin(lam))
    for tau in itertools.islice(itertools.product(*_finite_choices(A)), 12):
        assert _same(certify_optimal, oracle_certify_optimal, prob, lam, list(tau), x=x)[0] == "ok"
    vac = [not any(e.is_finite for e in A.data[r] + B.data[r]) for r in range(A.rows)]
    rows = [[None] if vac[r] else [c for c in range(B.cols) if B.data[r][c].is_finite] for r in range(B.rows)]
    for sig in itertools.islice(itertools.product(*rows), 12):
        _same(certify_unbounded, oracle_certify_unbounded, prob, list(sig))


def _refuse_games(monkeypatch):
    """Patch the library's game solve to raise _Solved; the oracles keep
    their own binding."""

    def refuse(*args, **kw):
        raise _Solved

    monkeypatch.setattr(games, "solve_arena", refuse)


def test_a_finite_anchor_needs_no_game(monkeypatch):
    """With a finite anchor gap and no infeasible row the builder answers
    None, as the oracle's game does, with the game solve patched to
    raise; without an anchor it reaches the patch."""
    _refuse_games(monkeypatch)
    checked = 0
    for s in range(30):
        prob = gen_random(3, 3, 6, 60, 990000 + s, quadratic=bool(s % 2))
        if prob._rec.anchor.is_finite and not prob._rec.row_infeasible:
            assert unboundedness_certificate(prob) is None
            assert oracle_unboundedness_certificate(prob) is None
            checked += 1
    assert checked >= 20
    with pytest.raises(_Solved):
        unboundedness_certificate(linprob([[0]], [[0]], [None], [None], [0], ["+inf"]))


def test_a_free_objective_needs_no_game(monkeypatch):
    """A free objective's sigma comes from the start point, with no game.
    The first problem's game at the floor level passed the int64 guard
    (EngineError) while both solvers answer unbounded; now it gets a
    sigma that both checkers accept.  Infeasible constraints get None."""
    infeasible = linprob([[0]], [[-1]], [None], [None], [None], ["+inf"])
    assert unboundedness_certificate(infeasible) is None
    assert oracle_unboundedness_certificate(infeasible) is None
    lin = linprob([[None]], [[None]], [-(2**61)], [0], [None], ["+inf"])
    quad = quadprob([[0, None]], [[None, 1]], [None], [0], [None, None], ["+inf", "+inf"],
                    [[None, None], [None, None]])
    for prob in (lin, quad):
        solve = newton_solve if prob is lin else newton_solve_quad
        assert solve(prob).status == "unbounded"
    assert bisection_solve(lin).status == "unbounded"
    _refuse_games(monkeypatch)
    for prob in (lin, quad):
        sig = unboundedness_certificate(prob)
        assert sig is not None and certify_unbounded(prob, sig) and oracle_certify_unbounded(prob, sig)


def test_a_row_infeasible_problem_still_raises_isolated_node(monkeypatch):
    """The finite anchor 0 does not hide the row with a finite left side
    and an empty right side: IsolatedNode, as before, with no game."""
    _refuse_games(monkeypatch)
    lin = linprob([[None], [0]], [[None], [None]], [None, None], [None, None], [0], [0])
    quad = quadprob([[0, None]], [[None, None]], [None], [None], [0, 1], [0, 2], [[None, 1], [None, None]])
    for prob in (lin, quad):
        assert prob._rec.anchor.is_finite
        with pytest.raises(IsolatedNode, match="row . of the right matrix has no finite entry"):
            unboundedness_certificate(prob)


@settings(max_examples=100, deadline=None)
@given(_problem(), st.booleans())
def test_without_an_anchor_the_builder_matches_the_oracle(prob, drop_p):
    """No j with both p_j and q_j finite: the game decides, as before,
    except on a free objective (see _same_unbounded)."""
    n = prob.shape[1]
    if drop_p:
        prob.p = [NEG_INF] * n
    else:
        prob.q = [POS_INF] * n
    assert prob._rec.anchor.is_neg_inf
    _same_unbounded(prob)
