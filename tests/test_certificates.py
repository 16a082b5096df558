"""The certificate builders and checkers on scaled integers, against the
Fraction route they replaced (kept in _util as oracles).

Every certificate (tau, sigma), verdict, exception type and message must
match the oracle: with the point given and computed, for mutated finite
strategies, at the optimum (zero-weight cycles through lam rows are
allowed, lam-free ones are not) and half a step either side, with rows
that no column reaches, with fully vacuous rows, and on Python ints when
the denominators have a 300-digit lcm.  The quadratic lower bound's
integer cycle mean is checked against matrix.max_cycle_mean.
"""

import itertools
import math
import random
from fractions import Fraction

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
    max_cycle_mean,
    newton_solve,
    newton_solve_quad,
    optimality_certificate,
    parametric_game,
    parametric_game_quad,
    tmax,
    unboundedness_certificate,
)
from tropopt.cli import main as cli_main
from tropopt.io import BadRational, dump_problem
from tropopt.pseudolinear import _augmented_parametric
from tropopt.pseudoquadratic import _lower_bound_quad

from _util import (
    M,
    linprob,
    oracle_certify_optimal,
    oracle_certify_unbounded,
    oracle_optimality_certificate,
    oracle_pair,
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
    res = _same(unboundedness_certificate, oracle_unboundedness_certificate, prob)
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
    """_augmented_parametric and parametric_game* wrap the array pair back
    into max-plus matrices: entry for entry the literal pair, with and
    without its stabilizing rows, and the same errors at infinite levels
    and on isolated columns."""
    rng = random.Random(3)
    for s in range(24):
        prob = gen_random(3, 4, 6, 40 + 2 * s, 970000 + s, quadratic=bool(s % 2))
        game = parametric_game if isinstance(prob, PseudolinearProblem) else parametric_game_quad
        for lam in (fin(F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))), NEG_INF, POS_INF):
            assert _data(_run(_augmented_parametric, prob, lam)) == _data(_run(oracle_pair, prob, lam))
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
    assert len(str(feasible.data_denominator_lcm())) >= 300
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
    assert _lower_bound_quad(prob) == tmax(anchor, max_cycle_mean(C))
