"""The compiled problem record: each problem's integer form is derived
once and read by the solvers, bounds, witness and certificates.

The record's prepared structure and literal pair must equal the entry-by-
entry builds kept in _util as oracles, on sparse problems with vacuous
rows, -inf anchors, all +inf q, free objectives and row-infeasible data,
a third of them on denominators past the int64 range, where building
the structure is the engine's typed refusal.  A solve or certify request
compiles its data exactly once and builds at most one structure, none
for an infeasible problem.  On the same problems, the start point that a
game decides (the descent forced inconclusive) agrees with the
feasibility oracle, and so, on small affine systems, does the start
point that the descent's binding-row certificate decides.  The integer
objectives equal the extended-scalar ones, and a non-positive tol is
rejected before any work.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tropopt import (
    EngineError,
    IsolatedNode,
    NEG_INF,
    POS_INF,
    PseudolinearProblem,
    PseudoquadraticProblem,
    TropMatrix,
    TypingError,
    ZERO,
    bisection_solve,
    bisection_solve_quad,
    certify_optimal,
    certify_unbounded,
    feasible_finite,
    fin,
    gen_random,
    initial_bounds,
    mat_vec_mul,
    newton_solve,
    newton_solve_quad,
    objective,
    objective_quad,
    optimality_certificate,
    tmax,
    unboundedness_certificate,
)
from tropopt import games, pseudolinear
from tropopt.io import BadRational, IllegalInfinity, dump_problem, format_outcome, parse_problem
from tropopt.pseudolinear import _affine_witness, _compiled, _Compiled, _param_pair, _ParamStruct

from _util import (
    _oracle_feasible,
    data_denominator_lcm,
    linprob,
    oracle_objective,
    oracle_param_pair,
    oracle_struct,
    quadprob,
    weight_bound,
)

_SMALL = [1, 1, 2, 3]
_HUGE = [5**30, 7**25]
_DUMP_TOOL = Path(__file__).resolve().parent.parent / "tools" / "dump_answers.py"


@st.composite
def _entry(draw, dens, miss, p):
    if draw(st.floats(0, 1)) >= p:
        return miss
    return Fraction(draw(st.integers(-8, 8)), draw(st.sampled_from(dens)))


@st.composite
def _problem(draw, quad):
    """A sparse problem; rows may be vacuous or row-infeasible, anchors
    missing, q all +inf and the objective free."""
    dens = draw(st.sampled_from([_SMALL, _SMALL, _HUGE]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def vec(k, miss, p):
        return [draw(_entry(dens, miss, p)) for _ in range(k)]

    def mat(r, p):
        return [vec(n, None, p) for _ in range(r)]

    p_fill, q_fill = draw(st.sampled_from([(0.5, 0.5), (0.0, 0.5), (0.5, 0.0), (0.0, 0.0)]))
    data = (mat(m, 0.4), mat(m, 0.4), vec(m, None, 0.3), vec(m, None, 0.4))
    objective = (vec(n, None, p_fill), vec(n, "+inf", q_fill))
    if quad:
        return quadprob(*data, *objective, mat(n, draw(st.sampled_from([0.0, 0.3]))))
    return linprob(*data, *objective)


def _int64(values):
    return all(-(2**63) <= v < 2**63 for v in values)


def _check_struct(struct, want):
    """The structure's arc arrays against the oracle's, or the oracle's
    weights past int64 when building them raised the engine's typed
    refusal."""
    if isinstance(struct, EngineError):
        assert str(struct) == "weights too large for the integer engine"
        assert not _int64(want["a_w0"] + want["b_w0"])
        return
    assert struct.L0 == want["L0"]
    assert struct.rows.tolist() == want["rows"]
    arrays = {**struct._lay._asdict(), "a_w0": struct._a_w0, "b_w0": struct._b_w0}
    arrays["b_lam"] = struct._b_lam
    for name in ("a_off", "a_src", "a_tgt", "a_w0", "b_off", "b_tgt", "b_w0", "b_lam"):
        got = arrays[name]
        assert got.tolist() == want[name], name
        assert got.dtype != object


def _build(fn):
    try:
        return fn()
    except EngineError as e:
        return e


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(_problem))
def test_record_matches_entrywise_build(prob):
    """The record's flags and its one prepared structure against the
    oracle, which gives the structure when the objective is ignored (as
    spectral_value does) and otherwise says why a solver builds none."""
    quad = isinstance(prob, PseudoquadraticProblem)
    rec = _compiled(prob)
    for ignore in (False, True):
        want = oracle_struct(prob, ignore_objective=ignore)
        free = rec.free_objective and not ignore
        kind = "row_infeasible" if rec.row_infeasible else "free_objective" if free else None
        if isinstance(want, str):
            assert kind == want
        else:
            assert kind is None
            _check_struct(_build(lambda: rec.struct), want)
    got, want = _param_pair(prob), oracle_param_pair(prob)
    for g, w in zip(got[:4], want[:4]):
        assert g.shape == w.shape and g.tolist() == w.tolist()
    assert got[4:] == want[4:]
    assert rec.L == data_denominator_lcm(prob)
    assert Fraction(rec.WL, rec.L) == weight_bound(prob)
    assert not quad or rec.quad


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(_problem), st.data())
def test_integer_objectives_match_extended_scalars(prob, data):
    n = prob.shape[1]
    draw = data.draw
    dens = draw(st.sampled_from([[1], _SMALL, _HUGE]))
    x = [Fraction(draw(st.integers(-20, 20)), draw(st.sampled_from(dens))) for _ in range(n)]
    fn = objective_quad if isinstance(prob, PseudoquadraticProblem) else objective
    assert fn(prob, x) == oracle_objective(prob, x)
    with pytest.raises(TypingError, match="wrong dimension"):
        fn(prob, x + [0])
    with pytest.raises(TypingError, match="finite point"):
        fn(prob, x[:-1] + ["+inf"])


def test_record_is_private_and_built_once():
    prob = gen_random(6, 6, 20, 100, 3)
    twin = parse_problem(dump_problem(prob))
    rec = _compiled(prob)
    assert _compiled(prob) is rec
    assert prob == twin and repr(prob) == repr(twin)
    assert dump_problem(prob) == dump_problem(twin)
    # two solves of one problem object give what two fresh objects give
    for solve in (bisection_solve, newton_solve):
        first, again = solve(prob), solve(prob)
        fresh = solve(parse_problem(dump_problem(prob)))
        assert (first.status, first.lam, first.x, first.iterations, first.trace) == (
            again.status, again.lam, again.x, again.iterations, again.trace
        ) == (fresh.status, fresh.lam, fresh.x, fresh.iterations, fresh.trace)
    # a field set anew drops the record
    prob = gen_random(6, 6, 20, 100, 1)
    assert bisection_solve(prob).lam == fin(Fraction(25, 2))
    prob.p = prob.q = [fin(0)] * 6
    assert bisection_solve(prob).lam == fin(7) and _compiled(prob) is not rec


def _builds(cls, request):
    """The number of cls instances built during request()."""
    calls = [0]
    init = cls.__init__

    def counted(self, *args):
        calls[0] += 1
        init(self, *args)

    with patch.object(cls, "__init__", counted):
        request()
    return calls[0]


@pytest.mark.parametrize("quad", [False, True])
def test_one_scan_of_the_data_per_request(quad):
    prob = gen_random(8, 8, 100, 100, 11, True) if quad else gen_random(12, 12, 100, 100, 5)
    text = dump_problem(prob)
    solvers = (bisection_solve_quad, newton_solve_quad) if quad else (bisection_solve, newton_solve)
    outs = []
    for solve in solvers:

        def request(solve=solve):
            out = solve(parse_problem(text))
            format_outcome(out, include_trace=True)
            outs.append(out)

        assert _builds(_Compiled, request) == 1
    assert outs[0].status == "optimal"
    lam = outs[0].lam.value

    def certify():
        p = parse_problem(text)
        tau = optimality_certificate(p, lam)
        assert tau is not None and certify_optimal(p, lam, tau)
        sig = unboundedness_certificate(p)
        assert sig is None or not certify_unbounded(p, sig)

    assert _builds(_Compiled, certify) == 1


@pytest.mark.parametrize("quad", [False, True])
def test_one_structure_per_problem(quad):
    """A solve request builds the problem's prepared structure
    (_ParamStruct) only for its level search: none when the problem is
    infeasible, which the start point's game on the constraint system
    alone decides, and one when it is optimal, whatever the solver."""
    solvers = (bisection_solve_quad, newton_solve_quad) if quad else (bisection_solve, newton_solve)
    for seed, status, structures in ((1, "infeasible", 0), (0, "optimal", 1)):
        text = dump_problem(gen_random(8, 8, 100, 100, seed, quad))
        for solve in solvers:
            outs = []
            assert _builds(_ParamStruct, lambda: outs.append(solve(parse_problem(text)))) == structures
            assert outs[0].status == status


def _meets(prob, x):
    """Whether the finite point x meets U x + b <= V x + d exactly."""
    xs = [fin(v) for v in x]
    lhs = [tmax(u, b) for u, b in zip(mat_vec_mul(prob.U, xs), prob.b)]
    rhs = [tmax(v, d) for v, d in zip(mat_vec_mul(prob.V, xs), prob.d)]
    return all(a <= c for a, c in zip(lhs, rhs))


def _hom_feasible(prob):
    """The oracle's verdict on [U | b] <= [V | d] over (x, t), with a
    tautological row per column that has no finite left entry; a row
    whose finite left side faces an all -inf right side fails.  Exact
    past the engine's int64 guard too, which the code under test may
    pass by its own descent."""
    n = prob.shape[1]
    A = [list(r) + [b] for r, b in zip(prob.U.data, prob.b)]
    B = [list(r) + [d] for r, d in zip(prob.V.data, prob.d)]
    for c in range(n + 1):
        if not any(row[c].is_finite for row in A):
            A.append([ZERO if j == c else NEG_INF for j in range(n + 1)])
            B.append(A[-1])
    try:
        return _oracle_feasible(TropMatrix(A, "max"), TropMatrix(B, "max"), exact=True)
    except IsolatedNode:
        return False


@pytest.mark.parametrize("game_descent_too", [False, True])
@settings(max_examples=150, deadline=None)
@given(prob=st.booleans().flatmap(_problem))
@example(
    prob=linprob(
        [[None]] * 4,
        [[None], [None], [Fraction(1, 5**30)], [None]],
        [None, None, None, 0],
        [None, 0, 0, Fraction(-1, 7**25)],
        [None],
        ["+inf"],
    )
)
@example(
    prob=linprob(
        [[None, 0], [None, None], [None, None]],
        [[None, 0], [Fraction(1, 7**25), None], [None, None]],
        [None, None, 0],
        [None, 0, Fraction(-1, 5**30)],
        [None, 0],
        ["+inf", "+inf"],
    )
)
def test_start_point_past_an_inconclusive_descent(game_descent_too, prob):
    """The start point when its descent is inconclusive (patched to
    return None), and, with game_descent_too, the descent of
    feasible_finite, its fallback past the int64 guard, as well, so that
    games alone decide: None exactly when the homogenized constraint
    system has no finite solution (the oracle), else a point that meets
    U x + b <= V x + d exactly.  Data past the int64 guard may get the
    engine's typed refusal instead.  The two examples are feasible
    systems past the guard, where the oracle's own descent does not
    settle and its game runs past the engine too."""
    inconclusive = lambda *args: None  # noqa: E731
    with patch.object(pseudolinear, "_descend_scaled", inconclusive), patch.object(
        games, "_descend_scaled", inconclusive if game_descent_too else games._descend_scaled
    ):
        try:
            x = _affine_witness(prob)
        except EngineError as e:
            assert str(e) == "weights too large for the integer engine"
            assert _compiled(prob).L > 2**61
            return
    if x is None:
        assert not _hom_feasible(prob)
        return
    assert _hom_feasible(prob)
    assert _meets(prob, x)


@pytest.mark.parametrize("quad", [False, True])
def test_start_point_solves_one_game(quad):
    """When the descent is inconclusive (patched), a feasible start
    point comes from the game that decided the sign, with no second
    solve and no second descent: one solve_arena call, and the point of
    the helper feasible_finite shares (games._game_point) on the same
    homogenized system."""
    prob = gen_random(6, 6, 20, 100, 5, quad)
    rec, solve, calls = _compiled(prob), games.solve_arena, []

    def counted(arena, warm=None):
        calls.append(arena)
        return solve(arena, warm)

    inconclusive = lambda *args: None  # noqa: E731
    with patch.object(pseudolinear, "_descend_scaled", inconclusive), patch.object(
        games, "solve_arena", counted
    ):
        x = _affine_witness(prob)
    assert len(calls) == 1
    w = games._game_point(rec._with_aug(np.flatnonzero(rec.core[1][: rec.m].any(axis=1)))[:5])
    assert x is not None and x == [v - w[-1] for v in w[:-1]]


def _fresh(prob):
    """prob with a record of its own, whose start point is not cached."""
    return parse_problem(dump_problem(prob))


def _every_sweep(proofs):
    """games._descend_scaled that asks the start point's certificate at
    every sweep, as at the cap, and records each verdict in proofs."""
    descend = games._descend_scaled

    def asking(Aw, Af, Bw, Bf, x0, sweeps, watch):
        def ask(k, y, fixed):
            proofs.append(watch(sweeps - 1, y, False))
            return proofs[-1]

        return descend(Aw, Af, Bw, Bf, x0, sweeps, ask)

    return asking


@st.composite
def _affine(draw):
    """U x + b <= V x + d with m and n from 1 to 4, on integers, small
    rationals, or rationals whose denominator lcm passes 2^62; p and q
    play no part."""
    dens = draw(st.sampled_from([[1], _SMALL, _HUGE]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def vec(k, p):
        return [draw(_entry(dens, None, p)) for _ in range(k)]

    U, V = ([vec(n, 0.6) for _ in range(m)] for _ in "UV")
    return linprob(U, V, vec(m, 0.5), vec(m, 0.5), [None] * n, ["+inf"] * n)


@settings(max_examples=200, deadline=None)
@given(prob=_affine())
@example(prob=linprob([[0]], [[0]], [None], [None], [None], ["+inf"]))
def test_start_point_certificate_agrees_with_exact_oracle(prob):
    """The start point is None exactly when the exact oracle finds the
    homogenized system infeasible, and otherwise meets the constraints;
    data past the int64 guard may get the engine's typed refusal, unless
    the descent's certificate decides.  Asked at every sweep, the
    certificate decides only infeasible systems.  The example's only
    cycles weigh 0 (U = V = [[0]], x <= x): it is feasible, and a check
    that took cycles of weight 0 for negative ones would refuse it."""
    feasible = _hom_feasible(prob)
    proofs = []
    for descend in (_every_sweep(proofs), games._descend_scaled):
        with patch.object(pseudolinear, "_descend_scaled", descend):
            try:
                x = _affine_witness(_fresh(prob))
            except EngineError as e:
                assert str(e) == "weights too large for the integer engine"
                assert _compiled(prob).L > 2**61
                continue
        assert (x is not None) == feasible
        assert x is None or _meets(prob, x)
    assert not (any(proofs) and feasible)


def test_certified_start_point_solves_no_game():
    """Infeasible lin-int-d25 instances whose descent certifies them: the
    start point is None with games.solve_arena raising, so no game ran."""

    def no_game(arena, warm=None):
        raise AssertionError("a game was solved")

    with patch.object(games, "solve_arena", no_game):
        for s in (2, 3, 4):
            assert _affine_witness(gen_random(25, 25, 500, 100, s)) is None


def test_huge_infeasible_instance_is_answered():
    """lin-huge instance 10 of tools/dump_answers.py (generator seed
    7008010): its 39-digit denominator lcm puts the homogenized game past
    the int64 guard, where the engine refuses with EngineError.  The
    descent's certificate needs no game, and both solvers answer
    infeasible, as the exact oracle does."""
    mode, prob = _dump_instance("lin-huge", 10)
    assert _compiled(prob).L > 2**62 and not _hom_feasible(prob)
    for solve in (bisection_solve, newton_solve):
        assert solve(prob, mode).status == "infeasible"


def _dump_instance(family, i):
    """(mode, problem) of instance i of a tools/dump_answers.py family."""
    spec = importlib.util.spec_from_file_location("dump_answers", _DUMP_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    mode, offset, make = tool.FAMILIES[family]
    return mode, make(7000000 + 1000 * offset + i)


def _without_cap_check(Aw, Af, Bw, Bf, x0, sweeps, watch):
    """games._descend_scaled whose watch is never asked at the sweep cap."""

    def watch_before_cap(k, y, fixed):
        return (fixed or k != sweeps - 1) and watch(k, y, fixed)

    return games._descend_scaled(Aw, Af, Bw, Bf, x0, sweeps, watch_before_cap)


@pytest.mark.parametrize("family, i", [("lin-huge", 13), ("quad-huge", 89)])
def test_sweep_cap_certificate_answers_huge_instances(family, i):
    """Two huge dump instances (generator seeds 7008013 and 7009089) that
    the start point's certificate decides only at the sweep cap: both
    solvers answer infeasible, as the exact oracle does.  Without the
    check at the cap the start point would need a game past the int64
    guard, and gets the engine's refusal."""
    mode, prob = _dump_instance(family, i)
    assert not _hom_feasible(prob)
    quad = isinstance(prob, PseudoquadraticProblem)
    solvers = (bisection_solve_quad, newton_solve_quad) if quad else (bisection_solve, newton_solve)
    for solve in solvers:
        assert solve(_fresh(prob), mode).status == "infeasible"
    with patch.object(pseudolinear, "_descend_scaled", _without_cap_check):
        with pytest.raises(EngineError, match="weights too large for the integer engine"):
            _affine_witness(_fresh(prob))


def test_start_point_from_t_zero_answers_huge_instance():
    """lin-huge instance 133 of tools/dump_answers.py (generator seed
    7008133): its bounds answer, with a point that meets the constraints.
    Its homogenized system's game is past the int64 guard, and a descent
    from the seed on every coordinate, t included, needs 87 sweeps, past
    feasible_finite's cap of 30 on that system, which therefore gets the
    engine's refusal.  The start point's descent starts t at 0 instead."""
    _, prob = _dump_instance("lin-huge", 133)
    rec = _compiled(prob)
    lower, upper, x = initial_bounds(prob)
    assert x is not None and _meets(prob, x) and upper == objective(prob, x)
    hom = rec._with_aug(np.flatnonzero(rec.core[1][: rec.m].any(axis=1)))[:5]
    assert rec.L > 2**62 and 3 * sum(hom[1].shape) + 6 == 30
    with pytest.raises(EngineError, match="weights too large for the integer engine"):
        feasible_finite(hom)


def _row_infeasible(quad):
    data = ([[1, None]], [[None, None]], [None], [None], [0, None], [1, "+inf"])
    return quadprob(*data, [[None, None], [None, None]]) if quad else linprob(*data)


def _free(quad):
    data = ([[0, None]], [[None, 1]], [None], [0], [None, None], ["+inf", "+inf"])
    return quadprob(*data, [[None, None], [None, None]]) if quad else linprob(*data)


@pytest.mark.parametrize(
    "solve, make",
    [
        (bisection_solve, lambda: gen_random(6, 6, 20, 100, 0)),
        (bisection_solve, lambda: _row_infeasible(False)),
        (bisection_solve, lambda: _free(False)),
        (bisection_solve_quad, lambda: gen_random(5, 5, 20, 100, 2, quadratic=True)),
        (bisection_solve_quad, lambda: _row_infeasible(True)),
        (bisection_solve_quad, lambda: _free(True)),
    ],
)
def test_nonpositive_tol_is_rejected_before_any_work(solve, make):
    prob = make()
    status = solve(prob, mode="real").status
    assert status in ("infeasible", "unbounded")
    for tol in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(prob, mode="real", tol=tol)
    with pytest.raises(ValueError, match="tol applies to real mode only"):
        solve(prob, tol=0)


def test_parse_builds_each_distinct_value_once():
    doc = (
        '{"type":"pseudolinear","U":[[1,"-inf"],["1/2",1]],"V":[[1,0],["-inf","1/2"]],'
        '"b":["-inf",0],"d":[1,"-inf"],"p":[0,"-inf"],"q":["+inf",1]}'
    )
    prob = parse_problem(doc)
    assert prob.U.data[0][0] is prob.U.data[1][1] is prob.V.data[0][0] is prob.d[0] is prob.q[1]
    assert prob.U.data[1][0] is prob.V.data[1][1]
    assert prob.V.data[0][1] is prob.b[1] is prob.p[0]
    # a cached 1 does not let a JSON true through, nor a cached "+inf" into U
    with pytest.raises(BadRational, match="bad scalar True"):
        parse_problem(doc.replace('"b":["-inf",0]', '"b":["-inf",true]'))
    with pytest.raises(IllegalInfinity, match=r"\+inf entry in V"):
        parse_problem(doc.replace('"V":[[1,0]', '"V":[[1,"+inf"]'))
    assert np.array_equal(_param_pair(prob)[1], _param_pair(parse_problem(doc))[1])


def test_problem_data_cannot_be_edited_in_place():
    """An in-place edit would leave the compiled record stale, so problem
    vectors and matrix rows are tuples; reassigning a field drops the
    record and the next solve sees the new data."""
    prob = gen_random(6, 6, 20, 100, 1)
    assert bisection_solve(prob).lam == fin(Fraction(25, 2))
    for vec in (prob.p, prob.q):
        with pytest.raises(TypeError):
            vec[0] = fin(0)
    with pytest.raises(TypeError):
        prob.U.data[0][0] = fin(0)
    with pytest.raises(TypeError):
        prob.U.data[0] = prob.V.data[0]
    zeros = [fin(0)] * prob.shape[1]
    prob.p = prob.q = zeros
    assert bisection_solve(prob).lam == fin(7)
    base = gen_random(6, 6, 20, 100, 1)
    fresh = PseudolinearProblem(base.U, base.V, base.b, base.d, zeros, zeros)
    assert bisection_solve(fresh).lam == fin(7)


def test_reassigned_fields_are_validated_and_recompiled():
    """Setting a field runs the constructor's conversion and checks:
    the new value is stored as a tuple, a wrong length or an infinity the
    field does not admit raises TypingError and leaves the problem as it
    was, and the record is rebuilt from the new data."""
    prob = gen_random(6, 6, 20, 100, 1)
    zeros = [fin(0)] * 6
    prob.p = zeros
    prob.q = zeros
    zeros[0] = fin(5)  # the caller's list is not the field
    assert prob.p == (fin(0),) * 6
    assert bisection_solve(prob).lam == fin(7)
    with pytest.raises(TypeError):
        prob.p[0] = fin(5)
    fives = [fin(5)] * 6
    prob.p, prob.q = fives, fives
    base = gen_random(6, 6, 20, 100, 1)
    fresh = PseudolinearProblem(base.U, base.V, base.b, base.d, fives, fives)
    assert bisection_solve(prob).lam == bisection_solve(fresh).lam == fin(Fraction(15, 2))
    rec = _compiled(prob)
    with pytest.raises(TypingError, match=r"p entries must not be \+inf"):
        prob.p = [POS_INF] * 6
    with pytest.raises(TypingError, match="q entries must not be -inf"):
        prob.q = [NEG_INF] * 6
    with pytest.raises(TypingError, match="p has length 5, expected 6"):
        prob.p = fives[:5]
    with pytest.raises(TypingError, match="max-plus typed"):
        prob.U = prob.U.retyped("min")
    with pytest.raises(TypingError, match="max-plus typed"):
        prob.V = [list(row) for row in prob.V.data]
    assert _compiled(prob) is rec and prob == fresh
    assert bisection_solve(prob).lam == fin(Fraction(15, 2))
    quad = gen_random(4, 4, 20, 100, 2, quadratic=True)
    with pytest.raises(TypingError, match="C must be n x n"):
        quad.C = gen_random(3, 3, 20, 100, 0).U
