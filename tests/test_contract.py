"""One contract property over the public API (`tropopt.__all__`).

Small problems of both kinds, with integer, rational or huge entries
(next to the engine's 2^61 / 2^62 guards, as numerators or as
denominators), go through dump and parse, both solvers of their own kind
and of the other kind, the a-priori bounds, the objective, and both
certificate builders and checkers.  The property:

- every exception is one of the package's typed errors, and an
  EngineError is one of the documented refusals of data past the engine's
  guards;
- bisection and Newton agree on status and level whenever both answer;
- every certificate built passes its checker, and an optimal point's
  objective is its level, which lies within the bounds;
- parse_problem(dump_problem(p)) == p.

A request that one solver answers and the other refuses breaks none of
these; it is reported as a hypothesis event
(`--hypothesis-show-statistics`), as is a builder's refusal.
"""

from fractions import Fraction

from hypothesis import event, given, settings, strategies as st

import tropopt
from tropopt import (
    EngineError,
    PseudoquadraticProblem,
    SolveOutcome,
    TypingError,
    bisection_solve,
    bisection_solve_quad,
    certify_optimal,
    certify_unbounded,
    dump_problem,
    initial_bounds,
    newton_solve,
    newton_solve_quad,
    objective,
    optimality_certificate,
    parse_problem,
    unboundedness_certificate,
)

from _util import linprob, quadprob

_TYPED = tuple(
    obj
    for obj in map(tropopt.__dict__.get, tropopt.__all__)
    if isinstance(obj, type) and issubclass(obj, Exception)
)
_REFUSALS = ("weights too large for the integer engine", "carried bias beyond the int64 guard")

_SMALL = st.integers(-6, 6)
_RATIONAL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_GUARD = st.sampled_from([1 << 61, 1 << 62]).flatmap(
    lambda g: st.one_of(
        st.builds(lambda s, k: s * (g + k), st.sampled_from([-1, 1]), st.integers(-2, 2)),
        st.builds(lambda a, k: Fraction(a, g + k), st.integers(-6, 6), st.integers(-2, 2)),
    )
)
_KINDS = {"integer": _SMALL, "rational": st.one_of(_SMALL, _RATIONAL), "huge": st.one_of(_SMALL, _GUARD)}


@st.composite
def _problem(draw):
    """(problem, data kind, mode): m and n in 1..3, each entry infinite
    with probability about 1/3 (-inf, or +inf in q); integer mode exactly
    when every entry is an integer."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    entry = st.one_of(st.none(), _KINDS[kind], _KINDS[kind])
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    finite = []

    def vec(k, inf=None):
        out = [draw(entry) for _ in range(k)]
        finite.extend(v for v in out if v is not None)
        return [inf if v is None else v for v in out]

    data = [[vec(n) for _ in range(m)], [vec(n) for _ in range(m)], vec(m), vec(m), vec(n)]
    data.append(vec(n, "+inf"))
    quad = draw(st.booleans())
    prob = quadprob(*data, [vec(n) for _ in range(n)]) if quad else linprob(*data)
    integral = all(Fraction(v).denominator == 1 for v in finite)
    return prob, kind, "integer" if integral else "real"


def _call(fn, *args):
    """fn(*args), or the typed error it raised; anything else, and an
    EngineError other than a documented refusal, propagates."""
    try:
        return fn(*args)
    except _TYPED as e:
        if isinstance(e, EngineError) and str(e) not in _REFUSALS:
            raise
        return e


@settings(max_examples=200, deadline=None)
@given(_problem())
def test_public_api_contract(drawn):
    prob, kind, mode = drawn
    assert parse_problem(dump_problem(prob)) == prob
    quad = isinstance(prob, PseudoquadraticProblem)
    own = (bisection_solve_quad, newton_solve_quad) if quad else (bisection_solve, newton_solve)
    other = (bisection_solve, newton_solve) if quad else (bisection_solve_quad, newton_solve_quad)
    for solve in other:
        assert isinstance(_call(solve, prob), TypingError)
    outs = [_call(solve, prob, mode) for solve in own]
    for out in outs:
        assert isinstance(out, (SolveOutcome, EngineError))
    answers = [o for o in outs if isinstance(o, SolveOutcome)]
    if len(answers) == 1:
        event(f"{kind}: {'bisection' if answers[0] is outs[0] else 'Newton'} alone answers")
    if len(answers) == 2:
        a, b = answers
        assert (a.status, a.lam) == (b.status, b.lam)
    bounds = _call(initial_bounds, prob)
    status = answers[0].status if answers else None
    for out in answers:
        if out.status == "optimal":
            assert objective(prob, out.x) == out.lam
            if not isinstance(bounds, Exception):
                assert bounds[0] <= out.lam <= bounds[1]
    if status == "optimal":
        lam, x = answers[0].lam.value, answers[0].x
        tau = _call(optimality_certificate, prob, lam)
        if tau is None or isinstance(tau, Exception):
            event(f"{kind}: optimal, optimality_certificate gives {type(tau).__name__}")
        else:
            assert certify_optimal(prob, lam, tau, x) is True
            ok = _call(certify_optimal, prob, lam, tau)
            assert ok is True or isinstance(ok, EngineError)
    sigma = _call(unboundedness_certificate, prob)
    if isinstance(sigma, Exception) or sigma is None:
        if status == "unbounded":
            event(f"{kind}: unbounded, unboundedness_certificate gives {type(sigma).__name__}")
    else:
        assert certify_unbounded(prob, sigma) is True
        assert status in (None, "unbounded")
