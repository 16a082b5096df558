"""Real mode searches the same exact level grid as integer mode.

Every solver bisects or steps on the problem's level grid (multiples of
1/(2L) for linear data, denominators at most n + 1 after scaling by L for
pseudoquadratic data), so real mode returns the exact optimum and tol
changes nothing.  tol is still validated: anything but a finite positive
rational is rejected before any work, by every solver, as is any tol in
integer mode; round_bounded rejects a non-finite level; neither leaks a
bare OverflowError or ZeroDivisionError.  A level too fine for the game
engine gets its typed refusal, not an OverflowError either; quad
bisection probes only grid levels, whose denominators stay small.
"""

from fractions import Fraction

import pytest

from tropopt import (
    EngineError,
    bisection_solve,
    bisection_solve_quad,
    format_outcome,
    gen_random,
    newton_solve,
    newton_solve_quad,
    round_bounded,
    spectral_value,
)


def test_real_bisection_is_exact_at_every_tol():
    """Real-mode bisection used to stop within tol of the optimum 429 at
    460635242861/2^30, and to raise EngineError on a tol of 1e-15."""
    prob = gen_random(40, 40, 500, 100, 0)
    tols = (None, Fraction(1, 10), Fraction(1, 10**15), 1e-15)
    outs = [bisection_solve(prob, mode="real", tol=t) for t in tols]
    assert outs[0].status == "optimal" and outs[0].lam.value == 429
    assert outs[0].iterations == 11
    docs = {format_outcome(o, include_trace=True) for o in outs}
    assert len(docs) == 1
    assert newton_solve(prob, mode="real").lam == outs[0].lam


@pytest.mark.parametrize(
    "solve, quad",
    [
        (bisection_solve, False),
        (newton_solve, False),
        (bisection_solve_quad, True),
        (newton_solve_quad, True),
    ],
)
@pytest.mark.parametrize("tol", [float("inf"), float("-inf"), float("nan"), "1/0", "one", 0.0, [1]])
def test_bad_tol_is_a_value_error(solve, quad, tol):
    prob = gen_random(6, 6, 20, 100, 1, quad)
    with pytest.raises(ValueError, match="tol must be positive"):
        solve(prob, mode="real", tol=tol)


@pytest.mark.parametrize("solve", [newton_solve, newton_solve_quad])
def test_newton_rejects_tol_in_integer_mode(solve):
    """As bisection does; Newton used to ignore it there, even when inf."""
    prob = gen_random(6, 6, 20, 100, 1, solve is newton_solve_quad)
    for tol in (Fraction(1, 10), float("inf")):
        with pytest.raises(ValueError, match="tol applies to real mode only"):
            solve(prob, tol=tol)


@pytest.mark.parametrize("lam", [float("inf"), float("-inf"), float("nan")])
def test_round_bounded_rejects_a_non_finite_level(lam):
    with pytest.raises(ValueError):
        round_bounded(lam, 2, "down")


@pytest.mark.parametrize("den", [2**50, 10**30])
def test_a_level_too_fine_for_the_engine_is_a_typed_refusal(den):
    """The probe at level 1/den scales its weights by den, past the
    engine's int64 guard: at 2^50 int64 still holds them, at 10^30 it
    does not, and both get the engine's refusal."""
    prob = gen_random(6, 6, 20, 100, 0)
    with pytest.raises(EngineError, match="^weights too large for the integer engine$"):
        spectral_value(prob, Fraction(1, den))


def test_quad_bisection_probes_grid_levels_at_d200():
    """Quad bisection probes the grid point at or below each midpoint.  It
    probed the midpoint itself, whose denominator (75,222 at the 11th
    probe) scaled the weights past the engine's int64 guard, and refused
    this instance with EngineError; Newton answers 518507."""
    prob = gen_random(200, 200, 500000, 100, 101, True)
    out = bisection_solve_quad(prob)
    assert out.status == "optimal" and out.lam.value == 518507
    assert out.iterations == 23
    assert all(lam.denominator <= 201 for lam, _ in out.trace)
