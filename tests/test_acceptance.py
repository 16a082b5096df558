"""End-to-end acceptance gates.

One test per numbered gate, in order: frozen worked examples, the
degenerate lower-bound fallback, half-integrality and solver agreement
in bulk, closed-form-vs-oracle cross checks, the minimax collapse,
rounding extremality, the statistical bands, and certificate soundness.
Run with -v for one verdict line per gate."""

import itertools
import math
import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

from tropopt import (
    CSV_FIELDS,
    AlcovedProblem,
    InfeasibleReduction,
    NEG_INF,
    POS_INF,
    StrategyPair,
    TropMatrix,
    TwoSidedSystem,
    bisection_solve,
    bisection_solve_quad,
    bounds_quad,
    build_game,
    certify_optimal,
    feasible_finite,
    fin,
    gen_random,
    initial_bounds,
    mat_vec_mul,
    newton_solve,
    objective,
    optimality_certificate,
    play_value,
    round_bounded,
    run_experiments,
    solve_alcoved,
    solve_values,
    spectral_value,
    write_csv,
)
from tropopt.pseudolinear import _compiled, _literal_pair
from tropopt.semiring import ZERO

from _util import golden_game, golden_linear, struct_system, swap_cycle_instance

F = Fraction


# ---------------------------------------------------------------------------
# shared instance corpus (gates 4, 5, 10)

_CORPUS = []


def _corpus():
    """>=1000 solved integer instances, n = m <= 8, weights <= 10."""
    if not _CORPUS:
        for i in range(1000):
            n = 1 + i % 8
            dens = 55 + (i * 7) % 46
            prob = gen_random(n, n, 10, dens, seed=700001 + i)
            _CORPUS.append((prob, bisection_solve(prob), newton_solve(prob)))
    return _CORPUS


# ---------------------------------------------------------------------------
# gate 1: the two-variable worked example, exact traces, under a second


def test_criterion_01_golden_worked_example():
    prob = golden_linear()
    t0 = time.perf_counter()
    ob = bisection_solve(prob, mode="integer")
    on = newton_solve(prob, mode="integer")
    elapsed = time.perf_counter() - t0

    assert ob.status == "optimal" and ob.lam == fin(1)
    assert objective(prob, ob.x) == fin(1)
    assert ob.trace[1:] == [
        (F(17, 4), F(2)),
        (F(9, 4), F(5, 6)),
        (F(5, 4), F(1, 6)),
        (F(3, 4), F(-1, 6)),
    ]

    assert on.status == "optimal" and on.lam == fin(1)
    assert [lam for (lam, _) in on.trace] == [F(8), F(2), F(1)]
    assert on.x == [F(-1), F(1)]

    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# gate 2: the worked game


def test_criterion_02_golden_game():
    A, B = golden_game()
    sys = TwoSidedSystem(A, B)
    game = build_game(sys)
    strat = StrategyPair(tau=[0, 2], sigma=[0, 1, 1])

    assert play_value(game, 0, strat) == F(-1)
    assert play_value(game, 1, strat) == F(4)

    vals = solve_values(sys)
    assert vals.chi == [F(-1), F(4)]
    # equilibrium: neither player improves by a unilateral strategy change
    for tau in itertools.product([0, 1], [2]):
        for j in (0, 1):
            assert play_value(game, j, StrategyPair(list(tau), vals.sigma)) >= vals.chi[j]
    for sigma in itertools.product([0], [1], [0, 1]):
        for j in (0, 1):
            assert play_value(game, j, StrategyPair(vals.tau, list(sigma))) <= vals.chi[j]

    assert feasible_finite(sys) is None


# ---------------------------------------------------------------------------
# gate 3: lower bound -inf, fallback floor still terminates


def test_criterion_03_unbounded_lower_bound_fallback():
    prob = swap_cycle_instance()
    lb, up, wit = initial_bounds(prob)
    assert lb.is_neg_inf
    assert wit is not None
    for solver in (bisection_solve, newton_solve):
        out = solver(prob)
        assert out.status == "optimal"
        assert out.lam == fin(0)
        assert objective(prob, out.x) == fin(0)


# ---------------------------------------------------------------------------
# gate 4: half-integrality in bulk


def test_criterion_04_half_integrality():
    t0 = time.perf_counter()
    finite = 0
    for prob, ob, on in _corpus():
        if ob.status == "optimal":
            finite += 1
            assert (2 * ob.lam.value).denominator == 1
    elapsed = time.perf_counter() - t0
    assert len(_corpus()) >= 1000
    assert finite >= 200
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# gate 5: the two schemes agree; quadratic bisection matches a grid scan


def _farey_points(D, lo, hi):
    pts = set()
    for den in range(1, D + 1):
        for k in range(math.floor(lo * den), math.ceil(hi * den) + 1):
            f = F(k, den)
            if lo <= f <= hi:
                pts.add(f)
    return sorted(pts)


def test_criterion_05_solver_agreement():
    for prob, ob, on in _corpus():
        assert ob.status == on.status
        assert ob.lam == on.lam

    rng = random.Random(424242)
    matched = 0
    t = 0
    while matched < 200 and t < 2000:
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        prob = gen_random(n, m, 5, rng.randint(55, 100), seed=810000 + t, quadratic=True)
        t += 1
        out = bisection_solve_quad(prob)
        if out.status != "optimal":
            continue
        lb, up, wit = bounds_quad(prob)
        lo = lb.value if lb.is_finite else out.lam.value - 3
        want = None
        for lam in _farey_points(prob.shape[1] + 1, lo, up.value):
            if spectral_value(prob, lam).value >= 0:
                want = lam
                break
        assert want == out.lam.value
        matched += 1
    assert matched >= 200


# ---------------------------------------------------------------------------
# gate 6: alcoved closed form against a game-encoded level search


def _alcoved_level_feasible(alc, lam):
    """Encode the level-lam system over (x, t) and ask the game."""
    n = alc.R.rows
    lamS = fin(lam)

    def unit(c, val=ZERO):
        row = [NEG_INF] * (n + 1)
        row[c] = val
        return row

    arows, brows = [], []
    for i in range(n):
        if any(e.is_finite for e in alc.R.data[i]):
            arows.append(list(alc.R.data[i]) + [NEG_INF])
            brows.append(unit(i))
    for j in range(n):
        lo = max(alc.l[j], alc.p[j] + lamS.conj())
        if lo.is_finite:
            arows.append(unit(n, lo))
            brows.append(unit(j))
        hi = min(alc.u[j], alc.q[j] + lamS)
        if hi.is_finite:
            arows.append(unit(j))
            brows.append(unit(n, hi))
    for c in range(n + 1):
        if not any(row[c].is_finite for row in arows):
            # bound the free coordinate far beyond any reachable spread
            arows.append(unit(c))
            brows.append(unit(n, fin(100000)))
    sys = TwoSidedSystem(TropMatrix(arows, "max"), TropMatrix(brows, "max"))
    return feasible_finite(sys) is not None


def _alcoved_oracle_theta(alc):
    """Least half-integer feasible level by monotone search; NEG_INF when
    every level works, None when none does.  |theta| <= 60 for this data."""
    if not _alcoved_level_feasible(alc, F(64)):
        return None
    if _alcoved_level_feasible(alc, F(-65)):
        return NEG_INF
    lo_k, hi_k = -130, 128
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        if _alcoved_level_feasible(alc, F(mid, 2)):
            hi_k = mid
        else:
            lo_k = mid
    return F(hi_k, 2)


def _rand_alcoved(rng):
    n = rng.randint(1, 5)
    neg_bias = rng.random() < 0.5
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if rng.random() < 0.4:
                row.append(NEG_INF)
            elif neg_bias:
                row.append(fin(rng.randint(-10, -1)))
            else:
                row.append(fin(rng.randint(-10, 10)))
        rows.append(row)
    l = [NEG_INF if rng.random() < 0.25 else fin(rng.randint(-10, 0)) for _ in range(n)]
    u = [POS_INF if rng.random() < 0.25 else fin(rng.randint(0, 10)) for _ in range(n)]
    p = [NEG_INF if rng.random() < 0.3 else fin(rng.randint(-10, 10)) for _ in range(n)]
    q = [POS_INF if rng.random() < 0.3 else fin(rng.randint(-10, 10)) for _ in range(n)]
    return AlcovedProblem(TropMatrix(rows, "max"), l, u, p, q)


def test_criterion_06_alcoved_vs_game_oracle():
    rng = random.Random(606060)
    feasible = 0
    for _ in range(1500):
        if feasible >= 500:
            break
        alc = _rand_alcoved(rng)
        try:
            theta, x = solve_alcoved(alc)
        except InfeasibleReduction:
            assert _alcoved_oracle_theta(alc) is None
            continue
        feasible += 1
        if theta.is_neg_inf:
            assert _alcoved_oracle_theta(alc) is NEG_INF
            assert x is None
            continue
        assert _alcoved_oracle_theta(alc) == theta.value
        xs = [fin(v) for v in x]
        lhs = mat_vec_mul(alc.R, xs)
        for j in range(alc.R.rows):
            assert lhs[j] <= xs[j]
            assert alc.l[j] <= xs[j] <= alc.u[j]
            assert alc.p[j] + theta.conj() <= xs[j] <= alc.q[j] + theta
    assert feasible >= 500


# ---------------------------------------------------------------------------
# gate 7: the minimax collapse over exhaustive strategy enumeration


def _karp_best_mean(n_nodes, arcs, maximize):
    """Best cycle mean per arc over the whole digraph, None if acyclic.
    Karp's table on integer weights, its ratios compared by
    cross-multiplication, and one Fraction for the answer."""
    sgn = 1 if maximize else -1
    d = [[None] * n_nodes for _ in range(n_nodes + 1)]
    d[0] = [0] * n_nodes
    for k in range(1, n_nodes + 1):
        row, prev = d[k], d[k - 1]
        for (s, t, w) in arcs:
            if prev[s] is not None:
                c = prev[s] + sgn * w
                if row[t] is None or c > row[t]:
                    row[t] = c
    best = None  # (numerator, positive denominator)
    for v in range(n_nodes):
        if d[n_nodes][v] is None:
            continue
        worst = None
        for k in range(n_nodes):
            if d[k][v] is None:
                continue
            num, den = d[n_nodes][v] - d[k][v], n_nodes - k
            if worst is None or num * worst[1] < worst[0] * den:
                worst = (num, den)
        if worst is not None and (best is None or worst[0] * best[1] > best[0] * worst[1]):
            best = worst
    return None if best is None else sgn * F(*best)


def _int_arcs(M, L, by_col):
    """Per column (by_col) or per row of M, the (other index, L * entry)
    of its finite entries, as Python ints; L clears every denominator."""
    rows, cols = M.shape
    out = [[] for _ in range(cols if by_col else rows)]
    for r in range(rows):
        for c in range(cols):
            e = M.data[r][c]
            if e.is_finite:
                k, other = (c, r) if by_col else (r, c)
                out[k].append((other, int(e.value * L)))
    return out


def _pinned_phi(a_arcs, b_arcs, tau=None, sigma=None):
    """min over column starts of the one-player value (per turn), in the
    units of the integer weights of a_arcs (per column, its rows) and
    b_arcs (per row, its columns)."""
    n1 = len(a_arcs)
    arcs = [
        (j, n1 + r, -w) for j in range(n1) for r, w in a_arcs[j] if tau is None or tau[j] == r
    ]
    arcs += [
        (n1 + r, c, w)
        for r in range(len(b_arcs))
        for c, w in b_arcs[r]
        if sigma is None or sigma[r] == c
    ]
    succ = {}
    for (s, t, _) in arcs:
        succ.setdefault(s, []).append(t)
    best = None
    for start in range(n1):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for t in succ.get(u, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        sub = [(s, t, w) for (s, t, w) in arcs if s in seen and t in seen]
        mean = _karp_best_mean(n1 + len(b_arcs), sub, maximize=tau is not None)
        assert mean is not None
        val = 2 * mean
        if best is None or val < best:
            best = val
    return best


def test_criterion_07_minimax_collapse():
    """Exhaustive enumeration of each side's pinned strategies on seeded
    small structures: the best pinned value of either side equals the
    spectral value.  The oracle runs Karp on the integer weights of each
    instance scaled once by its denominator lcm."""
    rng = random.Random(777)
    checked = 0
    t = 0
    levels = [F(-1), F(1, 2), F(2)]
    while checked < 100 and t < 400:
        n = rng.randint(1, 3)
        m = rng.randint(1, min(4, 7 - n))
        prob = gen_random(n, m, 10, rng.randint(55, 100), seed=870000 + t)
        t += 1
        rec = _compiled(prob)
        if rec.row_infeasible or rec.free_objective:
            continue
        lam = levels[t % 3]
        sys = struct_system(rec.struct, lam)
        A, B = sys.A, sys.B
        M_, n1 = A.shape
        tau_choices = [
            [r for r in range(M_) if A.data[r][j].is_finite] for j in range(n1)
        ]
        sig_choices = [
            [c for c in range(n1) if B.data[r][c].is_finite] for r in range(M_)
        ]
        n_tau = math.prod(len(c) for c in tau_choices)
        n_sig = math.prod(len(c) for c in sig_choices)
        if n_tau > 30000 or n_sig > 30000:
            continue
        phi = spectral_value(prob, lam).value
        L = math.lcm(*(e.value.denominator for M in (A, B) for row in M.data for e in row))
        a_arcs, b_arcs = _int_arcs(A, L, True), _int_arcs(B, L, False)
        best_tau = min(
            _pinned_phi(a_arcs, b_arcs, tau=list(tau)) for tau in itertools.product(*tau_choices)
        ) / L
        best_sig = max(
            _pinned_phi(a_arcs, b_arcs, sigma=list(sig)) for sig in itertools.product(*sig_choices)
        ) / L
        assert best_tau == phi == best_sig
        checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# gate 8: rounding against exhaustive denominator-bounded search


def test_criterion_08_rounding_extremality():
    grids = {D: _farey_points(D, F(-12), F(12)) for D in range(2, 13)}
    for k in range(-240, 241):
        lam = F(k, 24)
        for D, grid in grids.items():
            i_left = bisect_right(grid, lam)
            i_first_ge = bisect_left(grid, lam)
            assert round_bounded(lam, D, "down") == grid[i_left - 1]
            assert round_bounded(lam, D, "up") == grid[i_first_ge]
            on_grid = grid[i_first_ge] == lam
            strict_lo = grid[i_first_ge - 1] if on_grid else grid[i_left - 1]
            strict_hi = grid[i_left] if on_grid else grid[i_first_ge]
            assert round_bounded(lam, D, "strict_down") == strict_lo
            assert round_bounded(lam, D, "strict_up") == strict_hi


# ---------------------------------------------------------------------------
# gate 9: statistical bands and the benchmark CSV


def test_criterion_09_statistics_and_csv(tmp_path):
    rows = run_experiments(
        dims=[50], trials=800, weight_range=500, density=100,
        seed=20260822, lb_only=True,
    )
    row = rows[0]
    assert row["feasible"] >= 400
    assert 0.30 <= row["lb_optimal_frac"] <= 0.50

    bis_iters, newt_iters = [], []
    seed = 100
    while len(bis_iters) < 8 and seed < 140:
        prob = gen_random(100, 100, 500000, 100, seed=seed)
        seed += 1
        ob = bisection_solve(prob)
        if ob.status != "optimal":
            continue
        on = newton_solve(prob)
        assert on.lam == ob.lam
        bis_iters.append(ob.iterations)
        newt_iters.append(on.iterations)
    assert len(bis_iters) == 8
    assert sum(newt_iters) / 8 < sum(bis_iters) / 8

    out = tmp_path / "bench.csv"
    write_csv(rows, str(out))
    header = out.read_text().split("\n", 1)[0]
    assert header == "dim,feasible,lb_optimal_frac,bisect_iters_mean,newton_iters_mean,ms_mean"
    assert header == ",".join(CSV_FIELDS)


# ---------------------------------------------------------------------------
# gate 10: certificates accept the optimum and nothing above it


def test_criterion_10_certificate_soundness():
    exhausted = 0
    for prob, ob, on in _corpus():
        if ob.status != "optimal":
            continue
        lam = ob.lam.value
        tau = optimality_certificate(prob, lam)
        assert tau is not None
        assert certify_optimal(prob, lam, tau)

        m, n = prob.shape
        if m + n > 7:
            continue
        A, B, _ = _literal_pair(prob, fin(lam + F(1, 2)))
        choices = [
            [r for r in range(A.rows) if A.data[r][j].is_finite]
            for j in range(A.cols)
        ]
        if math.prod(len(c) for c in choices) > 30000:
            continue
        for tau2 in itertools.product(*choices):
            assert not certify_optimal(prob, lam + F(1, 2), list(tau2), x=ob.x)
        exhausted += 1
    assert exhausted >= 100
