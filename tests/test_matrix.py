"""Typed matrices: products, conjugation, cycle means, Kleene star.

Property tests check the Galois adjunction and cycle means against
independent brute-force oracles.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropopt import (
    NEG_INF,
    POS_INF,
    ZERO,
    DivergentStar,
    TropMatrix,
    TypingError,
    conjugate,
    const_matrix,
    dual_mat_mul,
    dual_mat_vec_mul,
    fin,
    identity,
    kleene_star,
    mat_add,
    mat_mul,
    mat_vec_mul,
    max_cycle_mean,
    tmax,
)

from _util import E, M, V, simple_cycles


def test_construction_and_shape():
    A = M([[3, None], [7, None]])
    assert A.shape == (2, 2)
    assert A[0, 0] == fin(3) and A[0, 1] == NEG_INF
    with pytest.raises(TypingError):
        TropMatrix([], "max")
    with pytest.raises(TypingError):
        M([[1, 2], [3]])
    with pytest.raises(TypingError):
        M([[1, "+inf"]])  # +inf has no place in a max-typed matrix
    M([[1, "+inf"]], typing="min")  # min typing admits +inf holes
    with pytest.raises(TypingError):
        TropMatrix([[NEG_INF]], "min")
    with pytest.raises(TypingError):
        TropMatrix([[ZERO]], "odd")


def test_identity_and_const():
    I = identity(3)
    assert I[1, 1] == ZERO and I[0, 2] == NEG_INF
    K = const_matrix(2, 3, fin(5))
    assert K.shape == (2, 3) and all(K[i, j] == fin(5) for i in range(2) for j in range(3))


def test_mat_add_example():
    A = M([[3, None], [7, None]])
    B = M([[2, None], [None, 1]])
    assert mat_add(A, B) == M([[3, None], [7, 1]])


def test_mat_add_typing_mismatch():
    with pytest.raises(TypingError):
        mat_add(M([[1]]), M([[1]], typing="min"))
    with pytest.raises(TypingError):
        mat_add(M([[1]]), M([[1, 2]]))


def test_mat_mul_examples():
    R = M([[None, None], [2, None]])
    assert mat_vec_mul(R, V([-1, 1])) == V([None, 1])
    U = M([[None, -2], [3, None]])
    assert mat_vec_mul(U, V([-8, -8])) == V([-10, -5])
    # matrix-matrix against a by-hand value
    A = M([[0, 1], [None, 2]])
    B = M([[1, None], [0, 3]])
    assert mat_mul(A, B) == M([[1, 4], [2, 5]])


def test_conjugate_example():
    A = M([[3], [7]])
    C = conjugate(A)
    assert C.typing == "min"
    assert C.shape == (1, 2)
    assert C[0, 0] == fin(-3) and C[0, 1] == fin(-7)
    # conjugation is an involution back to max typing
    assert conjugate(C) == A


def test_dual_mat_mul_example():
    Rstar = M([[0, None], [2, 0]])
    sharp = conjugate(Rstar)
    assert sharp == M([[0, -2], ["+inf", 0]], typing="min")
    y = [ZERO, fin(1)]
    assert dual_mat_vec_mul(sharp, y) == [fin(-1), fin(1)]


def test_dual_mul_typing():
    with pytest.raises(TypingError):
        dual_mat_vec_mul(M([[0]]), [ZERO])  # max-typed into the dual product
    with pytest.raises(TypingError):
        dual_mat_mul(M([[0]], typing="min"), M([[0]]))


_NEG, _POS = float("-inf"), float("inf")
_FIN = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 4)).map(fin)


def _line(e):
    """e on the extended line: its Fraction, or a float infinity."""
    return e.value if e.is_finite else (_NEG if e.is_neg_inf else _POS)


def _brute(rows, cols, typing):
    """max (min) over k of a_k + b_k for each row and column, skipping the
    pairs with a -inf (+inf); -inf (+inf) when no pair is left."""
    skip, pick = (_NEG, max) if typing == "max" else (_POS, min)
    return [
        [
            pick((a + b for a, b in zip(row, col) if skip not in (a, b)), default=skip)
            for col in cols
        ]
        for row in rows
    ]


def _ext(v):
    return fin(v) if isinstance(v, Fraction) else NEG_INF if v < 0 else POS_INF


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_match_brute_force(data):
    """The four products against a brute-force max/min over k, with both
    infinities in the vectors, also the one the matrix typing excludes;
    then the TypingError messages for a wrong typing and for mismatched
    dimensions."""
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    products = (("max", mat_mul, mat_vec_mul), ("min", dual_mat_mul, dual_mat_vec_mul))
    for typing, mul, vec in products:
        entry = st.one_of(_FIN, st.just(NEG_INF if typing == "max" else POS_INF))

        def row(entry, size):
            return st.lists(entry, min_size=size, max_size=size)

        A, B = (TropMatrix(data.draw(row(row(entry, n), m)), typing) for m, n in ((r, k), (k, c)))
        x = data.draw(row(st.one_of(_FIN, st.sampled_from([NEG_INF, POS_INF])), k))
        rows = [[_line(e) for e in row] for row in A.data]
        want = _brute(rows, [[_line(e) for e in col] for col in zip(*B.data)], typing)
        assert mul(A, B) == TropMatrix([[_ext(v) for v in row] for row in want], typing)
        assert vec(A, x) == [_ext(row[0]) for row in _brute(rows, [[_line(e) for e in x]], typing)]

        other = "min" if typing == "max" else "max"

        def zeros(rows, cols):
            return TropMatrix([[ZERO] * cols for _ in range(rows)], other)

        wrong = f"is for {typing}-plus typed matrices$"
        with pytest.raises(TypingError, match=f"^{mul.__name__} {wrong}"):
            mul(zeros(r, k), B)
        with pytest.raises(TypingError, match=f"^{mul.__name__} {wrong}"):
            mul(A, zeros(k, c))
        with pytest.raises(TypingError, match=f"^{vec.__name__} {wrong}"):
            vec(zeros(r, k), x)
        with pytest.raises(TypingError, match="^inner dimensions disagree$"):
            mul(A, TropMatrix(B.data + B.data[:1], typing))
        with pytest.raises(TypingError, match="^dimension mismatch$"):
            vec(A, x + [ZERO])


def _rand_entry(rng, density, lo=-9, hi=9):
    if rng.random() < density:
        return fin(rng.randint(lo, hi))
    return NEG_INF


def _rand_mat(rng, m, n, density=0.7):
    return TropMatrix(
        [[_rand_entry(rng, density) for _ in range(n)] for _ in range(m)], "max"
    )


def test_adjunction_property():
    """A x <= y iff x <= A# y', over a thousand random triples."""
    rng = random.Random(20260822)
    checked = 0
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = _rand_mat(rng, m, n)
        x = [_rand_entry(rng, 0.85) for _ in range(n)]
        y = [fin(rng.randint(-9, 9)) for _ in range(m)]
        lhs = all(l <= r for l, r in zip(mat_vec_mul(A, x), y))
        back = dual_mat_vec_mul(conjugate(A), y)
        rhs = all(l <= r for l, r in zip(x, back))
        assert lhs == rhs
        checked += 1
    assert checked == 1000


def test_dual_product_is_residual_of_product():
    """mat_mul and dual_mat_mul compose as adjoints: A (A# Y) <= Y."""
    rng = random.Random(7)
    for _ in range(200):
        m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        A = _rand_mat(rng, m, n, 0.9)
        Y = TropMatrix(
            [[fin(rng.randint(-5, 5)) for _ in range(k)] for _ in range(m)], "max"
        )
        X = dual_mat_mul(conjugate(A), Y.retyped("min"))
        for c in range(k):
            xs = [X[j, c] for j in range(n)]
            if any(v.is_pos_inf for v in xs):
                continue  # column unconstrained in some variable
            got = mat_vec_mul(A, xs)
            assert all(g <= Y[i, c] for i, g in enumerate(got))


def test_max_cycle_mean_golden():
    U = M([[None, -2], [3, None]])
    assert max_cycle_mean(U) == fin(Fraction(1, 2))
    assert max_cycle_mean(M([[None, 1], [None, None]])) == NEG_INF
    assert max_cycle_mean(M([[-3]])) == fin(-3)


def test_max_cycle_mean_vs_enumeration():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 6)
        A = _rand_mat(rng, n, n, 0.55)
        arcs = [
            (i, j, A[i, j].value)
            for i in range(n)
            for j in range(n)
            if A[i, j].is_finite
        ]
        means = []
        for cyc in simple_cycles(n, arcs):
            w = sum(arcs[i][2] for i in cyc)
            means.append(Fraction(w, len(cyc)))
        want = E(max(means)) if means else NEG_INF
        assert max_cycle_mean(A) == want


def test_kleene_star_golden():
    R = M([[None, -3], [None, None]])
    assert kleene_star(R) == M([[0, -3], [None, 0]])
    assert kleene_star(M([[0]])) == M([[0]])
    with pytest.raises(DivergentStar):
        kleene_star(M([[1]]))
    with pytest.raises(DivergentStar):
        kleene_star(M([[None, 2], [-1, None]]))  # cycle mean 1/2 > 0


def test_kleene_star_fixpoint_and_closure():
    rng = random.Random(4242)
    n_checked = 0
    for _ in range(250):
        n = rng.randint(1, 5)
        # nonpositive entries keep every cycle mean <= 0
        R = TropMatrix(
            [[_rand_entry(rng, 0.6, -6, 0) for _ in range(n)] for _ in range(n)],
            "max",
        )
        S = kleene_star(R)
        assert S == mat_add(identity(n), mat_mul(R, S))
        assert mat_mul(S, S) == S
        # star = finite geometric sum up to n - 1 powers
        acc = identity(n)
        P = identity(n)
        for _ in range(n - 1):
            P = mat_mul(P, R)
            acc = mat_add(acc, P)
        assert S == acc
        n_checked += 1
    assert n_checked == 250


def test_mat_mul_associativity_random():
    rng = random.Random(11)
    for _ in range(150):
        a, b, c, d = (rng.randint(1, 4) for _ in range(4))
        A = _rand_mat(rng, a, b)
        B = _rand_mat(rng, b, c)
        C = _rand_mat(rng, c, d)
        assert mat_mul(mat_mul(A, B), C) == mat_mul(A, mat_mul(B, C))
        D = _rand_mat(rng, b, c)
        assert mat_mul(A, mat_add(B, D)) == mat_add(mat_mul(A, B), mat_mul(A, D))
