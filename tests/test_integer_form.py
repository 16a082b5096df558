"""The integer-first data path: documents decode straight into the
compiled record, gen_random draws into it, and the ExtScalar fields are
built from it only when read.

The decoder is checked against the entry-by-entry parse kept in _util
(oracle_parse_problem): on random small documents and on malformed ones
(bool, null, float and list tokens, bad strings, unreduced fractions,
ragged rows, wrong dimensions, missing and extra keys, and each field's
forbidden infinity, several defects at once so that the first in
document order must win) the two raise the same exception type and
message, or give equal problems whose compiled arrays match entry for
entry and dtype for dtype, integers past the int64 guard included.  The
dump is the canonical encoding of the fields and parses back to an equal
problem.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropopt import (
    PseudolinearProblem,
    PseudoquadraticProblem,
    bisection_solve,
    bisection_solve_quad,
    certify_optimal,
    dump_problem,
    gen_random,
    newton_solve,
    newton_solve_quad,
    optimality_certificate,
    parse_problem,
    scalar_to_json,
    unboundedness_certificate,
)
from tropopt.io import BadRational
from tropopt.pseudolinear import _compiled

from _util import oracle_parse_problem

_FIELDS = ("U", "V", "b", "d", "p", "q", "C")

_finite = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**70), 2**70),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-30, 30), st.integers(1, 12)),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-30, 30), st.sampled_from([5**30, 7**25])),
)


@st.composite
def _document(draw):
    """A valid problem document as a dict: random shape and tokens, each
    field's admitted infinity among them."""
    quad = draw(st.booleans())
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    small = draw(st.booleans())  # mostly small integers, so tokens repeat

    def tok(inf):
        if small and draw(st.booleans()):
            return draw(st.integers(-3, 3))
        return draw(st.one_of(_finite, st.just(inf)))

    def mat(r, c):
        return [[tok("-inf") for _ in range(c)] for _ in range(r)]

    doc = {"type": "pseudoquadratic" if quad else "pseudolinear", "U": mat(m, n), "V": mat(m, n)}
    for name, k in (("b", m), ("d", m), ("p", n), ("q", n)):
        doc[name] = [tok("+inf" if name == "q" else "-inf") for _ in range(k)]
    if quad:
        doc["C"] = mat(n, n)
    return doc


_BAD_TOKENS = [True, False, None, 1.5, [1], {}, "inf", "1.5", "3/0", "1/-2", "a/b", "", "5",
               "+inf", "-inf", "2/4", "-0/7"]


@st.composite
def _malformed(draw):
    """A document with one to three defects: bad or forbidden tokens,
    shape errors and key errors."""
    doc = draw(_document())
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from([f for f in _FIELDS if f in doc]))
        field = doc[name]
        kind = draw(st.sampled_from(["token", "token", "token", "ragged", "rows", "cols",
                                     "length", "shape", "keys"]))
        matrix = isinstance(field, list) and field and all(isinstance(r, list) for r in field)
        if kind == "token" and isinstance(field, list) and field:
            for _ in range(draw(st.integers(1, 3))):  # several in one field: the first must win
                row = draw(st.sampled_from(field)) if matrix else field
                if isinstance(row, list) and row:
                    row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        elif kind == "ragged" and matrix:
            draw(st.sampled_from(field)).append(0)
        elif kind == "rows" and matrix:
            field.append(list(field[0])) if draw(st.booleans()) else field.pop()
        elif kind == "cols" and matrix:
            for r in field:
                r.append(1)
        elif kind == "length" and isinstance(field, list):
            field.append(0) if draw(st.booleans()) or not field else field.pop()
        elif kind == "shape":
            doc[name] = draw(st.sampled_from(["nope", [], [[]], [1, 2], [[0], 1], {}]))
        elif kind == "keys":
            doc.pop(name) if draw(st.booleans()) else doc.update(extra=[])
    return doc


def _attempt(parse, text):
    try:
        return parse(text), None
    except Exception as e:  # compared by type and message
        return None, (type(e), str(e))


def _canonical(prob):
    """The canonical document of the problem's ExtScalar fields."""
    quad = isinstance(prob, PseudoquadraticProblem)
    doc = {"type": "pseudoquadratic" if quad else "pseudolinear"}
    for name in prob._fields:
        val = getattr(prob, name)
        rows = val.data if name in "UVC" else [val]
        enc = [[scalar_to_json(e) for e in row] for row in rows]
        doc[name] = enc if name in "UVC" else enc[0]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_same(got, want):
    """The decoded problem against the entry-by-entry one: the compiled
    arrays, the fields, the dump and its round trip."""
    rec, ref = _compiled(got), _compiled(want)
    assert (rec.m, rec.n, rec.L, rec.WL, rec.quad) == (ref.m, ref.n, ref.L, ref.WL, ref.quad)
    assert list(rec.data) == list(ref.data)
    for name in ref.data:
        for a, b in zip(rec.data[name], ref.data[name]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist(), name
    for a, b in zip(rec.core, ref.core):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert got == want and repr(got) == repr(want)
    text = dump_problem(got)
    assert text == dump_problem(want) == _canonical(want)
    again = parse_problem(text)
    assert again == got and repr(again) == repr(got) and dump_problem(again) == text


@settings(max_examples=150, deadline=None)
@given(_document())
def test_decoder_matches_entrywise_parse(doc):
    text = json.dumps(doc)
    got, err = _attempt(parse_problem, text)
    want, want_err = _attempt(oracle_parse_problem, text)
    assert err is None and want_err is None
    _check_same(got, want)


@settings(max_examples=300, deadline=None)
@given(_malformed())
def test_decoder_errors_match_entrywise_parse(doc):
    text = json.dumps(doc)
    got, err = _attempt(parse_problem, text)
    want, want_err = _attempt(oracle_parse_problem, text)
    assert err == want_err
    if want_err is None:
        _check_same(got, want)


@pytest.mark.parametrize(
    "name, tok, error, message",
    [(f, "+inf", "IllegalInfinity", f"+inf entry in {f}") for f in "UVCbdp"]
    + [("q", "-inf", "IllegalInfinity", "-inf entry in q")]
    + [("b", t, "BadRational", f"bad scalar {t!r}") for t in (True, None, [1], "1/0", "x")]
    + [("b", 0.5, "BadRational", 'float literal 0.5 (use "num/den")')],
)
def test_each_field_rejects_its_tokens(name, tok, error, message):
    doc = json.loads(dump_problem(gen_random(3, 2, 9, 100, 4, quadratic=True)))
    (doc[name][0] if name in "UVC" else doc[name])[1] = tok
    with pytest.raises(Exception) as got:
        parse_problem(json.dumps(doc))
    assert type(got.value).__name__ == error and str(got.value) == message


@pytest.mark.parametrize("name", ["U", "q"])
@pytest.mark.parametrize(
    "first, second", [(True, "+inf"), ("+inf", True), ("x", None), ([1], "-inf")]
)
def test_first_bad_entry_decides_the_error(name, first, second):
    doc = json.loads(dump_problem(gen_random(3, 2, 9, 100, 4)))
    if name == "U":
        doc["U"][0][2], doc["U"][1][0] = first, second
    else:
        doc["q"][0], doc["q"][2] = first, second
    text = json.dumps(doc)
    _, err = _attempt(parse_problem, text)
    assert err is not None and err == _attempt(oracle_parse_problem, text)[1]


def test_large_integers_take_the_object_path():
    doc = json.loads(dump_problem(gen_random(3, 3, 9, 100, 2)))
    doc["U"][0][0], doc["q"][1] = 2**61, "1/3"
    prob = parse_problem(json.dumps(doc))
    rec = _compiled(prob)
    assert rec.L == 3 and rec.WL == 3 * 2**61 and rec.data["U"][0].dtype == object
    assert prob.U.data[0][0].value == 2**61 and prob.q[1].value == Fraction(1, 3)
    assert prob == oracle_parse_problem(json.dumps(doc))
    doc["U"][0][0] = 2**61 // 3 - 1
    assert _compiled(parse_problem(json.dumps(doc))).data["U"][0].dtype != object
    # past int64 itself: an integer, and a numerator over small denominators
    for tok in (2**63 + 1, -(2**63) - 1, f"{2**63 + 1}/3", f"-{2**63 + 1}/3"):
        doc["U"][0][0] = tok
        assert parse_problem(json.dumps(doc)) == oracle_parse_problem(json.dumps(doc))


# strings that int() or a split on "/" would read, and the decode's
# joined-text check must still reject one by one
_IMPOSTORS = ["1_0/3", " 1/2", "1/2 ", "+1/2", "\u0661/\u0662", "1//2", "1/2/3", "1/\u00002",
              "1/2\n", "1/2,3/4", "1/2,", ",1/2", "3/04", "5"]


@st.composite
def _bulk_document(draw):
    """A document of 200 or more "num/den" tokens (U and V are all
    rationals); the vectors and C mix in integers and each field's
    admitted infinity.  The numbers are small, or some of them (in
    numerators, denominators or integers) lie about 2^e for one e of 61
    to 64: past the guard, L too, and past int64 from 63 on."""
    e = draw(st.sampled_from([None, 61, 62, 63, 64]))
    where = "" if e is None else draw(st.sampled_from(["num", "den", "int", "num den int"]))
    edge = st.integers(2**e - 5, 2**e + 5) if e else st.nothing()

    def part(small, name, signed=True):
        if name not in where:
            return small
        return st.one_of(small, edge, *[edge.map(int.__neg__)] * signed)

    num, den = part(st.integers(-999, 999), "num"), part(st.integers(1, 100), "den", False)
    whole, rat = part(st.integers(-999, 999), "int"), st.builds(lambda a, b: f"{a}/{b}", num, den)
    quad, m, n = draw(st.booleans()), draw(st.integers(10, 12)), draw(st.integers(10, 12))
    doc = {"type": "pseudoquadratic" if quad else "pseudolinear"}
    for name in "UV":
        doc[name] = [draw(st.lists(rat, min_size=n, max_size=n)) for _ in range(m)]
    for name, k in (("b", m), ("d", m), ("p", n), ("q", n)):
        tok = st.one_of(rat, whole, st.just("+inf" if name == "q" else "-inf"))
        doc[name] = draw(st.lists(tok, min_size=k, max_size=k))
    if quad:
        tok = st.one_of(rat, whole, st.just("-inf"))
        doc["C"] = [draw(st.lists(tok, min_size=n, max_size=n)) for _ in range(n)]
    return doc


@settings(max_examples=25, deadline=None)
@given(_bulk_document(), st.data())
def test_bulk_decode_matches_entrywise_parse(doc, data):
    """The decode agrees with the entry-by-entry parse on large documents,
    past the int64 guard too.  Then two or three bad entries are planted,
    of one or two kinds, and the first in document order decides the
    error."""
    text = json.dumps(doc)
    _check_same(parse_problem(text), oracle_parse_problem(text))
    kinds = data.draw(st.lists(st.sampled_from(_IMPOSTORS + [True, None, "inf"]), min_size=1, max_size=2))
    for _ in range(data.draw(st.integers(2, 3))):
        name = data.draw(st.sampled_from([f for f in _FIELDS if f in doc]))
        row = data.draw(st.sampled_from(doc[name])) if name in "UVC" else doc[name]
        tok = data.draw(st.sampled_from(kinds))
        if tok == "inf":  # the infinity the field does not admit
            tok = "-inf" if name == "q" else "+inf"
        row[data.draw(st.integers(0, len(row) - 1))] = tok
    text = json.dumps(doc)
    err = _attempt(parse_problem, text)[1]
    assert err is not None and err == _attempt(oracle_parse_problem, text)[1]


def test_a_comma_inside_a_token_is_rejected():
    """Joined by commas, the token "1/2,3/4" reads as two good ones; the
    count of commas tells it apart."""
    doc = json.loads(dump_problem(gen_random(4, 4, 9, 100, 1)))
    doc = {k: [[f"{e}/7" for e in r] for r in v] if k in "UV" else v for k, v in doc.items()}
    doc["V"][1][2] = "1/2,3/4"
    with pytest.raises(BadRational, match="^bad scalar '1/2,3/4'$"):
        parse_problem(json.dumps(doc))


# sha256 of the dumps of seeds 0..4, written before gen_random drew into
# the integer record; the random stream and the dump format must not move
_PINNED = {
    ((25, 25, 500, 100), False): "8649b57129a187f84ba107b1c971470fcb8aa7488f688aae3f0c32e940790667",
    ((5, 6, 10, 40), False): "397762f969c72e98585706aace081ed310eedc3a545f66886cafd9d52f1c601c",
    ((10, 10, 500, 100), True): "e2e10ade2da9797c0910d00988e7a4f2bff6bfaad9b66d4337f870196935cd86",
    ((5, 5, 20, 60), True): "205351a0131be992934589c09595d31b2080a587f26d658bf1ffc327a553c92c",
    ((3, 4, 2**70, 80), False): "869c477298e8ae044cbf94fd48cfecadaf80972acb4b29134b81f1414c3c8304",
}


@pytest.mark.parametrize("shape, quad", list(_PINNED))
def test_gen_random_dumps_are_pinned(shape, quad):
    probs = [gen_random(*shape, s, quad) for s in range(5)]
    text = "\n".join(map(dump_problem, probs))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED[shape, quad]
    # the record's own dump and that of the ExtScalar fields agree
    assert [_canonical(p) for p in probs] == text.split("\n")


@pytest.mark.parametrize("quad", [False, True])
def test_requests_build_no_field_scalars(quad):
    """Solve and certify read the compiled record only: the ExtScalar
    fields of a parsed problem stay unbuilt until they are read."""
    prob = gen_random(8, 8, 100, 100, 11, True) if quad else gen_random(12, 12, 100, 100, 5)
    text = dump_problem(prob)
    solvers = (bisection_solve_quad, newton_solve_quad) if quad else (bisection_solve, newton_solve)
    for solve in solvers:
        prob = parse_problem(text)
        out = solve(prob)
        assert out.status == "optimal"
        lam = out.lam.value
        assert prob.shape == ((8, 8) if quad else (12, 12))
        assert certify_optimal(prob, lam, optimality_certificate(prob, lam))
        unboundedness_certificate(prob)
        assert not set(prob.__dict__) & set(_FIELDS)
    prob.p
    assert set(prob.__dict__) & set(_FIELDS) == {"p"}
    assert isinstance(prob, PseudoquadraticProblem if quad else PseudolinearProblem)
