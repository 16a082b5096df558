"""Canonical JSON encoding of problems and solver results.

Scalars: integers as JSON numbers, other rationals as "num/den" strings,
the infinities as "-inf" and "+inf".  Floating literals are rejected so
that every file round-trips byte for byte through parse + dump (canonical
output: sorted keys, no whitespace).

A problem document is decoded straight into the problem's compiled
integer record (pseudolinear._Compiled), in whole-array passes over all
its entries (_decode); only a document with a bad entry is scanned entry
by entry, for the error of the first.  The ExtScalar fields are built
from the record only when first read, and dump_problem writes the
document from the record."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

import numpy as np

from .matrix import _GUARD, _abs_max, _fit
from .semiring import ExtScalar, NEG_INF, POS_INF, scal
from .pseudolinear import _FIELDS, PseudolinearProblem, SolveOutcome, _Compiled, _compiled
from .pseudoquadratic import PseudoquadraticProblem


class MalformedJson(ValueError):
    """Not valid JSON, or not the expected document shape."""


class DimensionMismatch(ValueError):
    """Ragged matrix rows or inconsistent dimensions between fields."""


class BadRational(ValueError):
    """A scalar token that is not an integer, "num/den", or an infinity."""


class IllegalInfinity(ValueError):
    """An infinity where the field does not admit one."""


_INFINITIES = frozenset(("-inf", "+inf"))
_RAT_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")
_INT_RE = re.compile(r"-?[0-9]+")
# "num/den" tokens joined by ",", each followed by one; _NARROW admits
# only numbers of at most 18 digits, all below 10^18 < 2^61 (the guard)
_RATS = re.compile(r"(?:-?[0-9]+/[1-9][0-9]*,)*")
_NARROW = re.compile(r"(?:-?[0-9]{1,18}/[1-9][0-9]{0,17},)*")


def _token(tok):
    """(kind, num, den) of a scalar token: kind -1 / +1 for -inf / +inf
    (num 0, den 1), else 0 with num / den in lowest terms."""
    if isinstance(tok, str):
        if tok in _INFINITIES:
            return (1 if tok == "+inf" else -1), 0, 1
        rat = _RAT_RE.fullmatch(tok)
        if rat:
            num, den = int(rat[1]), int(rat[2])
            g = gcd(num, den)
            return 0, num // g, den // g
    elif isinstance(tok, int) and not isinstance(tok, bool):
        return 0, int(tok), 1
    raise BadRational(f"bad scalar {tok!r}")


def scalar_from_json(tok):
    kind, num, den = _token(tok)
    if kind:
        return POS_INF if kind > 0 else NEG_INF
    return ExtScalar(0, Fraction(num, den))


def scalar_to_json(v):
    s = scal(v)
    if s.is_neg_inf:
        return "-inf"
    if s.is_pos_inf:
        return "+inf"
    f = s.value
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def parse_level(text: str) -> Fraction:
    """A level argument: an integer or "num/den"."""
    t = text.strip()
    if _INT_RE.fullmatch(t):
        return Fraction(int(t))
    if _RAT_RE.fullmatch(t):
        return Fraction(t)
    raise BadRational(f"bad level {text!r}")


def _reject_float(tok):
    raise BadRational(f"float literal {tok} (use \"num/den\")")


def _matrix_tokens(obj, name, rows=None, cols=None):
    """The entries of a matrix field, row by row, after its shape checks."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise MalformedJson(f"{name} must be a list of rows")
    m = len(obj)
    if rows is not None and m != rows:
        raise DimensionMismatch(f"{name} has {m} rows, expected {rows}")
    if m == 0 or len(obj[0]) == 0:
        raise DimensionMismatch(f"{name} must be nonempty")
    n = len(obj[0])
    for r in obj:
        if len(r) != n:
            raise DimensionMismatch(f"{name} has ragged rows")
    if cols is not None and n != cols:
        raise DimensionMismatch(f"{name} has {n} columns, expected {cols}")
    return [e for r in obj for e in r]


def _check_entries(fields):
    """Raise the error of the first bad entry of fields ((name, entries)
    pairs, in document order): a bad token, or the infinity its field
    does not admit (-inf in q, +inf elsewhere)."""
    for name, toks in fields:
        forbid = "-inf" if name == "q" else "+inf"
        for tok in toks:
            _token(tok)
            if tok == forbid:
                raise IllegalInfinity(f"{forbid} entry in {name}")


def _decode(toks, q):
    """(nums, finite, L) of the document's entries toks, or None when one
    of them is bad: the entries times L, the lcm of their denominators,
    with 0 on the infinities, and the finite mask.  q is the slice of the
    entries of q, the one field that admits +inf and not -inf.

    Every pass is over whole arrays: the "num/den" strings are checked by
    one regex over their joined text plus a count (the separator is in no
    valid token), converted together, reduced by np.gcd and scaled by
    L // den.  The arrays are int64 while every value the decode forms
    stays below the guard, and Python ints in object arrays beyond."""
    types = set(map(type, toks))
    if not types <= {int, str}:  # no bool, null, float, list or object
        return None
    size, t = len(toks), np.array(toks, dtype=object)
    if str in types:
        is_str = np.fromiter(map(isinstance, toks, repeat(str)), bool, size)
        pos, neg = t == "+inf", t == "-inf"
    else:
        is_str = pos = neg = np.zeros(size, dtype=bool)
    if pos[: q.start].any() or neg[q].any() or pos[q.stop :].any():
        return None
    finite = ~(pos | neg)
    rat = is_str & finite
    text = ",".join([*t[rat].tolist(), ""])
    if text.count(",") != rat.sum():
        return None
    if _NARROW.fullmatch(text):
        nd = np.fromstring(text.replace("/", ","), dtype=np.int64, sep=",")
    elif _RATS.fullmatch(text):
        nd = np.array([*map(int, text.replace("/", ",").split(",")[:-1])], dtype=object)
    else:
        return None
    ints = t[~is_str]
    narrow = nd.dtype != object and (not ints.size or -_GUARD < ints.min() <= ints.max() < _GUARD)
    num = np.zeros(size, dtype=np.int64 if narrow else object)
    den = np.ones(size, dtype=num.dtype)
    g = np.gcd(nd[0::2], nd[1::2])
    num[~is_str], num[rat], den[rat] = ints, nd[0::2] // g, nd[1::2] // g
    L = lcm(*np.unique(den).tolist())
    big = _abs_max(num) * L  # bounds every numerator, denominator, L and scaled value
    return _fit(num, big) * (L // _fit(den, big)), finite, L


def parse_problem(text: str):
    """Decode a problem document; returns a PseudolinearProblem or a
    PseudoquadraticProblem depending on its "type" field."""
    try:
        obj = json.loads(text, parse_float=_reject_float)
    except BadRational:
        raise
    except ValueError as e:
        raise MalformedJson(str(e)) from None
    if not isinstance(obj, dict):
        raise MalformedJson("top level must be an object")
    typ = obj.get("type")
    if typ not in ("pseudolinear", "pseudoquadratic"):
        raise MalformedJson("type must be pseudolinear or pseudoquadratic")
    quad = typ == "pseudoquadratic"
    keys = {"type", *_FIELDS[: 7 if quad else 6]}
    if set(obj.keys()) != keys:
        extra = set(obj.keys()) - keys
        missing = keys - set(obj.keys())
        raise MalformedJson(f"bad keys: extra {sorted(extra)}, missing {sorted(missing)}")
    fields = [("U", _matrix_tokens(obj["U"], "U"))]
    m, n = len(obj["U"]), len(obj["U"][0])
    try:
        fields.append(("V", _matrix_tokens(obj["V"], "V", m, n)))
        for name, length in (("b", m), ("d", m), ("p", n), ("q", n)):
            vec = obj[name]
            if not isinstance(vec, list):
                raise MalformedJson(f"{name} must be a list")
            if len(vec) != length:
                raise DimensionMismatch(f"{name} has length {len(vec)}, expected {length}")
            fields.append((name, vec))
        if quad:
            fields.append(("C", _matrix_tokens(obj["C"], "C", n, n)))
    except (MalformedJson, DimensionMismatch):
        _check_entries(fields)  # a bad entry before the shape error comes first
        raise
    q = 2 * m * n + 2 * m + n
    decoded = _decode([e for _, toks in fields for e in toks], slice(q, q + n))
    if decoded is None:
        _check_entries(fields)  # raises
    rec = _Compiled(*decoded, m, n, quad)
    return (PseudoquadraticProblem if quad else PseudolinearProblem)._of(rec)


def dump_problem(prob) -> str:
    """Canonical problem document (sorted keys, no whitespace), written
    from the compiled record."""
    rec = _compiled(prob)
    L, table = rec.L, {rec.WL + 1: "-inf", rec.WL + 2: "+inf"}

    def token(v):
        g = gcd(v, L)
        return v // g if g == L else f"{v // g}/{L // g}"

    doc = {name: rec.entries(name, table, token) for name in rec.data}
    doc["type"] = "pseudoquadratic" if rec.quad else "pseudolinear"
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def format_outcome(outcome: SolveOutcome, include_trace=False) -> str:
    """Canonical result document for a solve."""
    doc = {
        "status": outcome.status,
        "lambda": None if outcome.lam is None else scalar_to_json(outcome.lam),
        "x": None if outcome.x is None else [scalar_to_json(v) for v in outcome.x],
        "iterations": outcome.iterations,
    }
    if include_trace:
        doc["trace"] = [[scalar_to_json(l), scalar_to_json(ph)] for (l, ph) in outcome.trace]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
