"""Canonical JSON encoding of problems and solver results.

Scalars: integers as JSON numbers, other rationals as "num/den" strings,
the infinities as "-inf" and "+inf".  Floating literals are rejected so
that every file round-trips byte for byte through parse + dump (canonical
output: sorted keys, no whitespace).

A problem document is decoded straight into the problem's compiled
integer record (pseudolinear._Compiled): each distinct token is decoded
once, to a numerator and denominator or an infinity, and the entries are
mapped through that to the scaled weights and finite masks.  The
ExtScalar fields are built from the record only when first read, and
dump_problem writes the document from the record."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

import numpy as np

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
_RAT_RE = re.compile(r"^(-?[0-9]+)/([1-9][0-9]*)$")
_INT_RE = re.compile(r"^-?[0-9]+$")


def _token(tok):
    """(kind, num, den) of a scalar token: kind -1 / +1 for -inf / +inf
    (num 0, den 1), else 0 with num / den in lowest terms."""
    if isinstance(tok, str):
        if tok in _INFINITIES:
            return (1 if tok == "+inf" else -1), 0, 1
        rat = _RAT_RE.match(tok)
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
    if _INT_RE.match(t):
        return Fraction(int(t))
    if _RAT_RE.match(t):
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


def _decode_field(toks, name, forbid, ints, words):
    """Collect the field's distinct tokens: the integers into ints, and
    the strings into words, each decoded once (token -> _token's triple).
    A bad token, or the infinity `forbid` that the field does not admit,
    raises the error of the first such entry."""
    types = set(map(type, toks))
    uniq = set(toks) if types <= {int, str} else ()  # no bool, null, float or list
    if uniq and forbid not in uniq:
        new = [t for t in uniq if type(t) is str] if str in types else []
        ints.update(uniq.difference(new))
        try:
            words.update((w, _token(w)) for w in new if w not in words)
            return
        except BadRational:
            pass
    for tok in toks:
        _token(tok)
        if tok == forbid:
            raise IllegalInfinity(f"{forbid} entry in {name}")


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
    ints, words, flat = set(), {}, []

    def take(toks, name, forbid="+inf"):
        _decode_field(toks, name, forbid, ints, words)
        flat.extend(toks)

    take(_matrix_tokens(obj["U"], "U"), "U")
    m, n = len(obj["U"]), len(obj["U"][0])
    take(_matrix_tokens(obj["V"], "V", m, n), "V")
    for name, length in (("b", m), ("d", m), ("p", n), ("q", n)):
        vec = obj[name]
        if not isinstance(vec, list):
            raise MalformedJson(f"{name} must be a list")
        if len(vec) != length:
            raise DimensionMismatch(f"{name} has length {len(vec)}, expected {length}")
        take(vec, name, "-inf" if name == "q" else "+inf")
    if quad:
        take(_matrix_tokens(obj["C"], "C", n, n), "C")
    L = lcm(*(den for _, _, den in words.values()))
    nums = {t: t * L for t in ints}
    nums.update((w, num * (L // den)) for w, (_, num, den) in words.items())
    infinite = np.array(list(map(_INFINITIES.__contains__, flat)))
    rec = _Compiled(list(map(nums.__getitem__, flat)), ~infinite, L, m, n, quad)
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
