"""Canonical JSON encoding of problems and solver results.

Scalars: integers as JSON numbers, other rationals as "num/den" strings,
the infinities as "-inf" and "+inf".  Floating literals are rejected so
that every file round-trips byte for byte through parse + dump (canonical
output: sorted keys, no whitespace)."""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .semiring import ExtScalar, NEG_INF, POS_INF, fin, scal
from .matrix import TropMatrix
from .pseudolinear import PseudolinearProblem, SolveOutcome
from .pseudoquadratic import PseudoquadraticProblem


class MalformedJson(ValueError):
    """Not valid JSON, or not the expected document shape."""


class DimensionMismatch(ValueError):
    """Ragged matrix rows or inconsistent dimensions between fields."""


class BadRational(ValueError):
    """A scalar token that is not an integer, "num/den", or an infinity."""


class IllegalInfinity(ValueError):
    """An infinity where the field does not admit one."""


_RAT_RE = re.compile(r"^-?[0-9]+/[1-9][0-9]*$")
_INT_RE = re.compile(r"^-?[0-9]+$")


def scalar_from_json(tok):
    if isinstance(tok, bool):
        raise BadRational(f"bad scalar {tok!r}")
    if isinstance(tok, int):
        return fin(tok)
    if isinstance(tok, str):
        if tok == "-inf":
            return NEG_INF
        if tok == "+inf":
            return POS_INF
        if _RAT_RE.match(tok):
            num, den = tok.split("/")
            return ExtScalar(0, Fraction(int(num), int(den)))
        raise BadRational(f"bad scalar {tok!r}")
    raise BadRational(f"bad scalar {tok!r}")


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


def _scalar(tok, seen):
    """scalar_from_json through the parse's map from token to scalar, so
    that each distinct value is built once (ExtScalars are immutable)."""
    if type(tok) not in (int, str):
        return scalar_from_json(tok)  # a bool, null or list: it raises
    s = seen.get(tok)
    if s is None:
        s = seen[tok] = scalar_from_json(tok)
    return s


def _parse_matrix(obj, name, seen, rows=None, cols=None):
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
    data = []
    for r in obj:
        row = []
        for e in r:
            s = _scalar(e, seen)
            if s is POS_INF:
                raise IllegalInfinity(f"+inf entry in {name}")
            row.append(s)
        data.append(row)
    return TropMatrix(data, "max")


def _parse_vector(obj, name, length, forbid, seen):
    if not isinstance(obj, list):
        raise MalformedJson(f"{name} must be a list")
    if len(obj) != length:
        raise DimensionMismatch(f"{name} has length {len(obj)}, expected {length}")
    out = []
    for e in obj:
        s = _scalar(e, seen)
        if forbid == "pos" and s.is_pos_inf:
            raise IllegalInfinity(f"+inf entry in {name}")
        if forbid == "neg" and s.is_neg_inf:
            raise IllegalInfinity(f"-inf entry in {name}")
        out.append(s)
    return out


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
    keys = {"type", "U", "V", "b", "d", "p", "q"}
    if typ == "pseudoquadratic":
        keys.add("C")
    if set(obj.keys()) != keys:
        extra = set(obj.keys()) - keys
        missing = keys - set(obj.keys())
        raise MalformedJson(f"bad keys: extra {sorted(extra)}, missing {sorted(missing)}")
    seen = {}
    U = _parse_matrix(obj["U"], "U", seen)
    m, n = U.rows, U.cols
    V = _parse_matrix(obj["V"], "V", seen, rows=m, cols=n)
    b = _parse_vector(obj["b"], "b", m, "pos", seen)
    d = _parse_vector(obj["d"], "d", m, "pos", seen)
    p = _parse_vector(obj["p"], "p", n, "pos", seen)
    q = _parse_vector(obj["q"], "q", n, "neg", seen)
    if typ == "pseudolinear":
        return PseudolinearProblem(U, V, b, d, p, q)
    C = _parse_matrix(obj["C"], "C", seen, rows=n, cols=n)
    return PseudoquadraticProblem(U, V, b, d, p, q, C)


def _enc_matrix(M: TropMatrix):
    return [[scalar_to_json(e) for e in row] for row in M.data]


def dump_problem(prob) -> str:
    """Canonical problem document (sorted keys, no whitespace)."""
    doc = {
        "U": _enc_matrix(prob.U),
        "V": _enc_matrix(prob.V),
        "b": [scalar_to_json(e) for e in prob.b],
        "d": [scalar_to_json(e) for e in prob.d],
        "p": [scalar_to_json(e) for e in prob.p],
        "q": [scalar_to_json(e) for e in prob.q],
    }
    if isinstance(prob, PseudoquadraticProblem):
        doc["type"] = "pseudoquadratic"
        doc["C"] = _enc_matrix(prob.C)
    else:
        doc["type"] = "pseudolinear"
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
