"""Extended rational scalars for max-plus / min-plus arithmetic.

The carrier set is Q together with the two infinities.  Addition here is
the *tropical multiplication* (ordinary +, extended to infinities), and
the semiring addition is just max or min via the total order.  The one
illegal combination is (-inf) + (+inf): it raises instead of picking a
convention, because the matrix typing rules are supposed to make it
unreachable.
"""

from __future__ import annotations

from fractions import Fraction

# Rationals are plain fractions.Fraction: always lowest terms, positive
# denominator.
Rational = Fraction


class UndefinedSum(ArithmeticError):
    """Raised on (-inf) + (+inf), which has no consistent value."""


class ExtScalar:
    """A rational number, -inf, or +inf.  Immutable and hashable.

    kind is -1 for -inf, 0 for finite, +1 for +inf; value is the Fraction
    payload (always Fraction(0) for the infinities).
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: int, value: Fraction):
        _set_kind(self, kind)
        _set_value(self, value)

    def __setattr__(self, name, val):
        raise AttributeError("ExtScalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def finite(x) -> "ExtScalar":
        return ExtScalar(0, Fraction(x))

    @property
    def is_finite(self) -> bool:
        return self.kind == 0

    @property
    def is_neg_inf(self) -> bool:
        return self.kind == -1

    @property
    def is_pos_inf(self) -> bool:
        return self.kind == 1

    # -- total order -------------------------------------------------------

    def _key(self):
        return (self.kind, self.value)

    def __eq__(self, other):
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __lt__(self, other):
        if self.kind != other.kind:
            return self.kind < other.kind
        return self.value < other.value

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return hash(self._key())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        if self.kind == 0 and other.kind == 0:
            return ExtScalar(0, self.value + other.value)
        if self.kind == -other.kind and self.kind != 0:
            raise UndefinedSum("(-inf) + (+inf) is undefined")
        # at least one infinity, both of the same sign or one finite
        return self if self.kind != 0 else other

    def conj(self) -> "ExtScalar":
        """Negation with the infinities swapped: a |-> -a, -inf <-> +inf."""
        if self.kind == 0:
            return ExtScalar(0, -self.value)
        return ExtScalar(-self.kind, Fraction(0))

    def __neg__(self) -> "ExtScalar":
        return self.conj()

    def half(self) -> "ExtScalar":
        """Divide by 2 (square root in multiplicative notation)."""
        if self.kind == 0:
            return ExtScalar(0, self.value / 2)
        return self

    def __repr__(self):
        if self.kind == -1:
            return "-inf"
        if self.kind == 1:
            return "+inf"
        return str(self.value)


# the slots' own setters: the immutable __setattr__ is bypassed only here
_set_kind, _set_value = ExtScalar.kind.__set__, ExtScalar.value.__set__

NEG_INF = ExtScalar(-1, Fraction(0))
POS_INF = ExtScalar(1, Fraction(0))
ZERO = ExtScalar(0, Fraction(0))


def fin(x) -> ExtScalar:
    """Finite scalar from an int, Fraction, or 'num/den' string."""
    # a Fraction is immutable, so it is kept rather than copied
    return ExtScalar(0, x if type(x) is Fraction else Fraction(x))


def scal(x) -> ExtScalar:
    """Coerce ints, Fractions, ExtScalars, None (= -inf), and the strings
    '-inf' / '+inf' / 'inf' to ExtScalar."""
    if isinstance(x, ExtScalar):
        return x
    if x is None:
        return NEG_INF
    if isinstance(x, str):
        if x == "-inf":
            return NEG_INF
        if x in ("+inf", "inf"):
            return POS_INF
        return ExtScalar(0, Fraction(x))
    if isinstance(x, float):
        if x == float("-inf"):
            return NEG_INF
        if x == float("inf"):
            return POS_INF
        raise TypeError("finite floats are not accepted; use int or Fraction")
    return ExtScalar(0, Fraction(x))


def tmax(*xs: ExtScalar) -> ExtScalar:
    """Tropical (max-plus) sum; the empty sum is -inf."""
    best = NEG_INF
    for x in xs:
        if best < x:
            best = x
    return best


def tmin(*xs: ExtScalar) -> ExtScalar:
    """Dual (min-plus) sum; the empty sum is +inf."""
    best = POS_INF
    for x in xs:
        if x < best:
            best = x
    return best
