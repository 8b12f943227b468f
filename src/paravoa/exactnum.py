"""Exact scalars over Q and the real quadratic field Q(sqrt(D)).

A QuadScalar is a + b*sqrt(D) with rational a, b and a fixed squarefree
positive integer D.  D = 1 encodes pure rationals (b is forced to 0).
Sign determination is exact: compare a^2 against b^2*D with case analysis
on the signs of a and b, so no floating point ever enters a side test.
`_sign` holds that rule once, for QuadScalar parts and for the integer
parts of the lattice side tests alike.

Each part is stored as an int when it is integral and as a Fraction only
otherwise, and `a` and `b` read it as a Fraction.  The operator engine's
coefficients are rational and nearly all small integers, +-1 above all, so
most of its products, sums and comparisons are int operations with no gcd,
and a result with D = 1 that is an integer in [-256, 256] is that
integer's one shared instance (`_SHARED_INTS`), so it allocates nothing; a
QuadScalar is immutable, so sharing one is safe.  When both operands are
rational, or one of them is a plain int or Fraction, an operation costs at
most one operation per part: a rational product is one product, not four.

Only the public constructor validates, and it tests a given D for being
squarefree once per process, in about D^(1/3) trial divisions.  Arithmetic
results are built directly from their parts and a D that was already
checked; a part that comes out as an integral Fraction is stored as its
int.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

RationalLike = Union[int, Fraction]

__all__ = ["QuadScalar", "ZERO", "ONE"]


@lru_cache(maxsize=256)
def _squarefree(d: int) -> bool:
    """Trial division while k^3 <= d, dividing each factor out: what is left
    has at most two prime factors, so it is squarefree unless a square."""
    if d < 1:
        return False
    k = 2
    while k * k * k <= d:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return False
        k += 1
    r = math.isqrt(d)
    return d == 1 or r * r != d


def _part(x) -> RationalLike:
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is not Fraction:
        if type(x) is int:
            return x
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(x: RationalLike, y: RationalLike) -> RationalLike:
    """x / y for int or Fraction parts and y != 0, never a float."""
    return x / y if type(x) is Fraction or type(y) is Fraction else Fraction(x, y)


def _sign(a: RationalLike, b: RationalLike, D: int) -> int:
    """Exact sign of a + b*sqrt(D) for int or Fraction parts: when a and b
    have opposite signs, the larger of a^2 and b^2*D decides."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    d = a * a - b * b * D
    return sa * ((d > 0) - (d < 0))


class QuadScalar:
    """Immutable element a + b*sqrt(D) of Q(sqrt(D)), with parts `_a`, `_b`
    each an int when integral and a Fraction otherwise."""

    __slots__ = ("_a", "_b", "D")

    def __init__(self, a: RationalLike, b: RationalLike = 0, D: int = 1):
        a, b = _part(a), _part(b)
        if D == 1:
            a, b = (_part(a + b) if b else a), 0
        elif not _squarefree(D):
            raise ValueError(f"D must be 1 or a squarefree integer > 1, got {D}")
        _set_a(self, a)
        _set_b(self, b)
        _set_D(self, D)

    def __setattr__(self, *_):
        raise AttributeError("QuadScalar is immutable")

    @property
    def a(self) -> Fraction:
        x = self._a
        return x if type(x) is Fraction else Fraction(x)

    @property
    def b(self) -> Fraction:
        x = self._b
        return x if type(x) is Fraction else Fraction(x)

    # -- helpers -----------------------------------------------------------

    def _field(self, o: "QuadScalar") -> int:
        """D of a result of self and o when at least one is irrational."""
        if not self._b:
            return o.D
        if o._b and o.D != self.D:
            raise ValueError(f"mixed quadratic fields: sqrt({self.D}) vs sqrt({o.D})")
        return self.D

    def is_rational(self) -> bool:
        return not self._b

    def as_fraction(self) -> Fraction:
        if self._b:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QuadScalar):
            if not (self._b or other._b):
                return _make(self._a + other._a, 0, self.D)
            return _make(self._a + other._a, self._b + other._b, self._field(other))
        if isinstance(other, (int, Fraction)):
            return _make(self._a + other, self._b, self.D)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self.D)

    def __sub__(self, other):
        if isinstance(other, QuadScalar):
            if not (self._b or other._b):
                return _make(self._a - other._a, 0, self.D)
            return _make(self._a - other._a, self._b - other._b, self._field(other))
        if isinstance(other, (int, Fraction)):
            return _make(self._a - other, self._b, self.D)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, QuadScalar):
            if not (self._b or other._b):
                return _make(self._a * other._a, 0, self.D)
            D = self._field(other)
            return _make(self._a * other._a + self._b * other._b * D,
                         self._a * other._b + self._b * other._a, D)
        if isinstance(other, (int, Fraction)):
            return _make(self._a * other, self._b * other if self._b else 0, self.D)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        if not self._b:
            if not self._a:
                raise ZeroDivisionError("division by zero in Q(sqrt(D))")
            return _make(_div(1, self._a), 0, self.D)
        # (a + b sqrt D)^-1 = (a - b sqrt D) / (a^2 - b^2 D), nonzero for
        # squarefree D > 1 and b != 0
        n = self._a * self._a - self._b * self._b * self.D
        return _make(_div(self._a, n), _div(-self._b, n), self.D)

    def __truediv__(self, other):
        if isinstance(other, QuadScalar):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero in Q(sqrt(D))")
            return _make(_div(self._a, other),
                         _div(self._b, other) if self._b else 0, self.D)
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction, QuadScalar)):
            return NotImplemented
        return other * self.inverse()

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadScalar):
            if not (self._b or other._b):
                return self._a == other._a
            self._field(other)
            return self._a == other._a and self._b == other._b
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other
        return NotImplemented

    def __hash__(self):
        # an int part hashes as the Fraction of the same value
        if not self._b:
            return hash(self._a)
        return hash((self._a, self._b, self.D))

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(D)."""
        return _sign(self._a, self._b, self.D)

    def __lt__(self, other):
        d = self.__sub__(other)
        return d if d is NotImplemented else d.sign() < 0

    def __le__(self, other):
        d = self.__sub__(other)
        return d if d is NotImplemented else d.sign() <= 0

    def __gt__(self, other):
        d = self.__sub__(other)
        return d if d is NotImplemented else d.sign() > 0

    def __ge__(self, other):
        d = self.__sub__(other)
        return d if d is NotImplemented else d.sign() >= 0

    def __bool__(self):
        return bool(self._a or self._b)

    # -- serialization -----------------------------------------------------
    # an int part prints as the Fraction of the same value does

    def __repr__(self):
        if not self._b:
            return f"QuadScalar({self._a})"
        return f"QuadScalar({self._a}, {self._b}, D={self.D})"

    def __str__(self):
        if not self._b:
            return str(self._a)
        return f"{self._a}{'+' if self._b >= 0 else ''}{self._b}*sqrt({self.D})"

    def to_json(self) -> dict:
        return {"a": str(self._a), "b": str(self._b)}

    @classmethod
    def from_json(cls, obj, D: int) -> "QuadScalar":
        if isinstance(obj, dict):
            return cls(Fraction(obj["a"]), Fraction(obj.get("b", "0")), D)
        if isinstance(obj, (list, tuple)):
            return cls(Fraction(str(obj[0])), Fraction(str(obj[1])), D)
        return cls(Fraction(str(obj)), 0, D)


_set_a = QuadScalar._a.__set__
_set_b = QuadScalar._b.__set__
_set_D = QuadScalar.D.__set__
_new = object.__new__


def _parts(x: QuadScalar) -> tuple[RationalLike, RationalLike]:
    """x's stored parts a and b, each an int or a Fraction as stored: both
    have a numerator and a denominator, and neither is converted."""
    return x._a, x._b


# each integer in [-_SHARED_INTS, _SHARED_INTS] with D = 1 has one shared
# instance, which _make hands out in place of a new one
_SHARED_INTS = 256
_SHARED: dict = {}


def _make(a: RationalLike, b: RationalLike, D: int) -> QuadScalar:
    """a + b*sqrt(D) from int or Fraction parts and a D already validated;
    the caller guarantees b == 0 when D == 1.  An integral Fraction part is
    stored as its int, and a small integer with D == 1 is its shared
    instance."""
    if type(a) is not int and a.denominator == 1:
        a = a.numerator
    if D == 1 and type(a) is int:
        q = _SHARED.get(a)
        if q is not None:
            return q
    q = _new(QuadScalar)
    _set_a(q, a)
    _set_b(q, b if type(b) is int or b.denominator != 1 else b.numerator)
    _set_D(q, D)
    return q


# _make builds each one new, as _SHARED is still empty
_SHARED = {k: _make(k, 0, 1) for k in range(-_SHARED_INTS, _SHARED_INTS + 1)}
ZERO = _SHARED[0]
ONE = _SHARED[1]
