"""Rank-two even lattices: exact inner products, hyperplane side tests,
cones, primitivity and half-plane bases.

Lattice points are integer coordinate pairs in a fixed basis; vectors of
the ambient plane carry QuadScalar coordinates in the same basis, so a
single squarefree D per session covers both rational- and
irrational-slope hyperplanes.  A direction gamma stays a QuadScalar pair
only up to `_normal`, which turns it into integer pairs p, q with
(gamma|v) a positive multiple of p.v + (q.v)*sqrt(D): side tests, the
boundary line and half-plane bases run on those integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactnum import QuadScalar, _parts, _sign, _squarefree

__all__ = [
    "GramLattice",
    "LatVec",
    "HVec",
    "Side",
    "PLUS",
    "ZERO",
    "MINUS",
    "ParavoaError",
    "inner",
    "side",
    "line_intersection",
    "is_primitive",
    "cone_member",
    "halfplane_basis",
    "perp_primitive",
]

LatVec = tuple[int, int]
HVec = tuple[QuadScalar, QuadScalar]

PLUS, ZERO, MINUS = 1, 0, -1
Side = int


class ParavoaError(ValueError):
    """Bad input: a malformed config or argument, or data that breaks a
    precondition such as P being parabolic.  The CLI exits 2 on it, and on
    a result too long to print."""


def _json_int(x, what: str, lo: Optional[int] = None) -> int:
    """x if it is a JSON integer (a bool or a float is not one) and at least
    lo; ParavoaError naming the field what otherwise."""
    if isinstance(x, bool) or not isinstance(x, int) or (lo is not None and x < lo):
        at_least = "" if lo is None else f" >= {lo}"
        raise ParavoaError(f"{what}: expected an integer{at_least}, got {x!r}")
    return x


def _json_str(x, what: str) -> str:
    if not isinstance(x, str):
        raise ParavoaError(f"{what}: expected a string, got {x!r}")
    return x


def _json_pair(v, what: str, item=_json_int) -> tuple:
    """v as a pair of integers, or of what item reads (pairs, scalars)."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ParavoaError(f"{what}: expected a pair, got {v!r}")
    return (item(v[0], what), item(v[1], what))


def _json_scalar(x, what: str, D: int) -> QuadScalar:
    """x as a + b*sqrt(D): a JSON integer or a rational string such as "-3/4",
    or an object {"a": .., "b": ..} of two of those with "b" optional."""
    ab = (x, 0)
    if isinstance(x, dict) and x.keys() <= {"a", "b"}:
        ab = (x.get("a"), x.get("b", 0))
    try:
        if all(type(y) in (int, str) for y in ab):
            return QuadScalar(Fraction(ab[0]), Fraction(ab[1]), D)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParavoaError(f"{what}: expected an integer, a rational string or "
                       f"{{\"a\", \"b\"}} of those, got {x!r}")


@dataclass(frozen=True)
class GramLattice:
    """Rank-two even lattice given by its integer Gram matrix."""

    gram: tuple[tuple[int, int], tuple[int, int]]
    D: int = 1

    def __post_init__(self):
        g = self.gram
        if g[0][1] != g[1][0]:
            raise ParavoaError("Gram matrix must be symmetric")
        if g[0][0] % 2 != 0 or g[1][1] % 2 != 0:
            raise ParavoaError("diagonal Gram entries must be even (even lattice)")
        if not self.positive_definite:
            raise ParavoaError("Gram matrix must be positive-definite")
        if self.D != 1 and not (self.D < 2**63 and _squarefree(self.D)):
            raise ParavoaError("D must be 1 or a squarefree integer from 2 to "
                               f"2**63 - 1, got {self.D}")

    @property
    def positive_definite(self) -> bool:
        g = self.gram
        return g[0][0] > 0 and self.det > 0

    @property
    def det(self) -> int:
        g = self.gram
        return g[0][0] * g[1][1] - g[0][1] * g[1][0]

    def scalar(self, x, y=0) -> QuadScalar:
        return QuadScalar(x, y, self.D)

    def hvec(self, x, y) -> HVec:
        """Build an ambient vector from (rational, sqrt-part) coordinate specs."""
        return (
            x if isinstance(x, QuadScalar) else QuadScalar(x, 0, self.D),
            y if isinstance(y, QuadScalar) else QuadScalar(y, 0, self.D),
        )

    def lift(self, v: LatVec) -> HVec:
        return self.hvec(v[0], v[1])

    def inner_int(self, u: LatVec, v: LatVec) -> int:
        g = self.gram
        return (
            u[0] * g[0][0] * v[0]
            + u[0] * g[0][1] * v[1]
            + u[1] * g[1][0] * v[0]
            + u[1] * g[1][1] * v[1]
        )

    def norm(self, v: LatVec) -> int:
        return self.inner_int(v, v)

    def box(self, radius: int):
        for m in range(-radius, radius + 1):
            for n in range(-radius, radius + 1):
                yield (m, n)

    @classmethod
    def from_json(cls, obj: dict) -> "GramLattice":
        if not isinstance(obj, dict):
            raise ParavoaError(f"expected a JSON object, got {obj!r}")
        if "gram" not in obj:
            raise ParavoaError("gram: required")
        if "names" in obj:  # accepted and unused
            _json_pair(obj["names"], "names", _json_str)
        return cls(
            gram=_json_pair(obj["gram"], "gram", _json_pair),
            D=_json_int(obj.get("D", 1), "D"),
        )


def inner(L: GramLattice, u: HVec, v: HVec) -> QuadScalar:
    """u^T G v, exactly."""
    g = L.gram
    return (
        u[0] * v[0] * g[0][0]
        + u[0] * v[1] * g[0][1]
        + u[1] * v[0] * g[1][0]
        + u[1] * v[1] * g[1][1]
    )


def _normal(L: GramLattice, gamma: HVec) -> tuple[LatVec, LatVec, int]:
    """Integer pairs p, q and the field D with (gamma|v) = (p.v + (q.v)*sqrt(D))
    / den for some den > 0: gamma's four parts scaled to integers by the lcm
    of their denominators, then multiplied by G."""
    x, y = gamma
    (xa, xb), (ya, yb) = _parts(x), _parts(y)
    if xb and yb and x.D != y.D:
        raise ValueError(f"mixed quadratic fields: sqrt({x.D}) vs sqrt({y.D})")
    parts = (xa, ya, xb, yb)
    if not any(parts):
        raise ParavoaError("gamma must be nonzero")
    den = math.lcm(*(f.denominator for f in parts))
    a0, a1, b0, b1 = (f.numerator * (den // f.denominator) for f in parts)
    g = L.gram
    return ((a0 * g[0][0] + a1 * g[1][0], a0 * g[0][1] + a1 * g[1][1]),
            (b0 * g[0][0] + b1 * g[1][0], b0 * g[0][1] + b1 * g[1][1]),
            x.D if xb else y.D)


def _side_of(n: tuple[LatVec, LatVec, int], v: LatVec) -> Side:
    """sign(p.v + (q.v)*sqrt(D)) for the normal pair n = (p, q, D)."""
    p, q, D = n
    return _sign(p[0] * v[0] + p[1] * v[1], q[0] * v[0] + q[1] * v[1], D)


def _line(n: tuple[LatVec, LatVec, int]) -> Optional[LatVec]:
    """Primitive generator of the integer kernel of p and q, or None when it
    is 0.  For an integer v, p.v + (q.v)*sqrt(D) = 0 exactly when p.v = 0
    and q.v = 0, because sqrt(D) is irrational whenever q is nonzero."""
    p, q, _ = n
    if p == (0, 0):
        p = q
    elif q != (0, 0) and p[0] * q[1] - p[1] * q[0]:
        return None
    return _primitivize((-p[1], p[0]))


def side(L: GramLattice, gamma: HVec, v: LatVec) -> Side:
    """Which side of the hyperplane orthogonal to gamma the point v lies on."""
    return _side_of(_normal(L, gamma), v)


def is_primitive(v: LatVec) -> bool:
    if v == (0, 0):
        raise ParavoaError("the zero vector is neither primitive nor imprimitive")
    return math.gcd(abs(v[0]), abs(v[1])) == 1


def _primitivize(v: LatVec) -> LatVec:
    g = math.gcd(abs(v[0]), abs(v[1]))
    v = (v[0] // g, v[1] // g)
    # orientation: first nonzero coordinate positive
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = (-v[0], -v[1])
    return v


def line_intersection(L: GramLattice, gamma: HVec) -> Optional[LatVec]:
    """Primitive generator of the lattice points on the hyperplane P(gamma),
    or None when the hyperplane meets the lattice only at the origin."""
    return _line(_normal(L, gamma))


def _cramer(c1, c2, rhs) -> tuple[Fraction, Fraction]:
    """The rational (x, y) with x*c1 + y*c2 = rhs, for integer or rational
    2-vectors; ParavoaError if c1 and c2 are dependent."""
    det = c1[0] * c2[1] - c1[1] * c2[0]
    if det == 0:
        raise ParavoaError("2x2 system with linearly dependent columns")
    return (Fraction(rhs[0] * c2[1] - rhs[1] * c2[0], det),
            Fraction(c1[0] * rhs[1] - c1[1] * rhs[0], det))


def cone_member(a1: LatVec, a2: LatVec, v: LatVec) -> Optional[tuple[int, int]]:
    """The unique nonnegative-integer combination v = m1*a1 + m2*a2, if any."""
    m1, m2 = _cramer(a1, a2, v)
    if m1.denominator != 1 or m2.denominator != 1:
        return None
    if m1 < 0 or m2 < 0:
        return None
    return (int(m1), int(m2))


def halfplane_basis(L: GramLattice, gamma: HVec) -> tuple[LatVec, LatVec]:
    """A basis of L lying strictly on the positive side of P(gamma)."""
    n = _normal(L, gamma)
    s1, s2 = _side_of(n, (1, 0)), _side_of(n, (0, 1))
    # gamma != 0 and G is nonsingular, so s1 and s2 are not both ZERO
    if s1 != ZERO:
        b1, other, s_other = (s1, 0), (0, 1), s2
    else:
        b1, other, s_other = (0, s2), (1, 0), s1
    if s_other == PLUS:
        return (b1, other)
    # other is on the line or on the wrong side: b1 - other is strictly positive
    b2 = (b1[0] - other[0], b1[1] - other[1])
    return (b1, b2)


def perp_primitive(L: GramLattice, alpha: LatVec) -> LatVec:
    """Primitive integer vector spanning the rational orthogonal complement
    of alpha, oriented with first nonzero coordinate positive."""
    if alpha == (0, 0):
        raise ParavoaError("alpha must be nonzero")
    g = L.gram
    w = (
        alpha[0] * g[0][0] + alpha[1] * g[1][0],
        alpha[0] * g[0][1] + alpha[1] * g[1][1],
    )
    return _primitivize((-w[1], w[0]))
