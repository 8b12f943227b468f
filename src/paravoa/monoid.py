"""Submonoid descriptors, membership, the type-I/type-II classification
dichotomy, Borel-type construction, and constructive saturation witnesses.

Descriptors are finite: a half-plane direction gamma, a basis cone, or an
explicit generator list whose classification is box-relative.  A half-plane
descriptor is decided by one integer normal pair (p, q): v is on the
positive side of gamma when p.v + (q.v)*sqrt(D) > 0.  `validate` returns
that pair, so `member` validates and decides with integers only; the pair
is rebuilt on each call rather than cached, which costs a few integer
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .lattice import (
    GramLattice,
    HVec,
    LatVec,
    MINUS,
    PLUS,
    ZERO,
    DependentGenerators,
    _cramer,
    _json_pair,
    _json_scalar,
    _line,
    _normal,
    _side_of,
    cone_member,
    halfplane_basis,
    is_primitive,
    line_intersection,
    side,
)

__all__ = [
    "MonoidDescriptor",
    "ClassificationReport",
    "Inconclusive",
    "SearchBudgetExceeded",
    "PreconditionViolated",
    "member",
    "classify",
    "borel_in",
    "saturate_witnesses",
    "closure_box",
]

TYPE_I = "TYPE_I"
TYPE_II = "TYPE_II"
CONIC = "CONIC"
OTHER = "OTHER"

# the field each descriptor kind is read from
_NEEDS = {"type1": "gamma", "type2": "gamma", "cone": "cone", "generators": "generators"}


class Inconclusive(RuntimeError):
    pass


class SearchBudgetExceeded(RuntimeError):
    pass


class PreconditionViolated(ValueError):
    pass


@dataclass(frozen=True)
class MonoidDescriptor:
    kind: str  # "type1" | "type2" | "cone" | "generators"
    gamma: Optional[HVec] = None
    cone: Optional[tuple[LatVec, LatVec]] = None
    generators: tuple[LatVec, ...] = ()

    def boundary_alpha(self, L: GramLattice) -> Optional[LatVec]:
        """Primitive generator of P(gamma) meeting L, with the fixed orientation."""
        if self.gamma is None:
            return None
        return line_intersection(L, self.gamma)

    def validate(self, L: GramLattice):
        """Check the descriptor on L; return gamma's normal pair (p, q, D) for
        a half-plane kind and None for the others."""
        if self.kind in ("type1", "type2"):
            if self.gamma is None:
                raise PreconditionViolated(f"{self.kind} descriptor needs gamma")
            n = _normal(L, self.gamma)
            if self.kind == "type2" and _line(n) is None:
                raise PreconditionViolated(
                    "type-II requires the hyperplane to meet the lattice in a line"
                )
            return n
        if self.kind == "cone":
            a1, a2 = self.cone
            if a1[0] * a2[1] - a1[1] * a2[0] == 0:
                raise DependentGenerators("cone generators must be independent")
        elif self.kind == "generators":
            if not self.generators:
                raise PreconditionViolated("empty generator list")
        else:
            raise PreconditionViolated(f"unknown descriptor kind {self.kind!r}")
        return None

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.gamma is not None:
            obj["gamma"] = [self.gamma[0].to_json(), self.gamma[1].to_json()]
        if self.cone is not None:
            obj["cone"] = [list(self.cone[0]), list(self.cone[1])]
        if self.generators:
            obj["generators"] = [list(v) for v in self.generators]
        return obj

    @classmethod
    def from_json(cls, obj: dict, L: GramLattice) -> "MonoidDescriptor":
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {obj!r}")
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in _NEEDS:
            raise ValueError(f"kind: expected one of {', '.join(_NEEDS)}, got {kind!r}")
        if _NEEDS[kind] not in obj:
            raise ValueError(f"{_NEEDS[kind]}: required by kind {kind!r}")
        gamma = None
        if "gamma" in obj:
            gamma = _json_pair(obj["gamma"], "gamma",
                               lambda x, what: _json_scalar(x, what, L.D))
        cone = None
        if "cone" in obj:
            cone = _json_pair(obj["cone"], "cone", _json_pair)
        gens = tuple(_json_pair(v, "generators") for v in obj.get("generators", ()))
        return cls(kind=kind, gamma=gamma, cone=cone, generators=gens)


@dataclass(frozen=True)
class ClassificationReport:
    is_parabolic: bool
    type: str
    alpha: Optional[LatVec] = None
    gamma: Optional[HVec] = None
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        obj = {"parabolic": self.is_parabolic, "type": self.type}
        if self.alpha is not None:
            obj["alpha"] = list(self.alpha)
        if self.gamma is not None:
            obj["gamma"] = [self.gamma[0].to_json(), self.gamma[1].to_json()]
        if self.witnesses:
            obj["witnesses"] = self.witnesses
        return obj


def member(
    L: GramLattice, P: MonoidDescriptor, v: LatVec, budget: int = 32
) -> bool:
    n = P.validate(L)
    if P.kind == "type1":
        s = _side_of(n, v)
        if s != ZERO:
            return s == PLUS
        # on the line: the ray Z_{>=0} * alpha, or only 0 when alpha is None
        alpha = _line(n)
        return alpha is None or v[0] * alpha[0] + v[1] * alpha[1] >= 0
    if P.kind == "type2":
        return _side_of(n, v) != MINUS
    if P.kind == "cone":
        return cone_member(P.cone[0], P.cone[1], v) is not None
    # generators: bounded saturation search
    r = max(abs(v[0]), abs(v[1]), 1)
    if r > budget:
        raise SearchBudgetExceeded(f"|v| exceeds search budget {budget}")
    return v in closure_box(L, list(P.generators), r)


def _in_ideal(L: GramLattice, P: MonoidDescriptor, rep: ClassificationReport,
              v: LatVec) -> bool:
    """v in the ideal S of the parabolic P, given P's classification: P minus
    0 for type I, the open positive side of gamma for type II."""
    if rep.type == TYPE_I:
        return v != (0, 0) and member(L, P, v)
    return side(L, rep.gamma, v) == PLUS


def closure_box(L: GramLattice, gens: list[LatVec], R: int) -> set[LatVec]:
    """Points of the generated submonoid inside [-R, R]^2, saturating
    nonnegative combinations with intermediates confined to a 3R box."""
    if R < 1:
        raise ValueError("R must be >= 1")
    bound = 3 * R
    reached = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = (p[0] + g[0], p[1] + g[1])
                if abs(q[0]) <= bound and abs(q[1]) <= bound and q not in reached:
                    reached.add(q)
                    new.append(q)
        frontier = new
    return {p for p in reached if abs(p[0]) <= R and abs(p[1]) <= R}


def borel_in(L: GramLattice, gamma: HVec) -> MonoidDescriptor:
    """The unique Borel-type submonoid inside the closed positive half-plane
    of gamma, as a type-I descriptor (boundary ray fixed by orientation)."""
    d = MonoidDescriptor(kind="type1", gamma=gamma)
    d.validate(L)
    return d


def classify(
    L: GramLattice, P: MonoidDescriptor, box_radius: int = 8
) -> ClassificationReport:
    n = P.validate(L)
    if n is not None:
        return ClassificationReport(
            is_parabolic=True, type=TYPE_I if P.kind == "type1" else TYPE_II,
            alpha=_line(n), gamma=P.gamma,
        )
    if P.kind == "cone":
        # a basis cone never contains a Borel-type submonoid
        return ClassificationReport(is_parabolic=False, type=CONIC)
    return _classify_generators(L, P, box_radius)


def _classify_generators(
    L: GramLattice, P: MonoidDescriptor, R: int
) -> ClassificationReport:
    """Match the generated monoid, inside the box, against the two closed
    forms of the dichotomy.  Box-relative: may raise Inconclusive."""
    pts = closure_box(L, list(P.generators), R)
    box = set(L.box(R))
    if pts == box:
        # the whole lattice (at box scale): not a proper submonoid
        return ClassificationReport(is_parabolic=False, type=OTHER,
                                    witnesses={"note": "closure fills the box"})
    # candidate boundary directions: primitive points of the closure
    candidates: list[LatVec] = []
    for p in sorted(pts):
        if p != (0, 0) and math.gcd(abs(p[0]), abs(p[1])) == 1 and p not in candidates:
            candidates.append(p)
    g = L.gram
    for a0 in candidates:
        # gamma orthogonal to a0: gamma perp under G, both orientations
        w = (a0[0] * g[0][0] + a0[1] * g[1][0], a0[0] * g[0][1] + a0[1] * g[1][1])
        for s in (1, -1):
            for kind in ("type2", "type1"):
                d = MonoidDescriptor(kind=kind, gamma=L.hvec(-s * w[1], s * w[0]))
                if all((v in pts) == member(L, d, v) for v in box):
                    return classify(L, d)
    raise Inconclusive(
        f"generated monoid matches neither closed form inside radius {R}"
    )


def saturate_witnesses(
    L: GramLattice, gamma: HVec, alpha: LatVec
) -> tuple[LatVec, LatVec]:
    """Witness pair (beta, beta') for the saturation argument: both strictly
    on the positive side of gamma, each forming a basis with alpha, and on
    opposite sides of the line R*alpha: det[alpha, beta] = +1 and
    det[alpha, beta'] = -1."""
    if alpha == (0, 0) or not is_primitive(alpha):
        raise PreconditionViolated("alpha must be primitive")
    if side(L, gamma, alpha) != MINUS:
        raise PreconditionViolated("alpha must lie strictly on the negative side")
    a1, a2 = halfplane_basis(L, gamma)
    # alpha = m*a1 + n*a2 in the half-plane basis; m*y0 - n*x0 = g0 = +-1
    m, n = (int(x) for x in _cramer(a1, a2, alpha))
    det = a1[0] * a2[1] - a1[1] * a2[0]
    g0, x0, y0 = _ext_gcd(-n, m)
    assert g0 in (1, -1)

    def pick(rhs: int) -> LatVec:
        # solve m*y - n*x = rhs, so det[alpha, beta] = rhs * det[a1, a2]
        x, y = x0 * g0 * rhs, y0 * g0 * rhs
        beta = (x * a1[0] + y * a2[0], x * a1[1] + y * a2[1])
        # shifting beta by -alpha keeps the determinant and raises
        # (gamma|beta) by -(gamma|alpha) > 0
        while side(L, gamma, beta) != PLUS:
            beta = (beta[0] - alpha[0], beta[1] - alpha[1])
        return beta

    # det[a1, a2] = +/-1 for the basis a1, a2
    return pick(det), pick(-det)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y
