"""Submonoid descriptors, membership, the type-I/type-II classification
dichotomy, Borel-type construction, constructive saturation witnesses, and
the paper's sufficient test for C1-cofiniteness.

Descriptors are finite: a half-plane direction gamma, a basis cone, or an
explicit generator list.  A half-plane descriptor is decided by one integer
normal pair (p, q): v is on the positive side of gamma when
p.v + (q.v)*sqrt(D) > 0.  `validate` returns that pair, so `member`
validates and decides with integers only.  A generator list is decided
exactly, also in integers, by `_compile`: the functionals that span the
dual of the generators' cone, whose signs reject a point outside the cone;
their sum, which is positive off the cone's lineality; and the group the
generators on that lineality span.  A descriptor is checked once per
lattice: the lattice and the answer on it are kept in the instance, and a
generator list is compiled once, on first use.  A failed check is not
kept, so it raises every time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .lattice import (
    GramLattice,
    HVec,
    LatVec,
    MINUS,
    PLUS,
    ZERO,
    ParavoaError,
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
)

__all__ = [
    "MonoidDescriptor",
    "ClassificationReport",
    "member",
    "classify",
    "parabolic",
    "borel_in",
    "saturate_witnesses",
    "C1Report",
    "c1_decide",
]

TYPE_I = "TYPE_I"
TYPE_II = "TYPE_II"
CONIC = "CONIC"
OTHER = "OTHER"

# the field each descriptor kind is read from
_NEEDS = {"type1": "gamma", "type2": "gamma", "cone": "cone", "generators": "generators"}


@dataclass(frozen=True)
class MonoidDescriptor:
    kind: str  # "type1" | "type2" | "cone" | "generators"
    gamma: Optional[HVec] = None
    cone: Optional[tuple[LatVec, LatVec]] = None
    generators: tuple[LatVec, ...] = ()
    _checked = None  # (L, validate's answer on L), set when a check passes

    def boundary_alpha(self, L: GramLattice) -> Optional[LatVec]:
        """Primitive generator of P(gamma) meeting L, with the fixed orientation."""
        if self.gamma is None:
            return None
        return line_intersection(L, self.gamma)

    def validate(self, L: GramLattice):
        """Check the descriptor on L; return gamma's normal pair (p, q, D) for
        a half-plane kind and None for the others."""
        last = self._checked
        if last is not None and (last[0] is L or last[0] == L):
            return last[1]
        n = None
        if self.kind in ("type1", "type2"):
            if self.gamma is None:
                raise ParavoaError(f"{self.kind} descriptor needs gamma")
            n = _normal(L, self.gamma)
            if self.kind == "type2" and _line(n) is None:
                raise ParavoaError(
                    "type-II requires the hyperplane to meet the lattice in a line"
                )
        elif self.kind == "cone":
            a1, a2 = self.cone
            if a1[0] * a2[1] - a1[1] * a2[0] == 0:
                raise ParavoaError("cone generators must be independent")
        elif self.kind == "generators":
            if not self.generators:
                raise ParavoaError("empty generator list")
        else:
            raise ParavoaError(f"unknown descriptor kind {self.kind!r}")
        object.__setattr__(self, "_checked", (L, n))
        return n

    @cached_property
    def _compiled(self) -> tuple:
        """_compile(generators), on first use: it depends on nothing else."""
        return _compile(self.generators)

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
            raise ParavoaError(f"expected a JSON object, got {obj!r}")
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in _NEEDS:
            raise ParavoaError(f"kind: expected one of {', '.join(_NEEDS)}, got {kind!r}")
        if _NEEDS[kind] not in obj:
            raise ParavoaError(f"{_NEEDS[kind]}: required by kind {kind!r}")
        gamma = None
        if "gamma" in obj:
            gamma = _json_pair(obj["gamma"], "gamma",
                               lambda x, what: _json_scalar(x, what, L.D))
        cone = None
        if "cone" in obj:
            cone = _json_pair(obj["cone"], "cone", _json_pair)
        gens = obj.get("generators", [])
        if not isinstance(gens, list):
            raise ParavoaError(f"generators: expected a list, got {gens!r}")
        gens = tuple(_json_pair(v, "generators") for v in gens)
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


def member(L: GramLattice, P: MonoidDescriptor, v: LatVec) -> bool:
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
    # generators: outside the real cone, some functional of its dual is
    # negative on v.  Inside, v = lam + (positive generators), lam in the
    # lineality group; each positive generator raises f by at least 1, so
    # classes mod the group with f at most f(v) are all the search needs
    duals, f, lam, pos = P._compiled
    if any(c[0] * v[0] + c[1] * v[1] < 0 for c in duals):
        return False
    top = f[0] * v[0] + f[1] * v[1]
    target = _reduce(v, lam)
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier and target not in seen:
        new = []
        for p in frontier:
            for g in pos:
                q = _reduce((p[0] + g[0], p[1] + g[1]), lam)
                if q not in seen and f[0] * q[0] + f[1] * q[1] <= top:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return target in seen


def _compile(gens) -> tuple[list[LatVec], LatVec, tuple[int, int, int],
                           list[LatVec]]:
    """The generated monoid in integers: the candidates +-perp(s) and s, for
    s a generator, that are >= 0 on every generator; their sum f, which is
    zero on the lineality of the generators' cone and positive elsewhere on
    it; the Hermite form of the group the generators with f = 0 span (they
    span the monoid's part on the lineality, which is a group); and the
    generators with f > 0.

    The candidates span the dual cone: a boundary ray s of the cone gives
    its inward normal, and on a ray, where +-perp(s) cancel, s itself
    counts.  So v lies in the real cone exactly when each is >= 0 on v, and
    f lies in the relative interior of the dual cone."""
    duals = [c for s in gens for c in ((-s[1], s[0]), (s[1], -s[0]), s)
             if all(c[0] * g[0] + c[1] * g[1] >= 0 for g in gens)]
    f = (sum(c[0] for c in duals), sum(c[1] for c in duals))
    at = [(f[0] * g[0] + f[1] * g[1], g) for g in gens]
    return duals, f, _hermite(g for h, g in at if h == 0), [g for h, g in at if h > 0]


def _hermite(vecs) -> tuple[int, int, int]:
    """(a, b, d) with Z-span(vecs) = Z(a, b) + Z(0, d): a, d >= 0, b = 0
    when a = 0, and 0 <= b < d when d > 0."""
    a = b = d = 0
    for x, y in vecs:
        g, s, t = _ext_gcd(a, x)
        if g:
            # rows s(a, b) + t(x, y) = (g, .) and (x/g)(a, b) - (a/g)(x, y)
            # = (0, .) span what (a, b) and (x, y) span: det = -1
            a, b, d = g, s * b + t * y, math.gcd(d, (x * b - a * y) // g)
        else:
            d = math.gcd(d, y)
    return a, (b % d if d else b), d


def _reduce(v: LatVec, lam: tuple[int, int, int]) -> LatVec:
    """The representative of v mod the Hermite form lam = (a, b, d): first
    coordinate in [0, a) when a > 0, second in [0, d) when d > 0."""
    a, b, d = lam
    x, y = v
    if a:
        k = x // a
        x, y = x - k * a, y - k * b
    return (x, y % d if d else y)


def _ideal(L: GramLattice, P: MonoidDescriptor,
           rep: ClassificationReport) -> Callable[[LatVec], bool]:
    """The test of v in the ideal S of the parabolic P, given P's
    classification: P minus 0 for type I, the open positive side of gamma
    for type II, whose normal pair is built once, here."""
    if rep.type == TYPE_I:
        return lambda v: v != (0, 0) and member(L, P, v)
    n = _normal(L, rep.gamma)
    return lambda v: _side_of(n, v) == PLUS


def borel_in(L: GramLattice, gamma: HVec) -> MonoidDescriptor:
    """The unique Borel-type submonoid inside the closed positive half-plane
    of gamma, as a type-I descriptor (boundary ray fixed by orientation)."""
    d = MonoidDescriptor(kind="type1", gamma=gamma)
    d.validate(L)
    return d


def classify(
    L: GramLattice, P: MonoidDescriptor, box_radius: Optional[int] = None
) -> ClassificationReport:
    """Type and boundary data of P, exact for every kind.  box_radius is
    accepted for callers that still pass one, and ignored."""
    n = P.validate(L)
    if n is not None:
        return ClassificationReport(
            is_parabolic=True, type=TYPE_I if P.kind == "type1" else TYPE_II,
            alpha=_line(n), gamma=P.gamma,
        )
    if P.kind == "cone":
        # a basis cone never contains a Borel-type submonoid
        return ClassificationReport(is_parabolic=False, type=CONIC)
    return _classify_generators(L, P)


def parabolic(L: GramLattice, P: MonoidDescriptor) -> ClassificationReport:
    """P's classification; ParavoaError unless P is parabolic, which every
    module, fusion, Zhu and C1 construction needs."""
    rep = classify(L, P)
    if not rep.is_parabolic:
        raise ParavoaError("P must be parabolic")
    return rep


class C1Report(NamedTuple):
    # COFINITE | NOT_COFINITE | CONDITION_FAILED, from alpha's basis partners
    # in P out to the sup norm of the two next to the line's point nearest 0;
    # a named tuple, which the geometry commands build at import for a
    # fraction of a dataclass's cost
    verdict: str
    witness_basis: Optional[tuple[LatVec, LatVec]] = None
    condition_values: Optional[tuple[int, int, int, int]] = None  # (n, k, l, value)

    def to_json(self) -> dict:
        obj: dict = {"verdict": self.verdict}
        if self.witness_basis:
            obj["witness"] = [list(v) for v in self.witness_basis]
        if self.condition_values:
            n, k, l, val = self.condition_values
            obj["condition"] = {"n": n, "k": k, "l": l, "value": val}
        return obj


def c1_decide(L: GramLattice, P: MonoidDescriptor) -> C1Report:
    """The paper's sufficient test n^2 + l^2 - 4lk <= 0 for C1-cofiniteness
    of V_P on the bases (alpha, beta) of L with beta in P, n = (alpha|beta),
    scanned by (sup norm, |n|, beta).  The line through alpha bounds P, so
    those beta are b0 + k*alpha with det[alpha, b0] = +-1 and b0 in P, and
    n = c + k*(alpha|alpha).  As n^2 = (alpha|alpha)(beta|beta) - det L, the
    value for n != 0 is min(N_alpha, N_beta)^2 - det L (N = norm/2), one
    value for all beta with N_beta >= N_alpha.  The beta with N_beta <
    N_alpha or n = 0 have |n| < (alpha|alpha), so they are at the two k next
    to -c/(alpha|alpha); past the sup norm of those two no beta changes the
    verdict, the witness or the best condition, and the scan stops there."""
    rep = parabolic(L, P)
    if rep.type == TYPE_I:
        return C1Report(verdict="NOT_COFINITE")
    alpha = rep.alpha
    (a1, a2), (_, x, y) = alpha, _ext_gcd(*alpha)  # det[alpha, (-y, x)] = 1
    b1, b2 = (-y, x) if member(L, P, (-y, x)) else (y, -x)
    c, N2 = L.inner_int(alpha, (b1, b2)), L.norm(alpha)
    sup = lambda k: max(abs(b1 + k * a1), abs(b2 + k * a2))
    R = max(sup(-(c // N2)), sup(-c // N2))
    # |b0 + k*alpha| >= |k|*|alpha| - |b0| in the sup norm
    K = (R + max(abs(b1), abs(b2))) // max(abs(a1), abs(a2))
    best = None
    # smallest first, orthogonal pairings preferred: witnesses come out
    # small and deterministic
    for r, n, beta in sorted((sup(k), abs(c + k * N2), (b1 + k * a1, b2 + k * a2))
                             for k in range(-K, K + 1)):
        if r > R:
            break
        if n == 0:  # an orthogonal pairing: (n, N_beta, N_alpha, 0)
            values = (0, L.norm(beta) // 2, N2 // 2, 0)
        else:
            l, k = sorted((N2 // 2, L.norm(beta) // 2))
            values = (n, k, l, n * n + l * l - 4 * l * k)
        if values[3] <= 0:
            return C1Report(verdict="COFINITE", witness_basis=(alpha, beta),
                            condition_values=values)
        if best is None or values[3] < best[3]:
            best = values
    return C1Report(verdict="CONDITION_FAILED", condition_values=best)


def _classify_generators(L: GramLattice, P: MonoidDescriptor) -> ClassificationReport:
    """All of L when the lineality group is Z^2.  Type II when it is Z*alpha
    with alpha primitive and a positive generator s has det[alpha, s] = +-1:
    alpha and s are then a basis, so every lattice point on the positive
    side is reached.  Never type I: a type-I monoid needs infinitely many
    generators at height one over its boundary ray."""
    _, _, (a, b, d), pos = P._compiled
    if a * d == 1:
        # the note stays: classify's stdout is promised byte-stable
        return ClassificationReport(is_parabolic=False, type=OTHER,
                                    witnesses={"note": "closure fills the box"})
    if a * d == 0 and math.gcd(a, b, d) == 1:
        alpha = (a, b) if d == 0 else (0, d)
        a0 = min(alpha, (-alpha[0], -alpha[1]))
        for s in pos:
            sign = a0[0] * s[1] - a0[1] * s[0]
            if sign in (1, -1):
                # gamma = sign * (-w1, w0) with w = G a0 is orthogonal to a0,
                # and (gamma|s) = sign * det(G) * det[a0, s] = det(G) > 0
                g = L.gram
                w = (a0[0] * g[0][0] + a0[1] * g[1][0],
                     a0[0] * g[0][1] + a0[1] * g[1][1])
                gamma = L.hvec(-sign * w[1], sign * w[0])
                return classify(L, MonoidDescriptor(kind="type2", gamma=gamma))
    return ClassificationReport(is_parabolic=False, type=OTHER)


def saturate_witnesses(
    L: GramLattice, gamma: HVec, alpha: LatVec
) -> tuple[LatVec, LatVec]:
    """Witness pair (beta, beta') for the saturation argument: both strictly
    on the positive side of gamma, each forming a basis with alpha, and on
    opposite sides of the line R*alpha: det[alpha, beta] = +1 and
    det[alpha, beta'] = -1."""
    if alpha == (0, 0) or not is_primitive(alpha):
        raise ParavoaError("alpha must be primitive")
    normal = _normal(L, gamma)
    if _side_of(normal, alpha) != MINUS:
        raise ParavoaError("alpha must lie strictly on the negative side")
    a1, a2 = halfplane_basis(L, gamma)
    # alpha = m*a1 + n*a2 in the half-plane basis; m*y0 - n*x0 = g0 = +-1
    m, n = (int(x) for x in _cramer(a1, a2, alpha))
    det = a1[0] * a2[1] - a1[1] * a2[0]
    g0, x0, y0 = _ext_gcd(-n, m)
    assert g0 in (1, -1)

    def pick(rhs: int) -> LatVec:
        # solve m*y - n*x = rhs, so det[alpha, beta] = rhs * det[a1, a2]
        x, y = x0 * g0 * rhs, y0 * g0 * rhs
        b = (x * a1[0] + y * a2[0], x * a1[1] + y * a2[1])
        # shifting b by -alpha keeps the determinant and raises (gamma|b) by
        # -(gamma|alpha) > 0, so the first j >= 0 with b - j*alpha on the
        # positive side is found by doubling and bisection: j is in (lo, hi]
        at = lambda j: (b[0] - j * alpha[0], b[1] - j * alpha[1])
        lo, hi = -1, 0
        while _side_of(normal, at(hi)) != PLUS:
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _side_of(normal, at(mid)) == PLUS else (mid, hi)
        return at(hi)

    # det[a1, a2] = +/-1 for the basis a1, a2
    return pick(det), pick(-det)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y
