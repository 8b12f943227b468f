"""Module registries, truncated characters, fusion rules, and C1 quotient
dimensions.  The C1-cofiniteness decision procedure is monoid's, which
needs only lattice and monoid arithmetic; C1Report and c1_decide are
re-exported here.

Irreducible-module families are uncountable; the registry returns honest
finite samples (rational Heisenberg parameters only) plus the discrete
coset index.  Characters are graded-dimension q-series anchored at the
bottom conformal weight, with no modular (-c/24) normalization.

Every lattice is even, so the algebra weights (v|v)/2 of V_L, V_P, V_H and
M(1) are integers: their characters grade by int, and Fraction enters
only in QSeries.build, once per kept exponent.  A module's weight is a
Fraction from irreducibles on, but fusion decides t1 + t2 = t3 in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactnum import QuadScalar
from .fock import FockSpace, FockState, Selector
from .lattice import (
    GramLattice,
    HVec,
    LatVec,
    ParavoaError,
    inner,
    perp_primitive,
)
from .linalg import quotient_dimension
from . import monoid
from .monoid import MonoidDescriptor, parabolic
from .vertexops import TruncationCtx, _translate, _unit, exp_mode, heis_mode

__all__ = [
    "ModuleLabel",
    "QSeries",
    "C1Report",
    "irreducibles",
    "character",
    "check_tensor_character",
    "fusion",
    "fusion_key",
    "c1_decide",
    "c1_quotient_dims",
    "Selector",
]

# the C1 decision needs only lattice and monoid arithmetic, so it is monoid's
C1Report, c1_decide = monoid.C1Report, monoid.c1_decide

TYPE_I_MOD = "TYPE_I_MOD"
TYPE_II_MOD = "TYPE_II_MOD"


@dataclass(frozen=True)
class ModuleLabel:
    kind: str
    alpha: Optional[LatVec] = None
    N: Optional[int] = None
    lam: Optional[HVec] = None  # type I
    t: Optional[Fraction] = None  # type II: mu = t * beta
    i: Optional[int] = None  # type II: coset index mod 2N
    h: object = None  # bottom conformal weight

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.lam is not None:
            obj["lambda"] = [x.to_json() for x in self.lam]
        if self.t is not None:
            obj["t"] = str(self.t)
        if self.i is not None:
            obj["i"] = self.i
        if self.N is not None:
            obj["N"] = self.N
        if self.h is not None:
            obj["h"] = self.h.to_json() if isinstance(self.h, QuadScalar) else str(self.h)
        return obj


@dataclass(frozen=True)
class QSeries:
    terms: tuple  # sorted tuple of (Fraction exponent, int coefficient)
    cap: Fraction

    @classmethod
    def build(cls, d: dict, cap) -> "QSeries":
        """d maps exponents (ints or Fractions) to coefficients; the raw keys
        are sorted, and each kept one becomes one Fraction."""
        cap = Fraction(cap)
        return cls(terms=tuple((Fraction(e), int(c)) for e, c in sorted(d.items())
                               if c and e <= cap), cap=cap)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def coeff(self, e) -> int:
        return self.as_dict().get(Fraction(e), 0)

    def mul(self, other: "QSeries") -> "QSeries":
        cap = min(self.cap, other.cap)
        out: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if e <= cap:
                    out[e] = out.get(e, 0) + c1 * c2
        return QSeries.build(out, cap)

    def to_json(self) -> list:
        return [{"exp": str(e), "dim": c} for e, c in self.terms]


def _colored_partitions(colors: int, cap: int) -> list[int]:
    counts = [1] + [0] * cap
    for part in range(1, cap + 1):
        for _ in range(colors):
            for m in range(part, cap + 1):
                counts[m] += counts[m - part]
    return counts


def irreducibles(L: GramLattice, P: MonoidDescriptor, sample_params: dict) -> list:
    """Finite sample of the irreducible-module families attached to (L, P):
    type I at the weights "lams", type II at the parameters "ts" (default 0)
    and the coset indices "is" (default all; one outside 0..2N-1 gives none)."""
    rep = parabolic(L, P)
    out = []
    if rep.type == "TYPE_I":
        for lam in sample_params.get("lams", ()):
            lamv = tuple(x if isinstance(x, QuadScalar) else L.scalar(x) for x in lam)
            h = inner(L, lamv, lamv) * Fraction(1, 2)
            out.append(ModuleLabel(kind=TYPE_I_MOD, lam=lamv, h=h))
        return out
    alpha = rep.alpha
    beta = perp_primitive(L, alpha)
    twoN = L.norm(alpha)
    N = twoN // 2
    for t in sample_params.get("ts", (Fraction(0),)):
        t = Fraction(t)
        h0 = t * t * Fraction(L.norm(beta), 2)
        for i in sample_params.get("is", range(twoN)):
            if not 0 <= i < twoN:
                continue
            h = h0 + Fraction(i * i, 4 * N)
            out.append(ModuleLabel(kind=TYPE_II_MOD, alpha=alpha, N=N, t=t, i=i, h=h))
    return out


def _theta_line(norm: int, shift: Fraction, cap) -> dict:
    """Exponent multiset of q^{(m+shift)^2 norm/2}, m in Z, up to cap: the
    bottom weights of a coset of a rank-one lattice of the given norm.  With
    shift = p/q and cap = a/b that is (mq + p)^2 norm / 2q^2, kept when
    (mq + p)^2 norm b <= 2q^2 a, so exactly when |mq + p| <= r below."""
    p, q = shift.numerator, shift.denominator
    a, b = cap.numerator, cap.denominator
    if a < 0:
        return {}
    den = 2 * q * q
    r = math.isqrt(den * a // (norm * b))
    out: dict = {}
    for m in range(-((r + p) // q), (r - p) // q + 1):
        e = Fraction((m * q + p) ** 2 * norm, den)
        out[e] = out.get(e, 0) + 1
    return out


def _dress(bottoms: dict, colors: int, cap) -> QSeries:
    """sum_e c_e q^e (bottoms maps each exponent e to c_e) times the
    colored-partition series prod_k (1 - q^k)^-colors, up to cap.  Each
    bottom is bounded once, by e + n <= cap for n <= floor(cap - e), so an
    int bottom (an algebra weight) adds only ints."""
    low = min(bottoms, default=cap)
    parts = _colored_partitions(colors, max(0, math.floor(cap - low)))
    out: dict = {}
    for e, c in bottoms.items():
        for n in range(math.floor(cap - e) + 1):
            out[e + n] = out.get(e + n, 0) + c * parts[n]
    return QSeries.build(out, cap)


def character(obj, cap) -> QSeries:
    """Graded dimensions by conformal weight, up to the exponent cap."""
    cap = Fraction(cap)
    if isinstance(obj, ModuleLabel):
        if obj.kind == TYPE_I_MOD:
            hh = obj.h
            if isinstance(hh, QuadScalar):
                if not hh.is_rational():
                    raise ValueError("character needs a rational bottom weight")
                hh = hh.as_fraction()
            return _dress({hh: 1}, 2, cap)
        # type II: rank-1 Heisenberg x coset of the boundary line
        h0 = obj.h - Fraction(obj.i * obj.i, 4 * obj.N)
        theta = _theta_line(2 * obj.N, Fraction(obj.i, 2 * obj.N), cap - h0)
        return _dress({h0 + e: c for e, c in theta.items()}, 2, cap)
    if not isinstance(obj, Selector):
        raise TypeError("character expects a ModuleLabel or Selector")
    # the weight (v|v)/2 of e^v is an int: every GramLattice is even
    norm = obj.L.norm
    bottoms: dict = {}
    for v in obj.labels(cap):
        h0 = norm(v) // 2
        bottoms[h0] = bottoms.get(h0, 0) + 1
    return _dress(bottoms, 2, cap)


def check_tensor_character(L: GramLattice, alpha: LatVec, cap) -> dict:
    """Character of the half-lattice subalgebra vs the product of its two
    tensor factors; exact equality of every coefficient up to cap."""
    cap = Fraction(cap)
    lhs = character(Selector(kind="V_H", L=L, alpha=alpha), cap)
    # the rank-one Heisenberg algebra times the rank-one lattice Z*alpha
    rhs = _dress({Fraction(0): 1}, 1, cap).mul(
        _dress(_theta_line(L.norm(alpha), Fraction(0), cap), 1, cap))
    equal = lhs.terms == rhs.terms
    return {
        "check": "tensor_character",
        "cap": str(cap),
        "equal": equal,
        "lhs": lhs.to_json(),
        "rhs": rhs.to_json(),
    }


def fusion_key(m1: ModuleLabel, m2: Optional[ModuleLabel] = None):
    """What fusion compares: lam for a type-I module and (i mod 2N, t) for
    a type-II one; given m2 too, the key of m1 x m2, the sum of the two."""
    if m1.kind == TYPE_I_MOD:
        return m1.lam if m2 is None else tuple(a + b for a, b in zip(m1.lam, m2.lam))
    if m2 is None:
        return (m1.i % (2 * m1.N), m1.t)
    return ((m1.i + m2.i) % (2 * m1.N), m1.t + m2.t)


def fusion(m1: ModuleLabel, m2: ModuleLabel, m3: ModuleLabel) -> int:
    """1 when m1 x m2 -> m3 is nonzero, as the key of m1 x m2 is m3's, else 0.
    For type II that is i1 + i2 = i3 mod 2N and t1 + t2 = t3, both decided
    in integers: with t = n/d, the second is n1 d2 d3 + n2 d1 d3 = n3 d1 d2."""
    if not m1.kind == m2.kind == m3.kind:
        kinds = ", ".join(sorted({m1.kind, m2.kind, m3.kind}))
        raise ParavoaError(f"mixed module kinds {kinds}")
    if m1.kind != TYPE_II_MOD:
        return 1 if fusion_key(m1, m2) == fusion_key(m3) else 0
    if not (m1.alpha == m2.alpha == m3.alpha and m1.N == m2.N == m3.N):
        raise ParavoaError("labels must share the same lattice data")
    if (m1.i + m2.i - m3.i) % (2 * m1.N):
        return 0  # the coset indices differ: most triples stop here
    n1, d1 = m1.t.as_integer_ratio()
    n2, d2 = m2.t.as_integer_ratio()
    n3, d3 = m3.t.as_integer_ratio()
    return 1 if (n1 * d2 + n2 * d1) * d3 == n3 * d1 * d2 else 0


def _strongly_indecomposable(L: GramLattice, labels) -> list[LatVec]:
    """The labels lam != 0 of the set that are not mu + nu with mu, nu in
    the set minus 0 and (mu|nu) >= 0.  Every other nonzero label is such a
    sum, and then e^{mu+nu} = +-e^mu_{-(mu|nu)-1} e^nu, so the e^lam kept
    here and the h_i(-1) strongly generate the label set's algebra."""
    rest = {v for v in labels if any(v)}

    def splits(lam):
        for mu in rest:
            nu = (lam[0] - mu[0], lam[1] - mu[1])
            if nu in rest and L.inner_int(mu, nu) >= 0:
                return True
        return False

    return [lam for lam in labels if lam in rest and not splits(lam)]


def c1_quotient_dims(L: GramLattice, algebra: str, cap: int,
                     ctx: Optional[TruncationCtx] = None,
                     P: Optional[MonoidDescriptor] = None,
                     alpha: Optional[LatVec] = None) -> list[int]:
    """Per-degree dimensions of V / C1(V) for V_H or V_P, by exact rank
    computation over the truncated basis.

    C1(V) is spanned by L(-1)V and the u_{-k}v with u in a strongly
    generating set U, k >= 1 and v of positive degree (Karel and Li,
    J. Algebra 217, 1999).  By induction on k, with k u_{-k-1}v =
    L(-1)u_{-k}v - u_{-k}L(-1)v, every u_{-k}v lies in span{L(-1)w, u_{-1}w'}.
    U is h_1(-1), h_2(-1) and the e^lam of the strongly indecomposable
    labels, so every row is L(-1)v, h_i(-1)v or e^lam_{-1}v for a basis
    word v.  Each row lies in one (degree, label) block, and the blocks are
    eliminated one at a time."""
    if ctx is not None:
        ctx.check(cap)
    if algebra not in ("V_H", "V_P"):
        raise ValueError(f"unknown algebra {algebra!r}")
    sp = FockSpace.full_lattice(L)
    labels = Selector(algebra, L, P, alpha).labels(cap)
    by_deg = {d: sp.basis(d, labels=labels) for d in range(cap + 1)}
    units = [_unit(sp, i) for i in range(sp.rank)]
    gens = [(lam, L.norm(lam) // 2) for lam in _strongly_indecomposable(L, labels)]
    dims = []
    for d in range(cap + 1):
        rows: dict = {}
        if d >= 2:
            for v in by_deg[d - 1]:
                r = rows.setdefault(v.label, [])
                r.append(_translate(sp, v))
                r.extend(heis_mode(sp, h, -1, FockState.of(v)) for h in units)
        for lam, dl in gens:
            if d - dl < 1:
                continue
            for v in by_deg[d - dl]:
                lab = (lam[0] + v.label[0], lam[1] + v.label[1])
                rows.setdefault(lab, []).append(exp_mode(sp, lam, -1, FockState.of(v)))
        blocks: dict = {}
        for w in by_deg[d]:
            blocks.setdefault(w.label, []).append(w)
        dims.append(sum(quotient_dimension(words, rows.get(lab, ()))
                        for lab, words in blocks.items()))
    return dims
