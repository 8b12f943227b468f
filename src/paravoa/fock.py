"""Graded Fock bases and exact sparse states.

Basis words are b_{i1}(-n1)...b_{ik}(-nk) e^label with modes in a fixed
h-basis and the label a lattice point.  Mode directions are the lattice
basis itself, so all structure constants stay rational; orthonormalization
shows up only inside the conformal vector.

This module alone knows the engine's coefficient type: `_coefficient`
builds a coefficient from ints and `_rational` reads one out, for the mode
engine and the elimination alike.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .exactnum import ONE, ZERO, QuadScalar, _make, _parts
from .lattice import GramLattice, LatVec, _cramer
from .monoid import MonoidDescriptor, member

__all__ = [
    "BasisWord",
    "FockState",
    "FockSpace",
    "FULL_L",
    "MONOID",
    "Selector",
    "enumerate_basis",
    "make_word",
]

FULL_L = "FULL_L"


@dataclass(frozen=True)
class MONOID:
    P: MonoidDescriptor


class BasisWord(NamedTuple):
    """Canonical word: modes sorted descending in n (ties by direction).

    A named tuple, so hashing and equality (every dict lookup of a state
    or of the mode cache) run in C."""

    modes: tuple[tuple[int, int], ...]  # (n, direction), n >= 1
    label: tuple

    def mode_degree(self) -> int:
        return sum(n for n, _ in self.modes)

    def to_str(self, names=("a1", "a2")) -> str:
        parts = [f"{names[d]}(-{n})" for n, d in self.modes]
        lab = ",".join(str(x) for x in self.label)
        parts.append(f"e[{lab}]")
        return "".join(parts)


def make_word(modes, label) -> BasisWord:
    ms = tuple(sorted(((int(n), int(d)) for n, d in modes), key=lambda p: (-p[0], p[1])))
    for n, _ in ms:
        if n < 1:
            raise ValueError("word modes must be creation modes b(-n), n >= 1")
    return BasisWord(modes=ms, label=tuple(label))


def _merge(x: tuple, y: tuple) -> tuple:
    """The canonical mode tuple of the product of two canonical ones."""
    out = []
    i = j = 0
    while i < len(x) and j < len(y):
        p, q = x[i], y[j]
        if p[0] > q[0] or (p[0] == q[0] and p[1] <= q[1]):
            out.append(p)
            i += 1
        else:
            out.append(q)
            j += 1
    return tuple(out) + x[i:] + y[j:]


def _add_into(t: dict, items, c=None) -> None:
    """t += c*y in place, for y given as (key, coefficient) pairs and c None
    meaning 1.  Keys may be any hashable.  Every coefficient of y must be
    nonzero: a key new to t is stored as is, only sums are tested, and
    coefficients that cancel are dropped.  A new key goes to the end of t,
    as `x + y` orders it."""
    if c is not None:
        if not c:
            return
        if c == 1:
            c = None
    get = t.get
    for k, x in items:
        if c is not None:
            x = x * c
        s = get(k)
        if s is None:
            t[k] = x
        else:
            x = s + x
            if x:
                t[k] = x
            else:
                del t[k]


def _adopt(cls, terms: dict):
    """A FockState or TensorState that takes ownership of the dict terms,
    which no one writes to from then on: the mode engine hands its cached
    states out as they are."""
    out = cls.__new__(cls)
    out.terms = terms
    return out


def _coeff(c) -> QuadScalar:
    if isinstance(c, QuadScalar):
        return c
    return ONE if c == 1 else QuadScalar(c)


def _coefficient(n: int, d: int = 1) -> QuadScalar:
    """The engine coefficient n/d, for ints n and d != 0 of either sign."""
    q, r = divmod(n, d)
    return _make(Fraction(n, d) if r else q, 0, 1)


def _rational(c: QuadScalar) -> int | Fraction:
    """The engine coefficient c as an int or a Fraction; ValueError if c is
    irrational."""
    a, b = _parts(c)
    if b:
        raise ValueError(f"{c} is irrational")
    return a


class FockState:
    """Finite linear combination of basis words with QuadScalar coefficients.

    The sparse-state implementation: vertexops.TensorState takes its
    constructor, iteration, truth, arithmetic and equality from here, so
    the arithmetic builds type(self)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        t = {}
        if terms:
            for w, c in terms.items():
                c = _coeff(c)
                if c:
                    t[w] = c
        self.terms = t

    @classmethod
    def of(cls, word: BasisWord, coeff=1) -> "FockState":
        c = _coeff(coeff)
        out = cls.__new__(cls)
        out.terms = {word: c} if c else {}
        return out

    def __bool__(self):
        return bool(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, w: BasisWord) -> QuadScalar:
        return self.terms.get(w, ZERO)

    def __add__(self, other: "FockState") -> "FockState":
        t = dict(self.terms)
        _add_into(t, other.terms.items())
        return _adopt(type(self), t)

    def __sub__(self, other: "FockState") -> "FockState":
        t = dict(self.terms)
        _add_into(t, other.terms.items(), -1)
        return _adopt(type(self), t)

    def scale(self, c) -> "FockState":
        if not isinstance(c, (QuadScalar, int, Fraction)):
            c = QuadScalar(c)
        return _adopt(type(self), {w: x * c for w, x in self.terms.items()}
                      if c else {})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FockState(0)"
        bits = [f"({c})*{w.to_str()}" for w, c in sorted(
            self.terms.items(), key=lambda p: (p[0].label, p[0].modes))]
        return " + ".join(bits)


def _mode_words(rank: int, m: int):
    """All canonical mode tuples of total degree m in `rank` directions."""

    def rec(remaining, max_n, min_dir):
        if remaining == 0:
            yield ()
            return
        for n in range(min(remaining, max_n), 0, -1):
            start = min_dir if n == max_n else 0
            for d in range(start, rank):
                for rest in rec(remaining - n, n, d):
                    yield ((n, d),) + rest

    yield from rec(m, m, 0)


def _labels_up_to(L: GramLattice, maxnorm: int) -> list[LatVec]:
    """All lattice points with (v|v) <= maxnorm, sorted: over each x the
    norm is at least x^2 det / g11, and over each y at least y^2 det / g00.
    The norm g00 x^2 + 2 g01 xy + g11 y^2 is evaluated inline."""
    (g00, g01), (_, g11) = L.gram
    top = max(maxnorm, 0)
    X = math.isqrt(top * g11 // L.det)
    Y = math.isqrt(top * g00 // L.det)
    return [(x, y) for x in range(-X, X + 1) for y in range(-Y, Y + 1)
            if (g00 * x + 2 * g01 * y) * x + g11 * y * y <= maxnorm]


@dataclass(frozen=True)
class Selector:
    """One of the four algebras of a lattice, named by its label set: all of
    L (V_L), the monoid P (V_P), the line Z*alpha (V_H) or 0 alone (M1)."""

    kind: str  # "V_L" | "V_P" | "V_H" | "M1"
    L: GramLattice
    P: Optional[MonoidDescriptor] = None
    alpha: Optional[LatVec] = None

    def labels(self, cap) -> list[LatVec]:
        """The algebra's labels lam with (lam|lam) <= floor(2*cap), sorted."""
        L, P, a = self.L, self.P, self.alpha
        if self.kind == "V_L":
            keep = lambda v: True
        elif self.kind == "M1":
            keep = lambda v: v == (0, 0)
        elif self.kind == "V_P":
            if P is None:
                raise ValueError("V_P selector needs a monoid descriptor")
            keep = lambda v: member(L, P, v)
        elif self.kind == "V_H":
            if a is None:
                raise ValueError("V_H selector needs alpha")
            keep = lambda v: v[0] * a[1] - v[1] * a[0] == 0
        else:
            raise ValueError(f"unknown selector kind {self.kind!r}")
        return [v for v in _labels_up_to(L, math.floor(2 * cap)) if keep(v)]


def enumerate_basis(L: GramLattice, ambient, degree: int) -> list[BasisWord]:
    """All basis words of exact (integer) degree, in a deterministic order,
    with labels in L (FULL_L) or in the monoid P (MONOID(P))."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if ambient != FULL_L and not isinstance(ambient, MONOID):
        raise ValueError(f"unknown ambient {ambient!r}")
    sel = Selector("V_L", L) if ambient == FULL_L else Selector("V_P", L, P=ambient.P)
    return [BasisWord(modes=w, label=v) for v in sel.labels(degree)
            for w in _mode_words(2, degree - L.norm(v) // 2)]


class FockSpace:
    """A Fock module presentation the operator engine can run on.

    Modes live in an r-element h-basis with integer pairwise products
    `mode_gram`; labels are integer combinations of s generator vectors of
    even norm, whose mode-basis coordinates are `gen_coords`.  The cocycle
    is the bilinear sign (-1)^(sum a_i b_j eps_table[i][j]) on labels.  So
    every pairing and degree is an int, and the bookkeeping is integers.
    """

    def __init__(self, mode_gram, gen_coords=(), eps_table=()):
        self.rank = len(mode_gram)
        # operator.index: a Fraction or a float raises TypeError
        self.mode_gram, self.gen_coords, self.eps_table = (
            tuple(tuple(operator.index(x) for x in row) for row in rows)
            for rows in (mode_gram, gen_coords, eps_table))
        self.label_rank = len(self.gen_coords)
        self.zero_label = (0,) * self.label_rank
        # pairings of each label generator with each mode and with each
        # other generator
        self._gen_mode = tuple(
            tuple(sum(g[r] * self.mode_gram[r][i] for r in range(self.rank))
                  for i in range(self.rank)) for g in self.gen_coords)
        self._gen_gen = tuple(tuple(sum(x * y for x, y in zip(row, h))
                                    for h in self.gen_coords) for row in self._gen_mode)
        if any(row[i] % 2 for i, row in enumerate(self._gen_gen)):
            raise ValueError("label generators must have even norm")
        # filled on demand by vertexops' mode engine (modes, and the vacuum
        # series of E^- per label) and by zhu's residue spans
        self._mode_cache: dict = {}
        self._exp_vacua: dict = {}
        self._residue_spans: dict = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def full_lattice(cls, L: GramLattice) -> "FockSpace":
        g = L.gram
        eps = ((0, 0), (g[1][0], 0))  # eps(a_i, a_j) nontrivial only for i > j
        return cls(mode_gram=g, gen_coords=((1, 0), (0, 1)), eps_table=eps)

    @classmethod
    def hyperplane_adapted(cls, L: GramLattice, alpha: LatVec,
                           beta: LatVec) -> "FockSpace":
        """Modes (beta, alpha) with (beta|alpha) = 0; labels Z*alpha."""
        if L.inner_int(alpha, beta) != 0:
            raise ValueError("beta must be orthogonal to alpha")
        mg = ((L.norm(beta), 0), (0, L.norm(alpha)))
        t = alpha[0] * alpha[1] * L.gram[1][0]  # restriction of the ambient sign
        return cls(mode_gram=mg, gen_coords=((0, 1),), eps_table=((t,),))

    @classmethod
    def rank_one_heisenberg(cls, norm) -> "FockSpace":
        return cls(mode_gram=((norm,),))

    @classmethod
    def rank_one_lattice(cls, norm, eps_exp=0) -> "FockSpace":
        return cls(mode_gram=((norm,),), gen_coords=((1,),), eps_table=((eps_exp,),))

    # -- pairings -----------------------------------------------------

    def label_coords(self, label) -> tuple:
        """Mode-basis coordinates of the label vector."""
        out = [0] * self.rank
        for lj, row in zip(label, self.gen_coords):
            for r in range(self.rank):
                out[r] += lj * row[r]
        return tuple(out)

    def pair_coords(self, x, y) -> int:
        r, q = range(self.rank), self.mode_gram
        return sum(x[i] * y[j] * q[i][j] for i in r if x[i] for j in r)

    def label_inner(self, l1, l2) -> int:
        n = 0
        for x, row in zip(l1, self._gen_gen):
            if x:
                for y, g in zip(l2, row):
                    n += x * y * g
        return n

    def pair_label_mode(self, label, i: int) -> int:
        return sum(x * row[i] for x, row in zip(label, self._gen_mode))

    def eps(self, l1, l2) -> int:
        e = 0
        for i, a in enumerate(l1):
            for j, b in enumerate(l2):
                e += a * b * self.eps_table[i][j]
        return -1 if e % 2 else 1

    # -- words and states ---------------------------------------------

    def word(self, modes=(), label=None) -> BasisWord:
        if label is None:
            label = self.zero_label
        return make_word(modes, label)

    def degree(self, w: BasisWord) -> int:
        return w.mode_degree() + self.label_inner(w.label, w.label) // 2

    def state_degree(self, s: FockState):
        """Common degree of a homogeneous state, None if empty."""
        degs = {self.degree(w) for w in s.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("state is not homogeneous")
        return degs.pop()

    def vacuum(self) -> FockState:
        return FockState.of(self.word())

    def exp_state(self, label) -> FockState:
        return FockState.of(self.word((), label))

    def virasoro(self) -> FockState:
        """omega = 1/2 sum_ij (Q^-1)[i][j] b_i(-1) b_j(-1) vac."""
        q = self.mode_gram
        if self.rank == 1:
            inv = ((Fraction(1, q[0][0]),),)
        else:
            # Q is symmetric: column j of Q^-1 solves x*q[0] + y*q[1] = e_j
            inv = [_cramer(q[0], q[1], e) for e in ((1, 0), (0, 1))]
        t: dict = {}
        for i in range(self.rank):
            for j in range(self.rank):
                c = inv[i][j] * Fraction(1, 2)
                if c:
                    _add_into(t, ((self.word(((1, i), (1, j))), QuadScalar(c)),))
        return _adopt(FockState, t)

    def basis(self, degree: int, labels=((),)) -> list[BasisWord]:
        """Words of exact degree with labels drawn from the given tuples."""
        out = []
        for lab in labels:
            m = degree - self.label_inner(lab, lab) // 2
            if m < 0:
                continue
            for w in _mode_words(self.rank, m):
                out.append(BasisWord(modes=w, label=tuple(lab)))
        return out

