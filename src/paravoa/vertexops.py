"""Exact vertex-operator mode actions on lattice Fock modules.

Everything here is exact rational/quadratic arithmetic; no coefficient is
ever silently dropped.  The mode engine takes no ceiling: TruncationCtx
alone holds the rule deg(u_n v) = deg u + deg v - n - 1 <= max_degree, the
checks ask it which modes fit, and a result above the ceiling raises
instead of truncating, so no check is fooled by an over-eager cutoff.

Modes of exponential vectors come from the product form
E^-(-a,z) E^+(-a,z) e_a z^a, each exponential in closed form on a basis
word, a monomial in the creation modes b_d(-n).  a(k) acts as
k (a|b_d) d/d b_d(-k), so E^+ is the translation
b_d(-n) -> b_d(-n) - (a|b_d) z^-n: one pass over the word's modes gives
every power, with no recurrence.  E^- only creates, so it multiplies by
its vacuum series X_N(1), expanded once per label, kept on the space as
integers over a common denominator; a cache miss at e^a_n w fills in
every e^a_n' w, n' >= n.
Modes of dressed words h(-n_1)...h(-n_k) e^a are reduced to those by the
associativity (iterate) recursion for h(-n)-prefixed vectors, which is a
finite sum here because every state in a positive-definite lattice
module has degree >= 0; its annihilations h(j) w are cached as modes of
h(-1)1, since Y(h(-1)1, z) = h(z).

A state is never mutated once made: a mode of one word on one word with
coefficient 1 is the mode cache's own state, handed out as it is, and
every sum is built in a fresh dict.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .fock import (
    BasisWord,
    FockSpace,
    FockState,
    Selector,
    _add_into,
    _adopt,
    _coefficient,
    _merge,
    make_word,
)
from .lattice import GramLattice, LatVec, ParavoaError, perp_primitive
from .monoid import MonoidDescriptor, _ideal, parabolic

__all__ = [
    "TruncationCtx",
    "TruncationOverflow",
    "TensorState",
    "heis_mode",
    "exp_mode",
    "word_mode",
    "state_mode",
    "check_commutator",
    "check_lemma35",
    "check_ideal",
    "phi_map",
    "check_phi_hom",
    "from_tensor",
]


# check_phi_hom refuses, with a ParavoaError, a check of more mode instances
# than this: both of its routes hold one state per mode of a word pair
PHI_HOM_MAX_INSTANCES = 10**6


class TruncationOverflow(ParavoaError):
    """A result degree above the truncation ceiling."""


@dataclass(frozen=True)
class TruncationCtx:
    max_degree: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")

    def fits(self, degree) -> bool:
        """Whether a result of this degree is at most the ceiling."""
        return degree <= self.max_degree

    def check(self, degree) -> None:
        """TruncationOverflow if a result of this degree is above the ceiling."""
        if not self.fits(degree):
            raise TruncationOverflow(
                f"result degree {degree} exceeds ceiling {self.max_degree}")

    def lowest_mode(self, degree) -> int:
        """The least n for which u_n v fits, given degree = deg u + deg v."""
        return math.ceil(degree - 1 - self.max_degree)


def _binom(m: int, j: int) -> int:
    """Binomial coefficient with arbitrary integer top and j >= 0."""
    num = 1
    for i in range(j):
        num *= m - i
    return num // math.factorial(j)


def heis_mode(sp: FockSpace, h, m: int, v: FockState) -> FockState:
    """Action of h(m), with h given by coordinates in sp's mode basis."""
    out: dict = {}
    dirs = [(d, x) for d, x in enumerate(h) if x]
    if m < 0:
        for w, c in v:
            for d, x in dirs:
                nw = BasisWord(_merge(w.modes, ((-m, d),)), w.label)
                _add_into(out, ((nw, c if x == 1 else c * x),))
        return _adopt(FockState, out)
    if m == 0:
        for w, c in v:
            s = sum(x * sp.pair_label_mode(w.label, d) for d, x in dirs)
            if s:
                out[w] = c * s
        return _adopt(FockState, out)
    # m * (h | b_d) per mode direction d, computed when a mode first matches
    pairing: dict = {}
    for w, c in v:
        for idx, (n, d) in enumerate(w.modes):
            if n != m:
                continue
            p = pairing.get(d)
            if p is None:
                p = pairing[d] = m * sum(x * sp.mode_gram[e][d] for e, x in dirs)
            if p:
                rest = BasisWord(w.modes[:idx] + w.modes[idx + 1:], w.label)
                _add_into(out, ((rest, c * p),))
    return _adopt(FockState, out)


def _translate(sp: FockSpace, w: BasisWord) -> FockState:
    """L(-1) w by the translation derivation of the lattice Fock space:
    h(-n) -> n h(-n-1) on each mode and e^lam -> lam(-1) e^lam.  Equal to
    omega_0 w, at the cost of one pass over the word."""
    out: dict = {}
    modes = w.modes
    for i, (n, d) in enumerate(modes):
        raised = BasisWord(_merge(modes[:i] + modes[i + 1:], ((n + 1, d),)), w.label)
        _add_into(out, ((raised, _coefficient(n)),))
    if any(w.label):
        lam = heis_mode(sp, sp.label_coords(w.label), -1, FockState.of(w))
        _add_into(out, lam.terms.items())
    return _adopt(FockState, out)


def _grow_vacuum(sp: FockSpace, a, xs: list, top: int) -> None:
    """Extend xs = [X_0(1), X_1(1), ...] in place up to X_top(1), X_N(1)
    the coefficient of z^N in E^-(-a, z) 1 = exp(sum_{k>0} a(-k) z^k / k) 1,
    kept as (den, {modes: numerator}) with integer numerators over a den
    that every earlier den divides.  The a(-k) commute, so the derivative
    in z gives N X_N = sum_{k=1..N} a(-k) X_{N-k}."""
    dirs = [((k, d), x) for k in range(1, top + 1)
            for d, x in enumerate(sp.label_coords(a)) if x]
    for N in range(len(xs), top + 1):
        acc: dict = {}
        for mode, x in dirs:
            k = mode[0]
            if k > N:
                break
            den, terms = xs[N - k]
            for modes, c in terms.items():
                key = _merge(modes, (mode,))
                acc[key] = acc.get(key, 0) + Fraction(c * x, den * N)
        den = math.lcm(xs[-1][0], *(c.denominator for c in acc.values()))
        xs.append((den, {m: int(c * den) for m, c in acc.items() if c}))


def _vacuum_series(sp: FockSpace, a, top: int) -> tuple:
    """(pairs, xs): pairs[d] = (a|b_d) and xs[N] = X_N(1) for N <= top at
    least, kept on the space and grown only when a larger top is asked."""
    hit = sp._exp_vacua.get(a)
    if hit is None:
        pairs = tuple(sp.pair_label_mode(a, d) for d in range(sp.rank))
        hit = sp._exp_vacua[a] = (pairs, [(1, {(): 1})])
    if len(hit[1]) <= top:
        _grow_vacuum(sp, a, hit[1], top)
    return hit


def _exp_plus(pairs: tuple, modes: tuple) -> dict:
    """E^+(-a, z) w by powers of z^-1, as {p: {modes left: coefficient}}.
    a(k) acts as k (a|b_d) d/d b_d(-k), so E^+(-a, z) is the translation
    b_d(-n) -> b_d(-n) - (a|b_d) z^-n: X_p w sums, over the sub-multisets
    of w's modes with n adding up to p, w without them times the product
    of their -(a|b_d).  A run of m equal modes loses r of them C(m, r)
    ways."""
    terms = [(0, (), 1)]
    i = 0
    while i < len(modes):
        j = i + 1
        while j < len(modes) and modes[j] == modes[i]:
            j += 1
        n, d = modes[i]
        c = -pairs[d]
        if c:
            terms = [(p + r * n, left + modes[i:j - r],
                      x * math.comb(j - i, r) * c ** r)
                     for r in range(j - i + 1) for p, left, x in terms]
        else:
            terms = [(p, left + modes[i:j], x) for p, left, x in terms]
        i = j
    out: dict = {}
    for p, left, x in terms:
        out.setdefault(p, {})[left] = x
    return out


def _exp_modes(sp: FockSpace, a, w: BasisWord, lo: int, hi: int) -> list:
    """[e^a_lo w, ..., e^a_hi w] from E^-(-a,z) E^+(-a,z) e_a z^a: E^+ w in
    closed form, once, and each of its z-powers times the vacuum series of
    E^- at the z-powers modes lo..hi take from it."""
    t0 = sp.label_inner(a, w.label)
    if lo > hi:
        return []
    # X_p w sits at z^(t0 - p); E^-(-a, z) supplies z^(p - t0 - n - 1)
    top = w.mode_degree() - t0 - lo - 1
    pairs, xs = _vacuum_series(sp, a, top)
    # each power j <= top of E^- is integers over dj, and every dj divides den
    den = xs[max(top, 0)][0]
    # e_a: sign and label shift
    sgn = sp.eps(a, w.label)
    lab = tuple(x + y for x, y in zip(a, w.label))
    plus = _exp_plus(pairs, w.modes) if w.modes else {0: {(): 1}}
    outs = [{} for _ in range(lo, hi + 1)]
    for p, left in plus.items():
        need = p - t0 - lo - 1
        for i in range(min(need, hi - lo) + 1):
            out = outs[i]
            dj, series = xs[need - i]
            f = den // dj * sgn
            for lm, cl in left.items():
                cl *= f
                for vm, cv in series.items():
                    key = _merge(lm, vm) if lm and vm else lm or vm
                    x = cv if cl == 1 else cl * cv
                    s = out.get(key)
                    out[key] = x if s is None else s + x
    return [_adopt(FockState, {BasisWord(m, lab): _coefficient(c, den)
                               for m, c in out.items() if c})
            for out in outs]


def exp_mode(sp: FockSpace, a, n: int, v: FockState) -> FockState:
    """Coefficient of z^(-n-1) in Y(e^a, z) v."""
    a = tuple(int(x) for x in a)
    out: dict = {}
    for w, c in v:
        st = _exp_modes(sp, a, w, n, n)[0]
        if c == 1 and len(v.terms) == 1:
            return st  # fresh, and held by no cache
        _add_into(out, st.terms.items(), c)
    return _adopt(FockState, out)


def _unit(sp: FockSpace, d: int) -> tuple[int, ...]:
    return tuple(int(e == d) for e in range(sp.rank))


def _word_mode_w(sp: FockSpace, u: BasisWord, k: int, w: BasisWord) -> FockState:
    cache = sp._mode_cache
    key = (u, k, w)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not u.modes:
        if not any(u.label):
            return cache.setdefault(key, FockState.of(w) if k == -1 else FockState())
        # one expansion fills in every mode from k to the last nonzero one
        top = w.mode_degree() - sp.label_inner(u.label, w.label) - 1
        for n, st in enumerate(_exp_modes(sp, u.label, w, k, top), k):
            cache.setdefault((u, n, w), st)
        return cache.setdefault(key, FockState())
    n, d = u.modes[0]
    hd = _unit(sp, d)
    if n == 1 and len(u.modes) == 1 and not any(u.label):
        # Y(h(-1)1, z) = h(z)
        return cache.setdefault(key, heis_mode(sp, hd, k, FockState.of(w)))
    rest = BasisWord(u.modes[1:], u.label)
    hu = BasisWord(((1, d),), sp.zero_label)
    du = sp.degree(rest)
    dw = sp.degree(w)
    res: dict = {}
    # (h(-n)u')_k = sum_j C(n+j-1,j) [ h(-n-j) u'_{k+j}
    #                                  - (-1)^n u'_{-n+k-j} h(j) ]
    for j in range(du + dw - k):
        inner = _word_mode_w(sp, rest, k + j, w)
        if inner:
            _add_into(res, heis_mode(sp, hd, -(n + j), inner).terms.items(),
                      _binom(n + j - 1, j))
    sgn = -1 if n % 2 else 1
    for j in range(0, max((m for m, _ in w.modes), default=0) + 1):
        hv = _word_mode_w(sp, hu, j, w)
        if hv:
            t = word_mode(sp, rest, -n + k - j, hv)
            _add_into(res, t.terms.items(), -sgn * _binom(n + j - 1, j))
    # cached, and so never mutated from here on
    res = cache[key] = _adopt(FockState, res)
    return res


def word_mode(sp: FockSpace, u: BasisWord, k: int, v: FockState) -> FockState:
    """u_k v.  For v one word with coefficient 1 this is the mode cache's own
    state, which no one mutates."""
    if len(v.terms) == 1:
        ((w, c),) = v.terms.items()
        st = _word_mode_w(sp, u, k, w)
        return st if c == 1 else st.scale(c)
    out: dict = {}
    for w, c in v:
        _add_into(out, _word_mode_w(sp, u, k, w).terms.items(), c)
    return _adopt(FockState, out)


def state_mode(sp: FockSpace, a: FockState, k: int, v: FockState) -> FockState:
    """a_k v.  For a and v single words with coefficient 1 this is the mode
    cache's own state, which no one mutates."""
    if len(a.terms) == 1:
        ((u, c),) = a.terms.items()
        st = word_mode(sp, u, k, v)
        return st if c == 1 else st.scale(c)
    out: dict = {}
    for u, cu in a:
        for w, cw in v:
            _add_into(out, _word_mode_w(sp, u, k, w).terms.items(), cu * cw)
    return _adopt(FockState, out)


def _state_modes(sp: FockSpace, a: FockState, lo: int, hi: int,
                 v: FockState) -> list:
    """[a_lo v, ..., a_hi v], each term pair of a and v visited once for all
    the n: the twin of _tensor_modes on one space."""
    ns = range(lo, hi + 1)
    if len(a.terms) == 1 and len(v.terms) == 1:
        return [state_mode(sp, a, n, v) for n in ns]
    outs = [{} for _ in ns]
    for u, cu in a:
        for w, cw in v:
            c = cu * cw
            for out, n in zip(outs, ns):
                st = _word_mode_w(sp, u, n, w)
                if st:
                    _add_into(out, st.terms.items(), c)
    return [_adopt(FockState, t) for t in outs]


def check_commutator(sp: FockSpace, a: FockState, b: FockState, m: int, n: int,
                     v: FockState, ctx: Optional[TruncationCtx] = None) -> FockState:
    """a_m b_n v - b_n a_m v - sum_j C(m,j) (a_j b)_{m+n-j} v; zero iff the
    commutator identity holds on this instance.  ctx is accepted for callers
    that still pass one, and ignored: results above its ceiling are computed."""
    lhs = state_mode(sp, a, m, state_mode(sp, b, n, v)) - state_mode(
        sp, b, n, state_mode(sp, a, m, v)
    )
    da = max((sp.degree(w) for w, _ in a), default=0)
    db = max((sp.degree(w) for w, _ in b), default=0)
    rhs: dict = {}
    for j in range(da + db):
        ajb = state_mode(sp, a, j, b)
        if ajb:
            _add_into(rhs, state_mode(sp, ajb, m + n - j, v).terms.items(),
                      _binom(m, j))
    return lhs - _adopt(FockState, rhs)


def check_lemma35(sp: FockSpace, beta, m: int, u: BasisWord, v: FockState,
                  ctx: TruncationCtx) -> dict:
    """Residuals beta(m) u_n v - u_n beta(m) v over every n giving a result
    of degree in [0, ctx.max_degree]; requires beta orthogonal to u's modes
    and label."""
    for _, d in u.modes:
        if sum(beta[e] * sp.mode_gram[e][d] for e in range(sp.rank)):
            raise ParavoaError("beta must be orthogonal to u's mode directions")
    if sum(beta[d] * sp.pair_label_mode(u.label, d) for d in range(sp.rank)):
        raise ParavoaError("beta must be orthogonal to u's label")
    du = sp.degree(u)
    dv = max((sp.degree(w) for w, _ in v), default=0)
    bv = heis_mode(sp, beta, m, v)
    out = {}
    # n ranges so that deg(u_n v) and deg(u_n beta(m) v) stay within the cap
    for n in range(ctx.lowest_mode(du + dv), du + dv + max(-m, 0)):
        out[n] = heis_mode(sp, beta, m, word_mode(sp, u, n, v)) - word_mode(sp, u, n, bv)
    return out


def check_ideal(L: GramLattice, P: MonoidDescriptor,
                ctx: TruncationCtx, sample_degree: int = 2) -> dict:
    """Check that modes of V_P words a keep ideal words b inside the ideal S
    (P minus 0 for type I, the open positive side for type II), on every
    a_n b that fits.  Every term of a_n b has the label label(a) +
    label(b), so the verdict is that sum's: a mode is evaluated only on a
    pair whose sum leaves S, and each term of it is a failure.  The pairs
    are walked by class: instances counts the words of each degree, S is
    tested once per pair of labels, and only the b that fail with a's label
    are visited, in the order of the word pairs."""
    in_ideal = _ideal(L, P, parabolic(L, P))
    sp = FockSpace.full_lattice(L)
    labels = Selector("V_P", L, P).labels(sample_degree)
    a_words = [(w, sp.degree(w)) for d in range(sample_degree + 1)
               for w in sp.basis(d, labels=labels)]
    b_words = [(w, dw) for w, dw in a_words if in_ideal(w.label)]
    a_degs = Counter(da for _, da in a_words)
    b_degs = Counter(db for _, db in b_words)
    # a_n b fits for lowest_mode(da + db) <= n < da + db; no range: its len
    # fails past 2**63
    instances = sum(ka * kb * max(da + db - ctx.lowest_mode(da + db), 0)
                    for da, ka in a_degs.items() for db, kb in b_degs.items())
    b_labels = list(dict.fromkeys(b.label for b, _ in b_words))
    failing: dict = {}  # a's label -> the b words whose label sum leaves S
    failures = []
    for a, da in a_words:
        bad = failing.get(a.label)
        if bad is None:
            x, y = a.label
            out = {lb for lb in b_labels if not in_ideal((x + lb[0], y + lb[1]))}
            bad = failing[a.label] = [(b, db) for b, db in b_words if b.label in out]
        for b, db in bad:
            for n in range(ctx.lowest_mode(da + db), da + db):
                failures.extend(
                    {"a": a.to_str(), "b": b.to_str(), "n": n,
                     "label": list(w.label)}
                    for w, _ in word_mode(sp, a, n, FockState.of(b)))
    return {"check": "ideal", "instances": instances, "failures": failures}


# -- tensor factorization ---------------------------------------------------


class TensorState:
    """Sparse element of a two-factor tensor product of Fock modules, keyed
    by word pairs.  Its arithmetic is FockState's own functions, assigned,
    not inherited, so a TensorState is never a FockState."""

    __slots__ = ("terms",)
    __init__, __iter__, __bool__, __add__, __sub__, scale, __eq__ = (
        FockState.__init__, FockState.__iter__, FockState.__bool__, FockState.__add__,
        FockState.__sub__, FockState.scale, FockState.__eq__)

    @classmethod
    def of(cls, w1: BasisWord, w2: BasisWord, coeff=1) -> "TensorState":
        return cls({(w1, w2): coeff})

    def __repr__(self):
        if not self.terms:
            return "TensorState(0)"
        return " + ".join(
            f"({c})*{w1.to_str(('b',))}(x){w2.to_str(('a',))}"
            for (w1, w2), c in self.terms.items()
        )


def phi_map(v: FockState) -> TensorState:
    """Split adapted-basis words: direction-0 modes to the left Heisenberg
    factor, direction-1 modes plus the label to the right lattice factor."""
    out: dict = {}
    for w, c in v:
        left = tuple((n, 0) for n, d in w.modes if d == 0)
        right = tuple((n, 0) for n, d in w.modes if d == 1)
        if len(w.label) != 1:
            raise ParavoaError("adapted words carry a single integer label coordinate")
        _add_into(out, (((BasisWord(left, ()), BasisWord(right, (w.label[0],))), c),))
    return _adopt(TensorState, out)


def _tensor_modes(sp1: FockSpace, sp2: FockSpace, A: list, lo: int,
                  hi: int, B: list) -> list:
    """[A_lo B, ..., A_hi B], with (x (x) y)_n (v (x) w) = sum_i x_i v (x)
    y_{n-i-1} w, for A and B given as graded terms (x, y, c, deg x, deg y):
    each left mode x_i v is looked up once for all the n it enters."""
    outs = [{} for _ in range(lo, hi + 1)]
    for x, y, ca, dx, dy in A:
        for v, w, cb, dv, dw in B:
            c = ca * cb
            # y_{n-i-1} w vanishes for n > i + dy + dw, x_i v for i > dx + dv - 1
            for i in range(lo - dy - dw, dx + dv):
                left = _word_mode_w(sp1, x, i, v)
                if not left:
                    continue
                for n in range(lo, min(hi, i + dy + dw) + 1):
                    rightv = _word_mode_w(sp2, y, n - i - 1, w)
                    if rightv:
                        out = outs[n - lo]
                        for wl, cl in left:
                            _add_into(out, (((wl, wr), cr) for wr, cr in rightv),
                                      c * cl)
    return [_adopt(TensorState, t) for t in outs]


def from_tensor(alpha: LatVec, beta: LatVec, T: TensorState) -> FockState:
    """phi^-1 into the lattice basis: a left-factor mode b(-n) becomes
    beta(-n), a right-factor mode alpha(-n) and the label p becomes
    p*alpha, each mode written in a1, a2 with the integer coordinates of
    beta or alpha."""
    out: dict = {}
    for (w1, w2), c in T:
        expanded = [((), 1)]
        for vec, w in ((beta, w1), (alpha, w2)):
            for n, _ in w.modes:
                expanded = [(modes + ((n, i),), k * vec[i])
                            for modes, k in expanded for i in (0, 1) if vec[i]]
        p = w2.label[0]
        label = (p * alpha[0], p * alpha[1])
        _add_into(out, ((make_word(modes, label), c * k) for modes, k in expanded))
    return _adopt(FockState, out)


def check_phi_hom(L: GramLattice, alpha: LatVec, degree_cap: int,
                  ctx: TruncationCtx) -> dict:
    """Verify the tensor-factorization map on the half-lattice subalgebra.

    Both routes meet in the lattice basis.  Left route: the images of
    adapted basis words, moved there by from_tensor, with modes computed by
    the full rank-two engine.  Right route: the split words convolved with
    two independent rank-one engines, the result moved by from_tensor.
    Each route computes every mode n of a word pair in one pass over the
    pair's terms (_state_modes, _tensor_modes), so it holds one state per
    mode: a check of more than PHI_HOM_MAX_INSTANCES mode instances raises
    ParavoaError before either route starts.
    Also checks that the conformal vector is the image of w1 (x) 1 + 1 (x)
    w2, and that per-degree dimensions match.
    """
    beta = perp_primitive(L, alpha)
    adapted = FockSpace.hyperplane_adapted(L, alpha, beta)
    full = FockSpace.full_lattice(L)
    sp1 = FockSpace.rank_one_heisenberg(L.norm(beta))
    sp2 = FockSpace.rank_one_lattice(L.norm(alpha), eps_exp=adapted.eps_table[0][0])
    twoN = L.norm(alpha)
    # the labels p*alpha of degree p^2 * twoN / 2 at most degree_cap
    pmax = math.isqrt(2 * degree_cap // twoN)
    labels = [(p,) for p in range(-pmax, pmax + 1)]

    by_degree = [adapted.basis(d, labels=labels) for d in range(degree_cap + 1)]
    # u_n v fits for lowest_mode(du + dv) <= n < du + dv, one instance each
    instances = sum(len(us) * len(vs) * (du + dv - ctx.lowest_mode(du + dv))
                    for du, us in enumerate(by_degree) for dv, vs in enumerate(by_degree))
    if instances > PHI_HOM_MAX_INSTANCES:
        raise ParavoaError(
            f"the tensor-factorization check has {instances} mode instances, "
            f"above the bound {PHI_HOM_MAX_INSTANCES}: lower the ceiling or the cap")

    # from_tensor runs once per distinct (w1, w2) pair; a tensor state's
    # image is the sum of its pairs' images
    pair_images: dict = {}

    def to_lattice(T: TensorState) -> FockState:
        out: dict = {}
        for pair, c in T:
            im = pair_images.get(pair)
            if im is None:
                im = pair_images[pair] = from_tensor(alpha, beta, TensorState.of(*pair))
            _add_into(out, im.terms.items(), c)
        return _adopt(FockState, out)

    # each basis word's lattice-basis image, split terms graded once, and degree
    images = []
    for du, words in enumerate(by_degree):
        for u in words:
            pu = phi_map(FockState.of(u))
            graded = [(x, y, c, sp1.degree(x), sp2.degree(y)) for (x, y), c in pu]
            images.append((u, to_lattice(pu), graded, du))
    failures = []
    for u, fu, pu, du in images:
        for v, fv, pv, dv in images:
            lo, hi = ctx.lowest_mode(du + dv), du + dv - 1
            left = _state_modes(full, fu, lo, hi, fv)
            right = _tensor_modes(sp1, sp2, pu, lo, hi, pv)
            for n, ln, tn in zip(range(lo, hi + 1), left, right):
                if ln != to_lattice(tn):
                    failures.append({"u": u.to_str(), "v": v.to_str(), "n": n})

    expect: dict = {}
    vac2 = sp2.word((), (0,))
    _add_into(expect, (((w, vac2), c) for w, c in sp1.virasoro()))
    vac1 = sp1.word(())
    _add_into(expect, (((vac1, w), c) for w, c in sp2.virasoro()))
    omega_ok = full.virasoro() == to_lattice(_adopt(TensorState, expect))

    # per degree, the adapted basis against products of factor dimensions
    # at complementary degrees
    dims_ok = all(
        len(words) == sum(len(sp1.basis(d1)) * len(sp2.basis(d - d1, labels=labels))
                          for d1 in range(d + 1))
        for d, words in enumerate(by_degree))
    return {
        "check": "phi_hom",
        "instances": instances,
        "failures": failures,
        "omega_ok": omega_ok,
        "dims_ok": dims_ok,
    }
