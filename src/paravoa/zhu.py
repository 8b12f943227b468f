"""Zhu-algebra bilinear products and nil-ideal certificates.

The associative-algebra quotient A(V_P) is never materialized; everything
is phrased as explicit elements of O(V_P) built from the residue family

    R(a, b, m, n) = sum_j C(wt a + n, j) a_{j-2-m} b,   m >= n >= 0,

each of which lies in O(V_P).  Membership claims are only ever made by
exhibiting such elements (or rational combinations of them), so every
certificate can be replayed coefficient by coefficient.
"""

from __future__ import annotations

from typing import Optional

from .fock import BasisWord, FockSpace, FockState, _add_into, _adopt
from .lattice import GramLattice, LatVec, ParavoaError
from .linalg import Span
from .monoid import MonoidDescriptor, _ideal, parabolic
from .vertexops import (
    TruncationCtx,
    _binom,
    _unit,
    exp_mode,
    heis_mode,
    state_mode,
)

__all__ = [
    "star",
    "reduce_35",
    "nilpotency_certificate",
    "eq33_certificate",
    "state_json",
]


def _residue(sp: FockSpace, a: FockState, b: FockState, top: int,
             first: int) -> FockState:
    """sum_j C(top, j) a_{j+first} b over j = 0..max(top, 0); at top = -1
    that is the single term a_{first} b."""
    out: dict = {}
    for j in range(max(top, 0) + 1):
        _add_into(out, state_mode(sp, a, j + first, b).terms.items(), _binom(top, j))
    return _adopt(FockState, out)


def star(sp: FockSpace, a: FockState, b: FockState,
         ctx: Optional[TruncationCtx] = None) -> FockState:
    """a * b = sum_j C(wt a, j) a_{j-1} b.  ctx is accepted for callers
    that still pass one, and ignored: no degree of the product is checked."""
    if not a or not b:
        return FockState()
    return _residue(sp, a, b, sp.state_degree(a), -1)


def reduce_35(sp: FockSpace, a: FockState, b: FockState, m: int, n: int,
              ctx: Optional[TruncationCtx] = None) -> FockState:
    """sum_j C(wt a + n, j) a_{j-2-m} b for m >= n >= 0; lies in O(V).  At
    m = n = 0 it is Zhu's a o b."""
    if not (m >= n >= 0):
        raise ParavoaError("need m >= n >= 0")
    if not a or not b:
        return FockState()
    wa = sp.state_degree(a)
    if ctx is not None:
        ctx.check(wa + max(sp.degree(w) for w, _ in b) + m + 1)
    return _residue(sp, a, b, wa + n, -2 - m)


def state_json(s: FockState) -> list:
    return [
        {"word": w.to_str(), "coeff": c.to_json()}
        for w, c in sorted(s.terms.items(), key=lambda p: (p[0].label, p[0].modes))
    ]


def nilpotency_certificate(L: GramLattice, P: MonoidDescriptor, beta: LatVec,
                           ctx: TruncationCtx) -> dict:
    """Replayable evidence that [M(1, 2*beta)] vanishes in A(V_P).

    Chain: (i) e^beta_{-m} e^beta = 0 for a sweep of m <= 2N and the first
    nonzero mode is the cocycle-signed e^{2 beta}; (ii) a single residue
    element R(e^beta, e^beta, 2N-1, 0) equal to that mode, exhibiting
    e^{2 beta} in O(V_P); (iii) the mode-shift congruences
    h(-k-2)u = -h(-k-1)u mod O(V_P), each one literally a residue element,
    checked on sampled words of M(1, 2*beta); (iv) h(-1)-dressings generated
    by star products against [e^{2 beta}].
    """
    if beta == (0, 0) or not _ideal(L, P, parabolic(L, P))(beta):
        raise ParavoaError(f"beta {beta} is not in the semigroup S")
    twoN = L.norm(beta)
    if twoN < 2:
        raise ParavoaError("(beta|beta) must be >= 2")
    N = twoN // 2
    sp = FockSpace.full_lattice(L)
    eb = sp.exp_state(beta)
    e2b = sp.exp_state((2 * beta[0], 2 * beta[1]))
    eps_sign = sp.eps(beta, beta)
    # step (ii)'s residue element R(e^beta, e^beta, 2N-1, 0) has degree 4N,
    # the highest of any step: made first, it raises before any other work
    r = reduce_35(sp, eb, eb, twoN - 1, 0, ctx)
    steps = []
    ok = True

    # (i) vanishing modes and the first surviving one
    for m in range(-2, twoN + 1):
        got = exp_mode(sp, beta, -m, eb)
        good = not got
        ok = ok and good
        steps.append({"kind": "exp_mode_vanish", "m": m, "ok": good})
    got = exp_mode(sp, beta, -(twoN + 1), eb)
    good = got == e2b.scale(eps_sign)
    ok = ok and good
    steps.append({
        "kind": "exp_mode_leading",
        "m": twoN + 1,
        "cocycle_sign": eps_sign,
        "value": state_json(got),
        "ok": good,
    })

    # (ii) e^{2 beta} in O(V_P) via one residue element
    good = r == e2b.scale(eps_sign)
    ok = ok and good
    steps.append({
        "kind": "reduce_35_membership",
        "m": twoN - 1,
        "n": 0,
        "value": state_json(r),
        "conclusion": "e^{2 beta} in O(V_P)" if good else "mismatch",
        "ok": good,
    })

    # (iii) shift congruences on sampled words of M(1, 2*beta)
    lab2 = (2 * beta[0], 2 * beta[1])
    # the first six words u whose k = 0 relation, of degree deg u + 2, fits
    samples, deg = [], L.norm(lab2) // 2
    while len(samples) < 6 and ctx.fits(deg + 2):
        samples.extend(sp.basis(deg, labels=[lab2]))
        deg += 1
    units = [_unit(sp, d) for d in range(sp.rank)]
    h1s = [FockState.of(sp.word(((1, d),))) for d in range(sp.rank)]
    for u in samples[:6]:
        us = FockState.of(u)
        for d, hd in enumerate(units):
            for k in range(0, 2):
                if not ctx.fits(sp.degree(u) + k + 2):
                    continue
                lhs = heis_mode(sp, hd, -k - 2, us) + heis_mode(sp, hd, -k - 1, us)
                rel = reduce_35(sp, h1s[d], us, k, 0, ctx)
                good = lhs == rel
                ok = ok and good
                steps.append({
                    "kind": "h_shift",
                    "word": u.to_str(),
                    "direction": d,
                    "k": k,
                    "ok": good,
                })

    # (iv) h(-1)-dressing via star against the dead class
    for d, hd in enumerate(units):
        got = star(sp, h1s[d], e2b)
        pairing = sp.pair_label_mode(lab2, d)
        expect = heis_mode(sp, hd, -1, e2b) + e2b.scale(pairing)
        good = got == expect
        ok = ok and good
        steps.append({"kind": "star_generation", "direction": d, "ok": good})

    return {
        "beta": list(beta),
        "N": N,
        "cocycle_sign": eps_sign,
        "steps": steps,
        "ok": ok,
    }


def _residue_span(sp: FockSpace, pool: list[BasisWord], ctx: TruncationCtx,
                  mmax: int) -> tuple:
    """(meta, span): every nonzero R(x, y, m, n) over the pool with
    m <= mmax that fits under the ceiling, eliminated once per space, pool,
    ceiling and mmax and kept on the space."""
    cache = sp._residue_spans
    key = (tuple(pool), ctx, mmax)
    hit = cache.get(key)
    if hit is not None:
        return hit
    gens = []
    meta = []
    for x in pool:
        xs = FockState.of(x)
        dx = sp.degree(x)
        for y in pool:
            ys = FockState.of(y)
            for m in range(mmax + 1):
                # R(x, y, m, n) has degree deg x + deg y + m + 1 for every n
                if not ctx.fits(dx + sp.degree(y) + m + 1):
                    break
                for n in range(m + 1):
                    r = reduce_35(sp, xs, ys, m, n)
                    if r:
                        gens.append(r)
                        meta.append({"x": x.to_str(), "y": y.to_str(),
                                     "m": m, "n": n})
    hit = cache[key] = (meta, Span(gens))
    return hit


def eq33_certificate(sp: FockSpace, a: FockState, b: FockState,
                     pool: list[BasisWord], ctx: TruncationCtx,
                     mmax: int = 2) -> dict:
    """Try to express a*b - sum_j C(wt b - 1, j) b_{j-1} a as a combination
    of residue elements built from the pool; honest Unresolved on failure.
    For the vacuum b (weight 0) the sum is the single term C(-1, 0) 1_{-1} a,
    and for a zero a or b both sides are 0.  The residue span is built and
    eliminated once per space, pool, ceiling and mmax, and reused."""
    if not a or not b:
        return {"status": "resolved", "combination": []}
    wb = sp.state_degree(b)
    diff = star(sp, a, b) - _residue(sp, b, a, wb - 1, -1)
    if not diff:
        return {"status": "resolved", "combination": []}
    meta, span = _residue_span(sp, pool, ctx, mmax)
    combo = span.solve(diff)
    if combo is None:
        return {"status": "unresolved"}
    return {
        "status": "resolved",
        "combination": [
            {**meta[i], "coeff": c.to_json()} for i, c in combo
        ],
    }
