"""Exact Gaussian elimination over Q for sparse Fock states.

States are treated as vectors indexed by basis words; nothing here knows
about gradings, callers pass whatever span they want checked.  Every
coefficient must be rational: each row is scaled to integers once, on
entry, and an irrational coefficient raises ValueError.

Elimination is fraction-free.  Pivot rows are primitive integer rows (the
gcd of their entries divided out), keyed by their first word, taken in
insertion order and kept fully reduced: a pivot row is zero at every other
pivot word.  Subtracting one therefore brings no pivot word into a row, and
reducing a row visits only the pivots whose word it holds.  Rows are plain
terms dicts, reduced in place on a private copy.  The pivots taken are
those of elimination over Q, so the greedy independent subset of the input
rows, and a target's combination over it, do not depend on the scaling.
Reducing a target only reads the pivots, so a `Span` is eliminated once
and then solves any number of targets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .exactnum import QuadScalar, _parts
from .fock import FockState, _add_into

__all__ = ["Span", "quotient_dimension"]


def _integer_row(terms: dict) -> tuple:
    """(row, m): the integer terms dict m*terms and the least such m > 0.
    Raises ValueError on an irrational coefficient."""
    fr = {}
    for w, c in terms.items():
        fr[w], b = _parts(c)
        if b:
            raise ValueError(f"{c} is irrational")
    m = lcm(*(f.denominator for f in fr.values()))
    return {w: f.numerator * (m // f.denominator) for w, f in fr.items()}, m


def _reduce(t: dict, row: dict, a: int, b: int) -> None:
    """t <- a*t - b*row in place, for a != 0.  Scaling keeps t's order; a
    word new to t goes to its end and an entry that cancels is dropped, so
    t holds its words in the order elimination over Q would leave them."""
    if a != 1:
        for k in t:
            t[k] *= a
    _add_into(t, row.items(), -b)


def _eliminate(pivots: dict, t: dict, hist: Optional[dict] = None) -> int:
    """Reduce the integer terms dict t in place against the pivot rows, in
    pivot order; pivots maps word -> (position, row, history).  Returns the
    factor s by which the original t was scaled.  If hist is given, the
    pivots' histories are combined into it by the same steps."""
    s = 1
    for _, w in sorted((pivots[w][0], w) for w in t if w in pivots):
        _, row, phist = pivots[w]
        p, c = row[w], t[w]
        g = gcd(p, c)
        a, b = p // g, c // g
        _reduce(t, row, a, b)
        if hist is not None:
            _reduce(hist, phist, a, b)
        s *= a
    return s


def _make_primitive(t: dict, hist: Optional[dict]) -> None:
    """Divide t, and hist if given, by the gcd of all their entries."""
    g = gcd(*t.values(), *(hist.values() if hist is not None else ()))
    if g != 1:
        for d in (t, hist):
            if d is not None:
                for k in d:
                    d[k] //= g


def _add_pivot(pivots: dict, t: dict, hist: Optional[dict] = None) -> bool:
    """Reduce the integer row t (owned by the caller) and, if anything is
    left, make it a pivot row keyed by its first word.  hist, if given,
    expresses t as an integer combination of the scaled input rows and
    becomes the pivot's history."""
    _eliminate(pivots, t, hist)
    if not t:
        return False
    _make_primitive(t, hist)
    w = next(iter(t))
    p = t[w]
    # keep earlier pivots reduced so elimination stays single-pass
    for _, prow, phist in pivots.values():
        c = prow.get(w)
        if c:
            g = gcd(p, c)
            a, b = p // g, c // g
            _reduce(prow, t, a, b)
            if phist is not None:
                _reduce(phist, hist, a, b)
            _make_primitive(prow, phist)
    pivots[w] = (len(pivots), t, hist)
    return True


def quotient_dimension(basis_words, span_states) -> int:
    """dim of span{basis_words} / span{span_states}."""
    pivots: dict = {}
    for s in span_states:
        _add_pivot(pivots, _integer_row(s.terms)[0])
    r = 0
    for w in basis_words:
        if _add_pivot(pivots, {w: 1}):
            r += 1
    return r


class Span:
    """The span of some states, eliminated once.  `solve` only reads the
    pivot rows, so one span answers any number of targets."""

    def __init__(self, span_states):
        self._pivots: dict = {}
        self._scales = []
        for idx, s in enumerate(span_states):
            row, m = _integer_row(s.terms)
            self._scales.append(m)
            _add_pivot(self._pivots, row, {idx: 1})

    def solve(self, target: FockState) -> Optional[list]:
        """Coefficients expressing target in the span, or None.

        Returns a list of (index, QuadScalar) over the input ordering.
        """
        t, m = _integer_row(target.terms)
        # s*m*target + sum_i minus[i]*scales[i]*span_states[i] == t throughout
        minus: dict = {}
        s = _eliminate(self._pivots, t, minus)
        if t:
            return None
        return sorted((k, QuadScalar(Fraction(-v * self._scales[k], s * m)))
                      for k, v in minus.items())
