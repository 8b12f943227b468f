"""Exact Gaussian elimination over Q(sqrt(D)) for sparse Fock states.

States are treated as vectors indexed by basis words; nothing here knows
about gradings, callers pass whatever span they want checked.

Pivot rows are kept normalized and fully reduced: a row is zero at every
other pivot word.  Subtracting one therefore brings no pivot word into a
row, and reducing a row visits only the pivots whose word it holds.  Rows
are plain terms dicts, reduced in place on a private copy.
"""

from __future__ import annotations

from typing import Optional

from .exactnum import ONE
from .fock import FockState, _add_into

__all__ = ["rank_of", "in_span", "quotient_dimension"]


def _eliminate(pivots: dict, t: dict, combo: Optional[dict] = None) -> None:
    """Reduce the terms dict t in place against the pivot rows, in pivot
    order; pivots maps word -> (position, row, history).  If combo is
    given, it gets minus each subtracted multiple of the pivots' histories."""
    for _, w in sorted((pivots[w][0], w) for w in t if w in pivots):
        _, row, hist = pivots[w]
        c = -t[w]
        _add_into(t, row.items(), c)
        if combo is not None:
            _add_into(combo, hist.items(), c)


def _add_pivot(pivots: dict, t: dict, combo: Optional[dict] = None) -> bool:
    """Reduce t (owned by the caller) and, if anything is left, make it a
    pivot row keyed by its first word.  combo, if given, expresses t as a
    combination of the input rows and becomes the pivot's history."""
    _eliminate(pivots, t, combo)
    if not t:
        return False
    w = next(iter(t))
    inv = t[w].inverse()
    row = {k: x * inv for k, x in t.items()}
    hist = None if combo is None else {k: x * inv for k, x in combo.items()}
    # keep earlier pivots reduced so elimination stays single-pass
    for _, prow, phist in pivots.values():
        c = prow.get(w)
        if c:
            _add_into(prow, row.items(), -c)
            if hist is not None:
                _add_into(phist, hist.items(), -c)
    pivots[w] = (len(pivots), row, hist)
    return True


def rank_of(states) -> int:
    pivots: dict = {}
    r = 0
    for s in states:
        if _add_pivot(pivots, dict(s.terms)):
            r += 1
    return r


def quotient_dimension(basis_words, span_states) -> int:
    """dim of span{basis_words} / span{span_states}."""
    pivots: dict = {}
    for s in span_states:
        _add_pivot(pivots, dict(s.terms))
    r = 0
    for w in basis_words:
        if _add_pivot(pivots, {w: ONE}):
            r += 1
    return r


def in_span(span_states, target: FockState) -> Optional[list]:
    """Coefficients expressing target in the given span, or None.

    Returns a list of (index, QuadScalar) over the input ordering.
    """
    pivots: dict = {}
    for idx, s in enumerate(span_states):
        _add_pivot(pivots, dict(s.terms), {idx: ONE})
    t = dict(target.terms)
    minus: dict = {}
    _eliminate(pivots, t, minus)
    if t:
        return None
    return sorted(((k, -v) for k, v in minus.items()), key=lambda p: p[0])
