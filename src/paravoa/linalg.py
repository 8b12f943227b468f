"""Exact Gaussian elimination over Q(sqrt(D)) for sparse Fock states.

States are treated as vectors indexed by basis words; nothing here knows
about gradings, callers pass whatever span they want checked.
"""

from __future__ import annotations

from typing import Optional

from .exactnum import ONE, ZERO
from .fock import FockState

__all__ = ["rank_of", "in_span", "quotient_dimension"]


def _eliminate(pivots: dict, s: FockState) -> FockState:
    """Reduce s against the pivot rows (word -> normalized FockState)."""
    for w, row in pivots.items():
        c = s[w]
        if c:
            s = s - row.scale(c)
    return s


def _add_pivot(pivots: dict, s: FockState) -> bool:
    s = _eliminate(pivots, s)
    if s.is_zero():
        return False
    w = next(iter(s.terms))
    row = s.scale(s[w].inverse())
    # keep earlier pivots reduced so elimination stays single-pass
    for pw in list(pivots):
        c = pivots[pw][w]
        if c:
            pivots[pw] = pivots[pw] - row.scale(c)
    pivots[w] = row
    return True


def rank_of(states) -> int:
    pivots: dict = {}
    r = 0
    for s in states:
        if _add_pivot(pivots, s):
            r += 1
    return r


def quotient_dimension(basis_words, span_states) -> int:
    """dim of span{basis_words} / span{span_states}."""
    pivots: dict = {}
    for s in span_states:
        _add_pivot(pivots, s)
    r = 0
    for w in basis_words:
        if _add_pivot(pivots, FockState.of(w)):
            r += 1
    return r


def in_span(span_states, target: FockState) -> Optional[list]:
    """Coefficients expressing target in the given span, or None.

    Returns a list of (index, QuadScalar) over the input ordering.
    """
    pivots: dict = {}
    history: dict = {}  # pivot word -> combination dict index -> coeff
    for idx, s in enumerate(span_states):
        combo = {idx: ONE}
        red = s
        for w in list(pivots):
            c = red[w]
            if c:
                red = red - pivots[w].scale(c)
                for k, v in history[w].items():
                    combo[k] = combo.get(k, ZERO) - v * c
        if red.is_zero():
            continue
        w = next(iter(red.terms))
        inv = red[w].inverse()
        red = red.scale(inv)
        combo = {k: v * inv for k, v in combo.items()}
        for pw in list(pivots):
            c = pivots[pw][w]
            if c:
                pivots[pw] = pivots[pw] - red.scale(c)
                for k, v in combo.items():
                    history[pw][k] = history[pw].get(k, ZERO) - v * c
        pivots[w] = red
        history[w] = combo
    t = target
    out: dict = {}
    for w in list(pivots):
        c = t[w]
        if c:
            t = t - pivots[w].scale(c)
            for k, v in history[w].items():
                out[k] = out.get(k, ZERO) + v * c
    if not t.is_zero():
        return None
    return sorted(((k, v) for k, v in out.items() if v), key=lambda p: p[0])
