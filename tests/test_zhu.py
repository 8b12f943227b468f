import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paravoa import zhu
from paravoa.exactnum import QuadScalar
from paravoa.fock import FULL_L, FockSpace, FockState, enumerate_basis
from paravoa.lattice import ParavoaError
from paravoa.linalg import Span, quotient_dimension
from paravoa.monoid import MonoidDescriptor
from paravoa.vertexops import (
    TruncationCtx,
    TruncationOverflow,
    _translate,
    exp_mode,
    heis_mode,
    state_mode,
    word_mode,
)
from paravoa.zhu import (
    eq33_certificate,
    nilpotency_certificate,
    reduce_35,
    star,
    state_json,
)

from forms import A2, DIAG22

SPD = FockSpace.full_lattice(DIAG22)
SPA = FockSpace.full_lattice(A2)

E1 = (1, 0)


def h1(sp):
    return FockState.of(sp.word(((1, 0),)))


# -- linalg ----------------------------------------------------------------


def test_rank_and_span():
    words = [SPD.word(((1, 0),)), SPD.word(((1, 1),))]
    a, b = map(FockState.of, words)
    # the span's rank is 2 minus the quotient dimension: 2, then 1
    assert quotient_dimension(words, [a, b, a + b]) == 0
    assert quotient_dimension(words, [a, a.scale(2)]) == 1
    combo = Span([a, b]).solve(a.scale(3) + b.scale(-2))
    assert combo == [(0, QuadScalar(3)), (1, QuadScalar(-2))]
    assert Span([a]).solve(b) is None


def test_quotient_dimension():
    a = SPD.word(((1, 0),))
    b = SPD.word(((1, 1),))
    assert quotient_dimension([a, b], [FockState.of(a)]) == 1
    assert quotient_dimension([a, b], []) == 2


def test_irrational_coefficient_raises():
    # elimination is over Q; engine coefficients are always rational
    a, b = h1(SPD), FockState.of(SPD.word(((1, 1),)))
    irr = FockState({SPD.word(((1, 0),)): QuadScalar(0, 1, 2)})
    with pytest.raises(ValueError, match="irrational"):
        quotient_dimension([], [a, irr])
    with pytest.raises(ValueError, match="irrational"):
        Span([a, irr])
    with pytest.raises(ValueError, match="irrational"):
        Span([a, b]).solve(irr)


# oracle: Gauss-Jordan over Fraction on dense vectors, rows taken greedily
# in input order, each pivot normalized to 1 and kept fully reduced

def _gauss_jordan(rows):
    """[(pivot column, vector, history)] of the greedy independent subset
    of rows; history maps a row index to its coefficient."""
    basis = []
    for i, r in enumerate(rows):
        v, hist = _oracle_reduce(basis, list(r), {i: Fraction(1)})
        if not any(v):
            continue
        col = next(j for j, x in enumerate(v) if x)
        inv = 1 / v[col]
        v = [x * inv for x in v]
        hist = {k: x * inv for k, x in hist.items()}
        for n, (pc, pv, ph) in enumerate(basis):
            c = pv[col]
            if c:
                basis[n] = (pc, [x - c * y for x, y in zip(pv, v)],
                            _oracle_sub(ph, hist, c))
        basis.append((col, v, hist))
    return basis


def _oracle_sub(h, g, c):
    out = dict(h)
    for k, x in g.items():
        out[k] = out.get(k, 0) - c * x
    return {k: x for k, x in out.items() if x}


def _oracle_reduce(basis, v, hist):
    for col, pv, ph in basis:
        c = v[col]
        if c:
            v = [x - c * y for x, y in zip(v, pv)]
            hist = _oracle_sub(hist, ph, c)
    return v, hist


LABEL_WORDS = [SPD.word(label=(i, 0)) for i in range(5)]

_entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 10**6))
_dense = st.lists(_entry, min_size=len(LABEL_WORDS), max_size=len(LABEL_WORDS))


@st.composite
def _row_lists(draw):
    """Sparse rational rows, with zero rows, duplicates and combinations
    of earlier rows among them, and targets in or out of their span."""
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["new", "sparse", "zero", "dup", "combo"]))
        if kind in ("dup", "combo") and rows:
            picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                                  max_size=3 if kind == "combo" else 1))
            cs = [draw(_entry) if kind == "combo" else Fraction(1) for _ in picks]
            rows.append([sum(c * rows[p][j] for c, p in zip(cs, picks))
                         for j in range(len(LABEL_WORDS))])
        elif kind == "zero":
            rows.append([Fraction(0)] * len(LABEL_WORDS))
        else:
            v = draw(_dense)
            if kind == "sparse":
                keep = draw(st.integers(0, len(LABEL_WORDS) - 1))
                v = [x if j == keep else Fraction(0) for j, x in enumerate(v)]
            rows.append(v)
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        if rows and draw(st.booleans()):
            cs = [draw(_entry) for _ in rows]
            targets.append([sum(c * r[j] for c, r in zip(cs, rows))
                            for j in range(len(LABEL_WORDS))])
        else:
            targets.append(draw(_dense))
    return rows, targets


def _state(v):
    return FockState({w: x for w, x in zip(LABEL_WORDS, v)})


@settings(max_examples=150, deadline=None)
@given(_row_lists(), st.lists(st.integers(0, len(LABEL_WORDS) - 1), max_size=6))
def test_linalg_matches_fraction_gauss_jordan(rows_targets, word_picks):
    rows, targets = rows_targets
    states = [_state(r) for r in rows]
    basis = _gauss_jordan(rows)
    assert len(LABEL_WORDS) - quotient_dimension(LABEL_WORDS, states) == len(basis)
    units = [[Fraction(j == k) for j in range(len(LABEL_WORDS))]
             for k in word_picks]
    want = len(_gauss_jordan(rows + units)) - len(basis)
    assert quotient_dimension([LABEL_WORDS[k] for k in word_picks], states) == want
    # one span solves every target in turn, the first one twice: solving
    # only reads its pivots, so each answer is that of a fresh span
    span = Span(states)
    for target in targets + targets[:1]:
        combo = span.solve(_state(target))
        assert combo == Span(states).solve(_state(target))
        rest, hist = _oracle_reduce(basis, list(target), {})
        if any(rest):
            assert combo is None
            continue
        # target + sum_k hist[k]*rows[k] reduced to zero
        assert combo == sorted((k, QuadScalar(-x)) for k, x in hist.items())
        rebuilt = FockState()
        for i, c in combo:
            rebuilt = rebuilt + states[i].scale(c)
        assert rebuilt == _state(target)


# -- circle (reduce_35 at m = n = 0) / star ---------------------------------


def test_circle_vacuum_left():
    for w in enumerate_basis(DIAG22, FULL_L, 2):
        assert not reduce_35(SPD, SPD.vacuum(), FockState.of(w), 0, 0)


def test_circle_bilinear():
    a = h1(SPD)
    ap = FockState.of(SPD.word(((1, 1),)))
    b = SPD.exp_state((1, 0))
    lhs = reduce_35(SPD, a + ap, b, 0, 0)
    assert lhs == reduce_35(SPD, a, b, 0, 0) + reduce_35(SPD, ap, b, 0, 0)


def test_star_unit():
    for w in enumerate_basis(DIAG22, FULL_L, 2):
        v = FockState.of(w)
        assert star(SPD, SPD.vacuum(), v) == v
        assert star(SPD, v, SPD.vacuum()) == v


def test_star_h_example():
    got = star(SPD, h1(SPD), SPD.vacuum())
    assert got == h1(SPD)


def test_reduce35_m0_is_circle():
    # a o b = sum_j C(wt a, j) a_{j-2} b, and wt e^(0,1) = 1 on diag22
    a = SPD.exp_state((0, 1))
    b = SPD.exp_state((0, -1))
    circle = state_mode(SPD, a, -2, b) + state_mode(SPD, a, -1, b)
    assert circle
    assert reduce_35(SPD, a, b, 0, 0) == circle


def test_reduce35_vacuum_vanishes():
    b = SPD.exp_state((1, 0))
    for m in range(3):
        for n in range(m + 1):
            assert not reduce_35(SPD, SPD.vacuum(), b, m, n)


def test_reduce35_precondition():
    a = h1(SPD)
    with pytest.raises(ParavoaError, match="need m >= n >= 0"):
        reduce_35(SPD, a, a, 0, 1)


def test_reduce35_overflow():
    a = SPD.exp_state((1, 0))
    with pytest.raises(TruncationOverflow):
        reduce_35(SPD, a, a, 5, 0, TruncationCtx(4))


def test_reduce35_exhibits_e2beta():
    # (beta|beta) = 2: R(e^b, e^b, 1, 0) = e^{2b}
    eb = SPD.exp_state((0, 1))
    got = reduce_35(SPD, eb, eb, 1, 0)
    assert got == SPD.exp_state((0, 2))


def test_star_label_additive():
    # exp words sit too low for star to reach weight (2b|2b)/2, so dress one
    eb = SPD.exp_state((0, 1))
    assert not star(SPD, eb, eb)
    a = heis_mode(SPD, (0, 1), -2, eb)  # weight 3
    got = star(SPD, a, eb)
    assert got
    for w, _ in got:
        assert w.label == (0, 2)


# -- nilpotency certificates ------------------------------------------------


def test_certificate_diag22_type2():
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    cert = nilpotency_certificate(DIAG22, P, (0, 1), TruncationCtx(8))
    assert cert["ok"]
    assert cert["N"] == 1
    kinds = {s["kind"] for s in cert["steps"]}
    assert {"exp_mode_vanish", "exp_mode_leading", "reduce_35_membership",
            "h_shift", "star_generation"} <= kinds
    json.dumps(cert)  # replayable: fully serializable


def test_certificate_a2_type1():
    P = MonoidDescriptor(kind="type1", gamma=A2.hvec(2, 1))
    cert = nilpotency_certificate(A2, P, (1, 0), TruncationCtx(8))
    assert cert["ok"]
    assert cert["N"] == 1


def test_certificate_records_cocycle_sign():
    P = MonoidDescriptor(kind="type2", gamma=A2.hvec(2, 1))
    # beta = a1 + a2 has (beta|beta) = 2 and eps(beta,beta) = (-1)^{G[1][0]}
    cert = nilpotency_certificate(A2, P, (1, 1), TruncationCtx(8))
    assert cert["cocycle_sign"] == -1
    assert cert["ok"]


def test_certificate_rejects_zero_beta():
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    with pytest.raises(ParavoaError, match=r"beta \(0, 0\) is not in the semigroup S"):
        nilpotency_certificate(DIAG22, P, (0, 0), TruncationCtx(6))


def test_certificate_rejects_beta_outside_S():
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    with pytest.raises(ParavoaError, match=r"beta \(1, 0\) is not in the semigroup S"):
        nilpotency_certificate(DIAG22, P, (1, 0), TruncationCtx(6))  # boundary


def test_certificate_checks_its_ceiling_first(monkeypatch):
    # step (ii) needs degree 2*(beta|beta) = 16 for beta = (0, 2)
    def no_work(*args):
        raise AssertionError("step (i) ran before the ceiling check")

    monkeypatch.setattr(zhu, "exp_mode", no_work)
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    with pytest.raises(TruncationOverflow, match="16 exceeds ceiling 15"):
        nilpotency_certificate(DIAG22, P, (0, 2), TruncationCtx(15))


# -- Eq. 3.3 congruence certificates ---------------------------------------


def test_eq33_trivial_instance():
    rep = eq33_certificate(SPD, h1(SPD), h1(SPD), [], TruncationCtx(6))
    assert rep["status"] == "resolved"


def _eq33_difference(sp, a, b):
    """a*b - sum_j C(wt b - 1, j) b_{j-1} a; C(-1, 0) = 1 for the vacuum b."""
    wb = int(sp.state_degree(b))
    out = star(sp, a, b)
    for j in range(max(wb, 1)):
        c = math.comb(wb - 1, j) if wb else 1
        out = out - state_mode(sp, b, j - 1, a).scale(c)
    return out


def assert_replays(sp, a, b, pool, mmax, cert):
    """A resolved certificate's residue combination rebuilds a*b minus the
    b-side exactly."""
    assert cert["status"] == "resolved"
    words = {w.to_str(): w for w in pool}
    total = FockState()
    for t in cert["combination"]:
        assert 0 <= t["n"] <= t["m"] <= mmax
        r = reduce_35(sp, FockState.of(words[t["x"]]),
                      FockState.of(words[t["y"]]), t["m"], t["n"])
        assert t["coeff"]["b"] == "0"
        total = total + r.scale(Fraction(t["coeff"]["a"]))
    assert total == _eq33_difference(sp, a, b)


def test_eq33_exp_pair():
    sp = FockSpace.full_lattice(DIAG22)
    a = sp.exp_state((1, 0))
    b = sp.exp_state((-1, 0))
    pool = [
        w
        for d in range(3)
        for w in enumerate_basis(DIAG22, FULL_L, d)
        if w.label in ((0, 0), (1, 0), (-1, 0))
    ]
    assert _eq33_difference(sp, a, b)
    for cap in range(3, 7):
        for mmax in range(3):
            rep = eq33_certificate(sp, a, b, pool, TruncationCtx(cap), mmax)
            assert rep["combination"]
            assert_replays(sp, a, b, pool, mmax, rep)


def _diag22_pool(max_deg):
    return [w for d in range(max_deg + 1)
            for w in enumerate_basis(DIAG22, FULL_L, d)
            if DIAG22.norm(w.label) <= 2]


def _named(pool, name):
    return FockState.of({w.to_str(): w for w in pool}[name])


POOL1 = _diag22_pool(1)
POOL2 = _diag22_pool(2)[:10]
# pairs of calls that differ in one component of the residue span's key:
# the ceiling, mmax, then the pool; the first call of each is unresolved
# and the second resolved
KEY_PAIRS = [
    ((_named(POOL1, "e[-1,0]"), _named(POOL1, "e[1,0]")),
     (POOL1, 1, 2), (POOL1, 2, 2)),
    ((_named(POOL2, "a1(-1)e[0,0]"), _named(POOL2, "a1(-1)e[0,-1]")),
     (POOL2, 4, 0), (POOL2, 4, 1)),
    ((_named(POOL2, "a1(-1)e[0,0]"), _named(POOL2, "a1(-1)e[0,-1]")),
     ([], 4, 1), (POOL2, 4, 1)),
]


@pytest.mark.parametrize("reverse", [False, True])
def test_eq33_span_cache_keys_on_pool_ceiling_and_mmax(reverse):
    # one space serves every call, interleaved; each certificate must be
    # the one a fresh space gives
    sp = FockSpace.full_lattice(DIAG22)
    for (a, b), unresolved, resolved in KEY_PAIRS:
        calls = [unresolved, resolved]
        for pool, cap, mmax in reversed(calls) if reverse else calls:
            rep = eq33_certificate(sp, a, b, pool, TruncationCtx(cap), mmax)
            fresh = eq33_certificate(FockSpace.full_lattice(DIAG22), a, b,
                                     pool, TruncationCtx(cap), mmax)
            assert rep == fresh
            if (pool, cap, mmax) == unresolved:
                assert rep == {"status": "unresolved"}
            else:
                assert_replays(sp, a, b, pool, mmax, rep)


def test_eq33_certificates_are_byte_stable():
    # all ordered pairs of the 7-word pool on one shared space; the digest
    # is that of the same certificates with a span eliminated per call
    sp = FockSpace.full_lattice(DIAG22)
    certs = [eq33_certificate(sp, FockState.of(a), FockState.of(b), POOL1,
                              TruncationCtx(4), 2)
             for a in POOL1 for b in POOL1]
    assert len(certs) == 49
    assert all(c["status"] == "resolved" for c in certs)
    digest = hashlib.sha256(json.dumps(certs, sort_keys=True).encode()).hexdigest()
    assert digest == "378734b715638423f80ef79212ddb178213c75ee9c90729ba7aeb8fb6c51b3f7"


def test_state_json_round_structure():
    s = h1(SPD) + SPD.exp_state((1, 0)).scale(-2)
    out = state_json(s)
    assert {e["word"] for e in out} == {"a1(-1)e[0,0]", "e[1,0]"}


def test_eq33_vacuum_b_is_resolved_empty():
    # a * 1 = a = 1_{-1} a, so the difference vanishes with no residues
    rep = eq33_certificate(SPD, SPD.exp_state((1, 0)), SPD.vacuum(), [],
                           TruncationCtx(4))
    assert rep == {"status": "resolved", "combination": []}


def test_eq33_zero_side_is_resolved_empty(monkeypatch):
    # a*0 and 0*b vanish, as does the b-side, so no residue span is needed
    def no_span(*args):
        raise AssertionError("a residue span was built")

    monkeypatch.setattr(zhu, "Span", no_span)
    x = SPD.exp_state((1, 0))
    for a, b in ((x, FockState()), (FockState(), x)):
        rep = eq33_certificate(SPD, a, b, POOL1, TruncationCtx(4))
        assert rep == {"status": "resolved", "combination": []}


# -- coefficient type of engine outputs --------------------------------------


def assert_quad_coeffs(state):
    for c in state.terms.values():
        assert type(c) is QuadScalar
        assert type(c.a) is Fraction and type(c.b) is Fraction


def test_engine_outputs_carry_quadscalar_coefficients():
    sp = FockSpace.full_lattice(A2)
    words = [w for d in range(3) for w in enumerate_basis(A2, FULL_L, d)
             if A2.norm(w.label) <= 2]
    for a in words[:6]:
        for b in words[:6]:
            assert_quad_coeffs(word_mode(sp, a, -1, FockState.of(b)))
    # omega_0 v and a_{-1}b, the all-pairs span of C1(V)
    om = sp.virasoro()
    span = [state_mode(sp, om, 0, FockState.of(w)) for w in words[1:6]]
    span += [word_mode(sp, a, -1, FockState.of(b))
             for a in words[1:4] for b in words[1:4]]
    # the three row kinds of c1_quotient_dims: L(-1) v, h_i(-k) v and
    # e^lam_{-k} v
    span += [_translate(sp, w) for w in words[1:6]]
    span += [heis_mode(sp, h, -k, FockState.of(w)) for h in ((1, 0), (0, 1))
             for k in (1, 2) for w in words[1:4]]
    span += [exp_mode(sp, lam, -k, FockState.of(w)) for lam in ((1, 0), (-1, 0))
             for k in (1, 2) for w in words[1:4]]
    for s in span:
        assert_quad_coeffs(s)
    target = span[0].scale(3) + span[1].scale(Fraction(-1, 2))
    combo = Span(span).solve(target)
    assert combo is not None
    for _, c in combo:
        assert type(c) is QuadScalar and type(c.a) is Fraction
    rebuilt = FockState()
    for i, c in combo:
        rebuilt = rebuilt + span[i].scale(c)
    assert rebuilt == target
