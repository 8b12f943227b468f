import time
from fractions import Fraction

import pytest

from paravoa import linalg, modrep, vertexops
from paravoa.cli import load_config
from paravoa.exactnum import QuadScalar
from paravoa.fock import FockSpace, FockState
from paravoa.lattice import GramLattice, ParavoaError
from paravoa.modrep import (
    C1Report,
    QSeries,
    Selector,
    c1_decide,
    c1_quotient_dims,
    character,
    check_tensor_character,
    fusion,
    fusion_key,
    irreducibles,
)
from paravoa.monoid import MonoidDescriptor, classify, member
from paravoa.vertexops import TruncationCtx, _translate, word_mode

from forms import (
    A2,
    ALPHAS,
    C1_ALPHAS,
    C1_FAR_ALPHAS,
    DIAG22,
    basis_partner,
    reduced_forms,
    type2,
)

P2_D = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
P1_D = MonoidDescriptor(kind="type1", gamma=DIAG22.hvec(0, 1))
P2_A = MonoidDescriptor(kind="type2", gamma=A2.hvec(2, 1))
P1_A = MonoidDescriptor(kind="type1", gamma=A2.hvec(2, 1))


# -- registry ---------------------------------------------------------------


def test_irreducibles_type2_bottom_weights():
    mods = irreducibles(DIAG22, P2_D, {"ts": [Fraction(0)]})
    assert len(mods) == 2  # 2N = 2 coset indices
    by_i = {m.i: m for m in mods}
    assert by_i[0].h == 0
    assert by_i[1].h == Fraction(1, 4)


def test_irreducibles_type1():
    mods = irreducibles(DIAG22, P1_D, {"lams": [(0, 0), (1, 0)]})
    assert mods[0].h == 0
    assert mods[1].h == 1


def test_irreducibles_rejects_cone():
    P = MonoidDescriptor(kind="cone", cone=((1, 0), (0, 1)))
    with pytest.raises(ParavoaError, match="P must be parabolic"):
        irreducibles(DIAG22, P, {})


def test_coset_count_matches_2n():
    L = GramLattice(gram=((4, 0), (0, 2)))  # (alpha|alpha) = 4, N = 2
    P = MonoidDescriptor(kind="type2", gamma=L.hvec(0, 1))
    mods = irreducibles(L, P, {"ts": [Fraction(0)]})
    assert len(mods) == 4
    assert {m.i for m in mods} == {0, 1, 2, 3}


# -- characters -------------------------------------------------------------


def test_character_heisenberg_rank2():
    q = character(Selector(kind="M1", L=DIAG22), 5)
    assert [q.coeff(n) for n in range(6)] == [1, 2, 5, 10, 20, 36]


def test_character_vh_weight1():
    q = character(Selector(kind="V_H", L=DIAG22, alpha=(1, 0)), 3)
    assert q.coeff(1) == 4


def test_character_rank1_lattice():
    # V_{Z alpha} for alpha = (1,0) of norm 2, the right factor of V_H
    q = modrep._dress(modrep._theta_line(2, Fraction(0), 3), 1, Fraction(3))
    assert q.coeff(0) == 1
    assert q.coeff(1) == 3


@pytest.mark.parametrize("norm", range(2, 9))
def test_theta_line_matches_a_brute_force_count(norm):
    # every m with (m + shift)^2 norm / 2 <= cap, counted by exponent, for
    # shifts inside and outside [0, 1) and caps negative, 0 and non-integral
    for i in range(-norm, 2 * norm):
        shift = Fraction(i, norm)
        for cap in (Fraction(-1, 2), -1, 0, Fraction(7, 3), 5):
            want: dict = {}
            for m in range(-20, 21):
                e = (m + shift) ** 2 * norm / 2
                if e <= cap:
                    want[e] = want.get(e, 0) + 1
            assert modrep._theta_line(norm, shift, cap) == want, (shift, cap)


def test_series_exponents_are_fractions():
    # algebra weights are ints and module weights Fractions; QSeries.build
    # makes every kept exponent a Fraction, sorted, and drops zero terms
    # and exponents past the cap
    sels = [Selector("V_L", DIAG22), Selector("V_P", DIAG22, P2_D),
            Selector("V_H", DIAG22, alpha=(1, 0)), Selector("M1", DIAG22)]
    mods = (irreducibles(DIAG22, P2_D, {"ts": [Fraction(-1, 3)]})
            + irreducibles(DIAG22, P1_D, {"lams": [(1, 0)]}))
    series = [character(x, Fraction(5, 2)) for x in sels + mods]
    series += [modrep._dress(modrep._theta_line(2, Fraction(0), 3), 1, 3),
               QSeries.build({2: 1, 0: 3, Fraction(1, 2): 0, 4: 1}, 3)]
    for q in series:
        assert q.terms and type(q.cap) is Fraction
        assert [(type(e), type(c)) for e, c in q.terms] == [(Fraction, int)] * len(q.terms)
        assert list(q.terms) == sorted(q.terms)
    assert series[-1].terms == ((Fraction(0), 3), (Fraction(2), 1))


def test_character_type2_module_bottom():
    mods = irreducibles(DIAG22, P2_D, {"ts": [Fraction(0)]})
    m1 = next(m for m in mods if m.i == 1)
    q = character(m1, Fraction(9, 4))
    # both e^{alpha/2} and e^{-alpha/2} sit at the bottom weight 1/4
    assert q.coeff(Fraction(1, 4)) == 2
    # next level: one Heisenberg step in each of two directions, per point
    assert q.coeff(Fraction(5, 4)) == 4


def test_character_type1_module():
    # the bottom weight (lam|lam)/2 dressed by two Heisenberg colors
    lo, hi = irreducibles(DIAG22, P1_D, {"lams": [(0, 0), (1, 0)]})
    assert [t["dim"] for t in character(lo, 2).to_json()] == [1, 2, 5]
    assert character(hi, 3).to_json() == [
        {"exp": "1", "dim": 1}, {"exp": "2", "dim": 2}, {"exp": "3", "dim": 5}]
    (irr,) = irreducibles(DIAG22, P1_D, {"lams": [(QuadScalar(1, 1, 2), 0)]})
    assert irr.h == QuadScalar(3, 2, 2)  # no exponent of a q-series
    with pytest.raises(ValueError, match="rational bottom weight"):
        character(irr, 4)


def test_character_vl_vs_vp_split():
    qL = character(Selector(kind="V_L", L=DIAG22), 2)
    qP = character(Selector(kind="V_P", L=DIAG22, P=P2_D), 2)
    qPm = character(
        Selector(kind="V_P", L=DIAG22,
                 P=MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, -1))), 2
    )
    qH = character(Selector(kind="V_H", L=DIAG22, alpha=(1, 0)), 2)
    # V_L = V_P + V_P^opp glued along V_H
    for e in (0, 1, 2):
        assert qP.coeff(e) + qPm.coeff(e) - qH.coeff(e) == qL.coeff(e)


# the registry sets h = t^2 N_beta + i^2/4N, while the coset's lowest weight
# is min(i, 2N - i)^2/4N: they differ exactly where N >= 2 and i > N
LOW_WEIGHT_FOUND = ("ROADMAP Baseline, FOUND: type-II bottom weights are wrong "
                    "for i > N (item 2 mends it)")


@pytest.mark.parametrize("gram,above", [
    pytest.param(gram, above, id=f"{gram}-{'i_gt_N' if above else 'i_le_N'}", marks=[
        pytest.mark.xfail(strict=True, raises=AssertionError, reason=LOW_WEIGHT_FOUND)
    ] if above else []) for gram in reduced_forms() for above in (False, True)])
def test_registry_weight_is_the_lowest_exponent_of_its_character(gram, above):
    # every type-II descriptor of the family, every coset index, two t; both
    # sides of a line give the same modules, so each is checked once
    L = GramLattice(gram=gram, D=2)
    mods = {m for alpha in C1_ALPHAS for s in (1, -1)
            for m in irreducibles(L, type2(L, alpha, s),
                                  {"ts": [Fraction(0), Fraction(1, 2)]})
            if (m.N >= 2 and m.i > m.N) == above}
    assert mods
    assert [m for m in mods if character(m, m.h).terms[0][0] != m.h] == []


def test_tensor_character_cap12():
    rep = check_tensor_character(DIAG22, (1, 0), 12)
    assert rep["equal"]


def test_tensor_character_small_caps():
    rep0 = check_tensor_character(DIAG22, (1, 0), 0)
    assert rep0["equal"]
    assert rep0["lhs"] == [{"exp": "0", "dim": 1}]
    rep1 = check_tensor_character(A2, (1, 0), 6)
    assert rep1["equal"]


# -- fusion -----------------------------------------------------------------


def test_irreducibles_sample_the_coset_indices_asked_for():
    # in the order given; an index outside 0..2N-1 yields nothing
    mods = irreducibles(DIAG22, P2_D, {"ts": [Fraction(0), Fraction(1, 2)],
                                       "is": [1, 5, -1, 0]})
    assert [(m.t, m.i) for m in mods] == [
        (0, 1), (0, 0), (Fraction(1, 2), 1), (Fraction(1, 2), 0)]
    assert mods[1:2] == irreducibles(DIAG22, P2_D, {"ts": [0]})[:1]


def test_fusion_type2_examples():
    mods = irreducibles(DIAG22, P2_D, {"ts": [Fraction(0)]})
    m0 = next(m for m in mods if m.i == 0)
    m1 = next(m for m in mods if m.i == 1)
    assert fusion(m1, m1, m0) == 1  # 1 + 1 = 0 mod 2
    assert fusion(m1, m1, m1) == 0
    assert fusion(m0, m1, m1) == 1


def test_fusion_type1():
    mods = irreducibles(DIAG22, P1_D, {"lams": [(0, 0), (1, 0), (2, 0)]})
    z, a, b = mods
    assert fusion(a, a, b) == 1
    assert fusion(a, z, a) == 1
    assert fusion(a, a, a) == 0


def test_fusion_mixed_types_rejected():
    # the kinds are named in sorted order, whatever the order of the labels
    t2 = irreducibles(DIAG22, P2_D, {"ts": [Fraction(0)]})[0]
    t1 = irreducibles(DIAG22, P1_D, {"lams": [(0, 0)]})[0]
    for args in ((t1, t2, t2), (t2, t2, t1), (t2, t1, t1)):
        with pytest.raises(ParavoaError) as exc:
            fusion(*args)
        assert str(exc.value) == "mixed module kinds TYPE_II_MOD, TYPE_I_MOD"


def type2_modules(N, ts, a0=(1, 0)):
    """The type-II modules of the type-II monoid on the line through a0, in
    a lattice where a0 has norm 2N and is orthogonal to the other basis
    vector."""
    L = GramLattice(gram=((2 * N, 0), (0, 2)) if a0 == (1, 0) else ((2, 0), (0, 2 * N)))
    return irreducibles(L, type2(L, a0), {"ts": ts})


FUSION_TS = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_fusion_rule_type2_exhaustive(N):
    # M(t1, i1) x M(t2, i2) -> M(t3, i3) exactly when t1 + t2 = t3 and
    # i1 + i2 = i3 mod 2N
    mods = type2_modules(N, FUSION_TS)
    assert len(mods) == 4 * 2 * N and {m.N for m in mods} == {N}
    for m1 in mods:
        for m2 in mods:
            for m3 in mods:
                rule = m1.t + m2.t == m3.t and (m1.i + m2.i - m3.i) % (2 * N) == 0
                assert fusion(m1, m2, m3) == int(rule)


# denominators 1, 2, 3, 5 and 6, one t negative, and -1/3 + 1/2 = 1/6 sampled
ORACLE_TS = [Fraction(-1, 3), Fraction(0), Fraction(1, 2), Fraction(2, 5), Fraction(1, 6)]


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_fusion_agrees_with_the_fusion_keys(gram):
    # on the type-II monoids of the lines through (1, 0) and (0, 1), both
    # sides: fusion's integer test is key(m1 x m2) == key(m3) on every triple
    L = GramLattice(gram=gram, D=2)
    families = []
    for a0 in ALPHAS[:2]:
        for s in (1, -1):
            mods = irreducibles(L, type2(L, a0, s), {"ts": ORACLE_TS})
            keys = [fusion_key(m) for m in mods]
            for m1 in mods:
                for m2 in mods:
                    k12 = fusion_key(m1, m2)
                    assert [fusion(m1, m2, m3) for m3 in mods] == [
                        int(k12 == k3) for k3 in keys], (m1, m2)
            families.append(mods)
    # mixed kinds, then modules of another alpha or N, still raise first
    t1 = irreducibles(L, MonoidDescriptor(kind="type1", gamma=L.hvec(1, 2)),
                      {"lams": [(0, 0)]})[0]
    m = families[0][1]
    for args in ((t1, m, m), (m, t1, m), (m, m, t1)):
        with pytest.raises(ParavoaError, match="^mixed module kinds"):
            fusion(*args)
    others = [f[0] for f in families if (f[0].alpha, f[0].N) != (m.alpha, m.N)]
    assert others
    for other in others:
        for args in ((other, m, m), (m, other, m), (m, m, other)):
            with pytest.raises(ParavoaError, match="^labels must share the same lattice data$"):
                fusion(*args)


def test_fusion_labels_must_share_lattice_data():
    # another N, or the same N on another boundary line
    m = type2_modules(2, [Fraction(0)])[0]
    for other in (type2_modules(1, [Fraction(0)])[0],
                  type2_modules(2, [Fraction(0)], a0=(0, 1))[0]):
        assert (other.alpha, other.N) != (m.alpha, m.N)
        for args in ((other, m, m), (m, other, m), (m, m, other)):
            with pytest.raises(ParavoaError) as exc:
                fusion(*args)
            assert str(exc.value) == "labels must share the same lattice data"


def test_fusion_group_law():
    ts = [Fraction(0), Fraction(1, 2), Fraction(-1, 2)]
    mods = irreducibles(DIAG22, P2_D, {"ts": ts})
    sample = [m for m in mods if m.t in (Fraction(0),)]
    # closed sample under (t, i) addition with t = 0: check simple-current
    # behavior: each pair fuses into exactly one member
    for m1 in sample:
        for m2 in sample:
            hits = [m3 for m3 in sample if fusion(m1, m2, m3) == 1]
            assert len(hits) == 1


# -- C1 cofiniteness --------------------------------------------------------


def test_c1_type1_never_cofinite():
    for L, P in ((DIAG22, P1_D), (A2, P1_A)):
        assert c1_decide(L, P).verdict == "NOT_COFINITE"


def test_c1_a2_type2_witness():
    rep = c1_decide(A2, P2_A)
    assert rep.verdict == "COFINITE"
    n, k, l, val = rep.condition_values
    assert val <= 0


def test_c1_a2_named_witness_value():
    # the (0,1) candidate: (alpha|beta) = -1, l = k = 1, value -2
    alpha, beta = (1, 0), (0, 1)
    n = abs(A2.inner_int(alpha, beta))
    assert n == 1
    assert n * n + 1 - 4 == -2


def test_c1_diag22_orthogonal_witness():
    rep = c1_decide(DIAG22, P2_D)
    assert rep.verdict == "COFINITE"
    assert rep.condition_values[0] == 0  # orthogonal pairing branch


def c1_oracle(L, P, radius):
    """c1_decide with the box of the radius sorted at once, by sup norm, then
    |(alpha|v)|, then v.  The box must hold alpha's basis partners in P with
    |(alpha|v)| < (alpha|alpha): two of them, or one with (alpha|v) = 0.
    Every partner with (alpha|v) = 0 or (v|v) < (alpha|alpha) is one of
    them, since (alpha|v)^2 = (alpha|alpha)(v|v) - det L on a basis."""
    rep = classify(L, P)
    if rep.type == "TYPE_I":
        return C1Report(verdict="NOT_COFINITE")
    alpha = rep.alpha
    box = range(-radius, radius + 1)
    partners = sorted(((b1, b2) for b1 in box for b2 in box
                       if abs(alpha[0] * b2 - alpha[1] * b1) == 1 and member(L, P, (b1, b2))),
                      key=lambda v: (max(abs(v[0]), abs(v[1])), abs(L.inner_int(alpha, v)), v))
    near = [abs(L.inner_int(alpha, v)) for v in partners
            if abs(L.inner_int(alpha, v)) < L.norm(alpha)]
    assert near == [0] or len(near) == 2, (alpha, radius, near)
    best = None
    for beta in partners:
        n = abs(L.inner_int(alpha, beta))
        if n == 0:
            return C1Report("COFINITE", (alpha, beta),
                            (0, L.norm(beta) // 2, L.norm(alpha) // 2, 0))
        l, k = sorted((L.norm(alpha) // 2, L.norm(beta) // 2))
        val = n * n + l * l - 4 * l * k
        if val <= 0:
            return C1Report("COFINITE", (alpha, beta), (n, k, l, val))
        if best is None or val < best[3]:
            best = (n, k, l, val)
    return C1Report("CONDITION_FAILED", None, best)


def assert_paper_value(L, rep):
    """A witness is a basis, and on a basis (alpha, beta) with n != 0 the
    Gram determinant 4*N_alpha*N_beta - n^2 (N = norm/2) is det L, so the
    value n^2 + l^2 - 4lk is l^2 - det L with l = min(N_alpha, N_beta)."""
    if rep.witness_basis:
        (a0, a1), (b0, b1) = rep.witness_basis
        assert abs(a0 * b1 - a1 * b0) == 1
    if rep.condition_values and rep.condition_values[0]:
        n, k, l, val = rep.condition_values
        assert val == l * l - L.det


def assert_matches_box_sort(L, P):
    # c1_oracle checks that the box of radius |alpha| + 2 holds every
    # partner that can decide
    assert classify(L, P).type == "TYPE_II"
    alpha = classify(L, P).alpha
    rep = c1_decide(L, P)
    assert rep == c1_oracle(L, P, max(map(abs, alpha)) + 2), P
    assert rep.verdict in ("COFINITE", "CONDITION_FAILED")
    assert_paper_value(L, rep)
    return rep


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_c1_decide_matches_full_box_sort(gram):
    # type II on the line through alpha, both orientations
    L = GramLattice(gram=gram, D=3)
    verdicts = {(alpha, s): assert_matches_box_sort(L, type2(L, alpha, s))
                for alpha in C1_ALPHAS for s in (1, -1)}
    if gram == ((2, -1), (-1, 8)):
        # no basis partner of alpha = (1, 2) meets the condition: the best
        # has n = 15, k = 15, l = 4 and value 1
        for s in (1, -1):
            assert verdicts[(1, 2), s] == C1Report(
                "CONDITION_FAILED", None, (15, 15, 4, 1))


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_c1_decide_matches_full_box_sort_far_and_generated(gram):
    # type II on the Fibonacci lines, and type-II generators [a, -a, +-b]
    # with det[a, b] = 1 on every line
    L = GramLattice(gram=gram, D=3)
    descriptors = [type2(L, alpha, s) for alpha in C1_FAR_ALPHAS for s in (1, -1)]
    for alpha in C1_ALPHAS + C1_FAR_ALPHAS:
        b = basis_partner(alpha)
        descriptors += [MonoidDescriptor(kind="generators", generators=(
            alpha, (-alpha[0], -alpha[1]), (s * b[0], s * b[1]))) for s in (1, -1)]
    for P in descriptors:
        assert_matches_box_sort(L, P)


def test_c1_cost_does_not_grow_with_the_box():
    # alpha = (1,2) fails the condition: its best partner has N = 4, so the
    # value is 4^2 - det L = 1.  No box bounds the scan: it walks the few
    # partners out to the two next to the line's point nearest 0
    L = GramLattice(gram=((2, -1), (-1, 8)), D=3)
    want = C1Report("CONDITION_FAILED", None, (15, 15, 4, 1))
    for s in (1, -1):
        t0 = time.process_time()
        rep = c1_decide(L, type2(L, (1, 2), s))
        assert time.process_time() - t0 < 2
        assert rep == want


def test_c1_quotient_dims_vh():
    dims = c1_quotient_dims(DIAG22, "V_H", 4, TruncationCtx(6), alpha=(1, 0))
    assert dims[0] == 1
    assert dims[1] == 4
    assert dims[2:] == [0, 0, 0]


def test_c1_quotient_dims_vp_type1_tail():
    dims = c1_quotient_dims(DIAG22, "V_P", 3, TruncationCtx(6), P=P1_D)
    assert dims[0] == 1
    assert any(d > 0 for d in dims[2:])


# -- C1 spans: strong generators against the all-pairs oracle ---------------


def all_pairs_dims(sel, cap):
    """dim V / C1(V) per degree from every a_{-1}b over pairs of basis words
    of positive degree, plus L(-1)V: the span by definition."""
    sp = FockSpace.full_lattice(sel.L)
    labels = sel.labels(cap)
    by_deg = [sp.basis(d, labels=labels) for d in range(cap + 1)]
    dims = []
    for d in range(cap + 1):
        span = [_translate(sp, v) for v in by_deg[d - 1]] if d >= 2 else []
        span += [word_mode(sp, a, -1, FockState.of(b))
                 for d1 in range(1, d) for a in by_deg[d1]
                 for b in by_deg[d - d1]]
        dims.append(linalg.quotient_dimension(by_deg[d], span))
    return dims


def record_blocks(monkeypatch, sp):
    """Patch modrep's quotient_dimension to check that each call gets one
    (degree, label) block: its basis words and every word of every row
    share one label and one degree."""
    real = linalg.quotient_dimension

    def checked(words, rows):
        ((lab, deg),) = {(w.label, sp.degree(w)) for w in words}
        for r in rows:
            assert {(w.label, sp.degree(w)) for w, _ in r} <= {(lab, deg)}
        return real(words, rows)

    monkeypatch.setattr(modrep, "quotient_dimension", checked)


def assert_vp_dims_match_all_pairs_span(L, P, cap):
    sel = Selector("V_P", L, P=P)
    want = all_pairs_dims(sel, cap)
    dims = c1_quotient_dims(L, "V_P", cap, P=P)
    assert dims == want, P
    # both sides above come from linalg; this one does not: the vacuum,
    # h_1(-1) and h_2(-1), and one e^lam per strongly indecomposable lam
    si = modrep._strongly_indecomposable(L, sel.labels(cap))
    for d, got in enumerate(dims):
        n_si = sum(1 for lam in si if L.norm(lam) == 2 * d)
        assert got == (d == 0) + 2 * (d == 1) + n_si, (P, d)


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_c1_dims_match_all_pairs_span_vh(monkeypatch, gram):
    L = GramLattice(gram=gram)
    record_blocks(monkeypatch, FockSpace.full_lattice(L))
    for alpha in ALPHAS:
        want = all_pairs_dims(Selector("V_H", L, alpha=alpha), 4)
        assert c1_quotient_dims(L, "V_H", 4, alpha=alpha) == want, alpha


@pytest.mark.parametrize("config", ["a2", "diag22"])
@pytest.mark.parametrize("name", ["P1", "P2"])
def test_c1_dims_match_all_pairs_span_vp(monkeypatch, config, name):
    cfg = load_config(config)
    record_blocks(monkeypatch, FockSpace.full_lattice(cfg.lattice))
    assert_vp_dims_match_all_pairs_span(cfg.lattice, cfg.descriptor(name), 5)


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_c1_dims_match_all_pairs_span_vp_family(monkeypatch, gram):
    # type II, and type I with a rational boundary and with an irrational gamma
    L = GramLattice(gram=gram, D=2)
    record_blocks(monkeypatch, FockSpace.full_lattice(L))
    for kind, gamma in (("type2", L.hvec(1, 2)), ("type1", L.hvec(1, 2)),
                        ("type1", L.hvec(1, QuadScalar(0, 1, 2)))):
        assert_vp_dims_match_all_pairs_span(L, MonoidDescriptor(kind=kind, gamma=gamma), 4)


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_strong_generators_of_vh_are_plus_minus_alpha(gram):
    L = GramLattice(gram=gram)
    for alpha in ALPHAS:
        # cap 6 keeps +-alpha, of norm at most 12 on these forms, in the set
        labels = Selector("V_H", L, alpha=alpha).labels(6)
        got = modrep._strongly_indecomposable(L, labels)
        assert sorted(got) == sorted([alpha, (-alpha[0], -alpha[1])])


def test_orthogonal_sum_is_not_a_strong_generator():
    # (1,1) = (1,0) + (0,1) with ((1,0)|(0,1)) = 0, so e^(1,1) is not kept
    labels = Selector("V_P", DIAG22, P=P2_D).labels(4)
    got = modrep._strongly_indecomposable(DIAG22, labels)
    assert got == [(-1, 0), (0, 1), (1, 0)]


def test_c1_rows_use_only_minus_one_modes(monkeypatch):
    seen = []

    def only_minus_one(real):
        def mode(sp, u, n, v, *rest):
            seen.append(n)
            assert n == -1, (u, n)
            return real(sp, u, n, v, *rest)
        return mode

    monkeypatch.setattr(modrep, "exp_mode", only_minus_one(modrep.exp_mode))
    monkeypatch.setattr(modrep, "heis_mode", only_minus_one(modrep.heis_mode))
    assert c1_quotient_dims(DIAG22, "V_H", 5, alpha=(1, 0)) == [1, 4, 0, 0, 0, 0]
    assert c1_quotient_dims(A2, "V_P", 5, P=P1_A) == [1, 5, 0, 1, 0, 0]
    assert len(seen) > 100


def test_c1_dims_never_use_the_iterate_recursion(monkeypatch):
    def no_word_mode(*args):
        raise AssertionError("a C1 row went through word_mode")

    monkeypatch.setattr(vertexops, "word_mode", no_word_mode)
    monkeypatch.setattr(vertexops, "_word_mode_w", no_word_mode)
    assert c1_quotient_dims(DIAG22, "V_H", 4, alpha=(1, 0)) == [1, 4, 0, 0, 0]
    assert c1_quotient_dims(A2, "V_P", 5, P=P1_A) == [1, 5, 0, 1, 0, 0]
    assert c1_quotient_dims(DIAG22, "V_P", 5, P=P1_D) == [1, 4, 1, 0, 0, 1]
