import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paravoa import vertexops
from paravoa.exactnum import QuadScalar
from paravoa.fock import (
    FULL_L,
    MONOID,
    FockSpace,
    FockState,
    _labels_up_to,
    enumerate_basis,
    make_word,
)
from paravoa.lattice import GramLattice, ParavoaError, perp_primitive
from paravoa.linalg import quotient_dimension
from paravoa.modrep import Selector, character, check_tensor_character
from paravoa.monoid import MonoidDescriptor, parabolic
from paravoa.vertexops import (
    _unit,
    _translate,
    TensorState,
    TruncationCtx,
    TruncationOverflow,
    check_commutator,
    check_ideal,
    check_lemma35,
    check_phi_hom,
    exp_mode,
    from_tensor,
    heis_mode,
    phi_map,
    state_mode,
    word_mode,
)

from forms import A2, ALPHAS, DIAG22, reduced_forms, type2

SPA = FockSpace.full_lattice(A2)
SPD = FockSpace.full_lattice(DIAG22)

E1 = (Fraction(1), Fraction(0))
E2 = (Fraction(0), Fraction(1))


def vac(sp):
    return sp.vacuum()


# -- cocycle ----------------------------------------------------------------


def test_cocycle_diagonal_trivial():
    assert SPA.eps((1, 0), (1, 0)) == 1


def test_cocycle_condition_a2():
    assert SPA.eps((1, 0), (0, 1)) * SPA.eps((0, 1), (1, 0)) == -1


def test_cocycle_zero_argument():
    for b in DIAG22.box(2):
        assert SPD.eps((0, 0), b) == 1
        assert SPD.eps(b, (0, 0)) == 1


# -- Heisenberg modes -------------------------------------------------------


def test_h0_on_exp():
    v = SPA.exp_state((0, 1))
    got = heis_mode(SPA, E1, 0, v)
    assert got == v.scale(-1)


def test_contraction():
    v = heis_mode(SPD, E1, -1, vac(SPD))
    got = heis_mode(SPD, E1, 1, v)
    assert got == vac(SPD).scale(2)


def test_annihilates_vacuum():
    assert not heis_mode(SPD, E1, 5, vac(SPD))


def test_double_contraction_multiplicity():
    # h(1) on h(-1)^2 vac picks both slots: 2 * (h|h) * h(-1) vac
    v = heis_mode(SPD, E1, -1, heis_mode(SPD, E1, -1, vac(SPD)))
    got = heis_mode(SPD, E1, 1, v)
    assert got == heis_mode(SPD, E1, -1, vac(SPD)).scale(4)


def test_heis_commutator_relation():
    # [h1(m), h2(n)] = m delta (h1|h2) on random states
    rng = random.Random(3)
    words = enumerate_basis(DIAG22, FULL_L, 2)
    for _ in range(10):
        w = rng.choice(words)
        v = FockState.of(w)
        m = rng.randint(-3, 3)
        n = -m
        ab = heis_mode(SPD, E1, m, heis_mode(SPD, E2, n, v))
        ba = heis_mode(SPD, E2, n, heis_mode(SPD, E1, m, v))
        expect = v.scale(m * DIAG22.gram[0][1])
        assert ab - ba == expect  # zero here: (a1|a2) = 0


# -- exponential modes ------------------------------------------------------


def test_exp_creation_property():
    got = exp_mode(SPD, (1, 0), -1, vac(SPD))
    assert got == SPD.exp_state((1, 0))


def test_exp_nilpotent_range():
    # (b|b) = 2N = 2: e^b_{-m} e^b = 0 for m <= 2
    eb = SPD.exp_state((0, 1))
    for m in (0, 1, 2, -1):
        assert not exp_mode(SPD, (0, 1), -m, eb)


def test_exp_first_nonzero_mode():
    eb = SPD.exp_state((0, 1))
    got = exp_mode(SPD, (0, 1), -3, eb)
    assert got == SPD.exp_state((0, 2))


def test_exp_opposite_labels_give_vacuum():
    got = exp_mode(SPD, (1, 0), 1, SPD.exp_state((-1, 0)))
    assert got == vac(SPD)


def test_exp_h_shift():
    # z^a exponent: Y(e^a,z) e^{-a} = z^-2 (1 + a(-1) z + ...) vac
    got = exp_mode(SPD, (1, 0), 0, SPD.exp_state((-1, 0)))
    expect = heis_mode(SPD, E1, -1, vac(SPD))
    assert got == expect


# -- general modes ----------------------------------------------------------


def test_general_reduces_to_heis():
    u = SPD.word(((1, 0),))
    for n in range(-3, 3):
        for w in enumerate_basis(DIAG22, FULL_L, 2):
            v = FockState.of(w)
            assert word_mode(SPD, u, n, v) == heis_mode(SPD, E1, n, v)


def test_general_reduces_to_exp():
    u = SPD.word((), (0, 1))
    for n in range(-4, 2):
        v = SPD.exp_state((0, 1))
        assert word_mode(SPD, u, n, v) == exp_mode(SPD, (0, 1), n, v)


def test_creation_axiom_all_words():
    for sp, L in ((SPD, DIAG22), (SPA, A2)):
        for d in range(4):
            for u in enumerate_basis(L, FULL_L, d):
                assert word_mode(sp, u, -1, vac(sp)) == FockState.of(u)


def test_vacuum_operator_is_identity():
    one = SPD.word(())
    for w in enumerate_basis(DIAG22, FULL_L, 2):
        v = FockState.of(w)
        assert word_mode(SPD, one, -1, v) == v
        for n in (-3, -2, 0, 1, 2):
            assert not word_mode(SPD, one, n, v)


def test_truncation_overflow():
    # u_{-5} 1 for u = a1(-3) has degree 3 + 0 + 5 - 1 = 7
    u = SPD.word(((3, 0),))
    degree = SPD.degree(u) + SPD.degree(SPD.word(())) + 5 - 1
    assert degree == 7 and not TruncationCtx(4).fits(degree)
    with pytest.raises(TruncationOverflow, match="result degree 7 exceeds ceiling 4"):
        TruncationCtx(4).check(degree)
    # same request with a higher ceiling is fine
    assert TruncationCtx(8).fits(degree)
    TruncationCtx(8).check(degree)
    # the engine itself takes no ceiling: u_{-5} 1 = (L(-1)^4 / 4!) u
    got = word_mode(SPD, u, -5, vac(SPD))
    assert got == FockState.of(SPD.word(((7, 0),)), 15)
    assert SPD.state_degree(got) == degree


@pytest.mark.parametrize("cap", [0, 1, 4])
def test_lowest_mode_is_the_least_that_fits(cap):
    # deg(u_n v) = deg u + deg v - n - 1, integral or not
    ctx = TruncationCtx(cap)
    for total in [Fraction(k, 4) for k in range(-8, 41)]:
        n = ctx.lowest_mode(total)
        assert ctx.fits(total - n - 1) and not ctx.fits(total - (n - 1) - 1), total


# -- conformal vector -------------------------------------------------------


def l_mode(sp, k, v):
    return state_mode(sp, sp.virasoro(), k + 1, v)


def test_l0_eigenvalues():
    for sp, L in ((SPD, DIAG22), (SPA, A2)):
        for d in range(4):
            for w in enumerate_basis(L, FULL_L, d):
                v = FockState.of(w)
                assert l_mode(sp, 0, v) == v.scale(d)


def test_lminus1_vacuum():
    assert not l_mode(SPD, -1, vac(SPD))


def test_lminus1_translation_on_exp():
    ea = SPD.exp_state((1, 0))
    assert l_mode(SPD, -1, ea) == heis_mode(SPD, E1, -1, ea)


def test_lminus1_derivative_property():
    # (L(-1)u)_n = -n u_{n-1}
    rng = random.Random(5)
    words = enumerate_basis(DIAG22, FULL_L, 2)
    for _ in range(6):
        u = rng.choice(words)
        w = rng.choice(words)
        v = FockState.of(w)
        n = rng.randint(-3, 2)
        lu = l_mode(SPD, -1, FockState.of(u))
        assert state_mode(SPD, lu, n, v) == word_mode(SPD, u, n - 1, v).scale(-n)


def test_virasoro_central_charge():
    # L(2) omega = c/2 vac with c = rank = 2
    om = SPD.virasoro()
    got = l_mode(SPD, 2, om)
    assert got == vac(SPD)


# -- commutator identity ----------------------------------------------------


def test_commutator_heisenberg():
    a = FockState.of(SPD.word(((1, 0),)))
    assert not check_commutator(SPD, a, a, 1, -1, vac(SPD))


def test_commutator_exp_pair():
    a = SPD.exp_state((1, 0))
    b = SPD.exp_state((-1, 0))
    for m, n in ((0, 0), (1, -1), (-1, 0), (2, -2)):
        assert not check_commutator(SPD, a, b, m, n, vac(SPD))


def test_commutator_omega_exp():
    om = SPD.virasoro()
    b = SPD.exp_state((1, 0))
    for m, n in ((0, 0), (1, -1), (2, -1)):
        assert not check_commutator(SPD, om, b, m, n, vac(SPD))


def test_commutator_randomized():
    rng = random.Random(17)
    for L, sp in ((DIAG22, SPD), (A2, SPA)):
        words = [w for d in range(3) for w in enumerate_basis(L, FULL_L, d)]
        for _ in range(10):
            a = FockState.of(rng.choice(words))
            b = FockState.of(rng.choice(words))
            v = FockState.of(rng.choice(words))
            m = rng.randint(-2, 2)
            n = rng.randint(-2, 2)
            assert not check_commutator(sp, a, b, m, n, v)


# -- Lemma 3.5 style commutation -------------------------------------------


def test_lemma35_exp_pair():
    beta = E2
    u = SPD.word((), (1, 0))
    v = SPD.exp_state((-1, 0))
    for m in range(-2, 3):
        res = check_lemma35(SPD, beta, m, u, v, TruncationCtx(5))
        assert res and not any(res.values())


def test_lemma35_dressed_word():
    beta = E2
    u = SPD.word(((1, 0),), (2, 0))
    for m in (-2, -1, 1, 2):
        res = check_lemma35(SPD, beta, m, u, vac(SPD), TruncationCtx(6))
        assert not any(res.values())


def test_lemma35_precondition():
    with pytest.raises(ParavoaError, match="beta must be orthogonal to u's label"):
        check_lemma35(SPD, E1, 1, SPD.word((), (1, 0)), vac(SPD), TruncationCtx(4))


# -- ideal property ---------------------------------------------------------


def test_ideal_type2():
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    rep = check_ideal(DIAG22, P, TruncationCtx(4), sample_degree=2)
    assert rep["instances"] > 0
    assert rep["failures"] == []


def test_ideal_type1():
    P = MonoidDescriptor(kind="type1", gamma=DIAG22.hvec(0, 1))
    rep = check_ideal(DIAG22, P, TruncationCtx(3), sample_degree=1)
    assert rep["instances"] > 0
    assert rep["failures"] == []


def _ideal_by_modes(L, P, ctx, sample_degree):
    """check_ideal's report with every mode a_n b evaluated and the label of
    each of its terms tested: the route check_ideal's label sums replace,
    kept as their oracle.  The ideal test is looked up on vertexops, so a
    test that patches it there patches both routes."""
    in_ideal = vertexops._ideal(L, P, parabolic(L, P))
    sp = FockSpace.full_lattice(L)
    a_words = []
    b_words = []
    for d in range(sample_degree + 1):
        for w in enumerate_basis(L, MONOID(P), d):
            a_words.append(w)
            if in_ideal(w.label):
                b_words.append(w)
    instances = 0
    failures = []
    for a in a_words:
        for b in b_words:
            da, db = sp.degree(a), sp.degree(b)
            for n in range(ctx.lowest_mode(da + db), int(da + db)):
                res = word_mode(sp, a, n, FockState.of(b))
                instances += 1
                for w, _ in res:
                    if not in_ideal(w.label):
                        failures.append(
                            {"a": a.to_str(), "b": b.to_str(), "n": n,
                             "label": list(w.label)}
                        )
    return {"check": "ideal", "instances": instances, "failures": failures}


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_ideal_label_route_matches_mode_route(gram):
    # type II on the lines through ALPHAS, both sides; type I with rational
    # gammas and with quadratic-irrational ones, whose boundary meets L in 0
    L = GramLattice(gram=gram, D=2)
    descs = [type2(L, a, s) for a in ALPHAS for s in (1, -1)]
    descs += [MonoidDescriptor(kind="type1", gamma=g) for g in (
        L.hvec(1, 2), L.hvec(Fraction(-3, 2), 1),
        (QuadScalar(1, 1, 2), QuadScalar(-1, 0, 2)),
        (QuadScalar(0, -1, 2), QuadScalar(1, 0, 2)))]
    ctx = TruncationCtx(3)
    instances = 0
    for P in descs:
        rep = check_ideal(L, P, ctx, 2)
        assert rep["failures"] == [] and rep == _ideal_by_modes(L, P, ctx, 2), P
        instances += rep["instances"]
    assert instances


def test_valid_ideal_evaluates_no_mode(monkeypatch):
    calls = [0]
    real_word = vertexops.word_mode

    def word(sp, u, k, v):
        calls[0] += 1
        return real_word(sp, u, k, v)

    monkeypatch.setattr(vertexops, "word_mode", word)
    for kind in ("type1", "type2"):
        P = MonoidDescriptor(kind=kind, gamma=DIAG22.hvec(0, 1))
        rep = check_ideal(DIAG22, P, TruncationCtx(6), sample_degree=4)
        assert rep["instances"] > 0 and rep["failures"] == []
    assert calls[0] == 0


def _broken_ideal(monkeypatch, removed):
    """vertexops._ideal patched to leave the labels in removed out of S."""
    real_ideal = vertexops._ideal

    def ideal(L, P, rep):
        inside = real_ideal(L, P, rep)
        return lambda v: v not in removed and inside(v)

    monkeypatch.setattr(vertexops, "_ideal", ideal)


def test_broken_ideal_fails_as_the_mode_route_does(monkeypatch):
    # S without the label (0, 2), which a + b reaches from a = b = e^(0,1):
    # every nonzero term of such a mode is a failure, on both routes alike
    _broken_ideal(monkeypatch, {(0, 2)})
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    ctx = TruncationCtx(4)
    rep = check_ideal(DIAG22, P, ctx, sample_degree=2)
    want = _ideal_by_modes(DIAG22, P, ctx, 2)
    assert rep["failures"] and {tuple(f["label"]) for f in rep["failures"]} == {(0, 2)}
    assert rep == want


def test_broken_ideal_fails_in_word_pair_order(monkeypatch):
    # the failing b of a = e^(1,0) have two labels, (1, 1) and (-1, 1), at
    # degrees 2 and 3, and come out in the order of the word pairs (by
    # degree first, not by label), as on the mode route
    removed = {(0, 1), (2, 1)}
    _broken_ideal(monkeypatch, removed)
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    ctx = TruncationCtx(5)
    rep = check_ideal(DIAG22, P, ctx, sample_degree=3)
    assert {tuple(f["label"]) for f in rep["failures"]} == removed
    assert rep == _ideal_by_modes(DIAG22, P, ctx, 3)


def _ideal_by_pairs(L, P, ctx, sample_degree):
    """check_ideal's instance count summed over every word pair, as
    max(da + db - lowest_mode(da + db), 0): the count check_ideal takes per
    pair of degrees."""
    in_ideal = vertexops._ideal(L, P, parabolic(L, P))
    sp = FockSpace.full_lattice(L)
    a_degs = [sp.degree(w) for d in range(sample_degree + 1)
              for w in enumerate_basis(L, MONOID(P), d)]
    b_degs = [sp.degree(w) for d in range(sample_degree + 1)
              for w in enumerate_basis(L, MONOID(P), d) if in_ideal(w.label)]
    return sum(max(da + db - ctx.lowest_mode(da + db), 0)
               for da in a_degs for db in b_degs)


@pytest.mark.parametrize("max_degree", [3, 2**64 + 5], ids=("small", "past_2_63"))
def test_ideal_instances_count_every_word_pair(max_degree):
    ctx = TruncationCtx(max_degree)
    for kind in ("type1", "type2"):
        P = MonoidDescriptor(kind=kind, gamma=A2.hvec(2, 1))
        rep = check_ideal(A2, P, ctx, sample_degree=3)
        assert rep == {"check": "ideal", "failures": [],
                       "instances": _ideal_by_pairs(A2, P, ctx, 3)}
        assert (rep["instances"] > 2**63) == (max_degree > 2**63)


def test_ideal_at_sample_degree_8_walks_label_classes():
    # 8.8 million instances for type I: counted by degree, not pair by pair
    t0 = time.process_time()
    P = MonoidDescriptor(kind="type1", gamma=DIAG22.hvec(0, 1))
    rep = check_ideal(DIAG22, P, TruncationCtx(6), sample_degree=8)
    assert rep == {"check": "ideal", "instances": 8815520, "failures": []}
    assert time.process_time() - t0 < 0.5


# -- tensor factorization ---------------------------------------------------


def test_phi_map_examples():
    sp = FockSpace.hyperplane_adapted(DIAG22, (1, 0), (0, 1))
    w = sp.word(((1, 0), (1, 1)), (0,))
    got = phi_map(FockState.of(w))
    assert got == TensorState.of(make_word(((1, 0),), ()), make_word(((1, 0),), (0,)))
    assert phi_map(sp.vacuum()) == TensorState.of(make_word((), ()), make_word((), (0,)))
    assert phi_map(sp.exp_state((2,))) == TensorState.of(
        make_word((), ()), make_word((), (2,))
    )


def test_from_tensor_a2_image():
    # alpha = (1,0), beta = (1,2): b(-1) (x) e^p is a1(-1) e^(p,0) + 2 a2(-1) e^(p,0)
    for p in (-1, 0, 2):
        got = from_tensor((1, 0), (1, 2), TensorState.of(make_word(((1, 0),), ()),
                                                        make_word((), (p,))))
        want = FockState({make_word(((1, 0),), (p, 0)): 1,
                          make_word(((1, 1),), (p, 0)): 2})
        assert got == want


def test_from_tensor_is_injective():
    # the images of the adapted basis up to degree 3 are independent
    sp = FockSpace.hyperplane_adapted(A2, (1, 0), (1, 2))
    basis = [w for d in range(4) for w in sp.basis(d, labels=[(-1,), (0,), (1,)])]
    images = [from_tensor((1, 0), (1, 2), phi_map(FockState.of(w))) for w in basis]
    words = {w for im in images for w, _ in im}
    assert len(basis) > 20 and len(words) - quotient_dimension(words, images) == len(basis)


def test_phi_hom_diag22():
    rep = check_phi_hom(DIAG22, (1, 0), 2, TruncationCtx(4))
    assert rep["instances"] > 0
    assert rep["failures"] == [] and rep["omega_ok"] and rep["dims_ok"]


def test_phi_hom_a2():
    rep = check_phi_hom(A2, (1, 0), 1, TruncationCtx(3))
    assert rep["failures"] == [] and rep["omega_ok"] and rep["dims_ok"]


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_phi_hom_on_form_family(gram):
    L = GramLattice(gram=gram, D=2)
    for alpha in ALPHAS:
        rep = check_phi_hom(L, alpha, 1, TruncationCtx(1))
        assert rep["instances"] > 0 and rep["failures"] == [], alpha
        assert rep["omega_ok"] and rep["dims_ok"], alpha


def test_phi_hom_sees_a_corrupted_basis_change(monkeypatch):
    def unit_coefficients(alpha, beta, T):
        return FockState({w: 1 for w, _ in from_tensor(alpha, beta, T)})

    monkeypatch.setattr(vertexops, "from_tensor", unit_coefficients)
    rep = check_phi_hom(A2, (1, 0), 2, TruncationCtx(2))
    assert rep["failures"] and not rep["omega_ok"]


# -- the reduced-form family, closed-form L(-1) and the mode cache -------------


def test_reduced_form_family():
    forms = reduced_forms()
    assert len(forms) == 15
    assert ((2, -1), (-1, 2)) in forms and ((2, 0), (0, 2)) in forms


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_translation_matches_omega_zero(gram):
    L = GramLattice(gram=gram)
    sp = FockSpace.full_lattice(L)
    om = sp.virasoro()
    count = 0
    for d in range(4):
        for w in enumerate_basis(L, FULL_L, d):
            assert _translate(sp, w) == state_mode(sp, om, 0, FockState.of(w)), w
            count += 1
    assert count > 20


def translate(sp, v):
    """L(-1) v, with _translate extended linearly."""
    out = FockState()
    for w, c in v:
        out = out + _translate(sp, w).scale(c)
    return out


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_translation_raises_heisenberg_modes(gram):
    # [L(-1), h_i(-k)] v = k h_i(-k-1) v on basis words v of degree <= 2:
    # with the exponential case below, this is why C1 spans need only the
    # -1 modes of the strong generators
    L = GramLattice(gram=gram)
    sp = FockSpace.full_lattice(L)
    count = 0
    for d in range(3):
        for w in enumerate_basis(L, FULL_L, d):
            v = FockState.of(w)
            for h in (E1, E2):
                for k in (1, 2, 3):
                    lhs = (translate(sp, heis_mode(sp, h, -k, v))
                           - heis_mode(sp, h, -k, translate(sp, v)))
                    assert lhs == heis_mode(sp, h, -k - 1, v).scale(k), (w, h, k)
                    count += 1
    assert count >= 6 * 8  # 1 + 2 + 5 Heisenberg words, at least


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_exp_mode_covariance_and_heisenberg_commutator(gram):
    # for e^a with (a|a) <= 4 on basis words v of degree <= 1, at every n
    # giving a result of degree -1 to 3:
    #   [L(-1), e^a_n] v = -n e^a_{n-1} v
    #   [h_i(m), e^a_n] v = (a|b_i) e^a_{m+n} v,  m = 1, 2
    L = GramLattice(gram=gram)
    sp = FockSpace.full_lattice(L)
    words = [w for d in range(2) for w in enumerate_basis(L, FULL_L, d)]
    count = 0
    for a in _labels_up_to(L, 4):
        if a == (0, 0):
            continue
        for w in words:
            v = FockState.of(w)
            t = int(sp.degree(w)) + L.norm(a) // 2
            for n in range(t - 4, t + 1):
                got = exp_mode(sp, a, n, v)
                lhs = translate(sp, got) - exp_mode(sp, a, n, translate(sp, v))
                assert lhs == exp_mode(sp, a, n - 1, v).scale(-n), (a, w, n)
                for i, h in enumerate((E1, E2)):
                    for m in (1, 2):
                        lhs = (heis_mode(sp, h, m, got)
                               - exp_mode(sp, a, n, heis_mode(sp, h, m, v)))
                        want = exp_mode(sp, a, m + n, v).scale(sp.pair_label_mode(a, i))
                        assert lhs == want, (a, w, n, i, m)
                count += 1
    assert count >= 5 * len(words)


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_characters_match_basis_counts_on_form_family(gram):
    # two independent routes: bottom exponents dressed with coloured
    # partitions against words counted by enumerate_basis
    L = GramLattice(gram=gram, D=2)
    for P in (MonoidDescriptor(kind="type2", gamma=L.hvec(0, 1)),
              MonoidDescriptor(kind="type1", gamma=(L.scalar(1), L.scalar(0, 1)))):
        for sel, ambient in ((Selector(kind="V_L", L=L), FULL_L),
                             (Selector(kind="V_P", L=L, P=P), MONOID(P))):
            counts = {Fraction(d): len(enumerate_basis(L, ambient, d))
                      for d in range(6)}
            assert character(sel, 5).as_dict() == counts, (sel.kind, P.kind)
    for alpha in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)):
        assert check_tensor_character(L, alpha, Fraction(13, 2))["equal"], alpha


def snapshot(s):
    return FockState(dict(s.terms))


def test_mode_results_are_never_aliased():
    sp = FockSpace.full_lattice(A2)
    u = make_word(((1, 0),), (1, 0))
    a = FockState.of(u) + sp.exp_state((0, 1)).scale(2)
    v = FockState.of(make_word(((2, 1), (1, 0)), (0, 1)))

    def calls():
        return (word_mode(sp, u, -1, v), state_mode(sp, a, 0, v),
                heis_mode(sp, E1, -2, v), heis_mode(sp, E2, 1, v))

    first = calls()
    assert all(first)
    kept = [snapshot(s) for s in first]
    cache = sp._mode_cache
    cached = {k: snapshot(s) for k, s in cache.items()}
    # sums and multiples of the first results, fed back into the engine
    mixed = first[0] + first[1].scale(3) - first[2] + first[3]
    mixed = mixed + mixed.scale(-1) + first[0]
    word_mode(sp, u, 0, mixed)
    second = calls()
    assert list(first) == kept
    assert list(second) == kept
    assert all(cache[k] == s for k, s in cached.items())
    # a single term with coefficient 1 still gets a fresh state
    w1 = FockState.of(make_word((), (0, 1)))
    got = word_mode(sp, u, -1, w1)
    ref = snapshot(got)
    assert got and all(got is not s for s in cache.values())
    got.terms.clear()
    assert word_mode(sp, u, -1, w1) == ref


def test_exp_mode_single_word_result_is_fresh():
    # one word with coefficient 1 returns the kernel's fresh state; a state
    # with several terms or a scale accumulates; both agree with each other
    sp = FockSpace.full_lattice(A2)
    a = (1, 1)
    w1, w2 = make_word(((2, 1), (1, 0)), (0, 1)), make_word(((1, 1),), (-1, 0))
    both = 0
    for n in range(-4, 1):
        # the cache holds e^a_n w1 before exp_mode is asked for it
        cached = word_mode(sp, sp.word((), a), n, FockState.of(w1))
        one = exp_mode(sp, a, n, FockState.of(w1))
        assert one == cached and all(one is not s for s in sp._mode_cache.values())
        two = exp_mode(sp, a, n, FockState.of(w2))
        v = FockState({w1: 1, w2: Fraction(-3, 2)})
        assert exp_mode(sp, a, n, v) == one + two.scale(Fraction(-3, 2))
        assert exp_mode(sp, a, n, FockState.of(w1, 2)) == one.scale(2)
        both += bool(one and two)
        ref = snapshot(one)
        one.terms.clear()
        assert exp_mode(sp, a, n, FockState.of(w1)) == ref == cached
    assert both


@settings(max_examples=200, deadline=None)
@given(modes=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 1)), max_size=5),
       label=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       n=st.integers(1, 5),
       h=st.tuples(st.fractions(-2, 2, max_denominator=3),
                   st.fractions(-2, 2, max_denominator=3)))
def test_heis_creation_inserts_in_canonical_order(modes, label, n, h):
    w = make_word(modes, label)
    for sp in (SPA, SPD):
        for d in range(2):
            got = heis_mode(sp, _unit(sp, d), -n, FockState.of(w))
            assert got.terms == {make_word(w.modes + ((n, d),), w.label): 1}
        want = FockState({make_word(w.modes + ((n, d),), w.label): x
                          for d, x in enumerate(h)})
        assert heis_mode(sp, h, -n, FockState.of(w)) == want


# -- mode work done once per word pair --------------------------------------


def _exp_series(sp, h, s, v, top):
    """[X_0 v, ..., X_top v] with X_N the coefficient of z^(sN) in
    X(z) = exp(sum_{k>0} x_k z^(sk) / k), x_k = s h(-sk): s = 1 gives
    E^-(-h, z) and s = -1 gives E^+(-h, z), by the recurrence
    N X_N = sum_{k=1..N} x_k X_{N-k} on heis_mode, independent of the
    closed forms the kernel uses."""
    xs = [v]
    for N in range(1, top + 1):
        acc = FockState()
        for k in range(1, N + 1):
            acc = acc + heis_mode(sp, h, -s * k, xs[N - k]).scale(Fraction(s, N))
        xs.append(acc)
    return xs


def _exp_mode_per_n(sp, a, n, w):
    """e^a_n w with E^+ and E^- each expanded by the recurrence, for this n
    alone: the reference for the kernel's closed forms, which serve a whole
    range of modes at once."""
    h = sp.label_coords(a)
    t0 = sp.label_inner(a, w.label)
    sgn = sp.eps(a, w.label)
    lab = tuple(x + y for x, y in zip(a, w.label))
    out = FockState()
    plus = _exp_series(sp, h, -1, FockState.of(w), w.mode_degree())
    for p, st in enumerate(plus):
        need = p - t0 - n - 1
        if need >= 0 and st:
            moved = FockState({make_word(x.modes, lab): c * sgn for x, c in st})
            out = out + _exp_series(sp, h, 1, moved, need)[need]
    return out


def _check_cached_modes(new_space, labels, words):
    """e^a with (a|a) <= 4 on the words, asked for every n from the lowest
    that fits degree 4 to two past the last nonzero mode, ascending and
    then descending on a fresh space, so that a lower n fills in over
    entries already cached; and Y(h(-1)1, z) = h(z) on the words."""
    ref = new_space()
    nonzero = 0
    for a in labels:
        if not any(a) or ref.label_inner(a, a) > 4:
            continue
        ea = ref.word((), a)
        for w in words:
            v = FockState.of(w)
            top = w.mode_degree() - ref.label_inner(a, w.label) - 1
            lowest = TruncationCtx(4).lowest_mode(ref.degree(ea) + ref.degree(w))
            want = {n: exp_mode(ref, a, n, v) for n in range(lowest, top + 3)}
            for n, st in want.items():
                assert st == _exp_mode_per_n(ref, a, n, w), (a, w, n)
                nonzero += bool(st)
            for order in (sorted(want), sorted(want, reverse=True)):
                sp = new_space()
                for n in order:
                    assert word_mode(sp, ea, n, v) == want[n], (a, w, n)
                cache = sp._mode_cache
                cached = {n: st for (u, n, x), st in cache.items()
                          if u == ea and x == w}
                assert cached == {n: want[n] for n in cached}, (a, w)
                assert set(want) <= set(cached), (a, w)
    assert nonzero
    for d in range(ref.rank):
        hu, h = ref.word(((1, d),)), _unit(ref, d)
        for w in words:
            v = FockState.of(w)
            for j in range(-3, 4):
                assert word_mode(ref, hu, j, v) == heis_mode(ref, h, j, v), (d, w, j)


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_cached_modes_match_direct_modes(gram):
    L = GramLattice(gram=gram)
    _check_cached_modes(lambda: FockSpace.full_lattice(L), _labels_up_to(L, 4),
                        [w for d in range(3) for w in enumerate_basis(L, FULL_L, d)])


@pytest.mark.parametrize("L,alpha", [(DIAG22, (1, 0)), (DIAG22, (1, 1)),
                                     (A2, (1, 0)), (A2, (1, 1)),
                                     (GramLattice(gram=((2, 1), (1, 4))), (0, 1))],
                         ids=str)
def test_cached_modes_match_direct_modes_on_factor_spaces(L, alpha):
    # the spaces check_phi_hom runs: modes (beta, alpha) with mode_gram
    # diag((beta|beta), (alpha|alpha)), not the lattice Gram, and the
    # rank-one lattice on Z*alpha, each with one label coordinate
    beta = perp_primitive(L, alpha)
    adapted = FockSpace.hyperplane_adapted(L, alpha, beta)
    eps = adapted.eps_table[0][0]
    labels = [(p,) for p in range(-2, 3)]
    for new_space in (lambda: FockSpace.hyperplane_adapted(L, alpha, beta),
                      lambda: FockSpace.rank_one_lattice(L.norm(alpha), eps_exp=eps)):
        sp = new_space()
        _check_cached_modes(new_space, labels,
                            [w for d in range(3) for w in sp.basis(d, labels=labels)])


def test_mode_work_is_done_once_per_word_pair(monkeypatch):
    # E^+ of (e^a, w) is expanded once for each k below every k asked
    # before, and with no heis_mode call; h_d(j) w with j >= 0 once per
    # space; the E^- vacuum series of e^a is built once per space, and
    # grown again only for a larger top
    real_exp = vertexops._exp_modes
    real_plus = vertexops._exp_plus
    real_grow = vertexops._grow_vacuum
    real_heis = vertexops.heis_mode
    real_word = vertexops._word_mode_w
    expansions, allowed, annihilations = Counter(), Counter(), Counter()
    lowest, tops = {}, {}
    inside = []

    def exp(sp, a, w, lo, hi):
        inside.append((id(sp), a, w))
        try:
            return real_exp(sp, a, w, lo, hi)
        finally:
            inside.pop()

    def plus(pairs, modes):
        key = inside[-1]
        assert modes == key[2].modes
        expansions[key] += 1
        return real_plus(pairs, modes)

    def grow(sp, a, xs, top):
        assert len(xs) <= top
        tops.setdefault((id(sp), a), []).append(top)
        return real_grow(sp, a, xs, top)

    def heis(sp, h, m, v):
        assert not inside
        if m >= 0:
            annihilations[id(sp), tuple(h), m, tuple(v.terms)] += 1
        return real_heis(sp, h, m, v)

    def word(sp, u, k, w):
        if not u.modes and any(u.label):
            key = (id(sp), u.label, w)
            if key not in lowest or k < lowest[key]:
                lowest[key] = k
                allowed[key] += 1
        return real_word(sp, u, k, w)

    monkeypatch.setattr(vertexops, "_exp_modes", exp)
    monkeypatch.setattr(vertexops, "_exp_plus", plus)
    monkeypatch.setattr(vertexops, "_grow_vacuum", grow)
    monkeypatch.setattr(vertexops, "heis_mode", heis)
    monkeypatch.setattr(vertexops, "_word_mode_w", word)
    rep = check_phi_hom(DIAG22, (1, 0), 2, TruncationCtx(2))
    assert rep["instances"] > 0 and rep["failures"] == []
    assert expansions and annihilations and tops
    assert all(c <= allowed[key] for key, c in expansions.items())
    assert max(annihilations.values()) == 1
    assert all(t == sorted(set(t)) for t in tops.values())


def test_tensor_degrees_are_taken_once_per_word_pair(monkeypatch):
    # each basis word's split terms are graded once, where its image is
    # made, so outside the mode recursion degree runs twice per basis word
    # (the degrees of its two factors; its adapted degree is the degree of
    # the basis it was enumerated in) and never per word pair
    real_degree = FockSpace.degree
    real_phi = vertexops.phi_map
    real_word = vertexops._word_mode_w
    calls, words, depth = [0], [0], [0]

    def degree(self, w):
        if not depth[0]:
            calls[0] += 1
        return real_degree(self, w)

    def phi(v):
        words[0] += 1
        return real_phi(v)

    def word(sp, u, k, w):
        depth[0] += 1
        try:
            return real_word(sp, u, k, w)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(FockSpace, "degree", degree)
    monkeypatch.setattr(vertexops, "phi_map", phi)
    monkeypatch.setattr(vertexops, "_word_mode_w", word)
    rep = check_phi_hom(DIAG22, (1, 0), 2, TruncationCtx(2))
    assert rep["instances"] == 588 and rep["failures"] == []
    assert words[0] == 14
    assert calls[0] == 2 * words[0]


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_mode_caches_hold_integral_parts_as_ints(gram, monkeypatch):
    # QuadScalar keeps an integral part as an int and only a non-integral
    # one as a Fraction; a path that skips that normalization shows here
    spaces = {}
    real_word = vertexops._word_mode_w

    def word(sp, u, k, w):
        spaces[id(sp)] = sp
        return real_word(sp, u, k, w)

    monkeypatch.setattr(vertexops, "_word_mode_w", word)
    L = GramLattice(gram=gram, D=2)
    rep = check_phi_hom(L, (1, 0), 2, TruncationCtx(2))
    assert rep["instances"] > 0 and rep["failures"] == []
    sp = FockSpace.full_lattice(L)
    a, b = sp.exp_state((1, 0)), sp.exp_state((-1, 1))
    h = FockState.of(sp.word(((1, 0), (1, 1))))
    for x, y, m, n in ((a, b, 0, 0), (a, b, 2, -2), (h, a, 1, -1),
                       (sp.virasoro(), b, 2, -1)):
        assert not check_commutator(sp, x, y, m, n, sp.vacuum())
    kinds = Counter()
    for s in spaces.values():
        for st in s._mode_cache.values():
            for c in st.terms.values():
                assert type(c) is QuadScalar and not c._b
                x = c._a
                assert type(x) is int or x.denominator != 1, x
                kinds[type(x)] += 1
    assert kinds[int] and kinds[Fraction]
