import itertools
from fractions import Fraction

import pytest

from paravoa.exactnum import QuadScalar
from paravoa.fock import (
    FULL_L,
    MONOID,
    FockSpace,
    FockState,
    Selector,
    _labels_up_to,
    enumerate_basis,
    make_word,
)
from paravoa.lattice import GramLattice, perp_primitive
from paravoa.modrep import character
from paravoa.monoid import MonoidDescriptor, member

from forms import A2, ALPHAS, DIAG22, reduced_forms, type2


def colored_partitions(n, colors=2):
    # DP oracle: product over k of 1/(1-q^k)^colors
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for _color in range(colors):
            for m in range(k, n + 1):
                counts[m] += counts[m - k]
    return counts[n]


def test_single_degree2_words():
    words = FockSpace.full_lattice(DIAG22).basis(2, labels=[(0, 0)])
    assert len(words) == 5
    modes = {w.modes for w in words}
    assert modes == {
        ((2, 0),),
        ((2, 1),),
        ((1, 0), (1, 0)),
        ((1, 0), (1, 1)),
        ((1, 1), (1, 1)),
    }


def test_single_counts_match_dp():
    expected = [1, 2, 5, 10, 20, 36]
    sp = FockSpace.full_lattice(DIAG22)
    for d in range(6):
        assert colored_partitions(d) == expected[d]
        assert len(sp.basis(d, labels=[(0, 0)])) == expected[d]


def test_full_l_degree1_diag22():
    words = enumerate_basis(DIAG22, FULL_L, 1)
    assert len(words) == 6
    heis = [w for w in words if w.label == (0, 0)]
    exps = [w for w in words if w.modes == ()]
    assert len(heis) == 2 and len(exps) == 4
    assert {w.label for w in exps} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_monoid_enumeration_is_filtered_full():
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    for d in range(4):
        full = enumerate_basis(DIAG22, FULL_L, d)
        mon = enumerate_basis(DIAG22, MONOID(P), d)
        mset = set(mon)
        for w in full:
            expect = w.label[1] >= 0  # (gamma|v) = 2*v2 for this gamma
            assert (w in mset) == expect


def test_enumeration_deterministic():
    a = enumerate_basis(A2, FULL_L, 3)
    b = enumerate_basis(A2, FULL_L, 3)
    assert a == b


def test_weight_exp_alpha():
    w = make_word((), (1, 0))
    assert FockSpace.full_lattice(DIAG22).degree(w) == 1


def test_weight_vacuum():
    assert FockSpace.full_lattice(A2).degree(make_word((), (0, 0))) == 0


def test_weight_pure_modes():
    w = make_word(((3, 0), (1, 1)), (0, 0))
    assert FockSpace.full_lattice(A2).degree(w) == 4


def test_weight_additive_over_concatenation():
    w1 = make_word(((2, 0),), (0, 0))
    w2 = make_word(((3, 1), (1, 0)), (0, 0))
    cat = make_word(w1.modes + w2.modes, (0, 0))
    sp = FockSpace.full_lattice(A2)
    assert sp.degree(cat) == sp.degree(w1) + sp.degree(w2)


def test_word_canonical_sort():
    w = make_word(((1, 1), (3, 0), (1, 0)), (0, 0))
    assert w.modes == ((3, 0), (1, 0), (1, 1))


def test_word_string():
    w = make_word(((3, 0), (1, 1)), (2, -1))
    assert w.to_str() == "a1(-3)a2(-1)e[2,-1]"


def test_state_arith_trivial():
    x = FockState.of(make_word(((1, 0),), (0, 0)), 2)
    y = FockState.of(make_word(((2, 1),), (0, 0)), 3)
    assert x + y.scale(0) == x
    assert not (x + x.scale(-1))
    doubled = x + x.scale(1)
    assert doubled == x.scale(2)


def test_state_no_zero_coeffs():
    w = make_word((), (0, 0))
    s = FockState({w: QuadScalar(0)})
    assert not s


def test_vacuum_and_virasoro_weights():
    sp = FockSpace.full_lattice(DIAG22)
    vac = sp.vacuum()
    assert sp.state_degree(vac) == 0
    om = sp.virasoro()
    assert sp.state_degree(om) == 2
    # diag(2,2): omega = 1/4 (a1(-1)^2 + a2(-1)^2) vac
    assert om[sp.word(((1, 0), (1, 0)))] == QuadScalar(Fraction(1, 4))
    assert om[sp.word(((1, 0), (1, 1)))] == QuadScalar(0)


def test_virasoro_rank_one():
    sp = FockSpace.rank_one_heisenberg(2)
    om = sp.virasoro()
    assert om[sp.word(((1, 0), (1, 0)))] == QuadScalar(Fraction(1, 4))
    assert len(om) == 1


def test_virasoro_a2_offdiagonal():
    sp = FockSpace.full_lattice(A2)
    om = sp.virasoro()
    # G^-1 = 1/3 [[2,1],[1,2]]
    assert om[sp.word(((1, 0), (1, 0)))] == QuadScalar(Fraction(1, 3))
    assert om[sp.word(((1, 0), (1, 1)))] == QuadScalar(Fraction(1, 3))
    assert om[sp.word(((1, 1), (1, 1)))] == QuadScalar(Fraction(1, 3))


def test_space_basis_and_degrees():
    sp = FockSpace.full_lattice(DIAG22)
    labels = [(0, 0), (1, 0), (0, -1)]
    words = sp.basis(2, labels=labels)
    for w in words:
        assert sp.degree(w) == 2
    # label (1,0) has half-norm 1, leaving heis degree 1: two words
    assert sum(1 for w in words if w.label == (1, 0)) == 2


def test_adapted_space_pairings():
    sp = FockSpace.hyperplane_adapted(DIAG22, (1, 0), (0, 1))
    assert sp.mode_gram[0][0] == 2  # (beta|beta)
    assert sp.mode_gram[1][1] == 2  # (alpha|alpha)
    assert sp.mode_gram[0][1] == 0
    assert sp.label_inner((3,), (1,)) == 6
    assert sp.eps((1,), (1,)) == 1


def test_rank_one_lattice_eps():
    sp = FockSpace.rank_one_lattice(4, eps_exp=1)
    assert sp.eps((1,), (1,)) == -1
    assert sp.eps((2,), (1,)) == 1
    assert sp.eps((1,), (1,)) * sp.eps((1,), (1,)) == 1


def test_eps_cocycle_condition_full():
    for L in (A2, DIAG22):
        sp = FockSpace.full_lattice(L)
        for a in L.box(3):
            for b in L.box(3):
                lhs = sp.eps(a, b) * sp.eps(b, a)
                assert lhs == (-1) ** (L.inner_int(a, b) % 2)


def test_negative_mode_rejected():
    with pytest.raises(ValueError):
        make_word(((0, 0),), (0, 0))


# -- exact bookkeeping: integer pairings and degrees by construction --------


def _engine_spaces():
    """Every kind of space the engine builds, over the reduced forms: V_L,
    and for a boundary vector alpha the adapted V_H with its two factors,
    M(1) on beta and the rank-one lattice Z*alpha."""
    for g in reduced_forms():
        L = GramLattice(gram=g, D=2)
        yield pytest.param(FockSpace.full_lattice(L), id=str(g))
        alpha = (1, 1)
        beta = perp_primitive(L, alpha)
        adapted = FockSpace.hyperplane_adapted(L, alpha, beta)
        eps = adapted.eps_table[0][0]
        yield pytest.param(adapted, id=f"hyperplane_adapted{g}")
        yield pytest.param(FockSpace.rank_one_heisenberg(L.norm(beta)),
                           id=f"rank_one_heisenberg{g}")
        yield pytest.param(FockSpace.rank_one_lattice(L.norm(alpha), eps_exp=eps),
                           id=f"rank_one_lattice{g}")


def _exact(x, want: Fraction) -> bool:
    """x equals want and is an int."""
    return x == want and type(x) is int


@pytest.mark.parametrize("sp", list(_engine_spaces()))
def test_pairings_and_degrees_are_exact(sp):
    G = [[Fraction(x) for x in row] for row in sp.mode_gram]
    r = range(sp.rank)

    def coords(lab):
        return [sum((Fraction(l) * g[i] for l, g in zip(lab, sp.gen_coords)),
                    Fraction(0)) for i in r]

    def inner(x, y):
        return sum((x[i] * y[j] * G[i][j] for i in r for j in r), Fraction(0))

    assert all(_exact(x, y) for row, grow in zip(sp.mode_gram, G)
               for x, y in zip(row, grow))
    labels = list(itertools.product(range(-2, 3), repeat=sp.label_rank))
    for l1 in labels:
        c1 = coords(l1)
        for i in r:
            assert _exact(sp.pair_label_mode(l1, i), sum(
                (c1[j] * G[j][i] for j in r), Fraction(0)))
        for l2 in labels:
            assert _exact(sp.label_inner(l1, l2), inner(c1, coords(l2)))
        for modes in ((), ((1, 0),), ((3, 0), (1, sp.rank - 1))):
            w = make_word(modes, l1)
            assert _exact(sp.degree(w), w.mode_degree() + inner(c1, c1) / 2)
    for d in range(5):
        want = 0
        for lab in labels:
            m = d - inner(coords(lab), coords(lab)) / 2
            if m >= 0:
                want += colored_partitions(int(m), sp.rank)
        assert len(sp.basis(d, labels=labels)) == want


@pytest.mark.parametrize("build,error", [
    (lambda: FockSpace(mode_gram=((Fraction(1, 2), Fraction(1, 3)),
                                  (Fraction(1, 3), 2)),
                       gen_coords=((1, 0), (0, 1))), TypeError),
    (lambda: FockSpace(mode_gram=((2.0,),)), TypeError),
    (lambda: FockSpace(mode_gram=((2,),), gen_coords=((Fraction(1, 2),),)), TypeError),
    (lambda: FockSpace.rank_one_lattice(3), ValueError),
    (lambda: FockSpace(mode_gram=((2, 1), (1, 3)), gen_coords=((1, 0), (0, 1))),
     ValueError),
], ids=["fraction_gram", "float_gram", "fraction_coords", "rank_one_lattice(3)",
        "odd_generator"])
def test_space_without_integer_bookkeeping_is_rejected(build, error):
    # a rational Gram or an odd label norm would make a degree or a mode
    # index a fraction; the engine's bookkeeping is integer arithmetic only
    with pytest.raises(error):
        build()


def ring_search(L, maxnorm):
    """The lattice points of norm at most maxnorm by growing sup-norm rings
    until one clears maxnorm, each ring filtered out of a full box."""
    R = 1
    while True:
        ring = [(m, n) for m in range(-R, R + 1) for n in range(-R, R + 1)
                if max(abs(m), abs(n)) == R]
        # the form's minimum on the ring grows like R^2, so once a ring
        # clears maxnorm every larger one does
        if min(L.norm(v) for v in ring) > maxnorm:
            break
        R += 1
    return sorted(v for v in L.box(R) if L.norm(v) <= maxnorm)


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_labels_up_to_matches_ring_search(gram):
    L = GramLattice(gram=gram)
    for maxnorm in range(41):
        assert _labels_up_to(L, maxnorm) == ring_search(L, maxnorm), maxnorm


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_selector_labels_match_a_box_oracle(gram):
    # each algebra's labels, as the box of norm at most 2*cap filtered by
    # the algebra's own test; --alpha takes either orientation of a line
    L = GramLattice(gram=gram, D=2)
    descriptors = [
        MonoidDescriptor(kind="type1", gamma=L.hvec(1, 2)),
        MonoidDescriptor(kind="type1", gamma=L.hvec(1, QuadScalar(0, 1, 2))),
        type2(L, (1, 1)), type2(L, (1, 2), -1),
        MonoidDescriptor(kind="cone", cone=((1, 0), (1, 2))),
        MonoidDescriptor(kind="generators", generators=((2, 1), (1, 2), (1, 1))),
        MonoidDescriptor(kind="generators", generators=((1, 0), (-1, 0), (0, 1)))]
    cases = [(Selector("V_L", L), lambda v: True),
             (Selector("M1", L), lambda v: v == (0, 0))]
    cases += [(Selector("V_P", L, P=P), lambda v, P=P: member(L, P, v))
              for P in descriptors]
    cases += [(Selector("V_H", L, alpha=a), lambda v, a=a: v[0] * a[1] == v[1] * a[0])
              for b in ALPHAS for a in (b, (-b[0], -b[1]))]
    for cap in (0, Fraction(1, 2), 3):
        box = ring_search(L, 2 * cap)
        for sel, keep in cases:
            assert sel.labels(cap) == [v for v in box if keep(v)], (sel, cap)


@pytest.mark.parametrize("sel,match", [
    (Selector("V_P", DIAG22), "needs a monoid descriptor"),
    (Selector("V_H", DIAG22), "needs alpha"),
    (Selector("V_Q", DIAG22), "unknown selector kind 'V_Q'"),
], ids=["V_P", "V_H", "unknown"])
def test_selector_without_its_data_is_an_error(sel, match):
    for ask in (sel.labels, lambda cap: character(sel, cap)):
        with pytest.raises(ValueError, match=match):
            ask(2)
