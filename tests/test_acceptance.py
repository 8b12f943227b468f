"""Acceptance gate: the top-level guarantees, each as one test with a
single pass/fail line.  All arithmetic is exact, so every comparison is
equality with zero tolerance; each test also enforces its runtime budget.
"""

import random
import time
from fractions import Fraction

from paravoa.exactnum import QuadScalar
from paravoa.fock import FULL_L, FockSpace, FockState, _labels_up_to, enumerate_basis
from paravoa.lattice import MINUS, PLUS, ZERO, is_primitive, side
from paravoa.modrep import (
    c1_decide,
    c1_quotient_dims,
    check_tensor_character,
    fusion,
    irreducibles,
)
from paravoa.monoid import (
    MonoidDescriptor,
    classify,
    member,
    saturate_witnesses,
)
from paravoa.vertexops import (
    TruncationCtx,
    check_commutator,
    check_ideal,
    check_lemma35,
    check_phi_hom,
    state_mode,
    word_mode,
)
from paravoa.zhu import nilpotency_certificate

from forms import A2, DIAG22

LATTICES = (DIAG22, A2)


def report(n, name, elapsed, budget):
    assert elapsed < budget, f"criterion {n} over budget: {elapsed:.1f}s"
    print(f"ACCEPT {n:2d} {name}: PASS ({elapsed:.1f}s)")


def rand_gamma(L, rng):
    while True:
        g = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
             Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        if g != (0, 0):
            return L.hvec(g[0], g[1])


def test_accept_01_classification_dichotomy():
    t0 = time.time()
    rng = random.Random(101)
    R = 8
    instances = [(L, MonoidDescriptor(kind=k, gamma=L.hvec(0, 1)))
                 for L in LATTICES for k in ("type1", "type2")]
    while len(instances) < 24:  # bundled + 20 seeded
        L = LATTICES[rng.randrange(2)]
        kind = ("type1", "type2")[rng.randrange(2)]
        instances.append((L, MonoidDescriptor(kind=kind, gamma=rand_gamma(L, rng))))
    for L, P in instances:
        rep = classify(L, P)
        assert rep.type in ("TYPE_I", "TYPE_II")
        alpha = rep.alpha
        for v in L.box(R):
            s = side(L, rep.gamma, v)
            if rep.type == "TYPE_II":
                closed = s in (PLUS, ZERO)
            else:
                on_ray = v == (0, 0) or (
                    alpha is not None and s == ZERO
                    and (v[0] * alpha[1] - v[1] * alpha[0] == 0)
                    and (v[0] * alpha[0] + v[1] * alpha[1] > 0
                         if alpha != (0, 0) else False)
                )
                closed = s == PLUS or on_ray
            assert member(L, P, v) == closed, (L.gram, P.kind, v)
    report(1, "classification dichotomy", time.time() - t0, 5)


def test_accept_02_saturation():
    t0 = time.time()
    rng = random.Random(202)
    R = 5
    done = 0
    while done < 20:
        L = LATTICES[rng.randrange(2)]
        gamma = rand_gamma(L, rng)
        alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
        if alpha == (0, 0) or not is_primitive(alpha):
            continue
        if side(L, gamma, alpha) != MINUS:
            continue
        beta, beta_p = saturate_witnesses(L, gamma, alpha)
        # (1) both witnesses strictly on the positive side
        assert side(L, gamma, beta) == PLUS
        assert side(L, gamma, beta_p) == PLUS
        # (2) each forms a basis with alpha; (3) on opposite sides of R*alpha
        d1 = alpha[0] * beta[1] - alpha[1] * beta[0]
        d2 = alpha[0] * beta_p[1] - alpha[1] * beta_p[0]
        assert {d1, d2} == {1, -1}
        # adjoining alpha to the strictly positive points saturates the box
        gens = [alpha, beta, beta_p] + [
            v for v in L.box(R) if side(L, gamma, v) == PLUS
        ]
        G = MonoidDescriptor(kind="generators", generators=tuple(gens))
        assert all(member(L, G, v) for v in L.box(R))
        done += 1
    report(2, "saturation witnesses", time.time() - t0, 30)


def test_accept_03_borel_axioms():
    t0 = time.time()
    R = 8
    for L in LATTICES:
        for gamma in (L.hvec(1, 2), L.hvec(QuadScalar(1, 0, 2), QuadScalar(1, 1, 2))):
            P = MonoidDescriptor(kind="type1", gamma=gamma)
            both = 0
            for v in L.box(R):
                m1 = member(L, P, v)
                m2 = member(L, P, (-v[0], -v[1]))
                assert m1 or m2  # B u (-B) covers the box
                if m1 and m2:
                    both += 1
                    assert v == (0, 0)
            assert both == 1  # B n (-B) = {0}
    report(3, "Borel-type axioms", time.time() - t0, 5)


def test_accept_04_vertex_engine():
    t0 = time.time()
    ctx = TruncationCtx(6)
    for L in LATTICES:
        sp = FockSpace.full_lattice(L)
        vac = sp.vacuum()
        pool = [w for d in range(3) for w in enumerate_basis(L, FULL_L, d)
                if L.norm(w.label) <= 2]
        for w in pool:
            ws = FockState.of(w)
            # creation axiom
            assert word_mode(sp, w, -1, vac) == ws
            # vacuum operator acts as identity / annihilates
            assert state_mode(sp, vac, -1, ws) == ws
            assert not state_mode(sp, vac, 0, ws)
        # L(-1)-derivative: (L(-1)u)_n = -n u_{n-1}
        om = sp.virasoro()
        for w in pool[:8]:
            lu = state_mode(sp, om, 0, FockState.of(w))
            for n in range(-2, 3):
                lhs = state_mode(sp, lu, n, FockState.of(pool[1]))
                rhs = word_mode(sp, w, n - 1, FockState.of(pool[1])).scale(-n)
                assert lhs == rhs
    rng = random.Random(404)
    sp = FockSpace.full_lattice(DIAG22)
    pool = [w for d in range(3) for w in enumerate_basis(DIAG22, FULL_L, d)
            if DIAG22.norm(w.label) <= 2]
    for _ in range(50):
        a, b, v = (FockState.of(rng.choice(pool)) for _ in range(3))
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        assert not check_commutator(sp, a, b, m, n, v, ctx)
    report(4, "vertex-operator engine", time.time() - t0, 120)


def test_accept_05_orthogonal_commutation():
    t0 = time.time()
    L = DIAG22
    sp = FockSpace.full_lattice(L)
    ctx = TruncationCtx(6)
    beta = (0, 1)
    alpha_words = [w for d in range(4)
                   for w in sp.basis(d, labels=[(-1, 0), (0, 0), (1, 0)])
                   if all(dd == 0 for _, dd in w.modes)]
    vs = [w for d in range(4) for w in enumerate_basis(L, FULL_L, d)]
    assert alpha_words
    for m in range(-3, 4):
        for u in alpha_words:
            for v in vs:
                res = check_lemma35(sp, beta, m, u, FockState.of(v), ctx)
                for n, r in res.items():
                    assert not r, (m, u.to_str(), v.to_str(), n)
    report(5, "orthogonal-mode commutation", time.time() - t0, 60)


def test_accept_06_tensor_factorization():
    t0 = time.time()
    rep = check_phi_hom(DIAG22, (1, 0), 3, TruncationCtx(6))
    assert rep["failures"] == [] and rep["omega_ok"] and rep["dims_ok"]
    chars = check_tensor_character(DIAG22, (1, 0), 12)
    assert chars["equal"]
    report(6, "tensor factorization", time.time() - t0, 120)


def test_accept_07_structure_theorem():
    t0 = time.time()
    for kind in ("type1", "type2"):
        P = MonoidDescriptor(kind=kind, gamma=DIAG22.hvec(0, 1))
        rep = check_ideal(DIAG22, P, TruncationCtx(8), sample_degree=2)
        assert rep["instances"] >= 100
        assert rep["failures"] == []
    # V_P = V_H (+) V+ as a basis partition per degree
    L = DIAG22
    P = MonoidDescriptor(kind="type2", gamma=L.hvec(0, 1))
    sp = FockSpace.full_lattice(L)
    alpha = (1, 0)
    labels_P = [v for v in _labels_up_to(L, 16) if member(L, P, v)]
    labels_H = [v for v in labels_P if v[0] * alpha[1] - v[1] * alpha[0] == 0]
    labels_plus = [v for v in labels_P if v not in labels_H]
    assert set(labels_H) | set(labels_plus) == set(labels_P)
    for d in range(9):
        bp = sp.basis(d, labels=labels_P)
        bh = sp.basis(d, labels=labels_H)
        bpl = sp.basis(d, labels=labels_plus)
        assert len(bp) == len(bh) + len(bpl)
        assert set(bh) | set(bpl) == set(bp)
        assert not (set(bh) & set(bpl))
    report(7, "structure decomposition", time.time() - t0, 120)


def test_accept_08_nilpotency_certificates():
    t0 = time.time()
    ctx = TruncationCtx(8)
    P2 = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    cert = nilpotency_certificate(DIAG22, P2, (0, 1), ctx)
    assert cert["ok"] and cert["N"] == 1
    vanish = [s for s in cert["steps"] if s["kind"] == "exp_mode_vanish"]
    assert {s["m"] for s in vanish} >= set(range(0, 3))  # m <= 2N all zero
    lead = next(s for s in cert["steps"] if s["kind"] == "exp_mode_leading")
    assert lead["cocycle_sign"] in (1, -1)
    mem = next(s for s in cert["steps"] if s["kind"] == "reduce_35_membership")
    assert mem["ok"]  # exhibits e^{2 beta} in O(V_P)
    P1 = MonoidDescriptor(kind="type1", gamma=A2.hvec(2, 1))
    cert2 = nilpotency_certificate(A2, P1, (1, 0), ctx)
    assert cert2["ok"] and cert2["N"] == 1
    report(8, "nilpotency certificates", time.time() - t0, 10)


def test_accept_09_registry_and_fusion():
    t0 = time.time()
    P = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    mods = irreducibles(DIAG22, P, {"ts": [Fraction(0), Fraction(1, 2)]})
    by = {(m.t, m.i): m for m in mods}
    assert set(m.i for m in mods) == {0, 1}
    assert by[(Fraction(0), 0)].h == 0
    assert by[(Fraction(0), 1)].h == Fraction(1, 4)
    # Heisenberg offset t^2 (beta|beta)/2 on top of the coset weight
    off = Fraction(1, 2) ** 2 * Fraction(2, 2)
    assert by[(Fraction(1, 2), 0)].h == off
    assert by[(Fraction(1, 2), 1)].h == off + Fraction(1, 4)
    # abelian group law on a closed sample: t in {0}, i in {0, 1}
    sample = [m for m in mods if m.t == 0]
    prod = {}
    for m1 in sample:
        for m2 in sample:
            hits = [m3 for m3 in sample if fusion(m1, m2, m3) == 1]
            assert len(hits) == 1
            prod[(m1.i, m2.i)] = hits[0].i
    for a in (0, 1):
        assert prod[(a, 0)] == prod[(0, a)] == a  # identity
        assert any(prod[(a, b)] == 0 for b in (0, 1))  # inverses
        for b in (0, 1):
            assert prod[(a, b)] == prod[(b, a)]  # commutativity
            for c in (0, 1):
                assert prod[(prod[(a, b)], c)] == prod[(a, prod[(b, c)])]
    report(9, "module registry and fusion", time.time() - t0, 5)


def test_accept_10_c1_cofiniteness():
    t0 = time.time()
    for L, g in ((DIAG22, (0, 1)), (A2, (1, 2))):
        P1 = MonoidDescriptor(kind="type1", gamma=L.hvec(*g))
        assert c1_decide(L, P1).verdict == "NOT_COFINITE"
    P2 = MonoidDescriptor(kind="type2", gamma=A2.hvec(1, 2))  # alpha = (1,0)
    rep = c1_decide(A2, P2)
    assert rep.verdict == "COFINITE"
    assert rep.condition_values[3] == -2
    dims = c1_quotient_dims(DIAG22, "V_H", 6, TruncationCtx(6), alpha=(1, 0))
    assert dims[0] == 1 and dims[1] == 4
    assert all(d == 0 for d in dims[2:])
    report(10, "C1-cofiniteness decisions", time.time() - t0, 120)


def test_accept_11_c1_dims_at_scale():
    t0 = time.time()
    dims = c1_quotient_dims(DIAG22, "V_H", 8, TruncationCtx(8), alpha=(1, 0))
    assert dims == [1, 4] + [0] * 7
    P2 = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    dims = c1_quotient_dims(DIAG22, "V_P", 6, TruncationCtx(6), P=P2)
    assert dims == [1, 5] + [0] * 5
    report(11, "C1 quotient dimensions at scale", time.time() - t0, 60)


def test_accept_12_ideal_at_scale():
    # no mode is evaluated for a valid P, so the 3 * 10^5 instances of
    # sample degree 5 cost one product per pair of degrees and one label
    # sum per pair of labels
    t0 = time.time()
    ctx = TruncationCtx(6)
    for kind, instances in (("type1", 167384), ("type2", 134379)):
        P = MonoidDescriptor(kind=kind, gamma=DIAG22.hvec(0, 1))
        rep = check_ideal(DIAG22, P, ctx, sample_degree=5)
        assert rep == {"check": "ideal", "instances": instances, "failures": []}
    report(12, "ideal property at scale", time.time() - t0, 2)
