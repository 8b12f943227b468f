import math
import random

import pytest

from paravoa.exactnum import QuadScalar
from paravoa.lattice import (
    GramLattice,
    MINUS,
    PLUS,
    inner,
    is_basis_pair,
    side,
)
from paravoa.monoid import (
    Inconclusive,
    MonoidDescriptor,
    PreconditionViolated,
    SearchBudgetExceeded,
    borel_in,
    classify,
    closure_box,
    member,
    saturate_witnesses,
)

A2 = GramLattice(gram=((2, -1), (-1, 2)), D=2)
DIAG22 = GramLattice(gram=((2, 0), (0, 2)), D=2)


def irr(L, x, y):
    # gamma = x + y*sqrt(D) per coordinate spec: here (1, sqrt2)
    return (QuadScalar(x, 0, L.D), QuadScalar(0, y, L.D))


def test_member_type2_boundary_line():
    d = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1))
    assert member(DIAG22, d, (-7, 0))


def test_member_type1_excludes_negative_ray():
    d = MonoidDescriptor(kind="type1", gamma=DIAG22.hvec(0, 1))
    assert d.boundary_alpha(DIAG22) == (1, 0)
    assert not member(DIAG22, d, (-7, 0))
    assert member(DIAG22, d, (7, 0))
    assert member(DIAG22, d, (0, 0))
    assert member(DIAG22, d, (-3, 1))


def test_member_cone():
    d = MonoidDescriptor(kind="cone", cone=((2, 1), (1, 1)))
    assert member(DIAG22, d, (5, 3))
    assert not member(DIAG22, d, (1, 0))


def test_member_generators_budget():
    d = MonoidDescriptor(kind="generators", generators=((1, 0),))
    with pytest.raises(SearchBudgetExceeded):
        member(DIAG22, d, (100, 0), budget=32)


def test_closure_box_quadrant():
    pts = closure_box(DIAG22, [(1, 0), (0, 1)], 2)
    assert pts == {(m, n) for m in range(3) for n in range(3)}


def test_closure_box_even_ray():
    assert closure_box(DIAG22, [(2, 0)], 3) == {(0, 0), (2, 0)}


def test_classify_type2():
    d = MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(1, 2))
    rep = classify(DIAG22, d)
    assert rep.type == "TYPE_II" and rep.is_parabolic
    assert rep.alpha == (2, -1)


def test_classify_type1_irrational():
    d = MonoidDescriptor(kind="type1", gamma=irr(DIAG22, 1, 1))
    rep = classify(DIAG22, d)
    assert rep.type == "TYPE_I" and rep.alpha is None


def test_classify_cone():
    rep = classify(DIAG22, MonoidDescriptor(kind="cone", cone=((1, 0), (0, 1))))
    assert rep.type == "CONIC" and not rep.is_parabolic


def test_classify_generators_halfplane():
    d = MonoidDescriptor(kind="generators", generators=((1, 0), (-1, 0), (0, 1)))
    rep = classify(DIAG22, d, box_radius=5)
    assert rep.type == "TYPE_II"
    assert rep.alpha == (1, 0)


def test_type2_requires_lattice_line():
    d = MonoidDescriptor(kind="type2", gamma=irr(DIAG22, 1, 1))
    with pytest.raises(PreconditionViolated):
        d.validate(DIAG22)


def test_borel_axioms_in_box():
    for gamma in (DIAG22.hvec(1, 2), irr(DIAG22, 1, 1), A2.hvec(2, 1)):
        L = A2 if gamma[0] == QuadScalar(2) else DIAG22
        B = borel_in(L, gamma)
        for v in L.box(8):
            mv = member(L, B, v)
            mneg = member(L, B, (-v[0], -v[1]))
            assert mv or mneg
            if mv and mneg:
                assert v == (0, 0)


def test_classify_of_borel_is_type1():
    for gamma in (DIAG22.hvec(0, 1), DIAG22.hvec(3, -1), irr(DIAG22, 1, 1)):
        assert classify(DIAG22, borel_in(DIAG22, gamma)).type == "TYPE_I"


def test_dichotomy_box_agreement():
    # every parabolic descriptor matches exactly one closed form on the box
    rng = random.Random(7)
    for _ in range(20):
        gx, gy = rng.randint(-4, 4), rng.randint(-4, 4)
        if (gx, gy) == (0, 0):
            gx = 1
        kind = rng.choice(["type1", "type2"])
        g = DIAG22.hvec(gx, gy)
        d = MonoidDescriptor(kind=kind, gamma=g)
        alpha = d.boundary_alpha(DIAG22)
        for v in DIAG22.box(8):
            s = side(DIAG22, g, v)
            in_type1 = s == PLUS or v == (0, 0) or (
                alpha and _is_pos_multiple(v, alpha)
            )
            in_type2 = s in (PLUS, 0)
            expect = in_type1 if kind == "type1" else in_type2
            assert member(DIAG22, d, v) == expect


def _is_pos_multiple(v, alpha):
    for k in range(1, 20):
        if (k * alpha[0], k * alpha[1]) == v:
            return True
    return False


def test_saturate_witnesses_diag22():
    gamma = DIAG22.hvec(1, 2)
    alpha = (-1, 0)
    assert side(DIAG22, gamma, alpha) == MINUS
    b, bp = saturate_witnesses(DIAG22, gamma, alpha)
    for w in (b, bp):
        assert side(DIAG22, gamma, w) == PLUS
        assert is_basis_pair(alpha, w)
    d1 = alpha[0] * b[1] - alpha[1] * b[0]
    d2 = alpha[0] * bp[1] - alpha[1] * bp[0]
    assert d1 * d2 < 0


def test_saturate_witnesses_a2():
    gamma = A2.hvec(1, 1)
    alpha = (0, -1)
    assert side(A2, gamma, alpha) == MINUS
    b, bp = saturate_witnesses(A2, gamma, alpha)
    for w in (b, bp):
        assert side(A2, gamma, w) == PLUS
        assert is_basis_pair(alpha, w)


def test_saturate_witnesses_orientation_sweep():
    # beta comes first with det[alpha, beta] = +1, for every direction
    rng = random.Random(20260826)
    for L in (A2, DIAG22):
        done = 0
        while done < 40:
            x, y = rng.randint(-4, 4), rng.randint(-4, 4)
            s = rng.choice((0, rng.randint(-3, 3)))
            gamma = (QuadScalar(x, 0, L.D), QuadScalar(y, s, L.D))
            alpha = (rng.randint(-4, 4), rng.randint(-4, 4))
            if not (gamma[0] or gamma[1]) or alpha == (0, 0):
                continue
            if math.gcd(*alpha) != 1 or side(L, gamma, alpha) != MINUS:
                continue
            b, bp = saturate_witnesses(L, gamma, alpha)
            assert side(L, gamma, b) == PLUS and side(L, gamma, bp) == PLUS
            assert alpha[0] * b[1] - alpha[1] * b[0] == 1
            assert alpha[0] * bp[1] - alpha[1] * bp[0] == -1
            done += 1


def test_saturate_witnesses_precondition():
    with pytest.raises(PreconditionViolated):
        saturate_witnesses(DIAG22, DIAG22.hvec(1, 2), (2, 0))  # not primitive
    with pytest.raises(PreconditionViolated):
        saturate_witnesses(DIAG22, DIAG22.hvec(1, 2), (1, 0))  # wrong side


def test_saturation_fills_lattice():
    # adjoining a primitive negative-side point to the open half-plane
    # regenerates every box point
    rng = random.Random(11)
    trials = 0
    while trials < 20:
        gx, gy = rng.randint(-3, 3), rng.randint(-3, 3)
        if (gx, gy) == (0, 0):
            continue
        g = DIAG22.hvec(gx, gy)
        cands = [
            v
            for v in DIAG22.box(3)
            if v != (0, 0)
            and side(DIAG22, g, v) == MINUS
            and __import__("math").gcd(abs(v[0]), abs(v[1])) == 1
        ]
        if not cands:
            continue
        alpha = rng.choice(cands)
        gens = [alpha] + [
            v for v in DIAG22.box(5) if side(DIAG22, g, v) == PLUS
        ]
        pts = closure_box(DIAG22, gens, 5)
        assert pts == set(DIAG22.box(5))
        trials += 1
