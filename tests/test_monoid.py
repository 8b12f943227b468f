import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from paravoa import lattice, monoid
from paravoa.exactnum import QuadScalar
from paravoa.fock import MONOID, enumerate_basis
from paravoa.lattice import (
    GramLattice,
    MINUS,
    PLUS,
    ParavoaError,
    side,
)
from paravoa.monoid import (
    ClassificationReport,
    MonoidDescriptor,
    borel_in,
    classify,
    member,
    saturate_witnesses,
)

from forms import A2, C1_ALPHAS, C1_FAR_ALPHAS, DIAG22, basis_partner, reduced_forms, type2


def closure_box(gens, R):
    """Brute-force oracle: points of the generated submonoid inside
    [-R, R]^2, saturating nonnegative combinations with intermediates
    confined to a 3R box."""
    bound = 3 * R
    reached = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = (p[0] + g[0], p[1] + g[1])
                if abs(q[0]) <= bound and abs(q[1]) <= bound and q not in reached:
                    reached.add(q)
                    new.append(q)
        frontier = new
    return {p for p in reached if abs(p[0]) <= R and abs(p[1]) <= R}


def box_type(gens, R):
    """The closure inside [-R, R]^2 matched against all of the box and the
    two half-plane forms bounded by each primitive direction a0 in it:
    ("ALL",), ("TYPE_II", a0, s), ("TYPE_I", a0, s) or ("OTHER",), with s
    the sign of det[a0, v] on the open positive side."""
    pts = closure_box(gens, R)
    box = [(m, n) for m in range(-R, R + 1) for n in range(-R, R + 1)]
    if len(pts) == len(box):
        return ("ALL",)
    for a0 in sorted(p for p in pts if p != (0, 0) and math.gcd(*p) == 1):
        for s in (1, -1):
            def det(v):
                return s * (a0[0] * v[1] - a0[1] * v[0])
            if all((v in pts) == (det(v) >= 0) for v in box):
                return ("TYPE_II", a0, s)
            if all((v in pts) == (det(v) > 0 or (det(v) == 0 and (
                    v[0] * a0[0] + v[1] * a0[1] >= 0))) for v in box):
                return ("TYPE_I", a0, s)
    return ("OTHER",)


def gens_desc(gens):
    return MonoidDescriptor(kind="generators", generators=tuple(gens))


GENS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=4)


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
    # exact at any distance: no search budget
    d = gens_desc([(1, 0)])
    assert member(DIAG22, d, (100, 0)) and member(DIAG22, d, (1000, 0))
    assert not member(DIAG22, d, (-1, 0)) and not member(DIAG22, d, (100, 1))


def test_closure_box_quadrant():
    quadrant = {(m, n) for m in range(3) for n in range(3)}
    assert closure_box([(1, 0), (0, 1)], 2) == quadrant
    d = gens_desc([(1, 0), (0, 1)])
    assert {v for v in DIAG22.box(2) if member(DIAG22, d, v)} == quadrant


def test_closure_box_even_ray():
    assert closure_box([(2, 0)], 3) == {(0, 0), (2, 0)}
    d = gens_desc([(2, 0)])
    assert {v for v in DIAG22.box(3) if member(DIAG22, d, v)} == {(0, 0), (2, 0)}


def test_member_numerical_semigroup_ray():
    # <2, 3> on a ray misses 1 only; +-perp cancel there, so f must count s
    d = gens_desc([(2, 0), (3, 0)])
    assert [member(DIAG22, d, (k, 0)) for k in range(-1, 6)] == [
        False, True, False, True, True, True, True]


# a ray, a numerical semigroup on a ray, a line, a half-plane, the full
# plane and three pointed cones
CONE_KINDS = [[(1, 0)], [(2, 0), (3, 0)], [(1, 1), (-1, -1)], [(1, 0), (-1, 0), (1, 1)],
              [(1, 0), (0, 1), (-1, -1)], [(2, 1), (1, 2)], [(1, 0), (-4, 1)],
              [(1, 0), (0, 1), (1, 1)]]


@pytest.mark.parametrize("gens", CONE_KINDS, ids=str)
def test_member_matches_the_search_on_every_cone_kind(gens):
    # the cone test before the search never rejects a member
    d = gens_desc(gens)
    assert {v for v in DIAG22.box(12) if member(DIAG22, d, v)} == closure_box(gens, 12)


def test_member_outside_the_cone_costs_no_search(monkeypatch):
    # (x, 1) lies outside the cone of (2,1) and (1,2) for x > 2, and the
    # search reduces as many classes at x = 10^6 as at x = 10^3; a search
    # that runs long stops at its 10^4th class
    calls, reduce = [], monoid._reduce

    def counted(v, lam):
        calls.append(v)
        assert len(calls) < 10**4, "the search ran"
        return reduce(v, lam)

    monkeypatch.setattr(monoid, "_reduce", counted)
    d = gens_desc([(2, 1), (1, 2)])
    assert member(DIAG22, d, (3, 3)) and calls
    work = []
    for x in (10**3, 10**6):
        calls.clear()
        assert not member(DIAG22, d, (x, 1))
        work.append(len(calls))
    assert work[0] == work[1]


@settings(max_examples=200, deadline=None)
@given(GENS)
def test_member_matches_brute_force_closure(gens):
    pts = closure_box(gens, 4)
    d = gens_desc(gens)
    assert {v for v in DIAG22.box(4) if member(DIAG22, d, v)} == pts


@settings(max_examples=60, deadline=None)
@given(GENS)
def test_classify_generators_matches_box_at_radius_10(gens):
    want = box_type(gens, 10)
    for L in (A2, DIAG22):
        rep = classify(L, gens_desc(gens))
        if want[0] == "ALL":
            assert rep == ClassificationReport(
                is_parabolic=False, type="OTHER",
                witnesses={"note": "closure fills the box"})
        elif want[0] == "TYPE_II":
            a0, s = want[1], want[2]
            assert rep.is_parabolic and rep.type == "TYPE_II"
            assert rep.alpha in (a0, (-a0[0], -a0[1]))
            for v in L.box(10):
                det = s * (a0[0] * v[1] - a0[1] * v[0])
                assert side(L, rep.gamma, v) == (det > 0) - (det < 0)
        else:
            assert want == ("OTHER",)
            assert rep == ClassificationReport(is_parabolic=False, type="OTHER")


# -- member on one monoid given as two descriptor kinds, in a box --------------


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_member_of_a_generated_half_plane_matches_type2(gram):
    # [a, -a, b0] with det[a, b0] = e = +-1 generates Z*a + N*b0, the closed
    # half-plane on b0's side of the line through a: type2(L, a, e)
    L = GramLattice(gram=gram, D=2)
    box = list(L.box(4))
    for a in C1_ALPHAS + C1_FAR_ALPHAS:
        b = basis_partner(a)
        for e in (1, -1):
            gens, half = gens_desc([a, (-a[0], -a[1]), (e * b[0], e * b[1])]), type2(L, a, e)
            assert [v for v in box if member(L, gens, v) != member(L, half, v)] == [], (a, e)


def test_member_of_a_generated_pair_matches_cone():
    # both name the nonnegative integer combinations of a1 and a2, which do
    # not depend on the lattice
    signed = C1_ALPHAS + [(-x, -y) for x, y in C1_ALPHAS]
    box = list(DIAG22.box(4))
    pairs = [(a1, a2) for a1 in C1_ALPHAS for a2 in signed
             if a1[0] * a2[1] - a1[1] * a2[0]]
    for a1, a2 in pairs:
        gens, cone = gens_desc([a1, a2]), MonoidDescriptor(kind="cone", cone=(a1, a2))
        assert [v for v in box if member(DIAG22, gens, v)
                != member(DIAG22, cone, v)] == [], (a1, a2)


@pytest.mark.parametrize("gens", [[(1, 0), (-4, 1)], [(1, 0), (0, 1)]])
def test_pointed_cones_are_other_at_every_radius(gens):
    for R in (1, 3, 8, 100):
        rep = classify(DIAG22, gens_desc(gens), R)
        assert rep == ClassificationReport(is_parabolic=False, type="OTHER")


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
    rep = classify(DIAG22, d)
    assert rep.type == "TYPE_II"
    assert rep.alpha == (1, 0)
    assert side(DIAG22, rep.gamma, (0, 1)) == PLUS


def test_type2_requires_lattice_line():
    d = MonoidDescriptor(kind="type2", gamma=irr(DIAG22, 1, 1))
    with pytest.raises(ParavoaError, match="type-II requires the hyperplane to meet"):
        d.validate(DIAG22)


# -- a descriptor is checked and compiled once per lattice ---------------------

SWEEP = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]


def test_descriptor_is_compiled_once(monkeypatch):
    # a 7x7 member sweep plus a Fock basis over P's labels, on one
    # descriptor: the generators are compiled once, gamma's pair built once
    calls = {"compile": 0, "normal": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(monoid, "_compile", counted("compile", monoid._compile))
    normal = counted("normal", lattice._normal)
    monkeypatch.setattr(lattice, "_normal", normal)
    monkeypatch.setattr(monoid, "_normal", normal)
    # both are closed half-planes: y >= 0, and (gamma|v) = 2x + 4y >= 0
    for P, name, inside in (
            (gens_desc([(1, 0), (-1, 0), (1, 1)]), "compile", lambda v: v[1] >= 0),
            (MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(1, 2)), "normal",
             lambda v: v[0] + 2 * v[1] >= 0)):
        calls.update(compile=0, normal=0)
        assert [member(DIAG22, P, v) for v in SWEEP] == [inside(v) for v in SWEEP]
        assert enumerate_basis(DIAG22, MONOID(P), 4)
        assert calls[name] == 1, (P.kind, calls)


MEMO_DESCRIPTORS = [
    MonoidDescriptor(kind="type1", gamma=DIAG22.hvec(0, 1)),
    MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(0, 1)),
    MonoidDescriptor(kind="type2", gamma=DIAG22.hvec(1, 2)),
    MonoidDescriptor(kind="type1", gamma=irr(DIAG22, 1, 1)),
    MonoidDescriptor(kind="cone", cone=((2, 1), (1, 1))),
    gens_desc([(1, 0), (-1, 0), (1, 1)]),
    gens_desc([(1, 0), (0, 1)]),
]


def answers(L, P):
    return (P.validate(L), classify(L, P), [member(L, P, v) for v in SWEEP])


@pytest.mark.parametrize("P", MEMO_DESCRIPTORS, ids=lambda P: json.dumps(P.to_json()))
def test_descriptor_memo_keys_on_the_lattice(P):
    # one descriptor serves both lattices in turn; each answer must be the
    # one a fresh descriptor gives
    fresh = {L: answers(L, dataclasses.replace(P)) for L in (DIAG22, A2)}
    assert fresh[DIAG22] != fresh[A2] or P.kind in ("cone", "generators")
    for L in (DIAG22, A2, DIAG22, A2):
        assert answers(L, P) == fresh[L]


@pytest.mark.parametrize("P,message", [
    (gens_desc([]), "empty generator list"),
    (MonoidDescriptor(kind="type2", gamma=irr(DIAG22, 1, 1)),
     "type-II requires the hyperplane to meet"),
])
def test_failed_check_is_not_kept(P, message):
    for call in (P.validate, P.validate, lambda L: member(L, P, (1, 0)),
                 lambda L: classify(L, P)):
        with pytest.raises(ParavoaError, match=message):
            call(DIAG22)


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
        assert abs(alpha[0] * w[1] - alpha[1] * w[0]) == 1
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
        assert abs(alpha[0] * w[1] - alpha[1] * w[0]) == 1


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
    with pytest.raises(ParavoaError, match="alpha must be primitive"):
        saturate_witnesses(DIAG22, DIAG22.hvec(1, 2), (2, 0))  # not primitive
    with pytest.raises(ParavoaError, match="alpha must lie strictly on the negative side"):
        saturate_witnesses(DIAG22, DIAG22.hvec(1, 2), (1, 0))  # wrong side


def walk_witnesses(L, gamma, alpha):
    """saturate_witnesses by one -alpha step at a time from the same starts."""
    a1, a2 = lattice.halfplane_basis(L, gamma)
    m, n = (int(x) for x in lattice._cramer(a1, a2, alpha))
    g0, x0, y0 = monoid._ext_gcd(-n, m)

    def pick(rhs):
        x, y = x0 * g0 * rhs, y0 * g0 * rhs
        beta = (x * a1[0] + y * a2[0], x * a1[1] + y * a2[1])
        while side(L, gamma, beta) != PLUS:
            beta = (beta[0] - alpha[0], beta[1] - alpha[1])
        return beta

    det = a1[0] * a2[1] - a1[1] * a2[0]
    return pick(det), pick(-det)


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_saturate_witnesses_match_a_one_step_walk(gram):
    L = GramLattice(gram=gram, D=2)
    for gamma in (L.hvec(1, 2), L.hvec(-3, 1), L.hvec(1, 40),
                  L.hvec(1, QuadScalar(0, 1, 2)), L.hvec(QuadScalar(-7, 3, 2), 5)):
        for alpha in L.box(3):
            if alpha != (0, 0) and math.gcd(*alpha) == 1 and side(L, gamma, alpha) == MINUS:
                assert saturate_witnesses(L, gamma, alpha) == walk_witnesses(L, gamma, alpha)


@pytest.mark.parametrize("ratio", [10**3, 10**9])
def test_saturate_cost_is_logarithmic(monkeypatch, ratio):
    # beta = (ratio + 1, -1) is ratio + 1 steps of -alpha from its start
    calls = []
    real = monoid._side_of
    monkeypatch.setattr(monoid, "_side_of", lambda n, v: calls.append(v) or real(n, v))
    got = saturate_witnesses(DIAG22, DIAG22.hvec(1, ratio), (-1, 0))
    assert got == ((ratio + 1, -1), (0, 1))
    assert len(calls) <= 2 * ratio.bit_length() + 2


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
        d = gens_desc(gens)
        assert all(member(DIAG22, d, v) for v in DIAG22.box(5))
        trials += 1
