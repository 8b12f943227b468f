import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paravoa.exactnum import QuadScalar
from paravoa.lattice import (
    GramLattice,
    MINUS,
    PLUS,
    ZERO,
    ParavoaError,
    _cramer,
    cone_member,
    halfplane_basis,
    inner,
    is_primitive,
    line_intersection,
    perp_primitive,
    side,
)
from paravoa.monoid import MonoidDescriptor, member

from forms import A2, DIAG22, reduced_forms, type2


def test_gram_validation():
    with pytest.raises(ValueError):
        GramLattice(gram=((1, 0), (0, 2)))  # odd diagonal
    with pytest.raises(ValueError):
        GramLattice(gram=((2, 0), (1, 2)))  # asymmetric
    with pytest.raises(ValueError):
        GramLattice(gram=((2, 3), (3, 2)))  # indefinite


def test_inner_a2():
    assert inner(A2, A2.lift((1, 0)), A2.lift((0, 1))) == QuadScalar(-1)


def test_inner_zero():
    assert inner(A2, A2.lift((0, 0)), A2.lift((3, -7))) == QuadScalar(0)


def test_inner_diag24():
    L = GramLattice(gram=((2, 0), (0, 4)))
    # hand oracle: (1,1).G.(1,1) = 2 + 4
    assert inner(L, L.lift((1, 1)), L.lift((1, 1))) == QuadScalar(6)


def test_side_orthogonal():
    g = DIAG22.hvec(0, 1)
    assert side(DIAG22, g, (5, 0)) == ZERO
    assert side(DIAG22, g, (-3, 2)) == PLUS


def test_side_irrational():
    # gamma = (1, sqrt2): (gamma|(-3,2)) = -6 + 4 sqrt2; 32 < 36
    g = (QuadScalar(1, 0, 2), QuadScalar(0, 1, 2))
    assert side(DIAG22, g, (-3, 2)) == MINUS


def test_side_antisymmetry():
    g = DIAG22.hvec(1, 2)
    for v in DIAG22.box(4):
        s = side(DIAG22, g, v)
        assert side(DIAG22, g, (-v[0], -v[1])) == -s
    assert side(DIAG22, g, (0, 0)) == ZERO


def test_mixed_field_gamma_rejected():
    g = (QuadScalar(0, 1, 2), QuadScalar(0, 1, 3))
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        side(DIAG22, g, (1, 1))


def test_line_intersection_axis():
    assert line_intersection(DIAG22, DIAG22.hvec(0, 1)) == (1, 0)


def test_line_intersection_slope():
    # oracle: 2m + 4n = 0 over Z, primitive, first-nonzero positive
    alpha = line_intersection(DIAG22, DIAG22.hvec(1, 2))
    assert alpha == (2, -1)
    assert side(DIAG22, DIAG22.hvec(1, 2), alpha) == ZERO


def test_line_intersection_irrational():
    g = (QuadScalar(1, 0, 2), QuadScalar(0, 1, 2))
    assert line_intersection(DIAG22, g) is None


def test_line_intersection_completeness():
    # every box point on the line is an integer multiple of alpha
    g = DIAG22.hvec(1, 2)
    alpha = line_intersection(DIAG22, g)
    for v in DIAG22.box(10):
        if side(DIAG22, g, v) == ZERO and v != (0, 0):
            assert v[0] % alpha[0] == 0 or v[1] % alpha[1] == 0
            k = v[0] // alpha[0] if alpha[0] else v[1] // alpha[1]
            assert (k * alpha[0], k * alpha[1]) == v


def test_is_primitive():
    assert is_primitive((1, 2))
    assert not is_primitive((2, 4))
    assert is_primitive((-3, 5))
    with pytest.raises(ParavoaError, match="the zero vector is neither primitive"):
        is_primitive((0, 0))


def test_cone_member():
    assert cone_member((1, 0), (0, 1), (3, 4)) == (3, 4)
    assert cone_member((1, 0), (0, 1), (-1, 0)) is None
    assert cone_member((2, 1), (1, 1), (5, 3)) == (2, 1)


def test_cone_member_dependent_generators():
    for a1, a2 in (((1, 2), (2, 4)), ((1, 0), (-3, 0)), ((0, 0), (1, 1))):
        with pytest.raises(ParavoaError, match="linearly dependent columns"):
            cone_member(a1, a2, (1, 1))


entries = st.one_of(st.integers(-30, 30),
                    st.fractions(min_value=-30, max_value=30, max_denominator=12))
pairs = st.tuples(entries, entries)


@given(pairs, pairs, pairs)
def test_cramer_solves_the_system(c1, c2, rhs):
    if c1[0] * c2[1] == c1[1] * c2[0]:
        with pytest.raises(ParavoaError, match="linearly dependent columns"):
            _cramer(c1, c2, rhs)
        return
    x, y = _cramer(c1, c2, rhs)
    assert type(x) is Fraction and type(y) is Fraction
    assert (x * c1[0] + y * c2[0], x * c1[1] + y * c2[1]) == rhs


def test_cone_member_brute_force():
    a1, a2 = (2, 1), (1, 1)
    for v in DIAG22.box(6):
        got = cone_member(a1, a2, v)
        found = None
        for m1 in range(0, 20):
            for m2 in range(0, 20):
                if (m1 * a1[0] + m2 * a2[0], m1 * a1[1] + m2 * a2[1]) == v:
                    found = (m1, m2)
        assert got == found


@pytest.mark.parametrize(
    "L,gamma",
    [
        (DIAG22, (Fraction(1), Fraction(0))),
        (DIAG22, (Fraction(1), Fraction(1))),
        (DIAG22, (Fraction(-2), Fraction(3))),
        (A2, (Fraction(1), Fraction(-3))),
    ],
)
def test_halfplane_basis_rational(L, gamma):
    g = L.hvec(*gamma)
    b1, b2 = halfplane_basis(L, g)
    assert side(L, g, b1) == PLUS
    assert side(L, g, b2) == PLUS
    assert abs(b1[0] * b2[1] - b1[1] * b2[0]) == 1


def test_halfplane_basis_irrational():
    g = (QuadScalar(1, 0, 2), QuadScalar(0, 1, 2))
    b1, b2 = halfplane_basis(A2, g)
    assert side(A2, g, b1) == PLUS
    assert side(A2, g, b2) == PLUS
    assert abs(b1[0] * b2[1] - b1[1] * b2[0]) == 1


def test_halfplane_basis_rejects_zero():
    with pytest.raises(ParavoaError, match="gamma must be nonzero"):
        halfplane_basis(A2, A2.hvec(0, 0))


def test_perp_primitive():
    assert perp_primitive(DIAG22, (1, 0)) == (0, 1)
    b = perp_primitive(A2, (1, 0))
    assert inner(A2, A2.lift((1, 0)), A2.lift(b)) == QuadScalar(0)
    assert is_primitive(b)


# -- the integer geometry against inner(), over the reduced-form family --------


def family_gammas(L: GramLattice, rng: random.Random) -> list:
    """Seeded gammas on L: rational ones orthogonal to a short lattice
    vector, one of those times an irrational scalar, random rational ones,
    and random a + b*sqrt(D) ones."""
    def frac():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    out = []
    for _ in range(3):
        a0 = (rng.randint(-2, 2), rng.randint(1, 2))
        out.append(type2(L, a0, frac() or Fraction(1)).gamma)
    u = QuadScalar(frac(), 1, L.D)
    out.append((out[0][0] * u, out[0][1] * u))
    out += [L.hvec(frac(), frac()) for _ in range(3)]
    out += [(QuadScalar(frac(), frac(), L.D), QuadScalar(frac(), frac(), L.D))
            for _ in range(3)]
    return [gm for gm in out if gm[0] or gm[1]]


@pytest.mark.parametrize("gram", reduced_forms(), ids=str)
def test_integer_geometry_matches_inner(gram):
    L = GramLattice(gram=gram, D=(2, 3, 5, 7)[sum(map(abs, gram[0])) % 4])
    R = 5
    for gamma in family_gammas(L, random.Random(str(gram))):
        sign = {v: inner(L, gamma, L.lift(v)).sign() for v in L.box(R)}
        assert all(side(L, gamma, v) == s for v, s in sign.items())

        # the boundary line: its box points are the multiples of alpha
        on = [v for v, s in sign.items() if s == ZERO and v != (0, 0)]
        alpha = line_intersection(L, gamma)
        if not on:
            assert alpha is None or max(map(abs, alpha)) > R
        else:
            want = min(on, key=lambda v: abs(v[0]) + abs(v[1]))
            want = want if want > (0, 0) else (-want[0], -want[1])
            assert alpha == want and math.gcd(*want) == 1
            assert all(v[0] * alpha[1] == v[1] * alpha[0] for v in on)

        # type I on the line: v = k*alpha with k >= 0, only 0 without a line
        P = MonoidDescriptor(kind="type1", gamma=gamma)
        for v in on + [(0, 0)]:
            k = 0 if v == (0, 0) else (v[0] // alpha[0] if alpha[0] else v[1] // alpha[1])
            assert member(L, P, v) == (k >= 0)
