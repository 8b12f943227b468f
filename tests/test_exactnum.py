import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paravoa.exactnum import QuadScalar, _sign, _squarefree


def q(a, b=0, D=2):
    return QuadScalar(Fraction(a), Fraction(b), D)


def test_sign_zero():
    assert q(0, 0).sign() == 0


def test_sign_forced():
    assert q(-1, 1).sign() == 1  # sqrt(2) > 1


def test_sign_magnitude_comparison():
    # oracle: 3 + (-2)sqrt(2) > 0 iff 9 > 8
    assert 3 * 3 > 2 * 2 * 2
    assert q(3, -2).sign() == 1
    assert q(-3, 2).sign() == -1
    assert q(2, -3).sign() == -1


def test_norm_identity():
    assert q(1, 1) * q(1, -1) == q(-1)


def test_addition():
    assert q(1, 1) + q(2, -1) == q(3)


def test_inverse():
    x = q(1, 1)
    inv = QuadScalar(1) / x
    assert inv == q(-1, 1)
    assert x * inv == q(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
        QuadScalar(1, 0, 2) / q(0, 0)


def test_rational_mode_forces_b_zero():
    x = QuadScalar(2, 5, 1)
    assert x.a == 7 and x.b == 0
    assert type(x.a) is Fraction and type(x.b) is Fraction


frac = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
scalars = st.builds(lambda a, b: q(a, b), frac, frac)


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x


@given(scalars)
def test_inverse_axiom(x):
    if x:
        assert x * x.inverse() == QuadScalar(1, 0, 2)


@given(scalars)
def test_sign_matches_float(x):
    import math

    approx = float(x.a) + float(x.b) * math.sqrt(2)
    if abs(approx) > 1e-9:
        assert x.sign() == (1 if approx > 0 else -1)


big = st.integers(-10**30, 10**30)


@given(big, big, st.integers(2, 10**6).filter(_squarefree))
def test_sign_against_isqrt(a, b, D):
    # oracle: for b != 0, |b|*sqrt(D) is irrational and lies strictly
    # between r = isqrt(b^2 D) and r + 1, so a + b*sqrt(D) is never 0
    if b == 0:
        want = (a > 0) - (a < 0)
    else:
        r = math.isqrt(b * b * D)
        want = (1 if -a <= r else -1) if b > 0 else (1 if a > r else -1)
    assert _sign(a, b, D) == want
    assert QuadScalar(a, b, D).sign() == want


def test_mixed_field_rejected():
    x, y = QuadScalar(1, 1, 2), QuadScalar(1, 1, 3)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
               lambda: x == y, lambda: x < y):
        with pytest.raises(ValueError):
            op()


def test_rational_coexists_with_any_field():
    assert QuadScalar(2, 0, 3) + q(1, 1) == q(3, 1)
    # a rational operand takes the other operand's field, whatever its own D
    assert (QuadScalar(2, 0, 3) * q(1, 1)).D == 2
    assert (q(1, 1) * QuadScalar(2, 0, 3)).D == 2


def test_comparison_operators():
    assert q(0, 1) > q(1, 0)  # sqrt(2) > 1
    assert q(3, -2) > 0
    assert q(2, -3) < 0
    assert q(1, 0) >= 1 and q(1, 0) <= 1 and not q(1, 0) > 1
    assert q(0, -1) >= Fraction(-3, 2)  # -sqrt(2) >= -3/2


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_ordering_against_unsupported_type_raises(op):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            eval(f"x {op} None", {"x": q(1, 0)})
        with pytest.raises(TypeError):
            eval(f"None {op} x", {"x": q(1, 0)})


# -- fast paths against the general two-part formula -------------------------

FIELD_D = 2
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
parts = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals))
# right-hand operands: QuadScalars (rational or not), ints and Fractions
rhs = st.one_of(
    parts.map(lambda p: q(p[0], p[1], FIELD_D)),
    st.integers(min_value=-50, max_value=50),
    rationals,
)


def two_parts(x):
    if isinstance(x, QuadScalar):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def assert_parts(r, a, b):
    assert type(r) is QuadScalar
    assert type(r.a) is Fraction and type(r.b) is Fraction
    assert (r.a, r.b) == (a, b)


@given(parts, rhs)
def test_arithmetic_matches_two_part_formula(p, y):
    x = q(p[0], p[1], FIELD_D)
    (a1, b1), (a2, b2) = two_parts(x), two_parts(y)
    D = FIELD_D
    assert_parts(x + y, a1 + a2, b1 + b2)
    assert_parts(y + x, a1 + a2, b1 + b2)
    assert_parts(x - y, a1 - a2, b1 - b2)
    assert_parts(y - x, a2 - a1, b2 - b1)
    assert_parts(x * y, a1 * a2 + b1 * b2 * D, a1 * b2 + b1 * a2)
    assert_parts(y * x, a1 * a2 + b1 * b2 * D, a1 * b2 + b1 * a2)
    assert_parts(-x, -a1, -b1)
    assert (x == y) is (a1 == a2 and b1 == b2)
    n = a2 * a2 - b2 * b2 * D
    if n:
        assert_parts(x / y, (a1 * a2 - b1 * b2 * D) / n, (b1 * a2 - a1 * b2) / n)
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
            x / y
    m = a1 * a1 - b1 * b1 * D
    if m:
        assert_parts(x.inverse(), a1 / m, -b1 / m)
        assert_parts(y / x, (a2 * a1 - b2 * b1 * D) / m, (b2 * a1 - a2 * b1) / m)


def test_bad_field_rejected_by_public_constructor():
    for D in (0, -2, 4, 12):
        with pytest.raises(ValueError):
            QuadScalar(1, 1, D)


def test_squarefree_matches_division_by_every_square():
    def naive(d):
        return d >= 1 and all(d % (k * k) for k in range(2, math.isqrt(d) + 1))

    assert [d for d in range(10**4) if _squarefree(d)] == [
        d for d in range(10**4) if naive(d)]


def test_squarefree_past_the_cube_root():
    # what is left after division by every k with k^3 <= d: a square of a
    # large prime, a product of two, and a large prime with a small square
    assert not _squarefree((10**6 + 3) ** 2)
    assert _squarefree((10**6 + 3) * (10**6 + 33))
    assert not _squarefree(4 * (10**9 + 7))


# -- int-or-Fraction parts against a plain Fraction-pair reference ------------
# integral parts are stored as ints; every result must still read as the
# Fraction pair the two-part formulas give, print and hash as it, and keep
# no integral part as a Fraction

PARTS = [Fraction(x) for x in (0, 1, -1, 3, 10**20 + 1)] + [
    Fraction(1, 2), Fraction(-3, 2)]
B_PARTS = [Fraction(x) for x in (0, 1, -2)] + [Fraction(1, 2), Fraction(-3, 2)]
FIELDS = (1, 2, 1000003)


def values(D):
    bs = B_PARTS if D > 1 else [Fraction(0)]
    return [(a, b, D) for a in PARTS for b in bs]


def ref_sign(a, b, D):
    # independent of _sign: scale to integers A + B*sqrt(D); for B != 0,
    # |B|*sqrt(D) lies strictly between r = isqrt(B^2 D) and r + 1
    m = math.lcm(a.denominator, b.denominator)
    A, B = int(a * m), int(b * m)
    if B == 0:
        return (A > 0) - (A < 0)
    r = math.isqrt(B * B * D)
    return (1 if -A <= r else -1) if B > 0 else (1 if A > r else -1)


def ref_str(a, b, D):
    return str(a) if b == 0 else f"{a}{'+' if b >= 0 else ''}{b}*sqrt({D})"


def ref_repr(a, b, D):
    return f"QuadScalar({a})" if b == 0 else f"QuadScalar({a}, {b}, D={D})"


def assert_value(r, a, b, D):
    assert_parts(r, a, b)
    if b:
        assert r.D == D
    for x in (r._a, r._b):
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1)
    assert str(r) == ref_str(a, b, D) and repr(r) == ref_repr(a, b, D)
    assert r.to_json() == {"a": str(a), "b": str(b)}
    assert bool(r) is bool(a or b)
    assert r.sign() == ref_sign(a, b, D)
    assert r.is_rational() is (b == 0)
    assert hash(r) == (hash(a) if b == 0 else hash((a, b, D)))


@pytest.mark.parametrize("D", FIELDS)
def test_parts_match_fraction_pair_reference(D):
    vals = values(D)
    for a, b, _ in vals:
        assert_value(QuadScalar(a, b, D), a, b, D)
    plain = [0, 1, -3, Fraction(1, 2), Fraction(-5, 3)]
    for a1, b1, _ in vals:
        x = QuadScalar(a1, b1, D)
        assert_value(-x, -a1, -b1, D)
        n1 = a1 * a1 - b1 * b1 * D
        if n1:
            assert_value(x.inverse(), a1 / n1, -b1 / n1, D)
        else:
            with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
                x.inverse()
        rhs = [(QuadScalar(a2, b2, D), a2, b2) for a2, b2, _ in vals]
        rhs += [(y, Fraction(y), Fraction(0)) for y in plain]
        for y, a2, b2 in rhs:
            assert_value(x + y, a1 + a2, b1 + b2, D)
            assert_value(y + x, a1 + a2, b1 + b2, D)
            assert_value(x - y, a1 - a2, b1 - b2, D)
            assert_value(y - x, a2 - a1, b2 - b1, D)
            assert_value(x * y, a1 * a2 + b1 * b2 * D, a1 * b2 + b1 * a2, D)
            assert_value(y * x, a1 * a2 + b1 * b2 * D, a1 * b2 + b1 * a2, D)
            n2 = a2 * a2 - b2 * b2 * D
            if n2:
                assert_value(x / y, (a1 * a2 - b1 * b2 * D) / n2,
                             (b1 * a2 - a1 * b2) / n2, D)
            else:
                with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
                    x / y
            if n1:
                assert_value(y / x, (a2 * a1 - b2 * b1 * D) / n1,
                             (b2 * a1 - a2 * b1) / n1, D)
            eq = a1 == a2 and b1 == b2
            assert (x == y) is eq and (y == x) is eq and (x != y) is not eq
            if eq:
                assert hash(x) == hash(y)
            s = ref_sign(a1 - a2, b1 - b2, D)
            assert ((x < y), (x <= y), (x > y), (x >= y)) == (
                s < 0, s <= 0, s > 0, s >= 0)


def test_integral_fraction_is_stored_as_its_int():
    for x, y in ((QuadScalar(Fraction(4, 2)), QuadScalar(2)),
                 (QuadScalar(Fraction(6, 3), Fraction(-2, 2), 2), QuadScalar(2, -1, 2)),
                 (QuadScalar(Fraction(1, 2), Fraction(1, 2), 1), QuadScalar(1)),
                 (QuadScalar(Fraction(1, 2)) * 4, QuadScalar(2))):
        assert x == y and hash(x) == hash(y)
        assert (type(x._a), type(x._b)) == (int, int)
        assert type(x.a) is Fraction and type(x.b) is Fraction
    assert hash(QuadScalar(2)) == hash(Fraction(2)) == hash(2)
    assert QuadScalar(2) == 2 and QuadScalar(2) == Fraction(4, 2)
    assert type((QuadScalar(3) / 3)._a) is int
    assert QuadScalar(3) / True == 3 and type((QuadScalar(3) / True)._a) is int
    assert QuadScalar(1) / 3 == Fraction(1, 3)


def test_mixed_field_error_message():
    x, y = QuadScalar(1, 1, 2), QuadScalar(Fraction(1, 2), 3, 1000003)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
               lambda: x == y, lambda: x < y):
        with pytest.raises(ValueError,
                           match=r"^mixed quadratic fields: sqrt\(2\) vs sqrt\(1000003\)$"):
            op()
