"""Differential test of ``Scalar`` against a ``(Fraction, Fraction)`` reference.

The reference keeps a Gaussian rational as its real and imaginary parts and
computes every operation with ``fractions.Fraction``; the class under test
must give the same values, a canonical triple ``(a + b i)/d`` with ``d > 0``
and ``gcd(a, b, d) == 1``, and the same rounded floats.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from envalg.scalars import RootValue, Scalar, SqrtFraction, fraction_root_float

# -- reference ---------------------------------------------------------------


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    if not n:
        raise ZeroDivisionError
    return (x[0] / n, -x[1] / n)


def ref_div(x, y):
    return ref_mul(x, ref_inverse(y))


def ref_of(v):
    """The reference pair of a Scalar, int or Fraction operand."""
    if isinstance(v, Scalar):
        return (Fraction(v.re), Fraction(v.im))
    return (Fraction(v), Fraction(0))


# -- strategies ----------------------------------------------------------------

# Small and large numerators, denominators with shared and coprime factors.
ints = st.one_of(st.integers(-12, 12), st.integers(-(2 ** 80), 2 ** 80))
denoms = st.one_of(st.integers(1, 12), st.sampled_from([6, 36, 2 ** 64, 3 ** 40]))
fractions_ = st.builds(Fraction, ints, denoms)
scalars = st.builds(Scalar, fractions_, fractions_) | st.builds(Scalar, fractions_)
operands = st.one_of(scalars, ints, fractions_)


def check_canonical(s):
    """The stored triple is reduced, with a positive denominator."""
    assert type(s) is Scalar
    a, b, d = s.a, s.b, s.d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (s.re, s.im)


def check(result, expected):
    check_canonical(result)
    assert (result.re, result.im) == expected
    assert type(result.re) is Fraction and type(result.im) is Fraction


# -- arithmetic ------------------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scalars, operands)
def test_binary_ops_match_reference(x, y):
    rx, ry = ref_of(x), ref_of(y)
    check(x + y, ref_add(rx, ry))
    check(y + x, ref_add(ry, rx))
    check(x - y, ref_sub(rx, ry))
    check(y - x, ref_sub(ry, rx))
    check(x * y, ref_mul(rx, ry))
    check(y * x, ref_mul(ry, rx))
    if ry != (0, 0):
        check(x / y, ref_div(rx, ry))
    if rx != (0, 0):
        check(y / x, ref_div(ry, rx))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scalars)
def test_unary_ops_match_reference(x):
    rx = ref_of(x)
    check_canonical(x)
    check(-x, (-rx[0], -rx[1]))
    check(x.conjugate(), (rx[0], -rx[1]))
    assert x.abs2() == rx[0] * rx[0] + rx[1] * rx[1]
    assert type(x.abs2()) is Fraction
    assert x.is_real() == (rx[1] == 0)
    assert x.is_zero() == (rx == (0, 0)) == (not x)
    if rx != (0, 0):
        check(1 / x, ref_inverse(rx))
        check(x * (1 / x), (Fraction(1), Fraction(0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scalars, scalars)
def test_equality_and_hash(x, y):
    same = ref_of(x) == ref_of(y)
    assert (x == y) == same
    assert (x != y) == (not same)
    if same:
        assert hash(x) == hash(y)
    # an equal value built another way compares and hashes equal
    twin = Scalar(x.re, x.im)
    assert twin == x and hash(twin) == hash(x)
    assert (x - y + y) == x and hash(x - y + y) == hash(x)
    # a real Scalar hashes like the Fraction or int it equals
    for q in (x.re, x.re.numerator):
        real = Scalar(q)
        assert real == q and hash(real) == hash(q) and len({real, q}) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scalars, st.one_of(ints, fractions_))
def test_equality_with_rationals(x, q):
    assert (x == q) == (ref_of(x) == ref_of(q))
    assert (q == x) == (ref_of(x) == ref_of(q))
    assert x != "1"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scalars)
def test_to_complex_is_bit_equal_to_fraction_floats(x):
    z = x.to_complex()
    ref = complex(ref_of(x)[0], ref_of(x)[1])
    assert type(z) is complex
    assert z.real.hex() == ref.real.hex()
    assert z.imag.hex() == ref.imag.hex()


def test_text_forms():
    half = Fraction(1, 2)
    cases = [
        (Scalar(0), "0", "Scalar(0)"),
        (Scalar(3), "3", "Scalar(3)"),
        (Scalar(-half), "-1/2", "Scalar(-1/2)"),
        (Scalar(0, half), "1/2i", "Scalar(0, 1/2)"),
        (Scalar(0, -1), "-1i", "Scalar(0, -1)"),
        (Scalar(half, Fraction(-2, 3)), "1/2-2/3i", "Scalar(1/2, -2/3)"),
        (Scalar(-1, Fraction(1, 6)), "-1+1/6i", "Scalar(-1, 1/6)"),
    ]
    for s, text, rep in cases:
        assert str(s) == text
        assert repr(s) == rep


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scalars)
def test_text_forms_read_the_fraction_parts(x):
    re, im = ref_of(x)
    if not im:
        assert str(x) == str(re) and repr(x) == f"Scalar({re})"
    else:
        assert repr(x) == f"Scalar({re}, {im})"
        assert str(x).endswith("i")


def test_complex_operand_raises():
    # Scalars do no float arithmetic: a binary64 value is converted first
    s = Scalar(Fraction(1, 3), 2)
    with pytest.raises(TypeError):
        s * 1j
    with pytest.raises(TypeError):
        1j * s


@pytest.mark.parametrize("zero", [Scalar(0), Scalar(Fraction(0), Fraction(0)), 0, Fraction(0)])
def test_division_by_zero_raises(zero):
    x = Scalar(Fraction(2, 3), -1)
    with pytest.raises(ZeroDivisionError):
        x / zero
    with pytest.raises(ZeroDivisionError):
        1 / Scalar(0)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Scalar(0)


def test_unsupported_operands():
    x = Scalar(1, 1)
    for bad in ("1", 1.5, None):
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            x / bad
    assert (x == 1.5) is False


# -- exact roots -----------------------------------------------------------------

COMPARISONS = (operator.lt, operator.le, operator.eq, operator.ne, operator.ge, operator.gt)
squares = st.fractions(min_value=0, max_value=20, max_denominator=12)
rationals = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=12))


def signed_square(v):
    """``v |v|``: strictly increasing on the reals, so it keeps every comparison."""
    if isinstance(v, SqrtFraction):
        return v.squared
    return Fraction(v) * abs(Fraction(v))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(squares, st.one_of(squares.map(SqrtFraction), rationals))
def test_sqrt_fraction_compares_like_its_square(a, other):
    # a negative rational sorts below every root; int and Fraction mix freely
    root = SqrtFraction(a)
    for op in COMPARISONS:
        assert op(root, other) is op(a, signed_square(other))
        assert op(other, root) is op(signed_square(other), a)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(squares, st.integers(1, 4), squares, st.integers(1, 4))
def test_root_value_compares_across_degrees(a, m, b, n):
    # a**(1/2m) against b**(1/2n): raise both to the power 2 lcm(m, n)
    k = math.lcm(m, n)
    u, v = RootValue(a, m), RootValue(b, n)
    for op in COMPARISONS:
        assert op(u, v) is op(a ** (k // m), b ** (k // n))


roots = st.fractions(min_value=0, max_value=6, max_denominator=6)


@st.composite
def equal_prone_pairs(draw):
    """Two roots, or a root and a rational, that are often equal.

    Radicands are powers of one rational, so equal values built at
    different degrees (``4**(1/2) == 16**(1/4)``) come up often.
    """
    r = draw(roots)
    kind = draw(st.sampled_from(["sqrt-rational", "sqrt-sqrt", "root-root"]))
    if kind == "sqrt-rational":
        other = draw(st.one_of(st.just(r), st.integers(0, 6), roots))
        if other.denominator == 1 and draw(st.booleans()):
            other = int(other)
        return SqrtFraction(r * r), other
    if kind == "sqrt-sqrt":
        return SqrtFraction(r), SqrtFraction(draw(st.sampled_from([r, r * r, r + 1])))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p, q = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return RootValue(r ** p, m * p), RootValue(draw(st.sampled_from([r, r + 1])) ** q, m * q)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(equal_prone_pairs())
def test_equal_roots_hash_equal(pair):
    a, b = pair
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("a, b", [
    (SqrtFraction(4), 2), (SqrtFraction(Fraction(9, 4)), Fraction(3, 2)),
    (SqrtFraction(0), 0), (RootValue(4, 1), RootValue(16, 2)),
    (RootValue(8, 3), RootValue(2, 1)), (RootValue(0, 5), RootValue(0, 2)),
    (RootValue(Fraction(1, 81), 4), RootValue(Fraction(1, 3), 1)),
])
def test_equal_roots_hash_equal_examples(a, b):
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("bad", ["1", 1.5, None])
def test_roots_leave_foreign_operands_unordered(bad):
    for value in (SqrtFraction(4), RootValue(4, 1)):
        assert (value == bad) is False and (value != bad) is True
        for op in COMPARISONS[:2] + COMPARISONS[4:]:
            with pytest.raises(TypeError):
                op(value, bad)
            with pytest.raises(TypeError):
                op(bad, value)


@pytest.mark.parametrize("q, k, want", [
    (Fraction(2) ** 2046, 2, 2.0 ** 1023),
    (Fraction(2) ** 2048, 2, math.inf),
    (Fraction(10) ** 800, 2, math.inf),
    (Fraction(1, 10 ** 800), 2, 0.0),
    (Fraction(10) ** 4000, 3, math.inf),
])
def test_roots_beyond_binary64_read_inf_or_zero(q, k, want):
    assert fraction_root_float(q, k) == want
    assert RootValue(q, 1).to_float() == fraction_root_float(q, 2)
