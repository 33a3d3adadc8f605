"""Exact scalar arithmetic: Gaussian rationals and square-root-free comparisons.

All values here are immutable.  ``Scalar`` is a Gaussian rational stored as
one integer triple ``(a + b*i)/d`` with ``d > 0`` and ``gcd(a, b, d) == 1``:
each result is reduced by a single gcd (none when ``d == 1``), equality
compares the triples, and the parts ``re``/``im`` are handed out as
:class:`fractions.Fraction`.  Arithmetic is closed and exact, so repeated
runs are bit-identical.

Scalar is the type at every public boundary, but the hot exact kernels do
not add Scalars term by term, since each ``+`` or ``*`` costs a gcd and a new
object.  They keep the numerators of a whole table as Python ints (pairs
``(A, B)`` for ``A + B i``) over one denominator that is known from the
table's shape: a common ``den`` times a power of the Lie algebra's
``delta`` (see :mod:`envalg.lie_structure`).  Sums of products of such
numerators stay exact with no reduction, and each output entry becomes one
Scalar through ``_reduced(A, B, den)``, which puts it in lowest terms.  A
float value read from such an entry is ``A / den`` (and ``B / den``),
correctly rounded like :meth:`Scalar.to_complex` of the reduced triple.

There is no float arithmetic here: a Scalar combines only with Scalars,
ints and Fractions.  A binary64 value enters the exact side as the dyadic
rational it stores (see :class:`envalg.gns.MatrixRep`).

``SqrtFraction`` and
``RootValue`` represent nonnegative reals of the form ``sqrt(q)`` and
``q**(1/(2n))`` for rational ``q``; they compare exactly by cross-powering,
and floating point only appears when a value is rendered for a report.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "I",
    "as_scalar",
    "parse_fraction",
    "parse_scalar",
    "format_fraction",
    "format_scalar",
    "SqrtFraction",
    "RootValue",
    "sqrt_leq_sqrt_plus_multiple",
    "fraction_root_float",
]

_gcd = math.gcd
_new_object = object.__new__


def _triple(a, b, d):
    """The Scalar ``(a + b i)/d`` for a triple already in canonical form."""
    s = _new_object(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _reduced(a, b, d):
    """The Scalar ``(a + b i)/d`` for ints with ``d > 0``, put in lowest terms."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # built here rather than through _triple: this is the hottest constructor
    s = _new_object(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _int_pairs(values):
    """Scalars over their common denominator: ``(den, [(A, B), ..])`` with
    each value ``(A + B i) / den``."""
    den = math.lcm(*{v.d for v in values})
    return den, [(v.a * (den // v.d), v.b * (den // v.d)) for v in values]


def _int_pair(q):
    """Numerator and positive denominator of an int or Fraction (any rational)."""
    if type(q) is int:
        return q, 1
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return q.numerator, q.denominator


class Scalar:
    """A Gaussian rational ``(a + b*i)/d`` stored as three Python ints.

    The triple is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so two
    Scalars are equal exactly when their triples are.  ``re`` and ``im`` are
    the parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q = _int_pair(re)
        r, t = _int_pair(im)
        if q != t:
            # over the lcm of two lowest-terms denominators, gcd(a, b, d) == 1
            d = q * t // _gcd(q, t)
            p *= d // q
            r *= d // t
            q = d
        self.a = p
        self.b = r
        self.d = q

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def is_zero(self):
        return not self.a and not self.b

    def is_real(self):
        return not self.b

    def __bool__(self):
        return bool(self.a or self.b)

    def conjugate(self):
        return _triple(self.a, -self.b, self.d)

    def abs2(self):
        """Exact squared modulus ``re**2 + im**2`` as a Fraction."""
        a, b, d = self.a, self.b, self.d
        return Fraction(a * a + b * b, d * d)

    def _plus(self, a, b, d):
        """``self + (a + b i)/d`` for a denominator ``d > 0``, reduced by one gcd."""
        sd = self.d
        if sd == d:
            return _reduced(self.a + a, self.b + b, d)
        return _reduced(self.a * d + a * sd, self.b * d + b * sd, sd * d)

    def __add__(self, other):
        if type(other) is Scalar:
            return self._plus(other.a, other.b, other.d)
        if isinstance(other, (int, Fraction)):
            return self._plus(other.numerator, 0, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Scalar:
            return self._plus(-other.a, -other.b, other.d)
        if isinstance(other, (int, Fraction)):
            return self._plus(-other.numerator, 0, other.denominator)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is Scalar:
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            if b1 or b2:
                return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)
            return _reduced(a1 * a2, 0, self.d * other.d)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _reduced(self.a * p, self.b * p, self.d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Scalar:
            oa, ob, od = other.a, other.b, other.d
            n = oa * oa + ob * ob
            if not n:
                raise ZeroDivisionError("division by zero scalar")
            a, b = self.a, self.b
            return _reduced((a * oa + b * ob) * od, (b * oa - a * ob) * od, self.d * n)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division by zero scalar")
            if p < 0:
                p, q = -p, -q
            return _reduced(self.a * q, self.b * q, self.d * p)
        return NotImplemented

    def __rtruediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real Scalar equals its Fraction (and int), so it hashes like one
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(Fraction(self.a, self.d))

    def to_complex(self):
        # int true division is correctly rounded, as float(Fraction) is
        d = self.d
        return complex(self.a / d, self.b / d)

    # numpy reads Scalars into complex arrays through this
    __complex__ = to_complex

    def __repr__(self):
        if not self.b:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"

    def __str__(self):
        if not self.b:
            return str(self.re)
        if not self.a:
            return f"{self.im}i"
        sign = "+" if self.b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def as_scalar(value):
    """Coerce ints, Fractions and Scalars to Scalar; NotImplemented otherwise."""
    if type(value) is Scalar:
        return value
    if isinstance(value, (int, Fraction)):
        return _triple(value.numerator, 0, value.denominator)
    return NotImplemented


def parse_fraction(text):
    """Parse ``"a/b"`` or ``"a"`` into an exact Fraction (integers only).

    JSON ``true``/``false`` arrive as Python bools, which are ints; they are
    rejected rather than read as 1 and 0.
    """
    if isinstance(text, bool):
        raise ValueError(f"expected a rational, got {str(text).lower()}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from None
    raise ValueError(f"malformed rational {text!r}")


def parse_scalar(value):
    """Parse the config encoding of a scalar.

    Real values are written ``"a/b"``; complex values are two-element lists
    ``["a/b", "c/d"]`` holding real and imaginary parts.  Bools are rejected,
    as in :func:`parse_fraction`.
    """
    if isinstance(value, (str, int)):
        return Scalar(parse_fraction(value))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Scalar(parse_fraction(value[0]), parse_fraction(value[1]))
    raise ValueError(f"malformed scalar {value!r}")


def format_fraction(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(s):
    if s.is_real():
        return format_fraction(s.re)
    return [format_fraction(s.re), format_fraction(s.im)]


def fraction_root_float(q, k):
    """Float value of ``q**(1/k)`` for a nonnegative Fraction q.

    A root beyond binary64 reads ``inf``, and one below it ``0.0``.
    """
    if q < 0:
        raise ValueError("negative radicand")
    if not q:
        return 0.0
    log2 = math.log2(q.numerator) - math.log2(q.denominator)
    try:
        return 2.0 ** (log2 / k)
    except OverflowError:
        return math.inf


def _int_root(n, k):
    """The integer ``n**(1/k)`` for an int ``n >= 0``, or None if it is not one."""
    if n < 2:
        return n
    # Newton's iteration from above; it stops at floor(n**(1/k))
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x ** k == n else None
        x = y


def _rational_root(q, k):
    """The Fraction ``q**(1/k)`` for a Fraction ``q >= 0``, or None if it is irrational."""
    num, den = _int_root(q.numerator, k), _int_root(q.denominator, k)
    return None if num is None or den is None else Fraction(num, den)


@total_ordering
class SqrtFraction:
    """The exact nonnegative real ``sqrt(squared)`` for a rational ``squared``.

    Comparisons against other square roots and against rationals are done on
    the squares, so they are exact; ``to_float`` is for reporting only.
    """

    __slots__ = ("squared",)

    def __init__(self, squared):
        squared = squared if type(squared) is Fraction else Fraction(squared)
        if squared < 0:
            raise ValueError("SqrtFraction needs a nonnegative square")
        self.squared = squared

    def is_zero(self):
        return not self.squared

    def __bool__(self):
        return bool(self.squared)

    def _square_of(self, other):
        """The square of ``other``, -1 for a negative rational (below every root)."""
        if isinstance(other, SqrtFraction):
            return other.squared
        if isinstance(other, (int, Fraction)):
            return -1 if other < 0 else Fraction(other) ** 2
        return NotImplemented

    def __lt__(self, other):
        sq = self._square_of(other)
        return sq if sq is NotImplemented else self.squared < sq

    def __eq__(self, other):
        sq = self._square_of(other)
        return sq if sq is NotImplemented else self.squared == sq

    def __hash__(self):
        # a rational root equals, and so hashes like, that int or Fraction
        root = _rational_root(self.squared, 2)
        return hash(("SqrtFraction", self.squared)) if root is None else hash(root)

    def __mul__(self, other):
        if isinstance(other, SqrtFraction):
            return SqrtFraction(self.squared * other.squared)
        if isinstance(other, (int, Fraction)):
            return SqrtFraction(self.squared * Fraction(other) ** 2)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SqrtFraction):
            return SqrtFraction(self.squared / other.squared)
        if isinstance(other, (int, Fraction)):
            return SqrtFraction(self.squared / Fraction(other) ** 2)
        return NotImplemented

    def to_float(self):
        return fraction_root_float(self.squared, 2)

    def __repr__(self):
        return f"SqrtFraction(sqrt({self.squared}))"


def sqrt_leq_sqrt_plus_multiple(a, b, m, c):
    """Decide ``sqrt(a) <= sqrt(b) + m*sqrt(c)`` exactly.

    ``a``, ``b``, ``c`` are nonnegative rationals and ``m >= 0``.  Squaring
    twice removes both radicals; every intermediate stays rational.
    """
    a, b, c, m = Fraction(a), Fraction(b), Fraction(c), Fraction(m)
    if a < 0 or b < 0 or c < 0 or m < 0:
        raise ValueError("all quantities must be nonnegative")
    # sqrt(a) <= sqrt(b) + m sqrt(c)  <=>  a - b - m^2 c <= 2 m sqrt(b c)
    lhs = a - b - m * m * c
    if lhs <= 0:
        return True
    return lhs * lhs <= 4 * m * m * b * c


@total_ordering
class RootValue:
    """The exact nonnegative real ``squared**(1/(2*degree))``.

    Used for truncated Hadamard-type estimates: ``squared`` holds the exact
    squared norm ratio and ``degree`` the root index.  ``u <= v`` is decided
    by comparing ``u.squared**v.degree`` with ``v.squared**u.degree``.
    """

    __slots__ = ("squared", "degree")

    def __init__(self, squared, degree):
        squared = squared if type(squared) is Fraction else Fraction(squared)
        if squared < 0:
            raise ValueError("RootValue needs a nonnegative square")
        if degree < 1:
            raise ValueError("RootValue needs degree >= 1")
        self.squared = squared
        self.degree = degree

    def __lt__(self, other):
        if not isinstance(other, RootValue):
            return NotImplemented
        return self.squared ** other.degree < other.squared ** self.degree

    def __eq__(self, other):
        if not isinstance(other, RootValue):
            return NotImplemented
        return self.squared ** other.degree == other.squared ** self.degree

    def __hash__(self):
        # equal values share the least degree whose radicand is rational: the
        # degrees with a rational radicand are the multiples of that one
        for m in range(self.degree, 0, -1):
            if self.degree % m == 0:
                root = _rational_root(self.squared, m)
                if root is not None:
                    return hash(("RootValue", root, self.degree // m))

    def equals_rational(self, r):
        """Exact test of ``value == r`` for a rational ``r >= 0``."""
        r = Fraction(r)
        if r < 0:
            return False
        return self.squared == r ** (2 * self.degree)

    def to_float(self):
        return fraction_root_float(self.squared, 2 * self.degree)

    def __repr__(self):
        return f"RootValue({self.squared}**(1/{2 * self.degree}))"
