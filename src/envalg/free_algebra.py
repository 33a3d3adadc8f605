"""Exact truncated arithmetic in the free associative algebra on ``d`` letters.

A :class:`FreeSeries` is a sparse table mapping words over ``{0, .., d-1}``
to nonzero Gaussian-rational coefficients, truncated at a fixed total degree.
Concatenation product, exp, log, the two-letter BCH series and bidegree
projections are all exact; products silently discard the words whose length
exceeds the truncation degree, which makes every nonconstant series nilpotent
and keeps exp/log finite sums.  The product never forms a discarded pair: it
groups the right factor's words by length once, and each left word ``u``
walks only the groups that fit beside it, of length at most the truncation
degree minus ``len(u)``.

The truncation degree is a hard parameter: series with different degrees (or
alphabets) never mix, so the provenance of discarded terms stays explicit.

The vector-space operations (sum, difference, negation, scaling, equality
and hash) live once, in the private base :class:`_SparseTerms`, which
:class:`FreeSeries` and :class:`~envalg.lie_structure.PBWPoly` share; each
class adds its parameters, its mismatch error and its product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .errors import ConstantTermError, DegreeOverflowError, SeriesMismatchError
from .scalars import ONE, Scalar, as_scalar

__all__ = [
    "FreeSeries",
    "fa_exp",
    "fa_log",
    "fa_bch",
    "fa_bidegree_project",
    "fa_check_exp_identity",
    "ExpIdentityReport",
]


def _acc(table, key, coeff):
    """``table[key] += coeff`` over a sparse dict, dropping an entry that cancels."""
    got = table.get(key)
    got = coeff if got is None else got + coeff
    if got:
        table[key] = got
    elif key in table:
        del table[key]


class _SparseTerms:
    """Vector-space operations shared by the sparse term algebras.

    An element holds ``terms``, a dict from keys (words, or PBW
    multi-indices) to nonzero :class:`Scalar` values, beside the parameters
    that fix its algebra.  A subclass supplies three things: ``_params()``,
    the parameters that ``==`` compares and that its ``_raw(*params,
    terms)`` builds an element from; ``_check_compatible``, which raises the
    class's mismatch error; and ``_product``, the algebra product.  The hash
    reads the terms only, which is consistent with ``==``.
    """

    __slots__ = ()

    def _with(self, terms):
        """An element with the same parameters and the given terms."""
        return self._raw(*self._params(), terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _acc(out, key, coeff)
        return self._with(out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._with({k: -c for k, c in self.terms.items()})

    def scale(self, value):
        value = as_scalar(value)
        if value is NotImplemented:
            raise TypeError("scale expects a rational or Gaussian rational")
        if not value:
            return self._with({})
        return self._with({k: c * value for k, c in self.terms.items()})

    def __rmul__(self, value):
        if isinstance(value, (int, Fraction, Scalar)):
            return self.scale(value)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._product(other)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._params() == other._params() and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class FreeSeries(_SparseTerms):
    """Truncated noncommutative power series with exact coefficients.

    ``terms`` maps words (tuples of letters) to nonzero :class:`Scalar`
    values; the empty word is the constant term.  Instances are treated as
    immutable: no operation mutates an existing series.
    """

    __slots__ = ("alphabet_size", "trunc_degree", "terms")

    def __init__(self, alphabet_size, trunc_degree, terms=None):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        if trunc_degree < 0:
            raise ValueError("trunc_degree must be nonnegative")
        self.alphabet_size = alphabet_size
        self.trunc_degree = trunc_degree
        clean = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if len(word) > trunc_degree:
                raise ValueError(f"word {word} exceeds truncation degree {trunc_degree}")
            if any(not (0 <= l < alphabet_size) for l in word):
                raise ValueError(f"word {word} uses letters outside the alphabet")
            coeff = as_scalar(coeff)
            if coeff is NotImplemented:
                raise TypeError("coefficients must be rational or Gaussian rational")
            if coeff:
                clean[word] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, alphabet_size, trunc_degree, terms):
        s = object.__new__(cls)
        s.alphabet_size = alphabet_size
        s.trunc_degree = trunc_degree
        s.terms = terms
        return s

    @classmethod
    def zero(cls, alphabet_size, trunc_degree):
        return cls._raw(alphabet_size, trunc_degree, {})

    @classmethod
    def one(cls, alphabet_size, trunc_degree):
        return cls._raw(alphabet_size, trunc_degree, {(): ONE})

    @classmethod
    def letter(cls, alphabet_size, trunc_degree, index):
        if not (0 <= index < alphabet_size):
            raise ValueError("letter index outside the alphabet")
        if trunc_degree < 1:
            raise ValueError("truncation degree too small for a letter")
        return cls._raw(alphabet_size, trunc_degree, {(index,): ONE})

    def _check_compatible(self, other):
        if self.alphabet_size != other.alphabet_size:
            raise SeriesMismatchError(
                f"alphabet mismatch: {self.alphabet_size} letters vs {other.alphabet_size}"
            )
        if self.trunc_degree != other.trunc_degree:
            raise SeriesMismatchError(
                f"truncation degree mismatch: {self.trunc_degree} vs {other.trunc_degree}"
            )

    def _params(self):
        return self.alphabet_size, self.trunc_degree

    def _product(self, other):
        self._check_compatible(other)
        cut = self.trunc_degree
        # buckets[k] holds the terms of `other` of length k, so each left word
        # walks exactly the right words that fit beside it
        buckets = [[] for _ in range(cut + 1)]
        for v, cv in other.terms.items():
            buckets[len(v)].append((v, cv))
        out = {}
        for u, cu in self.terms.items():
            for bucket in buckets[: cut + 1 - len(u)]:
                for v, cv in bucket:
                    _acc(out, u + v, cu * cv)
        return self._with(out)

    def homogeneous_part(self, degree):
        return self._with({w: c for w, c in self.terms.items() if len(w) == degree})

    def __repr__(self):
        if not self.terms:
            return "FreeSeries(0)"
        names = "XYZUVW"
        bits = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            label = "".join(names[l] if self.alphabet_size <= 6 else f"x{l}" for l in word)
            bits.append(f"{self.terms[word]}*{label or '1'}")
        return "FreeSeries(" + " + ".join(bits) + f"; N={self.trunc_degree})"


def fa_exp(a):
    """Exponential ``sum a^k / k!``; requires zero constant term."""
    c0 = a.terms.get(())
    if c0:
        raise ConstantTermError(f"exp needs zero constant term, found {c0}")
    result = FreeSeries.one(a.alphabet_size, a.trunc_degree)
    term = result
    for k in range(1, a.trunc_degree + 1):
        term = (term * a).scale(Fraction(1, k))
        if term.is_zero():
            break
        result = result + term
    return result


def fa_log(a):
    """Logarithm ``sum (-1)^(k+1) (a-1)^k / k``; requires constant term 1."""
    c0 = a.terms.get(())
    if c0 != ONE:
        raise ConstantTermError(f"log needs constant term 1, found {c0 or 0}")
    u = a - FreeSeries.one(a.alphabet_size, a.trunc_degree)
    result = FreeSeries.zero(a.alphabet_size, a.trunc_degree)
    power = FreeSeries.one(a.alphabet_size, a.trunc_degree)
    for k in range(1, a.trunc_degree + 1):
        power = power * u
        if power.is_zero():
            break
        result = result + power.scale(Fraction((-1) ** (k + 1), k))
    return result


@cache
def fa_bch(N):
    """The two-letter BCH series ``log(exp(X) exp(Y))`` truncated at degree N.

    Computed directly from the exp/log definitions so it serves as its own
    oracle; the degree-1 part is ``X + Y`` and the degree-2 part is
    ``(XY - YX)/2``.
    """
    if N < 1:
        raise ValueError("fa_bch needs N >= 1")
    x = FreeSeries.letter(2, N, 0)
    y = FreeSeries.letter(2, N, 1)
    return fa_log(fa_exp(x) * fa_exp(y))


@cache
def _exp_law(N):
    """``exp(Z)`` for the BCH series at truncation N, and ``exp(X) exp(Y) == exp(Z)``.

    Every bidegree of total N shares both, so each total builds them once.
    """
    exp_z = fa_exp(fa_bch(N))
    x = FreeSeries.letter(2, N, 0)
    y = FreeSeries.letter(2, N, 1)
    return exp_z, fa_exp(x) * fa_exp(y) == exp_z


def fa_bidegree_project(a, m, n):
    """Keep exactly the words with ``m`` letters X and ``n`` letters Y."""
    if a.alphabet_size != 2:
        raise SeriesMismatchError("bidegree projection needs a two-letter alphabet")
    if m + n > a.trunc_degree:
        raise DegreeOverflowError(
            f"bidegree ({m},{n}) exceeds truncation degree {a.trunc_degree}"
        )
    keep = {
        w: c
        for w, c in a.terms.items()
        if len(w) == m + n and sum(1 for l in w if l == 0) == m
    }
    return FreeSeries._raw(2, a.trunc_degree, keep)


@dataclass(frozen=True)
class ExpIdentityReport:
    """Outcome of the exact two-sided exponential-law check at bidegree (m, n)."""

    m: int
    n: int
    coefficient_identity_ok: bool
    product_identity_ok: bool

    @property
    def ok(self):
        return self.coefficient_identity_ok and self.product_identity_ok

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        return (
            f"exp-identity (m={self.m}, n={self.n}): {status} "
            f"[bidegree {self.coefficient_identity_ok}, product {self.product_identity_ok}]"
        )


def fa_check_exp_identity(m, n):
    """Exactly verify ``x^m y^n / (m! n!) = sum_k T_{m,n}((x*y)^k) / k!``.

    Also confirms ``exp(X) exp(Y) = exp(Z)`` modulo degree ``m+n+1`` for the
    BCH series ``Z`` at truncation ``m+n``.  Projection is linear, so the
    right side of the first identity is the bidegree-(m, n) part of the same
    ``exp(Z)``.  Both checks must PASS; a FAIL indicates an implementation
    bug, never an acceptable outcome.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 with m + n >= 1")
    N = m + n
    exp_z, product_ok = _exp_law(N)
    lhs = FreeSeries(2, N, {(0,) * m + (1,) * n: Fraction(1, factorial(m) * factorial(n))})
    rhs = fa_bidegree_project(exp_z, m, n)
    return ExpIdentityReport(m, n, lhs == rhs, product_ok)
