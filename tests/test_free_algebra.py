"""Exact tests for truncated free-algebra arithmetic, exp/log and BCH."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from envalg.catalog import heisenberg, so3
from envalg.errors import ConstantTermError, SeriesMismatchError, SpecMismatchError
from envalg.free_algebra import (
    ExpIdentityReport,
    FreeSeries,
    _exp_law,
    fa_bch,
    fa_bidegree_project,
    fa_check_exp_identity,
    fa_exp,
    fa_log,
)
from envalg.lie_structure import PBWPoly
from envalg.scalars import Scalar, as_scalar


def series(terms, N=4, d=2):
    return FreeSeries(d, N, terms)


X = lambda N=4: FreeSeries.letter(2, N, 0)
Y = lambda N=4: FreeSeries.letter(2, N, 1)
ONE = lambda N=4: FreeSeries.one(2, N)


class TestProduct:
    def test_telescoping(self):
        N = 2
        a = ONE(N) + X(N)
        b = ONE(N) - X(N)
        assert a * b == series({(): 1, (0, 0): -1}, N)

    def test_noncommutative_words(self):
        assert (X() * Y()).terms == {(0, 1): Scalar(1)}
        assert (Y() * X()).terms == {(1, 0): Scalar(1)}

    def test_square_expansion(self):
        s = X(2) + Y(2)
        assert s * s == series({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}, 2)

    def test_mismatch_rejected(self):
        with pytest.raises(SeriesMismatchError):
            X(3) * X(4)
        with pytest.raises(SeriesMismatchError):
            X(3) * FreeSeries.letter(3, 3, 0)


class TestExpLog:
    def test_exp_zero(self):
        assert fa_exp(FreeSeries.zero(2, 4)) == ONE()

    def test_exp_letter(self):
        expect = series(
            {(): 1, (0,): 1, (0, 0): Fraction(1, 2), (0, 0, 0): Fraction(1, 6)}, 3
        )
        assert fa_exp(X(3)) == expect

    def test_exp_sum_of_letters(self):
        # oracle: 1 + (X+Y) + (X+Y)^2/2 expanded term by term at N=2
        half = Fraction(1, 2)
        expect = series(
            {(): 1, (0,): 1, (1,): 1,
             (0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half},
            2,
        )
        assert fa_exp(X(2) + Y(2)) == expect

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ConstantTermError):
            fa_exp(ONE())

    def test_log_one(self):
        assert fa_log(ONE()) == FreeSeries.zero(2, 4)

    def test_log_exp_letter(self):
        for N in range(1, 7):
            assert fa_log(fa_exp(X(N))) == X(N)

    def test_log_series(self):
        expect = series(
            {(0,): 1, (0, 0): Fraction(-1, 2), (0, 0, 0): Fraction(1, 3)}, 3
        )
        assert fa_log(ONE(3) + X(3)) == expect

    def test_log_needs_unit_constant(self):
        with pytest.raises(ConstantTermError):
            fa_log(X())


def _substitute_y_zero(z):
    """Drop every word containing the letter Y."""
    kept = {w: c for w, c in z.terms.items() if 1 not in w}
    return FreeSeries(2, z.trunc_degree, kept)


class TestBch:
    def test_degree_one_and_two(self):
        z = fa_bch(2)
        assert z.homogeneous_part(1) == series({(0,): 1, (1,): 1}, 2)
        assert z.homogeneous_part(2) == series(
            {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}, 2
        )

    def test_substitute_y_zero(self):
        for N in (1, 3, 5):
            assert _substitute_y_zero(fa_bch(N)) == X(N)

    def test_degree_three_against_commutator_oracle(self):
        # oracle: (1/12)([X,[X,Y]] + [Y,[Y,X]]) built from raw products
        N = 3
        x, y = X(N), Y(N)

        def comm(a, b):
            return a * b - b * a

        oracle = (comm(x, comm(x, y)) + comm(y, comm(y, x))).scale(Fraction(1, 12))
        assert fa_bch(3).homogeneous_part(3) == oracle

    def test_exp_product_identity_up_to_8(self):
        z = fa_bch(6)
        x, y = X(6), Y(6)
        assert fa_exp(x) * fa_exp(y) == fa_exp(z)

    def test_bch_requires_positive_degree(self):
        with pytest.raises(ValueError):
            fa_bch(0)


class TestBidegree:
    def test_letter_count(self):
        a = series({(0, 1): 1, (0, 0): 1}, 2)
        assert fa_bidegree_project(a, 1, 1) == series({(0, 1): 1}, 2)

    def test_bch_bidegree_one_one(self):
        for N in (2, 4, 6):
            got = fa_bidegree_project(fa_bch(N), 1, 1)
            assert got == series(
                {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}, N
            )

    def test_exp_bidegree(self):
        got = fa_bidegree_project(fa_exp(X(4)), 2, 0)
        assert got == series({(0, 0): Fraction(1, 2)}, 4)

    def test_needs_two_letters(self):
        with pytest.raises(SeriesMismatchError):
            fa_bidegree_project(FreeSeries.letter(3, 2, 0), 1, 0)

    def test_decomposition_is_complete(self):
        z = fa_bch(4)
        total = FreeSeries.zero(2, 4)
        for m in range(5):
            for n in range(5 - m):
                total = total + fa_bidegree_project(z, m, n)
        assert total == z


class TestExpIdentity:
    def test_one_zero(self):
        assert fa_check_exp_identity(1, 0).ok

    def test_one_one(self):
        assert fa_check_exp_identity(1, 1).ok

    def test_two_one(self):
        # both sides must equal X^2 Y / 2 exactly
        report = fa_check_exp_identity(2, 1)
        assert report.ok
        z = fa_bch(3)
        rhs = FreeSeries.zero(2, 3)
        power = FreeSeries.one(2, 3)
        for k in range(4):
            if k:
                power = power * z
            rhs = rhs + fa_bidegree_project(power, 2, 1).scale(
                Fraction(1, [1, 1, 2, 6][k])
            )
        assert rhs == series({(0, 0, 1): Fraction(1, 2)}, 3)

    def test_all_bidegrees_up_to_six(self):
        for total in range(1, 7):
            for m in range(total + 1):
                assert fa_check_exp_identity(m, total - m).ok

    def test_memo_matches_uncached_reference(self):
        # exp(Z) and exp(X) exp(Y) rebuilt for every bidegree, with Z from
        # the exp/log definitions rather than fa_bch's cache
        for total in range(1, 8):
            x, y = X(total), Y(total)
            product = fa_exp(x) * fa_exp(y)
            exp_z = fa_exp(fa_log(fa_exp(x) * fa_exp(y)))
            for m in range(total + 1):
                n = total - m
                lhs = series({(0,) * m + (1,) * n: Fraction(1, factorial(m) * factorial(n))},
                             total)
                want = ExpIdentityReport(m, n, lhs == fa_bidegree_project(exp_z, m, n),
                                         product == exp_z)
                assert fa_check_exp_identity(m, n) == want

    def test_one_exp_law_per_total(self):
        _exp_law.cache_clear()
        for total in range(1, 6):
            for m in range(total + 1):
                fa_check_exp_identity(m, total - m)
        info = _exp_law.cache_info()
        assert (info.misses, info.hits) == (5, 15)


# -- property tests ---------------------------------------------------------

small_scalar = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


@st.composite
def small_series(draw, N=4, zero_constant=False, max_terms=4):
    terms = {}
    n_terms = draw(st.integers(0, max_terms))
    for _ in range(n_terms):
        length = draw(st.integers(1 if zero_constant else 0, N))
        word = tuple(draw(st.integers(0, 1)) for _ in range(length))
        coeff = draw(small_scalar)
        if coeff:
            terms[word] = terms.get(word, Fraction(0)) + coeff
    return FreeSeries(2, N, {w: c for w, c in terms.items() if c})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_series(), small_series(), small_series())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_series(zero_constant=True))
def test_log_exp_inverse(a):
    assert fa_log(fa_exp(a)) == a


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_series(zero_constant=True))
def test_exp_log_inverse(b):
    one_plus = FreeSeries.one(2, 4) + b
    assert fa_exp(fa_log(one_plus)) == one_plus


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_series(), st.integers(0, 4))
def test_bidegree_partition(a, seed):
    total = FreeSeries.zero(2, 4)
    for m in range(5):
        for n in range(5 - m):
            total = total + fa_bidegree_project(a, m, n)
    assert total == a


def test_results_are_reproducible():
    first = fa_bch(5)
    second = fa_log(fa_exp(X(5)) * fa_exp(Y(5)))
    assert first == second
    assert first.terms == second.terms


# -- the bucketed product against a plain pair loop -------------------------

def pair_loop_product(a, b):
    """Every pair of terms, kept when the concatenation fits the truncation."""
    out = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            if len(u) + len(v) <= a.trunc_degree:
                out[u + v] = out.get(u + v, Scalar(0)) + cu * cv
    return {w: c for w, c in out.items() if c}


# few distinct values, so coefficients of a repeated word often cancel
cancelling_scalar = st.sampled_from([
    Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1), Scalar(Fraction(1, 2)),
    Scalar(Fraction(-1, 2)), Scalar(1, 1), Scalar(-1, -1), Scalar(Fraction(2, 3), -2),
])


@st.composite
def series_pairs(draw):
    d = draw(st.integers(1, 3))
    N = draw(st.integers(0, 6))

    def one_series():
        kind = draw(st.sampled_from(["zero", "one", "terms", "terms", "terms"]))
        if kind == "zero":
            return FreeSeries.zero(d, N)
        if kind == "one":
            return FreeSeries.one(d, N)
        terms = {}
        for _ in range(draw(st.integers(0, 8))):
            length = draw(st.integers(0, N))
            word = tuple(draw(st.integers(0, d - 1)) for _ in range(length))
            terms[word] = terms.get(word, Scalar(0)) + draw(cancelling_scalar)
        return FreeSeries(d, N, terms)

    return one_series(), one_series()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_pairs())
def test_product_matches_pair_loop(pair):
    a, b = pair
    got = a * b
    assert got.terms == pair_loop_product(a, b)
    assert all(c for c in got.terms.values())
    assert all(len(w) <= a.trunc_degree for w in got.terms)
    one = FreeSeries.one(a.alphabet_size, a.trunc_degree)
    zero = FreeSeries.zero(a.alphabet_size, a.trunc_degree)
    assert a * one == a == one * a
    assert (a * zero).is_zero() and (zero * a).is_zero()


def test_product_cancels_across_splits():
    # (1 + X)(X - X^2) = X - X^3: the word XX arises from two splits and cancels
    N = 3
    got = (ONE(N) + X(N)) * (X(N) - X(N) * X(N))
    assert got.terms == {(0,): Scalar(1), (0, 0, 0): Scalar(-1)}


# Two compatible elements, one of a different algebra, and the mismatch error:
# the operations of the shared sparse-term base, per term algebra.
TERM_ALGEBRAS = {
    "free-series": (
        lambda terms: FreeSeries(2, 3, terms),
        {(): 1, (0,): 2, (0, 1): Fraction(1, 3)},
        {(0,): -2, (1,): Scalar(0, 1), (1, 1, 0): 5},
        FreeSeries(2, 4, {(0,): 1}),
        SeriesMismatchError,
    ),
    "pbw-poly": (
        lambda terms: PBWPoly(so3(), terms),
        {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 1): Fraction(1, 3)},
        {(1, 0, 0): -2, (0, 0, 1): Scalar(0, 1), (2, 1, 0): 5},
        PBWPoly(heisenberg(), {(1, 0, 0): 1}),
        SpecMismatchError,
    ),
}


def _combined(x, y, sign):
    out = {k: as_scalar(v) for k, v in x.items()}
    for k, v in y.items():
        out[k] = out.get(k, Scalar(0)) + sign * as_scalar(v)
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("kind", list(TERM_ALGEBRAS))
def test_shared_term_base(kind):
    make, ta, tb, foreign, mismatch = TERM_ALGEBRAS[kind]
    a, b = make(ta), make(tb)
    assert (a + b).terms == _combined(ta, tb, 1)
    assert (a - b).terms == _combined(ta, tb, -1)
    assert (-a).terms == _combined({}, ta, -1)
    assert (2 * a).terms == _combined(ta, ta, 1)
    assert (a * Fraction(1, 2)).terms == {k: as_scalar(v) * Fraction(1, 2) for k, v in ta.items()}
    zero = a.scale(0)
    assert zero.is_zero() and not a.is_zero()
    assert zero._params() == a._params() and zero == a - a
    # b's terms cancel back out of a fresh element, which hashes like a
    again = (a + b) - b
    assert again == a and again is not a
    assert hash(again) == hash(a) == hash(make(ta))
    assert a != b
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(mismatch):
            op(a, foreign)


def test_term_algebras_do_not_mix():
    series_ = FreeSeries(2, 3, {(0,): 1})
    poly = PBWPoly(so3(), {(1, 0, 0): 1})
    for x, y in ((series_, poly), (poly, series_)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
        with pytest.raises(TypeError):
            x * y
