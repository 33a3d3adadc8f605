"""PBW normal forms, brackets, seminorms and in-algebra BCH, all exact."""

import itertools
import random
import zlib
from fractions import Fraction

import numpy as np
import pytest

from envalg.catalog import abelian, affine_line, heisenberg, shipped_algebras, so3, spin_half
from envalg import lie_structure
from envalg.errors import SpecMismatchError
from envalg.free_algebra import fa_bch
from envalg.cli import default_config_path, parse_config
from envalg.functionals import _symmetric_sums, monomials_up_to
from envalg.lie_structure import (
    GVector,
    LieAlgebraSpec,
    PBWPoly,
    _bch_terms,
    bch_in_g,
    bracket,
    jacobi_validate,
    pbw_mul,
    pbw_reduce,
    star,
    submult_check,
)
from envalg.sampling import random_vector, random_word
from envalg.scalars import Scalar
from rational_algebras import RATIONAL_ALGEBRAS


HEIS = heisenberg()
SO3 = so3()


def algebras():
    """The shipped algebras (fresh) and the rescaled ones with non-integer constants."""
    return {**shipped_algebras(), **RATIONAL_ALGEBRAS}


def vec(spec, *coeffs):
    return GVector(spec, [Scalar(Fraction(c)) for c in coeffs])


def exact_matrix_of(rep, x):
    """``R(x) = sum_i x_i R(e_i)`` with exact entries."""
    terms = [(c, gen) for c, gen in zip(x.coeffs, rep.generators) if c]
    return tuple(
        tuple(sum((c * gen[r][s] for c, gen in terms), Scalar(0)) for s in range(rep.dim_V))
        for r in range(rep.dim_V)
    )


def test_twin_specs_hash_equal_elements_alike():
    # equality compares specs by value, so hashing must not see their identity
    a, b = so3(), so3()
    assert a is not b
    for x, y in ((a.basis_vector(0), b.basis_vector(0)),
                 (pbw_reduce(a, (1, 0)), pbw_reduce(b, (1, 0)))):
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1


class TestJacobi:
    def test_heisenberg(self):
        assert jacobi_validate(HEIS).ok

    def test_so3(self):
        assert jacobi_validate(SO3).ok

    def test_violation_is_located(self):
        # [e1,e2]=e3, [e1,e3]=e1 and [e2,e3]=0 break the Jacobi identity:
        # the cyclic sum at (e1,e2,e3) equals [e2,-e1] = e3 != 0
        bad = LieAlgebraSpec(
            3, ["a", "b", "c"], {(0, 1): {2: 1}, (0, 2): {0: 1}}, [1, 1, 1]
        )
        report = jacobi_validate(bad)
        assert not report.ok
        assert report.witness == (0, 1, 2)


class TestBracket:
    def test_so3_table(self):
        assert bracket(SO3.basis_vector(0), SO3.basis_vector(1)) == SO3.basis_vector(2)

    def test_bilinear(self):
        two_e1 = SO3.basis_vector(0).scale(2)
        assert bracket(two_e1, SO3.basis_vector(1)) == SO3.basis_vector(2).scale(2)

    def test_alternating(self):
        rng = random.Random(1)
        for _ in range(20):
            x = random_vector(SO3, rng)
            assert bracket(x, x).is_zero()

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatchError):
            bracket(HEIS.basis_vector(0), SO3.basis_vector(0))


class TestSubmultiplicativity:
    def test_heisenberg_unit_weights(self):
        assert submult_check(HEIS).ok

    def test_so3_all_pairs(self):
        assert submult_check(SO3).ok

    def test_heavy_center_fails(self):
        report = submult_check(heisenberg(weights=(1, 1, 3)))
        assert not report.ok
        assert report.witness == (0, 1)
        assert report.lhs == Fraction(3) and report.rhs == Fraction(1)

    def test_seminorm_submultiplicative_on_random_vectors(self):
        rng = random.Random(7)
        for spec in (HEIS, SO3, affine_line()):
            assert submult_check(spec).ok
            for _ in range(1000):
                x = random_vector(spec, rng, span=5, denominator=5)
                y = random_vector(spec, rng, span=5, denominator=5)
                assert bracket(x, y).seminorm() <= x.seminorm() * y.seminorm()


def brute_force_reduce(spec, word):
    """Textbook rewriting oracle: repeatedly fix the first inversion.

    Keeps polynomials as word->Fraction-pair dicts and rewrites
    ``.. x_j x_i ..`` into ``.. x_i x_j .. + .. [x_j, x_i] ..`` until every
    word is nondecreasing.  Independent of the engine's recursion scheme.
    """
    poly = {tuple(word): Scalar(1)}
    while True:
        target = None
        for w in poly:
            for pos in range(len(w) - 1):
                if w[pos] > w[pos + 1]:
                    target = (w, pos)
                    break
            if target:
                break
        if target is None:
            break
        w, pos = target
        coeff = poly.pop(w)
        swapped = w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2:]
        poly[swapped] = poly.get(swapped, Scalar(0)) + coeff
        if not poly[swapped]:
            del poly[swapped]
        for k, c in spec.bracket_of(w[pos], w[pos + 1]).items():
            short = w[:pos] + (k,) + w[pos + 2:]
            poly[short] = poly.get(short, Scalar(0)) + coeff * c
            if not poly[short]:
                del poly[short]
    out = {}
    for w, c in poly.items():
        alpha = [0] * spec.dim
        for l in w:
            alpha[l] += 1
        key = tuple(alpha)
        out[key] = out.get(key, Scalar(0)) + c
    return {k: v for k, v in out.items() if v}


class TestPbwReduce:
    def test_abelian_sorts(self):
        ab = abelian(2)
        assert pbw_reduce(ab, (1, 0)) == PBWPoly(ab, {(1, 1): 1})

    def test_heisenberg_single_swap(self):
        assert pbw_reduce(HEIS, (1, 0)) == PBWPoly(HEIS, {(1, 1, 0): 1, (0, 0, 1): -1})

    def test_heisenberg_double_swap(self):
        expect = PBWPoly(HEIS, {(2, 1, 0): 1, (1, 0, 1): -2})
        assert pbw_reduce(HEIS, (1, 0, 0)) == expect

    @pytest.mark.parametrize("name", sorted(algebras()))
    def test_matches_brute_force_oracle(self, name):
        spec = algebras()[name]
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(40):
            word = random_word(spec, rng, max_length=5)
            assert pbw_reduce(spec, word).terms == brute_force_reduce(spec, word)
        for length in range(5):
            for word in itertools.product(range(spec.dim), repeat=length):
                assert pbw_reduce(spec, word).terms == brute_force_reduce(spec, word)


class TestGradedIntCache:
    """The normal-form memo holds ints over powers of the spec's ``delta``."""

    def test_delta_is_the_lcm_of_the_constant_denominators(self):
        assert SO3.delta == HEIS.delta == 1
        assert [RATIONAL_ALGEBRAS[n].delta for n in ("so3-half", "so3-sixth", "heisenberg-3/5")] \
            == [2, 6, 5]

    @staticmethod
    def _graded_scalars(spec, table, top):
        """A graded int table at grade ``top`` as ``{b: Scalar}``."""
        return {b: Scalar(Fraction(n, spec.delta ** (top - sum(b)))) for b, n in table.items()}

    def _assert_right_cache_is_the_word_route(self, spec):
        assert spec._right_cache
        for (alpha, letter), table in spec._right_cache.items():
            assert all(type(n) is int and n for n in table.values())
            word = [i for i, a in enumerate(alpha) for _ in range(a)] + [letter]
            assert self._graded_scalars(spec, table, sum(alpha) + 1) \
                == brute_force_reduce(spec, word)

    @pytest.mark.parametrize("name", sorted(algebras()))
    def test_cached_entries_are_graded_ints(self, name):
        spec = algebras()[name]
        for word in itertools.product(range(spec.dim), repeat=4):
            pbw_reduce(spec, word)
        self._assert_right_cache_is_the_word_route(spec)

    def test_a_cancelled_term_is_dropped_not_stored(self):
        # x3**2 x1 = x1 x3**2 + 2 x2 x3 - x1, so the x1 of -x1 - x3**2 cancels
        out = lie_structure._poly_right_letter(so3(), {(0, 0, 0): -1, (0, 0, 2): -1}, 0)
        assert out == {(1, 0, 2): -1, (0, 1, 1): -2}
        assert (1, 0, 0) not in out

    @pytest.mark.parametrize("name", ["so3", "so3-sixth", "heisenberg-3/5", "su2-config"])
    def test_filled_caches_hold_nonzero_ints_of_the_word_route(self, name):
        if name == "so3":
            spec = so3()
        elif name == "su2-config":
            spec = parse_config(default_config_path().read_text(encoding="utf-8")).algebra
        else:
            spec = RATIONAL_ALGEBRAS[name]
        sums = _symmetric_sums(spec, 7)
        self._assert_right_cache_is_the_word_route(spec)
        for n, layer in enumerate(sums):
            words = {}
            for word in itertools.product(range(spec.dim), repeat=n):
                alpha = tuple(word.count(l) for l in range(spec.dim))
                words[alpha] = words.get(alpha, PBWPoly.zero(spec)) + pbw_reduce(spec, word)
            assert set(layer) == set(words)
            for alpha, table in layer.items():
                assert all(type(c) is int and c for c in table.values())
                assert self._graded_scalars(spec, table, n) == words[alpha].terms


class TestPbwMul:
    def test_ordered_product(self):
        p, q = PBWPoly.generator(HEIS, 0), PBWPoly.generator(HEIS, 1)
        assert pbw_mul(p, q) == PBWPoly(HEIS, {(1, 1, 0): 1})

    def test_unordered_product(self):
        p, q = PBWPoly.generator(HEIS, 0), PBWPoly.generator(HEIS, 1)
        assert pbw_mul(q, p) == PBWPoly(HEIS, {(1, 1, 0): 1, (0, 0, 1): -1})

    def test_so3_product(self):
        e1, e2 = PBWPoly.generator(SO3, 0), PBWPoly.generator(SO3, 1)
        assert pbw_mul(e2, e1) == PBWPoly(SO3, {(1, 1, 0): 1, (0, 0, 1): -1})

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatchError):
            pbw_mul(PBWPoly.generator(HEIS, 0), PBWPoly.generator(SO3, 0))

    @pytest.mark.parametrize("name", sorted(algebras()))
    def test_confluence(self, name):
        spec = algebras()[name]
        rng = random.Random(1 + zlib.crc32(name.encode()))
        for _ in range(60):
            w1 = random_word(spec, rng, max_length=5)
            w2 = random_word(spec, rng, max_length=5)
            direct = pbw_reduce(spec, w1 + w2)
            split = pbw_mul(pbw_reduce(spec, w1), pbw_reduce(spec, w2))
            assert direct == split

    def test_degree_bound(self):
        rng = random.Random(3)
        for _ in range(25):
            a = pbw_reduce(SO3, random_word(SO3, rng, max_length=4))
            b = pbw_reduce(SO3, random_word(SO3, rng, max_length=4))
            if a.is_zero() or b.is_zero():
                continue
            assert pbw_mul(a, b).degree() <= a.degree() + b.degree()


class TestStar:
    def test_generator_sign(self):
        for i in range(3):
            gen = PBWPoly.generator(SO3, i)
            assert star(gen) == gen.scale(-1)

    def test_antilinear_on_constants(self):
        i_unit = PBWPoly.one(HEIS).scale(Scalar(0, 1))
        assert star(i_unit) == PBWPoly.one(HEIS).scale(Scalar(0, -1))

    def test_product_reversal(self):
        p, q = PBWPoly.generator(HEIS, 0), PBWPoly.generator(HEIS, 1)
        # (pq)^* = (-q)(-p) = qp = pq - z
        assert star(pbw_mul(p, q)) == PBWPoly(HEIS, {(1, 1, 0): 1, (0, 0, 1): -1})

    @pytest.mark.parametrize("name", sorted(algebras()))
    def test_matches_brute_force_oracle(self, name):
        # (x^alpha)^* = (-1)^|alpha| times the normal form of the reversed word
        spec = algebras()[name]
        for alpha in monomials_up_to(spec.dim, 4):
            word = [i for i, a in enumerate(alpha) for _ in range(a)]
            sign = -1 if sum(alpha) % 2 else 1
            expect = {k: c * sign for k, c in brute_force_reduce(spec, word[::-1]).items()}
            assert star(PBWPoly.monomial(spec, alpha)).terms == expect

    def _random_poly(self, spec, rng, max_deg=4):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            word = random_word(spec, rng, max_length=max_deg)
            alpha = [0] * spec.dim
            for l in word:
                alpha[l] += 1
            coeff = Scalar(
                Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
            )
            terms[tuple(alpha)] = coeff
        return PBWPoly(spec, terms)

    def test_involution_and_antiautomorphism(self):
        rng = random.Random(11)
        for spec in (HEIS, SO3, *RATIONAL_ALGEBRAS.values()):
            for _ in range(30):
                a = self._random_poly(spec, rng)
                b = self._random_poly(spec, rng)
                assert star(star(a)) == a
                assert star(pbw_mul(a, b)) == pbw_mul(star(b), star(a))


def _bch_parts_by_words(x, y, N):
    """The homogeneous parts of ``x * y`` from the words of the free BCH series.

    Each word of length l is sent to ``1/l`` times its right-normed bracketing
    ``[w_1, [w_2, [..., w_l]..]]`` with x and y for the letters (Dynkin's
    map), which walks about ``2**N`` words.
    """
    spec = x.spec
    parts = [GVector(spec, (Scalar(0),) * spec.dim) for _ in range(N)]
    for word, coeff in fa_bch(N).terms.items():
        if not word:
            continue
        vecs = [x if letter == 0 else y for letter in word]
        cur = vecs[-1]
        for v in reversed(vecs[:-1]):
            cur = bracket(v, cur)
        parts[len(word) - 1] = parts[len(word) - 1] + cur.scale(coeff * Fraction(1, len(word)))
    return parts


def _radius_readings(spec, N, degrees):
    """``||Z_n||_1 ** (-1/n)`` of ``e_1 * e_2`` for n in ``degrees``."""
    terms = _bch_terms(spec.basis_vector(0), spec.basis_vector(1), N)
    return [float(terms[n - 1].seminorm()) ** (-1 / n) for n in degrees]


class TestBchInG:
    @pytest.mark.parametrize("name", list(algebras()))
    def test_recursion_equals_the_word_route(self, name):
        spec = algebras()[name]
        rng = random.Random(17)
        x = random_vector(spec, rng, span=3, denominator=3)
        y = random_vector(spec, rng, span=3, denominator=3)
        parts = _bch_parts_by_words(x, y, 9)
        assert _bch_terms(x, y, 9) == parts
        for N in range(1, 10):
            assert bch_in_g(x, y, N) == sum(parts[1:N], parts[0])

    def test_bracket_count_is_cubic(self, monkeypatch):
        calls = []
        monkeypatch.setattr(lie_structure, "bracket", lambda a, b: calls.append(1) or bracket(a, b))
        bch_in_g(SO3.basis_vector(0), SO3.basis_vector(1), 12)
        # the word route brackets 51,466 times at N = 12
        assert 0 < len(calls) <= 12 ** 3

    def test_so3_radius(self):
        # the scalar part cos(t/2)**2 of exp(t e1) exp(t e2) in SU(2) reaches -1
        # at |t| = |pi - 2i asinh 1| = 3.6023; the readings scatter about it
        # (n = 29 reads 3.4995)
        readings = _radius_readings(SO3, 40, range(29, 41))
        assert all(3.49 <= r <= 3.66 for r in readings)

    def test_affine_line_radius(self):
        # log [[e^t, t e^t], [0, 1]] has off-diagonal t**2 e^t / (e^t - 1): radius 2 pi
        readings = _radius_readings(affine_line(), 39, range(31, 40, 2))
        assert all(a < b for a, b in zip(readings, readings[1:]))
        assert 5.79 <= readings[0] and readings[-1] <= 5.89 < 2 * np.pi

    def test_heisenberg_series_stops_at_degree_two(self):
        terms = _bch_terms(HEIS.basis_vector(0), HEIS.basis_vector(1), 10)
        assert [z.is_zero() for z in terms] == [False, False] + [True] * 8

    def test_inverse_pair(self):
        rng = random.Random(5)
        for _ in range(10):
            x = random_vector(SO3, rng)
            assert bch_in_g(x, x.scale(-1), 5).is_zero()

    def test_heisenberg_closed_form(self):
        p, q = HEIS.basis_vector(0), HEIS.basis_vector(1)
        expect = vec(HEIS, 1, 1, Fraction(1, 2))
        for N in (2, 3, 5):
            assert bch_in_g(p, q, N) == expect

    def test_free_substitution_agrees_with_dynkin_route(self):
        # substitute words of the free BCH series by exact matrix products and
        # compare with the image of bch_in_g: both must give the same matrix
        # exactly, because the series is a Lie element
        rep = spin_half()
        rng = random.Random(9)
        x = random_vector(SO3, rng, span=3, denominator=3)
        y = random_vector(SO3, rng, span=3, denominator=3)
        N = 4
        series = fa_bch(N)
        mx = exact_matrix_of(rep, x)
        my = exact_matrix_of(rep, y)

        def mat_mul(a, b):
            return tuple(
                tuple(
                    sum((a[i][k] * b[k][j] for k in range(2)), Scalar(0))
                    for j in range(2)
                )
                for i in range(2)
            )

        acc = [[Scalar(0)] * 2 for _ in range(2)]
        for word, coeff in series.terms.items():
            cur = ((Scalar(1), Scalar(0)), (Scalar(0), Scalar(1)))
            for letter in word:
                cur = mat_mul(cur, mx if letter == 0 else my)
            for i in range(2):
                for j in range(2):
                    acc[i][j] = acc[i][j] + coeff * cur[i][j]
        direct = exact_matrix_of(rep, bch_in_g(x, y, N))
        assert [list(r) for r in direct] == [list(r) for r in acc]

    def test_so3_matrix_exponential_order(self):
        # exp(R(x*y)) must match exp(R(x))exp(R(y)) to order N+1 in the scale
        import scipy.linalg

        rep = spin_half()
        x = vec(SO3, Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5))
        y = vec(SO3, Fraction(1, 6), Fraction(1, 2), Fraction(-1, 7))
        errs = []
        scales = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
        for s in scales:
            xs, ys = x.scale(Scalar(s)), y.scale(Scalar(s))
            lhs = scipy.linalg.expm(rep.matrix_of(xs)) @ scipy.linalg.expm(
                rep.matrix_of(ys)
            )
            rhs = scipy.linalg.expm(rep.matrix_of(bch_in_g(xs, ys, 6)))
            errs.append(np.linalg.norm(lhs - rhs))
        # order 7 defect: halving the scale divides the error by ~128
        assert errs[1] < errs[0] / 64
        assert errs[2] < errs[1] / 64
