"""Moment matrices, exact PSD certificates, GNS models, analytic diagnostics."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from envalg.catalog import (
    abelian,
    delta_functional,
    gaussian_functional,
    laplace_functional,
    so3,
    spin_half,
    spin_one,
    spin_three_half,
)
from envalg.errors import (
    DegreeOverflowError,
    HermitianError,
    PositivityError,
    RepresentationError,
)
from envalg.functionals import FunctionalTable, _power_values, monomials_up_to, radius_estimate
from envalg.gns import (
    MatrixRep,
    _exact_psd,
    analytic_diagnostics,
    functional_from_rep,
    gns_build,
    moment_matrix,
    orbit_gram,
    psd_check,
)
from envalg.lie_structure import GVector, PBWPoly, pbw_mul
from envalg.sampling import random_functional, random_skew_rep, random_vector
from envalg.scalars import Scalar
from rational_algebras import RATIONAL_ALGEBRAS, rational_reps


SO3 = so3()


class TestFunctionalFromRep:
    def test_unit_norm(self):
        lam = functional_from_rep(spin_half(), 4)
        assert lam.value((0, 0, 0)) == Scalar(1)

    def test_values_match_numpy_oracle(self):
        # independent float oracle: dense complex matrices and vdot
        rep = spin_half()
        lam = functional_from_rep(rep, 4)
        gens = [rep.generator_array(i) for i in range(3)]
        v = rep.cyclic_array()
        for alpha in monomials_up_to(3, 4):
            mat = np.eye(2, dtype=complex)
            for i, a in enumerate(alpha):
                for _ in range(a):
                    mat = mat @ gens[i]
            expect = complex(np.vdot(v, mat @ v))
            assert abs(lam.value(alpha).to_complex() - expect) < 1e-12

    def test_spin_half_table_entries(self):
        lam = functional_from_rep(spin_half(), 2)
        assert lam.value((0, 0, 1)) == Scalar(0, Fraction(-1, 2))
        assert lam.value((0, 0, 2)) == Scalar(Fraction(-1, 4))

    def test_homomorphism_violation_rejected(self):
        bad = MatrixRep(
            SO3,
            2,
            [
                [[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]],
                [[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)]],
                [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(1)]],
            ],
            [Scalar(1), Scalar(0)],
            skew_hermitian=False,
        )
        with pytest.raises(RepresentationError, match=r"\(0,1\)|\(0, 1\)"):
            functional_from_rep(bad, 2)

    def test_float_violation_names_worst_pair(self):
        rng = np.random.default_rng(3)
        gens = [rng.normal(size=(2, 2)) + 0j for _ in range(3)]
        bad = MatrixRep(SO3, 2, gens, np.array([1.0, 0.0]),
                        skew_hermitian=False, exact=False)
        with pytest.raises(RepresentationError, match=r"pair \(\d, \d\).*residual"):
            bad.validate()


class TestMomentMatrix:
    def test_degree_zero(self):
        lam = functional_from_rep(spin_half(), 2)
        M = moment_matrix(lam, 0)
        assert M.size == 1
        assert M.rows[0][0] == Scalar(1)

    def test_gaussian_hankel_with_signs(self):
        # oracle: M[m][n] = (-1)^m lam(x^(m+n)) with lam(x^(2k)) = (-1)^k (2k-1)!!
        M = moment_matrix(gaussian_functional(8), 2)
        expect = [[1, 0, -1], [0, 1, 0], [-1, 0, 3]]
        assert [[c.re for c in row] for row in M.rows] == [
            [Fraction(v) for v in row] for row in expect
        ]
        assert M.hermitian

    def test_spin_half_generator_entry(self):
        lam = functional_from_rep(spin_half(), 2)
        M = moment_matrix(lam, 1)
        idx = M.monomials.index((1, 0, 0))
        assert M.rows[idx][idx] == Scalar(Fraction(1, 4))

    def test_insufficient_degree(self):
        lam = functional_from_rep(spin_half(), 3)
        with pytest.raises(DegreeOverflowError):
            moment_matrix(lam, 2)


def _float_moments(values):
    """The float moment matrix at degree 1 of a degree-2 table on the line."""
    return moment_matrix(FunctionalTable(abelian(1), 2, values, exact=False), 1)


class TestPsdCheck:
    def test_identity(self):
        # lam(x* x) = -lam(x^2) = 1: the moment matrix is the 2 x 2 identity
        M = _float_moments({(0,): 1, (2,): -1})
        assert np.array_equal(M.to_array(), np.eye(2))
        report = psd_check(M)
        assert report.ok and not report.exact

    def test_small_negative_direction(self):
        M = _float_moments({(0,): 1, (2,): 1e-3})  # diag(1, -1e-3)
        report = psd_check(M, tol=1e-10)
        assert not report.ok
        w = np.array(report.witness)
        assert abs(abs(w[1]) - 1.0) < 1e-9 and abs(w[0]) < 1e-9
        assert report.min_eigenvalue < -1e-4

    def test_gaussian_hankel_psd_all_sizes(self):
        lam = gaussian_functional(12)
        for d in range(0, 6):
            M = moment_matrix(lam, d)
            exact = psd_check(M)
            assert exact.ok and all(p >= 0 for p in exact.pivots)
            vals = np.linalg.eigvalsh(M.to_array())
            assert vals[0] >= -1e-9

    def test_exact_witness_certifies_negativity(self):
        # indefinite exact matrix: witness must give a negative quadratic form
        rows = (
            (Scalar(1), Scalar(2)),
            (Scalar(2), Scalar(1)),
        )
        from envalg.gns import _exact_psd

        ok, rank, pivots, witness, value = _exact_psd(rows)
        assert not ok
        quad = Scalar(0)
        for a, ca in enumerate(witness):
            for b, cb in enumerate(witness):
                quad = quad + ca.conjugate() * rows[a][b] * cb
        assert quad.re < 0
        assert quad == value

    def test_zero_diagonal_indefinite(self):
        rows = (
            (Scalar(0), Scalar(0, 1)),
            (Scalar(0, -1), Scalar(0)),
        )
        from envalg.gns import _exact_psd

        ok, rank, pivots, witness, value = _exact_psd(rows)
        assert not ok
        quad = Scalar(0)
        for a, ca in enumerate(witness):
            for b, cb in enumerate(witness):
                quad = quad + ca.conjugate() * rows[a][b] * cb
        assert quad.re < 0

    def test_non_hermitian_rejected(self):
        # M[0][1] = lam(x) = 1 but M[1][0] = lam(x*) = -1
        M = _float_moments({(0,): 1, (1,): 1, (2,): -1})
        assert not M.hermitian
        with pytest.raises(HermitianError):
            psd_check(M)


def _sym(c):
    """A Scalar as an exact sympy number."""
    re, im = c.re, c.im
    return sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
        im.numerator, im.denominator
    )


def _sympy_psd(M):
    """A hermitian M is PSD iff every principal minor is >= 0."""
    for size in range(1, M.rows + 1):
        for idx in itertools.combinations(range(M.rows), size):
            minor = sympy.expand(M.extract(list(idx), list(idx)).det())
            assert sympy.im(minor) == 0
            if minor < 0:
                return False
    return True


def _gram(rng, k, n):
    """``B^* B`` for a random k x n Gaussian-rational B: PSD of rank <= k."""
    B = [[Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
          for _ in range(n)] for _ in range(k)]
    return [[sum((B[r][i].conjugate() * B[r][j] for r in range(k)), Scalar(0))
             for j in range(n)] for i in range(n)]


def _permuted(rng, M):
    order = list(range(len(M)))
    rng.shuffle(order)
    return tuple(tuple(M[i][j] for j in order) for i in order)


class TestExactPsdSympyOracle:
    """``_exact_psd`` against sympy's exact rank and semidefiniteness."""

    def check(self, rows):
        ok, rank, pivots, witness, value = _exact_psd(rows)
        M = sympy.Matrix([[_sym(c) for c in row] for row in rows])
        assert M.is_hermitian
        assert ok == _sympy_psd(M)
        assert all(p > 0 for p in pivots)
        if ok:
            assert rank == M.rank()
            assert witness is None and value is None
            return "pass"
        u = sympy.Matrix([_sym(c) for c in witness])
        quad = sympy.expand((u.H * M * u)[0])
        assert quad == _sym(value)
        assert value.is_real() and value.re < 0
        return "fail"

    def test_random_psd_matrices(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = _permuted(rng, _gram(rng, rng.randint(0, n), n))
            assert self.check(rows) == "pass"

    def test_negative_pivot_branch(self):
        rng = random.Random(12)
        # B^*B minus a large multiple of one diagonal unit: a negative pivot
        # at the first step
        for _ in range(15):
            n = rng.randint(1, 5)
            M = _gram(rng, rng.randint(1, n), n)
            k = rng.randrange(n)
            M[k][k] = M[k][k] - 100
            assert self.check(_permuted(rng, M)) == "fail"
        # one diagonal entry of a full-rank B^*B scaled down: every diagonal
        # entry stays positive, so a negative pivot can only show up after
        # eliminations, and its witness is lifted through them
        verdicts = []
        for _ in range(30):
            n = rng.randint(2, 5)
            M = _gram(rng, n, n)
            k = rng.randrange(n)
            M[k][k] = M[k][k] * Fraction(rng.randint(1, 3), 4)
            verdicts.append(self.check(_permuted(rng, M)))
        assert verdicts.count("fail") >= 20
        assert self.check(((Scalar(1), Scalar(2)), (Scalar(2), Scalar(1)))) == "fail"

    def test_zero_diagonal_branch(self):
        # a PSD block beside a hermitian block with zero diagonal: every pivot
        # is positive, then the remaining diagonal is all zero
        rng = random.Random(13)
        for _ in range(25):
            k = rng.randint(0, 3)
            m = rng.randint(2, 3)
            P = _gram(rng, rng.randint(1, 3), k)
            H = [[Scalar(0)] * m for _ in range(m)]
            i, j = rng.sample(range(m), 2)
            H[i][j] = Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 4)), rng.randint(-2, 2))
            H[j][i] = H[i][j].conjugate()
            zero = Scalar(0)
            M = [P[r] + [zero] * m for r in range(k)] + [[zero] * k + H[r] for r in range(m)]
            assert self.check(_permuted(rng, M)) == "fail"
        # the zero diagonal appears only after eliminating the first pivot
        rows = tuple(tuple(Scalar(c) for c in row) for row in ((1, 1, 1), (1, 1, 2), (1, 2, 1)))
        assert self.check(rows) == "fail"


class TestGnsBuild:
    def test_delta_functional_rank_one(self):
        lam = delta_functional(abelian(1), 4)
        model = gns_build(lam, 2)
        assert model.quotient_rank == 1
        # the only class is [1]; multiplication by x kills it
        op = model.operator(GVector(abelian(1), [Scalar(1)]))
        assert np.allclose(op, 0)

    def test_spin_half_rank_two(self):
        lam = functional_from_rep(spin_half(), 4)
        model = gns_build(lam, 2)
        assert model.quotient_rank == 2
        assert model.skew_exact

    def test_gram_equals_orbit_gram(self):
        rep = spin_half()
        lam = functional_from_rep(rep, 4)
        model = gns_build(lam, 2)
        assert orbit_gram(rep, 2) == model.gram.rows

    @pytest.mark.parametrize(
        "factory,two_j", [(spin_half, 1), (spin_one, 2), (spin_three_half, 3)]
    )
    def test_spin_j_fidelity(self, factory, two_j):
        rep = factory()
        d_max = two_j
        lam = functional_from_rep(rep, 2 * d_max)
        model = gns_build(lam, d_max)
        assert model.quotient_rank == two_j + 1
        assert model.skew_exact
        assert orbit_gram(rep, d_max) == model.gram.rows

    def test_rejects_non_positive(self):
        vals = {(0,): Scalar(1), (2,): Scalar(1)}  # lam(x*x) = -lam(x^2) = -1
        lam = FunctionalTable(abelian(1), 4, vals)
        with pytest.raises(PositivityError):
            gns_build(lam, 1)

    def test_monomial_order_covariance(self):
        # reversing the processed monomial order permutes the Gram matrix
        lam = functional_from_rep(spin_half(), 4)
        M = moment_matrix(lam, 2)
        n = M.size
        perm = list(reversed(range(n)))
        permuted = [[M.rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        direct = [[M.rows[i][j] for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert permuted[i][j] == direct[perm[i]][perm[j]]

    @pytest.mark.parametrize(
        "factory,d_max", [(spin_half, 1), (spin_one, 2), (spin_three_half, 3)]
    )
    def test_float_path_matches_exact(self, factory, d_max):
        # the same rep on complex entries must give the same GNS model
        exact_rep = factory()
        float_rep = MatrixRep(
            exact_rep.spec, exact_rep.dim_V,
            [exact_rep.generator_array(i) for i in range(exact_rep.spec.dim)],
            exact_rep.cyclic_array(), skew_hermitian=True, exact=False,
        )
        models = []
        for rep in (exact_rep, float_rep):
            lam = functional_from_rep(rep, 2 * d_max)
            assert psd_check(moment_matrix(lam, d_max), tol=1e-9).ok
            models.append(gns_build(lam, d_max))
        ex, fl = models
        assert ex.exact and not fl.exact
        assert (fl.quotient_rank, fl.sub_rank, fl.pivot_monomials) == (
            ex.quotient_rank, ex.sub_rank, ex.pivot_monomials
        )
        assert np.max(np.abs(fl.gram.to_array() - ex.gram.to_array())) <= 1e-9
        assert len(fl.op_matrices) == len(ex.op_matrices)
        for a, b in zip(fl.op_matrices, ex.op_matrices):
            assert np.max(np.abs(a - b)) <= 1e-9
        assert np.max(np.abs(fl.vacuum - ex.vacuum)) <= 1e-9
        assert fl.skew_exact

    def test_float_path(self):
        rep = random_skew_rep(3, seed=5)
        lam = functional_from_rep(rep, 4)
        model = gns_build(lam, 2)
        assert model.quotient_rank >= 1
        assert model.skew_residual <= 1e-12

    def test_degree_zero_model(self):
        lam = functional_from_rep(spin_half(), 2)
        model = gns_build(lam, 0)
        assert model.quotient_rank == 1
        assert model.op_matrices is None
        with pytest.raises(ValueError):
            model.operator(SO3.basis_vector(0))


class TestAnalyticDiagnostics:
    def test_positive_squares_for_rep_functionals(self):
        rng = random.Random(0)
        for factory in (spin_half, spin_one):
            lam = functional_from_rep(factory(), 8)
            for _ in range(5):
                x = random_vector(SO3, rng, span=3, denominator=3)
                report = analytic_diagnostics(lam, x, 4)
                assert report.positive_so_far
                assert all(q >= 0 for q in report.s_squared)

    def test_spin_half_halving(self):
        lam = functional_from_rep(spin_half(), 8)
        report = analytic_diagnostics(lam, SO3.basis_vector(2), 4)
        assert list(report.s_squared) == [Fraction(1, 4 ** n) for n in range(5)]
        assert report.s_values == tuple(2.0 ** (-n) for n in range(5))

    def test_partial_sums_approach_character(self):
        import cmath

        lam = functional_from_rep(spin_half(), 16)
        report = analytic_diagnostics(lam, SO3.basis_vector(2), 8)
        assert abs(report.partial_sums_exp[-1] - cmath.exp(-0.5j)) < 1e-9

    def test_non_positive_witness(self):
        vals = {(0,): Scalar(1), (2,): Scalar(1)}
        lam = FunctionalTable(abelian(1), 6, vals)
        report = analytic_diagnostics(lam, GVector(abelian(1), [Scalar(1)]), 2)
        assert not report.positive_so_far
        assert report.negative_witness == 1

    def test_laplace_factor_two(self):
        # s_n = sqrt((2n)!): the ratio of consecutive root-test terms is
        # sqrt((2n+2)(2n+1))/(n+1) -> 2, so the vector estimate approaches
        # half the functional radius estimate (which is exactly 1)
        lam = laplace_functional(40)
        est = radius_estimate(lam)
        assert est.equals_rational(1)
        report = analytic_diagnostics(lam, abelian(1).basis_vector(0), 20)
        assert abs(report.vector_radius_estimate - 0.5) < 0.05
        from math import sqrt

        ratio = sqrt((2 * 20 + 2) * (2 * 20 + 1)) / 21
        assert abs(ratio - 2.0) < 0.05

    def test_degree_guard(self):
        lam = functional_from_rep(spin_half(), 4)
        with pytest.raises(DegreeOverflowError):
            analytic_diagnostics(lam, SO3.basis_vector(0), 3)


class TestGradedDenominators:
    """Algebras with non-integer structure constants through the exact kernels."""

    @pytest.mark.parametrize("name", sorted(n for n in rational_reps() if n.startswith("spin")))
    def test_moment_matrix_equals_orbit_gram(self, name):
        rep = rational_reps()[name]
        lam = functional_from_rep(rep, 4)
        M = moment_matrix(lam, 2)
        assert M.hermitian and psd_check(M).ok
        assert orbit_gram(rep, 2) == M.rows
        assert gns_build(lam, 2).gram.rows == M.rows

    def test_rep_values_match_numpy_oracle(self):
        rep = rational_reps()["spin-three-half-sixth"]
        lam = functional_from_rep(rep, 4)
        gens = [rep.generator_array(i) for i in range(3)]
        v = rep.cyclic_array()
        for alpha in monomials_up_to(3, 4):
            mat = np.eye(rep.dim_V, dtype=complex)
            for i, a in enumerate(alpha):
                for _ in range(a):
                    mat = mat @ gens[i]
            assert abs(lam.value(alpha).to_complex() - complex(np.vdot(v, mat @ v))) < 1e-12

    @pytest.mark.parametrize("name", sorted(RATIONAL_ALGEBRAS))
    def test_power_values_match_pbw_powers(self, name):
        spec = RATIONAL_ALGEBRAS[name]
        lam = random_functional(spec, 6, random.Random(40))
        x = GVector(spec, [Scalar(Fraction(1, 2), Fraction(-1, 3)), Scalar(Fraction(2, 5)),
                           Scalar(0, Fraction(3, 7))])
        xpoly = PBWPoly.from_gvector(x)
        powers = [PBWPoly.one(spec)]
        for _ in range(6):
            powers.append(pbw_mul(powers[-1], xpoly))
        assert _power_values(lam, x, 6) == [lam.eval(p) for p in powers]
