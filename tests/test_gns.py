"""Moment matrices, exact PSD certificates, GNS models, analytic diagnostics."""

import dataclasses
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
    heisenberg_rep,
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
from envalg.functionals import (
    FunctionalTable,
    monomials_up_to,
    radius_estimate,
    regular_act,
)
from envalg.gns import (
    GnsModel,
    MatrixRep,
    _dyadic,
    _exact_psd,
    _Ldl,
    analytic_diagnostics,
    functional_from_rep,
    gns_build,
    moment_matrix,
    orbit_gram,
    psd_check,
)
from envalg.lie_structure import GVector, PBWPoly, _word_of_alpha, pbw_mul, pbw_reduce
from envalg.sampling import random_functional, random_skew_rep, random_vector
from envalg.scalars import Scalar, fraction_root_float
from rational_algebras import RATIONAL_ALGEBRAS, rational_reps


SO3 = so3()


@pytest.mark.parametrize("z", [0.1 + 0j, complex(-0.0, 1 / 3), complex(5e-324, -1e308),
                               0.5 - 0.25j])
def test_dyadic_reads_binary64_exactly(z):
    s = _dyadic(z)
    assert (s.re, s.im) == (Fraction(z.real), Fraction(z.imag))
    assert s.to_complex() == z
    assert _dyadic(s) is s


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


def _line_moments(values):
    """The moment matrix at degree 1 of a degree-2 table on the line."""
    table = {alpha: Scalar(Fraction(v)) for alpha, v in values.items()}
    return moment_matrix(FunctionalTable(abelian(1), 2, table), 1)


class TestPsdCheck:
    def test_identity(self):
        # lam(x* x) = -lam(x^2) = 1: the moment matrix is the 2 x 2 identity
        M = _line_moments({(0,): 1, (2,): -1})
        assert np.array_equal(M.to_array(), np.eye(2))
        report = psd_check(M)
        assert report.ok and report.rank == 2 and report.pivots == (1, 1)
        assert report.witness is None

    def test_small_negative_direction(self):
        M = _line_moments({(0,): 1, (2,): Fraction(1, 1000)})  # diag(1, -1/1000)
        report = psd_check(M)
        assert not report.ok
        assert report.witness == (Scalar(0), Scalar(1))
        assert report.witness_value == Scalar(Fraction(-1, 1000))

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
        M = _line_moments({(0,): 1, (1,): 1, (2,): -1})
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


def _float_copy(rep):
    """The exact ``rep`` on complex entries."""
    return MatrixRep(
        rep.spec, rep.dim_V, [rep.generator_array(i) for i in range(rep.spec.dim)],
        rep.cyclic_array(), skew_hermitian=True, exact=False,
    )


def _minus_delta(lam, t):
    """``lam - t delta``: lam with t taken off its value at 1."""
    one = (0,) * lam.spec.dim
    values = dict(lam.values)
    values[one] = lam.value(one) - t
    return FunctionalTable(lam.spec, lam.max_degree, values)


def _assert_same_model(a, b):
    """Two GNS models agree field by field; float arrays bit for bit."""
    for f in dataclasses.fields(GnsModel):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "gram":
            assert (x.d_max, x.monomials, x.rows, x.hermitian) == (
                y.d_max, y.monomials, y.rows, y.hermitian)
        elif f.name == "op_matrices":
            assert [m.tobytes() for m in x] == [m.tobytes() for m in y]
        elif f.name == "vacuum":
            assert x.tobytes() == y.tobytes()
        else:
            assert x == y, f.name


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

    @pytest.mark.parametrize("make", [
        pytest.param(heisenberg_rep, id="heisenberg"),
        pytest.param(spin_three_half, id="spin-three-half"),
        pytest.param(lambda: rational_reps()["spin-one-sixth"], id="spin-one-sixth"),
    ])
    def test_orbit_gram_equals_every_inner_product(self, make):
        # the mirrored lower triangle, also on a rep that is not skew-hermitian
        rep = make()
        assert orbit_gram(rep, 2) == _orbit_gram_per_entry(rep, 2)

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
        cases = [
            # lam(x*x) = -lam(x^2) = -1: a negative diagonal in monomial order
            (FunctionalTable(abelian(1), 4, {(0,): Scalar(1), (2,): Scalar(1)}), 1),
            # M = [[0, i], [-i, 1]]: a zero diagonal on a nonzero row
            (FunctionalTable(abelian(1), 2, {(1,): Scalar(0, 1), (2,): Scalar(-1)}), 1),
            # spin one minus delta/2: a negative pivot after the first eliminations
            (_minus_delta(functional_from_rep(spin_one(), 4), Fraction(1, 2)), 2),
        ]
        for lam, d_max in cases:
            with pytest.raises(PositivityError) as err:
                gns_build(lam, d_max)
            witness = psd_check(moment_matrix(lam, d_max)).witness
            assert witness is not None and err.value.witness == witness

    def test_one_factorization_decides_as_psd_check(self, monkeypatch):
        # lam - t delta on spin one is PSD for t <= 0; for 0 < t < 1 the
        # monomial-order LDL* fails after its first pivots, at t = 1 on a zero
        # diagonal with a nonzero row, beyond on a negative diagonal
        built = []

        def counting(rows):
            built.append(rows)
            return _Ldl(rows)

        monkeypatch.setattr("envalg.gns._Ldl", counting)
        lam = functional_from_rep(spin_one(), 4)
        for t in (Fraction(k, 8) for k in range(-2, 11)):
            mu = _minus_delta(lam, t)
            psd = psd_check(moment_matrix(mu, 2))
            built.clear()
            if psd.ok:
                assert gns_build(mu, 2).quotient_rank == psd.rank
            else:
                with pytest.raises(PositivityError) as err:
                    gns_build(mu, 2)
                assert err.value.witness == psd.witness
            # the certificate is the Gram–Schmidt LDL*; only a failure runs psd_check's
            assert len(built) == (1 if psd.ok else 2)

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
        # the same rep on complex entries is read as the same dyadic rationals,
        # so it gives the same table, moment matrix and GNS model
        exact_rep = factory()
        float_rep = _float_copy(exact_rep)
        assert not float_rep.exact
        tables = [functional_from_rep(rep, 2 * d_max) for rep in (exact_rep, float_rep)]
        assert tables[0].values == tables[1].values
        reports = [psd_check(moment_matrix(lam, d_max)) for lam in tables]
        assert reports[0] == reports[1] and reports[0].ok
        ex, fl = (gns_build(lam, d_max) for lam in tables)
        _assert_same_model(ex, fl)
        assert fl.skew_exact and fl.quotient_rank == d_max + 1

    def test_float_rep_not_exact_in_binary64_rejected(self):
        # spin one conjugated by a random float unitary: the laws hold to
        # rounding, so the group side takes it, but not exactly as stored
        rep = spin_one()
        rng = np.random.default_rng(7)
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        gens = [U @ rep.generator_array(i) @ U.conj().T for i in range(3)]
        turned = MatrixRep(SO3, 3, gens, U @ rep.cyclic_array(),
                           skew_hermitian=True, exact=False)
        turned.validate()
        assert not turned._int_laws_hold()
        with pytest.raises(RepresentationError, match="not an exact representation"):
            functional_from_rep(turned, 4)
        with pytest.raises(RepresentationError, match="not an exact representation"):
            orbit_gram(turned, 2)

    def test_float_path(self):
        rep = random_skew_rep(3, seed=5)
        lam = functional_from_rep(rep, 4)
        model = gns_build(lam, 2)
        assert model.quotient_rank >= 1
        assert model.skew_exact and model.skew_residual == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_skew_rep_reads_exactly(self, seed):
        # random_skew_rep's (B - B^*) / 2 is skew-hermitian in binary64 as
        # stored, so its functional, moment matrix and model are exact: the
        # abelian line on C^8 with a generic cyclic vector has rank 5 at d = 4
        rep = random_skew_rep(8, 1000 + seed)
        lam = functional_from_rep(rep, 8)
        M = moment_matrix(lam, 4)
        assert M.size == 5 and M.hermitian
        psd = psd_check(M)
        assert psd.ok and psd.rank == 5
        model = gns_build(lam, 4)
        assert model.quotient_rank == 5 and model.skew_exact

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
        expect = [lam.eval(p) for p in powers]
        # lam(x^k) = T_k(1) for T_0 = lam and T_k = regular_act(T_(k-1), x)
        table, got = lam, [lam.eval(powers[0])]
        for _ in range(6):
            table = regular_act(table, x)
            got.append(table.eval(powers[0]))
        assert got == expect
        report = analytic_diagnostics(lam, x, 3)
        assert list(report.s_squared) == [(-1) ** n * expect[2 * n].re for n in range(4)]


# -- Scalar references for the integer LDL* kernel -----------------------------
#
# The two exact factorizations as they stood before the integer kernel: the
# pivoted Scalar LDL* of psd_check and the Scalar Gram–Schmidt of gns_build.


def _orbit_gram_per_entry(rep, d_max):
    """All n^2 entries ``<R(x^beta) v, R(x^alpha) v>`` from Scalar products."""
    monos = monomials_up_to(rep.spec.dim, d_max)
    n = rep.dim_V
    vecs = {}
    for alpha in monos:  # degree order: x^alpha = e_i x^(alpha - e_i), i its first letter
        if not any(alpha):
            vecs[alpha] = rep.cyclic_vector
            continue
        i = next(k for k, a in enumerate(alpha) if a)
        prev = vecs[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]
        gen = rep.generators[i]
        vecs[alpha] = [sum((gen[r][s] * prev[s] for s in range(n)), Scalar(0)) for r in range(n)]

    def inner(u, w):
        return sum((c.conjugate() * a for a, c in zip(u, w)), Scalar(0))

    return tuple(tuple(inner(vecs[b], vecs[a]) for b in monos) for a in monos)


def _reference_psd(rows):
    """Pivoted hermitian LDL* in Scalar arithmetic: ``(ok, rank, pivots, witness, value)``."""
    n = len(rows)
    S = [[rows[i][j] for j in range(n)] for i in range(n)]
    remaining = list(range(n))
    pivots = []
    steps = []  # (pivot index, {col: S[p][col]}, pivot value) at elimination time

    def lift(u):
        for p, row, piv in reversed(steps):
            dot = Scalar(0)
            for idx, val in u.items():
                entry = row.get(idx)
                if entry is not None:
                    dot = dot + entry * val
            t = -(dot / Scalar(piv))
            if t:
                u[p] = t
        return tuple(u.get(i, Scalar(0)) for i in range(n))

    def quad_value(u_dict, mat):
        total = Scalar(0)
        for a, ca in u_dict.items():
            for b, cb in u_dict.items():
                total = total + ca.conjugate() * mat[a][b] * cb
        return total

    while remaining:
        diag = [(S[i][i].re, i) for i in remaining]
        best_val, best_idx = max(diag, key=lambda t: (t[0], -t[1]))
        neg = [(v, i) for v, i in diag if v < 0]
        if neg:
            _, i = min(neg, key=lambda t: (t[0], t[1]))
            return False, len(pivots), tuple(pivots), lift({i: Scalar(1)}), S[i][i]
        if best_val == 0:
            for i in remaining:
                for j in remaining:
                    if S[i][j]:
                        s = S[i][j].conjugate()
                        tau = -(S[j][j].re + 1) / (2 * S[i][j].abs2())
                        u = {i: Scalar(tau), j: s}
                        val = quad_value(u, S)
                        return False, len(pivots), tuple(pivots), lift(u), val
            return True, len(pivots), tuple(pivots), None, None
        p = best_idx
        piv = S[p][p].re
        pivots.append(piv)
        remaining.remove(p)
        row = {j: S[p][j] for j in remaining if S[p][j]}
        steps.append((p, dict(row), piv))
        for i in remaining:
            ci = S[i][p]
            if not ci:
                continue
            for j in remaining:
                rj = row.get(j)
                if rj is not None:
                    S[i][j] = S[i][j] - ci * rj / piv
    return True, len(pivots), tuple(pivots), None, None


def _reference_gram(lam, d_max):
    """Scalar Gram–Schmidt of an exact positive table, with the model it gives."""
    M = moment_matrix(lam, d_max)
    monos = list(M.monomials)
    n, G, spec = len(monos), M.rows, lam.spec

    def inner(u, w):
        total = Scalar(0)
        for a, wa in w.items():
            for b, ub in u.items():
                if G[a][b]:
                    total = total + wa.conjugate() * G[a][b] * ub
        return total

    def axpy(u, coeff, vec):
        for idx, val in vec.items():
            got = u.get(idx, Scalar(0)) + coeff * val
            if got:
                u[idx] = got
            else:
                u.pop(idx, None)

    basis, norms2, pivot_idx = [], [], []
    for m in range(n):
        u = {m: Scalar(1)}
        for b, d2 in zip(basis, norms2):
            coeff = inner(u, b) / d2
            if coeff:
                axpy(u, -coeff, b)
        nrm2 = inner(u, u).re
        if nrm2 > 0:
            basis.append(u)
            norms2.append(nrm2)
            pivot_idx.append(m)
    rank = len(basis)
    sub_rank = sum(1 for m in pivot_idx if sum(monos[m]) <= d_max - 1)
    idx_of = {alpha: pos for pos, alpha in enumerate(monos)}
    vacuum = np.array([inner({0: Scalar(1)}, b).to_complex() / _sqrt(d2)
                       for b, d2 in zip(basis, norms2)], dtype=complex)
    ops, mats, worst2 = [], [], 0
    if d_max >= 1 and rank:
        for i in range(spec.dim):
            A = [[None] * sub_rank for _ in range(rank)]
            mat = np.zeros((rank, sub_rank), dtype=complex)
            for k in range(sub_rank):
                image = {}
                for m_idx, coeff in basis[k].items():
                    nf = pbw_reduce(spec, (i,) + _word_of_alpha(monos[m_idx]))
                    axpy(image, coeff, {idx_of[alpha]: c for alpha, c in nf.terms.items()})
                for j in range(rank):
                    A[j][k] = inner(image, basis[j]) / norms2[j]
                    mat[j, k] = A[j][k].to_complex() * _sqrt(norms2[j] / norms2[k])
            ops.append(tuple(tuple(row) for row in A))
            mats.append(mat)
            defect2 = 0
            for j in range(sub_rank):
                for k in range(sub_rank):
                    e = A[j][k] * norms2[j] + A[k][j].conjugate() * norms2[k]
                    if e:
                        defect2 += (e * e.conjugate()).re / (norms2[j] * norms2[k])
            worst2 = max(worst2, defect2)
    return dict(
        pivot_monomials=tuple(monos[m] for m in pivot_idx), quotient_basis=basis,
        basis_norms2=norms2, sub_rank=sub_rank, vacuum=vacuum.tobytes(),
        op_matrices=[m.tobytes() for m in mats] if mats else None,
        exact_op_matrices=tuple(ops) if ops else None,
        skew_residual=float(_sqrt(worst2)) if ops else 0.0,
        skew_exact=worst2 <= 0 if ops else None,
    )


def _sqrt(q):
    return fraction_root_float(Fraction(q), 2)


def _model_fields(model):
    return dict(
        pivot_monomials=model.pivot_monomials, quotient_basis=model.quotient_basis,
        basis_norms2=model.basis_norms2, sub_rank=model.sub_rank,
        vacuum=model.vacuum.tobytes(),
        op_matrices=None if model.op_matrices is None else [m.tobytes() for m in model.op_matrices],
        exact_op_matrices=model.exact_op_matrices,
        skew_residual=model.skew_residual, skew_exact=model.skew_exact,
    )


def _random_scalar(rng):
    return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))


def _random_cyclic(factory, rng):
    """A spin rep with a random Gaussian-rational cyclic vector: a positive table."""
    rep = factory()
    v = [_random_scalar(rng) for _ in range(rep.dim_V)]
    if not any(v):
        v[0] = Scalar(1)
    return MatrixRep(rep.spec, rep.dim_V, rep.generators, v, skew_hermitian=True)


def _positive_so3_table(seed, degree):
    """The sum of two random-vector spin functionals: positive, of rank up to 3 + 8."""
    rng = random.Random(seed)
    one = functional_from_rep(_random_cyclic(spin_one, rng), degree)
    three_half = functional_from_rep(_random_cyclic(spin_three_half, rng), degree)
    values = {alpha: one.value(alpha) + three_half.value(alpha)
              for alpha in monomials_up_to(3, degree)}
    return FunctionalTable(SO3, degree, values)


def _positive_tables():
    """``(label, table, degrees)`` of exact positive tables for both references."""
    cases = [(f"spin-{f.__name__}", functional_from_rep(f(), 6), (0, 1, 2, 3))
             for f in (spin_half, spin_one, spin_three_half)]
    cases += [(f"positive-so3-{s}", _positive_so3_table(s, 6), (1, 2, 3)) for s in range(4)]
    cases += [(f"cyclic-{s}", functional_from_rep(
        _random_cyclic((spin_half, spin_one, spin_three_half)[s % 3], random.Random(50 + s)), 6),
        (1, 2, 3)) for s in range(3)]
    cases += [(name, functional_from_rep(rep, 4), (1, 2)) for name, rep in
              sorted(rational_reps().items())
              if name.endswith(("three-half-half", "three-half-sixth", "3/5"))]
    cases += [("gaussian", gaussian_functional(8), (1, 2, 3, 4)),
              ("delta", delta_functional(abelian(1), 6), (1, 2, 3))]
    return cases


def _psd_inputs():
    """Matrices through every branch of the pivoted LDL*: PASS, negative pivot, zero diagonal."""
    rng = random.Random(21)
    out = [("pass", _permuted(rng, _gram(rng, rng.randint(0, n), n)))
           for n in (1, 2, 3, 4, 5, 5, 6)]
    for _ in range(8):
        n = rng.randint(2, 5)
        M = _gram(rng, n, n)
        k = rng.randrange(n)
        M[k][k] = M[k][k] * Fraction(rng.randint(1, 3), 4)
        out.append(("scaled-diagonal", _permuted(rng, M)))
        M = _gram(rng, rng.randint(1, n), n)
        M[k][k] = M[k][k] - 100
        out.append(("negative-diagonal", _permuted(rng, M)))
    for _ in range(6):
        k, m = rng.randint(0, 3), rng.randint(2, 3)
        P = _gram(rng, rng.randint(1, 3), k)
        H = [[Scalar(0)] * m for _ in range(m)]
        i, j = rng.sample(range(m), 2)
        H[i][j] = _random_scalar(rng) or Scalar(1)
        H[j][i] = H[i][j].conjugate()
        zero = Scalar(0)
        M = [P[r] + [zero] * m for r in range(k)] + [[zero] * k + H[r] for r in range(m)]
        out.append(("zero-diagonal", _permuted(rng, M)))
    out.append(("zero-after-pivot",
                tuple(tuple(Scalar(c) for c in row) for row in ((1, 1, 1), (1, 1, 2), (1, 2, 1)))))
    for label, lam, degrees in _positive_tables():
        out.append((f"moments-{label}", moment_matrix(lam, max(degrees)).rows))
    return out


POSITIVE_TABLES = _positive_tables()
PSD_INPUTS = _psd_inputs()


class TestIntegerLdlAgainstScalarReference:
    """The integer kernel gives the Scalar factorizations' values exactly."""

    @pytest.mark.parametrize("label, rows", PSD_INPUTS,
                             ids=[f"{i}-{label}" for i, (label, _) in enumerate(PSD_INPUTS)])
    def test_psd_certificate(self, label, rows):
        got = _exact_psd(rows)
        want = _reference_psd(rows)
        assert got == want
        if label in ("negative-diagonal", "zero-diagonal", "zero-after-pivot"):
            assert not got[0]

    def test_every_psd_branch_is_covered(self):
        # witnesses from a negative Schur diagonal and from a zero diagonal block
        verdicts = {(label, _reference_psd(rows)[0]) for label, rows in PSD_INPUTS}
        assert {("scaled-diagonal", False), ("scaled-diagonal", True),
                ("zero-diagonal", False), ("pass", True)} <= verdicts

    @pytest.mark.parametrize("label, lam, degrees", POSITIVE_TABLES,
                             ids=[label for label, _, _ in POSITIVE_TABLES])
    def test_gns_model(self, label, lam, degrees):
        for d in degrees:
            want = _reference_gram(lam, d)
            model = gns_build(lam, d)
            got = _model_fields(model)
            assert got == want, d
            assert model.quotient_rank == len(want["pivot_monomials"])

    def test_gns_model_on_larger_rank(self):
        lam = _positive_so3_table(9, 8)
        model = gns_build(lam, 4)
        assert model.quotient_rank == 11
        assert _model_fields(model) == _reference_gram(lam, 4)


class TestHermitianAndRebuild:
    """The exact hermitian test, and a GNS build on a table already checked."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_hermitian_verdict_is_entrywise(self, seed):
        lam = random_functional(SO3, 4, random.Random(300 + seed))
        M = moment_matrix(lam, 2)
        defect2 = sum((M.rows[a][b] - M.rows[b][a].conjugate()).abs2()
                      for a in range(M.size) for b in range(M.size))
        assert M.hermitian == (defect2 == 0)
        assert not M.hermitian
        with pytest.raises(HermitianError):
            psd_check(M)
        with pytest.raises(HermitianError):
            gns_build(lam, 2)

    def test_imaginary_defect_is_not_hermitian(self):
        # lam(x^2) = i: M[1][1] = -i, which equals its mirror but not its conjugate
        lam = FunctionalTable(abelian(1), 2, {(0,): Scalar(1), (2,): Scalar(0, 1)})
        assert not moment_matrix(lam, 1).hermitian
        # lam(x) = i: M[0][1] = i = conj(M[1][0])
        lam = FunctionalTable(abelian(1), 2, {(0,): Scalar(1), (1,): Scalar(0, 1)})
        assert moment_matrix(lam, 1).hermitian

    def test_hermitian_tables_pass(self):
        for _, lam, degrees in POSITIVE_TABLES[:4]:
            assert moment_matrix(lam, max(degrees)).hermitian

    def test_gns_after_checks_equals_fresh_build(self):
        lam = functional_from_rep(spin_three_half(), 6)
        psd_check(moment_matrix(lam, 3))
        checked = gns_build(lam, 3)
        fresh = gns_build(functional_from_rep(spin_three_half(), 6), 3)
        assert _model_fields(checked) == _model_fields(fresh)
        assert checked.gram.rows == fresh.gram.rows


def _perturbed(rep, rng):
    gens = [[list(row) for row in gen] for gen in rep.generators]
    k, r, s = rng.randrange(len(gens)), rng.randrange(rep.dim_V), rng.randrange(rep.dim_V)
    gens[k][r][s] = gens[k][r][s] + _random_scalar(rng)
    return MatrixRep(rep.spec, rep.dim_V, gens, rep.cyclic_vector,
                     skew_hermitian=rep.skew_hermitian)


class TestIntegerValidate:
    """``validate`` decides exact reps on ints and words failures as before."""

    def test_broken_exact_reps_keep_their_messages(self):
        rep = spin_one()
        gens = [[list(row) for row in gen] for gen in rep.generators]
        gens[1][0][1] = gens[1][0][1] + Scalar(Fraction(1, 3), 1)
        bad = MatrixRep(rep.spec, 3, gens, rep.cyclic_vector, skew_hermitian=True)
        with pytest.raises(RepresentationError) as err:
            bad.validate()
        assert str(err.value) == "homomorphism law fails at pair (1, 2): residual 1.491e+00"
        # a non-unitary similarity keeps the law but not skewness
        rep = spin_three_half()
        p = ([1, 2, 1, 3] * 4)[:rep.dim_V]
        similar = [[[gen[r][s] * Fraction(p[r], p[s]) for s in range(rep.dim_V)]
                    for r in range(rep.dim_V)] for gen in rep.generators]
        MatrixRep(rep.spec, rep.dim_V, similar, rep.cyclic_vector,
                  skew_hermitian=False).validate()
        with pytest.raises(RepresentationError) as err:
            MatrixRep(rep.spec, rep.dim_V, similar, rep.cyclic_vector,
                      skew_hermitian=True).validate()
        assert str(err.value) == "generator 0 is not skew-hermitian"

    def test_integer_laws_agree_with_scalar_residuals(self):
        rng = random.Random(31)
        reps = [spin_half(), spin_one(), spin_three_half()] + list(rational_reps().values())
        verdicts = []
        for rep in reps:
            for candidate in [rep] + [_perturbed(rep, rng) for _ in range(4)]:
                try:
                    candidate._check_residuals()
                    holds = True
                except RepresentationError:
                    holds = False
                assert candidate._int_laws_hold() == holds
                verdicts.append(holds)
        assert True in verdicts and False in verdicts
