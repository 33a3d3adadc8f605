"""Moment matrices, exact PSD certificates, GNS models, analytic diagnostics."""

import copy
import dataclasses
import itertools
import math
import random
import re
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
    SpecMismatchError,
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
    _exact_gram,
    _exact_psd,
    _exactly_hermitian,
    _int_entries,
    _Ldl,
    analytic_diagnostics,
    functional_from_rep,
    gns_build,
    moment_matrix,
    orbit_gram,
    psd_check,
)
from envalg.lie_structure import (
    GVector,
    PBWPoly,
    _star_monomial,
    _word_of_alpha,
    pbw_mul,
    pbw_reduce,
)
from envalg.sampling import random_functional, random_skew_rep, random_vector
from envalg.scalars import Scalar, _int_pairs, _reduced, fraction_root_float
from rational_algebras import RATIONAL_ALGEBRAS, rational_reps


SO3 = so3()


def _image(rows):
    """Scalar rows as the integer image ``(den, re, im)`` that ``_exact_psd`` factors."""
    n = len(rows)
    den, pairs = _int_pairs([c for row in rows for c in row])
    return (den, [[a for a, _ in pairs[i * n:(i + 1) * n]] for i in range(n)],
            [[b for _, b in pairs[i * n:(i + 1) * n]] for i in range(n)])


BINARY64 = [0.1 + 0j, complex(-0.0, 1 / 3), complex(5e-324, -1e308), 0.5 - 0.25j, 3 + 0j]


@pytest.mark.parametrize("zs", [[z] for z in BINARY64] + [BINARY64])
def test_binary64_entries_read_exactly(zs):
    # one power-of-two denominator serves every entry
    den, pairs = _int_entries(zs, exact=False)
    assert den & (den - 1) == 0
    for z, (a, b) in zip(zs, pairs):
        assert (Fraction(a, den), Fraction(b, den)) == (Fraction(z.real), Fraction(z.imag))
        assert Scalar(Fraction(a, den), Fraction(b, den)).to_complex() == z


def _int_entries_by_ratio(entries):
    """The binary64 reader before ``frexp``: two ``as_integer_ratio`` calls per entry."""
    parts = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in entries]
    den = max(q for pair in parts for _, q in pair)
    return den, [(p * (den // q), r * (den // t)) for (p, q), (r, t) in parts]


# subnormals, signed zeros, the extreme exponents and mixed magnitudes
EDGE64 = [complex(5e-324, -5e-324), complex(-0.0, 0.0), complex(0.0, -0.0),
          complex(3 * 2.0 ** -1074, 1e308),
          complex(-1.7976931348623157e308, 2.2250738585072014e-308),
          complex(1e-310, 2.0 ** 1000), 1.5 + 0j, complex(-(2.0 ** 53 - 1), 2.0 ** -60)]


@pytest.mark.parametrize("zs", [[z] for z in EDGE64] + [EDGE64, [0j, complex(-0.0, -0.0)],
                                list(np.random.default_rng(5).normal(size=40) * 1j + 0.25)])
def test_frexp_reader_matches_ratio_reader(zs):
    assert _int_entries(zs, exact=False) == _int_entries_by_ratio(zs)


def _extreme_float_rep():
    """A skew-hermitian float rep of the line whose entries span the binary64 range."""
    a = complex(5e-324, 2.0 ** 1000)
    gen = [[complex(0, 1e-310), a, 0j], [-a.conjugate(), complex(-0.0, 3), 0j],
           [0j, 0j, complex(0, -1e300)]]
    return MatrixRep(abelian(1), 3, [gen], [complex(1, -0.0), 2.0 ** -1060 + 0j, 0.5 + 0j],
                     skew_hermitian=True, exact=False)


FLOAT_REPS = {
    "extreme": _extreme_float_rep,
    "skew-5": lambda: random_skew_rep(5, 17),
    "skew-12": lambda: random_skew_rep(12, 18),
    "spin-three-half": lambda: _float_copy(spin_three_half()),
    "spin-one-sixth": lambda: _float_copy(rational_reps()["spin-one-sixth"]),
    "heisenberg-3/5": lambda: _float_copy(rational_reps()["heisenberg-3/5"]),
}


def _float_rep_outcomes(rep):
    """What the integer reader feeds: residuals, validate's verdict and the functional."""
    try:
        rep.validate()
        verdict = None
    except RepresentationError as err:
        verdict = str(err)
    try:
        values = functional_from_rep(rep, 4).values
    except RepresentationError as err:
        values = str(err)
    return rep._residual_norms2, verdict, values


@pytest.mark.parametrize("name", sorted(FLOAT_REPS))
def test_float_reps_read_as_by_the_ratio_reader(monkeypatch, name):
    got = _float_rep_outcomes(FLOAT_REPS[name]())
    monkeypatch.setattr("envalg.gns._int_entries", lambda entries, exact: (
        _int_pairs(entries) if exact else _int_entries_by_ratio(entries)))
    want = _float_rep_outcomes(FLOAT_REPS[name]())
    assert got == want
    laws, skews = got[0]
    assert all(type(q) is Fraction for q in list(laws.values()) + skews)
    if isinstance(got[2], dict):
        assert all(type(v) is Scalar for v in got[2].values())


@pytest.mark.parametrize("where", ["generator", "cyclic vector"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_float_rep_rejects_non_finite_entries(where, bad):
    gens = [[[0j, 1j], [1j, 0j]]]
    v = [1 + 0j, 0j]
    if where == "generator":
        gens[0][1][0] = bad
    else:
        v[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MatrixRep(abelian(1), 2, gens, v, skew_hermitian=True, exact=False)


def _defective_spin_one():
    """Spin one in binary64 with one entry of R(e_1) moved by 1e-12: the law and
    skewness hold to 1e-10 but not exactly, so every residual is read as ints."""
    rep = spin_one()
    gens = [np.array(rep.generator_array(i)) for i in range(3)]
    gens[1][0, 1] += 1e-12
    return gens, rep.cyclic_array()


@pytest.mark.parametrize("form", ["complex lists", "Scalars"])
def test_float_rep_store_is_the_same_for_every_input_form(form):
    gens, v = _defective_spin_one()
    by_array = MatrixRep(SO3, 3, gens, v, skew_hermitian=True, exact=False)
    if form == "complex lists":
        entries = [g.tolist() for g in gens], v.tolist()
    else:
        def scalars(values):
            return [Scalar(Fraction(z.real), Fraction(z.imag)) for z in values]
        entries = [[scalars(row) for row in g] for g in gens], scalars(v)
    other = MatrixRep(SO3, 3, *entries, skew_hermitian=True, exact=False)
    for i in range(3):
        assert other.generator_array(i).tobytes() == by_array.generator_array(i).tobytes()
    assert other.cyclic_array().tobytes() == by_array.cyclic_array().tobytes()
    assert other._int_generators == by_array._int_generators
    laws, skews = other._residual_norms2
    assert (laws, skews) == by_array._residual_norms2
    assert all(laws.values()) and skews[1] and not skews[0] and not skews[2]


def test_float_rep_stores_read_only_contiguous_copies():
    gens, v = _defective_spin_one()
    gens[0] = np.asfortranarray(gens[0])
    rep = MatrixRep(SO3, 3, gens, v, skew_hermitian=True, exact=False)
    gens[2][0, 0] = 5.0
    stored = [rep.generator_array(i) for i in range(3)] + [rep.cyclic_array()]
    assert all(a is b for a, b in zip(stored, rep.generators + (rep.cyclic_vector,)))
    for arr in stored:
        assert arr.dtype == np.complex128 and arr.flags.c_contiguous
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert stored[2][0, 0] == 0


def test_skew_defect_of_1e12_passes_validate_but_not_exactly():
    gen = np.array([[0.5j, 1 + 1e-12], [-1 + 0j, 0j]])
    rep = MatrixRep(abelian(1), 2, [gen], [1, 0], skew_hermitian=True, exact=False)
    rep.validate()
    # entries (0, 1) and (1, 0) of X^* + X are the stored 1 + 1e-12 less 1
    d = Fraction(1 + 1e-12) - 1
    assert rep._residual_norms2[1] == [2 * d * d]
    with pytest.raises(RepresentationError, match="not an exact representation"):
        functional_from_rep(rep, 2)


@pytest.mark.parametrize("exact", [False, True])
def test_non_skew_generator_keeps_its_message(exact):
    gen = [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(0, 1)]]
    rep = MatrixRep(abelian(1), 2, [gen], [1, 0], skew_hermitian=True, exact=exact)
    assert rep._residual_norms2[1] == [Fraction(4)]
    with pytest.raises(RepresentationError, match="^generator 0 is not skew-hermitian$"):
        rep.validate()


def test_signed_zeros_count_as_skew():
    gen = [[complex(-0.0, 1), complex(0.0, -0.0)], [complex(-0.0, 0.0), complex(0.0, -2)]]
    rep = MatrixRep(abelian(1), 2, [gen], [complex(0.0, -0.0), 1], skew_hermitian=True,
                    exact=False)
    assert rep._residual_norms2 == ({}, [Fraction(0)])
    rep.validate()
    assert "_int_generators" not in vars(rep)
    assert functional_from_rep(rep, 2).value((1,)) == Scalar(0, -2)


def test_random_skew_rep_reads_ints_only_for_the_exact_side():
    rep = random_skew_rep(9, 4)
    rep.validate()
    assert rep._residual_norms2 == ({}, [Fraction(0)])
    assert "_int_generators" not in vars(rep)
    functional_from_rep(rep, 2)
    assert "_int_generators" in vars(rep)


@pytest.mark.parametrize("exact, v", [(True, [0, 0]), (True, [Scalar(0), Fraction(0)]),
                                      (False, [0, 0]), (False, [0j, complex(-0.0, -0.0)])])
def test_zero_cyclic_vector_rejected(exact, v):
    gen = [[0, 1], [-1, 0]]
    with pytest.raises(ValueError, match="cyclic vector is zero"):
        MatrixRep(abelian(1), 2, [gen], v, skew_hermitian=True, exact=exact)


@pytest.mark.parametrize("exact", [True, False])
def test_zero_dimensional_rep_rejected(exact):
    with pytest.raises(ValueError, match="cyclic vector is zero"):
        MatrixRep(abelian(1), 0, [np.zeros((0, 0))] if not exact else [[]], [],
                  skew_hermitian=True, exact=exact)


def test_matrix_of_rejects_a_vector_of_another_algebra():
    rep = spin_half()
    for x in (heisenberg_rep().spec.basis_vector(0), abelian(1).basis_vector(0)):
        with pytest.raises(SpecMismatchError):
            rep.matrix_of(x)
    assert np.array_equal(rep.matrix_of(SO3.basis_vector(2)), rep.generator_array(2))


@pytest.mark.parametrize("coeffs", [[[1, 2, 3, 4]], [[1, 2]], [1, 2, 3], np.ones((2, 0))])
def test_matrices_of_rejects_rows_of_another_width(coeffs):
    with pytest.raises(ValueError, match="rows of 3 coefficients"):
        spin_half().matrices_of(coeffs)


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

        ok, rank, pivots, witness, value = _exact_psd(_image(rows))
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

        ok, rank, pivots, witness, value = _exact_psd(_image(rows))
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
        ok, rank, pivots, witness, value = _exact_psd(_image(rows))
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
        rep.cyclic_array(), skew_hermitian=rep.skew_hermitian, exact=False,
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

        def counting(image):
            built.append(image)
            return _Ldl(image)

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

    def test_roots_below_binary64_read_as_infinite_radii(self):
        # lam(x^2) = -10**-700 gives s_1 = 10**-350, which reads 0.0 in binary64
        line = abelian(1)
        x = line.basis_vector(0)
        tiny = Scalar(Fraction(-1, 10 ** 700))
        lam = FunctionalTable(line, 2, {(0,): Scalar(1), (1,): Scalar(1), (2,): tiny})
        report = analytic_diagnostics(lam, x, 1)
        assert report.vector_root.squared == Fraction(1, 10 ** 700)
        assert report.vector_radius_estimate == math.inf
        assert report.factor2_ratio == math.inf
        # with lam(x) as small, the functional radius reads inf as well: no ratio
        lam = FunctionalTable(line, 2, {(0,): Scalar(1), (1,): tiny, (2,): tiny})
        report = analytic_diagnostics(lam, x, 1)
        assert report.functional_estimate.value == math.inf
        assert report.vector_radius_estimate == math.inf
        assert report.factor2_ratio is None

    def test_degree_guard(self):
        lam = functional_from_rep(spin_half(), 4)
        with pytest.raises(DegreeOverflowError):
            analytic_diagnostics(lam, SO3.basis_vector(0), 3)

    def test_root_tie_keeps_the_first_degree(self):
        # lam(x^(2n)) = (-1)^n (n!)^2 gives s_n^2 = (n!)^2, so every vector root is 1
        n_max = 6
        vals = {(2 * n,): Scalar((-1) ** n * math.factorial(n) ** 2) for n in range(n_max + 1)}
        lam = FunctionalTable(abelian(1), 2 * n_max, vals)
        report = analytic_diagnostics(lam, abelian(1).basis_vector(0), n_max)
        assert list(report.s_squared) == [math.factorial(n) ** 2 for n in range(n_max + 1)]
        assert report.vector_root.degree == 1
        assert report.vector_root.squared == 1


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


CUT_REPS = {"spin-half": spin_half, "spin-one": spin_one, "spin-three-half": spin_three_half,
            "spin-three-half-sixth": lambda: rational_reps()["spin-three-half-sixth"],
            "heisenberg-3/5": lambda: rational_reps()["heisenberg-3/5"]}


@pytest.mark.parametrize("d_max", [1, 2])
@pytest.mark.parametrize("name", list(CUT_REPS))
def test_moment_chain_acts_on_tables_cut_to_twice_the_degree(monkeypatch, name, d_max):
    rep = CUT_REPS[name]()
    lam = functional_from_rep(rep, 2 * d_max + 3)
    acted = []

    def spy(table, y):
        acted.append(table.max_degree)
        return regular_act(table, y)

    monkeypatch.setattr("envalg.gns.regular_act", spy)
    M = moment_matrix(lam, d_max)
    monkeypatch.undo()
    # the k-th action peels the k-th nonconstant monomial x^alpha from T_beta,
    # |beta| = |alpha| - 1, which is read on degree <= d_max only
    monos = monomials_up_to(rep.spec.dim, d_max)[1:]
    assert len(acted) == len(monos)
    for degree, alpha in zip(acted, monos):
        assert degree <= 2 * d_max - (sum(alpha) - 1)
    assert M.rows == moment_matrix(functional_from_rep(rep, 2 * d_max), d_max).rows


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
        got = _exact_psd(_image(rows))
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


def _moment_rows_by_eval_graded(lam, d_max):
    """The moment matrix as it was built before its integer image: one reduced
    Scalar per entry, ``T_beta`` evaluated on the star normal form of each row."""
    spec = lam.spec
    monos = monomials_up_to(spec.dim, d_max)
    tables = {}
    for beta in monos:
        i = next((k for k, b in enumerate(beta) if b), None)
        tables[beta] = lam if i is None else regular_act(
            tables[beta[:i] + (beta[i] - 1,) + beta[i + 1:]], spec.basis_vector(i))
    return tuple(tuple(tables[beta]._eval_graded(_star_monomial(spec, alpha), sum(alpha))
                       for beta in monos) for alpha in monos)


def _scalar_hermitian(rows):
    return all(rows[a][b] == rows[b][a].conjugate()
               for a in range(len(rows)) for b in range(len(rows)))


IMAGE_TABLES = {
    "spin-half": lambda: functional_from_rep(spin_half(), 6),
    "spin-one": lambda: functional_from_rep(spin_one(), 6),
    "spin-three-half": lambda: functional_from_rep(spin_three_half(), 6),
    "heisenberg-3/5": lambda: functional_from_rep(rational_reps()["heisenberg-3/5"], 6),
    "spin-three-half-sixth": lambda: functional_from_rep(
        rational_reps()["spin-three-half-sixth"], 6),
    "positive-so3": lambda: _positive_so3_table(7, 6),
    "random-so3": lambda: random_functional(SO3, 6, random.Random(8)),
    "float-skew": lambda: functional_from_rep(random_skew_rep(6, 23), 6),
}


class TestMomentImage:
    """The moment matrix's one store, its integer image, against the Scalar route."""

    @pytest.mark.parametrize("name", sorted(IMAGE_TABLES))
    def test_image_equals_scalar_oracle(self, name):
        lam = IMAGE_TABLES[name]()
        for d in range(4):
            M = moment_matrix(lam, d)
            oracle = _moment_rows_by_eval_graded(lam, d)
            den, re, im = M._image
            assert den == lam._image[0] * lam.spec.delta ** (2 * d)
            assert [[Fraction(x, den) for x in row] for row in re] == \
                [[c.re for c in row] for row in oracle]
            assert [[Fraction(y, den) for y in row] for row in im] == \
                [[c.im for c in row] for row in oracle]
            assert M.rows == oracle
            assert M.hermitian == _scalar_hermitian(oracle)
            assert M.to_array().tobytes() == np.array(
                [[c.to_complex() for c in row] for row in oracle], dtype=complex).tobytes()

    def test_integer_hermitian_test_agrees_with_scalars(self):
        rng = random.Random(41)
        verdicts = set()
        for name in sorted(IMAGE_TABLES):
            den, re, im = moment_matrix(IMAGE_TABLES[name](), 2)._image
            for _ in range(6):
                re2, im2 = [list(row) for row in re], [list(row) for row in im]
                a, b = rng.randrange(len(re)), rng.randrange(len(re))
                shift = rng.choice([1, -den, 2 * den])
                # moving the mirror entry too keeps the conjugate symmetry
                part, mirror = rng.choice([(re2, 1), (im2, -1)])
                part[a][b] += shift
                if rng.random() < 0.5:
                    part[b][a] += mirror * shift
                image = (den, re2, im2)
                rows = tuple(tuple(_reduced(x, y, den) for x, y in zip(xs, ys))
                             for xs, ys in zip(re2, im2))
                verdict = _exactly_hermitian(image)
                assert verdict == _scalar_hermitian(rows)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("case", ["positive", "negative-pivot", "zero-diagonal"])
    def test_factorizations_leave_the_image_alone(self, case):
        lam = functional_from_rep(spin_one(), 4)
        lam = {"positive": lam, "negative-pivot": _minus_delta(lam, Fraction(1, 2)),
               "zero-diagonal": _minus_delta(lam, 1)}[case]
        M = moment_matrix(lam, 2)
        image = copy.deepcopy(M._image)
        rows = M.rows
        first = psd_check(M)
        assert psd_check(M) == first
        grams = [_exact_gram(M, 2) for _ in range(2)]
        if first.ok:
            (*fields1, vacuum1, ops1), (*fields2, vacuum2, ops2) = grams
            assert fields1 == fields2 and ops1 == ops2
            assert vacuum1.tobytes() == vacuum2.tobytes()
        else:
            assert grams == [None, None]
        assert M._image == image
        assert M.rows == rows
        assert first.ok == (case == "positive")


def _perturbed(rep, rng):
    gens = [[list(row) for row in gen] for gen in rep.generators]
    k, r, s = rng.randrange(len(gens)), rng.randrange(rep.dim_V), rng.randrange(rep.dim_V)
    gens[k][r][s] = gens[k][r][s] + _random_scalar(rng)
    return MatrixRep(rep.spec, rep.dim_V, gens, rep.cyclic_vector,
                     skew_hermitian=rep.skew_hermitian)


def _similar(rep, skew_hermitian):
    """``rep`` conjugated by ``diag(1, 2, 1, 3, ..)``: the law holds, skewness does not."""
    n = rep.dim_V
    p = ([1, 2, 1, 3] * 4)[:n]
    gens = [[[gen[r][s] * Fraction(p[r], p[s]) for s in range(n)] for r in range(n)]
            for gen in rep.generators]
    return MatrixRep(rep.spec, n, gens, rep.cyclic_vector, skew_hermitian=skew_hermitian)


class TestIntegerValidate:
    """``validate`` decides every rep on ints, with the verdicts and messages
    of Scalar residuals summed entry by entry."""

    def test_broken_exact_reps_keep_their_messages(self):
        rep = spin_one()
        gens = [[list(row) for row in gen] for gen in rep.generators]
        gens[1][0][1] = gens[1][0][1] + Scalar(Fraction(1, 3), 1)
        bad = MatrixRep(rep.spec, 3, gens, rep.cyclic_vector, skew_hermitian=True)
        with pytest.raises(RepresentationError) as err:
            bad.validate()
        assert str(err.value) == "homomorphism law fails at pair (1, 2): residual 1.491e+00"
        # a non-unitary similarity keeps the law but not skewness
        _similar(spin_three_half(), skew_hermitian=False).validate()
        with pytest.raises(RepresentationError) as err:
            _similar(spin_three_half(), skew_hermitian=True).validate()
        assert str(err.value) == "generator 0 is not skew-hermitian"

    def test_validate_agrees_with_scalar_residual_oracle(self):
        rng = random.Random(31)
        reps = [spin_half(), spin_one(), spin_three_half()] + list(rational_reps().values())
        verdicts = []
        for rep in reps:
            similar = _similar(rep, rep.skew_hermitian)
            for candidate in [rep, similar] + [_perturbed(rep, rng) for _ in range(4)]:
                for copy in (candidate, _float_copy(candidate)):
                    expected = _scalar_residual_failure(copy, 0 if copy.exact else 1e-10)
                    if expected is None:
                        copy.validate()
                    else:
                        with pytest.raises(RepresentationError) as err:
                            copy.validate()
                        assert str(err.value) == expected
                    verdicts.append(expected is None)
                    # the algebra side asks the stored entries for exact laws
                    if expected is None and _scalar_residual_failure(copy, 0) is None:
                        orbit_gram(copy, 1)
                    else:
                        with pytest.raises(RepresentationError):
                            orbit_gram(copy, 1)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("size, ok", [(1e-11, True), (1e-9, False)])
    def test_float_tolerance_boundary(self, size, ok):
        # spin one-half scaled by 1 + size: the law residual is about size / sqrt(2)
        rep = spin_half()
        scaled = MatrixRep(rep.spec, 2, [rep.generator_array(i) * (1 + size) for i in range(3)],
                           rep.cyclic_array(), skew_hermitian=True, exact=False)
        # one off-diagonal entry moved by size: the skewness residual is size * sqrt(2)
        gen = np.array([[0, 1j], [1j, 0]])
        gen[0, 1] += size
        tilted = MatrixRep(abelian(1), 2, [gen], [1, 0], skew_hermitian=True, exact=False)
        for bad, message in ((scaled, "homomorphism law fails at pair (0, 1)"),
                             (tilted, "generator 0 is not skew-hermitian")):
            if ok:
                bad.validate()
                with pytest.raises(RepresentationError, match="not an exact representation"):
                    functional_from_rep(bad, 2)
            else:
                with pytest.raises(RepresentationError, match=re.escape(message)):
                    bad.validate()


def _scalar_residual_failure(rep, tol):
    """The error ``validate`` must raise for ``rep`` at tolerance ``tol``, or None.

    The oracle sums the residuals as Scalars, entry by entry, on the stored
    entries (a binary64 entry read as the dyadic rational it stores).
    """
    def scalar(c):
        return c if type(c) is Scalar else Scalar(Fraction(c.real), Fraction(c.imag))

    gens = [[[scalar(c) for c in row] for row in gen] for gen in rep.generators]
    n, zero, limit2 = rep.dim_V, Scalar(0), tol ** 2

    def norm2(entries):
        return sum(c.abs2() for c in entries)

    worst, worst2 = None, 0
    for i, j in itertools.combinations(range(rep.spec.dim), 2):
        A, B = gens[i], gens[j]
        resid2 = norm2(
            sum((A[r][t] * B[t][s] - B[r][t] * A[t][s] for t in range(n)), zero)
            - sum((c * gens[k][r][s] for k, c in rep.spec.bracket_of(i, j).items()), zero)
            for r in range(n) for s in range(n)
        )
        if resid2 > worst2:
            worst, worst2 = (i, j), resid2
    if worst2 > limit2:
        return f"homomorphism law fails at pair {worst}: residual {math.sqrt(worst2):.3e}"
    if rep.skew_hermitian:
        for i, gen in enumerate(gens):
            skew2 = norm2(gen[r][s].conjugate() + gen[s][r] for r in range(n) for s in range(n))
            if skew2 > limit2:
                return f"generator {i} is not skew-hermitian"
    return None
