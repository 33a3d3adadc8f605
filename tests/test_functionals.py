"""Functional tables: evaluation, components, exact norms, radius, recursion."""

import itertools
import json
import random
import re
import sys
from fractions import Fraction
from math import factorial

import pytest

from envalg import functionals, gns, lie_structure
from envalg.cli import default_config_path, parse_config
from envalg.catalog import (
    abelian,
    affine_line,
    delta_functional,
    factorial_functional,
    gaussian_functional,
    heisenberg,
    so3,
    spin_half,
    spin_one,
    spin_three_half,
)
from envalg.errors import DegreeOverflowError, RepresentationError, SpecMismatchError
from envalg.functionals import (
    BetaComponent,
    FunctionalTable,
    _symmetric_norm2,
    _symmetric_sums,
    _vertex_scales,
    _weight_pairs,
    beta_component,
    growth_diagnostics,
    insertion_constants,
    monomials_up_to,
    pnorm,
    radius_estimate,
    recursion_check,
    regular_act,
    symmetrize,
)
from envalg.gns import functional_from_rep
from envalg.lie_structure import GVector, PBWPoly, pbw_mul, pbw_reduce, star
from envalg.sampling import random_functional, random_submultiplicative_weights
from envalg.scalars import RootValue, Scalar, SqrtFraction, sqrt_leq_sqrt_plus_multiple
from rational_algebras import HEIS_3_5, RATIONAL_ALGEBRAS, SO3_HALF, SO3_SIXTH, rational_reps


HEIS = heisenberg()
SO3 = so3()


def rand_table(spec, degree, seed, complex_values=True):
    return random_functional(spec, degree, random.Random(seed), complex_values)


def scalar_eval(lam, poly):
    """``lam(poly)`` term by term in Scalars, from ``lam.value``."""
    return sum((c * lam.value(alpha) for alpha, c in poly.terms.items()), Scalar(0))


def _scaled(lam, c):
    """The exact table ``c * lam``."""
    return FunctionalTable(lam.spec, lam.max_degree, {a: c * v for a, v in lam.values.items()})


class TestEval:
    def test_unit_value(self):
        lam = rand_table(HEIS, 3, 0)
        assert lam.eval(PBWPoly.one(HEIS)) == lam.value((0, 0, 0))

    def test_linearity(self):
        lam = rand_table(HEIS, 3, 1)
        rng = random.Random(2)
        for _ in range(20):
            a = pbw_reduce(HEIS, tuple(rng.randrange(3) for _ in range(3)))
            b = pbw_reduce(HEIS, tuple(rng.randrange(3) for _ in range(2)))
            assert lam.eval(a + b) == lam.eval(a) + lam.eval(b)

    def test_reduction_is_forced(self):
        lam = rand_table(HEIS, 2, 3)
        qp = pbw_mul(PBWPoly.generator(HEIS, 1), PBWPoly.generator(HEIS, 0))
        assert lam.eval(qp) == lam.value((1, 1, 0)) - lam.value((0, 0, 1))

    def test_degree_overflow_names_monomial(self):
        lam = rand_table(HEIS, 1, 4)
        with pytest.raises(DegreeOverflowError, match="p\\*q"):
            lam.eval(PBWPoly(HEIS, {(1, 1, 0): 1}))

    def test_degree_overflow_checked_on_misses(self):
        # a sparse table: in-degree misses read as zero, over-degree ones raise
        lam = FunctionalTable(HEIS, 2, {(1, 0, 0): Scalar(3), (0, 1, 1): Scalar(-2)})
        assert lam.eval(PBWPoly(HEIS, {(1, 0, 0): 2, (0, 1, 1): 1, (0, 2, 0): 5})) == 4
        for over in ((3, 0, 0), (1, 1, 1), (0, 0, 4)):
            poly = PBWPoly(HEIS, {(1, 0, 0): 1, (0, 1, 1): 1, over: 1})
            with pytest.raises(DegreeOverflowError, match="exceeds functional degree 2"):
                lam.eval(poly)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_degree_overflow_names_the_first_monomial_beyond_the_table(self, order):
        # stored, in-degree missing and two too-high monomials, in every term order
        lam = FunctionalTable(HEIS, 2, {(1, 0, 0): Scalar(3)})
        terms = [((1, 0, 0), 1), ((0, 2, 0), 1), ((3, 0, 0), 1), ((0, 0, 4), 1)]
        poly = PBWPoly(HEIS, dict(terms[i] for i in order))
        first = next(alpha for alpha in poly.terms if sum(alpha) > 2)
        name = {(3, 0, 0): "p^3", (0, 0, 4): "z^4"}[first]
        with pytest.raises(DegreeOverflowError) as info:
            lam.eval(poly)
        assert str(info.value) == f"monomial {name} exceeds functional degree 2"

    @pytest.mark.parametrize("spec, seed", [(SO3, 6), (HEIS, 7), (SO3_SIXTH, 8), (HEIS_3_5, 9)])
    def test_matches_scalar_oracle_on_complex_elements(self, spec, seed):
        lam = rand_table(spec, 4, seed)
        rng = random.Random(seed)
        monos = monomials_up_to(spec.dim, 4)
        part = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(10):
            poly = PBWPoly(spec, {rng.choice(monos): Scalar(part(), part()) for _ in range(6)})
            assert lam.eval(poly) == scalar_eval(lam, poly)

    def test_spec_mismatch(self):
        lam = rand_table(HEIS, 2, 5)
        with pytest.raises(SpecMismatchError, match="across different Lie algebra specs"):
            lam.eval(PBWPoly.one(SO3))

    @pytest.mark.parametrize("alpha", [(-1, 2, 0), (0, 0, -1), (2,), (0, 1, 0, 0)])
    def test_multi_index_needs_dim_nonnegative_entries(self, alpha):
        # a negative index used to be stored, listed in ``values`` and ignored by every kernel
        with pytest.raises(ValueError, match=re.escape(f"multi-index {alpha} needs 3")):
            FunctionalTable(SO3, 2, {alpha: Scalar(5)})


class TestOneStore:
    """A table cannot be changed from outside: ``value``, ``eval``, ``values``
    and :func:`regular_act` keep reading the table it was built as."""

    @staticmethod
    def _reads(lam):
        spec = lam.spec
        polys = [PBWPoly.monomial(spec, alpha) for alpha in monomials_up_to(spec.dim, 2)]
        polys.append(pbw_mul(PBWPoly.generator(spec, 1), PBWPoly.generator(spec, 0)))
        acted = regular_act(lam, GVector(spec, [Scalar(1), Scalar(2, -1), Scalar(0, 3)]))
        return (
            {alpha: lam.value(alpha) for alpha in monomials_up_to(spec.dim, lam.max_degree)},
            [lam.eval(p) for p in polys],
            lam.values,
            acted.values,
        )

    def test_mutations_leave_the_table(self):
        config = json.loads(default_config_path().read_text(encoding="utf-8"))
        table = parse_config(json.dumps(config)).functionals["spin_half"]
        acted = regular_act(table, SO3.basis_vector(1))
        assert table.eval(PBWPoly.monomial(SO3, (0, 0, 2))) == Scalar(Fraction(-1, 4))
        for lam in (table, acted):
            before = self._reads(lam)
            lam.values[(0, 0, 2)] = Scalar(7)
            assert lam.value((0, 0, 2)) == before[0][(0, 0, 2)]
            assert self._reads(lam) == before
            lam.values.clear()
            assert self._reads(lam) == before
            given = lam.values
            twin = FunctionalTable(lam.spec, lam.max_degree, given)
            given[(0, 0, 2)] = Scalar(7)
            given[(1, 0, 0)] = Scalar(0, 5)
            assert self._reads(twin) == before
            assert self._reads(lam) == before

    def test_values_is_a_fresh_dict(self):
        lam = functional_from_rep(spin_half(), 4)
        assert lam.values is not lam.values
        assert lam.values == lam.values


class TestBetaComponent:
    def test_arity_zero(self):
        lam = rand_table(HEIS, 2, 6)
        comp = beta_component(lam, 0)
        assert comp.lookup(()) == lam.value((0, 0, 0))

    def test_heisenberg_order_matters(self):
        lam = rand_table(HEIS, 2, 7)
        comp = beta_component(lam, 2)
        assert comp.lookup((0, 1)) == lam.value((1, 1, 0))
        assert comp.lookup((1, 0)) == lam.value((1, 1, 0)) - lam.value((0, 0, 1))

    def test_abelian_fully_symmetric(self):
        ab = abelian(2)
        lam = rand_table(ab, 3, 8)
        for n in (2, 3):
            comp = beta_component(lam, n)
            for word in itertools.product(range(2), repeat=n):
                for perm in itertools.permutations(word):
                    assert comp.lookup(word) == comp.lookup(perm)

    def test_arity_overflow(self):
        lam = rand_table(HEIS, 2, 9)
        with pytest.raises(DegreeOverflowError):
            beta_component(lam, 3)

    @pytest.mark.parametrize("spec", [SO3, HEIS, SO3_SIXTH],
                             ids=["so3", "heisenberg", "so3-sixth"])
    def test_walk_matches_word_reductions(self, spec):
        lam = rand_table(spec, 4, 14)
        for n in range(5):
            words = list(itertools.product(range(spec.dim), repeat=n))
            values = beta_component(lam, n).values
            assert list(values) == words
            assert values == {w: lam.eval(pbw_reduce(spec, w)) for w in words}


class TestSymmetrize:
    def test_arity_one_fixed_point(self):
        lam = rand_table(SO3, 3, 10)
        comp = beta_component(lam, 1)
        sym = symmetrize(comp)
        for i in range(3):
            assert sym.lookup((i,)) == comp.lookup((i,))

    def test_heisenberg_pair(self):
        lam = rand_table(HEIS, 2, 11)
        sym = symmetrize(beta_component(lam, 2))
        expect = lam.value((1, 1, 0)) - lam.value((0, 0, 1)) * Fraction(1, 2)
        assert sym.lookup((0, 1)) == expect
        assert sym.lookup((1, 0)) == expect

    def test_is_exact_permutation_average(self):
        lam = rand_table(SO3, 3, 12)
        comp = beta_component(lam, 3)
        sym = symmetrize(comp)
        for word in itertools.product(range(3), repeat=3):
            total = Scalar(0)
            for perm in itertools.permutations(word):
                total = total + comp.lookup(perm)
            assert sym.lookup(word) == total * Fraction(1, factorial(3))

    def test_symmetric_input_is_a_fixed_point(self):
        for seed, n in ((13, 2), (14, 3)):
            sym = symmetrize(beta_component(rand_table(SO3, n, seed), n))
            again = symmetrize(sym)
            assert again.symmetric and again.values == sym.values

    def test_norm_never_grows(self):
        for seed in range(6):
            lam = rand_table(HEIS, 3, 100 + seed)
            for n in (1, 2, 3):
                comp = beta_component(lam, n)
                assert pnorm(symmetrize(comp)) <= pnorm(comp)


class TestPnorm:
    def test_one_dimensional(self):
        lam = rand_table(abelian(1), 4, 13)
        for n in range(1, 5):
            norm = pnorm(beta_component(lam, n))
            assert norm.squared == lam.value((n,)).abs2()

    def test_weight_homogeneity(self):
        lam_vals = rand_table(HEIS, 3, 14).values
        doubled = heisenberg(weights=(2, 2, 2))
        lam1 = FunctionalTable(HEIS, 3, lam_vals)
        lam2 = FunctionalTable(doubled, 3, lam_vals)
        for n in (1, 2, 3):
            n1 = pnorm(beta_component(lam1, n))
            n2 = pnorm(beta_component(lam2, n))
            assert n2.squared * Fraction(4) ** n == n1.squared

    def test_scaling_moves_norm_by_modulus_squared(self):
        lam = rand_table(SO3, 3, 15)
        c = Scalar(Fraction(3, 7), Fraction(-2, 5))
        scaled = _scaled(lam, c)
        for n in (1, 2, 3):
            base = pnorm(symmetrize(beta_component(lam, n)))
            moved = pnorm(symmetrize(beta_component(scaled, n)))
            assert moved.squared == base.squared * c.abs2()

    def test_vertex_max_dominates_random_ball_points(self):
        # 10^4 random points of the l1 ball never beat the vertex maximum
        ab = abelian(2, weights=(1, 2))
        lam = rand_table(ab, 2, 16)
        comp = beta_component(lam, 2)
        vertex = pnorm(comp)
        rng = random.Random(17)
        w = ab.weights
        for _ in range(10_000):
            # random rational point with sum w_i |v_i| <= 1, per argument slot
            def point():
                a = Fraction(rng.randint(-99, 99), 100)
                rem = (1 - abs(a) * w[0]) / w[1]
                b = Fraction(rng.randint(-99, 99), 100) * rem
                return (a, b)

            v1, v2 = point(), point()
            total = Scalar(0)
            for i, ci in enumerate(v1):
                for j, cj in enumerate(v2):
                    total = total + comp.lookup((i, j)) * (ci * cj)
            assert SqrtFraction(total.abs2()) <= vertex


class TestRadius:
    def test_factorial_growth_gives_radius_one(self):
        for N in (3, 6, 10):
            est = radius_estimate(factorial_functional(N))
            assert est.equals_rational(1)
            assert est.value == 1.0

    def test_root_tie_keeps_the_first_degree(self):
        # every per-degree root of lam(x^n) = n! equals 1; the max is the degree-1 one
        est = radius_estimate(factorial_functional(8))
        assert [n for n, _ in est.per_degree] == list(range(1, 9))
        assert all(root == RootValue(1, 1) for _, root in est.per_degree)
        assert est.best is est.per_degree[0][1]
        assert est.best.degree == 1

    def test_delta_gives_infinite_radius(self):
        est = radius_estimate(delta_functional(SO3, 4))
        assert est.is_infinite
        assert est.value == float("inf")

    def test_gaussian_roots_match_closed_form(self):
        # per-degree roots are ((2k-1)!!/(2k)!)^(1/2k), decreasing in k; the
        # truncated estimate is driven by the max root, i.e. degree 2
        est = radius_estimate(gaussian_functional(24))
        double_fact = lambda n: 1 if n <= 1 else n * double_fact(n - 2)
        roots = dict((n, r) for n, r in est.per_degree)
        prev = None
        for k in range(1, 13):
            n = 2 * k
            assert roots[2 * k - 1] is None
            got = RootValue(
                Fraction(double_fact(n - 1)) ** 2 / Fraction(factorial(n)) ** 2, n
            )
            assert roots[n].squared == got.squared and roots[n].degree == got.degree
            if prev is not None:
                assert got < prev
            prev = got
        assert est.equals_rational(Fraction(1)) is False
        # estimate = 1/max root = sqrt(2), driven by the first even degree
        assert est.best == RootValue(Fraction(1, 4), 2)
        assert abs(est.value - 2 ** 0.5) < 1e-15

    def test_estimate_reported_as_truncated(self):
        est = radius_estimate(gaussian_functional(8))
        assert "truncated" in str(est)

    def test_roots_beyond_binary64_read_as_zero_or_infinite_radii(self):
        line = abelian(1)
        # |beta_1| = 10**-700: the exact root is positive, its binary64 reading 0.0
        tiny = radius_estimate(FunctionalTable(line, 1, {(1,): Scalar(Fraction(1, 10 ** 700))}))
        assert not tiny.is_infinite and tiny.best.to_float() == 0.0
        assert tiny.value == float("inf")
        assert str(tiny).endswith(": inf")
        huge = radius_estimate(FunctionalTable(line, 1, {(1,): Scalar(10 ** 700)}))
        assert huge.best.to_float() == float("inf")
        assert huge.value == 0.0
        assert huge.equals_rational(Fraction(1, 10 ** 700))

    @pytest.mark.parametrize("r", [0, Fraction(0), -1])
    def test_estimate_is_never_zero_or_negative(self, r):
        assert radius_estimate(factorial_functional(3)).equals_rational(r) is False


class TestRegularAction:
    def test_abelian_shift(self):
        ab = abelian(2)
        lam = rand_table(ab, 3, 18)
        acted = regular_act(lam, ab.basis_vector(1))
        for alpha in monomials_up_to(2, 2):
            shifted = (alpha[0], alpha[1] + 1)
            assert acted.value(alpha) == lam.value(shifted)

    def test_degree_bookkeeping(self):
        lam = rand_table(SO3, 4, 19)
        x = SO3.basis_vector(0)
        for steps in (1, 2, 3):
            acted = lam
            for _ in range(steps):
                acted = regular_act(acted, x)
            assert acted.max_degree == 4 - steps

    def test_heisenberg_value(self):
        lam = rand_table(HEIS, 2, 20)
        acted = regular_act(lam, HEIS.basis_vector(0))
        assert acted.value((0, 1, 0)) == lam.value((1, 1, 0)) - lam.value((0, 0, 1))

    def test_rejects_degree_zero(self):
        lam = rand_table(HEIS, 0, 21)
        with pytest.raises(DegreeOverflowError):
            regular_act(lam, HEIS.basis_vector(0))


def product_route_act(lam, y):
    """The PBW-product formula ``lam(x^alpha y)`` per monomial."""
    spec = lam.spec
    ypoly = PBWPoly.from_gvector(y)
    values = {}
    for alpha in monomials_up_to(spec.dim, lam.max_degree - 1):
        mono = PBWPoly.monomial(spec, alpha)
        v = lam.eval(pbw_mul(mono, ypoly))
        if v:
            values[alpha] = v
    return values


def kernel_vectors(spec):
    """Every basis vector, a scaled basis vector, general and zero vectors."""
    q = lambda a, b=0: Scalar(Fraction(a), Fraction(b))
    out = [spec.basis_vector(i) for i in range(spec.dim)]
    out.append(spec.basis_vector(spec.dim - 1).scale(q(-3, 2)))
    out.append(GVector(spec, [q(1, 1), q(-2, 3)] + [q(1, -1)] * (spec.dim - 2)))
    # several complex coordinates, no two alike
    coords = [q(2, -1), q(Fraction(-1, 3), 3), q(0, Fraction(5, 2)), q(-4, 1)]
    out.append(GVector(spec, coords[:spec.dim]))
    out.append(GVector(spec, [q(1)] * spec.dim))
    out.append(GVector(spec, [q(0)] * spec.dim))
    return out


def moment_matrix_rows_by_products(lam, d):
    """Gram rows ``lam(star(x^alpha) x^beta)`` from plain PBW products."""
    spec = lam.spec
    monos = monomials_up_to(spec.dim, d)
    return tuple(
        tuple(
            lam.eval(pbw_mul(star(PBWPoly.monomial(spec, a)), PBWPoly.monomial(spec, b)))
            for b in monos
        )
        for a in monos
    )


KERNEL_SPECS = {"so3": SO3, "heisenberg": HEIS, "abelian": abelian(3), **RATIONAL_ALGEBRAS}


class TestRegularActionKernel:
    """The direct right action against the PBW-product formula it replaced."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
    def test_matches_product_route(self, name):
        spec = KERNEL_SPECS[name]
        for lam in (rand_table(spec, 4, 600), rand_table(spec, 4, 601), FunctionalTable(spec, 4)):
            for y in kernel_vectors(spec):
                acted = regular_act(lam, y)
                assert acted.max_degree == 3
                assert acted.values == product_route_act(lam, y)
                if y.is_zero() or not lam.values:
                    assert acted.values == {}

    @pytest.mark.parametrize("name", ["so3", "heisenberg", "so3-sixth"])
    def test_zero_coordinates_against_scalar_oracle(self, name):
        # only the nonzero coordinates of y are scattered; the oracle sums every
        # lam(x^alpha y) term by term, without eval
        spec = KERNEL_SPECS[name]
        lam = rand_table(spec, 4, 606)
        q = lambda a, b=0: Scalar(Fraction(a), Fraction(b))
        for coords in ([q(0), q(2, 1), q(0)], [q(-1, 3), q(0), q(0, Fraction(1, 2))],
                       [q(0), q(0), q(Fraction(-5, 3))]):
            y = GVector(spec, coords)
            ypoly = PBWPoly.from_gvector(y)
            want = {}
            for alpha in monomials_up_to(spec.dim, 3):
                v = scalar_eval(lam, pbw_mul(PBWPoly.monomial(spec, alpha), ypoly))
                if v:
                    want[alpha] = v
            assert regular_act(lam, y).values == want
        with pytest.raises(SpecMismatchError, match="across different Lie algebra specs"):
            regular_act(lam, abelian(3).basis_vector(0))

    def test_right_action_builds_no_products(self, monkeypatch):
        """Inside ``regular_act`` no PBW product, monomial or eval runs.

        ``moment_matrix`` evaluates its star rows with ``FunctionalTable.eval``
        itself, so there the three are forbidden only while an action runs.
        """
        lam = functional_from_rep(spin_one(), 4)
        basis = [SO3.basis_vector(i) for i in range(SO3.dim)]
        expected = [product_route_act(lam, y) for y in basis]
        expected_rows = moment_matrix_rows_by_products(lam, 2)
        depth = [0]

        def guarded(original):
            def call(*args, **kwargs):
                if depth[0]:
                    raise AssertionError("PBW product route inside the right action")
                return original(*args, **kwargs)
            return call

        def counted(*args, **kwargs):
            depth[0] += 1
            try:
                return regular_act(*args, **kwargs)
            finally:
                depth[0] -= 1

        monomial = PBWPoly.monomial.__func__
        monkeypatch.setattr(lie_structure, "pbw_mul", guarded(lie_structure.pbw_mul))
        monkeypatch.setattr(PBWPoly, "monomial", classmethod(guarded(monomial)))
        monkeypatch.setattr(FunctionalTable, "eval", guarded(FunctionalTable.eval))
        monkeypatch.setattr(gns, "regular_act", counted)
        assert [counted(lam, y).values for y in basis] == expected
        assert gns.moment_matrix(lam, 2).rows == expected_rows

    @pytest.mark.parametrize("rep, support", [(spin_one, 10), (spin_three_half, 44)],
                             ids=["spin1", "spin3half"])
    def test_sparse_weight_vector_tables(self, rep, support):
        rep = rep()
        lam = functional_from_rep(rep, 6)
        # a weight vector's matrix coefficients vanish on many of the 84 monomials
        assert len(lam.values) == support
        for y in kernel_vectors(rep.spec):
            acted = regular_act(lam, y)
            assert acted.values == product_route_act(lam, y)
            # the action of x_0 on a weight-vector table is again sparse and exact
            assert regular_act(acted, rep.spec.basis_vector(0)).values == product_route_act(
                acted, rep.spec.basis_vector(0))

    @pytest.mark.parametrize("rep", [spin_one, spin_three_half], ids=["spin1", "spin3half"])
    def test_sparse_table_reads_only_its_support_columns(self, monkeypatch, rep):
        """The scatter looks up one column per stored value and nonzero letter of y."""
        rep = rep()
        lam = functional_from_rep(rep, 6)
        support = sorted(lam._image[1])
        assert len(support) < len(monomials_up_to(3, 6))
        visited = []

        class Recording(dict):
            def get(self, key, default=None):
                visited.append(key)
                return dict.get(self, key, default)

        columns = lie_structure._columns
        monkeypatch.setattr(functionals, "_columns", lambda spec, degree: tuple(
            Recording(column) for column in columns(spec, degree)))
        for y in kernel_vectors(rep.spec):
            visited.clear()
            acted = regular_act(lam, y)
            letters = sum(1 for c in y.coeffs if c)
            assert sorted(visited) == sorted(support * letters)
            assert acted.values == product_route_act(lam, y)

    def test_columns_extend_like_a_fresh_build(self):
        """A spec that acts at degree 3 and then at degree 7 matches a fresh spec."""
        grown, fresh = so3(), so3()
        small = rand_table(grown, 4, 603)
        large = rand_table(grown, 8, 604)
        y = GVector(grown, [Scalar(1, 2), Scalar(-3), Scalar(Fraction(1, 2), 1)])
        assert regular_act(small, y).values == product_route_act(small, y)
        assert grown._column_cache[0] == 3
        acted = regular_act(large, y)
        assert grown._column_cache[0] == 7
        twin = FunctionalTable(fresh, 8, large.values)
        assert acted.values == regular_act(twin, GVector(fresh, y.coeffs)).values
        assert acted.values == product_route_act(large, y)
        # the layered columns equal the columns built in one go
        assert grown._column_cache == fresh._column_cache
        # a lower-degree action on the grown spec reads the same columns
        assert regular_act(small, y).values == product_route_act(small, y)

    def test_built_columns_need_no_right_letter_steps(self, monkeypatch):
        spec = so3()
        lam = rand_table(spec, 6, 605)
        regular_act(lam, spec.basis_vector(0))
        steps = [0]
        right_letter = lie_structure._right_letter

        def counted(*args):
            steps[0] += 1
            return right_letter(*args)

        monkeypatch.setattr(lie_structure, "_right_letter", counted)
        y = GVector(spec, [Scalar(2, 1), Scalar(0), Scalar(-1, 3)])
        acted = regular_act(lam, y)
        assert steps[0] == 0
        monkeypatch.undo()
        assert acted.values == product_route_act(lam, y)


def float_copy(rep):
    """``rep`` on complex entries: each exact entry rounded to binary64."""
    return gns.MatrixRep(
        rep.spec, rep.dim_V,
        [[[c.to_complex() for c in row] for row in gen] for gen in rep.generators],
        [c.to_complex() for c in rep.cyclic_vector],
        skew_hermitian=rep.skew_hermitian, exact=False,
    )


class TestFloatRepTables:
    """A float rep's tables read its entries as the dyadic rationals they store."""

    @pytest.mark.parametrize("name", ["spin-half-half", "spin-one-half", "spin-three-half-half"])
    def test_dyadic_rep_gives_exact_tables(self, name):
        # so3-half scales by 1 and 1/2, so every entry survives binary64
        rep = rational_reps()[name]
        lam = functional_from_rep(float_copy(rep), 4)
        assert lam.values == functional_from_rep(rep, 4).values
        assert all(type(v) is Scalar for v in lam.values.values())
        for y in kernel_vectors(rep.spec):
            assert regular_act(lam, y).values == product_route_act(lam, y)
        assert gns.moment_matrix(lam, 2).rows == moment_matrix_rows_by_products(lam, 2)

    @pytest.mark.parametrize("name", ["spin-half-sixth", "spin-one-sixth",
                                      "spin-three-half-sixth", "heisenberg-3/5"])
    def test_rounded_rep_rejected(self, name):
        # thirds and fifths round in binary64: the group side's tolerance
        # takes the copy, but its laws fail on the stored entries
        rep = float_copy(rational_reps()[name])
        rep.validate()
        with pytest.raises(RepresentationError, match="not an exact representation"):
            functional_from_rep(rep, 4)
        with pytest.raises(RepresentationError, match="not an exact representation"):
            gns.orbit_gram(rep, 2)


def brute_force_insertion_constant(lam, n):
    """Plain-loop oracle for c_n: full tables, n!-fold symmetrization, max."""
    spec = lam.spec
    best = Fraction(0)
    for k in range(1, n + 2):
        for i in range(spec.dim):
            for word in itertools.product(range(spec.dim), repeat=n):
                total = Scalar(0)
                for perm in itertools.permutations(word):
                    full = perm[: k - 1] + (i,) + perm[k - 1 :]
                    total = total + lam.eval(pbw_reduce(spec, full))
                value = total * Fraction(1, factorial(n))
                wprod = spec.weights[i]
                for l in word:
                    wprod *= spec.weights[l]
                best = max(best, value.abs2() / (wprod * wprod))
    return SqrtFraction(best)


class TestInsertionConstants:
    def test_c0_is_beta1_norm(self):
        for seed in range(4):
            lam = rand_table(SO3, 3, 300 + seed)
            assert insertion_constants(lam, 0) == pnorm(beta_component(lam, 1))

    def test_abelian_position_independent_and_bounded(self):
        ab = abelian(2)
        lam = rand_table(ab, 4, 22)
        for n in (1, 2, 3):
            c_n = insertion_constants(lam, n)
            bound = pnorm(symmetrize(beta_component(lam, n + 1)))
            assert c_n <= bound
            # position independence: inserting anywhere matches beta_{n+1}^s
            # up to the vertex weights, so c_n is attained simultaneously
            assert brute_force_insertion_constant(lam, n) == c_n

    @pytest.mark.parametrize(
        "spec, degree, seeds, complex_values, arities",
        [
            (HEIS, 5, (23, 24), True, (1, 2, 3)),
            (SO3, 4, (27, 28), False, (1, 2, 3)),
            (SO3, 3, (29, 30), True, (1, 2)),
            (SO3_SIXTH, 3, (31, 32), True, (1, 2)),
            (SO3_SIXTH, 5, (543,), True, (0, 1, 2, 3, 4)),
            (HEIS_3_5, 4, (33,), True, (1, 2, 3)),
        ],
        ids=["heisenberg", "so3-real", "so3-complex", "so3-sixth", "so3-sixth-arity-4",
             "heisenberg-3/5"],
    )
    def test_matches_exhaustive_oracle(self, spec, degree, seeds, complex_values, arities):
        for seed in seeds:
            lam = rand_table(spec, degree, seed, complex_values)
            for n in arities:
                assert insertion_constants(lam, n) == brute_force_insertion_constant(lam, n)

    def test_degree_overflow(self):
        lam = rand_table(HEIS, 2, 25)
        with pytest.raises(DegreeOverflowError):
            insertion_constants(lam, 2)


class TestRecursion:
    def test_delta_functional_trivial(self):
        report = recursion_check(delta_functional(SO3, 5), 3)
        assert report.ok
        for row in report.rows:
            assert row.c_n.is_zero()

    def test_spin_half_functional(self):
        lam = functional_from_rep(spin_half(), 6)
        report = recursion_check(lam, 3)
        assert report.ok

    def test_every_rep_functional_satisfies_recursion(self):
        for factory in (spin_half, spin_one, spin_three_half):
            lam = functional_from_rep(factory(), 5)
            assert recursion_check(lam, 3).ok

    def test_random_so3_functionals(self):
        for seed in range(10):
            lam = rand_table(SO3, 5, 400 + seed, complex_values=False)
            assert recursion_check(lam, 3).ok

    def test_rejects_bad_weights(self):
        from envalg.errors import SubmultiplicativityError

        heavy = heisenberg(weights=(1, 1, 3))
        lam = rand_table(heavy, 4, 26)
        with pytest.raises(SubmultiplicativityError):
            recursion_check(lam, 2)


def _word_route_norm(lam, n):
    return pnorm(symmetrize(beta_component(lam, n)))


def _word_route_insertion(lam, n):
    """c_n from beta_(n+1)'s word table with letter i inserted at position k."""
    spec = lam.spec
    full = beta_component(lam, n + 1).values
    best = SqrtFraction(0)
    for k in range(1, n + 2):
        for i in range(spec.dim):
            values = {
                w: full[w[: k - 1] + (i,) + w[k - 1 :]]
                for w in itertools.product(range(spec.dim), repeat=n)
            }
            best = max(best, pnorm(symmetrize(BetaComponent(spec, n, values))) / spec.weights[i])
    return best


def _word_route_rows(lam, n_max):
    """Every ``recursion_check`` row field, computed from word tables."""
    spec = lam.spec
    acted = [regular_act(lam, spec.basis_vector(i)) for i in range(spec.dim)]
    rows = []
    for n in range(1, n_max + 1):
        c_n, c_prev = _word_route_insertion(lam, n), _word_route_insertion(lam, n - 1)
        beta_next = _word_route_norm(lam, n + 1)
        ineq = sqrt_leq_sqrt_plus_multiple(c_n.squared, beta_next.squared, n, c_prev.squared)
        invariance = all(
            _word_route_norm(acted[i], n) <= c_n * spec.weights[i] for i in range(spec.dim)
        )
        rows.append((n, c_n, beta_next, c_prev, ineq, invariance))
    return rows


ORACLE_FUNCTIONALS = {
    "so3-real": lambda: rand_table(SO3, 5, 500, complex_values=False),
    "so3-complex": lambda: rand_table(SO3, 5, 501),
    "heisenberg": lambda: rand_table(HEIS, 5, 502),
    "abelian2": lambda: rand_table(abelian(2), 5, 503),
    "spin1": lambda: functional_from_rep(spin_one(), 5),
    "spin3half": lambda: functional_from_rep(spin_three_half(), 5),
    "gaussian": lambda: gaussian_functional(5),
    "so3-sixth-spin1": lambda: functional_from_rep(rational_reps()["spin-one-sixth"], 5),
    "so3-half-complex": lambda: rand_table(SO3_HALF, 5, 504),
    "heisenberg-3/5": lambda: rand_table(HEIS_3_5, 5, 505),
}


class TestMultisetRoute:
    """The multiset sums against the word tables they replace, at n <= 5."""

    @pytest.mark.parametrize("spec", [SO3, HEIS, abelian(2), SO3_SIXTH, HEIS_3_5],
                             ids=["so3", "heisenberg", "abelian2", "so3-sixth", "heisenberg-3/5"])
    def test_symmetric_sums_are_word_sums(self, spec):
        sums = _symmetric_sums(spec, 4)
        for n in range(5):
            expect = {}
            for word in itertools.product(range(spec.dim), repeat=n):
                alpha = tuple(word.count(l) for l in range(spec.dim))
                expect[alpha] = expect.get(alpha, PBWPoly.zero(spec)) + pbw_reduce(spec, word)
            # S(alpha) is a graded int table at grade n
            assert {
                a: PBWPoly(spec, {b: Fraction(c, spec.delta ** (n - sum(b))) for b, c in t.items()})
                for a, t in sums[n].items()
            } == expect

    @pytest.mark.parametrize("name", sorted(ORACLE_FUNCTIONALS))
    def test_norms_and_radius_match_word_route(self, name):
        lam = ORACLE_FUNCTIONALS[name]()
        sums = _symmetric_sums(lam.spec, 5)
        per_degree = dict(radius_estimate(lam).per_degree)
        for n in range(1, 6):
            norm = _word_route_norm(lam, n)
            assert SqrtFraction(_symmetric_norm2(lam, sums[n], n)) == norm
            if norm.is_zero():
                assert per_degree[n] is None
            else:
                assert per_degree[n] == RootValue(norm.squared / Fraction(factorial(n)) ** 2, n)

    @pytest.mark.parametrize("spec, seed, complex_values, n_max", [
        (SO3, 510, False, 3), (SO3, 511, True, 2), (HEIS, 512, True, 3),
        (SO3_SIXTH, 513, True, 2), (HEIS_3_5, 514, True, 3),
    ], ids=["so3-real", "so3-complex", "heisenberg", "so3-sixth", "heisenberg-3/5"])
    def test_recursion_rows_match_word_route(self, spec, seed, complex_values, n_max):
        lam = rand_table(spec, n_max + 1, seed, complex_values)
        got = [
            (r.n, r.c_n, r.beta_next_norm, r.c_prev, r.inequality_ok, r.invariance_ok)
            for r in recursion_check(lam, n_max).rows
        ]
        assert got == _word_route_rows(lam, n_max)

    def test_kept_sums_equal_a_fresh_build_at_every_degree(self):
        """Layers grown 2, then 5, then read at 3 equal one build per degree on fresh specs."""
        grown = so3()
        for top in (2, 5, 3, 0):
            sums = _symmetric_sums(grown, top)
            assert len(sums) == top + 1
            for n in range(top + 1):
                assert _symmetric_sums(so3(), n)[n] == sums[n]
        assert len(grown._sum_cache) == 6

    def test_second_radius_estimate_grows_no_sums(self, monkeypatch):
        grows = []
        grow = functionals._times_letters
        monkeypatch.setattr(functionals, "_times_letters",
                            lambda spec, layer: grows.append(1) or grow(spec, layer))
        lam = rand_table(so3(), 6, 537)
        first = radius_estimate(lam)
        assert len(grows) == 6
        grows.clear()
        assert radius_estimate(lam) == first
        # the other readers of the sums share the same layers
        assert insertion_constants(lam, 4) is not None
        assert recursion_check(lam, 5).rows
        growth_diagnostics(lam)
        assert grows == []

    def test_no_word_tables_on_the_hot_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("word route called")

        monkeypatch.setattr(functionals, "beta_component", forbidden)
        lam = rand_table(SO3, 4, 513)
        assert radius_estimate(lam).per_degree
        assert insertion_constants(lam, 2) is not None
        assert recursion_check(lam, 3).rows


def fraction_vertex_scale(weights, alpha):
    """``multinomial(alpha) * prod_l w_l**alpha_l`` as a Fraction."""
    multinomial = factorial(sum(alpha))
    wprod = Fraction(1)
    for w, a in zip(weights, alpha):
        multinomial //= factorial(a)
        wprod *= w ** a
    return multinomial * wprod


def layer_chain_reference(lam, n_max):
    """``[c_0, .., c_{n_max}]`` from grown ``T_{k,i}`` layers, maxed as Fractions.

    ``T_{k,i}(alpha) = S(alpha) e_i`` for ``|alpha| = k - 1`` and
    ``sum_j T_{k,i}(alpha - e_j) e_j`` beyond: one full normal-form layer per
    position, letter and arity.
    """
    spec = lam.spec
    sums = _symmetric_sums(spec, n_max)
    best = [Fraction(0)] * (n_max + 1)
    for k in range(1, n_max + 2):
        for i in range(spec.dim):
            layer = {
                alpha: lie_structure._poly_right_letter(spec, table, i)
                for alpha, table in sums[k - 1].items()
            }
            for n in range(k - 1, n_max + 1):
                if n >= k:
                    layer = functionals._times_letters(spec, layer)
                for alpha, table in layer.items():
                    scale = fraction_vertex_scale(spec.weights, alpha) * spec.weights[i]
                    best[n] = max(best[n], lam._eval_graded(table, n + 1).abs2() / scale ** 2)
    return [SqrtFraction(q) for q in best]


def _layer_route_rows(lam, n_max):
    """Every ``recursion_check`` row field from the layer chain and the full regular action."""
    spec = lam.spec
    constants = layer_chain_reference(lam, n_max)
    acted = [regular_act(lam, spec.basis_vector(i)) for i in range(spec.dim)]
    sums = _symmetric_sums(spec, n_max + 1)
    rows = []
    for n in range(1, n_max + 1):
        c_n, c_prev = constants[n], constants[n - 1]
        beta_next = SqrtFraction(_symmetric_norm2(lam, sums[n + 1], n + 1))
        ineq = sqrt_leq_sqrt_plus_multiple(c_n.squared, beta_next.squared, n, c_prev.squared)
        invariance = all(
            SqrtFraction(_symmetric_norm2(acted[i], sums[n], n)) <= c_n * spec.weights[i]
            for i in range(spec.dim)
        )
        rows.append((n, c_n, beta_next, c_prev, ineq, invariance))
    return rows


WEIGHTED_SO3 = random_submultiplicative_weights(SO3, random.Random(2))

# (spec, table degree, seed, complex values); degrees above 6 cut the shifted tables short
CHAIN_CASES = {
    "so3-real": (SO3, 6, 520, False),
    "so3-complex": (SO3, 6, 521, True),
    "so3-half": (SO3_HALF, 6, 522, True),
    "so3-sixth": (SO3_SIXTH, 6, 523, True),
    "heisenberg-3/5": (HEIS_3_5, 6, 524, True),
    "so3-weighted": (WEIGHTED_SO3, 6, 525, True),
    "abelian1": (abelian(1), 6, 526, True),
    "affine": (affine_line(), 6, 527, False),
    "so3-degree-8": (SO3, 8, 528, True),
    "heisenberg-3/5-degree-7": (HEIS_3_5, 7, 529, True),
    "affine-degree-9": (affine_line(), 9, 530, True),
}


class TestInsertionChain:
    """Shifted tables and heads against the grown ``T_{k,i}`` layers they replace."""

    def test_weighted_case_has_fractional_unequal_weights(self):
        assert len(set(WEIGHTED_SO3.weights)) > 1
        assert any(w.denominator > 1 for w in WEIGHTED_SO3.weights)

    @pytest.mark.parametrize("name", sorted(CHAIN_CASES))
    def test_insertion_constants_match_layer_chain(self, name):
        spec, degree, seed, complex_values = CHAIN_CASES[name]
        lam = rand_table(spec, degree, seed, complex_values)
        expect = layer_chain_reference(lam, 5)
        assert [insertion_constants(lam, n) for n in range(6)] == expect

    @pytest.mark.parametrize("name", ["so3-degree-8", "so3-weighted", "heisenberg-3/5-degree-7",
                                      "affine-degree-9"])
    def test_recursion_rows_match_layer_chain(self, name):
        spec, degree, seed, complex_values = CHAIN_CASES[name]
        lam = rand_table(spec, degree, seed, complex_values)
        got = [
            (r.n, r.c_n, r.beta_next_norm, r.c_prev, r.inequality_ok, r.invariance_ok)
            for r in recursion_check(lam, 5).rows
        ]
        assert got == _layer_route_rows(lam, 5)

    def test_recursion_grows_no_insertion_layers(self, monkeypatch):
        callers = []
        grow = functionals._times_letters

        def counted(spec, layer):
            callers.append(sys._getframe(1).f_code.co_name)
            return grow(spec, layer)

        monkeypatch.setattr(functionals, "_times_letters", counted)
        # a fresh spec: the sums S(alpha) are kept on the spec once grown
        lam = rand_table(so3(), 6, 531)
        assert recursion_check(lam, 5).rows
        # only the symmetric sums S(alpha) up to degree n_max are grown: the
        # beta_(n+1) values come from the shifted tables
        assert callers == ["_symmetric_sums"] * 5

    @pytest.mark.parametrize("spec", [SO3, WEIGHTED_SO3, SO3_SIXTH, heisenberg((2, 3, 6))],
                             ids=["so3", "so3-weighted", "so3-sixth", "heisenberg-weighted"])
    def test_vertex_scale_matches_fraction_formula(self, spec):
        scales = _vertex_scales(_weight_pairs(spec))
        for alpha in monomials_up_to(spec.dim, 8):
            scale2 = fraction_vertex_scale(spec.weights, alpha) ** 2
            assert scales[alpha] == (scale2.numerator, scale2.denominator)

    def test_vertex_scales_are_kept_per_weights(self):
        """Each weights tuple fills its own table; a read under one never
        reaches the table of another."""
        first = abelian(2, [Fraction(5, 7), Fraction(3, 11)])
        second = abelian(2, [Fraction(5, 7), Fraction(4, 11)])
        one, two = _vertex_scales(_weight_pairs(first)), _vertex_scales(_weight_pairs(second))
        assert one is not two
        assert _vertex_scales(_weight_pairs(abelian(2, first.weights))) is one
        before = dict(two)
        radius_estimate(rand_table(first, 5, 544))
        assert dict(two) == before
        assert one and set(one) <= set(monomials_up_to(2, 5))
        for spec, scales in ((first, one), (second, two)):
            for alpha in monomials_up_to(2, 5):
                scale2 = fraction_vertex_scale(spec.weights, alpha) ** 2
                assert scales[alpha] == (scale2.numerator, scale2.denominator)
        assert one[(1, 1)] != two[(1, 1)]

    @pytest.mark.parametrize("spec, seed", [
        (SO3, 532), (WEIGHTED_SO3, 533), (SO3_SIXTH, 534), (heisenberg((2, 3, 6)), 535),
        (abelian(1, [Fraction(3, 2)]), 536),
    ], ids=["so3", "so3-weighted", "so3-sixth", "heisenberg-weighted", "abelian1-weighted"])
    def test_integer_pnorm_matches_fraction_max(self, spec, seed):
        lam = rand_table(spec, 4, seed)
        for n in range(5):
            raw = beta_component(lam, n)
            for comp in (raw, symmetrize(raw)):
                best = Fraction(0)
                for word, v in comp.values.items():
                    wprod = Fraction(1)
                    for l in word:
                        wprod *= spec.weights[l]
                    best = max(best, v.abs2() / wprod ** 2)
                assert pnorm(comp) == SqrtFraction(best)


@pytest.mark.parametrize("wn,wd", [(1, 1), (3, 2), (2, 7)])
def test_max_ratio_matches_fraction_max(wn, wd):
    rng = random.Random(71)
    values = [(alpha, (rng.randint(-40, 40), rng.randint(-40, 40)))
              for alpha in monomials_up_to(3, 4)]
    values.append(((0, 0, 5), (0, 0)))  # a zero value never wins
    ratios = [Fraction(x * x + y * y)
              / (fraction_vertex_scale(WEIGHTED_SO3.weights, alpha) * Fraction(wn, wd)) ** 2
              for alpha, (x, y) in values]
    weights = _weight_pairs(WEIGHTED_SO3)
    num, den = functionals._max_ratio((0, 1), values, weights, wn, wd)
    assert Fraction(num, den) == max(ratios)
    # a running max above every ratio is kept as it is
    top = (max(ratios) * 2).as_integer_ratio()
    assert functionals._max_ratio(top, values, weights, wn, wd) == top


def test_growth_diagnostics_monotone():
    lam = functional_from_rep(spin_half(), 6)
    sym, raw = growth_diagnostics(lam)
    assert len(sym) == len(raw) == 7
    assert all(b >= a for a, b in zip(sym, sym[1:]))
    assert all(r >= s - 1e-12 for s, r in zip(sym, raw))


GROWTH_TABLES = {
    "spin-half": lambda: functional_from_rep(spin_half(), 6),
    "spin-one": lambda: functional_from_rep(spin_one(), 6),
    "spin-three-half": lambda: functional_from_rep(spin_three_half(), 5),
    **{f"so3-N{n}-seed{seed}": (lambda n=n, seed=seed: rand_table(SO3, n, seed))
       for n, seed in ((4, 830), (5, 831), (6, 832), (7, 833))},
}


@pytest.mark.parametrize("name", list(GROWTH_TABLES))
def test_growth_symmetric_sums_match_word_route(name):
    # the word route, kept here as the oracle of the multiset route
    lam = GROWTH_TABLES[name]()
    want, acc = [], 0.0
    for n in range(lam.max_degree + 1):
        acc += pnorm(symmetrize(beta_component(lam, n))).to_float() * (1.0 / factorial(n))
        want.append(acc)
    assert growth_diagnostics(lam)[0] == want


def test_growth_diagnostics_memoizes_only_right_letter_steps():
    spec = so3()
    growth_diagnostics(rand_table(spec, 8, 16))
    assert len(spec._right_cache) <= spec.dim * len(monomials_up_to(spec.dim, 7))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_monomials_up_to_is_graded_lexicographic(dim):
    for degree in range(6):
        every = itertools.product(range(degree + 1), repeat=dim)
        expect = sorted((a for a in every if sum(a) <= degree), key=lambda a: (sum(a), a))
        assert monomials_up_to(dim, degree) == tuple(expect)


def regular_act_levels(lam, top):
    """``levels[b][beta] = {alpha: Scalar}`` of ``mu_beta = lam(. S(beta))``, built as
    ``sum_j regular_act(mu_(beta - e_j), e_j)``: one action per parent and letter."""
    spec = lam.spec
    levels = [{(0,) * spec.dim: lam._cut(top + 1)}]
    for b in range(1, top + 1):
        sums = {}
        for gamma, table in levels[-1].items():
            for j in range(spec.dim):
                child = gamma[:j] + (gamma[j] + 1,) + gamma[j + 1:]
                target = sums.setdefault(child, {})
                for alpha, v in regular_act(table, spec.basis_vector(j)).values.items():
                    target[alpha] = target.get(alpha, Scalar(0)) + v
        levels.append({beta: FunctionalTable(spec, top + 1 - b, values)
                       for beta, values in sums.items()})
    return [{beta: table.values for beta, table in level.items()} for level in levels]


SHIFT_CASES = {
    "so3-random": lambda: rand_table(SO3, 6, 540),
    "spin1": lambda: functional_from_rep(spin_one(), 6),
    "spin3half": lambda: functional_from_rep(spin_three_half(), 6),
    "so3-sixth-random": lambda: rand_table(SO3_SIXTH, 6, 541),
    "so3-sixth-spin3half": lambda: functional_from_rep(rational_reps()["spin-three-half-sixth"], 6),
    "gaussian": lambda: gaussian_functional(6),
}


class TestShiftedLevels:
    """Each level of shifted tables, one scatter per parent, against per-(gamma, j) actions."""

    @pytest.mark.parametrize("name", sorted(SHIFT_CASES))
    @pytest.mark.parametrize("top", range(6))
    def test_levels_match_regular_act_construction(self, name, top):
        lam = SHIFT_CASES[name]()
        spec, den = lam.spec, lam._image[0]
        shifts, _ = functionals._right_shifts(lam, top)
        expect = regular_act_levels(lam, top)
        assert len(shifts) == len(expect) == top + 1
        for b, (level, want) in enumerate(zip(shifts, expect)):
            assert sorted(level) == sorted(want)
            monos = monomials_up_to(spec.dim, top + 1 - b)
            for beta, (xs, zs) in level.items():
                assert len(xs) == len(zs) == len(monos)
                # mu_beta(x^alpha) = (X + Y i) / (den * delta**(b + |alpha|))
                scales = [den * spec.delta ** (b + sum(alpha)) for alpha in monos]
                got = {alpha: Scalar(Fraction(x, d), Fraction(z, d))
                       for alpha, x, z, d in zip(monos, xs, zs, scales) if x or z}
                assert got == want[beta], (b, beta)

    @pytest.mark.parametrize("name", sorted(SHIFT_CASES))
    @pytest.mark.parametrize("top", range(6))
    def test_parts_are_right_actions_of_their_levels(self, name, top):
        """``parts[b][gamma][j]`` is ``regular_act(mu_gamma, e_j)`` on degree <= top - b."""
        lam = SHIFT_CASES[name]()
        spec, den = lam.spec, lam._image[0]
        _, parts = functionals._right_shifts(lam, top)
        levels = regular_act_levels(lam, top)
        assert len(parts) == top + 1
        for b, (split, level) in enumerate(zip(parts, levels)):
            assert sorted(split) == sorted(level)
            monos = monomials_up_to(spec.dim, top - b)
            # rho_(j, gamma)(x^alpha) = (X + Y i) / (den * delta**(b + 1 + |alpha|))
            scales = [den * spec.delta ** (b + 1 + sum(alpha)) for alpha in monos]
            for gamma, lists in split.items():
                mu = FunctionalTable(spec, top + 1 - b, level[gamma])
                assert len(lists) == spec.dim
                for j, (xs, zs) in enumerate(lists):
                    assert len(xs) == len(zs) == len(monos)
                    got = {alpha: Scalar(Fraction(x, d), Fraction(z, d))
                           for alpha, x, z, d in zip(monos, xs, zs, scales) if x or z}
                    assert got == regular_act(mu, spec.basis_vector(j)).values, (b, gamma, j)

    @pytest.mark.parametrize("name", sorted(SHIFT_CASES))
    def test_each_level_entry_is_the_sum_of_its_parents_parts(self, name):
        lam = SHIFT_CASES[name]()
        dim = lam.spec.dim
        levels, parts = functionals._right_shifts(lam, 5)
        for b in range(1, 6):
            for beta, (xs, zs) in levels[b].items():
                terms = [parts[b - 1][beta[:j] + (beta[j] - 1,) + beta[j + 1:]][j]
                         for j in range(dim) if beta[j]]
                assert xs == [sum(column) for column in zip(*(x for x, _ in terms))]
                assert zs == [sum(column) for column in zip(*(z for _, z in terms))]

    @pytest.mark.parametrize("n_max", [1, 3, 5])
    def test_levels_call_no_regular_act_and_one_scatter_per_parent(self, monkeypatch, n_max):
        lam = rand_table(SO3, 6, 542)
        expect_rows = recursion_check(lam, n_max).rows
        expect_c = insertion_constants(lam, n_max)
        acts, scatters = [0], []
        scatter = functionals._scatter

        def counted_act(*args):
            acts[0] += 1
            return regular_act(*args)

        def counted_scatter(values, targets, count):
            scatters.append(len(targets))
            return scatter(values, targets, count)

        monkeypatch.setattr(functionals, "regular_act", counted_act)
        monkeypatch.setattr(functionals, "_scatter", counted_scatter)
        # the parents mu_gamma are the multisets of degree < n_max
        parents = len(monomials_up_to(SO3.dim, n_max - 1))
        assert recursion_check(lam, n_max).rows == expect_rows
        assert acts == [0]
        assert scatters == [SO3.dim] * parents
        scatters.clear()
        assert insertion_constants(lam, n_max) == expect_c
        assert acts == [0]
        assert scatters == [SO3.dim] * parents


def _negative_degree_calls():
    rep = spin_one()
    lam = functional_from_rep(rep, 4)
    x = SO3.basis_vector(0)
    return {
        "beta_component": ("n", lambda: beta_component(lam, -1)),
        "functional_from_rep": ("N", lambda: functional_from_rep(rep, -1)),
        "insertion_constants": ("n", lambda: insertion_constants(lam, -1)),
        "radius_estimate": ("max_n", lambda: radius_estimate(lam, max_n=-1)),
        "analytic_diagnostics": ("n_max", lambda: gns.analytic_diagnostics(lam, x, -1)),
        "moment_matrix": ("d_max", lambda: gns.moment_matrix(lam, -1)),
        "gns_build": ("d_max", lambda: gns.gns_build(lam, -1)),
        "orbit_gram": ("d_max", lambda: gns.orbit_gram(rep, -1)),
        "recursion_check-0": ("n_max", lambda: recursion_check(lam, 0)),
        "recursion_check-neg": ("n_max", lambda: recursion_check(lam, -2)),
        "table": ("max_degree", lambda: FunctionalTable(SO3, -1)),
    }


def _beyond_table_calls():
    lam = functional_from_rep(spin_one(), 4)
    x = SO3.basis_vector(0)
    return {
        "beta_component": ("arity 5 exceeds functional degree 4",
                           lambda: beta_component(lam, 5)),
        "regular_act": ("regular action needs max_degree >= 1",
                        lambda: regular_act(lam._cut(0), x)),
        "insertion_constants": ("insertion constants at arity 4 need degree 5 <= 4",
                                lambda: insertion_constants(lam, 4)),
        "recursion_check": ("recursion to n=4 needs functional degree 5",
                            lambda: recursion_check(lam, 4)),
        "moment_matrix": ("moment matrix at degree 3 needs functional degree 6",
                          lambda: gns.moment_matrix(lam, 3)),
        "analytic_diagnostics": ("diagnostics to n=3 need functional degree 6",
                                 lambda: gns.analytic_diagnostics(lam, x, 3)),
    }


@pytest.mark.parametrize("call", sorted(_beyond_table_calls()))
def test_reading_beyond_the_table_degree_is_rejected(call):
    message, run = _beyond_table_calls()[call]
    with pytest.raises(DegreeOverflowError) as info:
        run()
    assert str(info.value) == message


@pytest.mark.parametrize("call", sorted(_negative_degree_calls()))
def test_degree_arguments_below_their_least_value_are_rejected(call):
    name, run = _negative_degree_calls()[call]
    least = "at least 1" if call.startswith("recursion_check") else "nonnegative"
    with pytest.raises(ValueError, match=f"^{name} must be {least}$"):
        run()
