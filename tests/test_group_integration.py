"""Matrix exponentials, kernels, Cauchy bounds and the extension round trip."""

import cmath
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import envalg

from envalg.catalog import (
    abelian,
    gaussian_char,
    gaussian_functional,
    heisenberg,
    heisenberg_rep,
    so3,
    spin_half,
    spin_one,
    spin_three_half,
)
from envalg.errors import RepresentationError, SpecMismatchError
from envalg.gns import MatrixRep, analytic_diagnostics, functional_from_rep
from envalg.group_integration import (
    GroupSample,
    _kernel_matrix,
    _quantized_vector,
    cauchy_estimate_check,
    extension_demo,
    extension_demo_table,
    local_hom_check,
    matrix_coefficient,
    matrix_exp,
    pd_kernel_check,
    sample_group,
    unitarity_residual,
)
from envalg.lie_structure import GVector, bch_in_g
from envalg.sampling import random_skew_rep
from envalg.scalars import Scalar
from rational_algebras import rational_reps


SO3 = so3()


def vec(spec, *coeffs):
    return GVector(spec, [Scalar(Fraction(c)) for c in coeffs])


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = matrix_exp(np.diag([1.0, -2.0]))
        assert np.allclose(got, np.diag([np.e, np.exp(-2.0)]))

    def test_skew_hermitian_gives_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            B = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            A = B - B.conj().T
            U = matrix_exp(A)
            assert unitarity_residual(U) <= 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_stack_equals_its_slices(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 5, 8):
            B = rng.normal(size=(7, n, n)) + 1j * rng.normal(size=(7, n, n))
            # skew-hermitian, generic, diagonal and scaled-up slices
            stack = np.concatenate([B - B.conj().transpose(0, 2, 1), B,
                                    [np.diag(np.diag(B[0]))], 9 * B[:2]])
            got = matrix_exp(stack)
            assert got.shape == stack.shape
            for A, E in zip(stack, got):
                assert E.tobytes() == matrix_exp(A).tobytes()
        nested = matrix_exp(B.reshape(7, 1, n, n))
        assert nested.tobytes() == matrix_exp(B).tobytes()

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="square"):
            matrix_exp(np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            matrix_exp(np.zeros(3))

    def test_rejects_non_finite_stack(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[2, 1, 0] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="finite"):
            matrix_exp(stack)


def _expm_cases():
    """Seeded inputs for every branch of SciPy's ``expm`` driver."""
    rng = np.random.default_rng(2)
    cases = {}
    for n in (2, 3, 5, 9, 16):
        B = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        cases[f"generic-{n}"] = B
        cases[f"small-{n}"] = 1e-4 * B
        # 1-norms far above 5.4 need squaring (s > 0), so the triangular
        # slices run Code Fragment 2.1
        cases[f"upper-{n}"] = 20 * np.triu(B)
        cases[f"lower-{n}"] = 20 * np.tril(B)
        cases[f"diagonal-{n}"] = 20 * B * np.eye(n)
        cases[f"tridiagonal-{n}"] = 20 * np.triu(np.tril(B, 1), -1)
        cases[f"skew-{n}"] = 5 * (B - B.conj().transpose(0, 2, 1))
        cases[f"real-{n}"] = 20 * B.real.astype(complex)
        negzero = 20 * np.triu(B)
        negzero[:, np.tri(n, k=-1, dtype=bool)] = -0.0
        cases[f"negzero-upper-{n}"] = negzero
        cases[f"negzero-diagonal-{n}"] = np.where(np.eye(n, dtype=bool), 20 * B, -0.0)
        cases[f"nested-{n}"] = 20 * B.reshape(3, 1, n, n)
    cases["one-by-one"] = np.array([[2.5 - 1j]])
    cases["one-by-one-stack"] = np.array([[[2.5 - 1j]], [[-0.0]]])
    cases["empty"] = np.zeros((0, 0), dtype=complex)
    cases["empty-stack"] = np.zeros((2, 0, 0), dtype=complex)
    return cases


@pytest.mark.parametrize("A", list(_expm_cases().values()), ids=list(_expm_cases()))
def test_matrix_exp_is_bit_identical_to_scipy(A):
    got, want = matrix_exp(A), scipy.linalg.expm(A)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


_SHARED_KERNELS = """
import sys
import numpy as np
{before}
from envalg.group_integration import matrix_exp
A = 7 * np.array([[1, 2j, 0], [-3, 4, 1j], [0, 0.5, -2]])
got = matrix_exp(A)
import scipy.linalg
from scipy.linalg import _matfuncs
kernels = sys.modules["scipy.linalg._matfuncs_expm"]
assert kernels.pick_pade_structure is _matfuncs.pick_pade_structure
assert kernels.pade_UV_calc is _matfuncs.pade_UV_calc
assert got.tobytes() == scipy.linalg.expm(A).tobytes()
"""


@pytest.mark.parametrize("before", ["import scipy.linalg", ""], ids=["scipy-first", "envalg-first"])
def test_scipy_linalg_shares_the_loaded_kernels(before):
    env = dict(os.environ, PYTHONPATH=str(Path(envalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SHARED_KERNELS.format(before=before)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestLocalHom:
    def test_zero_second_argument(self):
        rep = spin_half()
        x = vec(SO3, "1/2", 0, "1/3")
        zero = vec(SO3, 0, 0, 0)
        report = local_hom_check(rep, x, zero, 2,
                                 [Fraction(1, 5), Fraction(1, 10)])
        assert report.ok and report.exact

    def test_heisenberg_nilpotent_exact(self):
        rep = heisenberg_rep()
        x = vec(rep.spec, 1, 0, "1/3")
        y = vec(rep.spec, 0, 1, "-1/2")
        report = local_hom_check(
            rep, x, y, 2, [Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)]
        )
        assert report.ok and report.exact
        assert max(report.residuals) <= 1e-13

    def test_su2_truncation_orders(self):
        rep = spin_half()
        x = vec(SO3, "1/2", 0, "1/3")
        y = vec(SO3, 0, "2/5", "-1/4")
        scales = [Fraction(1, 5), Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)]
        for N in (2, 3, 4):
            report = local_hom_check(rep, x, y, N, scales)
            assert report.ok
            assert report.slope >= N + 0.5
            assert str(report).endswith(f"PASS, slope {report.slope:.3f}")

    def test_one_scale_has_no_slope_to_fit(self):
        rep = spin_half()
        x = vec(SO3, "1/2", 0, "1/3")
        y = vec(SO3, 0, "2/5", "-1/4")
        report = local_hom_check(rep, x, y, 2, [Fraction(1, 10)])
        assert report.slope is None and not report.exact and not report.ok
        assert str(report) == "local group law (N=2): FAIL, slope n/a"

    def test_one_recursion_gives_every_scales_product(self, monkeypatch):
        # Z_n is homogeneous of degree n, so sum s**n Z_n(x, y) is bch_in_g(s x, s y, N)
        from envalg import group_integration

        rep = spin_half()
        x = vec(SO3, "1/2", 0, "1/3")
        y = vec(SO3, 0, "2/5", "-1/4")
        scales = [Fraction(1, 5), Fraction(1, 10), Fraction(3, 7)]
        recursions, vectors = [], []
        terms = group_integration._bch_terms
        matrix_of = MatrixRep.matrix_of
        monkeypatch.setattr(group_integration, "_bch_terms",
                            lambda *args: recursions.append(args) or terms(*args))
        monkeypatch.setattr(MatrixRep, "matrix_of",
                            lambda self, v: vectors.append(v) or matrix_of(self, v))
        local_hom_check(rep, x, y, 5, scales)
        assert len(recursions) == 1
        assert vectors == [v for s in scales
                           for v in (x.scale(s), y.scale(s), bch_in_g(x.scale(s), y.scale(s), 5))]


    @pytest.mark.parametrize("scales", [[Fraction(1, 5), Fraction(1, 5)],
                                        [Fraction(1, 10), Fraction(1, 5), Fraction(2, 10)]])
    def test_repeated_scales_rejected(self, scales):
        # one distinct scale cannot define a slope, however often it is given
        rep = spin_half()
        x = vec(SO3, "1/2", 0, "1/3")
        y = vec(SO3, 0, "2/5", "-1/4")
        with pytest.raises(ValueError, match="distinct scales"):
            local_hom_check(rep, x, y, 4, scales)


class TestMatrixCoefficients:
    def test_identity_value(self):
        rep = spin_half()
        sample = GroupSample(rep, [np.eye(2, dtype=complex)], [()])
        assert matrix_coefficient(sample)[0] == pytest.approx(1.0)

    def test_inverse_conjugates(self):
        rep = spin_half()
        sample = sample_group(rep, 10, seed=2)
        inverses = GroupSample(
            rep, [g.conj().T for g in sample.elements], sample.words
        )
        for phi, phi_inv in zip(matrix_coefficient(sample), matrix_coefficient(inverses)):
            assert phi_inv == pytest.approx(phi.conjugate(), abs=1e-12)

    def test_su2_character_curve(self):
        rep = spin_half()
        for t in (0.2, 0.7, 1.3):
            g = matrix_exp(t * rep.generator_array(2))
            sample = GroupSample(rep, [g], [()])
            assert matrix_coefficient(sample)[0] == pytest.approx(
                cmath.exp(-0.5j * t), abs=1e-12
            )


class TestKernel:
    def test_single_element(self):
        rep = spin_half()
        sample = GroupSample(rep, [np.eye(2, dtype=complex)], [()])
        report = pd_kernel_check(sample)
        assert report.ok and report.min_eigenvalue >= 1 - 1e-12

    def test_twenty_random_elements(self):
        rep = spin_half()
        sample = sample_group(rep, 20, seed=4)
        report = pd_kernel_check(sample, tol=1e-10)
        assert report.ok

    def test_duplicates_stay_psd(self):
        rep = spin_half()
        g = matrix_exp(rep.matrix_of(vec(SO3, "1/3", "1/5", 0)))
        sample = GroupSample(rep, [g, g, np.eye(2, dtype=complex)], [(), (), ()])
        report = pd_kernel_check(sample)
        assert report.ok
        K_rank = np.linalg.matrix_rank(
            np.array([[1, 1], [1, 1]], dtype=complex)
        )
        assert K_rank == 1  # duplicated rows keep the kernel singular but PSD

    def test_rejects_non_unitary(self):
        rep = heisenberg_rep()
        g = matrix_exp(rep.matrix_of(vec(rep.spec, 1, 1, 0)))
        sample = GroupSample(rep, [g], [()])
        with pytest.raises(RepresentationError):
            pd_kernel_check(sample)

    def test_sampled_unitary_elements_are_not_checked_again(self, monkeypatch):
        from envalg import group_integration

        sample = sample_group(spin_half(), 12, seed=5)
        assert sample.unitary
        seen = []
        monkeypatch.setattr(group_integration, "unitarity_residual",
                            lambda U: seen.append(U) or 0.0)
        assert pd_kernel_check(sample).ok
        assert seen == []

    def test_hand_built_sample_of_a_skew_rep_is_still_checked(self):
        rep = spin_half()
        sampled = sample_group(rep, 3, seed=6)
        sample = GroupSample(rep, sampled.elements + [2 * np.eye(2, dtype=complex)],
                             sampled.words + [()])
        assert not sample.unitary
        with pytest.raises(RepresentationError):
            pd_kernel_check(sample)

    def test_sample_of_a_non_skew_rep_is_not_marked_unitary(self):
        sample = sample_group(heisenberg_rep(), 4, seed=1)
        assert not sample.unitary
        with pytest.raises(RepresentationError):
            pd_kernel_check(sample)


class TestCauchy:
    def test_norm_bound_at_zero(self):
        rep = spin_half()
        report = cauchy_estimate_check(rep, SO3.basis_vector(2), r=1.0, n_max=0)
        n, lhs, bound = report.rows[0]
        assert lhs == pytest.approx(1.0)
        assert bound >= lhs

    def test_su2_halving_sequence(self):
        rep = spin_half()
        report = cauchy_estimate_check(rep, SO3.basis_vector(2), r=1.0, n_max=12)
        assert report.ok
        for n, lhs, bound in report.rows:
            assert lhs == pytest.approx(2.0 ** (-n), abs=1e-12)
            assert lhs <= bound

    def test_random_skew_reps(self):
        for seed in range(6):
            rep = random_skew_rep(4, seed=seed)
            report = cauchy_estimate_check(
                rep, rep.spec.basis_vector(0), r=1.0, n_max=12
            )
            assert report.ok

    def test_requires_skew(self):
        with pytest.raises(RepresentationError):
            cauchy_estimate_check(heisenberg_rep(), vec(heisenberg_rep().spec, 1, 0, 0))

    @pytest.mark.parametrize("spec", [heisenberg(), abelian(1)])
    def test_rejects_a_vector_of_another_algebra(self, spec):
        # before, a vector of the Heisenberg algebra passed with C = 1.62
        with pytest.raises(SpecMismatchError):
            cauchy_estimate_check(spin_half(), spec.basis_vector(0))


@pytest.mark.parametrize("spec", [heisenberg(), abelian(3)])
def test_extension_rejects_a_probe_of_another_algebra(spec):
    with pytest.raises(SpecMismatchError):
        extension_demo(spin_half(), [1], [SO3.basis_vector(0), spec.basis_vector(0)])


class TestExactFloatBridge:
    """The float Cauchy rows ``||R(x)^n v||`` against the exact ``s_n^2``.

    For a skew-hermitian rep, ``||R(x)^n v||^2 = (-1)^n lam(x^(2n))`` with
    ``lam(D) = <R(D) v, v>``, which is what ``analytic_diagnostics`` computes
    exactly in U(g).
    """

    @pytest.mark.parametrize("factory", [spin_half, spin_one, spin_three_half])
    def test_cauchy_rows_square_to_exact_norms(self, factory):
        rep = factory()
        lam = functional_from_rep(rep, 12)
        for coeffs in (("1/2", "-1/3", "1/4"), ("0", "3/2", "0"), ("-2/3", "1/5", "3/4")):
            x = vec(SO3, *coeffs)
            rows = cauchy_estimate_check(rep, x, n_max=6).rows
            exact = analytic_diagnostics(lam, x, 6).s_squared
            assert [n for n, _, _ in rows] == list(range(7))
            for (n, lhs, _), s2 in zip(rows, exact):
                assert s2 > 0
                assert abs(lhs * lhs - s2) <= 1e-10 * s2


class TestExtension:
    def test_zero_probe_is_exact(self):
        rep = spin_half()
        zero = vec(SO3, 0, 0, 0)
        report = extension_demo(rep, [1], [zero])
        assert report.final_deviation <= 1e-14

    def test_no_probes_deviate_by_zero(self):
        # the CLI admits ``probes: 0``
        report = extension_demo(spin_half(), [1, 2], [])
        assert report.deviations == (0.0, 0.0) and report.ranks == (2, 2)
        assert extension_demo_table(gaussian_functional(4), [2], [], gaussian_char).deviations == (0.0,)

    def test_su2_round_trip(self):
        rep = spin_half()
        probes = [
            vec(SO3, "1/4", "-1/8", "1/5"),
            vec(SO3, 0, "1/3", "1/8"),
            vec(SO3, "-1/6", "1/10", "-1/4"),
        ]
        report = extension_demo(rep, [2, 3], probes)
        assert report.non_increasing
        assert report.final_deviation <= 1e-10
        assert report.ranks == (2, 2)

    def test_gaussian_errors_decrease(self):
        lam = gaussian_functional(16)
        times = [Fraction(t, 5) for t in range(-5, 6)]
        report = extension_demo_table(lam, [4, 6, 8], times, gaussian_char)
        assert report.deviations[0] > report.deviations[1] > report.deviations[2]
        assert report.final_deviation <= 1e-6
        assert report.ranks == (5, 7, 9)

    def test_table_variant_needs_dim_one(self):
        rep = spin_half()
        lam_su2 = None
        from envalg.gns import functional_from_rep

        lam_su2 = functional_from_rep(rep, 4)
        with pytest.raises(ValueError):
            extension_demo_table(lam_su2, [2], [Fraction(1, 2)], gaussian_char)


def _out_of_range_calls():
    rep = spin_half()
    x, y, z = vec(SO3, "1/2", 0, "1/3"), vec(SO3, 0, "2/5", "-1/4"), SO3.basis_vector(2)
    lam, times = gaussian_functional(8), [Fraction(1, 2)]
    return {
        "local-hom-zero-scale": ("scales must be positive",
                                 lambda: local_hom_check(rep, x, y, 4, [Fraction(1, 5), 0])),
        "local-hom-negative-scale": ("scales must be positive",
                                     lambda: local_hom_check(rep, x, y, 4, [Fraction(-1, 5)])),
        "local-hom-no-scales": ("scales must be nonempty",
                                lambda: local_hom_check(rep, x, y, 4, [])),
        "cauchy-r-zero": ("r must be positive and finite",
                          lambda: cauchy_estimate_check(rep, z, r=0)),
        "cauchy-r-negative": ("r must be positive and finite",
                              lambda: cauchy_estimate_check(rep, z, r=-1)),
        "cauchy-r-infinite": ("r must be positive and finite",
                              lambda: cauchy_estimate_check(rep, z, r=float("inf"))),
        "cauchy-r-nan": ("r must be positive and finite",
                         lambda: cauchy_estimate_check(rep, z, r=float("nan"))),
        "cauchy-n-max-negative": ("n_max must be nonnegative",
                                  lambda: cauchy_estimate_check(rep, z, n_max=-1)),
        "sample-count-negative": ("count must be nonnegative", lambda: sample_group(rep, -1)),
        "extension-no-degrees": ("degrees must be nonempty",
                                 lambda: extension_demo(rep, [], [])),
        "extension-degree-zero": ("degrees must be at least 1",
                                  lambda: extension_demo(rep, [0, 1], [])),
        "extension-table-no-degrees": ("degrees must be nonempty",
                                       lambda: extension_demo_table(lam, [], times, gaussian_char)),
        "extension-table-degree-zero": ("degrees must be at least 1",
                                        lambda: extension_demo_table(lam, [0], times,
                                                                     gaussian_char)),
    }


@pytest.mark.parametrize("call", sorted(_out_of_range_calls()))
def test_group_side_rejects_out_of_range_arguments(call):
    # the CLI rejects all of these at load; direct callers get a ValueError naming the argument
    message, run = _out_of_range_calls()[call]
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value) == message


def test_sampled_elements_are_unitary_with_words():
    rep = spin_half()
    sample = sample_group(rep, 15, seed=8)
    assert len(sample) == 15
    for g, word in zip(sample.elements, sample.words):
        assert unitarity_residual(g) <= 1e-10
        assert 1 <= len(word) <= 3
        for x in word:
            assert x.seminorm() <= 1


def test_sample_words_are_built_once_on_first_read(monkeypatch):
    from envalg import group_integration

    rep = spin_one()
    built = []
    factor = group_integration._factor
    monkeypatch.setattr(group_integration, "_factor", lambda *a: built.append(a) or factor(*a))
    sample = sample_group(rep, 20, seed=4)
    assert built == []
    _, eager = _sample_per_element(rep, 20, 4)
    words = sample.words
    assert words == eager
    assert len(built) == sum(map(len, eager))
    assert sample.words is words and len(built) == sum(map(len, eager))


def test_empty_sample():
    sample = sample_group(spin_one(), 0, seed=3)
    assert len(sample) == 0 and sample.words == []


def test_kernel_of_empty_sample_is_an_error():
    with pytest.raises(ValueError, match="sample is empty"):
        pd_kernel_check(sample_group(spin_one(), 0, seed=3))
    with pytest.raises(ValueError, match="sample is empty"):
        pd_kernel_check(GroupSample(spin_half(), [], []))


def _per_element_residual(U):
    """The largest ``||U^* U - 1||_F``, one ``np.linalg.norm`` per element."""
    return max((float(np.linalg.norm(g.conj().T @ g - np.eye(len(g)))) for g in U), default=0.0)


@pytest.mark.parametrize("make", [spin_half, spin_one, spin_three_half])
def test_stacked_unitarity_residual_matches_per_element_norms(make):
    rng = np.random.default_rng(9)
    for seed in range(4):
        stack = np.array(sample_group(make(), 60, seed=seed).elements)
        noisy = stack * (1 + 1e-6 * rng.normal(size=(60, 1, 1)))
        for U in (stack, noisy, stack[:1], stack[:0]):
            want = _per_element_residual(U)
            # one norm over the stack may round differently in the last bit
            assert unitarity_residual(U) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert unitarity_residual(stack[0]) == pytest.approx(_per_element_residual(stack[:1]),
                                                         rel=1e-15, abs=0.0)


def test_non_unitary_sample_is_rejected_with_its_residual(monkeypatch):
    from envalg import group_integration

    exp, residual, seen = group_integration.matrix_exp, group_integration.unitarity_residual, []
    monkeypatch.setattr(group_integration, "matrix_exp", lambda A: 1.01 * exp(A))
    monkeypatch.setattr(group_integration, "unitarity_residual",
                        lambda U: seen.append((U, residual(U))) or seen[-1][1])
    with pytest.raises(RepresentationError, match="not unitary") as info:
        sample_group(spin_one(), 12, seed=2)
    (G, got), = seen
    assert got > 1e-2 and got == pytest.approx(_per_element_residual(G), rel=1e-15, abs=0.0)
    assert str(info.value).endswith(f"residual {got:.3e}")


@pytest.mark.parametrize("max_norm", [1, Fraction(1, 2), Fraction(3, 7)])
def test_quantized_vector_matches_per_coefficient_draws(max_norm):
    for rep in [spin_half(), random_skew_rep(3, 1)] + list(rational_reps().values()):
        new, old = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(40):
            x = _quantized_vector(rep.spec, new, max_norm)
            # Scalars compare by their (a, b, d) triples, so this also checks lowest terms
            assert x == _quantized_per_coefficient(rep.spec, old, max_norm)
            assert x.seminorm() <= max_norm


# -- the stacked group side against its per-element formulas ----------------


def _quantized_per_coefficient(spec, rng, max_norm):
    """The sampler's quantizer with one draw per coefficient and a Fraction seminorm."""
    coeffs = [Fraction(int(rng.integers(-4096, 4097)), 4096) for _ in range(spec.dim)]
    x = GVector(spec, [Scalar(c) for c in coeffs])
    p = x.seminorm()
    bound = Fraction(max_norm)
    if p > bound:
        x = x.scale(Scalar(bound / p))
    return x


def _matrix_per_term(rep, x):
    """``R(x) = sum_i x_i R(e_i)`` adding one nonzero term at a time."""
    acc = np.zeros((rep.dim_V, rep.dim_V), dtype=complex)
    for i, c in enumerate(x.coeffs):
        if c:
            acc = acc + c.to_complex() * rep.generator_array(i)
    return acc


def _sample_per_element(rep, count, seed, max_factors=3, max_norm=1):
    """``sample_group`` with one ``matrix_exp`` per factor, drawn in turn."""
    rng = np.random.default_rng(seed)
    elements, words = [], []
    for _ in range(count):
        k = int(rng.integers(1, max_factors + 1))
        xs = tuple(_quantized_per_coefficient(rep.spec, rng, max_norm) for _ in range(k))
        g = np.eye(rep.dim_V, dtype=complex)
        for x in xs:
            g = g @ matrix_exp(_matrix_per_term(rep, x))
        elements.append(g)
        words.append(xs)
    return elements, words


def _kernel_per_pair(elements, v):
    """``K_ij = <g_i g_j^* v, v>`` with one product per entry."""
    n = len(elements)
    K = np.zeros((n, n), dtype=complex)
    for j, gj in enumerate(elements):
        for i, gi in enumerate(elements):
            K[i, j] = np.vdot(v, gi @ gj.conj().T @ v)
    return K


def _cauchy_rows(R, v, C, r, n_max):
    rows, w, fact = [], v.copy(), 1.0
    for n in range(n_max + 1):
        if n:
            w = R @ w
            fact *= n
        rows.append((n, float(np.linalg.norm(w)), float(np.sqrt(C) * fact * r ** (-n))))
    return rows


def _cauchy_per_point(rep, x, r, n_max, grid=8, safety=1.05):
    """``C`` and the rows of ``cauchy_estimate_check`` with one expm per point.

    The points are closed under conjugation, so the grid is the Gram matrix
    of the vectors ``exp(z_b R) v``.
    """
    R = rep.matrix_of(x)
    v = rep.cyclic_array()
    evs = [matrix_exp(r * np.exp(2j * np.pi * b / grid) * R) @ v for b in range(grid)]
    C = safety * max(abs(complex(np.vdot(eb, ea))) for ea in evs for eb in evs)
    return C, _cauchy_rows(R, v, C, r, n_max)


def _cauchy_two_grids(rep, x, r, n_max, grid=8, safety=1.05):
    """``C`` and the rows from the separate grids ``exp(z1 R) v`` and ``exp(conj(z2) R) v``."""
    R = rep.matrix_of(x)
    v = rep.cyclic_array()
    zs = [r * np.exp(2j * np.pi * b / grid) for b in range(grid)]
    e1vs = [matrix_exp(z * R) @ v for z in zs]
    e2vs = [matrix_exp(np.conj(z) * R) @ v for z in zs]
    C = safety * max(abs(complex(np.vdot(e2v, e1v))) for e1v in e1vs for e2v in e2vs)
    return C, _cauchy_rows(R, v, C, r, n_max)


def _general_vector(rep):
    """The rep with a cyclic vector whose entries all differ and are complex."""
    v = [Scalar(Fraction(k + 1, 7), Fraction(-(2 * k + 1), 9)) for k in range(rep.dim_V)]
    return MatrixRep(rep.spec, rep.dim_V, rep.generators, v, skew_hermitian=True)


def _rotated(rep):
    """``R(O e_i)`` for a rational rotation O of so(3): each generator mixes all three."""
    c, s, p, q = Fraction(3, 5), Fraction(4, 5), Fraction(5, 13), Fraction(12, 13)
    O = [[c, -s * p, s * q], [s, c * p, -c * q], [0, q, p]]  # rotation about z after x
    gens = [[[sum(O[j][i] * rep.generators[j][r][t] for j in range(3))
              for t in range(rep.dim_V)] for r in range(rep.dim_V)] for i in range(3)]
    return MatrixRep(rep.spec, rep.dim_V, gens, rep.cyclic_vector, skew_hermitian=True)


def _general_direction(spec):
    return GVector(spec, [Scalar(Fraction((-1) ** k * (k + 2), 3 * k + 5))
                          for k in range(spec.dim)])


STACKED_REPS = [
    pytest.param(make, id=name)
    for name, make in [
        ("spin-half", spin_half),
        ("spin-one", spin_one),
        ("spin-three-half", spin_three_half),
        ("spin-half-general-v", lambda: _general_vector(spin_half())),
        ("spin-one-general-v", lambda: _general_vector(spin_one())),
        ("spin-three-half-general-v", lambda: _general_vector(spin_three_half())),
        ("spin-one-rotated", lambda: _rotated(spin_one())),
        ("spin-three-half-rotated", lambda: _rotated(spin_three_half())),
    ] + [(f"skew-{size}", lambda size=size: random_skew_rep(size, 50 + size))
         for size in range(2, 16)]
]


RATIONAL_REPS = [pytest.param(lambda name=name: rational_reps()[name], id=name)
                 for name in rational_reps()]

# the group-float benchmark's spin reps, and one of size >= 8, where only a
# contiguous inner axis keeps np.vecdot on the floats of np.vdot
WORKLOAD_REPS = [
    pytest.param(make, id=name)
    for name, make in [("spin-half", spin_half), ("spin-one", spin_one),
                       ("spin-three-half", spin_three_half),
                       ("skew-12", lambda: random_skew_rep(12, 62))]
]

# seed 222 draws a zero numerator in its second sample (for three coefficients)
SAMPLE_SEEDS = (0, 1, 2, 222)


class TestStackedMatchesPerElement:
    """Stacked ``expm`` and kernel rows give the per-element floats, bit for bit."""

    @pytest.mark.parametrize("make", STACKED_REPS + RATIONAL_REPS)
    def test_sample_elements(self, make):
        rep = make()
        v = rep.cyclic_array()
        for seed in SAMPLE_SEEDS:
            sample = sample_group(rep, 12, seed=seed)
            elements, words = _sample_per_element(rep, 12, seed)
            assert [g.tobytes() for g in sample.elements] == [g.tobytes() for g in elements]
            assert sample.words == words
            if rep.skew_hermitian:
                K = _kernel_per_pair(elements, v)
                want = float(np.linalg.eigvalsh((K + K.conj().T) / 2)[0])
                assert pd_kernel_check(sample).min_eigenvalue.hex() == want.hex()

    @pytest.mark.parametrize("make", RATIONAL_REPS)
    def test_seeds_reach_both_branches_and_a_zero(self, make):
        # the reference covers unscaled and rescaled vectors and a skipped zero term
        rep = make()
        assert rep.spec.dim == 3
        xs = [x for seed in SAMPLE_SEEDS for xs in sample_group(rep, 12, seed).words
              for x in xs]
        assert any(x.seminorm() < 1 for x in xs)
        assert any(x.seminorm() == 1 for x in xs)
        assert any(not c for x in xs for c in x.coeffs)

    @pytest.mark.parametrize("make", STACKED_REPS)
    def test_kernel_matrix_and_min_eigenvalue(self, make):
        rep = make()
        v = rep.cyclic_array()
        for seed in range(3):
            sample = sample_group(rep, 12, seed=seed)
            K = _kernel_per_pair(sample.elements, v)
            assert _kernel_matrix(sample.elements, v).tobytes() == K.tobytes()
            want = float(np.linalg.eigvalsh((K + K.conj().T) / 2)[0])
            assert pd_kernel_check(sample).min_eigenvalue.hex() == want.hex()

    @pytest.mark.parametrize("make", WORKLOAD_REPS)
    def test_workload_sized_samples_and_kernels(self, make):
        # 60 elements per rep, as the group-float benchmark samples them
        rep = make()
        v = rep.cyclic_array()
        for seed in (0, 1001, 2002):
            sample = sample_group(rep, 60, seed=seed)
            elements, words = _sample_per_element(rep, 60, seed)
            assert [g.tobytes() for g in sample.elements] == [g.tobytes() for g in elements]
            assert sample.words == words
            K = _kernel_per_pair(elements, v)
            assert _kernel_matrix(sample.elements, v).tobytes() == K.tobytes()
            want = float(np.linalg.eigvalsh((K + K.conj().T) / 2)[0])
            assert pd_kernel_check(sample).min_eigenvalue.hex() == want.hex()

    @pytest.mark.parametrize("make", STACKED_REPS + RATIONAL_REPS)
    def test_matrix_coefficients(self, make):
        rep = make()
        v = rep.cyclic_array()
        sample = sample_group(rep, 60, seed=7)
        got = matrix_coefficient(sample)
        want = [complex(np.vdot(v, g @ v)) for g in sample.elements]
        assert all(type(phi) is complex for phi in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("make", WORKLOAD_REPS)
    def test_extension_truth_values(self, make, monkeypatch):
        from envalg import group_integration

        rep = make()
        v = rep.cyclic_array()
        rng = np.random.default_rng(5)
        probes = [_quantized_vector(rep.spec, rng, Fraction(1, 2)) for _ in range(8)]
        seen = []
        monkeypatch.setattr(group_integration, "_extension_report",
                            lambda degrees, build, truth: seen.append(truth))
        extension_demo(rep, [1], probes)
        (truth,) = seen
        want = [complex(np.vdot(v, matrix_exp(rep.matrix_of(x)) @ v)) for x in probes]
        assert [x for x, _ in truth] == probes
        assert np.array([phi for _, phi in truth]).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("make", STACKED_REPS)
    def test_cauchy_constant_and_rows(self, make):
        rep = make()
        for x in (rep.spec.basis_vector(rep.spec.dim - 1), _general_direction(rep.spec)):
            for r in (0.5, 1.0, 1.75):
                report = cauchy_estimate_check(rep, x, r=r, n_max=10)
                C, rows = _cauchy_per_point(rep, x, r, 10)
                assert report.C.hex() == C.hex()
                assert [(n, a.hex(), b.hex()) for n, a, b in report.rows] == \
                    [(n, a.hex(), b.hex()) for n, a, b in rows]

    @pytest.mark.parametrize("make", STACKED_REPS)
    def test_cauchy_one_grid_matches_the_two_grids(self, make):
        # conj maps the boundary points onto themselves, so both grids hold the same values
        rep = make()
        for x in (rep.spec.basis_vector(rep.spec.dim - 1), _general_direction(rep.spec)):
            for r in (0.5, 1.0, 1.75):
                report = cauchy_estimate_check(rep, x, r=r, n_max=10)
                C, rows = _cauchy_two_grids(rep, x, r, 10)
                assert abs(report.C - C) <= 1e-14 * C
                assert report.ok == (not any(lhs > bound for _, lhs, bound in rows))


def test_stacked_products_keep_the_positive_zeros_of_one_times_e(monkeypatch):
    # exp(R(-e_1)) on spin-1 has -0.0 entries, which the product 1 @ E turns into +0.0
    script = iter([1, [-4096, 0, 0], 2, [0, 0, 4096, -4096, 0, 0]])

    class Scripted:
        def integers(self, low, high, size=None):
            return np.array(next(script)) if size else next(script)

    rep = spin_one()
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Scripted())
    sample = sample_group(rep, 2)
    E1, E3 = (matrix_exp(rep.matrix_of(x)) for x in (vec(SO3, -1, 0, 0), vec(SO3, 0, 0, 1)))
    eye = np.eye(3, dtype=complex)
    assert (eye @ E1).tobytes() != E1.tobytes()
    assert [g.tobytes() for g in sample.elements] == [(eye @ E1).tobytes(),
                                                     (eye @ E3 @ E1).tobytes()]


def test_vecdot_rounds_as_vdot_only_on_a_contiguous_inner_axis():
    """The condition the stacked dot products rely on, on a kernel row of size 12.

    ``np.vecdot`` gives the floats of one ``np.vdot`` per row when the rows
    are C-contiguous, and other floats on a Fortran-ordered copy.
    """
    rep = random_skew_rep(12, 62)
    v = rep.cyclic_array()
    G = np.array(sample_group(rep, 60, seed=3).elements)
    W = (G[0] @ G.conj().transpose(0, 2, 1)) @ v
    want = np.array([np.vdot(v, w) for w in W])
    assert W.flags.c_contiguous
    assert np.vecdot(v, W).tobytes() == want.tobytes()
    assert np.vecdot(v, np.asfortranarray(W)).tobytes() != want.tobytes()


def test_cauchy_exponentiates_one_stack_of_eight(monkeypatch):
    from envalg import group_integration

    shapes = []
    monkeypatch.setattr(group_integration, "matrix_exp",
                        lambda A: shapes.append(np.shape(A)) or matrix_exp(A))
    for rep in (spin_three_half(), random_skew_rep(6, 3)):
        shapes.clear()
        cauchy_estimate_check(rep, rep.spec.basis_vector(0), r=1.5, n_max=8)
        assert shapes == [(8, rep.dim_V, rep.dim_V)]


def test_cauchy_overflow_is_an_error_not_a_verdict():
    with pytest.raises(OverflowError, match="overflows"):
        cauchy_estimate_check(spin_half(), SO3.basis_vector(2), r=1e300)


def test_cauchy_overflow_of_the_kernel_values_is_an_error_too():
    # exp(zR) v stays finite, but |<exp(z1 R) v, exp(conj(z2) R) v>| ~ 1e320 does not
    rep = spin_half()
    big = MatrixRep(rep.spec, rep.dim_V, rep.generators, [Scalar(10**160), Scalar(0)],
                    skew_hermitian=True)
    with pytest.raises(OverflowError, match="overflows"):
        cauchy_estimate_check(big, SO3.basis_vector(2))
