"""Matrix-exponential group side: local group law, kernels, Cauchy bounds.

Floating point (binary64) lives on this side of the package; the algebra
side stays exact and the two meet in the matrix-coefficient functionals.
``matrix_exp`` is the Al-Mohy--Higham scaling and squaring of
``scipy.linalg.expm``, which carries a backward error bound well below 1e-13
for the shipped sizes (<= 16).  It runs SciPy's short Python driver here and
calls SciPy's compiled Padé kernels (``pick_pade_structure``,
``pade_UV_calc``) directly, loaded from their extension file: importing
``scipy.linalg`` would also load SciPy's array-API layer (``numpy.f2py``,
``numpy.testing`` and more), which was most of a CLI run's start-up.  It
takes one matrix or a stack ``(..., n, n)`` and exponentiates a stack slice
by slice, so sampling, the Cauchy, local-group-law and extension checks make
one stacked call each (per degree) and still produce the floats of one call
per matrix.  Sampled factors are multiplied as stacks, and each kernel row
(one stacked product), the Cauchy grid and the matrix coefficients take one
``np.vecdot``, which rounds as one ``np.vdot`` per entry on these fresh
C-contiguous operands (not on Fortran-ordered ones).  The checks quantify
how well ``exp(R(x)) exp(R(y))`` matches ``exp(R(x*y))`` for the truncated
BCH product, that matrix-coefficient kernels ``(g, h) -> phi(g h^-1)`` are
positive semidefinite, the factorial derivative bounds of analytic
kernels, and the reconstruction of matrix coefficients from a truncated
GNS model.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from math import isfinite, lcm
from typing import Optional, Tuple

import numpy as np

from .errors import RepresentationError
from .functionals import _at_least
from .gns import functional_from_rep, gns_build
from .lie_structure import GVector, _bch_terms
from .scalars import Scalar, _reduced

__all__ = [
    "matrix_exp",
    "GroupSample",
    "sample_group",
    "matrix_coefficient",
    "KernelReport",
    "pd_kernel_check",
    "CauchyReport",
    "cauchy_estimate_check",
    "HomOrderReport",
    "local_hom_check",
    "ExtensionReport",
    "extension_demo",
    "extension_demo_table",
]

_UNITARY_TOL = 1e-10
_NOISE_FLOOR = 1e-12
_QUANTUM = 4096  # sampled coefficients are multiples of 1/_QUANTUM before rescaling


def _expm_kernels():
    """SciPy's compiled Padé kernels, without running ``scipy/linalg/__init__``.

    The module is registered under its own name, so a later ``import
    scipy.linalg`` shares it, and an earlier one is reused here.
    """
    name = "scipy.linalg._matfuncs_expm"
    module = sys.modules.get(name)
    if module is None:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        finder = FileFinder(os.path.join(root, "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


# numpy's and SciPy's wheels each bundle an OpenBLAS, with its own symbol suffix
_BUNDLED_OPENBLAS = (("numpy", "libscipy_openblas64_*.so", "64_"),
                     ("scipy", "libscipy_openblas*.so", ""))


def _bundled_openblas():
    """``(library, symbol suffix)`` of each bundled OpenBLAS found; SciPy is not imported."""
    found = []
    for package, pattern, suffix in _BUNDLED_OPENBLAS:
        spec = importlib.util.find_spec(package)
        if spec is None:
            continue
        site = os.path.dirname(spec.submodule_search_locations[0])
        for path in glob.glob(os.path.join(site, f"{package}.libs", pattern)):
            try:
                found.append((ctypes.CDLL(path), suffix))
            except OSError:
                pass
    return found


def _single_blas_thread():
    """One thread for each bundled OpenBLAS pool that has the setter.

    Process-wide, so only the command line's entry point calls it: on
    matrices of size <= 16 the extra threads only compete with the main one.
    """
    for library, suffix in _bundled_openblas():
        setter = getattr(library, f"scipy_openblas_set_num_threads{suffix}", None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)


def matrix_exp(A):
    """Matrix exponential of one square matrix or of a stack ``(..., n, n)``.

    This is the driver of ``scipy.linalg.expm`` in SciPy 1.17.1, branch for
    branch, around the same compiled kernels ``pick_pade_structure`` and
    ``pade_UV_calc``, so it returns the same floats; ``scipy.linalg`` is not
    imported (see the module docstring).  1x1 slices take ``np.exp``,
    diagonal ones ``exp`` of the diagonal, triangular ones recompute the
    diagonal and first off-diagonal while squaring.  Each slice is
    exponentiated on its own, so one stacked call gives the same floats as
    one call per slice.  Rejects non-square and non-finite input.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix_exp needs a square matrix or a stack of them")
    if not np.all(np.isfinite(A.view(float))):
        raise ValueError("matrix_exp needs finite entries")
    if A.size == 0:
        return np.empty_like(A)
    if A.shape[-2:] == (1, 1):
        return np.exp(A)
    # After ``expm`` in scipy/linalg/_matfuncs.py, SciPy 1.17.1 (BSD-3-Clause;
    # Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers), which
    # is Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009.  Unlike
    # SciPy the bandwidths are taken once for the whole stack.
    kernels = _expm_kernels()
    n = A.shape[-1]
    slices = A.reshape(-1, n, n)
    # lower and upper bandwidth of every slice
    below = np.arange(n)[:, None] - np.arange(n)
    nonzero = slices != 0
    lower = np.where(nonzero, below, 0).max(axis=(1, 2))
    upper = np.where(nonzero, -below, 0).max(axis=(1, 2))
    eA = np.empty_like(slices)
    Am = np.empty((5, n, n), dtype=complex)
    for k, (aw, lo, up) in enumerate(zip(slices, lower, upper)):
        if not lo and not up:
            eA[k] = np.diag(np.exp(np.diag(aw)))
            continue
        Am[0] = aw
        m, s = kernels.pick_pade_structure(Am)
        if m < 0:
            raise MemoryError(f"matrix_exp: Padé structure failed (error code {m})")
        info = kernels.pade_UV_calc(Am, m)
        if info != 0:
            raise RuntimeError(f"matrix_exp: Padé step failed (error code {info})")
        eAw = Am[0]
        if s != 0:
            if up == 0 or lo == 0:
                # Code Fragment 2.1: recompute the diagonal and the first
                # off-diagonal exactly after each squaring
                diag_aw = np.diag(aw)
                np.einsum('ii->i', eAw)[:] = np.exp(diag_aw * 2**(-s))
                sd = np.diag(aw, k=-1 if up == 0 else 1)
                for i in range(s - 1, -1, -1):
                    eAw = eAw @ eAw
                    np.einsum('ii->i', eAw)[:] = np.exp(diag_aw * 2.**(-i))
                    exp_sd = _exp_sinch(diag_aw * (2.**(-i))) * (sd * 2**(-i))
                    if up == 0:
                        np.einsum('ii->i', eAw[1:, :-1])[:] = exp_sd
                    else:
                        np.einsum('ii->i', eAw[:-1, 1:])[:] = exp_sd
            else:
                for _ in range(s):
                    eAw = eAw @ eAw
        if lo == 0:
            eA[k] = np.triu(eAw)
        elif up == 0:
            eA[k] = np.tril(eAw)
        else:
            eA[k] = eAw
    return eA.reshape(A.shape)


def _exp_sinch(x):
    """Higham's formula (10.42) for the first off-diagonal (after SciPy)."""
    lexp_diff = np.diff(np.exp(x))
    l_diff = np.diff(x)
    mask_z = l_diff == 0.
    lexp_diff[~mask_z] /= l_diff[~mask_z]
    lexp_diff[mask_z] = np.exp(x[:-1][mask_z])
    return lexp_diff


def unitarity_residual(U):
    """``||U^* U - 1||_F`` of a matrix; of a stack ``(k, n, n)``, the largest one."""
    U = np.asarray(U)
    defects = (U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1])).reshape(-1, *U.shape[-2:])
    return float(np.linalg.norm(defects, axis=(1, 2)).max(initial=0.0))


class GroupSample:
    """Group elements ``exp(R(x_1)) .. exp(R(x_k))`` tagged with their words.

    ``words`` lists each element's factors ``(x_1, .., x_k)`` as GVectors.
    It may be given as a function returning that list, which runs once, on
    the first read (:func:`sample_group` builds them so).  ``unitary`` is set
    only by :func:`sample_group`, after it checked every element unitary to
    1e-10; other samples are checked again where unitarity is needed.
    """

    def __init__(self, rep, elements, words):
        self.rep = rep
        self.elements = elements
        self._words = words
        self.unitary = False

    @cached_property
    def words(self):
        return self._words() if callable(self._words) else self._words

    def __len__(self):
        return len(self.elements)


def _quantized_vector(spec, rng, max_norm):
    """Random rational vector with seminorm <= max_norm (exact coefficients)."""
    ks = rng.integers(-_QUANTUM, _QUANTUM + 1, size=spec.dim).tolist()
    (scale,), _ = _quantized(spec, [ks], max_norm)
    return _factor(spec, ks, *scale)


def _factor(spec, ks, num, den):
    """The vector ``k * num / den`` for the int numerators ``k``, in reduced Scalars."""
    return GVector(spec, [_reduced(k * num, 0, den) for k in ks])


def _quantized(spec, rows, max_norm):
    """The vectors ``x = k / 4096`` for the rows ``k`` of int numerators,
    rescaled onto the seminorm ``max_norm`` when it lies outside: each row's
    scale ``(num, den)``, so that ``x = k * num / den`` exactly
    (:func:`_factor`), and its coefficients in binary64.

    With the weights ``W_i / L`` over their common denominator the seminorm
    is ``P / (4096 L)`` for ``P = sum W_i |k_i|``, so the test and the
    rescale are done in ints; each coefficient is read to binary64 as
    ``k * num / den`` (int true division is correctly rounded).
    """
    L = lcm(*(w.denominator for w in spec.weights))
    weights = [w.numerator * (L // w.denominator) for w in spec.weights]
    bound = Fraction(max_norm)
    scales, floats = [], []
    for ks in rows:
        P = sum(w * abs(k) for w, k in zip(weights, ks))
        if P * bound.denominator > _QUANTUM * L * bound.numerator:
            # k/4096 times bound/seminorm
            num, den = L * bound.numerator, P * bound.denominator
        else:
            num, den = 1, _QUANTUM
        scales.append((num, den))
        floats.append([k * num / den for k in ks])
    return scales, floats


def sample_group(rep, count, seed=0):
    """Sample ``count`` elements as products of one to three exponentials.

    Generating vectors are ``k / 4096`` for integer numerators
    ``|k| <= 4096``, rescaled onto seminorm 1 when outside, so runs are
    reproducible bit-for-bit for a fixed seed.  Each element draws its
    number of factors, then all their numerators in one call (the same
    stream as one draw per numerator).  All factors of the sample are built
    as one stack and exponentiated in one call, and the elements are the
    stacked products ``1 @ E_1``, then ``@ E_2``, ``@ E_3`` where there are
    such factors.  For skew-hermitian representations every element is
    checked to be unitary to 1e-10.  The words, the factors as exact
    GVectors, are built from the drawn numerators on their first read.
    """
    _at_least("count", count)
    rng = np.random.default_rng(seed)
    dim = rep.spec.dim
    rows, lengths = [], []
    for _ in range(count):
        lengths.append(int(rng.integers(1, 4)))
        ks = rng.integers(-_QUANTUM, _QUANTUM + 1, size=lengths[-1] * dim).tolist()
        rows += [ks[j:j + dim] for j in range(0, len(ks), dim)]
    scales, coeffs = _quantized(rep.spec, rows, 1)
    exps = matrix_exp(rep.matrices_of(coeffs))
    lengths = np.array(lengths, dtype=int)
    starts = np.cumsum(lengths) - lengths
    G = np.eye(rep.dim_V, dtype=complex) @ exps[starts]
    for j in (1, 2):
        longer = np.flatnonzero(lengths > j)
        G[longer] = G[longer] @ exps[starts[longer] + j]
    resid = unitarity_residual(G) if rep.skew_hermitian else 0.0
    if resid > _UNITARY_TOL:
        raise RepresentationError(f"sampled element not unitary: residual {resid:.3e}")

    def words():
        xs = [_factor(rep.spec, ks, num, den) for ks, (num, den) in zip(rows, scales)]
        return [tuple(xs[s:s + n]) for s, n in zip(starts.tolist(), lengths.tolist())]

    sample = GroupSample(rep, list(G), words)
    sample.unitary = rep.skew_hermitian
    return sample


def matrix_coefficient(sample):
    """Values ``phi(g) = <g v, v>`` for each sampled element."""
    v = sample.rep.cyclic_array()
    return np.vecdot(v, np.reshape(sample.elements, (-1, v.size, v.size)) @ v).tolist()


@dataclass(frozen=True)
class KernelReport:
    ok: bool
    size: int
    min_eigenvalue: float
    tol: float

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        return (
            f"pd kernel ({self.size} elements): {status}, "
            f"min eigenvalue {self.min_eigenvalue:.3e} >= -{self.tol:.1e}"
        )


def pd_kernel_check(sample, tol=_UNITARY_TOL):
    """Check that ``K_ij = phi(g_i g_j^-1)`` is PSD on the sample.

    Since ``K_ij = <g_j^-1 v, g_i^-1 v>`` for unitary elements, the kernel
    is a Gram matrix and PASS is mathematically guaranteed; a FAIL flags a
    numerical or implementation error.  Rejects empty and non-unitary
    samples; a sample that :func:`sample_group` already checked is not
    checked again.
    """
    if not sample.elements:
        raise ValueError("pd_kernel_check: the sample is empty")
    if not sample.unitary and unitarity_residual(sample.elements) > _UNITARY_TOL:
        raise RepresentationError("pd_kernel_check needs a unitary sample")
    K = _kernel_matrix(sample.elements, sample.rep.cyclic_array())
    vals = np.linalg.eigvalsh((K + K.conj().T) / 2)
    min_eig = float(vals[0])
    return KernelReport(min_eig >= -tol, len(K), min_eig, tol)


def _kernel_matrix(elements, v):
    """``K_ij = <g_i g_j^* v, v>``, one stacked product and one ``np.vecdot`` per row.

    ``np.vecdot`` rounds as one ``np.vdot`` per entry while the inner axis
    of its operands is contiguous, as in these fresh products (a
    Fortran-ordered stack rounds differently).  One ``(n, n, d, d)`` stack
    for all rows would give the same floats in ``n**2 d**2`` memory.
    """
    adjoints = np.array(elements).conj().transpose(0, 2, 1)
    return np.array([np.vecdot(v, (gi @ adjoints) @ v) for gi in elements])


@dataclass(frozen=True)
class CauchyReport:
    """Factorial derivative bounds ``||R(x)^n v|| <= sqrt(C) n! r^-n``."""

    ok: bool
    C: float
    r: float
    rows: Tuple[Tuple[int, float, float], ...]  # (n, lhs, bound)

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        return f"cauchy bounds (r={self.r}, C={self.C:.6g}): {status}"


def cauchy_estimate_check(rep, x, r=1.0, n_max=12):
    """Verify the derivative bounds of the analytic kernel along ``exp(tR(x))v``.

    ``C`` is the max of ``|<exp(z1 R) v, exp(conj(z2) R) v>|`` over the
    boundary points ``z_b = r e^(2 pi i b / 8)`` times a 1.05 safety
    factor.  A larger C only weakens the bound, so the finite grid keeps the
    check conservative.  The points are closed under conjugation, so
    ``{exp(conj(z) R) v}`` is the set ``{exp(z R) v}`` and the grid is the
    Gram matrix of the eight vectors ``exp(z_b R) v``, one stacked
    ``matrix_exp`` of eight slices.  Requires a skew-hermitian
    representation, a positive finite ``r`` and ``n_max >= 0``; raises
    OverflowError when ``exp(zR)v`` or ``C`` leaves binary64 on the circle.
    """
    r = float(r)
    if not (r > 0 and isfinite(r)):
        raise ValueError("r must be positive and finite")
    _at_least("n_max", n_max)
    if not rep.skew_hermitian:
        raise RepresentationError("cauchy_estimate_check needs a skew-hermitian rep")
    rep.validate()
    R = rep.matrix_of(x)
    v = rep.cyclic_array()
    zs = [r * np.exp(2j * np.pi * b / 8) for b in range(8)]
    with np.errstate(over="ignore", invalid="ignore"):
        evs = matrix_exp([z * R for z in zs]) @ v
        grid = np.abs(np.vecdot(evs, evs[:, None]))  # [a, b] = |<ev_b, ev_a>|
    if not np.isfinite(grid).all():
        raise OverflowError(f"exp(z R(x)) v overflows binary64 on |z| = {r}")
    C = float(grid.max()) * 1.05
    rows, w, fact = [], v.copy(), 1.0
    for n in range(n_max + 1):
        if n:
            w = R @ w
            fact *= n
        rows.append((n, float(np.linalg.norm(w)), float(np.sqrt(C) * fact * r ** (-n))))
    return CauchyReport(not any(lhs > bound for _, lhs, bound in rows), C, r, tuple(rows))


@dataclass(frozen=True)
class HomOrderReport:
    """Convergence-order fit for the truncated local group law."""

    ok: bool
    degree: int
    scales: Tuple[float, ...]
    residuals: Tuple[float, ...]
    slope: Optional[float]
    exact: bool

    @property
    def slope_text(self):
        """``slope 4.982``, or ``slope n/a`` with fewer than two residuals to fit."""
        return "slope n/a" if self.slope is None else f"slope {self.slope:.3f}"

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        if self.exact:
            return f"local group law (N={self.degree}): {status} (exact)"
        return f"local group law (N={self.degree}): {status}, {self.slope_text}"


def local_hom_check(rep, x, y, N, scales, min_slope=None):
    """Fit the order of ``exp(R(rx)) exp(R(ry)) - exp(R((rx) * (ry)))``.

    Scales must be exact rationals so the truncated BCH product is computed
    exactly before the single float conversion.  Its degree-n part ``Z_n``
    is homogeneous, so one BCH recursion gives every scale's product
    ``sum_n s**n Z_n(x, y)``, the vector ``bch_in_g(s x, s y, N)`` exactly.
    PASS iff the fitted log-log slope reaches ``N + 0.5`` (the defect should
    be order ``N + 1``) or all residuals sit below the noise floor, which
    happens exactly when the truncation is exact (nilpotent algebras of
    class <= N).  Scales must be positive, and there must be at least one;
    two equal scales raise ValueError: a repeated point cannot help define a
    slope.
    """
    if not scales:
        raise ValueError("scales must be nonempty")
    if min(map(Fraction, scales)) <= 0:
        raise ValueError("scales must be positive")
    if len(set(map(Fraction, scales))) < len(scales):
        raise ValueError("local_hom_check needs distinct scales")
    rep.validate()
    min_slope = (N + 0.5) if min_slope is None else min_slope
    terms = _bch_terms(x, y, N)
    mats = []
    for s in scales:
        s = Fraction(s)
        xy = sum((z.scale(s ** n) for n, z in enumerate(terms[1:], 2)), terms[0].scale(s))
        mats += [rep.matrix_of(x.scale(s)), rep.matrix_of(y.scale(s)), rep.matrix_of(xy)]
    exps = matrix_exp(mats)
    residuals = [float(np.linalg.norm(ex @ ey - exy))
                 for ex, ey, exy in zip(exps[0::3], exps[1::3], exps[2::3])]
    exact = max(residuals) <= _NOISE_FLOOR
    pairs = [] if exact else [
        (float(np.log(float(Fraction(s)))), float(np.log(e)))
        for s, e in zip(scales, residuals)
        if e > 0
    ]
    slope = None
    if len(pairs) >= 2:
        xs_log = np.array([p[0] for p in pairs])
        ys_log = np.array([p[1] for p in pairs])
        slope = float(np.polyfit(xs_log, ys_log, 1)[0])
    ok = exact or (slope is not None and slope >= min_slope)
    return HomOrderReport(ok, N, tuple(float(Fraction(s)) for s in scales),
                          tuple(residuals), slope, exact)


@dataclass(frozen=True)
class ExtensionReport:
    """Reconstruction error of matrix coefficients from truncated GNS models.

    ``deviations[d]`` is the max over probes of ``|phi_tilde - phi|`` where
    ``phi_tilde(exp x) = <exp(A_d(x)) [1], [1]>`` uses the projected GNS
    operator at degree d.  The error must not increase as d grows.
    """

    degrees: Tuple[int, ...]
    deviations: Tuple[float, ...]
    ranks: Tuple[int, ...]

    @property
    def non_increasing(self):
        return all(
            b <= a for a, b in zip(self.deviations, self.deviations[1:])
        )

    @property
    def final_deviation(self):
        return self.deviations[-1]

    def __str__(self):
        pairs = ", ".join(
            f"d={d}: {e:.3e}" for d, e in zip(self.degrees, self.deviations)
        )
        trend = "non-increasing" if self.non_increasing else "INCREASING"
        return f"extension demo [{pairs}] ({trend})"


def _extension_report(degrees, build, probes):
    """Per degree d, the max over ``(x, phi)`` in ``probes`` of the model's error.

    ``build(d)`` is the truncated GNS model at degree d, and ``phi`` the value
    at ``exp x`` that it should reconstruct.  ``degrees`` must be nonempty
    and at least 1 each.
    """
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("degrees must be nonempty")
    _at_least("degrees", min(degrees), 1)
    deviations = []
    ranks = []
    for d in degrees:
        model = build(d)
        vac = model.vacuum
        exps = matrix_exp([model.operator(x) for x, _ in probes]) if probes else []
        worst = 0.0
        for E, (_, phi) in zip(exps, probes):
            worst = max(worst, abs(complex(vac.conj() @ (E @ vac)) - phi))
        deviations.append(worst)
        ranks.append(model.quotient_rank)
    return ExtensionReport(degrees, tuple(deviations), tuple(ranks))


def extension_demo(rep, degrees, probes):
    """Reconstruct ``phi(exp x) = <exp(R(x)) v, v>`` from truncated GNS models.

    For each degree d the functional table of the representation at degree
    2d is the local germ; its GNS model exponentiates the projected
    generator matrices.  The max deviation over the probes must not grow
    with d.
    """
    rep.validate()
    if not rep.skew_hermitian:
        raise RepresentationError("extension_demo needs a skew-hermitian rep")
    v = rep.cyclic_array()
    exps = matrix_exp(rep.matrices_of([x.coeffs for x in probes]))
    truth = list(zip(probes, np.vecdot(v, exps @ v).tolist()))
    return _extension_report(
        degrees, lambda d: gns_build(functional_from_rep(rep, 2 * d), d), truth
    )


def extension_demo_table(lam, degrees, times, truth_fn):
    """One-dimensional variant driven by an exact moment table.

    For g = R there is no finite matrix model; the functional table itself
    is the germ and ``truth_fn`` supplies the closed-form function being
    reconstructed, e.g. ``exp(-t^2/2)`` for the Gaussian moments.
    """
    if lam.spec.dim != 1:
        raise ValueError("table-driven demo is for one-dimensional g")
    degrees = tuple(degrees)
    for d in degrees:
        if 2 * d > lam.max_degree:
            raise ValueError(
                f"functional degree {lam.max_degree} too small for degree {d}"
            )
    truth = [
        (GVector(lam.spec, [Scalar(Fraction(t))]), truth_fn(float(Fraction(t))))
        for t in times
    ]
    return _extension_report(degrees, lambda d: gns_build(lam, d), truth)
