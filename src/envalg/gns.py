"""Positivity, moment matrices and truncated GNS models.

``MatrixRep`` wraps concrete matrix generators of a Lie algebra (exact
Gaussian-rational or binary64 entries) with a cyclic vector; it generates
functionals ``lam(x^alpha) = <R(x^alpha) v, v>`` that are positive by
construction.  ``moment_matrix`` (stored as its integer image) and
``psd_check`` certify positivity up to a degree; ``gns_build`` quotients
out the null space of the Gram form and represents left multiplication by
the generators as matrices from the degree ``d-1`` span into the degree
``d`` span, where skewness is exactly assertable.

Everything from the functional on is exact.  A binary64 entry is a dyadic
rational, so a float representation is read as the exact one it stores,
and its functional is exact too (:func:`functional_from_rep` rejects one
whose stored entries break the laws).  The laws of every representation
are decided once, on Gaussian integers: the exact squared residuals of the
stored entries, compared with 0, or with 1e-10 squared for a float rep on
the group side.  One fraction-free LDL* kernel over the Gaussian integers
(:class:`_Ldl`), which reads the moment matrix's image as it is, gives both
certificates: the PSD test pivots on the largest diagonal entry (no square
roots are needed to decide semidefiniteness, and a failed test returns a
witness vector with exact entries), and the GNS model's Gram–Schmidt is the
same factorization in monomial order, which certifies positivity on its
own, so ``gns_build`` factors its matrix once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial, inf, lcm, sqrt
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    HermitianError,
    PositivityError,
    RepresentationError,
)
from .functionals import (
    FunctionalTable,
    _at_least,
    _reciprocal,
    _root_test,
    _within,
    monomials_up_to,
    radius_estimate,
    regular_act,
)
from .lie_structure import _acc_pair, _check_same_spec, _normal_form, _star_monomial, _word_of_alpha
from .scalars import (
    ONE,
    ZERO,
    RootValue,
    Scalar,
    _int_pairs,
    _reduced,
    as_scalar,
    fraction_root_float,
)

__all__ = [
    "MatrixRep",
    "functional_from_rep",
    "orbit_gram",
    "MomentMatrix",
    "moment_matrix",
    "PsdReport",
    "psd_check",
    "GnsModel",
    "gns_build",
    "AnalyticReport",
    "analytic_diagnostics",
]


# a float rep's residual norms count as zero up to this (the group side's test)
_FLOAT_TOL = 1e-10


def _matrix(rows, size):
    out = []
    for row in rows:
        row = tuple(map(as_scalar, row))
        if any(c is NotImplemented for c in row) or len(row) != size:
            raise ValueError("bad matrix row")
        out.append(row)
    if len(out) != size:
        raise ValueError("matrix must be square")
    return tuple(out)


def _binary64(values, shape, bad_shape):
    """Finite entries as one read-only C-contiguous complex128 array of ``shape``.

    A Scalar is read by its value; a wrong shape raises ``ValueError(bad_shape)``.
    """
    arr = np.array(values, dtype=complex, order="C")
    if arr.shape != shape:
        raise ValueError(bad_shape)
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"non-finite entry {complex(arr[~finite][0])!r}")
    arr.flags.writeable = False
    return arr


def _int_entries(entries, exact):
    """Entries over one denominator: ``(den, [(A, B), ..])``, entry k ``(A_k + B_k i) / den``.

    A binary64 complex is read as the dyadic rational it stores: each part's
    ``float.as_integer_ratio``, over the lcm of their (power-of-two)
    denominators, the least common one.
    """
    if exact:
        return _int_pairs(entries)
    ratios = [x.as_integer_ratio() for x in np.array(entries, dtype=complex).view(float).tolist()]
    den = lcm(*[q for _, q in ratios])
    ints = [p * (den // q) for p, q in ratios]
    return den, list(zip(ints[0::2], ints[1::2]))


def _int_vector(vec, exact):
    """Entries as ``(den, re, im)``: entry k is ``(re[k] + im[k] i) / den``."""
    den, pairs = _int_entries(vec, exact)
    return den, [a for a, _ in pairs], [b for _, b in pairs]


def _int_matvec(mat, vec):
    """``M u`` for ``mat = (den, rows)`` (rows of nonzero ``(j, A, B)``) and an int vector."""
    den_m, rows = mat
    den, xr, xi = vec
    yr, yi = [], []
    for row in rows:
        r = i = 0
        for j, a, b in row:
            u, w = xr[j], xi[j]
            r += a * u - b * w
            i += a * w + b * u
        yr.append(r)
        yi.append(i)
    return den_m * den, yr, yi


def _int_inner(u, v):
    """``<u, v> = sum conj(v_i) u_i`` of two int vectors, as one Scalar."""
    du, ur, ui = u
    dv, vr, vi = v
    x = y = 0
    for a, b, c, d in zip(ur, ui, vr, vi):
        x += c * a + d * b
        y += c * b - d * a
    return _reduced(x, y, du * dv)


def _skew_residual2(gen, exact):
    """Exact squared Frobenius norm of ``X^* + X`` for the stored entries ``X``.

    Negation and conjugation are exact and stored values (Scalars, or the
    dyadic rationals of binary64) compare equal exactly when equal, so ``X !=
    -X^*`` marks exactly the nonzero residual entries ``conj(X[s][r]) +
    X[r][s]``; only those are read as ints, none for a skew generator.
    """
    A = np.asarray(gen)
    rows, cols = np.nonzero(A != -A.conj().T)
    if not rows.size:
        return Fraction(0)
    den, pairs = _int_entries(np.concatenate((A[rows, cols], A[cols, rows])), exact)
    total = sum((a + c) ** 2 + (b - d) ** 2
                for (a, b), (c, d) in zip(pairs[:len(rows)], pairs[len(rows):]))
    return Fraction(total, den * den)


class MatrixRep:
    """Matrix generators ``R(e_i)`` with a cyclic vector.

    ``exact`` reps hold Gaussian-rational entries, each matrix a tuple of
    rows of Scalars.  Float reps hold finite binary64 entries, one read-only
    C-contiguous complex128 array per generator and one for the cyclic
    vector; the group side reads those arrays as they are, and the algebra
    side reads them as the dyadic rationals they store, built only when it
    asks (:attr:`_int_generators`).  The cyclic vector must not be zero.
    :meth:`validate` checks the homomorphism law ``[R(e_i), R(e_j)] = sum
    c_ijk R(e_k)`` and, when ``skew_hermitian`` is set, ``R(e_i)^* = -R(e_i)``.
    """

    def __init__(self, spec, dim_V, generators, cyclic_vector, *, skew_hermitian,
                 exact=True, name=None):
        if len(generators) != spec.dim:
            raise ValueError(f"expected {spec.dim} generators")
        self.spec = spec
        self.dim_V = dim_V
        self.skew_hermitian = skew_hermitian
        self.exact = exact
        self.name = name
        if exact:
            self.generators = tuple(_matrix(g, dim_V) for g in generators)
            vec = tuple(map(as_scalar, cyclic_vector))
            if len(vec) != dim_V or any(c is NotImplemented for c in vec):
                raise ValueError("bad cyclic vector")
        else:
            self.generators = tuple(_binary64(g, (dim_V, dim_V), "matrix must be square")
                                    for g in generators)
            vec = _binary64(cyclic_vector, (dim_V,), "bad cyclic vector")
        if not any(vec):
            raise ValueError("the cyclic vector is zero")
        self.cyclic_vector = vec

    # -- numeric views -----------------------------------------------------

    @cached_property
    def _generator_arrays(self):
        """The generators as read-only complex arrays: a float rep's own store,
        an exact rep's read from its Scalars on first use."""
        if not self.exact:
            return self.generators
        return tuple(_binary64(gen, (self.dim_V,) * 2, "matrix must be square")
                     for gen in self.generators)

    @cached_property
    def _int_generators(self):
        """Each generator as ``(den, rows)``: the nonzero ``(j, A, B)`` of each
        row, with entry ``(A + B i) / den`` (a float entry read exactly)."""
        n = self.dim_V
        out = []
        for gen in self.generators:
            den, pairs = _int_entries([c for row in gen for c in row], self.exact)
            out.append((den, [[(j, a, b) for j, (a, b) in enumerate(pairs[r * n:r * n + n])
                               if a or b] for r in range(n)]))
        return tuple(out)

    def generator_array(self, i):
        """``R(e_i)`` as a read-only complex array."""
        return self._generator_arrays[i]

    def cyclic_array(self):
        """The cyclic vector as a complex array (a float rep's read-only store)."""
        return np.array(self.cyclic_vector, dtype=complex) if self.exact else self.cyclic_vector

    def matrix_of(self, x):
        """Complex matrix of ``R(x)`` for a vector x of the rep's own algebra."""
        _check_same_spec(x.spec, self.spec, "matrix of a vector")
        return self.matrices_of([x.coeffs])[0]

    def matrices_of(self, coeffs):
        """The stack of ``R(x)``, one per row of an ``(n, dim)`` coefficient array.

        Generator ``i`` adds ``c_i R(e_i)`` to the rows where ``c_i`` is
        nonzero, so every matrix is the sum of its own nonzero terms in basis
        order and gets the floats it would get alone.  Rows of another width
        raise ValueError (an empty list is an empty stack).
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[1:] != (self.spec.dim,) and coeffs.shape != (0,):
            raise ValueError(f"matrices_of needs rows of {self.spec.dim} coefficients, "
                             f"got shape {coeffs.shape}")
        acc = np.zeros((len(coeffs), self.dim_V, self.dim_V), dtype=complex)
        for col, gen in zip(coeffs.T, self._generator_arrays):
            rows = np.flatnonzero(col)
            acc[rows] += col[rows, None, None] * gen
        return acc

    # -- validation ---------------------------------------------------------

    @cached_property
    def _residual_norms2(self):
        """Exact squared Frobenius norms of the stored entries' law residuals.

        ``(laws, skews)``: ``laws[(i, j)]`` for ``i < j`` is the norm of
        ``[R(e_i), R(e_j)] - sum_k c_ijk R(e_k)`` and ``skews[i]`` that of
        ``R(e_i)^* + R(e_i)`` (empty unless the rep is flagged skew-hermitian).
        With ``R(e_i) = X_i / d_i`` and ``c_ijk = C_k / q_k``, ``L d_i d_j``
        times the law residual is ``L (X_i X_j - X_j X_i) - d_i d_j sum_k
        C_k (L / (q_k d_k)) X_k`` for ``L = lcm_k(q_k d_k)``, an integer
        matrix whose rows are summed sparsely.  Only the law reads the int
        generators.
        """
        laws = {}
        for i, j in combinations(range(self.spec.dim), 2):
            gens = self._int_generators
            (di, X), (dj, Y) = gens[i], gens[j]
            bracket = self.spec.bracket_of(i, j).items()
            L = lcm(*(c.d * gens[k][0] for k, c in bracket))
            weights = [(gens[k][1], di * dj * c.a * (L // (c.d * gens[k][0])))
                       for k, c in bracket]
            total = 0
            for r in range(self.dim_V):
                acc = {}
                for P, Q, sign in ((X, Y, L), (Y, X, -L)):
                    for t, a, b in P[r]:
                        for s, c, d in Q[t]:
                            _acc_pair(acc, s, sign * (a * c - b * d), sign * (a * d + b * c))
                for rows, w in weights:
                    for s, a, b in rows[r]:
                        _acc_pair(acc, s, -w * a, -w * b)
                total += sum(a * a + b * b for a, b in acc.values())
            laws[(i, j)] = Fraction(total, (L * di * dj) ** 2)
        skews = [_skew_residual2(gen, self.exact)
                 for gen in (self.generators if self.skew_hermitian else ())]
        return laws, skews

    def validate(self):
        """Check the commutation law (and skewness if flagged); raise on failure.

        Every verdict reads :attr:`_residual_norms2`, the exact residuals of
        the stored entries.  ``exact`` picks the tolerance: a residual counts
        as zero when its Frobenius norm is exactly 0, or at most 1e-10 for a
        float rep (the group side's test; :func:`functional_from_rep` asks
        for 0).  A failure names the first pair with the worst residual, or
        the first non-skew generator.
        """
        laws, skews = self._residual_norms2
        limit2 = 0 if self.exact else _FLOAT_TOL ** 2
        worst = max(laws, key=laws.get, default=None)
        if worst is not None and laws[worst] > limit2:
            raise RepresentationError(
                f"homomorphism law fails at pair {worst}: "
                f"residual {fraction_root_float(laws[worst], 2):.3e}"
            )
        for i, resid2 in enumerate(skews):
            if resid2 > limit2:
                raise RepresentationError(f"generator {i} is not skew-hermitian")

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"MatrixRep({'exact' if self.exact else 'float'}{label}, dim_V={self.dim_V})"


def _validate_exactly(rep):
    """Validate ``rep``; a float rep must also obey its laws exactly as stored."""
    rep.validate()
    laws, skews = rep._residual_norms2
    if any(laws.values()) or any(skews):
        raise RepresentationError(
            f"the binary64 entries of {rep!r} are not an exact representation"
        )


def functional_from_rep(rep, N):
    """The matrix-coefficient functional ``lam(x^alpha) = <R(x^alpha) v, v>``.

    Always exact: a float representation is read as the dyadic rationals it
    stores, and must satisfy its laws exactly on them, else
    :class:`RepresentationError`.  These are the designated generators of
    known-good positive functionals: positivity holds by construction since
    ``lam(D^* D) = ||R(D) v||^2``.
    """
    _at_least("N", N)
    _validate_exactly(rep)
    vecs = _orbit_vectors(rep, monomials_up_to(rep.spec.dim, N))
    v0 = vecs[(0,) * rep.spec.dim]
    return FunctionalTable(rep.spec, N, {alpha: _int_inner(w, v0) for alpha, w in vecs.items()})


def _peel(monos, base, step):
    """``{alpha: value}`` over the degree-ordered ``monos`` by peeling letters.

    The value at 0 is ``base``; otherwise ``step(i, value at alpha - e_i)``
    for the first (smallest) letter i of ``x^alpha``.
    """
    out = {}
    for alpha in monos:
        if not any(alpha):
            out[alpha] = base
            continue
        i = next(idx for idx, a in enumerate(alpha) if a)
        prev = list(alpha)
        prev[i] -= 1
        out[alpha] = step(i, out[tuple(prev)])
    return out


def _orbit_vectors(rep, monos):
    """``R(x^alpha) v`` for each alpha: ``R(x^alpha) = R(e_i) R(x^(alpha - e_i))``.

    The results are int vectors, one denominator per vector (the cyclic
    vector's times the generators' along the peeled letters).
    """
    gens = rep._int_generators
    base = _int_vector(rep.cyclic_vector, rep.exact)
    return _peel(monos, base, lambda i, v: _int_matvec(gens[i], v))


def orbit_gram(rep, d_max):
    """Exact Gram matrix ``<R(x^beta) v, R(x^alpha) v>`` of the monomial orbit.

    For a skew-hermitian representation on exact entries this must equal the
    GNS Gram of the matrix-coefficient functional entry for entry, which is
    the round-trip fidelity check between the two constructions.  The Gram
    is hermitian, so the lower triangle is the conjugate of the upper one.
    """
    _at_least("d_max", d_max)
    _validate_exactly(rep)
    monos = monomials_up_to(rep.spec.dim, d_max)
    vecs = _orbit_vectors(rep, monos)
    vs = [vecs[alpha] for alpha in monos]
    rows = [[None] * len(vs) for _ in vs]
    for a, u in enumerate(vs):
        rows[a][a] = _int_inner(u, u)
        for b in range(a + 1, len(vs)):
            rows[a][b] = _int_inner(vs[b], u)
            rows[b][a] = rows[a][b].conjugate()
    return tuple(map(tuple, rows))


class MomentMatrix:
    """Gram table ``M[a][b] = lam((x^alpha_a)^* x^beta_b) = (re[a][b] + im[a][b] i) / den``."""

    __slots__ = ("spec", "d_max", "monomials", "_image", "hermitian")

    def __init__(self, spec, d_max, monomials, image):
        self.spec = spec
        self.d_max = d_max
        self.monomials = monomials
        self._image = image
        self.hermitian = _exactly_hermitian(image)

    @property
    def size(self):
        return len(self.monomials)

    @property
    def rows(self):
        den, re, im = self._image
        return tuple(tuple(map(_reduced, xs, ys, [den] * len(xs))) for xs, ys in zip(re, im))

    def to_array(self):
        return np.array([[c.to_complex() for c in row] for row in self.rows], dtype=complex)

    def __repr__(self):
        return (
            f"MomentMatrix(size={self.size}, d_max={self.d_max}, "
            f"hermitian={self.hermitian})"
        )


def _exactly_hermitian(image):
    """``M[a][b] == conj(M[b][a])`` everywhere, compared on the integer image."""
    _, re, im = image
    return re == [list(col) for col in zip(*re)] and im == [[-y for y in col] for col in zip(*im)]


def moment_matrix(lam, d_max):
    """Hermitian Gram matrix of the monomials of degree <= d_max under lam.

    Requires ``2*d_max <= lam.max_degree``.  Hermitianness (equivalent to
    ``lam(D^*) = conj(lam(D))``) is checked exactly and reported on the
    result, not enforced.  Its one store is the int image ``(den, re, im)``:
    column b scatters ``T_beta = lam(. x^beta)``, over ``lam``'s denominator
    times ``delta**|beta|``, into the star rows, lifted to ``delta**(2 d_max)``.
    """
    _at_least("d_max", d_max)
    _within(lam, 2 * d_max, f"moment matrix at degree {d_max} needs functional degree {2 * d_max}")
    spec = lam.spec
    monos = monomials_up_to(spec.dim, d_max)
    # T_beta(D) = lam(D x^beta), one right regular action per peeled letter;
    # T_beta is read on degree <= d_max only, so the chain starts from lam cut at 2 d_max
    basis = [spec.basis_vector(i) for i in range(spec.dim)]
    start = lam._cut(2 * d_max)
    tables = _peel(monos, start, lambda i, t: regular_act(t, basis[i])).values()
    lift = [spec.delta ** (d_max - sum(alpha)) for alpha in monos]
    uses = {}   # x^b -> (row, lifted coefficient) of each star row that holds it
    for a, (alpha, s) in enumerate(zip(monos, lift)):
        for b, c in _star_monomial(spec, alpha).items():
            uses.setdefault(b, []).append((a, c * s))
    re, im = [[0] * len(monos) for _ in monos], [[0] * len(monos) for _ in monos]
    for col, (table, t) in enumerate(zip(tables, lift)):
        for alpha, (x, y) in table._image[1].items():
            for a, c in uses.get(alpha, ()):
                re[a][col] += c * t * x
                im[a][col] += c * t * y
    den = start._image[0] * spec.delta ** (2 * d_max)
    return MomentMatrix(spec, d_max, monos, (den, re, im))


class PsdReport(NamedTuple):
    """Outcome of the exact positive-semidefiniteness certificate.

    ``pivots`` holds the rational pivots of the hermitian LDL*
    factorization, all > 0; ``rank`` is their number.  On FAIL,
    ``witness`` is a vector u of exact Scalars with ``<Mu, u> < 0``, which
    is ``witness_value``.
    """

    ok: bool
    size: int
    rank: int
    pivots: Tuple[Fraction, ...]
    witness: Optional[tuple] = None
    witness_value: Optional[Scalar] = None

    # every report is exact; perfbench/tracing.py still reads the flag
    exact = True

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        return f"psd (exact, size {self.size}): {status}, rank {self.rank}"


class _Ldl:
    """Fraction-free hermitian LDL* of an exact matrix, one chosen pivot at a time.

    The matrix is ``N / den``, a :class:`MomentMatrix`'s integer image
    ``(den, re, im)``, which the kernel never changes.  After the pivots
    ``p_1 .. p_k`` its Schur complement is ``A / (den * det)``, where
    ``A[i][j]`` is the minor of ``N`` on the rows ``p_1 .. p_k, i`` and the
    columns ``p_1 .. p_k, j``, and ``det`` is the minor on ``p_1 .. p_k`` (1
    before the first pivot).  Sylvester's identity gives Bareiss' integer
    step for the pivot p,

        A'[i][j] = (A[p][p] A[i][j] - A[i][p] A[p][j]) / det,

    whose division is exact; ``A[p][p]`` becomes the next ``det``, and the
    pivot of the step is ``A[p][p] / (den * det)``.  A pivot row vanishes
    on the columns of the earlier pivots.

    The kernel keeps ``N``, the current diagonal and each step's pivot row
    ``A[p]``, and builds any other row on demand by replaying the steps, so
    a factorization of rank r that reads only its pivot rows costs O(r n)
    per row.  The caller picks the pivots: :func:`_exact_psd` the largest
    diagonal entry, :func:`_exact_gram` each positive one in monomial order.
    """

    def __init__(self, image):
        self.den, self.re, self.im = image
        self.diag = [row[i] for i, row in enumerate(self.re)]
        self.det = 1
        self.steps = []     # (p, real parts of A[p], imaginary parts of A[p], A[p][p])

    def row(self, i):
        """Row i of ``A`` after the current steps, as (real parts, imaginary parts)."""
        re, im = self.re[i], self.im[i]
        prev = 1
        for _, pr, pi, det in self.steps:
            cr, ci = pr[i], -pi[i]      # A[i][p] = conj(A[p][i])
            if cr or ci:
                re, im = (
                    [(det * a - cr * x + ci * y) // prev for a, x, y in zip(re, pr, pi)],
                    [(det * b - cr * y - ci * x) // prev for b, x, y in zip(im, pr, pi)],
                )
            elif det != prev:
                re = [det * a // prev for a in re]
                im = [det * b // prev for b in im]
            prev = det
        return re, im

    def schur(self, i, j):
        """The Schur complement's entry ``(i, j)`` after the current steps, as a Scalar."""
        re, im = self.row(i)
        return _reduced(re[j], im[j], self.den * self.det)

    def eliminate(self, p):
        re, im = self.row(p)
        det, prev = re[p], self.det
        self.diag = [(det * d - x * x - y * y) // prev for d, x, y in zip(self.diag, re, im)]
        self.steps.append((p, re, im, det))
        self.det = det

    def pivots(self):
        """The pivot of each step, ``A[p][p] / (den * det)``, as Fractions."""
        out, prev = [], 1
        for *_, det in self.steps:
            out.append(Fraction(det, prev * self.den))
            prev = det
        return out

    def lift(self, u, k=None):
        """Extend ``u`` over the first k pivots (all by default), last pivot first.

        ``u`` maps indices to Scalars.  At pivot p the entry
        ``u_p = -sum_j A[p][j] u_j / A[p][p]`` (row and pivot share one
        denominator) makes ``(M u)_p`` vanish, so the quadratic form
        ``<M u, u>`` equals that of ``u`` on the Schur complement; from a unit
        vector at the (k+1)-th pivot this is that pivot's Gram–Schmidt
        vector.  Returns ``(den, {index: (A, B)})`` with entries
        ``(A + B i) / den``.
        """
        den, pairs = _int_pairs(u.values())
        vec = dict(zip(u, pairs))
        for step in reversed(self.steps[:k]):
            x, y = self.dot(step, vec)
            if x or y:
                p, det = step[0], step[3]
                vec = {j: (a * det, b * det) for j, (a, b) in vec.items()}
                vec[p] = (-x, -y)
                den *= det
        return den, vec

    @staticmethod
    def dot(step, vec):
        """``sum_j A[p][j] vec_j`` over the pivot row of ``step``, all ``a + b i`` int pairs."""
        _, pr, pi, _ = step
        x = y = 0
        for j, (a, b) in vec.items():
            r, s = pr[j], pi[j]
            x += r * a - s * b
            y += r * b + s * a
        return x, y


def _exact_psd(image):
    """Pivoted hermitian LDL* of an integer image ``(den, re, im)`` on :class:`_Ldl`.

    Each step takes the largest remaining diagonal entry, the lowest index
    on a tie.  Returns ``(ok, rank, pivots, witness, witness_value)``.  The
    witness is a violating vector of the current Schur complement lifted
    back through the eliminated pivots, which preserves the quadratic form.
    """
    n = len(image[1])
    ldl = _Ldl(image)
    remaining = list(range(n))

    def fail(u, value):
        den, vec = ldl.lift(u)
        witness = tuple(_reduced(*vec[i], den) if i in vec else ZERO for i in range(n))
        return False, len(ldl.steps), tuple(ldl.pivots()), witness, value

    while remaining:
        diag = ldl.diag
        neg = [i for i in remaining if diag[i] < 0]
        if neg:
            i = min(neg, key=lambda i: (diag[i], i))
            return fail({i: ONE}, ldl.schur(i, i))
        p = max(remaining, key=lambda i: (diag[i], -i))
        if not diag[p]:
            # all remaining diagonals are zero: the matrix is PSD iff the block vanishes
            for i in remaining:
                re, im = ldl.row(i)
                for j in remaining:
                    if re[j] or im[j]:
                        sij = ldl.schur(i, j)
                        tau = -(ldl.schur(j, j).re + 1) / (2 * sij.abs2())
                        u = {i: Scalar(tau), j: sij.conjugate()}
                        value = sum((ca.conjugate() * ldl.schur(a, b) * cb
                                     for a, ca in u.items() for b, cb in u.items()), ZERO)
                        return fail(u, value)
            break
        ldl.eliminate(p)
        remaining.remove(p)
    return True, len(ldl.steps), tuple(ldl.pivots()), None, None


# ``tol`` is accepted and ignored: perfbench/workloads.py still passes one
def psd_check(M, tol=None):
    """PASS iff the moment matrix M is positive semidefinite, decided exactly.

    The verdict comes from the LDL* pivots.  Rejects non-hermitian input.
    On FAIL the report carries a witness vector ``u`` with ``<Mu, u> < 0``.
    """
    if not M.hermitian:
        raise HermitianError("moment matrix is not hermitian")
    ok, rank, pivots, witness, wval = _exact_psd(M._image)
    return PsdReport(ok, M.size, rank, pivots, witness, wval)


class GnsModel(NamedTuple):
    """Truncated GNS data for a positive functional.

    ``quotient_basis`` holds mutually orthogonal coefficient vectors over
    ``monomials`` (coordinates of ``b_j``, exact Scalars, with squared norms
    ``basis_norms2[j]``).  ``op_matrices[i]`` is the complex matrix of left
    multiplication by ``e_i`` from the degree <= d_max-1 quotient
    (dimension ``sub_rank``) into the full quotient, expressed in the
    orthonormalized basis.  ``exact_op_matrices[i][j][k]`` is the same map in
    the orthogonal basis: the coefficient of ``b_j`` in ``e_i b_k`` projected
    onto the quotient, an exact Scalar.
    """

    degree: int
    monomials: Tuple[tuple, ...]
    gram: MomentMatrix
    quotient_rank: int
    sub_rank: int
    pivot_monomials: Tuple[tuple, ...]
    quotient_basis: list
    basis_norms2: list
    op_matrices: Optional[List[np.ndarray]]
    exact_op_matrices: Optional[tuple]
    skew_exact: Optional[bool]
    skew_residual: float
    vacuum: np.ndarray

    def operator(self, x):
        """Matrix of ``rho(x)`` composed with projection onto the sub-quotient.

        The square matrix acts on the full quotient, zero-padded past the
        ``sub_rank`` columns; each application first projects onto the degree
        <= d_max-1 span, which is the truncation that must shrink as the
        degree grows.
        """
        if self.op_matrices is None:
            raise ValueError("model built with degree 0 has no operators")
        _check_same_spec(x.spec, self.gram.spec, "GNS operator of a vector")
        r, r1 = self.quotient_rank, self.sub_rank
        acc = np.zeros((r, r1), dtype=complex)
        for i, c in sorted(x.terms.items()):
            acc = acc + c.to_complex() * self.op_matrices[i]
        out = np.zeros((r, r), dtype=complex)
        out[:, :r1] = acc
        return out


def _vacuum_entry(a, b, den, d2):
    """``<1, b_k> / ||b_k||`` for ``<1, b_k> = (a + b i) / den`` and ``||b_k||**2 = d2``.

    The quotient of the two floats where both are finite and it is nonzero
    with the exact value; otherwise both are first scaled by a power of two
    ``s`` with ``d2 s**2`` near 1, so the entry leaves binary64 only where
    its exact value does (``|entry| <= sqrt(lam(1))``).
    """
    num, root = _reduced(a, b, den).to_complex(), fraction_root_float(d2, 2)
    if np.isfinite(num) and 0 < root < inf and (num / root or not (a or b)):
        return num / root
    s = Fraction(2) ** ((d2.denominator.bit_length() - d2.numerator.bit_length()) // 2)
    num, root = (_reduced(a, b, den) * s).to_complex(), sqrt(float(d2 * s * s))
    return complex(num.real / root, num.imag / root)


def _exact_gram(M, d_max):
    """The Gram–Schmidt data of an exact hermitian M, or None if M is not PSD.

    Gram–Schmidt in monomial order, skipping null vectors, is the LDL* that
    takes each index whose Schur diagonal is positive.  The same loop
    certifies positivity: M is PSD iff each index it skips has a zero Schur
    row, read with :meth:`_Ldl.row` (so no diagonal is negative, and a zero
    row stays zero under later steps).  With ``b_k`` the lifted unit vector
    of the k-th pivot p, ``M b_k`` is column p of the Schur complement, so
    ``<u, b_k> = sum_a A[p][a] u_a / (den * det_(k-1))`` reads the pivot row
    ``A[p]`` (:meth:`_Ldl.dot`) and ``<b_k, b_k>`` is the k-th pivot.  Returns
    ``(pivot_idx, sub_rank, basis, norms2, vacuum, ops)``: ``sub_rank``
    pivots lie on degree <= d_max - 1, and ``ops[i][j][k]`` is the exact
    coefficient of ``b_j`` in ``e_i b_k`` (None at degree 0).
    """
    spec, monos = M.spec, M.monomials
    ldl = _Ldl(M._image)
    for m in range(M.size):
        if ldl.diag[m] > 0:
            ldl.eliminate(m)
        elif any(map(any, ldl.row(m))):
            return None     # a negative diagonal, or a zero one on a nonzero row
    steps, den = ldl.steps, ldl.den
    pivot_idx = [p for p, *_ in steps]
    sub_rank = sum(1 for m in pivot_idx if sum(monos[m]) <= d_max - 1)
    norms2 = ldl.pivots()
    lifted = [ldl.lift({p: ONE}, k) for k, p in enumerate(pivot_idx)]
    basis = []
    for k, (den_k, vec) in enumerate(lifted):
        order = [pivot_idx[k]] + [p for p in pivot_idx[:k] if p in vec]
        basis.append({m: _reduced(*vec[m], den_k) for m in order})
    # <1, b_k> = A[p][0] / (den * det_(k-1)), zero once index 0 is a pivot
    vacuum, prev = [], 1
    for (_, pr, pi, det), d2 in zip(steps, norms2):
        vacuum.append(_vacuum_entry(pr[0], pi[0], prev * den, d2))
        prev = det
    vacuum = np.array(vacuum, dtype=complex)
    ops = None
    if d_max >= 1 and steps:
        # e_i b_k over monomials, on the denominator den_k * delta**d_max; then
        # A[j][k] = <e_i b_k, b_j> / <b_j, b_j> = sum_a A[p_j][a] (e_i b_k)_a / det_j
        delta = spec.delta
        idx_of = {alpha: pos for pos, alpha in enumerate(monos)}
        ops = []
        for i in range(spec.dim):
            nf = {}
            A = [[] for _ in steps]
            for den_k, vec in lifted[:sub_rank]:
                image = {}
                for m, (a, b) in vec.items():
                    terms = nf.get(m)
                    if terms is None:
                        alpha = monos[m]
                        lift_by = d_max - sum(alpha) - 1
                        terms = nf[m] = [
                            (idx_of[beta], c * delta ** (lift_by + sum(beta)))
                            for beta, c in _normal_form(spec, (i,) + _word_of_alpha(alpha)).items()
                        ]
                    for idx, c in terms:
                        _acc_pair(image, idx, a * c, b * c)
                scale = den_k * delta ** d_max
                for row, step in zip(A, steps):
                    row.append(_reduced(*ldl.dot(step, image), step[3] * scale))
            ops.append(A)
    return pivot_idx, sub_rank, basis, norms2, vacuum, ops


def gns_build(lam, d_max):
    """Build the truncated GNS model of a positive functional.

    Requires the moment matrix at ``d_max`` to be PSD, which its
    Gram–Schmidt LDL* certifies; otherwise a :class:`PositivityError`
    carrying :func:`psd_check`'s witness is raised.
    """
    M = moment_matrix(lam, d_max)
    if not M.hermitian:
        raise HermitianError("functional is not hermitian; GNS needs <D1, D2> = lam(D2* D1)")
    gram = _exact_gram(M, d_max)
    if gram is None:
        raise PositivityError(
            f"functional is not positive at degree {d_max}", witness=psd_check(M).witness
        )
    pivot_idx, sub_rank, basis, norms2, vacuum, ops = gram
    monos = M.monomials
    rank = len(basis)

    op_matrices = None
    skew_exact = None
    skew_residual = 0.0
    if ops is not None:
        op_matrices = []
        worst2 = 0
        for A in ops:
            mat = np.zeros((rank, sub_rank), dtype=complex)
            for k in range(sub_rank):
                for j in range(rank):
                    scale = fraction_root_float(norms2[j] / norms2[k], 2)
                    mat[j, k] = A[j][k].to_complex() * scale
            op_matrices.append(mat)
            # skewness on the modeled domain: A_jk d_j + conj(A_kj) d_k = 0; over
            # sqrt(d_j d_k) this is the residual of the orthonormalized block
            defect2 = 0
            for j in range(sub_rank):
                for k in range(sub_rank):
                    e = A[j][k] * norms2[j] + A[k][j].conjugate() * norms2[k]
                    if e:
                        defect2 += e.abs2() / (norms2[j] * norms2[k])
            worst2 = max(worst2, defect2)
        skew_residual = fraction_root_float(worst2, 2)
        skew_exact = not worst2

    return GnsModel(
        degree=d_max,
        monomials=tuple(monos),
        gram=M,
        quotient_rank=rank,
        sub_rank=sub_rank,
        pivot_monomials=tuple(monos[m] for m in pivot_idx),
        quotient_basis=basis,
        basis_norms2=norms2,
        op_matrices=op_matrices,
        exact_op_matrices=(None if ops is None
                           else tuple(tuple(tuple(row) for row in A) for A in ops)),
        skew_exact=skew_exact,
        skew_residual=skew_residual,
        vacuum=vacuum,
    )


class AnalyticReport(NamedTuple):
    """Diagnostics of the vector-norm series ``sum ||rho(x)^n v|| t^n / n!``.

    ``s_squared[n]`` is the exact value ``(-1)^n Re(lam(x^(2n)))``, which
    equals ``||rho(x)^n v||^2`` for functionals of matrix-coefficient type;
    a negative entry certifies that the functional is not positive.  The
    root-test estimate of the vector series is compared against half the
    functional radius estimate (the expected consistency factor is 2).
    """

    x_name: str
    s_squared: Tuple[Fraction, ...]
    negative_witness: Optional[int]
    s_values: Tuple[float, ...]
    partial_sums_vector: Tuple[float, ...]
    partial_sums_exp: Tuple[complex, ...]
    vector_root: Optional[RootValue]
    functional_estimate: object
    factor2_ratio: Optional[float]

    @property
    def positive_so_far(self):
        return self.negative_witness is None

    @property
    def vector_radius_estimate(self):
        return _reciprocal(self.vector_root)

    def __str__(self):
        if not self.positive_so_far:
            return (
                f"analytic diagnostics for {self.x_name}: lambda not positive "
                f"(witness n={self.negative_witness})"
            )
        return (
            f"analytic diagnostics for {self.x_name}: vector radius "
            f"{self.vector_radius_estimate:.6g}, functional radius "
            f"{self.functional_estimate.value:.6g}"
        )


def analytic_diagnostics(lam, x, n_max):
    """Exact vector-norm squares along ``x`` plus convergence diagnostics.

    Computes ``s_n^2 = (-1)^n Re(lam(x^(2n)))`` for ``n <= n_max``, each
    ``lam(x^k)`` read off k right regular actions (:func:`regular_act`);
    flags the first negative value as a certificate of non-positivity.
    Reports the partial sums at t = 1 of the vector series ``sum s_n / n!``
    and of the exponential series ``sum lam(x^n) / n!``, the root-test
    radius estimate of the vector series, and its ratio to half the
    functional radius estimate.
    """
    _at_least("n_max", n_max)
    _within(lam, 2 * n_max, f"diagnostics to n={n_max} need functional degree {2 * n_max}")
    spec = lam.spec
    # lam(x^k) reads lam to degree k only, so the chain starts from lam cut at 2 n_max
    table = lam._cut(2 * n_max)
    one = {(0,) * spec.dim: 1}
    powers = [table._eval_graded(one, 0)]
    for _ in range(2 * n_max):
        table = regular_act(table, x)
        powers.append(table._eval_graded(one, 0))
    s2 = []
    witness = None
    for n in range(n_max + 1):
        val = powers[2 * n]
        s2n = val.re if n % 2 == 0 else -val.re
        s2.append(s2n)
        if witness is None and s2n < 0:
            witness = n
    s_vals = tuple(fraction_root_float(q, 2) if q > 0 else 0.0 for q in s2)
    sums_vec = []
    acc = 0.0
    for n in range(n_max + 1):
        acc += s_vals[n] / factorial(n)
        sums_vec.append(acc)
    sums_exp = []
    acc_c = 0j
    for k in range(2 * n_max + 1):
        acc_c += powers[k].to_complex() / factorial(k)
        sums_exp.append(acc_c)
    best = None if witness is not None else _root_test(enumerate(s2[1:], 1))[1]
    # the functional estimate is truncated at the same order as the vector
    # series so the two sides of the factor-2 comparison see matching data
    func_est = radius_estimate(lam, max_n=n_max)
    ratio = None
    if best is not None and 0 < func_est.value < inf:
        ratio = _reciprocal(best) / (func_est.value / 2.0)
    name = " + ".join(f"{c}*{spec.basis_names[i]}" for i, c in sorted(x.terms.items())) or "0"
    return AnalyticReport(
        x_name=name,
        s_squared=tuple(s2),
        negative_witness=witness,
        s_values=s_vals,
        partial_sums_vector=tuple(sums_vec),
        partial_sums_exp=tuple(sums_exp),
        vector_root=best,
        functional_estimate=func_est,
        factor2_ratio=ratio,
    )
