"""Positivity, moment matrices and truncated GNS models.

``MatrixRep`` wraps concrete matrix generators of a Lie algebra (exact
Gaussian-rational or floating entries) with a cyclic vector; it generates
functionals ``lam(x^alpha) = <R(x^alpha) v, v>`` that are positive by
construction.  ``moment_matrix`` and ``psd_check`` certify positivity of a
functional up to a degree; ``gns_build`` quotients out the null space of the
Gram form and represents left multiplication by the generators as matrices
from the degree ``d-1`` span into the degree ``d`` span, where skewness is
exactly assertable.

Both paths share their interfaces over a :class:`~envalg.scalars.Field`:
exact Scalars, or binary64 complex numbers with 1e-10 relative zero
thresholds.  On the exact path one fraction-free LDL* kernel over the
Gaussian integers (:class:`_Ldl`) gives both certificates: the PSD test
pivots on the largest diagonal entry (no square roots are needed to decide
semidefiniteness, and a failed test returns a witness vector with exact
entries), and the GNS model's Gram–Schmidt is the same factorization in
monomial order, which certifies positivity on its own, so ``gns_build``
factors its matrix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    DegreeOverflowError,
    HermitianError,
    PositivityError,
    RepresentationError,
)
from .free_algebra import _acc
from .functionals import (
    FunctionalTable,
    monomials_up_to,
    radius_estimate,
    regular_act,
)
from .lie_structure import _acc_pair, _normal_form, _star_monomial, _word_of_alpha, pbw_reduce
from .scalars import (
    ONE,
    ZERO,
    RootValue,
    Scalar,
    _int_pairs,
    _reduced,
    fraction_root_float,
    scalar_field,
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


def _matrix(rows, size, coerce):
    out = []
    for row in rows:
        row = tuple(coerce(c) for c in row)
        if any(c is NotImplemented for c in row) or len(row) != size:
            raise ValueError("bad matrix row")
        out.append(row)
    if len(out) != size:
        raise ValueError("matrix must be square")
    return tuple(out)


def _matvec(mat, vec):
    return tuple(
        sum((row[j] * vec[j] for j in range(len(vec)) if vec[j]), 0j)
        for row in mat
    )


def _inner(u, v):
    """``<u, v> = sum conj(v_i) u_i``."""
    return sum((v[i].conjugate() * u[i] for i in range(len(u))), 0j)


def _int_vector(vec):
    """Scalars as ``(den, re, im)``: entry k is ``(re[k] + im[k] i) / den``."""
    den, pairs = _int_pairs(vec)
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


def _norm2(field, entries):
    """Squared Frobenius norm of ``entries`` in the field's reals."""
    return sum(field.real(c * c.conjugate()) for c in entries if c)


class MatrixRep:
    """Matrix generators ``R(e_i)`` with a cyclic vector.

    ``exact`` reps hold Gaussian-rational entries and support exact
    functional extraction; float reps hold complex entries.  Both store
    matrices as tuples of rows.  The homomorphism law
    ``[R(e_i), R(e_j)] = sum c_ijk R(e_k)`` is validated on demand, exactly or
    to 1e-10; ``skew_hermitian`` additionally asserts ``R(e_i)^* = -R(e_i)``.
    """

    def __init__(self, spec, dim_V, generators, cyclic_vector, *, skew_hermitian,
                 exact=True, name=None):
        if len(generators) != spec.dim:
            raise ValueError(f"expected {spec.dim} generators")
        self.spec = spec
        self.dim_V = dim_V
        self.skew_hermitian = skew_hermitian
        self.field = field = scalar_field(exact)
        self.name = name
        self.generators = tuple(_matrix(g, dim_V, field.coerce) for g in generators)
        vec = tuple(field.coerce(c) for c in cyclic_vector)
        if len(vec) != dim_V or any(c is NotImplemented for c in vec):
            raise ValueError("bad cyclic vector")
        self.cyclic_vector = vec
        self._validated = False

    @property
    def exact(self):
        return self.field.exact

    # -- numeric views -----------------------------------------------------

    @cached_property
    def _generator_arrays(self):
        """Read-only complex arrays of the generators, built on first use."""
        to_complex = self.field.to_complex
        arrays = tuple(np.array([[to_complex(c) for c in row] for row in gen])
                       for gen in self.generators)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    @cached_property
    def _int_generators(self):
        """Each exact generator as ``(den, rows)``: the nonzero ``(j, A, B)`` of
        each row, with entry ``(A + B i) / den``."""
        out = []
        for gen in self.generators:
            den = lcm(*{c.d for row in gen for c in row})
            out.append((den, [[(j, c.a * (den // c.d), c.b * (den // c.d))
                               for j, c in enumerate(row) if c] for row in gen]))
        return tuple(out)

    def generator_array(self, i):
        """``R(e_i)`` as a read-only complex array."""
        return self._generator_arrays[i]

    def cyclic_array(self):
        return np.array([self.field.to_complex(c) for c in self.cyclic_vector])

    def matrix_of(self, x):
        """Complex matrix of ``R(x)`` for a coefficient vector x in g."""
        return self.matrices_of([[c.to_complex() for c in x.coeffs]])[0]

    def matrices_of(self, coeffs):
        """The stack of ``R(x)``, one per row of an ``(n, dim)`` coefficient array.

        Generator ``i`` adds ``c_i R(e_i)`` to the rows where ``c_i`` is
        nonzero, so every matrix is the sum of its own nonzero terms in basis
        order and gets the floats it would get alone.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        acc = np.zeros((len(coeffs), self.dim_V, self.dim_V), dtype=complex)
        for col, gen in zip(coeffs.T, self._generator_arrays):
            rows = np.flatnonzero(col)
            acc[rows] += col[rows, None, None] * gen
        return acc

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check the commutation law (and skewness if flagged); raise on failure.

        A residual counts as zero when its Frobenius norm is at most the
        field's threshold: exactly zero, or 1e-10 on the float path.  An
        exact rep is decided by integer equality on :attr:`_int_generators`;
        only a failure builds the Scalar residuals that word the error.
        """
        if self._validated:
            return
        if not (self.exact and self._int_laws_hold()):
            self._check_residuals()
        self._validated = True

    def _int_laws_hold(self):
        """The commutation law (and skewness if flagged) by integer equality.

        With ``R(e_i) = X_i / d_i`` and ``c_ijk = C_k / q_k``, the law for
        ``i < j`` is ``L (X_i X_j - X_j X_i) = d_i d_j sum_k C_k (L / (q_k d_k)) X_k``
        for ``L = lcm_k(q_k d_k)``; each row of the difference is summed
        sparsely and must cancel.
        """
        gens = self._int_generators
        for i in range(self.spec.dim):
            di, X = gens[i]
            for j in range(i + 1, self.spec.dim):
                dj, Y = gens[j]
                bracket = self.spec.bracket_of(i, j).items()
                L = lcm(*(c.d * gens[k][0] for k, c in bracket))
                weights = [(gens[k][1], di * dj * c.a * (L // (c.d * gens[k][0])))
                           for k, c in bracket]
                for r in range(self.dim_V):
                    acc = {}
                    for P, Q, sign in ((X, Y, L), (Y, X, -L)):
                        for t, a, b in P[r]:
                            for s, c, d in Q[t]:
                                _acc_pair(acc, s, sign * (a * c - b * d), sign * (a * d + b * c))
                    for rows, w in weights:
                        for s, a, b in rows[r]:
                            _acc_pair(acc, s, -w * a, -w * b)
                    if acc:
                        return False
        if self.skew_hermitian:
            # R^* = -R: the entry at (s, r) is minus the conjugate of the one at (r, s)
            for _, rows in gens:
                entries = {(r, s): (a, b) for r, row in enumerate(rows) for s, a, b in row}
                if any(entries.get((s, r)) != (-a, b) for (r, s), (a, b) in entries.items()):
                    return False
        return True

    def _check_residuals(self):
        """Raise naming the worst pair's residual, or the first non-skew generator."""
        field, n, gens, zero = self.field, self.dim_V, self.generators, self.field.zero
        limit2 = field.tol ** 2
        worst = (None, 0)
        for i in range(self.spec.dim):
            for j in range(i + 1, self.spec.dim):
                A, B = gens[i], gens[j]
                bracket = self.spec.bracket_of(i, j).items()
                # entries of [A, B] - sum_k c_ijk R(e_k)
                resid2 = _norm2(field, (
                    sum((A[r][t] * B[t][s] - B[r][t] * A[t][s] for t in range(n)), zero)
                    - sum((c * gens[k][r][s] for k, c in bracket), zero)
                    for r in range(n) for s in range(n)
                ))
                if resid2 > worst[1]:
                    worst = ((i, j), resid2)
        if worst[1] > limit2:
            raise RepresentationError(
                f"homomorphism law fails at pair {worst[0]}: "
                f"residual {field.sqrt(worst[1]):.3e}"
            )
        if self.skew_hermitian:
            for i, gen in enumerate(gens):
                resid2 = _norm2(
                    field, (gen[r][s].conjugate() + gen[s][r] for r in range(n) for s in range(n))
                )
                if resid2 > limit2:
                    raise RepresentationError(f"generator {i} is not skew-hermitian")

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"MatrixRep({self.field.name}{label}, dim_V={self.dim_V})"


def functional_from_rep(rep, N):
    """The matrix-coefficient functional ``lam(x^alpha) = <R(x^alpha) v, v>``.

    Exact when the representation is exact.  These are the designated
    generators of known-good positive functionals: positivity holds by
    construction since ``lam(D^* D) = ||R(D) v||^2``.
    """
    rep.validate()
    vecs = _orbit_vectors(rep, monomials_up_to(rep.spec.dim, N))
    v0 = vecs[(0,) * rep.spec.dim]
    inner = _int_inner if rep.exact else _inner
    values = {alpha: inner(w, v0) for alpha, w in vecs.items()}
    return FunctionalTable(rep.spec, N, values, exact=rep.exact)


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

    An exact rep gives int vectors, one denominator per vector (the cyclic
    vector's times the generators' along the peeled letters); a float rep
    gives complex tuples.
    """
    if rep.exact:
        gens = rep._int_generators
        return _peel(monos, _int_vector(rep.cyclic_vector),
                     lambda i, v: _int_matvec(gens[i], v))
    return _peel(monos, rep.cyclic_vector, lambda i, v: _matvec(rep.generators[i], v))


def orbit_gram(rep, d_max):
    """Exact Gram matrix ``<R(x^beta) v, R(x^alpha) v>`` of the monomial orbit.

    For a skew-hermitian representation on exact entries this must equal the
    GNS Gram of the matrix-coefficient functional entry for entry, which is
    the round-trip fidelity check between the two constructions.  The Gram
    is hermitian, so the lower triangle is the conjugate of the upper one.
    """
    if not rep.exact:
        raise ValueError("orbit_gram needs an exact representation")
    rep.validate()
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
    """Gram table ``M[a][b] = lam((x^alpha_a)^* x^beta_b)`` up to a degree."""

    __slots__ = ("spec", "d_max", "monomials", "rows", "field", "hermitian")

    def __init__(self, spec, d_max, monomials, rows, exact, hermitian):
        self.spec = spec
        self.d_max = d_max
        self.monomials = monomials
        self.rows = rows
        self.field = scalar_field(exact)
        self.hermitian = hermitian

    @property
    def exact(self):
        return self.field.exact

    @property
    def size(self):
        return len(self.monomials)

    def to_array(self):
        to_complex = self.field.to_complex
        return np.array([[to_complex(c) for c in row] for row in self.rows], dtype=complex)

    def __repr__(self):
        return (
            f"MomentMatrix({self.field.name}, size={self.size}, d_max={self.d_max}, "
            f"hermitian={self.hermitian})"
        )


def _exactly_hermitian(rows):
    """``rows[a][b] == conj(rows[b][a])`` everywhere, compared as canonical triples."""
    for a, row in enumerate(rows):
        for b in range(a, len(rows)):
            x, y = row[b], rows[b][a]
            if x.a != y.a or x.b != -y.b or x.d != y.d:
                return False
    return True


def moment_matrix(lam, d_max):
    """Hermitian Gram matrix of the monomials of degree <= d_max under lam.

    Requires ``2*d_max <= lam.max_degree``.  Hermitianness (equivalent to
    ``lam(D^*) = conj(lam(D))``) is checked and reported on the result, not
    enforced.
    """
    if 2 * d_max > lam.max_degree:
        raise DegreeOverflowError(
            f"moment matrix at degree {d_max} needs functional degree {2 * d_max}"
        )
    spec = lam.spec
    monos = monomials_up_to(spec.dim, d_max)
    # T_beta(D) = lam(D x^beta), one right regular action per peeled letter
    basis = [spec.basis_vector(i) for i in range(spec.dim)]
    tables = list(_peel(monos, lam, lambda i, t: regular_act(t, basis[i])).values())
    stars = [(sum(alpha), _star_monomial(spec, alpha)) for alpha in monos]
    rows = tuple(tuple(t._eval_graded(st, k) for t in tables) for k, st in stars)
    field, n = lam.field, len(monos)
    if field.exact:
        # the exact threshold is 0, so ||M - M^*|| <= 0 is entrywise equality
        hermitian = _exactly_hermitian(rows)
    else:
        # ||M - M^*|| <= tol * max(1, ||M||), compared squared in the field's reals
        defect2 = _norm2(field, (rows[a][b] - rows[b][a].conjugate()
                                 for a in range(n) for b in range(n)))
        hermitian = not defect2 or defect2 <= field.tol ** 2 * max(
            1, _norm2(field, (c for row in rows for c in row))
        )
    return MomentMatrix(spec, d_max, monos, rows, lam.exact, hermitian)


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a positive-semidefiniteness certificate.

    Exact path: ``pivots`` holds the rational pivots of the hermitian LDL*
    factorization, all >= 0 on PASS.  Float path: ``min_eigenvalue`` is
    compared against ``-tol``.  On FAIL, ``witness`` is a vector u with
    ``<Mu, u> < -tol`` (exact scalars on the exact path).
    """

    ok: bool
    exact: bool
    size: int
    rank: Optional[int] = None
    pivots: Optional[Tuple[Fraction, ...]] = None
    min_eigenvalue: Optional[float] = None
    witness: Optional[tuple] = None
    witness_value: Optional[object] = None

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        if self.exact:
            return f"psd (exact, size {self.size}): {status}, rank {self.rank}"
        return (
            f"psd (float, size {self.size}): {status}, "
            f"min eigenvalue {self.min_eigenvalue:.3e}"
        )


class _Ldl:
    """Fraction-free hermitian LDL* of an exact matrix, one chosen pivot at a time.

    The matrix is ``N / den`` with ``N`` Gaussian-integer, held as rows of
    real and of imaginary parts.  After the pivots ``p_1 .. p_k`` its Schur
    complement is ``A / (den * det)``, where ``A[i][j]`` is the minor of
    ``N`` on the rows ``p_1 .. p_k, i`` and the columns ``p_1 .. p_k, j``,
    and ``det`` is the minor on ``p_1 .. p_k`` (1 before the first pivot).
    Sylvester's identity gives Bareiss' integer step for the pivot p,

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

    def __init__(self, rows):
        n = len(rows)
        den, pairs = _int_pairs([c for row in rows for c in row])
        self.den = den
        self.re = [[a for a, _ in pairs[i * n:(i + 1) * n]] for i in range(n)]
        self.im = [[b for _, b in pairs[i * n:(i + 1) * n]] for i in range(n)]
        self.diag = [self.re[i][i] for i in range(n)]
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
        for p, pr, pi, det in reversed(self.steps[:k]):
            x = y = 0
            for j, (a, b) in vec.items():
                r, s = pr[j], pi[j]
                x += r * a - s * b
                y += r * b + s * a
            if x or y:
                vec = {j: (a * det, b * det) for j, (a, b) in vec.items()}
                vec[p] = (-x, -y)
                den *= det
        return den, vec


def _exact_psd(rows):
    """Pivoted hermitian LDL* on the integer kernel :class:`_Ldl`.

    Each step takes the largest remaining diagonal entry, the lowest index
    on a tie.  Returns ``(ok, rank, pivots, witness, witness_value)``.  The
    witness is a violating vector of the current Schur complement lifted
    back through the eliminated pivots, which preserves the quadratic form.
    """
    n = len(rows)
    ldl = _Ldl(rows)
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


def psd_check(M, tol=0.0):
    """PASS iff the moment matrix M is positive semidefinite.

    Exact matrices are decided by their LDL* pivots, float ones by
    eigenvalues >= -tol.  Rejects non-hermitian input.  On FAIL the report
    carries a witness vector ``u`` with ``<Mu, u> < -tol``.
    """
    if not M.hermitian:
        raise HermitianError("moment matrix is not hermitian")
    if M.exact:
        ok, rank, pivots, witness, wval = _exact_psd(M.rows)
        return PsdReport(
            ok, True, M.size, rank=rank, pivots=pivots,
            witness=witness, witness_value=wval,
        )
    arr = M.to_array()
    vals, vecs = np.linalg.eigh((arr + arr.conj().T) / 2)
    min_eig = float(vals[0])
    if min_eig >= -tol:
        return PsdReport(True, False, arr.shape[0], min_eigenvalue=min_eig)
    w = vecs[:, 0]
    # deterministic sign: first nonzero component positive real
    for c in w:
        if abs(c) > 1e-12:
            w = w * (abs(c) / c)
            break
    return PsdReport(
        False, False, arr.shape[0], min_eigenvalue=min_eig,
        witness=tuple(np.round(w.real, 12) + 1j * np.round(w.imag, 12)),
        witness_value=min_eig,
    )


@dataclass
class GnsModel:
    """Truncated GNS data for a positive functional.

    ``quotient_basis`` holds mutually orthogonal coefficient vectors over
    ``monomials`` (coordinates of ``b_j`` with squared norms
    ``basis_norms2[j]``), exact or complex as the functional's field.
    ``op_matrices[i]`` is the matrix of left multiplication by
    ``e_i`` from the degree <= d_max-1 quotient (dimension ``sub_rank``)
    into the full quotient, expressed in the orthonormalized basis.
    ``exact_op_matrices[i][j][k]`` (exact path only) is the same map in the
    orthogonal basis: the coefficient of ``b_j`` in ``e_i b_k`` projected
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
    exact: bool
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
        r, r1 = self.quotient_rank, self.sub_rank
        acc = np.zeros((r, r1), dtype=complex)
        for i, c in enumerate(x.coeffs):
            if c:
                acc = acc + c.to_complex() * self.op_matrices[i]
        out = np.zeros((r, r), dtype=complex)
        out[:, :r1] = acc
        return out


def _sub_rank(monos, pivot_idx, d_max):
    return sum(1 for m in pivot_idx if sum(monos[m]) <= d_max - 1)


def _exact_gram(M, d_max):
    """The Gram–Schmidt data of an exact hermitian M, or None if M is not PSD.

    Gram–Schmidt in monomial order, skipping null vectors, is the LDL* that
    takes each index whose Schur diagonal is positive.  The same loop
    certifies positivity: M is PSD iff each index it skips has a zero Schur
    row, read with :meth:`_Ldl.row` (so no diagonal is negative, and a zero
    row stays zero under later steps).  With ``b_k`` the lifted unit vector
    of the k-th pivot p, ``M b_k`` is column p of the Schur complement, so
    ``<u, b_k> = sum_a A[p][a] u_a / (den * det_(k-1))`` reads the pivot row
    ``A[p]`` and ``<b_k, b_k>`` is the k-th pivot.  Returns
    ``(pivot_idx, basis, norms2, vacuum, ops)``, ``ops[i][j][k]`` the
    exact coefficient of ``b_j`` in ``e_i b_k`` (None at degree 0).
    """
    spec, monos = M.spec, M.monomials
    ldl = _Ldl(M.rows)
    for m in range(M.size):
        if ldl.diag[m] > 0:
            ldl.eliminate(m)
        elif any(map(any, ldl.row(m))):
            return None     # a negative diagonal, or a zero one on a nonzero row
    steps, den = ldl.steps, ldl.den
    pivot_idx = [p for p, *_ in steps]
    norms2 = ldl.pivots()
    lifted = [ldl.lift({p: ONE}, k) for k, p in enumerate(pivot_idx)]
    basis = []
    for k, (den_k, vec) in enumerate(lifted):
        order = [pivot_idx[k]] + [p for p in pivot_idx[:k] if p in vec]
        basis.append({m: _reduced(*vec[m], den_k) for m in order})
    # <1, b_k> = A[p][0] / (den * det_(k-1)), zero once index 0 is a pivot
    vacuum, prev = [], 1
    for (_, pr, pi, det), d2 in zip(steps, norms2):
        vacuum.append(_reduced(pr[0], pi[0], prev * den).to_complex() / fraction_root_float(d2, 2))
        prev = det
    vacuum = np.array(vacuum, dtype=complex)
    ops = None
    if d_max >= 1 and steps:
        # e_i b_k over monomials, on the denominator den_k * delta**d_max; then
        # A[j][k] = <e_i b_k, b_j> / <b_j, b_j> = sum_a A[p_j][a] (e_i b_k)_a / det_j
        delta = spec.delta
        idx_of = {alpha: pos for pos, alpha in enumerate(monos)}
        sub_rank = _sub_rank(monos, pivot_idx, d_max)
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
                for row, (_, pr, pi, det) in zip(A, steps):
                    x = y = 0
                    for idx, (a, b) in image.items():
                        r, s = pr[idx], pi[idx]
                        x += r * a - s * b
                        y += r * b + s * a
                    row.append(_reduced(x, y, det * scale))
            ops.append(A)
    return pivot_idx, basis, norms2, vacuum, ops


def _float_gram(M, d_max, diag_scale):
    """The Gram–Schmidt data of a float M: modified Gram–Schmidt in monomial order.

    A vector counts as null when its squared norm is at most ``tol`` times
    ``diag_scale``, the largest diagonal entry (at least 1).  Returns what
    :func:`_exact_gram` returns, with complex entries.
    """
    field, spec, G = M.field, M.spec, M.rows
    monos = list(M.monomials)
    n = len(monos)
    zero = field.zero

    def inner(u, w):
        # <u, w> = sum conj(w_a) G[a][b] u_b over sparse dict vectors
        total = zero
        for a, wa in w.items():
            row = G[a]
            for b, ub in u.items():
                if row[b]:
                    total = total + wa.conjugate() * row[b] * ub
        return total

    def axpy(u, coeff, vec):
        # u += coeff * vec over sparse dicts, dropping entries that cancel
        for idx, val in vec.items():
            _acc(u, idx, coeff * val)

    basis = []      # orthogonal vectors as sparse dicts over monomial indices
    norms2 = []
    pivot_idx = []
    for m in range(n):
        u = {m: field.one}
        for b, d2 in zip(basis, norms2):
            coeff = inner(u, b) / d2
            if coeff:
                axpy(u, -coeff, b)
        nrm2 = field.real(inner(u, u))
        if nrm2 > field.tol * diag_scale:
            basis.append(u)
            norms2.append(nrm2)
            pivot_idx.append(m)
    rank = len(basis)
    sub_rank = _sub_rank(monos, pivot_idx, d_max)
    idx_of = {alpha: pos for pos, alpha in enumerate(monos)}

    # vacuum = coordinates of the class of the monomial 1 in the orthonormal basis
    vacuum = np.array([field.to_complex(inner({0: field.one}, b)) / field.sqrt(d2)
                       for b, d2 in zip(basis, norms2)], dtype=complex)
    ops = None
    if d_max >= 1 and rank:
        ops = []
        for i in range(spec.dim):
            A = [[None] * sub_rank for _ in range(rank)]
            for k in range(sub_rank):
                image = {}
                for m_idx, coeff in basis[k].items():
                    nf = pbw_reduce(spec, (i,) + _word_of_alpha(monos[m_idx]))
                    axpy(image, coeff, {idx_of[alpha]: c for alpha, c in nf.terms.items()})
                for j in range(rank):
                    A[j][k] = inner(image, basis[j]) / norms2[j]
            ops.append(A)
    return pivot_idx, basis, norms2, vacuum, ops


def gns_build(lam, d_max):
    """Build the truncated GNS model of a positive functional.

    Requires the moment matrix at ``d_max`` to be PSD (exact: certified by
    its Gram–Schmidt LDL*; float: eigenvalues >= -``tol``); otherwise a
    :class:`PositivityError` carrying :func:`psd_check`'s witness is raised.
    """
    M = moment_matrix(lam, d_max)
    if not M.hermitian:
        raise HermitianError("functional is not hermitian; GNS needs <D1, D2> = lam(D2* D1)")
    field = lam.field
    if field.exact:
        gram = _exact_gram(M, d_max)
        psd = None if gram else psd_check(M)
    else:
        psd = psd_check(M, tol=field.tol)
        diag_scale = max([abs(field.to_complex(M.rows[i][i])) for i in range(M.size)] + [1.0])
        gram = _float_gram(M, d_max, diag_scale) if psd.ok else None
    if gram is None:
        raise PositivityError(
            f"functional is not positive at degree {d_max}", witness=psd.witness
        )
    pivot_idx, basis, norms2, vacuum, ops = gram
    monos = M.monomials
    rank = len(basis)
    sub_rank = _sub_rank(monos, pivot_idx, d_max)

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
                    mat[j, k] = field.to_complex(A[j][k]) * field.sqrt(norms2[j] / norms2[k])
            op_matrices.append(mat)
            # skewness on the modeled domain: A_jk d_j + conj(A_kj) d_k = 0; over
            # sqrt(d_j d_k) this is the residual of the orthonormalized block
            defect2 = 0
            for j in range(sub_rank):
                for k in range(sub_rank):
                    e = A[j][k] * norms2[j] + A[k][j].conjugate() * norms2[k]
                    if e:
                        defect2 += field.real(e * e.conjugate()) / (norms2[j] * norms2[k])
            worst2 = max(worst2, defect2)
        skew_residual = float(field.sqrt(worst2))
        if field.exact:
            skew_exact = worst2 <= 0
        else:
            skew_exact = worst2 <= (field.tol * max(1.0, diag_scale)) ** 2

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
        exact_op_matrices=(tuple(tuple(tuple(row) for row in A) for A in ops)
                           if field.exact and ops is not None else None),
        skew_exact=skew_exact,
        skew_residual=skew_residual,
        exact=lam.exact,
        vacuum=vacuum,
    )


@dataclass(frozen=True)
class AnalyticReport:
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
        if self.vector_root is None:
            return float("inf")
        return 1.0 / self.vector_root.to_float()

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
    lam._need_exact("analytic diagnostics")
    if 2 * n_max > lam.max_degree:
        raise DegreeOverflowError(
            f"diagnostics to n={n_max} need functional degree {2 * n_max}"
        )
    spec = lam.spec
    # lam(x^k) reads lam to degree k only, so the chain starts from lam cut at 2 n_max
    den, image = lam._int_image()
    cut = {alpha: v for alpha, v in image.items() if sum(alpha) <= 2 * n_max}
    table = FunctionalTable._from_image(spec, 2 * n_max, den, cut)
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
    best = None
    if witness is None:
        for n in range(1, n_max + 1):
            if s2[n] > 0:
                root = RootValue(s2[n] / Fraction(factorial(n)) ** 2, n)
                if best is None or root > best:
                    best = root
    # the functional estimate is truncated at the same order as the vector
    # series so the two sides of the factor-2 comparison see matching data
    func_est = radius_estimate(lam, max_n=n_max)
    ratio = None
    if best is not None and not func_est.is_infinite and func_est.value > 0:
        ratio = (1.0 / best.to_float()) / (func_est.value / 2.0)
    name = " + ".join(
        f"{c}*{nm}" for c, nm in zip(x.coeffs, spec.basis_names) if c
    ) or "0"
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
