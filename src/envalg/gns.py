"""Positivity, moment matrices and truncated GNS models.

``MatrixRep`` wraps concrete matrix generators of a Lie algebra (exact
Gaussian-rational or floating entries) with a cyclic vector; it generates
functionals ``lam(x^alpha) = <R(x^alpha) v, v>`` that are positive by
construction.  ``moment_matrix`` and ``psd_check`` certify positivity of a
functional up to a degree; ``gns_build`` quotients out the null space of the
Gram form and represents left multiplication by the generators as matrices
from the degree ``d-1`` span into the degree ``d`` span, where skewness is
exactly assertable.

On the exact path the PSD test is a pivoted hermitian LDL* factorization in
rational arithmetic (no square roots are needed to decide semidefiniteness),
and a failed test returns an exact witness vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    DegreeOverflowError,
    HermitianError,
    PositivityError,
    RepresentationError,
)
from .functionals import (
    FunctionalTable,
    monomials_up_to,
    radius_estimate,
    regular_act,
)
from .lie_structure import PBWPoly, _word_of_alpha, pbw_reduce, star
from .scalars import ONE, RootValue, Scalar, as_scalar, fraction_root_float

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


def _exact_matrix(rows, size):
    out = []
    for row in rows:
        row = tuple(as_scalar(c) for c in row)
        if any(c is NotImplemented for c in row) or len(row) != size:
            raise ValueError("bad exact matrix row")
        out.append(row)
    if len(out) != size:
        raise ValueError("matrix must be square")
    return tuple(out)


def _exact_matvec(mat, vec):
    return tuple(
        sum((row[j] * vec[j] for j in range(len(vec)) if vec[j]), Scalar(0))
        for row in mat
    )


def _exact_matmul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return tuple(
        tuple(sum((a[i][k] * bt[j][k] for k in range(n)), Scalar(0)) for j in range(n))
        for i in range(n)
    )


def _exact_inner(u, v):
    """``<u, v> = sum conj(v_i) u_i``."""
    return sum((v[i].conjugate() * u[i] for i in range(len(u))), Scalar(0))


class MatrixRep:
    """Matrix generators ``R(e_i)`` with a cyclic vector.

    ``exact`` reps hold Gaussian-rational entries and support exact
    functional extraction; float reps hold complex128 arrays.  The
    homomorphism law ``[R(e_i), R(e_j)] = sum c_ijk R(e_k)`` is validated on
    demand, exactly or to tolerance; ``skew_hermitian`` additionally asserts
    ``R(e_i)^* = -R(e_i)``.
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
            self.generators = tuple(_exact_matrix(g, dim_V) for g in generators)
            vec = tuple(as_scalar(c) for c in cyclic_vector)
            if len(vec) != dim_V or any(c is NotImplemented for c in vec):
                raise ValueError("bad cyclic vector")
            self.cyclic_vector = vec
        else:
            self.generators = tuple(
                np.asarray(g, dtype=complex).reshape(dim_V, dim_V) for g in generators
            )
            self.cyclic_vector = np.asarray(cyclic_vector, dtype=complex).reshape(dim_V)
        self._validated = False

    # -- numeric views -----------------------------------------------------

    def generator_array(self, i):
        if self.exact:
            return np.array(
                [[c.to_complex() for c in row] for row in self.generators[i]]
            )
        return self.generators[i]

    def cyclic_array(self):
        if self.exact:
            return np.array([c.to_complex() for c in self.cyclic_vector])
        return self.cyclic_vector

    def matrix_of(self, x):
        """Complex matrix of ``R(x)`` for a coefficient vector x in g."""
        acc = np.zeros((self.dim_V, self.dim_V), dtype=complex)
        for i, c in enumerate(x.coeffs):
            if c:
                acc = acc + c.to_complex() * self.generator_array(i)
        return acc

    def exact_matrix_of(self, x):
        if not self.exact:
            raise ValueError("exact_matrix_of needs an exact representation")
        acc = [[Scalar(0)] * self.dim_V for _ in range(self.dim_V)]
        for i, c in enumerate(x.coeffs):
            if not c:
                continue
            gen = self.generators[i]
            for r in range(self.dim_V):
                for s in range(self.dim_V):
                    acc[r][s] = acc[r][s] + c * gen[r][s]
        return tuple(tuple(row) for row in acc)

    # -- validation ---------------------------------------------------------

    def validate(self, tol=1e-10):
        """Check the commutation law (and skewness if flagged); raise on failure."""
        if self._validated:
            return
        worst = (None, 0.0)
        for i in range(self.spec.dim):
            for j in range(i + 1, self.spec.dim):
                if self.exact:
                    lhs = _exact_matmul(self.generators[i], self.generators[j])
                    rhs = _exact_matmul(self.generators[j], self.generators[i])
                    comm = [
                        [lhs[r][s] - rhs[r][s] for s in range(self.dim_V)]
                        for r in range(self.dim_V)
                    ]
                    for k, c in self.spec.bracket_of(i, j).items():
                        gen = self.generators[k]
                        for r in range(self.dim_V):
                            for s in range(self.dim_V):
                                comm[r][s] = comm[r][s] - c * gen[r][s]
                    if any(c for row in comm for c in row):
                        raise RepresentationError(
                            f"homomorphism law fails exactly at pair ({i},{j})"
                        )
                else:
                    A, B = self.generators[i], self.generators[j]
                    comm = A @ B - B @ A
                    for k, c in self.spec.bracket_of(i, j).items():
                        comm = comm - c.to_complex() * self.generators[k]
                    resid = float(np.linalg.norm(comm))
                    if resid > worst[1]:
                        worst = ((i, j), resid)
        if not self.exact and worst[1] > tol:
            raise RepresentationError(
                f"homomorphism law fails at pair {worst[0]}: residual {worst[1]:.3e}"
            )
        if self.skew_hermitian:
            for i in range(self.spec.dim):
                if self.exact:
                    gen = self.generators[i]
                    for r in range(self.dim_V):
                        for s in range(self.dim_V):
                            if gen[r][s].conjugate() + gen[s][r]:
                                raise RepresentationError(
                                    f"generator {i} is not skew-hermitian"
                                )
                else:
                    gen = self.generators[i]
                    if float(np.linalg.norm(gen.conj().T + gen)) > tol:
                        raise RepresentationError(
                            f"generator {i} is not skew-hermitian to tolerance"
                        )
        self._validated = True

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        label = f" {self.name!r}" if self.name else ""
        return f"MatrixRep({kind}{label}, dim_V={self.dim_V})"


def functional_from_rep(rep, N):
    """The matrix-coefficient functional ``lam(x^alpha) = <R(x^alpha) v, v>``.

    Exact when the representation is exact.  These are the designated
    generators of known-good positive functionals: positivity holds by
    construction since ``lam(D^* D) = ||R(D) v||^2``.
    """
    rep.validate()
    vecs = _orbit_vectors(rep, monomials_up_to(rep.spec.dim, N))
    v0 = rep.cyclic_vector
    if rep.exact:
        values = {alpha: _exact_inner(w, v0) for alpha, w in vecs.items()}
    else:
        values = {alpha: complex(np.vdot(v0, w)) for alpha, w in vecs.items()}
    return FunctionalTable(rep.spec, N, values, exact=rep.exact)


def _orbit_vectors(rep, monos):
    """``R(x^alpha) v`` for each alpha of the degree-ordered ``monos``."""
    vecs = {}
    for alpha in monos:
        if sum(alpha) == 0:
            vecs[alpha] = rep.cyclic_vector
            continue
        # peel the leftmost letter: R(x^alpha) = R(e_i) R(x^(alpha - e_i))
        i = next(idx for idx, a in enumerate(alpha) if a)
        prev = list(alpha)
        prev[i] -= 1
        if rep.exact:
            vecs[alpha] = _exact_matvec(rep.generators[i], vecs[tuple(prev)])
        else:
            vecs[alpha] = rep.generators[i] @ vecs[tuple(prev)]
    return vecs


def orbit_gram(rep, d_max):
    """Exact Gram matrix ``<R(x^beta) v, R(x^alpha) v>`` of the monomial orbit.

    For a skew-hermitian exact representation this must equal the GNS Gram
    of the matrix-coefficient functional entry for entry, which is the
    round-trip fidelity check between the two constructions.
    """
    if not rep.exact:
        raise ValueError("orbit_gram needs an exact representation")
    rep.validate()
    monos = monomials_up_to(rep.spec.dim, d_max)
    vecs = _orbit_vectors(rep, monos)
    return tuple(
        tuple(_exact_inner(vecs[beta], vecs[alpha]) for beta in monos)
        for alpha in monos
    )


class MomentMatrix:
    """Gram table ``M[a][b] = lam((x^alpha_a)^* x^beta_b)`` up to a degree."""

    __slots__ = ("spec", "d_max", "monomials", "rows", "exact", "hermitian")

    def __init__(self, spec, d_max, monomials, rows, exact, hermitian):
        self.spec = spec
        self.d_max = d_max
        self.monomials = monomials
        self.rows = rows
        self.exact = exact
        self.hermitian = hermitian

    @property
    def size(self):
        return len(self.monomials)

    def to_array(self):
        if self.exact:
            return np.array([[c.to_complex() for c in row] for row in self.rows])
        return np.asarray(self.rows)

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return (
            f"MomentMatrix({kind}, size={self.size}, d_max={self.d_max}, "
            f"hermitian={self.hermitian})"
        )


def _right_translate_tables(lam, d_max):
    """Tables ``T_s(D) = lam(D x^s)`` for all normal words s of length <= d_max.

    Built by peeling the first letter: ``T_(i)+s' = (T_s') o rho_{e_i}``.
    Sharing the suffixes keeps every step a single-letter regular action.
    """
    spec = lam.spec
    tables = {(): lam}
    words = sorted(
        {
            tuple(w)
            for alpha in monomials_up_to(spec.dim, d_max)
            for w in [_word_of_alpha(alpha)]
        },
        key=len,
    )
    for word in words:
        if word in tables:
            continue
        suffix = tables[word[1:]]
        tables[word] = regular_act(suffix, spec.basis_vector(word[0]), "right")
    return tables


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
    tables = _right_translate_tables(lam, d_max)
    stars = [star(PBWPoly.monomial(spec, alpha)) for alpha in monos]
    rows = []
    for a, alpha in enumerate(monos):
        row = []
        for b, beta in enumerate(monos):
            row.append(tables[_word_of_alpha(beta)].eval(stars[a]))
        rows.append(row)
    if lam.exact:
        hermitian = all(
            rows[a][b].conjugate() == rows[b][a]
            for a in range(len(monos))
            for b in range(a, len(monos))
        )
        rows = tuple(tuple(r) for r in rows)
    else:
        arr = np.array(rows, dtype=complex)
        hermitian = bool(np.linalg.norm(arr - arr.conj().T) <= 1e-10 * max(1.0, np.linalg.norm(arr)))
        rows = arr
    return MomentMatrix(spec, d_max, tuple(monos), rows, lam.exact, hermitian)


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


def _exact_psd(rows):
    """Pivoted hermitian LDL* in rational arithmetic.

    Returns ``(ok, rank, pivots, witness, witness_value)``.  The witness is
    produced by lifting a violating vector of the current Schur complement
    back through the eliminated pivots, preserving the quadratic form value.
    """
    n = len(rows)
    S = [[rows[i][j] for j in range(n)] for i in range(n)]
    remaining = list(range(n))
    pivots = []
    steps = []  # (pivot index, {col: S[p][col]}, pivot value) at elimination time

    def lift(u):
        # u: dict over original indices; walk eliminations in reverse
        for p, row, piv in reversed(steps):
            dot = Scalar(0)
            for idx, val in u.items():
                entry = row.get(idx)
                if entry is not None:
                    dot = dot + entry * val
            t = -(dot / Scalar(piv))
            if t:
                u[p] = t
        vec = [u.get(i, Scalar(0)) for i in range(n)]
        return tuple(vec)

    def quad_value(u_dict, mat):
        total = Scalar(0)
        for a, ca in u_dict.items():
            for b, cb in u_dict.items():
                total = total + ca.conjugate() * mat[a][b] * cb
        return total

    while remaining:
        # diagonal entries are real for hermitian input
        diag = [(S[i][i].re, i) for i in remaining]
        best_val, best_idx = max(diag, key=lambda t: (t[0], -t[1]))
        neg = [(v, i) for v, i in diag if v < 0]
        if neg:
            _, i = min(neg, key=lambda t: (t[0], t[1]))
            witness = lift({i: ONE})
            return False, len(pivots), tuple(pivots), witness, S[i][i]
        if best_val == 0:
            # all remaining diagonals are zero: matrix is PSD iff the block vanishes
            for i in remaining:
                for j in remaining:
                    if S[i][j]:
                        s = S[i][j].conjugate()
                        tau = -(S[j][j].re + 1) / (2 * S[i][j].abs2())
                        u = {i: Scalar(tau), j: s}
                        val = quad_value(u, S)
                        witness = lift(u)
                        return False, len(pivots), tuple(pivots), witness, val
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


def psd_check(M, tol=0.0):
    """PASS iff M is positive semidefinite (exact pivots, or eigenvalues >= -tol).

    Rejects non-hermitian input.  On FAIL the report carries a witness
    vector ``u`` with ``<Mu, u> < -tol``.
    """
    if isinstance(M, MomentMatrix):
        if not M.hermitian:
            raise HermitianError("moment matrix is not hermitian")
        if M.exact:
            ok, rank, pivots, witness, wval = _exact_psd(M.rows)
            return PsdReport(
                ok, True, M.size, rank=rank, pivots=pivots,
                witness=witness, witness_value=wval,
            )
        arr = M.to_array()
    else:
        arr = np.asarray(M, dtype=complex)
        scale = max(1.0, float(np.linalg.norm(arr)))
        if float(np.linalg.norm(arr - arr.conj().T)) > 1e-10 * scale:
            raise HermitianError("matrix is not hermitian")
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

    ``quotient_basis`` holds mutually orthogonal exact coefficient vectors
    over ``monomials`` (coordinates of ``b_j`` with squared norms
    ``basis_norms2[j]``); on the float path the vectors are stored
    numerically.  ``op_matrices[i]`` is the matrix of left multiplication by
    ``e_i`` from the degree <= d_max-1 quotient (dimension ``sub_rank``)
    into the full quotient, expressed in the orthonormalized basis.
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
    skew_exact: Optional[bool]
    skew_residual: float
    exact: bool
    vacuum: np.ndarray

    def report(self):
        """Structured, JSON-serializable view: Gram, rank and operators.

        Exact Gram entries are encoded like the config scalars ("a/b" or
        ["a/b", "c/d"]); operator matrices are [re, im] float pairs in the
        orthonormalized quotient basis.
        """
        from .scalars import format_scalar

        if self.exact:
            gram = [[format_scalar(c) for c in row] for row in self.gram.rows]
        else:
            arr = self.gram.to_array()
            gram = [[[z.real, z.imag] for z in row] for row in arr]
        ops = None
        if self.op_matrices is not None:
            ops = [
                [[[z.real, z.imag] for z in row] for row in mat]
                for mat in self.op_matrices
            ]
        return {
            "degree": self.degree,
            "quotient_rank": self.quotient_rank,
            "sub_rank": self.sub_rank,
            "pivot_monomials": [",".join(str(a) for a in m) for m in self.pivot_monomials],
            "gram": gram,
            "operators": ops,
            "skew_exact": bool(self.skew_exact) if self.skew_exact is not None else None,
            "skew_residual": self.skew_residual,
        }

    def operator(self, x, pad=True):
        """Matrix of ``rho(x)`` composed with projection onto the sub-quotient.

        The padded square matrix acts on the full quotient; each application
        first projects onto the degree <= d_max-1 span, which is the
        truncation that must shrink as the degree grows.
        """
        if self.op_matrices is None:
            raise ValueError("model built with degree 0 has no operators")
        r, r1 = self.quotient_rank, self.sub_rank
        acc = np.zeros((r, r1), dtype=complex)
        for i, c in enumerate(x.coeffs):
            if c:
                acc = acc + c.to_complex() * self.op_matrices[i]
        if not pad:
            return acc
        out = np.zeros((r, r), dtype=complex)
        out[:, :r1] = acc
        return out


def gns_build(lam, d_max, tol=None):
    """Build the truncated GNS model of a positive functional.

    Requires the moment matrix at ``d_max`` to be PSD (exact pivots, or
    within ``tol`` on the float path); otherwise the functional is not
    positive at this degree and a :class:`PositivityError` is raised.
    """
    M = moment_matrix(lam, d_max)
    if not M.hermitian:
        raise HermitianError("functional is not hermitian; GNS needs <D1, D2> = lam(D2* D1)")
    exact = lam.exact
    if tol is None:
        tol = 0.0 if exact else 1e-10
    psd = psd_check(M, tol=tol)
    if not psd.ok:
        raise PositivityError(
            f"functional is not positive at degree {d_max}", witness=psd.witness
        )
    monos = list(M.monomials)
    n = len(monos)
    G = M.rows if exact else M.to_array()

    def inner(u, w):
        # <u, w> = sum conj(w_a) G[a][b] u_b over sparse dict vectors
        if exact:
            total = Scalar(0)
            for a, wa in w.items():
                row = G[a]
                for b, ub in u.items():
                    if row[b]:
                        total = total + wa.conjugate() * row[b] * ub
            return total
        total = 0j
        for a, wa in w.items():
            for b, ub in u.items():
                total += np.conj(wa) * G[a][b] * ub
        return total

    basis = []      # orthogonal vectors as sparse dicts over monomial indices
    norms2 = []
    pivot_idx = []
    if exact:
        diag_scale = 1
    else:
        diag_scale = max([abs(G[i][i]) for i in range(n)] + [1.0])
    for m in range(n):
        u = {m: ONE if exact else 1.0 + 0j}
        for b, d2 in zip(basis, norms2):
            coeff = inner(u, b)
            if exact:
                coeff = coeff / Scalar(d2)
                if coeff:
                    for idx, val in b.items():
                        got = u.get(idx, Scalar(0)) - coeff * val
                        if got:
                            u[idx] = got
                        elif idx in u:
                            del u[idx]
            else:
                coeff = coeff / d2
                if coeff != 0:
                    for idx, val in b.items():
                        u[idx] = u.get(idx, 0j) - coeff * val
        nrm2 = inner(u, u)
        if exact:
            nrm2 = nrm2.re
            keep = nrm2 > 0
        else:
            nrm2 = nrm2.real
            keep = nrm2 > 1e-10 * diag_scale
        if keep:
            basis.append(u)
            norms2.append(nrm2)
            pivot_idx.append(m)
    rank = len(basis)
    sub_rank = sum(1 for m in pivot_idx if sum(monos[m]) <= d_max - 1)
    idx_of = {alpha: pos for pos, alpha in enumerate(monos)}

    # vacuum = coordinates of the class of the monomial 1 in the orthonormal basis
    vac_dict = {0: ONE if exact else 1.0 + 0j}
    vac_coords = []
    for b, d2 in zip(basis, norms2):
        ip = inner(vac_dict, b)
        ip = ip.to_complex() if exact else complex(ip)
        root = fraction_root_float(d2, 2) if exact else float(np.sqrt(d2))
        vac_coords.append(ip / root)
    vacuum = np.array(vac_coords, dtype=complex)

    op_matrices = None
    skew_exact = None
    skew_residual = 0.0
    if d_max >= 1 and rank:
        spec = lam.spec
        exact_cols = []  # per generator: dict (j, k) -> coefficient
        op_matrices = []
        for i in range(spec.dim):
            A = [[None] * sub_rank for _ in range(rank)]
            for kcol in range(sub_rank):
                bvec = basis[kcol]
                image = {}
                for m_idx, coeff in bvec.items():
                    word = (i,) + _word_of_alpha(monos[m_idx])
                    nf = pbw_reduce(spec, word)
                    for alpha, c in nf.terms.items():
                        pos = idx_of[alpha]
                        if exact:
                            got = image.get(pos, Scalar(0)) + coeff * c
                            if got:
                                image[pos] = got
                            elif pos in image:
                                del image[pos]
                        else:
                            image[pos] = image.get(pos, 0j) + coeff * c.to_complex()
                for j in range(rank):
                    coeff = inner(image, basis[j])
                    if exact:
                        A[j][kcol] = coeff / Scalar(norms2[j])
                    else:
                        A[j][kcol] = coeff / norms2[j]
            exact_cols.append(A)
            mat = np.zeros((rank, sub_rank), dtype=complex)
            for j in range(rank):
                for k in range(sub_rank):
                    val = A[j][k]
                    if exact:
                        scale = fraction_root_float(norms2[j] / norms2[k], 2)
                        mat[j, k] = val.to_complex() * scale
                    else:
                        mat[j, k] = val * np.sqrt(norms2[j] / norms2[k])
            op_matrices.append(mat)
        if exact:
            # skewness on the modeled domain: A_jk d_j + conj(A_kj) d_k = 0
            skew_exact = True
            for A in exact_cols:
                for j in range(sub_rank):
                    for k in range(sub_rank):
                        lhs = A[j][k] * norms2[j] + A[k][j].conjugate() * norms2[k]
                        if lhs:
                            skew_exact = False
        else:
            worst = 0.0
            for mat in op_matrices:
                blk = mat[:sub_rank, :sub_rank]
                worst = max(worst, float(np.linalg.norm(blk + blk.conj().T)))
            skew_residual = worst
            skew_exact = worst <= 1e-12 * max(1.0, diag_scale)

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
        skew_exact=skew_exact,
        skew_residual=skew_residual,
        exact=exact,
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


def analytic_diagnostics(lam, x, n_max, t=1.0):
    """Exact vector-norm squares along ``x`` plus convergence diagnostics.

    Computes ``s_n^2 = (-1)^n Re(lam(x^(2n)))`` for ``n <= n_max``; flags the
    first negative value as a certificate of non-positivity.  Reports the
    partial sums of the vector series at ``t``, the exponential series
    ``sum lam(x^n) t^n / n!``, the root-test radius estimate of the vector
    series, and its ratio to half the functional radius estimate.
    """
    lam._need_exact("analytic diagnostics")
    if 2 * n_max > lam.max_degree:
        raise DegreeOverflowError(
            f"diagnostics to n={n_max} need functional degree {2 * n_max}"
        )
    spec = lam.spec
    xpoly = PBWPoly.from_gvector(x)
    powers = [PBWPoly.one(spec)]
    for _ in range(2 * n_max):
        powers.append(powers[-1] * xpoly)
    s2 = []
    witness = None
    for n in range(n_max + 1):
        val = lam.eval(powers[2 * n])
        s2n = val.re if n % 2 == 0 else -val.re
        s2.append(s2n)
        if witness is None and s2n < 0:
            witness = n
    s_vals = tuple(fraction_root_float(q, 2) if q > 0 else 0.0 for q in s2)
    sums_vec = []
    acc = 0.0
    for n in range(n_max + 1):
        acc += s_vals[n] * (t ** n) / factorial(n)
        sums_vec.append(acc)
    sums_exp = []
    acc_c = 0j
    for k in range(2 * n_max + 1):
        acc_c += lam.eval(powers[k]).to_complex() * (t ** k) / factorial(k)
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
