"""Finite-dimensional Lie algebras from structure constants, and exact U(g).

A :class:`LieAlgebraSpec` stores the brackets ``[e_i, e_j] = sum_k c_ijk e_k``
for ``i < j`` together with positive weights defining the weighted-l1
seminorm ``p(x) = sum_i w_i |x_i|``.  On top of it live exact PBW normal
forms (:class:`PBWPoly`), the ``*`` involution with ``x^* = -x``, and the
BCH product evaluated inside g by its graded recursion.

Monomials are kept in ascending basis order (declaration order); rewriting
``x_j x_i -> x_i x_j + [x_j, x_i]`` terminates because each step either
shortens the word or removes an inversion, and the result is independent of
the rewrite order.  The memo is per spec: the normal form of
``x^alpha * e_l`` for a normal monomial ``x^alpha`` and a letter ``l``.  The
normal form of any word or product is a fold of that step over its letters.
The spec also keeps the memo's transpose, its columns: for each letter l and
monomial ``x^b``, the rank of every ``x^alpha`` whose ``x^alpha * e_l`` holds ``x^b``.

The engine runs on Python ints.  Let ``delta`` be the lcm of the
denominators of the (real, rational) structure constants.  Each rewrite
step that brackets two letters costs one factor ``1/delta`` and one degree,
so every coefficient of a normal form has a denominator that is a power of
``delta`` fixed by the degree it lost.  A *graded table* ``{b: n_b}`` of
ints at grade ``top`` stands for ``sum_b n_b / delta**(top - |b|) x^b``;
the memo stores ``x^alpha * e_l`` at grade ``|alpha| + 1``, and multiplying
a graded table by a letter on the right gives the graded table one grade
up, with no rescaling.  Complex coefficients travel as int pairs
``(A, B)`` over one common denominator ``den``, so a coefficient reads
``(A + B i) / (den * delta**(top - |b|))``.  :class:`~envalg.scalars.Scalar`
values appear only where a :class:`PBWPoly` is built, one per output term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial, lcm
from typing import NamedTuple, Optional, Tuple

from .free_algebra import _SparseTerms, _nonzero
from .errors import SpecMismatchError
from .scalars import ONE, ZERO, _int_pairs, _reduced, as_scalar

__all__ = [
    "LieAlgebraSpec",
    "GVector",
    "PBWPoly",
    "JacobiReport",
    "SubmultReport",
    "jacobi_validate",
    "bracket",
    "submult_check",
    "pbw_reduce",
    "pbw_mul",
    "star",
    "bch_in_g",
    "monomial_name",
]


class LieAlgebraSpec:
    """Structure constants, basis names and seminorm weights of a Lie algebra.

    ``structure`` maps pairs ``(i, j)`` with ``i < j`` to ``{k: c_ijk}``;
    antisymmetry is implicit.  Structure constants must be real rationals
    (the Lie algebra itself is real; complex coefficients live in vectors
    and enveloping-algebra elements).  Instances are immutable after
    construction apart from three internal caches of the PBW engine: the
    normal forms of ``x^alpha * e_l`` (``_right_cache``), their transpose
    (``_column_cache``, see :func:`_columns`) and the multiset sums
    (``_sum_cache``, see :func:`~envalg.functionals._symmetric_sums`),
    seeded with ``S(0) = 1``.  ``delta`` is the
    lcm of the structure constants' denominators (1 for integer constants),
    the base of the PBW engine's graded int tables.
    """

    __slots__ = (
        "dim",
        "basis_names",
        "weights",
        "delta",
        "_table",
        "_right_cache",
        "_column_cache",
        "_sum_cache",
    )

    def __init__(self, dim, basis_names, structure, weights):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        basis_names = tuple(str(n) for n in basis_names)
        if len(basis_names) != dim:
            raise ValueError(f"expected {dim} basis names, got {len(basis_names)}")
        if len(set(basis_names)) != dim:
            raise ValueError("basis names must be distinct")
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) != dim:
            raise ValueError(f"expected {dim} weights, got {len(weights)}")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be strictly positive")
        table = {}
        for (i, j), row in structure.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"structure key ({i},{j}) must satisfy 0 <= i < j < dim")
            clean = {}
            for k, c in row.items():
                if not (0 <= k < dim):
                    raise ValueError(f"structure target index {k} out of range")
                c = as_scalar(c)
                if c is NotImplemented or not c.is_real():
                    raise ValueError("structure constants must be real rationals")
                if c:
                    clean[k] = c
            if clean:
                table[(i, j)] = clean
        self.dim = dim
        self.basis_names = basis_names
        self.weights = weights
        self.delta = lcm(*(c.d for row in table.values() for c in row.values()))
        self._table = table
        self._right_cache = {}
        self._column_cache = (-1, tuple({} for _ in range(dim)))
        zero = (0,) * dim
        self._sum_cache = [{zero: {zero: 1}}]

    def bracket_rows(self):
        """Iterate stored ``((i, j), {k: c})`` pairs with i < j."""
        return self._table.items()

    def bracket_of(self, i, j):
        """``[e_i, e_j]`` as ``{k: Scalar}`` for any index order."""
        if i == j:
            return {}
        if i < j:
            return self._table.get((i, j), {})
        row = self._table.get((j, i))
        if not row:
            return {}
        return {k: -c for k, c in row.items()}

    def basis_vector(self, i):
        coeffs = [ZERO] * self.dim
        coeffs[i] = ONE
        return GVector(self, coeffs)

    def _canonical(self):
        return (
            self.dim,
            self.basis_names,
            self.weights,
            tuple(
                (key, tuple(sorted((k, (c.re, c.im)) for k, c in row.items())))
                for key, row in sorted(self._table.items())
            ),
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())

    def __repr__(self):
        return f"LieAlgebraSpec(dim={self.dim}, basis={'/'.join(self.basis_names)})"


def _check_same_spec(a, b, what):
    if a != b:
        raise SpecMismatchError(f"{what} across different Lie algebra specs")


class GVector(_SparseTerms):
    """An element of g (or its complexification) in basis coordinates.

    ``terms`` maps a basis index to its nonzero coordinate.  The product of g
    is :func:`bracket`, so ``x * y`` raises TypeError.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec, coeffs):
        coeffs = tuple(as_scalar(c) for c in coeffs)
        if any(c is NotImplemented for c in coeffs):
            raise TypeError("GVector coefficients must be scalars")
        if len(coeffs) != spec.dim:
            raise ValueError(f"expected {spec.dim} coefficients, got {len(coeffs)}")
        self.spec = spec
        self.terms = {i: c for i, c in enumerate(coeffs) if c}

    @classmethod
    def _raw(cls, spec, terms):
        x = object.__new__(cls)
        x.spec = spec
        x.terms = terms
        return x

    @property
    def coeffs(self):
        """The coordinates as a dense tuple, zeros included."""
        return tuple([self.terms.get(i, ZERO) for i in range(self.spec.dim)])

    def _check_compatible(self, other):
        _check_same_spec(self.spec, other.spec, "adding vectors")

    def _params(self):
        return (self.spec,)

    def _product(self, other):
        return NotImplemented

    def is_real(self):
        return all(c.is_real() for c in self.terms.values())

    def seminorm(self):
        """The weighted-l1 seminorm ``sum w_i |x_i|``, exact for real vectors."""
        if not self.is_real():
            raise ValueError("exact seminorm is defined for real vectors only")
        return sum((self.spec.weights[i] * abs(c.re) for i, c in self.terms.items()), Fraction(0))

    def __repr__(self):
        names = self.spec.basis_names
        parts = [f"{c}*{names[i]}" for i, c in sorted(self.terms.items())]
        return "GVector(" + (" + ".join(parts) or "0") + ")"


def bracket(x, y):
    """Exact bracket ``[x, y]`` via structure constants."""
    _check_same_spec(x.spec, y.spec, "bracketing vectors")
    spec = x.spec
    xc, yc = x.coeffs, y.coeffs
    out = [ZERO] * spec.dim
    for (i, j), row in spec.bracket_rows():
        factor = xc[i] * yc[j] - xc[j] * yc[i]
        if not factor:
            continue
        for k, c in row.items():
            out[k] = out[k] + factor * c
    return GVector(spec, tuple(out))


class JacobiReport(NamedTuple):
    ok: bool
    witness: Optional[Tuple[int, int, int]] = None

    def __str__(self):
        if self.ok:
            return "jacobi: PASS"
        return f"jacobi: FAIL at triple {self.witness}"


def jacobi_validate(spec):
    """Check ``[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] = 0`` exactly."""
    basis = [spec.basis_vector(i) for i in range(spec.dim)]
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            for k in range(j + 1, spec.dim):
                total = (
                    bracket(basis[i], bracket(basis[j], basis[k]))
                    + bracket(basis[j], bracket(basis[k], basis[i]))
                    + bracket(basis[k], bracket(basis[i], basis[j]))
                )
                if not total.is_zero():
                    return JacobiReport(False, (i, j, k))
    return JacobiReport(True)


class SubmultReport(NamedTuple):
    ok: bool
    witness: Optional[Tuple[int, int]] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None

    def __str__(self):
        if self.ok:
            return "submultiplicative: PASS"
        return (
            f"submultiplicative: FAIL at pair {self.witness}: "
            f"{self.lhs} > {self.rhs}"
        )


def submult_check(spec):
    """Check the vertex condition ``sum_k w_k |c_ijk| <= w_i w_j`` for i < j.

    For the weighted-l1 seminorm this is equivalent to submultiplicativity
    ``p([x,y]) <= p(x) p(y)``: the unit ball is the convex hull of the
    vertices ``+-e_i / w_i`` and the bracket is bilinear.
    """
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            row = spec.bracket_of(i, j)
            lhs = sum((spec.weights[k] * abs(c.re) for k, c in row.items()), Fraction(0))
            rhs = spec.weights[i] * spec.weights[j]
            if lhs > rhs:
                return SubmultReport(False, (i, j), lhs, rhs)
    return SubmultReport(True)


# ---------------------------------------------------------------------------
# PBW engine.  A normal monomial x^alpha is its multi-index alpha, whose
# letters read in ascending order; the helpers below multiply graded int
# tables (see the module docstring) by one letter on the right, with
# memoization per spec.
# ---------------------------------------------------------------------------


def _right_letter(spec, alpha, letter):
    """Normal form of ``x^alpha * e_letter`` as a graded table ``{b: int}``.

    The coefficient of ``x^b`` is ``n_b / delta**(|alpha| + 1 - |b|)``.  The
    last letter of ``x^alpha`` is its largest nonzero index j.  For
    ``j > letter`` the rewrite ``x^a x_j x_l = x^a x_l x_j + x^a [x_j, x_l]``
    recurses on strictly smaller (length, inversion) ranks, so the recursion
    terminates.  In the first term the grades of the two steps add up; in
    the second the bracket ``c_k = C_k / delta`` supplies the one factor
    ``1/delta`` its lost degree calls for, so both sum plain ints.
    """
    cache = spec._right_cache
    key = (alpha, letter)
    hit = cache.get(key)
    if hit is not None:
        return hit
    grown = list(alpha)
    if not any(alpha[letter + 1:]):
        grown[letter] += 1
        result = {tuple(grown): 1}
    else:
        j = max(i for i, a in enumerate(alpha) if a)
        grown[j] -= 1
        prefix = tuple(grown)
        out = {}
        get = out.get
        for b, c in _right_letter(spec, prefix, letter).items():
            for b2, c2 in (cache.get((b, j)) or _right_letter(spec, b, j)).items():
                out[b2] = get(b2, 0) + c * c2
        delta = spec.delta
        # j > letter: [e_j, e_letter] is minus the stored row of (letter, j)
        for k, ck in spec._table.get((letter, j), {}).items():
            ck = -ck.a * (delta // ck.d)
            for b2, c2 in _right_letter(spec, prefix, k).items():
                out[b2] = get(b2, 0) + ck * c2
        result = _nonzero(out)
    cache[key] = result
    return result


@cache
def monomials_up_to(dim, degree):
    """All multi-indices with ``|alpha| <= degree`` in graded lexicographic order.

    The multi-indices of one degree are the gaps between ``dim - 1`` bars
    placed among ``total + dim - 1`` slots; bar positions in lexicographic
    order give the multi-indices in lexicographic order.
    """
    out = []
    for total in range(degree + 1):
        end = total + dim - 1
        for bars in combinations(range(end), dim - 1):
            edges = (-1,) + bars + (end,)
            out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return tuple(out)


def _columns(spec, degree):
    """The transpose of :func:`_right_letter` for every ``|alpha| <= degree``.

    ``columns[l][b]`` lists ``(rank, n)`` for every normal monomial
    ``x^alpha`` whose ``x^alpha * e_l`` holds ``x^b`` with the graded
    coefficient n; the rank of alpha is its position in the graded order of
    :func:`monomials_up_to`, the same at every degree.  The spec's columns
    grow one degree layer at a time up to the largest degree asked for so
    far, so a caller that needs ``|alpha| <= d`` stops at rank ``C(d + dim, dim)``.
    """
    built, columns = spec._column_cache
    if degree > built:
        monos = monomials_up_to(spec.dim, degree)
        start = comb(built + spec.dim, spec.dim)
        for rank, alpha in enumerate(monos[start:], start):
            for letter, column in enumerate(columns):
                for b, n in _right_letter(spec, alpha, letter).items():
                    column.setdefault(b, []).append((rank, n))
        spec._column_cache = (degree, columns)
    return columns


def _poly_right_letter(spec, table, letter):
    """A graded int table times ``e_letter``: the graded table one grade up."""
    cache = spec._right_cache
    out = {}
    get = out.get
    for alpha, coeff in table.items():
        for b, c in (cache.get((alpha, letter)) or _right_letter(spec, alpha, letter)).items():
            out[b] = get(b, 0) + coeff * c
    return _nonzero(out)


def _normal_form(spec, word):
    """Normal form of an arbitrary word as a fresh graded table at grade ``len(word)``."""
    table = {(0,) * spec.dim: 1}
    for letter in word:
        table = _poly_right_letter(spec, table, letter)
    return table


def _acc_pair(table, key, a, b):
    """``table[key] += (a, b)`` over Gaussian-int pairs, dropping an entry that cancels."""
    got = table.get(key)
    if got is not None:
        a += got[0]
        b += got[1]
    if a or b:
        table[key] = (a, b)
    elif got is not None:
        del table[key]


def _graded(spec, terms):
    """Scalar terms as ``(den, top, {alpha: (A, B)})`` over one denominator.

    ``top`` is the largest degree and the coefficient at alpha is
    ``(A + B i) / (den * delta**(top - |alpha|))``.
    """
    den, pairs = _int_pairs(terms.values())
    top = max(map(sum, terms), default=0)
    delta = spec.delta
    out = {}
    for alpha, (a, b) in zip(terms, pairs):
        s = delta ** (top - sum(alpha))
        out[alpha] = (a * s, b * s)
    return den, top, out


def _scalar_terms(spec, den, top, pairs):
    """The Scalars of a pair table ``(A + B i) / (den * delta**(top - |alpha|))``."""
    delta = spec.delta
    return {
        alpha: _reduced(a, b, den * delta ** (top - sum(alpha)))
        for alpha, (a, b) in pairs.items()
    }


def _word_of_alpha(alpha):
    out = []
    for i, a in enumerate(alpha):
        out.extend((i,) * a)
    return tuple(out)


def monomial_name(spec, alpha):
    """Human-readable PBW monomial like ``p^2*q`` (``1`` for the empty index)."""
    bits = []
    for name, a in zip(spec.basis_names, alpha):
        if a == 1:
            bits.append(name)
        elif a > 1:
            bits.append(f"{name}^{a}")
    return "*".join(bits) or "1"


class PBWPoly(_SparseTerms):
    """Element of U(g) in PBW normal form: multi-index -> nonzero Scalar."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=None):
        clean = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != spec.dim or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for dim {spec.dim}")
            coeff = as_scalar(coeff)
            if coeff is NotImplemented:
                raise TypeError("PBW coefficients must be scalars")
            if coeff:
                clean[alpha] = coeff
        self.spec = spec
        self.terms = clean

    @classmethod
    def _raw(cls, spec, terms):
        p = object.__new__(cls)
        p.spec = spec
        p.terms = terms
        return p

    @classmethod
    def zero(cls, spec):
        return cls._raw(spec, {})

    @classmethod
    def one(cls, spec):
        return cls._raw(spec, {(0,) * spec.dim: ONE})

    @classmethod
    def monomial(cls, spec, alpha):
        return cls(spec, {tuple(alpha): ONE})

    @classmethod
    def generator(cls, spec, i):
        alpha = [0] * spec.dim
        alpha[i] = 1
        return cls._raw(spec, {tuple(alpha): ONE})

    @classmethod
    def from_gvector(cls, x):
        dim = x.spec.dim
        return cls._raw(x.spec, {(0,) * i + (1,) + (0,) * (dim - 1 - i): c
                                 for i, c in x.terms.items()})

    def degree(self):
        """Max total degree of the stored monomials; -1 for the zero element."""
        return max((sum(a) for a in self.terms), default=-1)

    def _check_compatible(self, other):
        _check_same_spec(self.spec, other.spec, "adding U(g) elements")

    def _params(self):
        return (self.spec,)

    def _product(self, other):
        return pbw_mul(self, other)

    def __repr__(self):
        if not self.terms:
            return "PBWPoly(0)"
        bits = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            bits.append(f"{self.terms[alpha]}*{monomial_name(self.spec, alpha)}")
        return "PBWPoly(" + " + ".join(bits) + ")"


def pbw_reduce(spec, word):
    """Rewrite an arbitrary word of basis letters into PBW normal form."""
    word = tuple(word)
    if any(not (0 <= l < spec.dim) for l in word):
        raise ValueError(f"word {word} has letters outside the basis range")
    delta, top = spec.delta, len(word)
    return PBWPoly._raw(spec, {
        b: _reduced(n, 0, delta ** (top - sum(b)))
        for b, n in _normal_form(spec, word).items()
    })


def pbw_mul(a, b):
    """Product in U(g): concatenate monomials and reduce to normal form.

    The left factor's real and imaginary parts fold through the letters of
    each right monomial as graded int tables; the product, at the sum of the
    two grades over the product of the two denominators, is accumulated in
    Gaussian-int pairs and read out as Scalars once.
    """
    _check_same_spec(a.spec, b.spec, "multiplying U(g) elements")
    spec = a.spec
    den_a, top_a, left = _graded(spec, a.terms)
    den_b, top_b, right = _graded(spec, b.terms)
    left_re = {alpha: a for alpha, (a, _) in left.items() if a}
    left_im = {alpha: b for alpha, (_, b) in left.items() if b}
    out = {}
    for beta, (p, q) in right.items():
        re, im = left_re, left_im
        for letter in _word_of_alpha(beta):
            re = _poly_right_letter(spec, re, letter)
            if im:
                im = _poly_right_letter(spec, im, letter)
        for alpha, c in re.items():
            _acc_pair(out, alpha, c * p, c * q)
        for alpha, c in im.items():
            _acc_pair(out, alpha, -c * q, c * p)
    return PBWPoly._raw(spec, _scalar_terms(spec, den_a * den_b, top_a + top_b, out))


def star(a):
    """The antilinear antiautomorphism of U(g) with ``x^* = -x`` on g.

    Conjugates coefficients, reverses each monomial with sign
    ``(-1)^degree`` and reduces back to normal form.
    """
    spec = a.spec
    den, top, pairs = _graded(spec, a.terms)
    out = {}
    for alpha, (p, q) in pairs.items():
        for b, c in _star_monomial(spec, alpha).items():
            _acc_pair(out, b, p * c, -q * c)
    return PBWPoly._raw(spec, _scalar_terms(spec, den, top, out))


def _star_monomial(spec, alpha):
    """``(x^alpha)^* = (-1)^|alpha| NF(reversed word)`` as a graded int table at grade |alpha|."""
    sign = (-1) ** sum(alpha)
    return {b: sign * c for b, c in _normal_form(spec, _word_of_alpha(alpha)[::-1]).items()}


def _bernoulli(n):
    """Bernoulli numbers ``B_0 .. B_n`` from ``sum_{k<=m} C(m+1, k) B_k = 0``."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum(comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
    return B


def _bch_terms(x, y, N):
    """The homogeneous parts ``[Z_1, ..., Z_N]`` of the BCH product ``x * y`` in g.

    The graded recursion (Varadarajan, *Lie Groups, Lie Algebras and Their
    Representations*, §2.15; Casas & Murua, J. Math. Phys. 50, 033513,
    2009): ``Z_1 = x + y`` and

        (n+1) Z_(n+1) = 1/2 [x - y, Z_n] + sum_(p>=1, 2p<=n) B_2p/(2p)! U_2p(n),

    where ``U_q(m) = sum_(k>=1) [Z_k, U_(q-1)(m-k)]`` sums the nested brackets
    ``[Z_k1, [Z_k2, ..., [Z_kq, x + y]..]]`` over the compositions
    ``k_1 + ... + k_q = m``, from ``U_0(0) = x + y`` and ``U_0(m > 0) = 0``.
    Row m of the table ``U_q(m)``, ``1 <= q <= m < N``, takes
    ``1 + (m-1)(m-2)/2`` brackets, so degree N costs about ``N**3 / 6``.
    """
    _check_same_spec(x.spec, y.spec, "BCH of vectors")
    if N < 1:
        raise ValueError("bch_in_g needs N >= 1")
    s, d = x + y, x - y
    B = _bernoulli(N)
    zero = GVector._raw(x.spec, {})
    Z = [s]      # Z[n - 1] = Z_n
    U = [[s]]    # U[m][q] = U_q(m) for 1 <= q <= m, and U[0][0] = x + y
    for n in range(1, N):
        row = [None, bracket(Z[n - 1], s)]
        # k = n - q + 1 would meet U_(q-1)(q-1) = ad(x + y)**(q-1) (x + y) = 0
        for q in range(2, n + 1):
            row.append(sum((bracket(Z[k - 1], U[n - k][q - 1]) for k in range(1, n - q + 1)),
                           zero))
        U.append(row)
        z = bracket(d, Z[n - 1]).scale(Fraction(1, 2))
        for p in range(1, n // 2 + 1):
            z = z + row[2 * p].scale(B[2 * p] / factorial(2 * p))
        Z.append(z.scale(Fraction(1, n + 1)))
    return Z


def bch_in_g(x, y, N):
    """Evaluate the BCH product ``x * y`` inside g, truncated at degree N.

    The sum ``Z_1 + ... + Z_N`` of the graded recursion of
    :func:`_bch_terms`: about ``N**3 / 6`` brackets (187 at N = 12), where
    bracketing the words of the free BCH series walks about ``2**N`` words.
    Exact whenever the inputs are exact; for nilpotent g of class c the
    result is independent of N once ``N >= c``.
    """
    terms = _bch_terms(x, y, N)
    return sum(terms[1:], terms[0])
