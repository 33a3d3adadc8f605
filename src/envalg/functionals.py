"""Linear functionals on U(g) as finite PBW tables, and their norm machinery.

A :class:`FunctionalTable` stores the values of a linear functional on every
PBW monomial up to a degree; evaluation on any normal-form element follows by
linearity.  The multilinear components ``beta_n``, their symmetrizations,
exact weighted-l1 operator norms, the truncated Hadamard radius estimate,
the right regular action, and the insertion-constant recursion all live here.

A symmetric n-linear map is fixed by its values on letter multisets, so the
norm machinery never enumerates the ``dim**n`` words.  The symmetric sum
``S(alpha)``, the sum of all words whose letter multiset is ``alpha``, obeys
``S(0) = 1`` and ``S(alpha) = sum_{j: alpha_j > 0} S(alpha - e_j) e_j`` in
normal form, and ``beta_n^s(alpha) = lam(S(alpha)) / multinomial(alpha)``.
Inserting ``e_i`` at position k gives ``T_{k,i}(alpha)``, the sum of the
words with letter i at position k and the multiset alpha elsewhere; split
after the inserted letter, ``lam(T_{k,i}(alpha))`` is a sum of
``mu_{alpha''}(S(alpha') e_i)`` with ``mu_beta = lam(. S(beta))``.  Both run
over the ``C(n+dim-1, dim-1)`` multisets of each degree.  The word tables
(:func:`beta_component`, :func:`symmetrize`) remain as the direct route for
small n.

Every table holds exact Scalars, including the matrix-coefficient tables
of float representations (see :mod:`envalg.gns`), and evaluation runs on
integers.  A table's integer image ``(den, {alpha: (V, W)})`` reads
``lam(x^alpha) = (V + W i) / (den * delta**|alpha|)``, and a normal form
from the PBW engine is a graded int table ``{b: n_b}`` at grade ``top``
reading ``sum_b n_b / delta**(top - |b|) x^b``.  The powers of ``delta``
cancel term by term, so ``lam`` of the table is ``sum_b n_b (V_b + W_b
i)`` over the single denominator ``den * delta**top``.  The norm kernels,
:func:`beta_component` and :func:`regular_act` sum those int products and
build one Scalar per output entry; :func:`regular_act` hands on its result
as an image too.

Norms are values ``sqrt(q)`` with rational ``q``; every comparison is done
on the exact squares (see :mod:`envalg.scalars`), and floating point shows
up only in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import factorial, gcd
from operator import add
from typing import Optional, Tuple

from .errors import (
    DegreeOverflowError,
    SpecMismatchError,
    SubmultiplicativityError,
)
from .free_algebra import _acc
from .lie_structure import (
    _acc_pair,
    _graded,
    _poly_right_letter,
    _right_letter,
    monomial_name,
    submult_check,
)
from .scalars import (
    ZERO,
    RootValue,
    Scalar,
    SqrtFraction,
    _int_pairs,
    _reduced,
    as_scalar,
    sqrt_leq_sqrt_plus_multiple,
)

__all__ = [
    "FunctionalTable",
    "BetaComponent",
    "beta_component",
    "symmetrize",
    "pnorm",
    "RadiusEstimate",
    "radius_estimate",
    "regular_act",
    "insertion_constants",
    "RecursionReport",
    "recursion_check",
    "growth_diagnostics",
    "monomials_up_to",
]


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


class FunctionalTable:
    """Values of a linear functional on all PBW monomials of degree <= N.

    Absent entries are zero; every value is an exact :class:`Scalar`.  A
    table also has an integer image ``(den, {alpha: (V, W)})``
    with ``lam(x^alpha) = (V + W i) / (den * delta**|alpha|)`` (``delta`` of
    the spec, see :mod:`envalg.lie_structure`).  Against a graded int table
    at grade ``top`` every term then shares the denominator
    ``den * delta**top``, so evaluation adds Python ints and builds one
    Scalar at the end.  A table built from Scalars derives its image on first
    use; a table computed by a kernel (:func:`regular_act`) is built from its
    image and materializes ``values`` on first read.
    """

    __slots__ = ("spec", "max_degree", "_values", "_image")

    # every table is exact; perfbench/tracing.py still reads the flag
    exact = True

    def __init__(self, spec, max_degree, values=None):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.spec = spec
        self.max_degree = max_degree
        clean = {}
        for alpha, v in (values or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != spec.dim:
                raise ValueError(f"multi-index {alpha} has wrong length")
            if sum(alpha) > max_degree:
                raise DegreeOverflowError(
                    f"value for {monomial_name(spec, alpha)} exceeds degree {max_degree}"
                )
            v = as_scalar(v)
            if v is NotImplemented:
                raise TypeError("functional tables need Scalar values")
            if v:
                clean[alpha] = v
        self._values = clean
        self._image = None

    @classmethod
    def _from_image(cls, spec, max_degree, den, image):
        """A table from its integer image (nonzero pairs, degrees in range)."""
        lam = object.__new__(cls)
        lam.spec = spec
        lam.max_degree = max_degree
        lam._values = None
        lam._image = (den, image)
        return lam

    @property
    def values(self):
        values = self._values
        if values is None:
            den, image = self._image
            delta = self.spec.delta
            values = self._values = {
                alpha: _reduced(v, w, den * delta ** sum(alpha))
                for alpha, (v, w) in image.items()
            }
        return values

    def _int_image(self):
        """The integer image ``(den, {alpha: (V, W)})`` of the table."""
        image = self._image
        if image is None:
            values = self._values
            den, pairs = _int_pairs(values.values())
            delta = self.spec.delta
            graded = {}
            for alpha, (a, b) in zip(values, pairs):
                s = delta ** sum(alpha)
                graded[alpha] = (a * s, b * s)
            image = self._image = (den, graded)
        return image

    def value(self, alpha):
        alpha = tuple(alpha)
        if sum(alpha) > self.max_degree:
            raise DegreeOverflowError(
                f"functional not defined on {monomial_name(self.spec, alpha)} "
                f"(degree {sum(alpha)} > {self.max_degree})"
            )
        return self.values.get(alpha, ZERO)

    def eval(self, poly):
        """Evaluate on a PBW element by linearity, summing int pairs over one
        denominator; rejects degree overflow."""
        if not (poly.spec is self.spec or poly.spec == self.spec):
            raise SpecMismatchError("functional and element use different specs")
        den_p, top, terms = _graded(self.spec, poly.terms)
        den, image = self._int_image()
        x = y = 0
        for alpha, (a, b) in self._known(terms.items(), image):
            vr, vi = image[alpha]
            x += a * vr - b * vi
            y += a * vi + b * vr
        return _reduced(x, y, den_p * den * self.spec.delta ** top)

    def _eval_graded(self, table, top):
        """``lam`` of a real graded int table at grade ``top`` within the degree,
        as one Scalar over ``den * delta**top``."""
        den, image = self._int_image()
        return _reduced(*_contract(table, image), den * self.spec.delta ** top)

    def _known(self, terms, table):
        """The ``(alpha, coeff)`` terms whose alpha is stored in ``table``.

        Stored keys passed the degree check at construction, so only a miss
        needs it.
        """
        for alpha, coeff in terms:
            if alpha in table:
                yield alpha, coeff
            elif sum(alpha) > self.max_degree:
                raise DegreeOverflowError(
                    f"monomial {monomial_name(self.spec, alpha)} exceeds "
                    f"functional degree {self.max_degree}"
                )

    def __repr__(self):
        return (
            f"FunctionalTable(degree<={self.max_degree}, "
            f"{len(self.values)} nonzero values)"
        )


def _contract(table, image):
    """``(X, Y)`` with ``X + Y i = sum_b table[b] * image[b]`` for a real int table."""
    x = y = 0
    get = image.get
    for b, n in table.items():
        v = get(b)
        if v is not None:
            x += n * v[0]
            y += n * v[1]
    return x, y


class BetaComponent:
    """The n-linear component ``beta_n`` on basis tuples, or its symmetrization.

    ``values`` maps length-n letter tuples to scalars.  Symmetric components
    store one entry per sorted tuple; lookups sort their argument, which
    realizes permutation invariance exactly.
    """

    __slots__ = ("spec", "n", "values", "symmetric")

    def __init__(self, spec, n, values, symmetric=False):
        self.spec = spec
        self.n = n
        self.values = values
        self.symmetric = symmetric

    def lookup(self, letters):
        letters = tuple(letters)
        if len(letters) != self.n:
            raise ValueError(f"expected {self.n} letters, got {len(letters)}")
        if self.symmetric:
            letters = tuple(sorted(letters))
        return self.values.get(letters, Scalar(0))

    def __repr__(self):
        kind = "symmetric" if self.symmetric else "word"
        return f"BetaComponent(n={self.n}, {kind}, {len(self.values)} entries)"


def beta_component(lam, n):
    """Fill the full word table ``beta_n(e_{i1},..,e_{in}) = lam(x_{i1}..x_{in})``.

    The words are walked depth first in lexicographic order.  Each word costs
    one right-letter step from its prefix's normal form, and only the normal
    forms on the current path are held.
    """
    if n > lam.max_degree:
        raise DegreeOverflowError(f"arity {n} exceeds functional degree {lam.max_degree}")
    spec = lam.spec
    values = {}

    def walk(word, table):
        if len(word) == n:
            values[word] = lam._eval_graded(table, n)
            return
        for letter in range(spec.dim):
            walk(word + (letter,), _poly_right_letter(spec, table, letter))

    walk((), {(0,) * spec.dim: 1})
    return BetaComponent(spec, n, values, symmetric=False)


def _symmetrize_values(spec, n, raw_lookup):
    """Average a word table over S_n, grouping words by their sorted multiset."""
    groups = {}
    counts = {}
    for word in product(range(spec.dim), repeat=n):
        key = tuple(sorted(word))
        v = raw_lookup(word)
        if key in groups:
            groups[key] = groups[key] + v
            counts[key] += 1
        else:
            groups[key] = v
            counts[key] = 1
    n_fact = factorial(n)
    out = {}
    for key, total in groups.items():
        # each distinct arrangement occurs n!/count times among all n! permutations
        out[key] = total * Fraction(n_fact // counts[key], n_fact)
    return out


def symmetrize(beta):
    """Exact average of ``beta_n`` over all argument permutations."""
    values = _symmetrize_values(beta.spec, beta.n, beta.lookup)
    return BetaComponent(beta.spec, beta.n, values, symmetric=True)


def pnorm(beta):
    """Exact weighted-l1 operator norm of a multilinear component.

    The sup of a multilinear map over the p-unit ball is attained at the
    ball vertices ``+-e_i / w_i``, so the norm is the max over letter tuples
    of ``|beta(tuple)| / (w_{i1} .. w_{in})``.  With each value ``(a + b i)
    / d`` and the weight product ``W / V`` as ints, the ratio squared is
    ``(a**2 + b**2) V**2 / (d W)**2``; the max is decided by int cross
    products and returned as a :class:`SqrtFraction` whose square is exact.
    """
    weights = _weight_pairs(beta.spec)
    best_num, best_den = 0, 1
    for word, v in beta.values.items():
        a, b = v.a, v.b
        if not (a or b):
            continue
        top, bottom = v.d, 1
        for l in word:
            wn, wd = weights[l]
            top *= wn
            bottom *= wd
        num = (a * a + b * b) * bottom * bottom
        den = top * top
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return SqrtFraction(Fraction(best_num, best_den))


def _times_letters(spec, layer):
    """One degree up: ``out[alpha] = sum_{j: alpha_j > 0} layer[alpha - e_j] e_j``.

    The tables are graded int tables of one grade, and the result is one grade up.
    """
    out = {}
    for alpha, table in layer.items():
        for j in range(spec.dim):
            grown = list(alpha)
            grown[j] += 1
            target = out.setdefault(tuple(grown), {})
            for beta, coeff in table.items():
                for b, c in _right_letter(spec, beta, j).items():
                    _acc(target, b, coeff * c)
    return out


def _symmetric_sums(spec, top):
    """``sums[n][alpha] = S(alpha)`` for every multiset ``|alpha| = n <= top``.

    Each ``S(alpha)`` is a graded int table at grade n.
    """
    zero = (0,) * spec.dim
    sums = [{zero: {zero: 1}}]
    for _ in range(top):
        sums.append(_times_letters(spec, sums[-1]))
    return sums


def _weight_pairs(spec):
    """The spec's weights as ``(numerator, denominator)`` int pairs."""
    return tuple((w.numerator, w.denominator) for w in spec.weights)


@cache
def _vertex_scale2(weights, alpha):
    """Lowest-terms ``(p, q)`` with ``(multinomial(alpha) * prod w_l**alpha_l)**2 == p / q``.

    ``weights`` are :func:`_weight_pairs`: the cache key hashes and compares
    plain ints, not Fractions.
    """
    multinomial = factorial(sum(alpha))
    top = bottom = 1
    for (wn, wd), a in zip(weights, alpha):
        multinomial //= factorial(a)
        top *= wn ** a
        bottom *= wd ** a
    top *= multinomial
    g = gcd(top, bottom)
    return (top // g) ** 2, (bottom // g) ** 2


def _max_ratio(best, values, weights, wn=1, wd=1):
    """Fold ``|X + Y i|**2 / (multinomial(alpha) prod_l w_l**alpha_l * w)**2`` into ``best``.

    ``values`` yields ``(alpha, (X, Y))`` over one common denominator, and
    ``w = wn / wd`` is an extra weight.  ``best`` is the running max as an
    int pair ``(num, den)``; the ratios are compared as int cross products.
    """
    best_num, best_den = best
    for alpha, (x, y) in values:
        if not (x or y):
            continue
        p, q = _vertex_scale2(weights, alpha)
        num = (x * x + y * y) * q * wd * wd
        den = p * wn * wn
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def _symmetric_norm2(lam, layer, top):
    """Squared p-norm of the symmetric component whose multiset sums are ``layer``.

    The value at ``alpha`` is ``lam(layer[alpha]) / multinomial(alpha)`` and
    its vertex weight is ``prod_l w_l**alpha_l``; the norm is the max ratio.
    ``layer`` holds graded int tables at grade ``top``, so every
    ``lam(layer[alpha])`` is ``(X + Y i) / D`` over one denominator D; the
    max of :func:`_max_ratio` is divided by ``D**2`` once.
    """
    den, image = lam._int_image()
    num, scale = _max_ratio(
        (0, 1), ((alpha, _contract(t, image)) for alpha, t in layer.items()),
        _weight_pairs(lam.spec),
    )
    return Fraction(num, scale * (den * lam.spec.delta ** top) ** 2)


def _right_shifts(lam, top):
    """``shifts[b][beta]`` is the table ``mu_beta = lam(. S(beta))`` for ``|beta| = b <= top``.

    Only ``lam`` on degree ``<= top + 1`` is read, so ``mu_beta`` is kept on
    degree ``<= top + 1 - b``.  The first-letter split ``S(beta) =
    sum_{j: beta_j > 0} e_j S(beta - e_j)`` gives ``mu_beta = sum_j
    regular_act(mu_{beta - e_j}, e_j)``.  Every table of level b has its
    image over ``den * delta**b`` (``den`` of ``lam``'s image), so the
    images of one level add as int pairs.  ``shifts[1]`` holds the tables
    ``D -> lam(D e_j)`` of the right regular action.
    """
    spec = lam.spec
    den, image = lam._int_image()
    degree = top + 1
    if lam.max_degree > degree:
        image = {alpha: v for alpha, v in image.items() if sum(alpha) <= degree}
        lam = FunctionalTable._from_image(spec, degree, den, image)
    letters = [spec.basis_vector(j) for j in range(spec.dim)]
    shifts = [{(0,) * spec.dim: lam}]
    for b in range(1, top + 1):
        level = {}
        for gamma, table in shifts[-1].items():
            for j, e_j in enumerate(letters):
                grown = list(gamma)
                grown[j] += 1
                target = level.setdefault(tuple(grown), {})
                for alpha, (x, y) in regular_act(table, e_j)._int_image()[1].items():
                    _acc_pair(target, alpha, x, y)
        den_b = den * spec.delta ** b
        shifts.append({
            beta: FunctionalTable._from_image(spec, degree - b, den_b, pairs)
            for beta, pairs in level.items()
        })
    return shifts


def _insertion_chain(sums, shifts, n_max):
    """Insertion constants ``[c_0, .., c_{n_max}]`` from heads and shifted tables.

    ``sums`` and ``shifts`` (:func:`_right_shifts`) reach degree n_max.
    Splitting each word of ``T_{k,i}(alpha)`` after its inserted letter
    gives ``lam(T_{k,i}(alpha)) = sum mu_{alpha''}(H_{k,i}(alpha'))`` over
    ``alpha' + alpha'' = alpha`` with ``|alpha'| = k - 1``, where the head
    ``H_{k,i}(alpha') = S(alpha') e_i`` is one graded table at grade k.
    Every term of arity n is an int pair over ``den * delta**(n + 1)``, so
    the values of one ``(k, i)`` add as ints and the ratios of all
    ``(k, i, alpha)`` go through :func:`_max_ratio` with the extra weight
    ``w_i``.  The cost is one head per ``(k, i, alpha')`` and one
    contraction per head and tail multiset ``alpha''``; no normal-form layer
    is grown per ``(k, i)``.
    """
    (lam,) = shifts[0].values()
    spec = lam.spec
    weights = _weight_pairs(spec)
    tails = [[(beta, t._int_image()[1]) for beta, t in level.items()] for level in shifts]
    best = [(0, 1)] * (n_max + 1)
    for k in range(1, n_max + 2):
        for i, (wn, wd) in enumerate(weights):
            heads = [
                (a1, _poly_right_letter(spec, table, i)) for a1, table in sums[k - 1].items()
            ]
            for n in range(k - 1, n_max + 1):
                values = {}
                for a1, head in heads:
                    for a2, image in tails[n - k + 1]:
                        _acc_pair(values, tuple(map(add, a1, a2)), *_contract(head, image))
                best[n] = _max_ratio(best[n], values.items(), weights, wn, wd)
    return [_arity_norm(lam, n, best[n]) for n in range(n_max + 1)]


def _arity_norm(lam, n, ratio):
    """The :class:`SqrtFraction` of a :func:`_max_ratio` max over ``den * delta**(n + 1)``."""
    num, d = ratio
    return SqrtFraction(Fraction(num, d * (lam._int_image()[0] * lam.spec.delta ** (n + 1)) ** 2))


@dataclass(frozen=True)
class RadiusEstimate:
    """Truncated Hadamard estimate ``[max_n (||beta_n^s||_p / n!)^(1/n)]^-1``.

    ``best`` is the exact argmax root (None when every computed component
    vanished, which reports an infinite radius); ``per_degree`` keeps the
    exact per-degree roots for diagnostics.  This is a conservative
    truncated diagnostic, not the true limsup.
    """

    max_degree: int
    best: Optional[RootValue]
    per_degree: Tuple[Tuple[int, Optional[RootValue]], ...] = field(repr=False)

    @property
    def is_infinite(self):
        return self.best is None

    @property
    def value(self):
        if self.best is None:
            return float("inf")
        return 1.0 / self.best.to_float()

    def equals_rational(self, r):
        """Exact test ``estimate == r`` for rational r > 0."""
        if self.best is None:
            return False
        return self.best.equals_rational(Fraction(1, 1) / Fraction(r))

    def __str__(self):
        if self.best is None:
            return f"truncated Hadamard estimate (N={self.max_degree}): infinite"
        return f"truncated Hadamard estimate (N={self.max_degree}): {self.value:.15g}"


def radius_estimate(lam, max_n=None):
    """Truncated Hadamard radius estimate from the symmetrized components.

    Components with vanishing norm are skipped (so polynomial-supported
    functionals report an infinite radius); comparisons between the
    per-degree roots are exact.  ``max_n`` caps the computed degrees.  Degree
    n costs one normal-form product per letter and multiset, and the
    C(n+dim-1, dim-1) multisets grow polynomially in n, not like dim**n.
    """
    top = lam.max_degree if max_n is None else min(max_n, lam.max_degree)
    sums = _symmetric_sums(lam.spec, top)
    best = None
    per_degree = []
    for n in range(1, top + 1):
        norm2 = _symmetric_norm2(lam, sums[n], n)
        if not norm2:
            per_degree.append((n, None))
            continue
        root = RootValue(norm2 / Fraction(factorial(n)) ** 2, n)
        per_degree.append((n, root))
        if best is None or root > best:
            best = root
    return RadiusEstimate(top, best, tuple(per_degree))


def regular_act(lam, y):
    """The right regular action: the functional ``D -> lam(D y)``.

    The result is defined on monomials of degree ``N - 1`` only, since one
    slot of the table is consumed by ``y``.  The value at alpha is
    ``sum_b c_b lam(b)``, where ``sum_b c_b b`` is the normal form of
    ``x^alpha y``: the cached ``x^alpha e_i``, times ``y_i``.  With ``y``
    over one denominator ``den_y``, the table's image ``(den, V)``
    gives the image ``(den_y * den * delta, X)`` of the result, where each
    ``X[alpha]`` sums int products.
    """
    if lam.max_degree < 1:
        raise DegreeOverflowError("regular action needs max_degree >= 1")
    if not (y.spec is lam.spec or y.spec == lam.spec):
        raise SpecMismatchError("vector and functional use different specs")
    spec = lam.spec
    den_y, pairs = _int_pairs(y.coeffs)
    ys = [(i, p, q) for i, (p, q) in enumerate(pairs) if p or q]
    den, image = lam._int_image()
    out = {}
    for alpha in monomials_up_to(spec.dim, lam.max_degree - 1):
        x = z = 0
        for i, p, q in ys:
            sr, si = _contract(_right_letter(spec, alpha, i), image)
            x += p * sr - q * si
            z += p * si + q * sr
        if x or z:
            out[alpha] = (x, z)
    return FunctionalTable._from_image(spec, lam.max_degree - 1, den_y * den * spec.delta, out)


def insertion_constants(lam, n):
    """Exact insertion constant ``c_n`` of the norm recursion.

    ``c_n`` is the best constant with ``||(i_y^k beta)_n^s||_p <= c_n p(y)``
    over all positions ``k <= n+1`` and all ``y``; by linearity in ``y`` the
    sup reduces to the ball vertices, i.e. a max over ``(k, basis index)``.
    The symmetrized value of ``(i_{e_i}^k beta)_n`` at a multiset alpha is
    ``lam(T_{k,i}(alpha)) / multinomial(alpha)``, where ``T_{k,i}(alpha)`` is
    the sum of the words with letter i at position k and the multiset alpha
    elsewhere.  Each such word is a word of multiset ``alpha'`` (length
    ``k - 1``), then ``e_i``, then a word of multiset ``alpha''``, so
    ``lam(T_{k,i}(alpha)) = sum mu_{alpha''}(S(alpha') e_i)`` over
    ``alpha' + alpha'' = alpha``, with ``mu_beta = lam(. S(beta))``.  The
    ``mu_beta`` for ``|beta| <= n`` cost one :func:`regular_act` per
    ``(beta, j)`` with ``beta_j > 0``, and each head ``S(alpha') e_i`` one
    right-letter step; see :func:`_insertion_chain`.
    """
    if n + 1 > lam.max_degree:
        raise DegreeOverflowError(
            f"insertion constants at arity {n} need degree {n + 1} <= {lam.max_degree}"
        )
    return _insertion_chain(_symmetric_sums(lam.spec, n), _right_shifts(lam, n), n)[n]


@dataclass(frozen=True)
class RecursionRow:
    n: int
    c_n: SqrtFraction
    beta_next_norm: SqrtFraction
    c_prev: SqrtFraction
    inequality_ok: bool
    invariance_ok: bool

    @property
    def ok(self):
        return self.inequality_ok and self.invariance_ok


@dataclass(frozen=True)
class RecursionReport:
    """Exact verification of ``c_n <= ||beta_{n+1}^s||_p + n c_{n-1}``.

    Also confirms the invariance mechanism behind the regular action:
    ``||(lam o rho_y)_n^s||_p <= c_n p(y)`` for every basis vector y.
    """

    rows: Tuple[RecursionRow, ...]

    @property
    def ok(self):
        return all(r.ok for r in self.rows)

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        lines = [f"insertion recursion: {status}"]
        for r in self.rows:
            lines.append(
                f"  n={r.n}: c_n={r.c_n.to_float():.15g} "
                f"<= {r.beta_next_norm.to_float():.15g} + {r.n}*{r.c_prev.to_float():.15g} "
                f"[{'ok' if r.inequality_ok else 'VIOLATED'}; "
                f"action bound {'ok' if r.invariance_ok else 'VIOLATED'}]"
            )
        return "\n".join(lines)


def recursion_check(lam, n_max):
    """Verify the insertion-constant recursion exactly for ``1 <= n <= n_max``.

    ``lam(S(alpha))`` for ``|alpha| = n + 1`` is ``sum_{j: alpha_j > 0}
    mu_{alpha - e_j}(x_j)`` by the first-letter split, so ``beta_{n+1}^s``
    is read off the shifted tables and the symmetric sums stop at n_max.
    The action bounds contract ``sums[n]`` against ``D -> lam(D e_i)``
    independently of the insertion chain.
    """
    if n_max + 1 > lam.max_degree:
        raise DegreeOverflowError(
            f"recursion to n={n_max} needs functional degree {n_max + 1}"
        )
    sub = submult_check(lam.spec)
    if not sub.ok:
        raise SubmultiplicativityError(str(sub))
    spec = lam.spec
    sums = _symmetric_sums(spec, n_max)
    shifts = _right_shifts(lam, n_max)
    constants = _insertion_chain(sums, shifts, n_max)
    weights = _weight_pairs(spec)
    letters = [tuple(int(l == j) for l in range(spec.dim)) for j in range(spec.dim)]
    rows = []
    for n in range(1, n_max + 1):
        c_prev, c_n = constants[n - 1], constants[n]
        # every mu_beta(x_j) of level n is an int pair over den * delta**(n + 1)
        values = {}
        for beta, table in shifts[n].items():
            image = table._int_image()[1]
            for e_j in letters:
                v = image.get(e_j)
                if v is not None:
                    _acc_pair(values, tuple(map(add, beta, e_j)), *v)
        beta_next = _arity_norm(lam, n, _max_ratio((0, 1), values.items(), weights))
        ineq = sqrt_leq_sqrt_plus_multiple(
            c_n.squared, beta_next.squared, n, c_prev.squared
        )
        invariance = True
        for i in range(spec.dim):
            acted = shifts[1][letters[i]]
            acted_norm = SqrtFraction(_symmetric_norm2(acted, sums[n], n))
            bound = c_n * spec.weights[i]
            if not acted_norm <= bound:
                invariance = False
                break
        rows.append(RecursionRow(n, c_n, beta_next, c_prev, ineq, invariance))
    return RecursionReport(tuple(rows))


def growth_diagnostics(lam):
    """Partial sums of ``sum ||beta_n^s|| / n!`` and the unsymmetrized twin.

    Purely diagnostic: whether convergence of the symmetrized series forces
    convergence of the raw one is open, so nothing is asserted here.
    """
    sym_partial, raw_partial = [], []
    sym_acc = raw_acc = 0.0
    for n in range(0, lam.max_degree + 1):
        comp = beta_component(lam, n)
        raw_norm = pnorm(comp).to_float()
        sym_norm = pnorm(symmetrize(comp)).to_float()
        scale = 1.0 / factorial(n)
        sym_acc += sym_norm * scale
        raw_acc += raw_norm * scale
        sym_partial.append(sym_acc)
        raw_partial.append(raw_acc)
    return sym_partial, raw_partial
