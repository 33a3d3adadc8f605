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
around the inserted letter, ``lam(T_{k,i}(alpha))`` is a sum of
``mu_{alpha''}(S(alpha') e_i)`` with ``mu_beta = lam(. S(beta))``.  Both run
over the ``C(n+dim-1, dim-1)`` multisets of each degree.  Every
symmetrized norm, :func:`growth_diagnostics`' included, takes this route.
The word tables (:func:`beta_component`, :func:`symmetrize`) serve only the
raw, unsymmetrized twin in :func:`growth_diagnostics`, the demos and the
tests, which keep them as an oracle.

A table is exact, including the matrix-coefficient tables of float
representations (see :mod:`envalg.gns`), and its one store is its integer
image ``(den, {alpha: (V, W)})``, which reads ``lam(x^alpha) = (V + W i) /
(den * delta**|alpha|)``; its Scalars are read off the image.  A normal form
from the PBW engine is a graded int table ``{b: n_b}`` at grade ``top``
reading ``sum_b n_b / delta**(top - |b|) x^b``.  The powers of ``delta``
cancel term by term, so ``lam`` of the table is ``sum_b n_b (V_b + W_b
i)`` over the single denominator ``den * delta**top``.  The norm kernels,
:func:`beta_component` and :func:`regular_act` sum those int products and
build one Scalar per output entry; :func:`regular_act` hands on its result
as an image too.  The right action scatters each stored value through the
spec's column cache, the transpose of the right-letter memo, into int lists
by monomial rank, so a sparse table costs only its support.  Each parent
``mu_gamma`` is scattered once, into its ``dim`` parts ``mu_gamma(. e_j)``;
the insertion chain reads the parts, and each ``mu_beta`` of the next level
is the sum of its parents' parts.

Norms are values ``sqrt(q)`` with rational ``q``; every comparison is done
on the exact squares (see :mod:`envalg.scalars`), and floating point shows
up only in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, gcd, inf
from operator import add
from typing import Optional, Tuple

from .errors import (
    DegreeOverflowError,
    SpecMismatchError,
    SubmultiplicativityError,
)
from .lie_structure import (
    _acc_pair,
    _columns,
    _graded,
    _nonzero,
    _poly_right_letter,
    _right_letter,
    monomial_name,
    monomials_up_to,
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


def _at_least(name, value, least=0):
    """Reject a degree argument below ``least`` with a ValueError naming it."""
    if value < least:
        raise ValueError(f"{name} must be {'nonnegative' if least == 0 else f'at least {least}'}")


def _within(lam, degree, message):
    """Reject reading ``lam`` to ``degree`` beyond its table with a DegreeOverflowError."""
    if degree > lam.max_degree:
        raise DegreeOverflowError(message)


class FunctionalTable:
    """Values of a linear functional on all PBW monomials of degree <= N.

    Absent entries are zero.  The one store is the integer image ``(den,
    {alpha: (V, W)})`` with ``lam(x^alpha) = (V + W i) / (den *
    delta**|alpha|)`` (``delta`` of the spec, see :mod:`envalg.lie_structure`).
    Against a graded int table at grade ``top`` every term then shares the
    denominator ``den * delta**top``, so evaluation adds Python ints and
    builds one Scalar at the end.  Scalars given to the constructor are
    converted once, a kernel result (:func:`regular_act`) is built from its
    image, and ``values`` and :meth:`value` build fresh Scalars from it, so
    a table cannot be changed from outside.
    """

    __slots__ = ("spec", "max_degree", "_image")

    # every table is exact; perfbench/tracing.py still reads the flag
    exact = True

    def __init__(self, spec, max_degree, values=None):
        _at_least("max_degree", max_degree)
        self.spec = spec
        self.max_degree = max_degree
        clean = {}
        for alpha, v in (values or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != spec.dim or min(alpha) < 0:  # spec.dim >= 1
                raise ValueError(f"multi-index {alpha} needs {spec.dim} nonnegative entries")
            if sum(alpha) > max_degree:
                raise DegreeOverflowError(
                    f"value for {monomial_name(spec, alpha)} exceeds degree {max_degree}"
                )
            v = as_scalar(v)
            if v is NotImplemented:
                raise TypeError("functional tables need Scalar values")
            if v:
                clean[alpha] = v
        den, pairs = _int_pairs(clean.values())
        grades = [spec.delta ** sum(alpha) for alpha in clean]
        self._image = (den, {alpha: (a * s, b * s)
                             for alpha, (a, b), s in zip(clean, pairs, grades)})

    @classmethod
    def _from_image(cls, spec, max_degree, den, image):
        """A table from its integer image (nonzero pairs, degrees in range)."""
        lam = object.__new__(cls)
        lam.spec = spec
        lam.max_degree = max_degree
        lam._image = (den, image)
        return lam

    @property
    def values(self):
        """A fresh ``{alpha: Scalar}`` of the nonzero values."""
        return {alpha: self.value(alpha) for alpha in self._image[1]}

    def _cut(self, degree):
        """The table on degree ``<= degree``; the table itself when nothing is cut."""
        if self.max_degree <= degree:
            return self
        den, image = self._image
        kept = {alpha: v for alpha, v in image.items() if sum(alpha) <= degree}
        return FunctionalTable._from_image(self.spec, degree, den, kept)

    def value(self, alpha):
        alpha = tuple(alpha)
        if sum(alpha) > self.max_degree:
            raise DegreeOverflowError(
                f"functional not defined on {monomial_name(self.spec, alpha)} "
                f"(degree {sum(alpha)} > {self.max_degree})"
            )
        den, image = self._image
        v = image.get(alpha)
        return ZERO if v is None else _reduced(*v, den * self.spec.delta ** sum(alpha))

    def eval(self, poly):
        """Evaluate on a PBW element by linearity, summing int pairs over one
        denominator; rejects degree overflow."""
        if poly.spec != self.spec:
            raise SpecMismatchError("functional and element use different specs")
        den_p, top, terms = _graded(self.spec, poly.terms)
        if top > self.max_degree:
            alpha = next(alpha for alpha in terms if sum(alpha) > self.max_degree)
            raise DegreeOverflowError(
                f"monomial {monomial_name(self.spec, alpha)} exceeds "
                f"functional degree {self.max_degree}"
            )
        den, image = self._image
        x = y = 0
        for alpha, (a, b) in terms.items():
            if alpha in image:
                vr, vi = image[alpha]
                x += a * vr - b * vi
                y += a * vi + b * vr
        return _reduced(x, y, den_p * den * self.spec.delta ** top)

    def _eval_graded(self, table, top):
        """``lam`` of a real graded int table at grade ``top`` within the degree,
        as one Scalar over ``den * delta**top``."""
        den, image = self._image
        return _reduced(*_contract(table, image), den * self.spec.delta ** top)

    def __repr__(self):
        return (
            f"FunctionalTable(degree<={self.max_degree}, "
            f"{len(self._image[1])} nonzero values)"
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
    _at_least("n", n)
    _within(lam, n, f"arity {n} exceeds functional degree {lam.max_degree}")
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


def symmetrize(beta):
    """Exact average of ``beta_n`` over all argument permutations: the mean over
    the words of each letter multiset, which the n! permutations reach equally often."""
    groups = {}
    for word in product(range(beta.spec.dim), repeat=beta.n):
        groups.setdefault(tuple(sorted(word)), []).append(beta.lookup(word))
    values = {key: sum(vs, ZERO) * Fraction(1, len(vs)) for key, vs in groups.items()}
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
    cache = spec._right_cache
    out = {}
    for alpha, table in layer.items():
        for j in range(spec.dim):
            grown = list(alpha)
            grown[j] += 1
            target = out.setdefault(tuple(grown), {})
            get = target.get
            for beta, coeff in table.items():
                for b, c in (cache.get((beta, j)) or _right_letter(spec, beta, j)).items():
                    target[b] = get(b, 0) + coeff * c
    for table in out.values():
        _nonzero(table)
    return out


def _symmetric_sums(spec, top):
    """``sums[n][alpha] = S(alpha)`` for every multiset ``|alpha| = n <= top``.

    Each ``S(alpha)`` is a graded int table at grade n.  The layers depend
    only on the spec, which keeps them and grows them one degree at a time
    up to the largest ``top`` asked for so far; callers share them and
    never change them.
    """
    sums = spec._sum_cache
    while len(sums) <= top:
        sums.append(_times_letters(spec, sums[-1]))
    return sums[:top + 1]


def _weight_pairs(spec):
    """The spec's weights as ``(numerator, denominator)`` int pairs."""
    return tuple((w.numerator, w.denominator) for w in spec.weights)


class _VertexScales(dict):
    """``{alpha: (p, q)}``, lowest terms with ``(multinomial(alpha) * prod
    w_l**alpha_l)**2 == p / q``, for one tuple of :func:`_weight_pairs`; each
    entry is computed on its first read."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        super().__init__()
        self.weights = weights

    def __missing__(self, alpha):
        multinomial = factorial(sum(alpha))
        top = bottom = 1
        for (wn, wd), a in zip(self.weights, alpha):
            multinomial //= factorial(a)
            top *= wn ** a
            bottom *= wd ** a
        top *= multinomial
        g = gcd(top, bottom)
        scale = self[alpha] = (top // g) ** 2, (bottom // g) ** 2
        return scale


@cache
def _vertex_scales(weights):
    """The one :class:`_VertexScales` table of ``weights``, kept across calls."""
    return _VertexScales(weights)


def _max_ratio(best, values, weights, wn=1, wd=1):
    """Fold ``|X + Y i|**2 / (multinomial(alpha) prod_l w_l**alpha_l * w)**2`` into ``best``.

    ``values`` yields ``(alpha, (X, Y))`` over one common denominator, and
    ``w = wn / wd`` is an extra weight.  ``best`` is the running max as an
    int pair ``(num, den)``; the ratios are compared as int cross products.
    """
    best_num, best_den = best
    scales = _vertex_scales(weights)
    for alpha, (x, y) in values:
        if not (x or y):
            continue
        p, q = scales[alpha]
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
    den, image = lam._image
    num, scale = _max_ratio(
        (0, 1), ((alpha, _contract(t, image)) for alpha, t in layer.items()),
        _weight_pairs(lam.spec),
    )
    return Fraction(num, scale * (den * lam.spec.delta ** top) ** 2)


def _scatter(values, targets, count):
    """Add ``n (p + q i)(V + W i)`` to ``X[rank] + Y[rank] i`` of each target ``(column,
    p, q, X, Y)`` for every stored ``(b, (V, W))`` and every ``(rank, n)`` in the
    column of b (:func:`~envalg.lie_structure._columns`) with ``rank < count``."""
    for b, (vr, vi) in values:
        for column, p, q, xs, zs in targets:
            entries = column.get(b)
            if entries is None:
                continue
            x = p * vr - q * vi
            z = p * vi + q * vr
            for rank, n in entries:
                if rank >= count:
                    break
                xs[rank] += n * x
                zs[rank] += n * z


def _right_shifts(lam, top):
    """The levels ``mu_beta = lam(. S(beta))`` for ``|beta| <= top`` and their parts.

    Only ``lam`` on degree ``<= top + 1`` is read, so ``mu_beta`` is kept on
    degree ``<= top + 1 - |beta|``, as int lists ``(X, Y)`` by rank in
    :func:`monomials_up_to`: ``mu_beta(x^alpha) = (X + Y i) / (den *
    delta**(|beta| + |alpha|))``.  ``levels[b][beta]`` is ``mu_beta`` for
    ``|beta| = b``, and ``parts[b][gamma][j]`` is the part ``rho_(j, gamma) =
    (D -> mu_gamma(D e_j))``, the same lists one degree shorter over the
    denominators of level ``b + 1``.  Each parent ``mu_gamma`` of degree
    ``< top`` sends its nonzero values through the columns once
    (:func:`_scatter`), into the fresh lists of its ``dim`` parts; at ``|gamma|
    = top`` the part is the single value ``mu_gamma(e_j)``, read at the rank
    ``dim - j`` of ``e_j``.  By the first-letter split ``S(beta) = sum_{j:
    beta_j > 0} e_j S(beta - e_j)``, each child ``mu_beta`` of the next
    level is the sum of its parents' parts ``rho_(j, beta - e_j)``.
    """
    spec = lam.spec
    dim = spec.dim
    image = lam._cut(top + 1)._image[1]
    monos = monomials_up_to(dim, top + 1)
    columns = _columns(spec, top)
    levels = [{(0,) * dim: tuple(zip(*(image.get(alpha, (0, 0)) for alpha in monos)))}]
    parts = []
    for b in range(top):
        count = comb(top - b + dim, dim)
        split, children = {}, {}
        for gamma, (xs, zs) in levels[b].items():
            lists = split[gamma] = [([0] * count, [0] * count) for _ in columns]
            stored = ((alpha, v) for alpha, v in zip(monos, zip(xs, zs)) if v[0] or v[1])
            _scatter(stored, [(column, 1, 0, *part) for column, part in zip(columns, lists)],
                     count)
            for j, part in enumerate(lists):
                child = gamma[:j] + (gamma[j] + 1,) + gamma[j + 1:]
                got = children.get(child)
                children[child] = part if got is None else (
                    list(map(add, got[0], part[0])), list(map(add, got[1], part[1])))
        parts.append(split)
        levels.append(children)
    parts.append({gamma: [([xs[r]], [zs[r]]) for r in range(dim, 0, -1)]
                  for gamma, (xs, zs) in levels[top].items()})
    return levels, parts


def _insertion_chain(lam, sums, parts, n_max):
    """Insertion constants ``[c_0, .., c_{n_max}]`` from the multiset sums and the parts.

    ``sums`` and ``parts`` (:func:`_right_shifts`) reach degree n_max.
    Splitting each word of ``T_{k,i}(alpha)`` around its inserted letter
    gives ``lam(T_{k,i}(alpha)) = sum lam(S(alpha') e_i S(alpha''))`` over
    ``alpha' + alpha'' = alpha`` with ``|alpha'| = k - 1``, and each term is
    ``rho_(i, alpha'')(S(alpha'))``.  The sum ``S(alpha')``, a graded table
    at grade ``k - 1`` (``S(0) = 1`` reads the part at rank 0), is read once
    per k as ``(rank, n)`` pairs and contracted against the rank lists of
    the parts, ``|S(alpha')|`` products each.  The splits of each alpha are
    listed once per ``(k, n)``, for every letter i.  Every term of arity n is
    an int pair over ``den * delta**(n + 1)``, so the splits add as ints and
    the ratios of all ``(k, i, alpha)`` go through :func:`_max_ratio` with
    the extra weight ``w_i``.  No normal form is grown or multiplied here.
    """
    spec = lam.spec
    weights = _weight_pairs(spec)
    ranks = {alpha: r for r, alpha in enumerate(monomials_up_to(spec.dim, n_max))}
    best = [(0, 1)] * (n_max + 1)
    for k in range(1, n_max + 2):
        prefixes = [(a1, [(ranks[b], c) for b, c in table.items()])
                    for a1, table in sums[k - 1].items()]
        for n in range(k - 1, n_max + 1):
            splits = {}
            for a2, split in parts[n - k + 1].items():
                for a1, prefix in prefixes:
                    splits.setdefault(tuple(map(add, a1, a2)), []).append((prefix, split))
            for i, (wn, wd) in enumerate(weights):
                values = []
                for alpha, terms in splits.items():
                    x = y = 0
                    for prefix, split in terms:
                        xs, zs = split[i]
                        for r, c in prefix:
                            x += c * xs[r]
                            y += c * zs[r]
                    values.append((alpha, (x, y)))
                best[n] = _max_ratio(best[n], values, weights, wn, wd)
    return [_arity_norm(lam, n, best[n]) for n in range(n_max + 1)]


def _arity_norm(lam, n, ratio):
    """The :class:`SqrtFraction` of a :func:`_max_ratio` max over ``den * delta**(n + 1)``."""
    num, d = ratio
    return SqrtFraction(Fraction(num, d * (lam._image[0] * lam.spec.delta ** (n + 1)) ** 2))


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
        return _reciprocal(self.best)

    def equals_rational(self, r):
        """Exact test ``estimate == r`` for a rational r; the estimate is positive."""
        r = Fraction(r)
        if self.best is None or not r:
            return False
        return self.best.equals_rational(1 / r)

    def __str__(self):
        if self.best is None:
            return f"truncated Hadamard estimate (N={self.max_degree}): infinite"
        return f"truncated Hadamard estimate (N={self.max_degree}): {self.value:.15g}"


def _reciprocal(root):
    """``1 / root`` in binary64 for a RootValue or None; inf for None or a
    root that reads 0.0 (one below binary64)."""
    x = 0.0 if root is None else root.to_float()
    return 1.0 / x if x else inf


def radius_estimate(lam, max_n=None):
    """Truncated Hadamard radius estimate from the symmetrized components.

    Components with vanishing norm are skipped (so polynomial-supported
    functionals report an infinite radius); comparisons between the
    per-degree roots are exact.  ``max_n`` caps the computed degrees.  Degree
    n costs one normal-form product per letter and multiset, and the
    C(n+dim-1, dim-1) multisets grow polynomially in n, not like dim**n.
    """
    top = lam.max_degree if max_n is None else min(max_n, lam.max_degree)
    _at_least("max_n", top)
    sums = _symmetric_sums(lam.spec, top)
    per_degree, best = _root_test(
        (n, _symmetric_norm2(lam, sums[n], n)) for n in range(1, top + 1)
    )
    return RadiusEstimate(top, best, per_degree)


def _root_test(squares):
    """The exact root test of a series with squared term norms ``(n, ||c_n||**2)``.

    Returns the per-degree roots ``(n, (||c_n|| / n!)**(1/n))``, None for a
    zero term, and their max; on a tie the first maximal root is kept.
    """
    roots, best = [], None
    for n, q in squares:
        root = RootValue(q / Fraction(factorial(n)) ** 2, n) if q else None
        roots.append((n, root))
        if root is not None and (best is None or root > best):
            best = root
    return tuple(roots), best


def regular_act(lam, y):
    """The right regular action: the functional ``D -> lam(D y)``.

    The result is defined on monomials of degree ``N - 1`` only, since one
    slot of the table is consumed by ``y``.  The value at alpha is
    ``sum_b c_b lam(b)``, where ``sum_b c_b b`` is the normal form of
    ``x^alpha y``: the cached ``x^alpha e_i``, times ``y_i``.  With ``y``
    over one denominator ``den_y``, the table's image ``(den, V)``
    gives the image ``(den_y * den * delta, X)`` of the result, where each
    ``X[alpha]`` sums int products.

    The sum is scattered over the table's support by :func:`_scatter`: each
    stored ``V_b`` and each nonzero ``y_i`` add ``n * y_i V_b`` to every
    ``X[alpha]`` listed in the spec's column of ``(i, b)`` with ``|alpha|
    <= N - 1``, kept by the rank of alpha.  A sparse table, such as the matrix coefficients
    of a weight vector, costs only the columns of its nonzero entries.
    """
    _within(lam, 1, "regular action needs max_degree >= 1")
    if y.spec != lam.spec:
        raise SpecMismatchError("vector and functional use different specs")
    spec = lam.spec
    top = lam.max_degree - 1
    den_y, pairs = _int_pairs(y.coeffs)
    columns = _columns(spec, top)
    den, image = lam._image
    monos = monomials_up_to(spec.dim, top)
    count = len(monos)
    xs, zs = [0] * count, [0] * count
    targets = [(columns[i], p, q, xs, zs) for i, (p, q) in enumerate(pairs) if p or q]
    _scatter(image.items(), targets, count)
    nonzero = {alpha: (x, z) for alpha, x, z in zip(monos, xs, zs) if x or z}
    return FunctionalTable._from_image(spec, top, den_y * den * spec.delta, nonzero)


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
    ``alpha' + alpha'' = alpha``, with ``mu_beta = lam(. S(beta))``.  Each
    term is the part ``mu_{alpha''}(. e_i)`` of :func:`_right_shifts`, rank
    lists filled by one scatter per parent, read on the multiset sum
    ``S(alpha')`` itself; no normal form is multiplied by a letter.  See
    :func:`_insertion_chain`.
    """
    _at_least("n", n)
    _within(lam, n + 1, f"insertion constants at arity {n} need degree {n + 1} <= {lam.max_degree}")
    return _insertion_chain(lam, _symmetric_sums(lam.spec, n), _right_shifts(lam, n)[1], n)[n]


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
    is read off the levels of :func:`_right_shifts` and the symmetric sums
    stop at n_max.  The action bounds contract ``sums[n]`` against ``D ->
    lam(D e_i)``, the level-1 lists, and the constants ``c_n`` come from the
    parts of the same call (:func:`_insertion_chain`).
    """
    _at_least("n_max", n_max, 1)
    _within(lam, n_max + 1, f"recursion to n={n_max} needs functional degree {n_max + 1}")
    sub = submult_check(lam.spec)
    if not sub.ok:
        raise SubmultiplicativityError(str(sub))
    spec = lam.spec
    sums = _symmetric_sums(spec, n_max)
    levels, parts = _right_shifts(lam, n_max)
    constants = _insertion_chain(lam, sums, parts, n_max)
    letters = [tuple(int(l == j) for l in range(spec.dim)) for j in range(spec.dim)]
    monos, den = monomials_up_to(spec.dim, n_max), lam._image[0] * spec.delta
    acted = [FunctionalTable._from_image(spec, n_max, den, {
        alpha: (x, z) for alpha, x, z in zip(monos, *levels[1][e_j]) if x or z
    }) for e_j in letters]
    rows = []
    for n in range(1, n_max + 1):
        c_prev, c_n = constants[n - 1], constants[n]
        # every mu_beta(x_j) of level n is an int pair over den * delta**(n + 1)
        values = {}
        for beta, (xs, zs) in levels[n].items():
            for r, e_j in zip(range(spec.dim, 0, -1), letters):
                _acc_pair(values, tuple(map(add, beta, e_j)), xs[r], zs[r])
        beta_next = _arity_norm(lam, n, _max_ratio((0, 1), values.items(), _weight_pairs(spec)))
        ineq = sqrt_leq_sqrt_plus_multiple(
            c_n.squared, beta_next.squared, n, c_prev.squared
        )
        invariance = all(
            SqrtFraction(_symmetric_norm2(table, sums[n], n)) <= c_n * w
            for table, w in zip(acted, spec.weights)
        )
        rows.append(RecursionRow(n, c_n, beta_next, c_prev, ineq, invariance))
    return RecursionReport(tuple(rows))


def growth_diagnostics(lam):
    """Partial sums of ``sum ||beta_n^s|| / n!`` and the unsymmetrized twin.

    The symmetrized norms come from the multiset sums, as in
    :func:`radius_estimate`; the raw twin reads the word tables of
    :func:`beta_component`.  Purely diagnostic: whether convergence of the
    symmetrized series forces convergence of the raw one is open, so nothing
    is asserted here.
    """
    sums = _symmetric_sums(lam.spec, lam.max_degree)
    sym_partial, raw_partial = [], []
    sym_acc = raw_acc = 0.0
    for n in range(0, lam.max_degree + 1):
        raw_norm = pnorm(beta_component(lam, n)).to_float()
        sym_norm = SqrtFraction(_symmetric_norm2(lam, sums[n], n)).to_float()
        scale = 1.0 / factorial(n)
        sym_acc += sym_norm * scale
        raw_acc += raw_norm * scale
        sym_partial.append(sym_acc)
        raw_partial.append(raw_acc)
    return sym_partial, raw_partial
