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
Inserting ``e_i`` at position k follows ``T_{k,i}(alpha) = S(alpha) e_i`` for
``|alpha| = k - 1`` and ``T_{k,i}(alpha) = sum_j T_{k,i}(alpha - e_j) e_j``
for ``|alpha| >= k``.  Both run over the ``C(n+dim-1, dim-1)`` multisets of
each degree.  The word tables (:func:`beta_component`, :func:`symmetrize`)
remain as the direct route for small n.

Norms are values ``sqrt(q)`` with rational ``q``; every comparison is done
on the exact squares (see :mod:`envalg.scalars`), and floating point shows
up only in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import factorial
from typing import Optional, Tuple

from .errors import (
    DegreeOverflowError,
    SpecMismatchError,
    SubmultiplicativityError,
)
from .free_algebra import _acc
from .lie_structure import (
    PBWPoly,
    _poly_right_letter,
    _right_letter,
    monomial_name,
    submult_check,
)
from .scalars import (
    ONE,
    RootValue,
    Scalar,
    SqrtFraction,
    scalar_field,
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

    Absent entries are zero.  ``exact`` tables hold :class:`Scalar` values;
    non-exact tables (from floating representations) hold complex numbers
    and only support evaluation-style operations.
    """

    __slots__ = ("spec", "max_degree", "values", "field")

    def __init__(self, spec, max_degree, values=None, exact=True):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.spec = spec
        self.max_degree = max_degree
        self.field = scalar_field(exact)
        clean = {}
        for alpha, v in (values or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != spec.dim:
                raise ValueError(f"multi-index {alpha} has wrong length")
            if sum(alpha) > max_degree:
                raise DegreeOverflowError(
                    f"value for {monomial_name(spec, alpha)} exceeds degree {max_degree}"
                )
            v = self.field.coerce(v)
            if v is NotImplemented:
                raise TypeError("exact tables need Scalar values")
            if v:
                clean[alpha] = v
        self.values = clean

    @property
    def exact(self):
        return self.field.exact

    def value(self, alpha):
        alpha = tuple(alpha)
        if sum(alpha) > self.max_degree:
            raise DegreeOverflowError(
                f"functional not defined on {monomial_name(self.spec, alpha)} "
                f"(degree {sum(alpha)} > {self.max_degree})"
            )
        return self.values.get(alpha, self.field.zero)

    def eval(self, poly):
        """Evaluate on a PBW element by linearity; rejects degree overflow.

        Stored keys passed the degree check at construction, so only a miss
        needs it.
        """
        if not (poly.spec is self.spec or poly.spec == self.spec):
            raise SpecMismatchError("functional and element use different specs")
        total = self.field.zero
        for alpha, coeff in poly.terms.items():
            v = self.values.get(alpha)
            if v is None:
                if sum(alpha) > self.max_degree:
                    raise DegreeOverflowError(
                        f"monomial {monomial_name(self.spec, alpha)} exceeds "
                        f"functional degree {self.max_degree}"
                    )
                continue
            total = total + coeff * v
        return total

    def scale(self, c):
        c = self.field.coerce(c)
        vals = {a: c * v for a, v in self.values.items()}
        return FunctionalTable(self.spec, self.max_degree, vals, exact=self.exact)

    def _need_exact(self, what):
        if not self.exact:
            raise ValueError(f"{what} requires an exact functional table")

    def __repr__(self):
        return (
            f"FunctionalTable({self.field.name}, degree<={self.max_degree}, "
            f"{len(self.values)} nonzero values)"
        )


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
    lam._need_exact("beta components")
    if n > lam.max_degree:
        raise DegreeOverflowError(f"arity {n} exceeds functional degree {lam.max_degree}")
    spec = lam.spec
    values = {}

    def walk(word, table):
        if len(word) == n:
            values[word] = lam.eval(PBWPoly._raw(spec, table))
            return
        for letter in range(spec.dim):
            walk(word + (letter,), _poly_right_letter(spec, table, letter))

    walk((), {(0,) * spec.dim: ONE})
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
    of ``|beta(tuple)| / (w_{i1} .. w_{in})``.  Returned as a
    :class:`SqrtFraction` whose square is exact.
    """
    spec = beta.spec
    best = Fraction(0)
    for word, v in beta.values.items():
        wprod = Fraction(1)
        for l in word:
            wprod *= spec.weights[l]
        q = v.abs2() / (wprod * wprod)
        if q > best:
            best = q
    return SqrtFraction(best)


def _times_letters(spec, layer):
    """One degree up: ``out[alpha] = sum_{j: alpha_j > 0} layer[alpha - e_j] e_j``."""
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
    """``sums[n][alpha] = S(alpha)`` for every multiset ``|alpha| = n <= top``."""
    zero = (0,) * spec.dim
    sums = [{zero: {zero: ONE}}]
    for _ in range(top):
        sums.append(_times_letters(spec, sums[-1]))
    return sums


def _symmetric_norm2(lam, layer):
    """Squared p-norm of the symmetric component whose multiset sums are ``layer``.

    The value at ``alpha`` is ``lam(layer[alpha]) / multinomial(alpha)`` and
    its vertex weight is ``prod_l w_l**alpha_l``; the norm is the max ratio.
    """
    spec = lam.spec
    best = Fraction(0)
    for alpha, table in layer.items():
        v = lam.eval(PBWPoly._raw(spec, table))
        if not v:
            continue
        multinomial = factorial(sum(alpha))
        wprod = Fraction(1)
        for w, a in zip(spec.weights, alpha):
            multinomial //= factorial(a)
            wprod *= w ** a
        scale = multinomial * wprod
        q = v.abs2() / (scale * scale)
        if q > best:
            best = q
    return best


def _insertion_chain(lam, sums, n_max):
    """Insertion constants ``[c_0, .., c_{n_max}]``; ``sums`` reaches degree n_max.

    One chain ``T_{k,i}`` per position k and letter i serves every arity
    ``n >= k - 1``.
    """
    spec = lam.spec
    best = [Fraction(0)] * (n_max + 1)
    for k in range(1, n_max + 2):
        for i in range(spec.dim):
            w2 = spec.weights[i] ** 2
            layer = {
                alpha: _poly_right_letter(spec, table, i)
                for alpha, table in sums[k - 1].items()
            }
            for n in range(k - 1, n_max + 1):
                if n >= k:
                    layer = _times_letters(spec, layer)
                q = _symmetric_norm2(lam, layer) / w2
                if q > best[n]:
                    best[n] = q
    return [SqrtFraction(q) for q in best]


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
    lam._need_exact("radius estimate")
    top = lam.max_degree if max_n is None else min(max_n, lam.max_degree)
    sums = _symmetric_sums(lam.spec, top)
    best = None
    per_degree = []
    for n in range(1, top + 1):
        norm2 = _symmetric_norm2(lam, sums[n])
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
    ``x^alpha y``: the cached ``x^alpha e_i``, times ``y_i``.  The
    coefficients ``c_b`` are combined exactly, in the order :func:`pbw_mul`
    would, before the ``lam`` values enter, so float tables see the same
    operations in the same order as ``lam.eval`` of the product.
    """
    if lam.max_degree < 1:
        raise DegreeOverflowError("regular action needs max_degree >= 1")
    if not (y.spec is lam.spec or y.spec == lam.spec):
        raise SpecMismatchError("vector and functional use different specs")
    spec = lam.spec
    values = {}
    ys = [(i, c) for i, c in enumerate(y.coeffs) if c]
    basis = len(ys) == 1 and ys[0][1] == ONE
    table, zero = lam.values, lam.field.zero
    for alpha in monomials_up_to(spec.dim, lam.max_degree - 1):
        if basis:
            terms = _right_letter(spec, alpha, ys[0][0])
        else:
            terms = {}
            for i, yi in ys:
                for b, c in _right_letter(spec, alpha, i).items():
                    _acc(terms, b, c * yi)
        total = zero
        for b, c in terms.items():
            v = table.get(b)
            if v is not None:
                total = total + c * v
        if total:
            values[alpha] = total
    return FunctionalTable(spec, lam.max_degree - 1, values, exact=lam.exact)


def insertion_constants(lam, n):
    """Exact insertion constant ``c_n`` of the norm recursion.

    ``c_n`` is the best constant with ``||(i_y^k beta)_n^s||_p <= c_n p(y)``
    over all positions ``k <= n+1`` and all ``y``; by linearity in ``y`` the
    sup reduces to the ball vertices, i.e. a max over ``(k, basis index)``.
    The symmetrized value of ``(i_{e_i}^k beta)_n`` at a multiset alpha is
    ``lam(T_{k,i}(alpha)) / multinomial(alpha)``, where ``T_{k,i}(alpha)``,
    the sum of the words with letter i at position k and the multiset alpha
    elsewhere, is ``S(alpha) e_i`` for ``|alpha| = k - 1`` and
    ``sum_j T_{k,i}(alpha - e_j) e_j`` beyond.
    """
    lam._need_exact("insertion constants")
    if n + 1 > lam.max_degree:
        raise DegreeOverflowError(
            f"insertion constants at arity {n} need degree {n + 1} <= {lam.max_degree}"
        )
    return _insertion_chain(lam, _symmetric_sums(lam.spec, n), n)[n]


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
    """Verify the insertion-constant recursion exactly for ``1 <= n <= n_max``."""
    lam._need_exact("recursion check")
    if n_max + 1 > lam.max_degree:
        raise DegreeOverflowError(
            f"recursion to n={n_max} needs functional degree {n_max + 1}"
        )
    sub = submult_check(lam.spec)
    if not sub.ok:
        raise SubmultiplicativityError(str(sub))
    spec = lam.spec
    acted = [regular_act(lam, spec.basis_vector(i)) for i in range(spec.dim)]
    sums = _symmetric_sums(spec, n_max + 1)
    constants = _insertion_chain(lam, sums, n_max)
    rows = []
    for n in range(1, n_max + 1):
        c_prev, c_n = constants[n - 1], constants[n]
        beta_next = SqrtFraction(_symmetric_norm2(lam, sums[n + 1]))
        ineq = sqrt_leq_sqrt_plus_multiple(
            c_n.squared, beta_next.squared, n, c_prev.squared
        )
        invariance = True
        for i in range(spec.dim):
            acted_norm = SqrtFraction(_symmetric_norm2(acted[i], sums[n]))
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
    lam._need_exact("growth diagnostics")
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
