"""Linear functionals on U(g) as finite PBW tables, and their norm machinery.

A :class:`FunctionalTable` stores the values of a linear functional on every
PBW monomial up to a degree; evaluation on any normal-form element follows by
linearity.  The multilinear components ``beta_n``, their symmetrizations,
exact weighted-l1 operator norms, the truncated Hadamard radius estimate,
the regular actions, and the insertion-constant recursion all live here.

Norms are values ``sqrt(q)`` with rational ``q``; every comparison is done
on the exact squares (see :mod:`envalg.scalars`), and floating point shows
up only in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Optional, Tuple

from .errors import (
    DegreeOverflowError,
    SpecMismatchError,
    SubmultiplicativityError,
)
from .lie_structure import (
    PBWPoly,
    monomial_name,
    pbw_reduce,
    submult_check,
)
from .scalars import RootValue, Scalar, SqrtFraction, scalar_field, sqrt_leq_sqrt_plus_multiple

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


def monomials_up_to(dim, degree):
    """All multi-indices with ``|alpha| <= degree`` in graded lexicographic order."""
    out = []

    def fill(prefix, left, slots):
        if slots == 1:
            out.append(tuple(prefix + [left]))
            return
        for a in range(left + 1):
            fill(prefix + [a], left - a, slots - 1)

    for total in range(degree + 1):
        start = len(out)
        fill([], total, dim)
        out[start:] = sorted(out[start:])
    return out


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
        """Evaluate on a PBW element by linearity; rejects degree overflow."""
        if not (poly.spec is self.spec or poly.spec == self.spec):
            raise SpecMismatchError("functional and element use different specs")
        total = self.field.zero
        for alpha, coeff in poly.terms.items():
            if sum(alpha) > self.max_degree:
                raise DegreeOverflowError(
                    f"monomial {monomial_name(self.spec, alpha)} exceeds "
                    f"functional degree {self.max_degree}"
                )
            v = self.values.get(alpha)
            if v is None:
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
    """Fill the full word table ``beta_n(e_{i1},..,e_{in}) = lam(x_{i1}..x_{in})``."""
    lam._need_exact("beta components")
    if n > lam.max_degree:
        raise DegreeOverflowError(f"arity {n} exceeds functional degree {lam.max_degree}")
    spec = lam.spec
    values = {}
    for word in product(range(spec.dim), repeat=n):
        values[word] = lam.eval(pbw_reduce(spec, word))
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
    if beta.symmetric:
        return BetaComponent(beta.spec, beta.n, dict(beta.values), symmetric=True)
    values = _symmetrize_values(beta.spec, beta.n, beta.lookup)
    return BetaComponent(beta.spec, beta.n, values, symmetric=True)


def pnorm(beta, spec=None):
    """Exact weighted-l1 operator norm of a multilinear component.

    The sup of a multilinear map over the p-unit ball is attained at the
    ball vertices ``+-e_i / w_i``, so the norm is the max over letter tuples
    of ``|beta(tuple)| / (w_{i1} .. w_{in})``.  Returned as a
    :class:`SqrtFraction` whose square is exact.
    """
    spec = spec or beta.spec
    best = Fraction(0)
    for word, v in beta.values.items():
        wprod = Fraction(1)
        for l in word:
            wprod *= spec.weights[l]
        q = v.abs2() / (wprod * wprod)
        if q > best:
            best = q
    return SqrtFraction(best)


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
    per-degree roots are exact.  ``max_n`` caps the computed degrees (the
    word tables grow like dim**n, so large-degree tables in several
    variables need an explicit cap).
    """
    lam._need_exact("radius estimate")
    top = lam.max_degree if max_n is None else min(max_n, lam.max_degree)
    best = None
    per_degree = []
    for n in range(1, top + 1):
        norm = pnorm(symmetrize(beta_component(lam, n)))
        if norm.is_zero():
            per_degree.append((n, None))
            continue
        root = RootValue(norm.squared / Fraction(factorial(n)) ** 2, n)
        per_degree.append((n, root))
        if best is None or root > best:
            best = root
    return RadiusEstimate(top, best, tuple(per_degree))


def regular_act(lam, y, side="right"):
    """The functional ``D -> lam(D y)`` (right) or ``D -> lam(y D)`` (left).

    The result is defined on monomials of degree ``N - 1`` only, since one
    slot of the table is consumed by ``y``.
    """
    if lam.max_degree < 1:
        raise DegreeOverflowError("regular action needs max_degree >= 1")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not (y.spec is lam.spec or y.spec == lam.spec):
        raise SpecMismatchError("vector and functional use different specs")
    spec = lam.spec
    ypoly = PBWPoly.from_gvector(y)
    values = {}
    for alpha in monomials_up_to(spec.dim, lam.max_degree - 1):
        mono = PBWPoly.monomial(spec, alpha)
        prod_poly = (
            mono * ypoly if side == "right" else ypoly * mono
        )
        v = lam.eval(prod_poly)
        if v:
            values[alpha] = v
    return FunctionalTable(spec, lam.max_degree - 1, values, exact=lam.exact)


def insertion_constants(lam, n):
    """Exact insertion constant ``c_n`` of the norm recursion.

    ``c_n`` is the best constant with ``||(i_y^k beta)_n^s||_p <= c_n p(y)``
    over all positions ``k <= n+1`` and all ``y``; by linearity in ``y`` the
    sup reduces to the ball vertices, i.e. a max over ``(k, basis index)``.
    The word table of ``(i_{e_i}^k beta)_n`` is ``beta_{n+1}``'s table read
    with letter i inserted at position k.
    """
    lam._need_exact("insertion constants")
    if n + 1 > lam.max_degree:
        raise DegreeOverflowError(
            f"insertion constants at arity {n} need degree {n + 1} <= {lam.max_degree}"
        )
    spec = lam.spec
    full = beta_component(lam, n + 1).values
    best = SqrtFraction(0)
    for k in range(1, n + 2):
        for i in range(spec.dim):
            values = _symmetrize_values(spec, n, lambda w: full[w[: k - 1] + (i,) + w[k - 1 :]])
            sym = BetaComponent(spec, n, values, symmetric=True)
            candidate = pnorm(sym) / spec.weights[i]
            if candidate > best:
                best = candidate
    return best


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
    acted = [regular_act(lam, spec.basis_vector(i), "right") for i in range(spec.dim)]
    rows = []
    c_prev = insertion_constants(lam, 0)
    for n in range(1, n_max + 1):
        c_n = insertion_constants(lam, n)
        beta_next = pnorm(symmetrize(beta_component(lam, n + 1)))
        ineq = sqrt_leq_sqrt_plus_multiple(
            c_n.squared, beta_next.squared, n, c_prev.squared
        )
        invariance = True
        for i in range(spec.dim):
            acted_norm = pnorm(symmetrize(beta_component(acted[i], n)))
            bound = c_n * spec.weights[i]
            if not acted_norm <= bound:
                invariance = False
                break
        rows.append(RecursionRow(n, c_n, beta_next, c_prev, ineq, invariance))
        c_prev = c_n
    return RecursionReport(tuple(rows))


def growth_diagnostics(lam, t=1.0):
    """Partial sums of ``sum ||beta_n^s|| t^n / n!`` and the unsymmetrized twin.

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
        scale = (t ** n) / factorial(n)
        sym_acc += sym_norm * scale
        raw_acc += raw_norm * scale
        sym_partial.append(sym_acc)
        raw_partial.append(raw_acc)
    return sym_partial, raw_partial
