"""Seeded generators of random exact inputs for the verification suites.

Randomness is always driven by an explicit seed and quantized to rationals,
so every randomized suite is reproducible bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .functionals import FunctionalTable, monomials_up_to
from .gns import MatrixRep
from .lie_structure import GVector, LieAlgebraSpec, submult_check
from .scalars import Scalar

__all__ = [
    "random_functional",
    "random_vector",
    "random_word",
    "random_submultiplicative_weights",
    "random_skew_rep",
]


def random_functional(spec, max_degree, rng, complex_values=False, span=9):
    """Random exact functional table with small rational values."""
    values = {}
    for alpha in monomials_up_to(spec.dim, max_degree):
        re = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if complex_values:
            im = Fraction(rng.randint(-span, span), rng.randint(1, span))
            values[alpha] = Scalar(re, im)
        else:
            values[alpha] = Scalar(re)
    return FunctionalTable(spec, max_degree, values)


def random_vector(spec, rng, span=9, denominator=9):
    coeffs = [
        Scalar(Fraction(rng.randint(-span, span), rng.randint(1, denominator)))
        for _ in range(spec.dim)
    ]
    return GVector(spec, coeffs)


def random_word(spec, rng, max_length=5):
    length = rng.randint(0, max_length)
    return tuple(rng.randrange(spec.dim) for _ in range(length))


def random_submultiplicative_weights(spec, rng):
    """Random positive rational weights passing the vertex condition.

    Draws weights from a small grid and rejects until the reweighted spec is
    submultiplicative, for at most 200 draws; the spec's own weights are the
    fallback.
    """
    for _ in range(200):
        weights = [Fraction(rng.randint(1, 8), rng.randint(1, 2)) for _ in range(spec.dim)]
        candidate = LieAlgebraSpec(
            spec.dim,
            spec.basis_names,
            {key: dict(row) for key, row in spec.bracket_rows()},
            weights,
        )
        if submult_check(candidate).ok:
            return candidate
    return spec


def random_skew_rep(size, seed):
    """Random skew-hermitian generator on C^size for the abelian line.

    The float rep stores the drawn arrays in binary64.  ``(B - B^*) / 2`` is
    skew-hermitian exactly as stored, so :meth:`MatrixRep.validate` reads no
    entry of it as an integer.
    """
    from .catalog import abelian

    rng = np.random.default_rng(seed)
    B = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    A = (B - B.conj().T) / 2.0
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    v = v / np.linalg.norm(v)
    return MatrixRep(abelian(1), size, [A], v, skew_hermitian=True, exact=False,
                     name=f"random_skew_{size}_{seed}")
