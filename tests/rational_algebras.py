"""Lie algebras with non-integer structure constants, and exact reps of them.

Each one is a catalog algebra in a rescaled basis ``f_i = s_i e_i``, so that
``[f_i, f_j] = sum_k (s_i s_j / s_k) c_ijk f_k`` and the weights become
``w_i s_i`` (submultiplicativity is kept).  The matrices ``s_i R(e_i)``
represent it exactly.  No shipped algebra has a non-integer structure
constant, so these are what drive the PBW engine's graded denominators
(``spec.delta > 1``) in the tests.
"""

from fractions import Fraction

from envalg.catalog import heisenberg, heisenberg_rep, so3, spin_half, spin_one, spin_three_half
from envalg.gns import MatrixRep
from envalg.lie_structure import LieAlgebraSpec


def rescaled(spec, scales):
    scales = [Fraction(s) for s in scales]
    structure = {
        (i, j): {k: c.re * scales[i] * scales[j] / scales[k] for k, c in row.items()}
        for (i, j), row in spec.bracket_rows()
    }
    weights = [w * s for w, s in zip(spec.weights, scales)]
    return LieAlgebraSpec(spec.dim, spec.basis_names, structure, weights)


def rescaled_rep(rep, spec, scales):
    gens = [[[c * Fraction(s) for c in row] for row in gen]
            for gen, s in zip(rep.generators, scales)]
    return MatrixRep(spec, rep.dim_V, gens, rep.cyclic_vector,
                     skew_hermitian=rep.skew_hermitian, exact=True)


# [f1, f2] = 1/2 f3, [f2, f3] = 1/2 f1, [f3, f1] = 2 f2: delta = 2
SO3_HALF_SCALES = (1, Fraction(1, 2), 1)
# [f1, f2] = 3/2 f3, [f2, f3] = 1/6 f1, [f3, f1] = 2/3 f2: delta = 6
SO3_SIXTH_SCALES = (1, Fraction(1, 2), Fraction(1, 3))
# [x, y] = 3/5 z: delta = 5
HEIS_SCALES = (1, 1, Fraction(5, 3))

SO3_HALF = rescaled(so3(), SO3_HALF_SCALES)
SO3_SIXTH = rescaled(so3(), SO3_SIXTH_SCALES)
HEIS_3_5 = rescaled(heisenberg(), HEIS_SCALES)

RATIONAL_ALGEBRAS = {"so3-half": SO3_HALF, "so3-sixth": SO3_SIXTH, "heisenberg-3/5": HEIS_3_5}


def rational_reps():
    """Exact reps of the rescaled algebras: the three spin reps and the Heisenberg one."""
    reps = {}
    for label, spec, scales in (("half", SO3_HALF, SO3_HALF_SCALES),
                                ("sixth", SO3_SIXTH, SO3_SIXTH_SCALES)):
        for name, make in (("spin-half", spin_half), ("spin-one", spin_one),
                           ("spin-three-half", spin_three_half)):
            reps[f"{name}-{label}"] = rescaled_rep(make(), spec, scales)
    reps["heisenberg-3/5"] = rescaled_rep(heisenberg_rep(), HEIS_3_5, HEIS_SCALES)
    return reps
