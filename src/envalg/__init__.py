"""Exact-arithmetic workbench for enveloping algebras of Lie algebras.

The algebra side (free series, PBW normal forms, functionals, moment
matrices) runs in exact Gaussian-rational arithmetic; the group side
(matrix exponentials, kernels) runs in binary64.  The two meet in the
matrix-coefficient functionals of concrete representations.
"""

from .errors import (
    ConfigError,
    ConstantTermError,
    DegreeOverflowError,
    HermitianError,
    PositivityError,
    RepresentationError,
    SeriesMismatchError,
    SpecMismatchError,
    SubmultiplicativityError,
    UnknownSuiteError,
    WorkbenchError,
)
from .scalars import Scalar, SqrtFraction, RootValue
from .free_algebra import (
    FreeSeries,
    fa_bch,
    fa_bidegree_project,
    fa_check_exp_identity,
    fa_exp,
    fa_log,
)
from .lie_structure import (
    GVector,
    LieAlgebraSpec,
    PBWPoly,
    bch_in_g,
    bracket,
    jacobi_validate,
    pbw_mul,
    pbw_reduce,
    star,
    submult_check,
)
from .functionals import (
    BetaComponent,
    FunctionalTable,
    beta_component,
    insertion_constants,
    pnorm,
    radius_estimate,
    recursion_check,
    regular_act,
    symmetrize,
)
from .gns import (
    GnsModel,
    MatrixRep,
    analytic_diagnostics,
    functional_from_rep,
    gns_build,
    moment_matrix,
    orbit_gram,
    psd_check,
)
from .group_integration import (
    GroupSample,
    cauchy_estimate_check,
    extension_demo,
    extension_demo_table,
    local_hom_check,
    matrix_coefficient,
    matrix_exp,
    pd_kernel_check,
    sample_group,
)
from . import catalog, cli, sampling

__version__ = "0.1.0"
