"""Discrete self-adjoint Dirac-type systems and block Szego recurrences.

Direct problem: pseudo-exponential potential generation, fundamental-solution
propagation, Weyl functions and their Taylor coefficients. Inverse problem:
reconstruction of potentials from Taylor coefficients via block-Toeplitz
inversion.
"""

from . import errors
from .linalg import (
    SignatureContext,
    block_levinson_solve,
    block_toeplitz,
    pd_solve,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .system import (
    CHECKS,
    MoebiusPair,
    PotentialSequence,
    ValidationReport,
    fundamental_solutions,
    herglotz_map,
    propagate,
    q_weight,
    summation_residual,
    validate,
    weyl_disk_eval,
    weyl_partial_sum,
)
from .szego import (
    SchurCoefficients,
    SzegoSequence,
    dirac_to_szego,
    random_szego_sequence,
    schur_coeffs,
    schur_to_R,
    szego_solution_map,
    szego_to_dirac,
)
from .pseudoexp import (
    BdtParameters,
    example41,
    example41_params,
    explicit_fundamental,
    explicit_partial_sum,
    explicit_weyl,
    generate,
    random_bdt_parameters,
    transfer,
)
from .inverse import (
    BetaSequence,
    TaylorSequence,
    beta_from_potentials,
    borg_marchenko_check,
    direct_taylor,
    inverse_potentials,
    lyapunov_residual,
    rational_taylor,
    structured_a,
    taylor_from_beta,
    toeplitz_positivity,
)

__version__ = "0.1.0"
