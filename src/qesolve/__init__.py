"""Exact bound states of singular inverse-power potentials.

The package constructs quasi-exactly solvable solutions of the radial
Schroedinger equation for four potential families (inverse quartic, sextic,
octic and decatic tails) by solving the root conditions of a polynomial
ansatz, derives the constrained couplings and energies in closed form, and
verifies every solution with independent polynomial, pointwise-residual and
spectral oracles.
"""

from .bethe import (
    PolyODE,
    RootSet,
    SolverConfig,
    Variable,
    bae_residuals,
    compute_w_coefficients,
    solve_bae,
    verify_polynomial_identity,
)
from .errors import (
    ConstraintInfeasible,
    DenominatorBlowup,
    DocumentError,
    GridInsufficient,
    InvalidCase,
    InvalidExponent,
    InvalidParameter,
    MissingCoupling,
    NodeSingularity,
    NonRealCoefficients,
    NoSolutionFound,
    NotIntegrable,
    QesError,
    UnsupportedKind,
)
from .families import (
    BranchFailure,
    Case,
    Family,
    FamilyProblem,
    QESSolution,
    ReductionLimit,
    ReductionReport,
    WaveForm,
    build_ode,
    derive_parameters,
    reduction_check,
    solve_family,
    solve_family_detailed,
)
from .oracle import (
    FdGrid,
    PotentialSpec,
    VerificationReport,
    VerifyLevel,
    assemble_potential,
    default_fd_grid,
    fd_spectrum,
    schrodinger_residual,
    verify_solution,
)
from .wavefunction import (
    IntegralKind,
    NormIntegralSpec,
    besselk,
    count_nodes,
    eval_log_psi,
    eval_psi_log_derivatives,
    node_positions,
    norm_closed_form,
    norm_quadrature,
)

__version__ = "1.0.0"
