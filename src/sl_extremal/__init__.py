"""Numerical laboratory for extremal first eigenvalues of the problem
y'' + q y + lambda y = 0 with boundary conditions y'(0) = k0^2 y(0),
y'(1) = -k1^2 y(1), over potentials normalized by int_0^1 q^gamma dx = 1."""

from .potentials import (
    DeltaComponent,
    NonPositiveExponentOnVanishingFunction,
    Potential,
    StepPotential,
    ZeroPotential,
    normalize_gamma,
    pnorm,
)
from .eigensolver import (
    BracketNotFound,
    EigenResult,
    RobinBC,
    ZeroFunction,
    lambda1,
    lambda1_fd,
    lambda1_zero,
    rayleigh,
    theta_end,
)
from .sobolev import wminus1_dist, wminus1_norm
from .families import (
    ConvergenceTable,
    ExtremumSearchSpec,
    NormBudgetExceeded,
    SearchResult,
    SpikeTrainSpec,
    TableRow,
    VerificationError,
    search_extremum,
    statement1_family,
    statement2_family,
    statement3_family,
    verify_thm1,
    verify_thm2,
)

__version__ = "0.1.0"

__all__ = [
    "StepPotential",
    "DeltaComponent",
    "Potential",
    "pnorm",
    "normalize_gamma",
    "NonPositiveExponentOnVanishingFunction",
    "ZeroPotential",
    "RobinBC",
    "EigenResult",
    "theta_end",
    "lambda1",
    "lambda1_fd",
    "lambda1_zero",
    "rayleigh",
    "BracketNotFound",
    "ZeroFunction",
    "wminus1_norm",
    "wminus1_dist",
    "SpikeTrainSpec",
    "ExtremumSearchSpec",
    "TableRow",
    "ConvergenceTable",
    "SearchResult",
    "statement1_family",
    "statement2_family",
    "statement3_family",
    "verify_thm1",
    "verify_thm2",
    "search_extremum",
    "NormBudgetExceeded",
    "VerificationError",
    "__version__",
]
