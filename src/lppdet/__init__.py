"""Exact distributions for planar last-passage and longest-chain models.

The package computes longest increasing/nondecreasing chain laws through
Toeplitz determinants driven by a Szego-type recursion, checks them
against Fredholm determinants, Monte Carlo and a Plancherel sum, and
tabulates the Tracy-Widom limit laws from the Painleve II equation.
"""

from .errors import (
    BreakdownError,
    LppdetError,
    ValidationError,
    VerificationError,
)
from .symbols import ModelKind, ModelSpec, SymbolSpec, build_symbol, evaluate_symbol
from .opuc import OpucData, levinson, square_opuc_highprec, toeplitz_log_det
from .exact_dist import (
    DistTable,
    build_dist_table,
    exact_law,
    scaled_cdf,
    square_opuc,
    toeplitz_prob,
)
from .painleve import PiiSolution, f_goe, f_gse, f_gue, solve_hastings_mcleod
from .fredholm import IntegrableKernelSpec, fredholm_log_det, identity_checks
from .montecarlo import EmpiricalCdf, SimConfig, run_simulation

__version__ = "0.1.0"

__all__ = [
    "BreakdownError",
    "DistTable",
    "EmpiricalCdf",
    "IntegrableKernelSpec",
    "LppdetError",
    "ModelKind",
    "ModelSpec",
    "OpucData",
    "PiiSolution",
    "SimConfig",
    "SymbolSpec",
    "ValidationError",
    "VerificationError",
    "__version__",
    "build_dist_table",
    "build_symbol",
    "evaluate_symbol",
    "exact_law",
    "f_goe",
    "f_gse",
    "f_gue",
    "fredholm_log_det",
    "identity_checks",
    "levinson",
    "run_simulation",
    "scaled_cdf",
    "solve_hastings_mcleod",
    "square_opuc",
    "square_opuc_highprec",
    "toeplitz_log_det",
    "toeplitz_prob",
]
