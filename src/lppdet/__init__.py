"""Exact distributions for planar last-passage and longest-chain models.

The package computes longest increasing/nondecreasing chain laws through
Toeplitz determinants driven by a Szego-type recursion, checks them
against Fredholm determinants, Monte Carlo and a Plancherel sum, and
tabulates the Tracy-Widom limit laws from the Painleve II equation.

Importing the package loads none of its modules: each exported name
loads its own module on first access (PEP 562), so a command that needs
no numpy does not pay for it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("BreakdownError", "LppdetError", "ValidationError", "VerificationError"),
    "symbols": ("ModelKind", "ModelSpec", "SymbolSpec", "build_symbol", "evaluate_symbol"),
    "opuc": ("OpucData", "levinson", "square_opuc_highprec", "toeplitz_log_det"),
    "exact_dist": ("DistTable", "build_dist_table", "exact_law", "scaled_cdf", "square_opuc"),
    "painleve": ("PiiSolution", "f_goe", "f_gse", "f_gue", "solve_hastings_mcleod"),
    "fredholm": ("IntegrableKernelSpec", "fredholm_log_det", "identity_checks"),
    "montecarlo": ("EmpiricalCdf", "SimConfig", "run_simulation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
