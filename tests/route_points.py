"""Single rows of the exact routes, certified as the tables certify them.

The package has no per-kind point queries: its tables take every row from
``EXACT_ROUTES`` and certify it against the kind's ``ROW_TOL``.  The tests
that pin one threshold on a given recursion table read the same row
functions here, with the same bounds.
"""

from lppdet.exact_dist import (
    OGROUP_TOL,
    ROW_TOL,
    certified,
    external_rows,
    ogroup_law,
    triangle_rows,
)
from lppdet.opuc import OpucData
from lppdet.symbols import ModelKind, ModelSpec, SymbolSpec, normalization_log_z


def triangle_odd(t: float, alpha: float, j: int, opuc: OpucData) -> float:
    """P(L <= 2j + 1) of the triangle, row j of ``triangle_rows``."""
    p, bound = triangle_rows(t, alpha, j, opuc)[j]
    return certified(p, bound, f"P(L <= {2 * j + 1})", ROW_TOL[ModelKind.POISSON_TRIANGLE])


def external_point(
    t: float, a_plus: float, a_minus: float, ell: int, opuc: OpucData
) -> float:
    """P(L <= ell) with boundary sources, row ell of ``external_rows``."""
    model = ModelSpec(
        kind=ModelKind.POISSON_EXTERNAL, t=t, alpha_plus=a_plus, alpha_minus=a_minus
    )
    rows = external_rows(a_plus, a_minus, normalization_log_z(model), ell, opuc)
    p, bound = rows[ell]
    return certified(p, bound, f"P(L <= {ell})", ROW_TOL[model.kind])


def group_mean(psi: SymbolSpec, ell: int) -> float:
    """E_{O(ell)} det psi(U), certified to OGROUP_TOL relative to the mean."""
    value, bound = ogroup_law(psi, 0.0, ell)[ell]
    relative = bound / abs(value) if value != 0.0 else float("inf")
    return certified(value, relative, f"O({ell}) mean", OGROUP_TOL)
