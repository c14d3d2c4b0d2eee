"""The Hastings-McLeod Painleve II solution and Tracy-Widom laws.

Integrates u'' = 2 u^3 + x u backward from a matching point on the right,
where the solution is pinned to the Airy-type decay

    u(x) ~ -(1 / (2 sqrt(pi) x^{1/4})) exp(-(2/3) x^{3/2}),   x -> +inf.

The matching data uses the full Airy function Ai and Ai', whose relative
distance to the true solution at the matching point is of order
exp(-(4/3) x^{3/2}); seeding from the bare leading-order formula instead
would cost about seven digits at x = 0 because errors grow like 1/Ai
going left.

Alongside u the integration carries u', v(x) = int_inf^x u^2, the running
integral I(x) = int_x^inf u and W(x) = int_x^inf v, from which the three
classical edge laws are assembled:

    F_beta2(x) = exp(-int_x^inf (y - x) u(y)^2 dy)
    F_beta1(x) = exp((1/2) I(x)) * sqrt(F_beta2(x))
    F_beta4(x) = cosh(I(x) / 2) * sqrt(F_beta2(x))

The table (``PiiSolution``, cache format version 2) is read back by cubic
Hermite interpolation with the ODE's own derivatives at the nodes, so only
the solve and the Airy tails past the matching point need scipy.

An independent Airy-kernel Fredholm determinant oracle is included for
cross-validation, plus the corner-asymptotics check tying the circle
recursion data at the scaling edge to (u, v).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, BreakdownError
from .opuc import OpucData, square_opuc_highprec


def _deferred(module: str, name: str):
    """Stand-in for ``module.name`` that imports it on its first call and
    rebinds this module's global ``name`` to it, so later calls reach the
    scipy function directly.  The exact laws never solve Painleve II, and
    importing scipy here would cost most of the package's import time."""

    def first_call(*args, **kwargs):
        fn = getattr(importlib.import_module(module), name)
        globals()[name] = fn
        return fn(*args, **kwargs)

    return first_call


solve_ivp = _deferred("scipy.integrate", "solve_ivp")
quad = _deferred("scipy.integrate", "quad")
airy = _deferred("scipy.special", "airy")

__all__ = [
    "PiiSolution",
    "CornerReport",
    "solve_hastings_mcleod",
    "f_gue",
    "f_goe",
    "f_gse",
    "airy_kernel_fgue",
    "corner_scaling_x",
    "corner_scaling_t",
    "corner_asymptotics_check",
    "corner_asymptotics_study",
]

_BLOWUP_LIMIT = 50.0
# The solve window.  Left of about -7 accuracy degrades: perturbations
# around the branch grow like exp((2 sqrt 2 / 3)|x|^{3/2}), which costs
# about two digits per unit of x near -9, so the window stops where the
# solution still carries ~3 digits.  At 8 the Airy matching error sits
# below the integration tolerance.
X_MIN = -9.0
X_RIGHT = 8.0
# The one table behind every limit law: the integrator's error control
# and the output grid step.
TABLE_TOL = 1e-13
TABLE_STEP = 0.005
# Gauss-Legendre nodes and right end of the truncated domain of the
# Airy-kernel oracles; the tails past the cut contribute below 1e-20.
_AIRY_NODES, _AIRY_CUT = 80, 14.0
_RANK_ONE_NODES, _RANK_ONE_CUT = 120, 18.0
# Central scaling window for the corner check; outside it the edge
# expansion is replaced by the exponential decay regimes.
CORNER_WINDOW = 3.0


def _gue_tail_exponent(x: float) -> float:
    """int_x^inf (y - x) Ai(y)^2 dy in closed form (Airy identities)."""
    ai, aip, _, _ = airy(x)
    return (2.0 / 3.0) * (x * x * ai * ai - x * aip * aip) - ai * aip / 3.0


def _int_airy_to_inf(x: float) -> float:
    """int_x^inf Ai(y) dy for x >= 0, by direct quadrature of the tail."""
    val, _ = quad(
        lambda s: float(airy(s)[0]), x, x + 40.0,
        epsabs=1e-16, epsrel=1e-13, limit=200,
    )
    return val


@dataclass(frozen=True)
class PiiSolution:
    """Dense table of the Hastings-McLeod solution on [X_MIN, X_RIGHT].

    Columns on a uniform grid (cache format version 2): u, du = u',
    v(x) = int_inf^x u^2, I(x) = int_x^inf u and W(x) = int_x^inf v; the
    last three are nonpositive.  Between nodes each column is read by cubic
    Hermite interpolation with the ODE's derivatives at the cell's two
    nodes (du, u^2, -u and -v), and past ``x_right`` by the Airy tails.
    ``tol`` is the local error control used by the integrator.
    """

    grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    v: np.ndarray
    I: np.ndarray
    W: np.ndarray
    x_right: float
    tol: float

    FORMAT_VERSION = 2
    # the arrays, in the integrator's state order after the grid
    COLUMNS = ("grid", "u", "du", "v", "I", "W")

    def _hermite(self, x: float, y: np.ndarray, dy) -> float:
        """Cubic Hermite interpolant of column ``y`` at x, with slope
        ``dy(j)`` at the two nodes j of x's grid cell."""
        grid = self.grid
        i = min(int(np.searchsorted(grid, x, side="right")) - 1, len(grid) - 2)
        h = grid[i + 1] - grid[i]
        s = (x - grid[i]) / h
        r = 1.0 - s
        return float(
            (1.0 + 2.0 * s) * r * r * y[i]
            + s * s * (3.0 - 2.0 * s) * y[i + 1]
            + h * s * r * (r * dy(i) - s * dy(i + 1))
        )

    def u_at(self, x: float) -> float:
        self._check_range(x)
        if x > self.x_right:
            ai = airy(x)[0]
            return -float(ai)
        return self._hermite(x, self.u, lambda j: self.du[j])

    def v_at(self, x: float) -> float:
        self._check_range(x)
        if x > self.x_right:
            ai, aip, _, _ = airy(x)
            return -float(aip * aip - x * ai * ai)
        return self._hermite(x, self.v, lambda j: self.u[j] * self.u[j])

    def i_at(self, x: float) -> float:
        self._check_range(x)
        if x > self.x_right:
            return -_int_airy_to_inf(x)
        return self._hermite(x, self.I, lambda j: -self.u[j])

    def w_at(self, x: float) -> float:
        """W(x) = int_x^inf v dy = -int_x^inf (y - x) u(y)^2 dy."""
        self._check_range(x)
        if x > self.x_right:
            return -_gue_tail_exponent(x)
        return self._hermite(x, self.W, lambda j: -self.v[j])

    def _check_range(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValidationError(f"x must be finite, got {x!r}")
        if x < self.grid[0]:
            raise ValidationError(
                f"x = {x} below tabulated range (grid starts at {self.grid[0]})"
            )

    def save_npz(self, path) -> None:
        np.savez(
            path,
            format_version=np.array([self.FORMAT_VERSION]),
            x_right=np.array([self.x_right]),
            tol=np.array([self.tol]),
            **{name: getattr(self, name) for name in self.COLUMNS},
        )

    @classmethod
    def load_npz(cls, path) -> "PiiSolution":
        with np.load(path) as d:
            if int(d["format_version"][0]) != cls.FORMAT_VERSION:
                raise ValidationError(
                    f"cache format version {int(d['format_version'][0])} "
                    f"does not match {cls.FORMAT_VERSION}"
                )
            return cls(
                x_right=float(d["x_right"][0]),
                tol=float(d["tol"][0]),
                **{name: d[name] for name in cls.COLUMNS},
            )


def solve_hastings_mcleod(tol: float = TABLE_TOL, grid_step: float = TABLE_STEP) -> PiiSolution:
    """Integrate the Hastings-McLeod solution from X_RIGHT down to X_MIN.

    Uses an adaptive high-order embedded Runge-Kutta pair (DOP853) with
    dense output evaluated on a uniform grid.  The backward direction is
    the stable one: the unwanted growing mode at +inf decays as x drops.
    """
    ai, aip, _, _ = airy(X_RIGHT)
    u0 = -float(ai)
    du0 = -float(aip)
    v0 = -float(aip * aip - X_RIGHT * ai * ai)
    i0 = -_int_airy_to_inf(X_RIGHT)
    w0 = -_gue_tail_exponent(X_RIGHT)

    def rhs(x, y):
        u, du, v, _, _ = y
        return (du, 2.0 * u ** 3 + x * u, u * u, -u, -v)

    def blow_up(x, y):
        return abs(y[0]) - _BLOWUP_LIMIT

    blow_up.terminal = True

    n_pts = int(round((X_RIGHT - X_MIN) / grid_step)) + 1
    grid = np.linspace(X_RIGHT, X_MIN, n_pts)
    sol = solve_ivp(
        rhs,
        (X_RIGHT, X_MIN),
        (u0, du0, v0, i0, w0),
        method="DOP853",
        rtol=max(tol, 1e-13),
        # near X_RIGHT the state is exponentially small and errors in the
        # decaying direction are amplified by 1/Ai going left, so error
        # control must be essentially relative there
        atol=max(tol, 1e-13) * 1e-7,
        dense_output=True,
        events=blow_up,
        max_step=0.25,
    )
    if sol.status == 1:
        raise BreakdownError(
            f"solution blew past |u| = {_BLOWUP_LIMIT} near x = {sol.t_events[0][0]:.6f}; "
            "this branch only exists down to moderate negative x in double precision"
        )
    if not sol.success:
        raise BreakdownError(f"integrator failed: {sol.message}")
    # ascending in x, one contiguous row per column
    table = np.ascontiguousarray(np.vstack([grid, sol.sol(grid)])[:, ::-1])
    return PiiSolution(**dict(zip(PiiSolution.COLUMNS, table)), x_right=X_RIGHT, tol=tol)


def f_gue(sol: PiiSolution, x: float) -> float:
    """Edge law for beta = 2: exp(-int_x^inf (y - x) u(y)^2 dy)."""
    return math.exp(sol.w_at(x))


def f_goe(sol: PiiSolution, x: float) -> float:
    """Edge law for beta = 1: exp(I(x)/2) * sqrt(F_beta2)."""
    return math.exp(0.5 * sol.i_at(x) + 0.5 * sol.w_at(x))


def f_gse(sol: PiiSolution, x: float) -> float:
    """Edge law for beta = 4: cosh(I(x)/2) * sqrt(F_beta2)."""
    return math.cosh(0.5 * sol.i_at(x)) * math.exp(0.5 * sol.w_at(x))


def airy_kernel_fgue(x: float) -> float:
    """Independent oracle: Fredholm determinant of the Airy kernel on (x, inf).

    Nystrom discretization with Gauss-Legendre nodes on [x, _AIRY_CUT].
    Entirely separate from the ODE path.
    """
    if x >= _AIRY_CUT - 1.0:
        raise ValidationError(f"x = {x} must sit well below the domain cut {_AIRY_CUT}")
    nodes, weights = np.polynomial.legendre.leggauss(_AIRY_NODES)
    a, b = x, _AIRY_CUT
    xs = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    ws = 0.5 * (b - a) * weights
    ai, aip, _, _ = airy(xs)
    diff = xs[:, None] - xs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff
    np.fill_diagonal(kern, aip * aip - xs * ai * ai)
    sw = np.sqrt(ws)
    mat = np.eye(_AIRY_NODES) - sw[:, None] * kern * sw[None, :]
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise BreakdownError("discretized Airy resolvent lost positivity")
    return float(math.exp(logdet))


def airy_rank_one_laws(s: float) -> tuple[float, float, float]:
    """Oracle for all three edge laws via the kernel Ai(x + y + s) on (0, inf).

    With B the integral operator with that kernel, det(1 - B^2) is the
    Airy-kernel determinant, and the two factors give the other laws:

        beta=2: det(1 - B) det(1 + B)
        beta=1: det(1 - B)
        beta=4: (det(1 - B) + det(1 + B)) / 2

    Returns (f1, f2, f4).  Completely independent of the ODE path.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_RANK_ONE_NODES)
    xs = 0.5 * _RANK_ONE_CUT * (nodes + 1.0)
    ws = 0.5 * _RANK_ONE_CUT * weights
    sw = np.sqrt(ws)
    bmat = airy(xs[:, None] + xs[None, :] + s)[0] * sw[:, None] * sw[None, :]
    eye = np.eye(_RANK_ONE_NODES)
    sign_m, log_m = np.linalg.slogdet(eye - bmat)
    sign_p, log_p = np.linalg.slogdet(eye + bmat)
    if sign_m <= 0 or sign_p <= 0:
        raise BreakdownError("Airy convolution determinant lost positivity")
    det_m = math.exp(log_m)
    det_p = math.exp(log_p)
    return det_m, det_m * det_p, 0.5 * (det_m + det_p)


def corner_scaling_x(t: float, k: int) -> float:
    """Scaling variable x with 2t/k = 1 - x / (2^{1/3} k^{2/3})."""
    return float(2.0 ** (1.0 / 3.0) * k ** (2.0 / 3.0) * (1.0 - 2.0 * t / k))


def corner_scaling_t(x: float, k: int) -> float:
    """Inverse of ``corner_scaling_x`` in t."""
    return 0.5 * k * (1.0 - x / (2.0 ** (1.0 / 3.0) * k ** (2.0 / 3.0)))


@dataclass(frozen=True)
class CornerReport:
    k: int
    t: float
    x: float
    dev_norm_ratio: float
    dev_poly_at_zero: float


def corner_asymptotics_check(
    data: OpucData, t: float, k: int, sol: PiiSolution
) -> CornerReport:
    """Deviation of the corner entries from their edge expansions.

    Compares 1/N_{k-1} against 1 + 2^{1/3} k^{-1/3} v(x) and -b(k)
    against -(-1)^k 2^{1/3} k^{-1/3} u(x), both of which the edge scaling
    predicts to within O(k^{-2/3}).
    """
    if k < 2 or k > data.cutoff:
        raise ValidationError(f"k must lie in [2, cutoff] = [2, {data.cutoff}]")
    x = corner_scaling_x(t, k)
    if abs(x) > CORNER_WINDOW:
        raise ValidationError(
            f"scaling variable x = {x:.3f} outside the central window "
            f"[-{CORNER_WINDOW}, {CORNER_WINDOW}]; the far-right regime decays like "
            "exp(-c x^{3/2}) and the far-left regime is exponentially degenerate, "
            "so the edge expansion does not apply"
        )
    scale = 2.0 ** (1.0 / 3.0) * k ** (-1.0 / 3.0)
    neg_y21 = math.exp(-float(data.log_norms[k - 1]))  # = 1/N_{k-1}
    dev_v = abs(neg_y21 - 1.0 - scale * sol.v_at(x))
    y11 = -float(data.reflection[k])  # = pi_k(0)
    dev_u = abs(y11 + (-1.0) ** k * scale * sol.u_at(x))
    return CornerReport(k=k, t=t, x=x, dev_norm_ratio=dev_v, dev_poly_at_zero=dev_u)


def corner_asymptotics_study(
    k_values, x: float, sol: PiiSolution
) -> list[CornerReport]:
    """Run the corner check at fixed x across several k, high precision.

    Each k gets its own t from the scaling relation and a fresh
    extended-precision recursion (fixed-point integers on Miller Bessel
    moments): float64 moment arithmetic loses these reflection
    coefficients entirely once e^{2t} exceeds 1e16.
    """
    reports = []
    for k in k_values:
        t = corner_scaling_t(x, int(k))
        data = square_opuc_highprec(t, int(k))
        reports.append(corner_asymptotics_check(data, t, int(k), sol))
    return reports


def fit_power_law(ks, devs) -> tuple[float, float]:
    """Least-squares slope and constant for dev ~ C * k^slope."""
    ks = np.asarray(ks, dtype=float)
    devs = np.asarray(devs, dtype=float)
    if np.any(devs <= 0):
        raise BreakdownError("cannot fit a power law through zero deviations")
    slope, intercept = np.polyfit(np.log(ks), np.log(devs), 1)
    return float(slope), float(math.exp(intercept))
