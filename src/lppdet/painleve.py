"""The Hastings-McLeod Painleve II solution and Tracy-Widom laws.

Integrates u'' = 2 u^3 + x u backward from a matching point on the right,
where the solution is pinned to the Airy-type decay

    u(x) ~ -(1 / (2 sqrt(pi) x^{1/4})) exp(-(2/3) x^{3/2}),   x -> +inf.

The matching data is the Airy tail u = -Ai with its v, I and W from the
Airy identities, whose relative distance to the true solution at the
matching point is of order exp(-(4/3) x^{3/2}); seeding from the bare
leading-order formula instead would cost about seven digits at x = 0
because errors grow like 1/Ai going left.

Alongside u the integration carries u', v(x) = int_inf^x u^2, the running
integral I(x) = int_x^inf u and W(x) = int_x^inf v, from which the three
classical edge laws are assembled:

    F_beta2(x) = exp(-int_x^inf (y - x) u(y)^2 dy)
    F_beta1(x) = exp((1/2) I(x)) * sqrt(F_beta2(x))
    F_beta4(x) = cosh(I(x) / 2) * sqrt(F_beta2(x))

The system (u, u', v, I, W) is polynomial, so it is integrated by Taylor
series: each macro step of fixed length expands the solution about its
right end by Cauchy-product recurrences and takes as many terms as
``tol`` asks.  Those step polynomials are the table (``PiiSolution``) on
[X_MIN, X_RIGHT] = [-9, 10]: a read finds x's step and evaluates its
polynomials, so there is no output grid and no interpolation.  Against a
40-digit reference u and W are within about 1e-17 on [0, 8], 1e-13 on
[-4, 0], 4e-11 on [-6, -4] and 6e-8 on [-8, -6], and W is within 2e-15
relative on [8, 10].  Left of 0 the solution's own instability
(Bornemann, arXiv:0804.2543) amplifies float64 roundoff like
exp(0.94 |x|^{3/2}); at X_MIN = -9, u is 4e-6 off and W 9e-7.  Right of
X_RIGHT the readers return the same Airy tail the solve starts from, one
function (``_airy_tail``) that rounds each component once.

The Airy functions come from their Maclaurin series in decimal
arithmetic, and the table is Python floats, so the solve and the three
laws need the standard library alone.  The solve takes about 14 ms
(2-vCPU Xeon, Python 3.11), so a command that needs the table solves it
once and stores nothing.

An independent Airy-kernel Fredholm determinant oracle is included for
cross-validation, plus the corner-asymptotics check tying the circle
recursion data at the scaling edge to (u, v).  The oracle and the
power-law fit import numpy, and the corner study the circle recursion,
only when they are called.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import TYPE_CHECKING

from .errors import ValidationError, BreakdownError

if TYPE_CHECKING:
    from .opuc import OpucData

__all__ = [
    "PiiSolution",
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

# The solve window.  Left of about -6 accuracy degrades: perturbations
# around the branch grow like exp((2 sqrt 2 / 3)|x|^{3/2}), so float64
# roundoff puts u 6e-8 off at -8 and 4e-6 off at -9, where the window
# stops.
X_MIN = -9.0
# The solve starts from Airy data here, the table's right end.  That data
# is not quite the solution, and the error grows going left: matched at
# x = 8 it alone puts u 5e-8 off at x = -8, matched here 2e-13.  A start
# further right rounds the carried state at more steps: from x = 14, u is
# 2.1e-7 off at x = -8 against 6.1e-8 from here.
X_RIGHT = 10.0
# The one table behind every limit law: the truncation tolerance of the
# Taylor steps.
TABLE_TOL = 1e-13
# Length of a Taylor step and the most terms a step may take: a step that
# needs more has a pole of the solution within reach, so the solve stops
# there.
_TAYLOR_STEP = 0.1
_MAX_ORDER = 100
# The steps' right ends x0, from X_RIGHT down: step k serves
# (_STARTS[k + 1], _STARTS[k]], and the last one reaches down to X_MIN.
_STARTS = tuple(X_RIGHT - k * _TAYLOR_STEP
                for k in range(math.ceil((X_RIGHT - X_MIN) / _TAYLOR_STEP - 1e-9)))
# Past this x, Ai, Ai', int_x^inf Ai and so v and W all lie below half
# the smallest float64 subnormal, so each rounds to zero.
_AIRY_UNDERFLOW = 108.0
# Past this x the three edge laws all round to 1.0 (F_beta1 is the last
# below it, up to x = 13.62), so they return 1.0 without summing the Airy
# series, whose cost grows with x: 0.3 ms at x = 12, 80 ms at x = 100.
# An infinite x still meets the tables' range check.
_LAWS_AT_ONE = 14.0
# Gauss-Legendre nodes and right end of the truncated domain of the
# Airy-kernel oracle; the tails past the cut contribute below 1e-20.
_AIRY_NODES, _AIRY_CUT = 80, 14.0
# Central scaling window for the corner check; outside it the edge
# expansion is replaced by the exponential decay regimes.
CORNER_WINDOW = 3.0


@functools.lru_cache(maxsize=16)
def _airy_origin(digits: int) -> tuple[Decimal, Decimal]:
    """Ai(0) and Ai'(0) to ``digits`` significant digits.

    Both follow from Gamma(1/3), which the complete elliptic integral at
    modulus sin 15 deg gives as Gamma(1/3)^3 = 2^{4/3} pi^2 / (3^{1/4} M)
    with M = agm(1, cos 15 deg); pi comes from the Gauss-Legendre
    iteration.  Then Ai(0) = Gamma(1/3) / (2 pi 3^{1/6}) and
    Ai'(0) = -1 / (3^{1/3} Gamma(1/3)).
    """
    with localcontext() as ctx:
        ctx.prec = digits + 5
        one = Decimal(1)
        # each round of either mean doubles the digits
        rounds = ctx.prec.bit_length() + 2
        a, b, t, p = one, Decimal("0.5").sqrt(), Decimal("0.25"), one
        for _ in range(rounds):
            a, b, t, p = (a + b) / 2, (a * b).sqrt(), t - p * ((a - b) / 2) ** 2, 2 * p
        pi = (a + b) ** 2 / (4 * t)
        a, b = one, (Decimal(6).sqrt() + Decimal(2).sqrt()) / 4
        for _ in range(rounds):
            a, b = (a + b) / 2, (a * b).sqrt()
        third = one / 3
        gamma = (2 * pi * pi * 2 ** third / (3 ** Decimal("0.25") * a)) ** third
        return gamma / (2 * pi * 3 ** (third / 2)), -one / (3 ** third * gamma)


def _airy_decimal(x: float) -> tuple[Decimal, Decimal, Decimal]:
    """Ai(x), Ai'(x) and int_x^inf Ai(y) dy to about 45 significant digits.

    Sums the Maclaurin series Ai(x) = sum_n t_n, t_n = a_n x^n, with
    a_{n+3} = a_n / ((n + 2)(n + 3)) and a_2 = 0, and from the same terms
    Ai'(x) = a_1 + x^2 sum_n t_n / (n + 2) and
    int_x^inf Ai = 1/3 - x sum_n t_n / (n + 1).  The terms grow to about
    exp(zeta), zeta = (2/3)|x|^{3/2}, while Ai falls like exp(-zeta) on the
    right, so the sums run in decimal arithmetic with 45 + 2 zeta / ln 10
    digits; Ai(0) and Ai'(0) come to that precision from ``_airy_origin``.
    """
    zeta = (2.0 / 3.0) * abs(x) ** 1.5
    with localcontext() as ctx:
        ctx.prec = 45 + math.ceil(2.0 * zeta / math.log(10.0))
        ai0, aip0 = _airy_origin(-(-ctx.prec // 50) * 50)
        xd = Decimal(x)
        x3 = xd * xd * xd
        # the derivative and integral weigh a term by at most this
        reach = max(Decimal(1), xd * xd)
        ai = d_sum = i_sum = Decimal(0)
        for n, term in ((0, ai0), (1, aip0 * xd)):
            top = abs(term)
            while True:
                ai += term
                d_sum += term / (n + 2)
                i_sum += term / (n + 1)
                term = term * x3 / ((n + 2) * (n + 3))
                n += 3
                size = abs(term)
                # past the largest term by a factor 10^-prec the ratio of
                # successive terms is below 1/2, so the rest is smaller still
                if size > top:
                    top = size
                elif size * reach <= top.scaleb(-ctx.prec):
                    break
        return ai, aip0 + d_sum * xd * xd, 1 / Decimal(3) - i_sum * xd


def _airy_tail(x: float) -> tuple[float, float, float, float, float]:
    """The state (u, u', v, I, W) of the Airy tail u = -Ai at x, each
    component correctly rounded.

    By the Airy identities v = int_inf^x Ai^2 = x Ai^2 - Ai'^2 and
    W = -int_x^inf (y - x) Ai(y)^2 dy = (Ai Ai' - 2 x v) / 3, and
    I = -int_x^inf Ai.  Right of 0 the terms of v and W cancel like
    x^{3/2} (in float64 that puts W 6.5e-12 relative off at x = 20), so
    they are combined from the 45-digit sums at 40 digits.  The solve
    starts from this state at X_RIGHT, and the table's readers return it
    right of there.
    """
    if x >= _AIRY_UNDERFLOW:
        return -0.0, 0.0, -0.0, -0.0, -0.0
    ai, aip, int_ai = _airy_decimal(x)
    with localcontext() as ctx:
        ctx.prec = 40
        xd = Decimal(x)
        v = xd * ai * ai - aip * aip
        w = (ai * aip - 2 * xd * v) / 3
    return -float(ai), -float(aip), float(v), -float(int_ai), float(w)


@dataclass(frozen=True)
class PiiSolution:
    """The Hastings-McLeod solution on [X_MIN, X_RIGHT] as the solver's
    own Taylor steps.

    ``coeffs[k]`` holds four lists of floats, zero-padded to one order: the
    Taylor coefficients of u, v(x) = int_inf^x u^2, I(x) = int_x^inf u and
    W(x) = int_x^inf v (the last three nonpositive) about the right end
    ``_STARTS[k]`` of step k; past X_RIGHT the Airy tail serves.
    """

    coeffs: list[list[list[float]]]

    def _read(self, x: float, component: int) -> float:
        """Component 0-3 (u, v, I, W) at x: the Airy tail right of X_RIGHT,
        else the Horner read of x's step."""
        if not math.isfinite(x):
            raise ValidationError(f"x must be finite, got {x!r}")
        if x < X_MIN:
            raise ValidationError(f"x = {x} below tabulated range (table starts at {X_MIN})")
        if x > X_RIGHT:
            u, _, v, i, w = _airy_tail(x)
            return (u, v, i, w)[component]
        k = bisect.bisect_right(_STARTS, -x, key=operator.neg) - 1
        return _horner(self.coeffs[k][component], x - _STARTS[k])

    def u_at(self, x: float) -> float:
        return self._read(x, 0)

    def v_at(self, x: float) -> float:
        return self._read(x, 1)

    def i_at(self, x: float) -> float:
        return self._read(x, 2)

    def w_at(self, x: float) -> float:
        """W(x) = int_x^inf v dy = -int_x^inf (y - x) u(y)^2 dy."""
        return self._read(x, 3)


def _taylor_step(x0: float, state, h: float, tol: float) -> list[list[float]]:
    """Taylor coefficients at x0 of u, v, I and W, one list each, from the
    state (u, u', v, I, W) at x0.

    With a_k, v_k, I_k and W_k the coefficients of u, v, I and W, and
    (u^2)_k, (u^3)_k those of the Cauchy products,

        (k + 2)(k + 1) a_{k+2} = 2 (u^3)_k + x0 a_k + a_{k-1},
        (k + 1) v_{k+1} = (u^2)_k,  (k + 1) I_{k+1} = -a_k,
        (k + 1) W_{k+1} = -v_k.

    Terms are added until, for two orders running, each component's term
    at offset h, and that of u', is below ``tol`` times its value at x0.
    """
    u0, du0, v0, i0, w0 = state
    a, v, I, W = [u0, du0], [v0], [i0], [w0]
    sq, cube = [u0 * u0], [u0 * u0 * u0]
    scale = [tol * abs(c) for c in (u0, du0, v0, i0, w0)]
    passed = 0
    for m in range(1, _MAX_ORDER + 1):
        if m >= 2:
            a.append((2.0 * cube[m - 2] + x0 * a[m - 2] + (a[m - 3] if m >= 3 else 0.0))
                     / (m * (m - 1)))
        sq.append(sum(map(operator.mul, a, reversed(a))))
        cube.append(sum(map(operator.mul, sq, reversed(a))))
        v.append(sq[m - 1] / m)
        I.append(-a[m - 1] / m)
        W.append(-v[m - 1] / m)
        hm = abs(h) ** m
        terms = (abs(a[m]) * hm, m * abs(a[m]) * hm / abs(h), abs(v[m]) * hm,
                 abs(I[m]) * hm, abs(W[m]) * hm)
        passed = passed + 1 if all(t <= s for t, s in zip(terms, scale)) else 0
        if passed == 2:
            return [a, v, I, W]
    raise BreakdownError(
        f"Taylor series at x = {x0:.6f} did not reach tolerance {tol:g} within "
        f"{_MAX_ORDER} terms over a step of {abs(h):.3g}: the solution has a pole "
        "that close, as a branch off the Hastings-McLeod one does in double precision"
    )


def _horner(coeffs, x: float) -> float:
    """The polynomial with coefficients ``coeffs`` (constant term first)
    at x, one float64 multiply-add per coefficient."""
    value = 0.0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def solve_hastings_mcleod(tol: float = TABLE_TOL) -> PiiSolution:
    """Integrate the Hastings-McLeod solution from the Airy tail at X_RIGHT
    down to X_MIN.

    Taylor series in macro steps of fixed length ``_TAYLOR_STEP``, whose
    order comes from the relative truncation tolerance ``tol`` (9 to 15
    terms at the table's 1e-13).  The steps' polynomials are the table;
    the state carried to the next step is their value at the step end, so
    a step's value there is the next step's constant term.  The backward
    direction is the stable one: the unwanted growing mode at +inf decays
    as x drops.  The accuracy per window is in the module docstring.
    """
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    state = _airy_tail(X_RIGHT)
    steps = []
    for x0, x1 in zip(_STARTS, [*_STARTS[1:], X_MIN]):
        h = x1 - x0
        u, v, i, w = _taylor_step(x0, state, h, tol)
        du = [j * c for j, c in enumerate(u)][1:]
        state = tuple(_horner(c, h) for c in (u, du, v, i, w))
        steps.append((u, v, i, w))
    # the four polynomials of a step share its order; zeros pad every step
    # to the largest, which leaves each Horner read's value unchanged
    order = max(len(u) for u, *_ in steps)
    coeffs = [[c + [0.0] * (order - len(c)) for c in step] for step in steps]
    return PiiSolution(coeffs=coeffs)


def f_gue(sol: PiiSolution, x: float) -> float:
    """Edge law for beta = 2: exp(-int_x^inf (y - x) u(y)^2 dy)."""
    if _LAWS_AT_ONE <= x < math.inf:
        return 1.0
    return math.exp(sol.w_at(x))


def f_goe(sol: PiiSolution, x: float) -> float:
    """Edge law for beta = 1: exp(I(x)/2) * sqrt(F_beta2)."""
    if _LAWS_AT_ONE <= x < math.inf:
        return 1.0
    return math.exp(0.5 * sol.i_at(x) + 0.5 * sol.w_at(x))


def f_gse(sol: PiiSolution, x: float) -> float:
    """Edge law for beta = 4: cosh(I(x)/2) * sqrt(F_beta2)."""
    if _LAWS_AT_ONE <= x < math.inf:
        return 1.0
    return math.cosh(0.5 * sol.i_at(x)) * math.exp(0.5 * sol.w_at(x))


def airy_kernel_fgue(x: float) -> float:
    """Independent oracle: Fredholm determinant of the Airy kernel on (x, inf).

    Nystrom discretization with Gauss-Legendre nodes on [x, _AIRY_CUT].
    Entirely separate from the ODE path.  x must lie in the table's window
    and well below the cut; further left the Airy series at the nodes
    would need ever more digits and terms.
    """
    import numpy as np

    if not X_MIN <= x < _AIRY_CUT - 1.0:
        raise ValidationError(
            f"x = {x} must lie in [{X_MIN}, {_AIRY_CUT - 1.0}), the table's window "
            f"and well below the domain cut {_AIRY_CUT}"
        )
    nodes, weights = np.polynomial.legendre.leggauss(_AIRY_NODES)
    a, b = x, _AIRY_CUT
    xs = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    ws = 0.5 * (b - a) * weights
    # u = -Ai and u' = -Ai': the kernel is even in the pair
    u, du, *_ = np.array([_airy_tail(node) for node in xs]).T
    diff = xs[:, None] - xs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = (u[:, None] * du[None, :] - du[:, None] * u[None, :]) / diff
    np.fill_diagonal(kern, du * du - xs * u * u)
    sw = np.sqrt(ws)
    mat = np.eye(_AIRY_NODES) - sw[:, None] * kern * sw[None, :]
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise BreakdownError("discretized Airy resolvent lost positivity")
    return float(math.exp(logdet))


def corner_scaling_x(t: float, k: int) -> float:
    """Scaling variable x with 2t/k = 1 - x / (2^{1/3} k^{2/3})."""
    return float(2.0 ** (1.0 / 3.0) * k ** (2.0 / 3.0) * (1.0 - 2.0 * t / k))


def corner_scaling_t(x: float, k: int) -> float:
    """Inverse of ``corner_scaling_x`` in t."""
    return 0.5 * k * (1.0 - x / (2.0 ** (1.0 / 3.0) * k ** (2.0 / 3.0)))


def corner_asymptotics_check(
    data: OpucData, t: float, k: int, sol: PiiSolution
) -> tuple[float, float]:
    """Deviations of the corner entries from their edge expansions.

    Returns |1/N_{k-1} - 1 - 2^{1/3} k^{-1/3} v(x)| and
    |-b(k) + (-1)^k 2^{1/3} k^{-1/3} u(x)|, both of which the edge scaling
    predicts to be O(k^{-2/3}).
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
    return dev_v, dev_u


def corner_asymptotics_study(
    k_values, x: float, sol: PiiSolution
) -> tuple[list[float], list[float]]:
    """The corner check at fixed x across several k, high precision: the
    norm-ratio deviations and the polynomial-entry deviations, one per k.

    Each k gets its own t from the scaling relation and a fresh
    extended-precision recursion (fixed-point integers on Miller Bessel
    moments) to the converged cutoff that its tail-sum log-norms need:
    float64 moment arithmetic loses these coefficients once e^{2t} > 1e16.
    Like every square table it must pass the strong Szego check.
    """
    from .opuc import _default_cutoff, square_opuc_highprec

    devs = []
    for k in k_values:
        t = corner_scaling_t(x, int(k))
        data = square_opuc_highprec(t, _default_cutoff(t, 0))
        devs.append(corner_asymptotics_check(data, t, int(k), sol))
    dev_v, dev_u = zip(*devs)
    return list(dev_v), list(dev_u)


def fit_power_law(ks, devs) -> tuple[float, float]:
    """Least-squares slope and constant for dev ~ C * k^slope."""
    import numpy as np

    ks = np.asarray(ks, dtype=float)
    devs = np.asarray(devs, dtype=float)
    if np.any(devs <= 0):
        raise BreakdownError("cannot fit a power law through zero deviations")
    slope, intercept = np.polyfit(np.log(ks), np.log(devs), 1)
    return float(slope), float(math.exp(intercept))
