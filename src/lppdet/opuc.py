"""Orthogonal polynomials on the unit circle from Toeplitz moment data.

Given the Fourier coefficients phi_j of a symbol, the monic polynomials
pi_k orthogonal under the bilinear pairing

    <f, g> = (1/2pi) int f(z) g(1/z) phi(z) dth,      z = e^{i th},

carry everything needed for the exact distribution formulas: their
norms N_k multiply to the Toeplitz determinants D_l = N_0 * ... * N_{l-1},
and their constant terms pi_k(0) are the reflection coefficients that
solve a discrete Painleve II recursion for the Poisson-square symbol.

For symbols without the z <-> 1/z symmetry the pairing is not symmetric
and a second family rho_k (orthogonal on the other side of the pairing)
enters the recursion; both reflection sequences are stored, and the norm
update uses their product, which collapses to a square in the symmetric
case.

All determinant-scale quantities are kept in log space.  The recursion
runs in float64 by default.  For the Poisson-square symbol at large t,
where the moment scale e^{2t} makes the float64 inner products cancel
below roundoff, an extended-precision path runs the same recursion in
fixed-point Python integers on Bessel moment ratios from Miller's
backward recurrence.  A square table holds one sequence, its reflection
coefficients: every square table, on either route, is built from them by
``_square_table``, which takes its log-norms as their tail sums and checks
them against strong Szego.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, BreakdownError
from .symbols import FourierTable

__all__ = [
    "OpucData",
    "levinson",
    "square_opuc_highprec",
    "toeplitz_log_det",
    "toeplitz_log_det_dense",
    "eval_pi",
    "dpii_residual",
]

# A reflection coefficient this close to the unit circle signals the
# float64 limit of the recursion rather than a meaningful value.
UNIT_CIRCLE_MARGIN = 1e-13


@dataclass(frozen=True)
class OpucData:
    """Reflection coefficients and log-norms up to a cutoff: the
    recursion's output only, not the Fourier table it ran on.

    ``reflection[k]`` is b(k) = -pi_k(0) for 1 <= k <= cutoff, with the
    unused slot 0 set to 0.  ``reflection_dual`` is the second family's
    b~(k) = -rho_k(0); it equals ``reflection`` entrywise for symmetric
    symbols.  ``log_norms[k]`` is log N_k for 0 <= k <= cutoff: from a
    direct inner product in ``levinson``, so the norm recurrence can serve
    as an independent check, and in square tables (``_square_table``) the
    tail sums of b.
    """

    reflection: np.ndarray
    reflection_dual: np.ndarray
    log_norms: np.ndarray
    cutoff: int

    def __post_init__(self) -> None:
        n = self.cutoff + 1
        for name in ("reflection", "reflection_dual", "log_norms"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValidationError(
                    f"{name} must have length cutoff+1 = {n}, got {len(arr)}"
                )


def levinson(coeffs: FourierTable, cutoff: int) -> OpucData:
    """Run the Toeplitz orthogonalization recursion up to ``cutoff``.

    Maintains the coefficient arrays of the monic pair (pi_k, rho_k) and
    advances them by the coupled constant-term updates

        pi_{k+1}(z)  = z pi_k(z)  + pi_{k+1}(0) * rho*_k(z)
        rho_{k+1}(z) = z rho_k(z) + rho_{k+1}(0) * pi*_k(z)

    where * reverses coefficients.  N_k is then recomputed from
    <pi_k, z^k> directly.  For a symmetric symbol rho_k is pi_k, so one
    family runs.  Each family lives in two preallocated buffers, a step
    writing the next degree into the spare one; every coefficient and dot
    product takes the same float operations in the same order as when
    each degree was a new array, so the results are bit for bit those of
    the two-family recursion.  Cost O(cutoff^2).
    """
    if cutoff < 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    if coeffs.half_width < cutoff:
        raise ValidationError(
            f"need Fourier coefficients out to |j| = {cutoff}, table has "
            f"half_width = {coeffs.half_width}"
        )
    J = coeffs.half_width
    phi = np.asarray(coeffs.coeffs, dtype=float)  # phi[j + J] = phi_j
    phi_rev = phi[::-1]  # phi_rev[J + j] = phi_{-j}

    # structural symmetry of the generating symbol, not bit equality of
    # the quadrature output, which roundoff breaks
    symmetric = coeffs.symbol.is_symmetric
    K = cutoff
    b = np.zeros(K + 1)
    b_dual = b if symmetric else np.zeros(K + 1)
    log_norms = np.zeros(K + 1)

    n0 = phi[J]  # N_0 = phi_0
    if not (n0 > 0.0) or not math.isfinite(n0):
        raise BreakdownError(f"N_0 = phi_0 = {n0} must be positive and finite")
    log_norms[0] = math.log(n0)

    # pi_k sits at pi[1 : k + 2] between zeros, so z pi_k is pi[: k + 2]
    # and pi*_k padded with its zero coefficient of z^{k+1} is
    # pi[k + 1 :: -1]
    pi, pi_next = np.zeros(K + 3), np.zeros(K + 3)
    rho, rho_next = (pi, pi_next) if symmetric else (np.zeros(K + 3), np.zeros(K + 3))
    pi[1] = rho[1] = 1.0
    n_cur = n0
    for k in range(K):
        # c_pi = <z pi_k, 1> = sum_a pi[a] * phi_{-(a+1)}, a = 0..k
        b_next = float(np.dot(pi[1 : k + 2], phi_rev[J + 1 : J + k + 2])) / n_cur
        if symmetric:
            bd_next = b_next
        else:
            # sum_a rho[a] * phi_{a+1}
            bd_next = float(np.dot(rho[1 : k + 2], phi[J + 1 : J + k + 2])) / n_cur
        # individual coefficients may leave the unit disc for asymmetric
        # symbols; only the product entering the norm update must stay
        # away from 1
        if 1.0 - b_next * bd_next <= UNIT_CIRCLE_MARGIN:
            raise BreakdownError(
                f"norm update factor 1 - b*b_dual = {1.0 - b_next * bd_next:.3e} "
                f"not positive at k = {k + 1} (b = {b_next:.17g}, "
                f"dual = {bd_next:.17g}); recursion breakdown"
            )
        b[k + 1] = b_next
        b_dual[k + 1] = bd_next

        # pi_{k+1} = z pi_k - b rho*_k, one product and one sum per
        # coefficient; rho likewise with the roles swapped
        step = pi_next[1 : k + 3]
        np.multiply(rho[k + 1 :: -1], -b_next, out=step)
        np.add(step, pi[: k + 2], out=step)
        if symmetric:
            pi, pi_next = pi_next, pi
            rho = pi
        else:
            step = rho_next[1 : k + 3]
            np.multiply(pi[k + 1 :: -1], -bd_next, out=step)
            np.add(step, rho[: k + 2], out=step)
            pi, pi_next, rho, rho_next = pi_next, pi, rho_next, rho

        # N_{k+1} = <pi_{k+1}, z^{k+1}> = sum_a pi[a] * phi_{k+1-a}
        n_cur = float(np.dot(pi[1 : k + 3], phi_rev[J - k - 1 : J + 1]))
        if not (n_cur > 0.0) or not math.isfinite(n_cur):
            raise BreakdownError(
                f"norm N_{k + 1} = {n_cur} not positive; recursion breakdown"
            )
        log_norms[k + 1] = math.log(n_cur)

    return OpucData(reflection=b, reflection_dual=b_dual, log_norms=log_norms, cutoff=K)


# Decimal digits of working precision per unit of t (divided by ln 10).
# The recursion cancels digits against the e^{2t} moment scale, and the
# digits it needs grow linearly in t and not with the cutoff: bisecting dps
# for agreement to 1e-13 with a run 100+ digits higher, at t = 7..120 and
# at cutoffs 150..800 for t = 60, gives 1.725 t + 11 digits.  At 4.0 the
# rule gives 1.737 t + 60, a margin of 49 digits that does not shrink with
# t.  The earlier slope 2.4 ran out at t = 75 (strong Szego sum off by
# 5e-10; past it tables left [0, 1] or broke down), and 3.0 ran out at
# t = 120 (off by 2e-10).
_DPS_SLOPE = 4.0


def _highprec_dps(t: float) -> int:
    return int(_DPS_SLOPE * t / math.log(10.0)) + 60


# beyond roughly 2t + 8 t^{1/3} the square's reflection data is
# numerically zero, so this cutoff covers every product tail the formulas
# need
def _default_cutoff(t: float, ell: int) -> int:
    return int(2.0 * t + 10.0 * t ** (1.0 / 3.0) + 20.0) + max(0, ell)


# largest |sum_k log N_k - t^2| accepted on a square table, on the tail
# sums of b that every square-family row reads.  It grows like t^2 eps:
# 9e-13 at t = 90, at most 1.8e-12 over the catalogue's squares to
# t = 120, 8.6e-13 at t = 2.5 and lmax 1000.  Short of digits it grows
# about 1000-fold per 3 digits lost.
SZEGO_TOL = 1e-10


def _square_table(t: float, reflection: np.ndarray) -> OpucData:
    """The table of exp(t(z + 1/z)) from its reflection coefficients b(k),
    k = 0..cutoff with b(0) = 0, checked against strong Szego.

    The norms obey N_{k+1} = N_k (1 - b(k+1)^2) and tend to 1, so
    log N_k = -sum_{j > k} log1p(-b(j)^2): one reversed cumulative sum of
    terms of one sign, not Levinson's inner products, whose roundoff grows
    with the cutoff.  At the converged cutoff ``_default_cutoff(t, 0)``
    they sum to log Z = t^2; a table off by more than SZEGO_TOL is refused
    with a BreakdownError, because too little working precision shows up
    as wrong digits before it breaks the recursion.  Every square table,
    float64 or fixed-point, is built here.
    """
    tails = np.cumsum(np.log1p(-np.square(reflection[:0:-1])))
    log_norms = np.append(-tails[::-1], 0.0)
    residual = abs(math.fsum(log_norms) - t * t)
    if not residual <= SZEGO_TOL:
        raise BreakdownError(
            f"strong Szego check failed at t = {t}: the log-norms sum "
            f"to t^2 only within {residual:.2e} > {SZEGO_TOL:.0e}; "
            "working precision too low"
        )
    return OpucData(
        reflection=reflection,
        reflection_dual=reflection,
        log_norms=log_norms,
        cutoff=len(reflection) - 1,
    )


def _miller_moments(t: float, count: int, bits: int) -> list[int]:
    """Fixed-point Bessel moment ratios at scale 2^bits.

    Returns [I_j(2t)/I_0(2t) for j < count], each rounded to an integer
    multiple of 2^-bits.  Miller's backward recurrence

        I_{j-1} = I_{j+1} + (j/t) I_j

    is stable for I_j; it starts at an index M where I_M(2t)/I_0(2t) <
    2^-(bits + 32), from the bound I_n(2t) <= t^n/n! e^{t^2/(n+1)} and
    I_0 >= 1.  t enters as the exact ratio of its float value; the start
    carries 32 guard bits past ``bits``.  At t = 0 every ratio past the
    first is 0.
    """
    if t == 0.0:
        return [1 << bits] + [0] * (count - 1)
    target = -(bits + 32) * math.log(2.0)
    m = count
    while m * math.log(t) - math.lgamma(m + 1) + t * t / (m + 1) > target:
        m += 1
    num, den = float(t).as_integer_ratio()
    y_next, y = 0, 1 << (bits + 32)
    ys = [y]
    for j in range(m, 0, -1):
        y_next, y = y, y_next + (j * den * y) // num
        ys.append(y)
    ys.reverse()  # ys[j] is proportional to I_j(2t), j = 0..m
    return [(y << bits) // ys[0] for y in ys[:count]]


def square_opuc_highprec(t: float, cutoff: int, dps: int | None = None) -> OpucData:
    """Extended-precision recursion for the exp(t(z + 1/z)) symbol.

    The float64 path loses the reflection coefficients to cancellation
    once e^{2t} eats the 16-digit budget.  Here every quantity is a Python
    integer in fixed point at scale 2^P, with P = round((dps + 1) log2 10)
    the binary precision of ``dps`` decimal digits (default:
    ``_highprec_dps``).  The moments are the ratios I_j(2t)/I_0(2t) from
    Miller's backward recurrence, and each recursion step is two dot
    products and one vector update on numpy object arrays of those
    integers.  Reflection coefficients are rounded to float64 and make
    the table through ``_square_table``, whose tail sums a cutoff short of
    the converged one (``_default_cutoff(t, 0)``) would truncate: it is
    refused.
    """
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if cutoff < _default_cutoff(t, 0):
        raise ValidationError(
            f"cutoff {cutoff} stops short of the converged cutoff "
            f"{_default_cutoff(t, 0)} at t = {t}"
        )
    if dps is None:
        dps = _highprec_dps(t)
    # mpmath's rule for the bits of dps digits, so the tests' mpmath
    # oracles run at the same precision
    bits = round((dps + 1) * math.log2(10.0))
    one = 1 << bits
    phi = np.array(_miller_moments(t, cutoff + 2, bits), dtype=object)
    b = np.zeros(cutoff + 1)
    pi = np.array([one], dtype=object)
    n_cur = one
    for k in range(cutoff):
        b_next = np.dot(pi, phi[1 : k + 2]) // n_cur
        if abs(b_next) >= one:
            raise BreakdownError(
                f"reflection coefficient at k = {k + 1} reached unit modulus"
            )
        pi_next = np.empty(k + 2, dtype=object)
        pi_next[0] = 0
        pi_next[1:] = pi
        pi_next[:-1] -= (pi[::-1] * b_next) >> bits
        pi = pi_next
        n_cur = np.dot(pi, phi[k + 1 :: -1]) >> bits
        if n_cur <= 0:
            raise BreakdownError(f"norm N_{k + 1} not positive at high precision")
        b[k + 1] = b_next / one
    return _square_table(t, b)


def toeplitz_log_det(data: OpucData, order: int) -> float:
    """log D_order as the sum of the first ``order`` log-norms; D_0 = 1."""
    if order < 0 or order > data.cutoff + 1:
        raise ValidationError(
            f"order must lie in [0, cutoff + 1] = [0, {data.cutoff + 1}], got {order}"
        )
    # np.sum's own pairwise sum, the same bits, without the dispatch that
    # costs it about twice as much again on rows this short
    return float(np.add.reduce(data.log_norms[:order]))


def toeplitz_log_det_dense(coeffs: FourierTable, order: int) -> float:
    """Dense pivoted-LU log-determinant of the Toeplitz matrix (phi_{j-k}).

    Independent oracle for ``toeplitz_log_det``; cost O(order^3), intended
    for desk-scale orders only.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    if order == 0:
        return 0.0
    if coeffs.half_width < order - 1:
        raise ValidationError("Fourier table too narrow for requested order")
    J = coeffs.half_width
    idx = np.arange(order)
    mat = coeffs.coeffs[(idx[:, None] - idx[None, :]) + J]
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise BreakdownError(
            f"Toeplitz determinant of order {order} is not positive (sign {sign})"
        )
    return float(logdet)


_RESCALE_THRESHOLD = 1e120


def eval_pi(data: OpucData, k: int, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pi_j(x), pi*_j(x)) for every j <= k, in one pass of the recursion

        pi_j(x)  = x pi_{j-1}(x) - b(j) pi*_{j-1}(x)
        pi*_j(x) = pi*_{j-1}(x) - b(j) x pi_{j-1}(x)

    of a symmetric symbol at a real point x; pi*_j(z) = z^j pi_j(1/z)
    reverses the coefficient order.  Returns the mantissa arrays of pi_j
    and pi*_j and a nondecreasing log scale, so that pi_j(x) is
    pi[j] * exp(log_scale[j]); the scale keeps large degrees or large |x|
    finite.
    """
    if k < 0 or k > data.cutoff:
        raise ValidationError(f"k must lie in [0, cutoff] = [0, {data.cutoff}], got {k}")
    if not np.array_equal(data.reflection, data.reflection_dual):
        raise ValidationError("eval_pi needs the recursion of a symmetric symbol")
    b = data.reflection
    pi = np.ones(k + 1)
    pi_star = np.ones(k + 1)
    log_scale = np.zeros(k + 1)
    p, ps, scale = 1.0, 1.0, 0.0
    for j in range(1, k + 1):
        bj = float(b[j])
        p, ps = x * p - bj * ps, ps - bj * x * p
        m = max(abs(p), abs(ps))
        if m > _RESCALE_THRESHOLD:
            p, ps, scale = p / m, ps / m, scale + math.log(m)
        pi[j], pi_star[j], log_scale[j] = p, ps, scale
    return pi, pi_star, log_scale


def dpii_residual(data: OpucData, t: float, k: int) -> float:
    """Residual of the discrete Painleve II relation at index k.

    (k/t) b(k) + (b(k-1) + b(k+1)) (1 - b(k)^2), which vanishes for the
    reflection sequence of the exp(t(z + 1/z)) symbol.
    """
    if t <= 0.0:
        raise ValidationError(f"t must be > 0 for the recursion, got {t}")
    if k < 2 or k > data.cutoff - 1:
        raise ValidationError(
            f"k must lie in [2, cutoff - 1] = [2, {data.cutoff - 1}], got {k}"
        )
    b = data.reflection
    bk = float(b[k])
    return (k / t) * bk + (float(b[k - 1]) + float(b[k + 1])) * (1.0 - bk * bk)
