"""Oracles for the circle recursion, used by the tests only.

``square_opuc_mpf`` is the Toeplitz recursion for the Poisson-square
symbol on the moments I_j(2t) from ``mpmath.besseli``, one scalar mpf at a
time.  It costs O(cutoff^2 * dps) interpreted bignum operations, so the
package runs the same recursion in fixed-point integers on Miller moments
instead, and the tests compare the two.  ``eval_pi_dense`` builds one
orthogonal polynomial by a dense linear solve instead of the recursion.
``prob_square_product`` reads the square law off the complementary product
of norms, and ``triangle_law_mpf`` the triangle law off a dense
orthogonal-group determinant.  ``toeplitz_log_norms_fixed`` runs the
asymmetric recursion for any ``SymbolSpec`` in fixed-point integers, on a
table convolved from the symbol's one-sided power series instead of the
float64 quadrature table.
"""

import math

import mpmath as mp
import numpy as np

from lppdet.errors import BreakdownError, ValidationError
from lppdet.opuc import OpucData
from lppdet.symbols import FourierTable, SymbolSpec


def square_opuc_mpf(t: float, cutoff: int, dps: int) -> tuple[np.ndarray, np.ndarray]:
    """(reflection, log_norms) up to ``cutoff`` at ``dps`` decimal digits."""
    with mp.workdps(dps):
        two_t = mp.mpf(t) * 2
        phi = [mp.besseli(j, two_t) for j in range(cutoff + 2)]
        b = np.zeros(cutoff + 1)
        log_norms = np.zeros(cutoff + 1)
        log_norms[0] = float(mp.log(phi[0]))
        pi = [mp.mpf(1)]
        n_cur = phi[0]
        for k in range(cutoff):
            c = mp.fsum(pi[a] * phi[a + 1] for a in range(k + 1))
            b_next = c / n_cur
            if abs(b_next) >= 1:
                raise BreakdownError(
                    f"reflection coefficient at k = {k + 1} reached unit modulus"
                )
            pi = [
                (pi[a - 1] if a >= 1 else mp.mpf(0)) - b_next * (pi[k - a] if a <= k else mp.mpf(0))
                for a in range(k + 2)
            ]
            n_cur = mp.fsum(pi[a] * phi[k + 1 - a] for a in range(k + 2))
            if n_cur <= 0:
                raise BreakdownError(f"norm N_{k + 1} not positive at high precision")
            b[k + 1] = float(b_next)
            log_norms[k + 1] = float(mp.log(n_cur))
    return b, log_norms


def _geometric_remainder(terms: np.ndarray) -> float:
    """Bound sum of the continuation of a decaying positive sequence.

    Computed terms decay until they sit on the roundoff plateau of the
    recursion's dot products, where monotonicity is lost.  Every adjacent
    decreasing pair yields a candidate bound: later terms at face value
    plus a geometric continuation at that pair's ratio.  The smallest
    candidate wins; one extra step at the final term covers the
    continuation past arrays that end on the plateau.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.size == 0 or float(terms.max()) == 0.0:
        return 0.0
    if terms.size == 1:
        return float(terms[0])
    suffix = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
    best = math.inf
    for i in range(1, terms.size):
        prev, cur = float(terms[i - 1]), float(terms[i])
        if prev <= 0.0 or cur >= prev:
            continue
        r = cur / prev
        best = min(best, float(suffix[i + 1]) + cur * r / (1.0 - r))
    if not math.isfinite(best):
        # no decreasing pair: either the whole window sits on the flat
        # roundoff plateau (bounded wobble, charge at face value) or the
        # recursion is genuinely diverging
        if float(terms[-1]) <= 8.0 * float(terms[0]):
            return float(terms.sum()) + float(terms[-1])
        raise BreakdownError(
            "trailing terms are not decaying; increase the recursion cutoff"
        )
    return best + float(terms[-1])


def prob_square_product(t: float, ell: int, opuc: OpucData) -> tuple[float, float]:
    """P(L <= ell) of the square through the complementary product over
    norms >= ell.

    Returns (probability, error bound).  The representation
    exp(-sum_{k>=ell} log N_k) uses that the log-norms sum to t^2 (strong
    Szego); the bound is the geometric remainder of the unsummed terms
    plus p times the table's own residual |sum_k log N_k - t^2|, which
    float64 roundoff in the norms leaves at about 6e-11 by t = 3.
    """
    logs = opuc.log_norms[ell:]
    tail = _geometric_remainder(np.abs(logs))
    p = math.exp(-float(np.sum(logs)))
    szego = abs(float(np.sum(opuc.log_norms)) - t * t)
    return p, tail + p * szego


def eval_pi_dense(coeffs: FourierTable, k: int, z) -> tuple[complex, complex]:
    """Oracle: build pi_k by solving the moment linear system, then Horner.

    Solves sum_a c_a phi_{j-a} = 0 for j = 0..k-1 with c_k = 1.  Cost
    O(k^3); desk scale only.
    """
    J = coeffs.half_width
    if J < k:
        raise ValidationError("Fourier table too narrow for requested degree")
    c = np.zeros(k + 1)
    c[k] = 1.0
    if k > 0:
        rows = np.arange(k)
        a = np.arange(k)
        mat = coeffs.coeffs[(rows[:, None] - a[None, :]) + J]
        rhs = -coeffs.coeffs[(rows - k) + J]
        c[:k] = np.linalg.solve(mat, rhs)
    zc = complex(z)
    pi_val = 0.0 + 0.0j
    for a in range(k, -1, -1):
        pi_val = pi_val * zc + c[a]
    star_val = 0.0 + 0.0j
    for a in range(k + 1):
        star_val = star_val * zc + c[a]
    return pi_val, star_val


def triangle_law_mpf(t: float, alpha: float, ell: int, dps: int = 120) -> float:
    """P(L <= ell) of the triangle at an odd ell = 2m + 1, as the
    orthogonal-group average of psi(z) = e^{tz} (1 + alpha z) in dense
    mpmath: with g_n = (1 + alpha^2) I_n(2t) + alpha (I_{n-1} + I_{n+1})
    the coefficients of psi(z) psi(1/z),

        (1/2) [psi(1) det(g_{j-k} - g_{j+k+1}) + psi(-1) det(g_{j-k} + g_{j+k+1})]

    over m x m matrices, times e^{-t^2/2 - alpha t}.  No recursion and no
    float64 data enter.
    """
    m = (ell - 1) // 2
    with mp.workdps(dps):
        t_, a = mp.mpf(t), mp.mpf(alpha)
        bessel = [mp.besseli(n, 2 * t_) for n in range(2 * m + 3)]

        def g(n):
            n = abs(n)
            return (1 + a * a) * bessel[n] + a * (bessel[abs(n - 1)] + bessel[n + 1])

        def det(sign):
            return mp.det(mp.matrix(
                [[g(j - k) + sign * g(j + k + 1) for k in range(m)] for j in range(m)]
            )) if m else mp.mpf(1)

        psi_plus, psi_minus = mp.exp(t_) * (1 + a), mp.exp(-t_) * (1 - a)
        mean = (psi_plus * det(-1) + psi_minus * det(1)) / 2
        return float(mean * mp.exp(-t_ * t_ / 2 - a * t_))


_GUARD_BITS = 64


def _one_sided_series(
    t: float, zeros: tuple[float, ...], poles: tuple[float, ...], bits: int
) -> list[int]:
    """Power-series coefficients u_n of e^{tw} prod(1 + a w) / prod(1 - c w)
    at scale 2^bits, up to the first n where the tail is below 2^-bits.

    Every parameter enters as the exact ratio of its float value, and each
    step rounds once.  The cutoff comes from Cauchy's bound on the circle
    |w| = R inside the radius of convergence: |u_n| <= M(R) R^-n.
    """
    top = max(poles, default=0.0)
    radius = 2.0 if top <= 1.0 / 3.0 else 0.5 * (1.0 + 1.0 / top)
    log_m = t * radius + sum(math.log1p(a * radius) for a in zeros)
    log_m -= sum(math.log1p(-c * radius) for c in poles)
    tail = log_m + bits * math.log(2.0) - math.log1p(-1.0 / radius)
    count = max(1, math.ceil(tail / math.log(radius)))
    num, den = float(t).as_integer_ratio()
    u = [1 << bits]
    for n in range(1, count):
        u.append(u[-1] * num // (den * n))
    for a in zeros:
        num, den = float(a).as_integer_ratio()
        u = [u[0]] + [x + y * num // den for x, y in zip(u[1:], u)]
    for c in poles:
        num, den = float(c).as_integer_ratio()
        for n in range(1, count):
            u[n] += u[n - 1] * num // den
    return u


def toeplitz_log_norms_fixed(spec: SymbolSpec, cutoff: int, bits: int = 192) -> np.ndarray:
    """log N_k, k = 0..cutoff, of the symbol's Toeplitz recursion with no
    float64 step before the logarithms.

    The symbol is phi_+(z) phi_-(1/z), each side a power series from
    ``_one_sided_series`` at ``bits`` plus 64 guard bits, so its Laurent
    coefficients are the convolutions phi_k = sum_n u_{n+k} v_n and
    phi_{-k} = sum_n u_n v_{n+k}.  The recursion is ``levinson``'s pair
    (pi_k, rho_k) in integers at scale 2^bits, each product rounded once.
    """
    scale = bits + _GUARD_BITS
    u = _one_sided_series(spec.exp_plus_t, spec.zeros_plus, spec.poles_plus, scale)
    v = _one_sided_series(spec.exp_minus_t, spec.zeros_minus, spec.poles_minus, scale)
    size = max(len(u), len(v)) + cutoff + 2
    u = np.array(u + [0] * (size - len(u)), dtype=object)
    v = np.array(v + [0] * (size - len(v)), dtype=object)
    shift = 2 * scale - bits  # from scale 2^(2 scale) down to 2^bits

    def coeff(k: int) -> int:
        a, b = (u, v) if k >= 0 else (v, u)
        k = abs(k)
        return int(np.dot(a[k:], b[: size - k])) >> shift

    up = np.array([coeff(k) for k in range(cutoff + 2)], dtype=object)
    down = np.array([coeff(-k) for k in range(cutoff + 2)], dtype=object)
    one = 1 << bits
    pi = rho = np.array([one], dtype=object)
    n_cur = up[0]
    # log1p of one correctly rounded int/int division, as in
    # ``square_opuc_highprec``, so nothing cancels where N_k ~ 1
    log_norms = [math.log1p((n_cur - one) / one)]
    for k in range(cutoff):
        b = np.dot(pi, down[1 : k + 2]) // n_cur
        b_dual = np.dot(rho, up[1 : k + 2]) // n_cur
        pi_next = np.concatenate([[0], pi]).astype(object)
        rho_next = np.concatenate([[0], rho]).astype(object)
        pi_next[:-1] -= (rho[::-1] * b) >> bits
        rho_next[:-1] -= (pi[::-1] * b_dual) >> bits
        pi, rho = pi_next, rho_next
        n_cur = np.dot(pi, up[k + 1 :: -1]) >> bits
        if n_cur <= 0:
            raise BreakdownError(f"norm N_{k + 1} not positive in fixed point")
        log_norms.append(math.log1p((n_cur - one) / one))
    return np.array(log_norms)
