"""Oracles for the circle recursion, used by the tests only.

``square_opuc_mpf`` is the Toeplitz recursion for the Poisson-square
symbol on the moments I_j(2t) from ``mpmath.besseli``, one scalar mpf at a
time.  It costs O(cutoff^2 * dps) interpreted bignum operations, so the
package runs the same recursion in fixed-point integers on Miller moments
instead, and the tests compare the two.  ``eval_pi_dense`` builds one
orthogonal polynomial by a dense linear solve instead of the recursion,
and ``levinson_two_family`` is the float64 recursion as it ran with both
families for every symbol.
``prob_square_product`` reads the square law off the complementary product
of norms, ``square_law_bessel`` off the discrete Bessel determinant, which
takes no recursion, ``triangle_law_mpf`` the triangle law off a dense
orthogonal-group determinant and ``external_law_dense`` the
external-source law off dense Toeplitz minors.
``toeplitz_log_norms_fixed`` runs the
asymmetric recursion for any ``SymbolSpec`` in fixed-point integers, on a
table convolved from the symbol's one-sided power series instead of the
float64 quadrature table, and ``group_means_mpf`` the orthogonal-group
means on the same series.  ``square_levinson`` is the float64 recursion on the
square symbol's Fourier table with its inner-product norms, as
``square_opuc`` ran before it took the norms as tail sums of the
reflection coefficients.  ``y_corner`` and ``recurrence_checks`` restate
the stored norms and reflection coefficients through the corner relation
and the norm update, to check a table against itself.
``hastings_mcleod_mpf`` integrates Painleve II by 40-digit Taylor series
from Airy data at x = 12, a reference for the float64 table.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from lppdet.errors import BreakdownError, ValidationError
from lppdet.opuc import OpucData, levinson
from lppdet.symbols import FourierTable, SymbolSpec, fourier_coeffs


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


def square_levinson(t: float, cutoff: int) -> OpucData:
    """Float64 ``levinson`` on the exp(t(z + 1/z)) table up to ``cutoff``,
    any cutoff, with the norms it takes by direct inner products."""
    spec = SymbolSpec(exp_plus_t=t, exp_minus_t=t)
    return levinson(fourier_coeffs(spec, half_width=cutoff + 2), cutoff)


def levinson_two_family(coeffs: FourierTable, cutoff: int) -> OpucData:
    """``opuc.levinson`` as it ran before it kept one family for symmetric
    symbols: both families of every symbol, each step building new arrays
    by concatenation.  The package's recursion must match it bit for bit.
    """
    J = coeffs.half_width
    phi = np.asarray(coeffs.coeffs, dtype=float)
    symmetric = coeffs.symbol.is_symmetric
    b = np.zeros(cutoff + 1)
    b_dual = np.zeros(cutoff + 1)
    log_norms = np.zeros(cutoff + 1)
    log_norms[0] = math.log(phi[J])
    pi = np.array([1.0])
    rho = np.array([1.0])
    n_cur = phi[J]
    for k in range(cutoff):
        b_next = float(np.dot(pi, phi[J - (k + 1) : J][::-1])) / n_cur
        if symmetric:
            bd_next = b_next
        else:
            bd_next = float(np.dot(rho, phi[J + 1 : J + k + 2])) / n_cur
        b[k + 1] = b_next
        b_dual[k + 1] = bd_next
        pi_next = np.concatenate([[0.0], pi]) + (-b_next) * np.concatenate(
            [rho[::-1], [0.0]]
        )
        rho_next = np.concatenate([[0.0], rho]) + (-bd_next) * np.concatenate(
            [pi[::-1], [0.0]]
        )
        pi, rho = pi_next, rho_next
        n_cur = float(np.dot(pi, phi[J : J + k + 2][::-1]))
        log_norms[k + 1] = math.log(n_cur)
    return OpucData(
        reflection=b,
        reflection_dual=b if symmetric else b_dual,
        log_norms=log_norms,
        cutoff=cutoff,
    )


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


def square_law_bessel(t: float, ells, dps: int = 40) -> dict[int, float]:
    """P(L <= ell) of the square for each ell of ``ells``, as the Fredholm
    determinant det(I - K) on l^2({ell, ell + 1, ...}) of the discrete
    Bessel kernel K(x, y) = sum_{s >= 1} J_{x+s} J_{y+s} = t (J_x J_{y+1} -
    J_{x+1} J_y) / (x - y), J_m = J_m(2t) (Borodin, Okounkov and
    Olshanski; Johansson).

    The space is cut at m = 2t + 10 t^(1/3) + 5, past which J_m^2 < 1e-20
    for t >= 1.  The entries come from ``mpmath.besselj`` at ``dps``
    digits and are eliminated in fixed point at that precision, without
    pivoting, since I - K is positive definite.
    """
    bits = round((dps + 1) * math.log2(10.0))
    top = int(2.0 * t + 10.0 * t ** (1.0 / 3.0) + 5.0)
    out = {}
    with mp.workdps(dps + 10):
        two_t = 2 * mp.mpf(t)
        j = [mp.besselj(m, two_t) for m in range(top + 2)]
        tail = [mp.mpf(0)] * (top + 1)  # tail[m] = sum_{k > m} J_k^2
        for m in range(top - 1, -1, -1):
            tail[m] = tail[m + 1] + j[m + 1] ** 2
        for ell in ells:
            n = top - ell
            a = np.empty((n, n), dtype=object)
            for r in range(n):
                for c in range(n):
                    x, y = ell + r, ell + c
                    if x == y:
                        entry = 1 - tail[x]
                    else:
                        entry = -(t * (j[x] * j[y + 1] - j[x + 1] * j[y]) / (x - y))
                    a[r, c] = int(mp.nint(mp.ldexp(entry, bits)))
            det = mp.mpf(1)
            for k in range(n):
                det *= mp.ldexp(a[k, k], -bits)
                a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :]) // a[k, k]
            out[ell] = float(det)
    return out


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


def external_law_dense(t: float, a_plus: float, a_minus: float, lmax: int,
                       dps: int = 30) -> list[float]:
    """[D'_{ell+1} - a+ a- D'_ell] e^{-log Z} for ell = 0..lmax, from dense
    ``dps``-digit minors D' of (1 + a+ z)(1 + a-/z) e^{t(z + 1/z)}, with
    log Z = t^2 + (a+ + a-) t."""
    with mp.workdps(dps):
        t_, ap, am = mp.mpf(t), mp.mpf(a_plus), mp.mpf(a_minus)
        bessel = [mp.besseli(n, 2 * t_) for n in range(lmax + 2)]

        def phi(m):
            return (1 + ap * am) * bessel[abs(m)] + ap * bessel[abs(m - 1)] + am * bessel[abs(m + 1)]

        minors = [mp.mpf(0), mp.mpf(1)] + [
            mp.det(mp.matrix([[phi(j - k) for k in range(n)] for j in range(n)]))
            for n in range(1, lmax + 1)
        ]
        z = mp.exp(t_ * t_ + (ap + am) * t_)
        return [float((minors[n + 1] - ap * am * minors[n]) / z) for n in range(lmax + 1)]


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
# ``group_means_mpf`` reads the series at this scale (plus the guard bits)
# and takes its determinants at this many digits
_MEAN_BITS = 192
_MEAN_DPS = 50


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


def group_means_mpf(psi: SymbolSpec, lmax: int) -> list[float]:
    """[E_{O(ell)} det psi(U) for ell = 0..lmax] for a one-sided psi =
    e^{tz} prod(1 + az) / prod(1 - cz), with no float64 step before the
    results.

    The coefficients g_n = sum_k u_k u_{k+n} of psi(z) psi(1/z) come from
    ``_one_sided_series`` at ``_MEAN_BITS`` plus the guard bits, and
    psi(+-1) = sum_k (+-1)^k u_k.  Each mean averages the two components
    of O(ell), Toeplitz +- Hankel determinants in g (Baik and Rains), whose
    leading minors are the running products of the pivots of one Gaussian
    elimination per family, without pivoting, at ``_MEAN_DPS`` digits;
    the matrices are positive definite, so no pivot vanishes.  Nothing is
    shared with ``exact_dist.ogroup_law``, which factors the float64
    matrices by Cholesky.
    """
    if psi.exp_minus_t or psi.zeros_minus or psi.poles_minus:
        raise ValidationError("group means here take a one-sided psi")
    scale = _MEAN_BITS + _GUARD_BITS
    u = _one_sided_series(psi.exp_plus_t, psi.zeros_plus, psi.poles_plus, scale)
    u += [0] * (lmax + 3)
    size = lmax // 2
    with mp.workdps(_MEAN_DPS):
        g = [mp.ldexp(sum(x * y for x, y in zip(u, u[n:])), -2 * scale) for n in range(lmax + 3)]
        psi_plus = mp.ldexp(sum(u), -scale)
        psi_minus = mp.ldexp(sum(x if k % 2 == 0 else -x for k, x in enumerate(u)), -scale)

        def minors(sign, shift):
            """[det of the leading m x m block, m = 0..size]"""
            a = [[g[abs(j - k)] + sign * g[j + k + shift] for k in range(size)]
                 for j in range(size)]
            dets = [mp.mpf(1)]
            for p in range(size):
                dets.append(dets[-1] * a[p][p])
                for j in range(p + 1, size):
                    ratio = a[j][p] / a[p][p]
                    for k in range(p + 1, size):
                        a[j][k] -= ratio * a[p][k]
            return dets

        plus_even, minus_even = minors(1, 0), minors(-1, 2)
        plus_odd, minus_odd = minors(-1, 1), minors(1, 1)
        means = [mp.mpf(1)]
        for ell in range(1, lmax + 1):
            m = ell // 2
            if ell % 2 == 0:
                mean = plus_even[m] / 2 + psi_plus * psi_minus * minus_even[m - 1]
            else:
                mean = psi_plus * plus_odd[m] + psi_minus * minus_odd[m]
            means.append(mean / 2)
        return [float(x) for x in means]


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
    # log1p of one correctly rounded int/int division, so nothing cancels
    # where N_k ~ 1
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


@dataclass(frozen=True)
class YCorner:
    """Corner data (a, b, d) of the normalized 2x2 array at z = 0.

    a = -1/N_{k-1}, b = reflection(k), and d completes the unimodular
    relation a*d + b^2 = 1.
    """

    a: float
    b: float
    d: float
    k: int


def y_corner(data: OpucData, k: int) -> YCorner:
    if k < 1 or k > data.cutoff:
        raise ValidationError(f"k must lie in [1, cutoff] = [1, {data.cutoff}], got {k}")
    a = -math.exp(-float(data.log_norms[k - 1]))
    b = float(data.reflection[k])
    d = (1.0 - b * b) / a
    return YCorner(a=a, b=b, d=d, k=k)


@dataclass(frozen=True)
class RecurrenceReport:
    max_dev_a: float
    max_dev_d: float
    cutoff: int


def recurrence_checks(data: OpucData) -> RecurrenceReport:
    """Consistency of the stored norms with the reflection product update.

    Checks, for a(k) = -1/N_{k-1} and d(k) = -N_k,

        a(k) = (1 - b(k) b~(k)) a(k+1)
        d(k) = (1 - b(k) b~(k)) d(k-1)

    both restatements of N_k = (1 - b(k) b~(k)) N_{k-1}.  The deviations
    measure real numerical consistency only for norms computed by direct
    inner products (``levinson``'s, ``square_levinson``'s or
    ``square_opuc_mpf``'s).  ``square_opuc`` stores the tail sums of its
    reflection coefficients, which satisfy the update by construction, so
    on its tables the check is bookkeeping.  Returns the maxima of the
    relative deviations.
    """
    K = data.cutoff
    if K < 1:
        raise ValidationError("need cutoff >= 1 for recurrence checks")
    b = data.reflection
    bd = data.reflection_dual
    n = np.exp(data.log_norms)
    a = -1.0 / n[:-1]  # a[k-1] stores a(k) = -1/N_{k-1}, k = 1..K
    factors = 1.0 - b[1:] * bd[1:]  # factor at k = 1..K

    # a(k) = factor(k) * a(k+1) for k = 1..K-1
    dev_a = np.abs(a[:-1] - factors[:-1] * a[1:]) / np.abs(a[:-1])
    # d(k) = factor(k) * d(k-1) for k = 1..K with d(0) = -N_0
    d_full = -n  # d_full[k] = -N_k, k = 0..K
    dev_d = np.abs(d_full[1:] - factors * d_full[:-1]) / np.abs(d_full[1:])
    return RecurrenceReport(
        max_dev_a=float(np.max(dev_a)) if len(dev_a) else 0.0,
        max_dev_d=float(np.max(dev_d)),
        cutoff=K,
    )


# ``hastings_mcleod_mpf`` works at this many digits and starts from Airy
# data at this x, in steps of at most this length.  At x = 12 the Airy data
# is about 1e-24 from the solution, and the solution's instability grows
# that like exp(0.94 |x|^{3/2}), to about 1e-15 at x = -8.
_PII_DPS = 40
_PII_START = 12.0
_PII_STEP = 0.25


def hastings_mcleod_mpf(xs) -> dict[float, tuple[float, float]]:
    """(u(x), W(x)) of the Hastings-McLeod solution at each x of ``xs``.

    Taylor series in mpmath at ``_PII_DPS`` digits for u'' = 2u^3 + xu,
    v' = u^2 and W' = -v, stepping left from Airy data at ``_PII_START``:
    u = -Ai, u' = -Ai', v = -(Ai'^2 - x Ai^2) and W = -int_x^inf (y - x)
    Ai^2.  Every step ends on the next requested x, so no value is
    interpolated.
    """
    out = {}
    with mp.workdps(_PII_DPS):
        x0 = mp.mpf(_PII_START)
        ai, aip = mp.airyai(x0), mp.airyai(x0, derivative=1)
        state = [-ai, -aip, -(aip * aip - x0 * ai * ai),
                 -(2 * (x0 * x0 * ai * ai - x0 * aip * aip) - ai * aip) / 3]
        tiny = mp.mpf(10) ** (-_PII_DPS - 5)
        for target in sorted(set(xs), reverse=True):
            if target > _PII_START:
                raise ValidationError(f"x = {target} lies right of the Airy data at {_PII_START}")
            while x0 > target:
                h = max(mp.mpf(target) - x0, -mp.mpf(_PII_STEP))
                u0, du0, v0, w0 = state
                a, v, w = [u0, du0], [v0], [w0]
                sq = []
                cube = []
                m = 0
                while True:
                    sq.append(mp.fdot(a[: m + 1], a[m::-1]))
                    cube.append(mp.fdot(sq, a[m::-1]))
                    v.append(sq[m] / (m + 1))
                    w.append(-v[m] / (m + 1))
                    a.append((2 * cube[m] + x0 * a[m] + (a[m - 1] if m else 0))
                             / ((m + 1) * (m + 2)))
                    m += 1
                    hm = abs(h) ** m
                    if all(abs(c[m]) * hm <= tiny * abs(c[0]) for c in (a, v, w)):
                        break
                state = [
                    mp.polyval(a[::-1], h),
                    mp.polyval([k * c for k, c in enumerate(a)][:0:-1], h),
                    mp.polyval(v[::-1], h),
                    mp.polyval(w[::-1], h),
                ]
                x0 += h
            out[target] = (float(state[0]), float(state[3]))
    return out
