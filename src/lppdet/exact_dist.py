"""Exact distribution laws assembled from circle-recursion data.

Every model's cumulative law is a ratio of Toeplitz-type determinants of
its symbol.  ``EXACT_ROUTES`` holds one route per model kind, which
builds the law's data once for a whole table and returns every row with
its error bound; ``certified_law`` checks each bound against the kind's
``ROW_TOL`` and the rows against [0, 1] and monotonicity.  There are no
per-kind point queries: ``build_dist_table`` and ``verify mc-cross`` take
every probability through these two.

The square, lattice and lines laws are plain determinants,
p(ell) = D_ell / Z.  The square's recursion (``square_opuc``) switches to
extended precision at t > 2.5, and its rows are read off the reflection
coefficients alone (``_square_log_cdf``).  The triangle and
external-source laws read the same coefficients, their boundary rates
entering through one pass of polynomial values at -alpha, -a+ and -a-.
The triangle law at odd thresholds couples those values with two
infinite products over odd-index norms, taken as suffix sums to the end
of the table.  The external-source law is the Christoffel-Darboux kernel
K_n(-a+, -a-) = sum_{k <= n} pi_k(-a+) pi_k(-a-) / N_k times the
square's determinants, entire in both rates.  The polynomial values
multiply the error of b(k) by up to max(a+, a-)^k, so this law reads the
fixed-point table at every t; its rows carry a float64 roundoff estimate
from the size of the terms that cancel.  Every square-family table, on
either route, passes the strong Szego check of ``opuc._square_table``.
The triangle-FS and symmetrized lattice laws are orthogonal-group
averages (``ogroup_law``), evaluated as Toeplitz +- Hankel determinants
of psi(z) psi(1/z).  These are leading minors of four positive definite
Gram matrices, so one batched Cholesky factorization gives every row of
a table and the data of its first-order float64 bound; the triangle-FS
law is an independent route to the triangle law.  Lattice and lines rows
carry a measured float64 error too: the spread against a twin recursion
on a second quadrature grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BreakdownError,
    ConditioningError,
    ValidationError,
)
from .symbols import (
    ModelKind,
    ModelSpec,
    SymbolSpec,
    build_symbol,
    evaluate_symbol,
    fourier_coeffs,
    normalization_log_z,
)
from .opuc import (
    OpucData,
    _default_cutoff,
    _square_table,
    levinson,
    square_opuc_highprec,
    toeplitz_log_det,
    eval_pi,
)

__all__ = [
    "DistTable",
    "square_opuc",
    "triangle_rows",
    "external_rows",
    "OGROUP_ROUTE",
    "OGROUP_TOL",
    "ogroup_law",
    "certified",
    "ROW_TOL",
    "check_cdf",
    "certified_law",
    "scaled_cdf",
    "EXACT_ROUTES",
    "exact_law",
    "build_dist_table",
]

_HIGHPREC_T = 2.5


def square_opuc(t: float, ell: int = 0) -> OpucData:
    """Circle-recursion data of the exponential symbol exp(t(z + 1/z)).

    The cutoff ``_default_cutoff(t, ell)`` covers thresholds up to ``ell``
    and every product tail the formulas need.  Runs float64 Levinson on
    the symbol's Fourier table up to t = 2.5.  Past it e^{2t} eats the
    double-precision headroom, and the recursion runs in fixed-point
    integers on Miller moments (``square_opuc_highprec``).  The float64
    square is 2.6e-13 off exact at t = 2.5, 1.5e-11 at t = 3 and 1.3e-6 at
    t = 6, while the fixed-point data stays within 1.3e-14 at every t.  On
    both routes the table is made from the reflection coefficients by
    ``_square_table``, which refuses it with a BreakdownError unless its
    log-norms, the tail sums of b, pass the strong Szego check.
    """
    cutoff = _default_cutoff(t, ell)
    if t > _HIGHPREC_T:
        return square_opuc_highprec(t, cutoff)
    spec = SymbolSpec(exp_plus_t=t, exp_minus_t=t)
    data = levinson(fourier_coeffs(spec, half_width=cutoff + 2), cutoff)
    return _square_table(t, data.reflection)


def _square_log_cdf(opuc: OpucData) -> np.ndarray:
    """log P(L <= ell) of the square for ell = 0..cutoff, from the table's
    log-norms, the tail sums of its reflection coefficients r_j.

    The square's norms tend to 1, so P(L <= ell) = prod_{k >= ell} 1 / N_k
    = prod_{j > ell} (1 - r_j^2)^(j - ell).  Its log, -sum_{k >= ell}
    log N_k, is a second reversed cumulative sum of terms of one sign, so
    nothing cancels, and no row carries the roundoff of log Z = t^2.  A row
    reads r up to the cutoff, so the table must reach the converged cutoff
    ``_default_cutoff(t, 0)``.
    """
    return np.append(np.cumsum(-opuc.log_norms[-2::-1])[::-1], 0.0)


def triangle_rows(
    t: float, alpha: float, jmax: int, opuc: OpucData
) -> list[tuple[float, float]]:
    """[(P(L <= 2j + 1), relative truncation bound)] for j = 0..jmax.

    Row j combines the degree-2j polynomial pair at -alpha with the two
    half-index norm products

        H+-(j) = prod_{k >= j} (1 +- b(2k+1)) / N_{2k+1},

    taken as suffix sums of their logarithms up to the last odd index c of
    the table.  Factor c is left out: it differs from 1 by at most
    |log N_c| + |b(c)| to second order, and twice that bounds every
    dropped factor, those past the table included.  Every row shares that
    bound.  One pass of ``eval_pi`` serves every row, so a table costs
    O(cutoff).
    """
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    if jmax < 0:
        return []
    top = (opuc.cutoff - 1) // 2
    if top - jmax < 4:
        raise ValidationError(
            f"cutoff {opuc.cutoff} too small for ell = {jmax}; need at "
            f"least {2 * jmax + 9}"
        )
    last = 2 * top + 1
    bound = 2.0 * (abs(float(opuc.log_norms[last])) + abs(float(opuc.reflection[last])))
    odd = np.arange(1, 2 * top, 2)
    b, log_n = opuc.reflection[odd], opuc.log_norms[odd]
    log_h_plus = np.cumsum((np.log1p(b) - log_n)[::-1])[::-1][: jmax + 1]
    log_h_minus = np.cumsum((np.log1p(-b) - log_n)[::-1])[::-1][: jmax + 1]
    pi, pi_star, log_scale = (v[::2] for v in eval_pi(opuc, 2 * jmax, -alpha))
    front = log_scale - alpha * t
    values = 0.5 * (
        (pi_star + alpha * pi) * np.exp(front + log_h_plus)
        + (pi_star - alpha * pi) * np.exp(front + log_h_minus)
    )
    return [(float(v), bound) for v in values]


# Multiple of eps (ell + 1) times the magnitude of the terms that an
# external-source row's roundoff estimate charges.  Against 40-digit dense
# minors at 400 random points with t <= 2, rates <= 2 and ell <= 6, on
# fixed-point recursion data, the largest ratio of actual error to
# eps (ell + 1) magnitude was 8.4.  The rounding of log Z itself is left
# out; it reached 37 eps relative at p(0) for t = 5 and rates near 2 and 4.
_EXTERNAL_ROUNDOFF = 32.0


def external_rows(
    a_plus: float, a_minus: float, log_z: float, lmax: int, opuc: OpucData
) -> list[tuple[float, float]]:
    """[(P(L <= ell), roundoff estimate)] for ell = 0..lmax with boundary
    sources of rates a_plus and a_minus, on the square's recursion.

    The law is [D'_ell - a+ a- D'_{ell-1}] / Z, with D' the minors of
    (1 + a+ z)(1 + a-/z) e^{t(z + 1/z)}.  By the Christoffel-Darboux
    formula D'_n = D_{n+1} K_n, where

        K_n = sum_{k <= n} pi_k(-a+) pi_k(-a-) / N_k,

    so p(ell) = e^{log D_ell - log Z} [N_ell K_ell - a+ a- K_{ell-1}] is
    entire in both rates and p(0) = e^{-log Z}.  K runs as a mantissa over
    the largest log scale of its terms so far.  Both terms grow like
    (a+ a-)^ell once a+ a- > 1 and cancel, so each row carries the
    estimate 32 eps (ell + 1) e^{log D_ell - log Z} (N_ell |K|_ell +
    a+ a- |K|_{ell-1}), with |K| the sum of the kernel's terms in absolute
    value.  It is an estimate, not a proof: it covers the rounding of the
    kernel and its cancellation, not the error of the recursion data.
    """
    pi_p, _, scale_p = eval_pi(opuc, lmax, -a_plus)
    pi_m, _, scale_m = eval_pi(opuc, lmax, -a_minus)
    log_n = opuc.log_norms
    rate = a_plus * a_minus
    eps = np.finfo(float).eps
    rows = []
    log_d = 0.0  # log D_ell
    # K_{ell-1} = kernel * e^{log_k} and |K|_{ell-1} = kernel_abs * e^{log_k}
    kernel, kernel_abs, log_k = 0.0, 0.0, -math.inf
    for ell in range(lmax + 1):
        prev, prev_abs, log_prev = kernel, kernel_abs, log_k
        log_term = scale_p[ell] + scale_m[ell] - log_n[ell]
        log_k = max(log_prev, log_term)
        shrink = math.exp(log_prev - log_k)
        term = pi_p[ell] * pi_m[ell] * math.exp(log_term - log_k)
        kernel, kernel_abs = prev * shrink + term, prev_abs * shrink + abs(term)
        # N_ell D_ell K_ell - a+ a- D_ell K_{ell-1}, rebased onto the first
        # term's scale before subtracting
        log_new = log_d + log_n[ell] + log_k
        back = math.exp(log_d + log_prev - log_new)
        combined = kernel - rate * prev * back
        front = math.exp(log_new - log_z)
        # an exact zero, or rounding residue at tiny probabilities
        p = float(front * combined) if combined > 0.0 else 0.0
        magnitude = front * (kernel_abs + rate * prev_abs * back)
        rows.append((p, float(_EXTERNAL_ROUNDOFF * eps * (ell + 1) * magnitude)))
        log_d += log_n[ell]
    return rows


# largest certified float64 error allowed on a probability
OGROUP_TOL = 1e-9
OGROUP_ROUTE = "toeplitz-plus-hankel determinant"

# sign and shift of the four Toeplitz +- Hankel families g_{j-k} + sign
# g_{j+k+shift}, in the order: O(2m) with det +1, O(2m) with det -1,
# O(2m+1) with det +1, O(2m+1) with det -1
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])[:, None, None]
_SHIFTS = np.array([0, 2, 1, 1])[:, None, None]


def _pair_coeffs(spec: SymbolSpec, lmax: int) -> np.ndarray:
    """g_n, n = 0..lmax + 2, of g(z) = psi(z) psi(1/z), which is even in n.

    g mirrors every factor of psi onto the other side of the circle.
    """
    t = spec.exp_plus_t + spec.exp_minus_t
    pair = SymbolSpec(
        exp_plus_t=t,
        exp_minus_t=t,
        zeros_plus=spec.zeros_plus + spec.zeros_minus,
        zeros_minus=spec.zeros_minus + spec.zeros_plus,
        poles_plus=spec.poles_plus + spec.poles_minus,
        poles_minus=spec.poles_minus + spec.poles_plus,
    )
    return fourier_coeffs(pair, half_width=lmax + 2).coeffs[lmax + 2:]


def _cholesky_reach(mat: np.ndarray) -> tuple[int, np.ndarray]:
    """(p, L): the largest leading block mat[:p, :p] that float64 Cholesky
    factors, found by bisection, and its factor padded with the identity."""
    lo, hi, factor = 0, len(mat) + 1, np.eye(len(mat))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            factor[:mid, :mid] = np.linalg.cholesky(mat[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return lo, factor


def _leading_minors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log det, bound on lambda_max, trace of the inverse) of the leading
    m x m blocks of each symmetric matrix of ``mats`` (shape (f, s, s)), as
    arrays of shape (f, s + 1) indexed by m; the empty block has 0 in all
    three.

    One Cholesky factor L per matrix serves every block: a block's factor
    L_m is the leading block of L, so its log det is a partial sum of
    2 log L_ii, and, L^-1 being lower triangular, tr(M_m^-1) = |L_m^-1|_F^2
    is a partial sum of the squared row norms of L^-1.  By Cauchy
    interlacing a block's lambda_max is at most its matrix's, from one
    ``eigvalsh`` of the f matrices, and at most its own trace; the smaller
    of the two is returned.  A Cholesky breakdown at size p leaves every
    larger block with log det nan and trace inf, the unreached tail of L
    set to the identity; blocks below p keep theirs.
    """
    count, size = mats.shape[:2]
    try:
        factor, reach = np.linalg.cholesky(mats), np.full(count, size)
    except np.linalg.LinAlgError:
        factor = np.empty_like(mats)
        reach = np.zeros(count, dtype=int)
        for f, mat in enumerate(mats):
            reach[f], factor[f] = _cholesky_reach(mat)
    log_det, lam_max, inv_trace = np.zeros((3, count, size + 1))
    diag = np.diagonal(factor, axis1=1, axis2=2)
    log_det[:, 1:] = np.cumsum(2.0 * np.log(diag), axis=1)
    inv_trace[:, 1:] = np.cumsum(np.square(np.linalg.inv(factor)).sum(axis=2), axis=1)
    trace = np.cumsum(np.diagonal(mats, axis1=1, axis2=2), axis=1)
    lam_max[:, 1:] = np.minimum(np.linalg.eigvalsh(mats)[:, -1:], trace)
    broken = np.arange(1, size + 1) > reach[:, None]
    log_det[:, 1:][broken] = np.nan
    inv_trace[:, 1:][broken] = np.inf
    return log_det, lam_max, inv_trace


# Sizes, in units of eps, of the roundoff the group bound charges: the g
# table's, as a matrix norm in units of g_0, and that of the scalars
# psi(+-1), exp and the products.  On the tables of 100 random psi (t <= 1,
# one to three zeros and poles <= 0.6) and the catalogue's symmetrized
# laws, against 50-digit determinants of the exact and of the float64
# matrices: every g_n lay within 2.8 eps g_0, the table moved no log det by
# more than 3.1 eps g_0 tr(M^-1), and Cholesky none by more than
# 0.9 eps lambda_max tr(M^-1).  Tables of weights that peak sharply carry
# more: a pole at 0.99 puts g_0 39 eps g_0 off.
_TABLE_ROUNDOFF = 4.0
_SCALAR_ROUNDOFF = 8.0


def ogroup_law(psi: SymbolSpec, log_z: float, lmax: int) -> list[tuple[float, float]]:
    """[(E_{O(ell)} det psi(U) * e^{-log_z}, float64 error bound)] for
    ell = 0..lmax: a model's law P(L <= ell) when ``log_z`` is its log Z,
    the bare group means at log_z = 0.

    Each determinant component of O(ell) is a Toeplitz +- Hankel
    determinant in the coefficients g_n of g(z) = psi(z) psi(1/z), times
    psi at its fixed eigenvalues (Weyl integration and Andreief):

      even 2m, det +1 : (1/2) det(g_{j-k} + g_{j+k})_{m x m}
      even 2m, det -1 : psi(1) psi(-1) det(g_{j-k} - g_{j+k+2})_{(m-1) x (m-1)}
      odd 2m+1, det +1: psi(1) det(g_{j-k} - g_{j+k+1})_{m x m}
      odd 2m+1, det -1: psi(-1) det(g_{j-k} + g_{j+k+1})_{m x m}

    and the group mean averages the two.  On the circle g = |psi|^2 >= 0,
    and the four matrices are the Gram matrices of cos j th, sin (j+1) th,
    sin (j+1/2) th and cos (j+1/2) th under the weight g / pi, so each is
    positive definite, and the m x m matrix of any row is the leading
    block of its family's largest.  So one Fourier table of g and one
    batched Cholesky factorization of the four largest matrices
    (``_leading_minors``) serve every row; the empty group's mean is 1.

    The bound is first order.  A component's log det moves by
    tr(M^-1 dM) when M does by dM, and |tr(M^-1 dM)| <= |dM|_2 tr(M^-1)
    for positive definite M.  dM is Cholesky's backward error, charged as
    eps lambda_max, plus the g table's roundoff, charged as
    ``_TABLE_ROUNDOFF`` eps g_0; both cover what was measured.  The
    factor gives tr(M^-1) as the squared Frobenius norm of the inverse of
    the block's factor, and lambda_max is charged as the smaller of the
    family matrix's largest eigenvalue and the block's trace, both upper
    bounds on it.  The exponential adds eps |log det - log_z|, the
    scalars ``_SCALAR_ROUNDOFF`` eps, and the components may cancel
    (psi(-1) < 0 once a zero parameter exceeds 1), so the bound adds
    their absolute errors and eps |mean| for the sum.  A row whose block
    lies past a breakdown of the factorization carries an infinite bound;
    rows of smaller blocks keep theirs, and a factored block that is
    numerically singular gets a huge bound from tr(M^-1).  Bounds are
    returned, not enforced: callers certify with ``certified``.
    """
    if lmax < 0:
        raise ValidationError(f"lmax must be >= 0, got {lmax}")
    g = _pair_coeffs(psi, lmax)
    psi_plus, psi_minus = np.real(evaluate_symbol(psi, np.array([1.0, -1.0])))
    # every family at the largest size any row needs; a block no row needs
    # costs at most the bisection of a breakdown
    j = np.arange(max(lmax // 2, 1))
    mats = g[np.abs(j[:, None] - j)] + _SIGNS * g[j[:, None] + j + _SHIFTS]
    log_det, lam_max, inv_trace = _leading_minors(mats)
    ell = np.arange(1, lmax + 1)
    m, odd = ell // 2, ell % 2
    # the two components of each row: family, block size, coefficient
    f = np.stack([2 * odd, 2 * odd + 1])
    n = np.stack([m, m - 1 + odd])
    coef = np.stack([
        np.where(odd, psi_plus, 0.5), np.where(odd, psi_minus, psi_plus * psi_minus)
    ])
    x = log_det[f, n] - log_z
    mean = 0.5 * coef * np.exp(x)
    move = inv_trace[f, n] * (lam_max[f, n] + _TABLE_ROUNDOFF * g[0])
    value = mean[0] + mean[1]
    eps = np.finfo(float).eps
    bound = eps * (np.abs(mean) * (move + np.abs(x) + _SCALAR_ROUNDOFF)).sum(axis=0)
    bound += eps * np.abs(value)
    bound[np.isnan(value)] = np.inf
    return [(math.exp(-log_z), 0.0)] + list(zip(value.tolist(), bound.tolist()))


def certified(value: float, bound: float, what: str, tol: float) -> float:
    """``value`` when its error bound is within ``tol``."""
    if not bound <= tol:
        raise ConditioningError(f"{what}: error bound {bound:.2e} exceeds {tol:.0e}")
    return value


def scaled_cdf(t: float, x: float, opuc: OpucData) -> float:
    """P(L <= floor(2t + x t^{1/3})), the edge-scaled staircase CDF.

    Every row reads the reflection coefficients up to the end of ``opuc``
    (``_square_log_cdf``), so the table must reach the converged cutoff
    ``_default_cutoff(t, 0)``; a shorter table is refused.  Past its end
    the law has converged and its last row is returned.
    """
    if t <= 0:
        raise ValidationError(f"t must be > 0, got {t}")
    ell = math.floor(2.0 * t + x * t ** (1.0 / 3.0))
    if ell < 0:
        return 0.0
    if opuc.cutoff < _default_cutoff(t, 0):
        raise ValidationError(
            f"ell = {ell} needs a table to the converged cutoff "
            f"{_default_cutoff(t, 0)} at t = {t}; this one stops at {opuc.cutoff}"
        )
    return math.exp(_square_log_cdf(opuc)[min(ell, opuc.cutoff)])


# a probability may leave [0, 1], or fall below an earlier entry, by this much
_CDF_SLACK = 1e-10


def check_cdf(probs: dict[int, float]) -> None:
    """Every p must lie in [0, 1] and no p below the largest entry before
    it, each up to _CDF_SLACK.  Comparing with the running maximum rather
    than the predecessor keeps drops that each fit the slack from adding
    up to a larger one.  A table that fails is refused as a numerical
    failure: its rows carry error no bound covered."""
    peak = -math.inf
    for ell in sorted(probs):
        p = probs[ell]
        if not (-_CDF_SLACK <= p <= 1.0 + _CDF_SLACK):
            raise BreakdownError(f"probability {p} outside [0,1]")
        if p < peak - _CDF_SLACK:
            raise BreakdownError(
                f"table is not nondecreasing: P(L <= {ell}) = {p!r} lies "
                f"{peak - p:.2e} below an earlier entry"
            )
        peak = max(peak, p)


@dataclass(frozen=True)
class DistTable:
    """Cumulative table p(ell) for one model, with provenance metadata."""

    model: ModelSpec
    entries: dict[int, tuple[float, float]]  # ell -> (log_p, p)
    truncation_info: dict = field(default_factory=dict)

    def probability(self, ell: int) -> float:
        return self.entries[ell][1]

    def csv_rows(self) -> list[tuple[int, float, float]]:
        return [
            (ell, self.entries[ell][1], self.entries[ell][0])
            for ell in sorted(self.entries)
        ]

    def to_json(self) -> str:
        # a row with p = 0 has log_p = -inf, which JSON cannot hold: null
        return json.dumps(
            {
                "model": json.loads(self.model.to_json()),
                "entries": {
                    str(ell): {"log_p": lp if p > 0 else None, "p": p}
                    for ell, (lp, p) in sorted(self.entries.items())
                },
                "truncation_info": self.truncation_info,
            },
            indent=2,
            sort_keys=True,
        )


def _log_or_neg_inf(p: float) -> float:
    return math.log(p) if p > 0 else -math.inf


# A route maps (model, lmax) to the exact law's rows {ell: (p, bound)} and
# provenance for the table.  ``bound`` is the error bound the route
# certifies for p, checked row by row by ``certified`` against the kind's
# ROW_TOL: the group averages' float64 bound, the triangle's relative
# product-truncation bound, the roundoff estimate of the external-source
# rows, and the roundoff spread of the lattice and lines rows.  The square
# rows carry 0: the strong Szego check guards their recursion on both
# the float64 and the fixed-point route.
Law = tuple[dict[int, tuple[float, float]], dict]


def _square_law(model: ModelSpec, lmax: int) -> Law:
    opuc = square_opuc(model.t, ell=lmax)
    log_p = _square_log_cdf(opuc)[: lmax + 1].tolist()
    return {ell: (math.exp(lp), 0.0) for ell, lp in enumerate(log_p)}, {"cutoff": opuc.cutoff}


def _lattice_law(model: ModelSpec, lmax: int) -> Law:
    """Toeplitz rows with a measured float64 error.

    The recursion amplifies the Fourier table's rounding by up to its
    condition number, which for these symbols grows with the number of
    factors and their closeness to the circle.  A twin recursion on a
    table from another quadrature grid carries independent table
    roundoff, so the two values of each row differ by about their error;
    that spread is the row's bound.  It is an estimate, not a proof: it
    misses error the two runs share.  A twin breakdown refuses the table.
    """
    spec, cutoff = build_symbol(model), lmax + 2
    table = fourier_coeffs(spec, half_width=cutoff + 2)
    opuc = levinson(table, cutoff)
    twin = levinson(fourier_coeffs(spec, cutoff + 2, table.quadrature_nodes * 3 // 2 + 1), cutoff)
    log_z = normalization_log_z(model)
    rows = {}
    for ell in range(lmax + 1):
        p = math.exp(toeplitz_log_det(opuc, ell) - log_z)
        # a twin value past e is no probability; the clamp keeps exp finite
        q = math.exp(min(toeplitz_log_det(twin, ell) - log_z, 1.0))
        rows[ell] = (p, abs(p - q))
    spread = max(b for _, b in rows.values())
    return rows, {"cutoff": cutoff, "roundoff_spread": spread}


def _triangle_law(model: ModelSpec, lmax: int) -> Law:
    if lmax < 1:
        raise ValidationError(
            f"triangle rows exist at odd thresholds only, so lmax = {lmax} "
            "tabulates none; lmax must be at least 1"
        )
    opuc = square_opuc(model.t, ell=lmax)
    rows = triangle_rows(model.t, model.alpha, (lmax - 1) // 2, opuc)
    return {2 * j + 1: row for j, row in enumerate(rows)}, {
        "cutoff": opuc.cutoff,
        "tail_bound": max((b for _, b in rows), default=0.0),
        "note": "odd thresholds only; even ones bracket between neighbors",
    }


def _external_law(model: ModelSpec, lmax: int) -> Law:
    opuc = square_opuc_highprec(model.t, _default_cutoff(model.t, lmax))
    rows = external_rows(
        model.alpha_plus, model.alpha_minus, normalization_log_z(model), lmax, opuc
    )
    return dict(enumerate(rows)), {
        "cutoff": opuc.cutoff,
        "roundoff_bound": max(b for _, b in rows),
    }


def _group_law(model: ModelSpec, lmax: int) -> Law:
    rows = ogroup_law(build_symbol(model), normalization_log_z(model), lmax)
    return dict(enumerate(rows)), {
        "path": OGROUP_ROUTE,
        "error_bound": max(b for _, b in rows),
    }


# largest bound a row may carry: OGROUP_TOL, or 1e-12 on the triangle's
# relative product-truncation bound
ROW_TOL = {kind: OGROUP_TOL for kind in ModelKind} | {
    ModelKind.POISSON_TRIANGLE: 1e-12
}

EXACT_ROUTES = {
    ModelKind.POISSON_SQUARE: _square_law,
    ModelKind.POISSON_TRIANGLE: _triangle_law,
    ModelKind.POISSON_EXTERNAL: _external_law,
    ModelKind.LATTICE_A: _lattice_law,
    ModelKind.LATTICE_B: _lattice_law,
    ModelKind.LATTICE_C: _lattice_law,
    ModelKind.POISSON_LINES_D: _lattice_law,
    ModelKind.POISSON_LINES_E: _lattice_law,
    ModelKind.TRIANGLE_POISSON_FS: _group_law,
    ModelKind.LATTICE_A_SYM: _group_law,
    ModelKind.LATTICE_C_SYM: _group_law,
}


def exact_law(model: ModelSpec, lmax: int) -> Law:
    """The model's exact law up to ``lmax`` from its route in EXACT_ROUTES:
    ({ell: (p, bound)}, provenance).  Each route builds its data once, at
    lmax.  The triangle law has odd thresholds only."""
    if lmax < 0:
        raise ValidationError(f"lmax must be >= 0, got {lmax}")
    return EXACT_ROUTES[model.kind](model, lmax)


def certified_law(
    kind: ModelKind, rows: dict[int, tuple[float, float]], skip_refused: bool = False
) -> tuple[dict[int, float], list[int]]:
    """({ell: p} of the rows certified within the kind's ROW_TOL, the
    thresholds refused), the law checked by ``check_cdf``.  A refused row
    raises its ConditioningError before the check, unless ``skip_refused``
    leaves it out of the law."""
    law, refused = {}, []
    for ell, (p, bound) in rows.items():
        try:
            law[ell] = certified(p, bound, f"P(L <= {ell})", ROW_TOL[kind])
        except ConditioningError:
            if not skip_refused:
                raise
            refused.append(ell)
    check_cdf(law)
    return law, refused


def build_dist_table(model: ModelSpec, lmax: int) -> DistTable:
    """Cumulative table of the model's exact law for ell <= lmax.

    Every row must be certified and the table nondecreasing in [0, 1].
    """
    rows, info = exact_law(model, lmax)
    law, _ = certified_law(model.kind, rows)
    entries = {ell: (_log_or_neg_inf(p), p) for ell, p in law.items()}
    return DistTable(model=model, entries=entries, truncation_info=info)
