"""Integrable-kernel Fredholm determinants on the circle.

The kernel couples a pure power ratio z^(-k) w^k with the ratio of the
symbol's analytic factors, with the diagonal installed through the
analytic limit of the vanishing numerator.  Nystrom discretization on
equally spaced nodes with oriented-contour weights is spectrally
accurate here because the kernel is smooth and periodic.

These determinants give a second, structurally different route to the
Toeplitz quantities: a ratio identity against the recursion norms, and
a product identity pinning log D_n - log D_inf.  Both are verified
numerically per k; nothing is assumed about the spectrum except that
the discretized operator stays away from eigenvalue one, which is
checked, not presumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BreakdownError, ValidationError
from .opuc import OpucData
from .symbols import SymbolSpec, evaluate_symbol, strong_szego_log_z

__all__ = [
    "IntegrableKernelSpec",
    "kernel_matrix",
    "fredholm_log_det",
    "identity_checks",
    "IdentityReport",
]

_FACTORIZATION_TOL = 1e-12
_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class IntegrableKernelSpec:
    """Discretized integrable operator for one symbol and one index k.

    The symbol's plus-indexed factors form the inner analytic piece
    (value 1 at the origin) and the minus-indexed factors the outer one
    (value 1 at infinity); their ratio is the function psi driving the
    kernel.
    """

    symbol: SymbolSpec
    k: int
    nodes: int = 128

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if self.nodes < 16 or self.nodes % 2 != 0:
            raise ValidationError(
                f"nodes must be even and >= 16, got {self.nodes}"
            )
        z = self.node_points
        plus, minus = self._halves
        resid = np.max(
            np.abs(
                evaluate_symbol(plus, z) * evaluate_symbol(minus, z)
                - evaluate_symbol(self.symbol, z)
            )
        )
        scale = float(np.max(np.abs(evaluate_symbol(self.symbol, z))))
        if resid > _FACTORIZATION_TOL * max(scale, 1.0):
            raise ValidationError(
                f"factorization mismatch {resid:.3e} exceeds "
                f"{_FACTORIZATION_TOL:.1e} (relative)"
            )

    @cached_property
    def node_points(self) -> np.ndarray:
        j = np.arange(self.nodes)
        return np.exp(2j * np.pi * j / self.nodes)

    @cached_property
    def node_weights(self) -> np.ndarray:
        return 2j * np.pi * self.node_points / self.nodes

    @cached_property
    def _halves(self) -> tuple[SymbolSpec, SymbolSpec]:
        s = self.symbol
        plus = SymbolSpec(
            exp_plus_t=s.exp_plus_t, zeros_plus=s.zeros_plus, poles_plus=s.poles_plus
        )
        minus = SymbolSpec(
            exp_minus_t=s.exp_minus_t,
            zeros_minus=s.zeros_minus,
            poles_minus=s.poles_minus,
        )
        return plus, minus

    def psi(self, z):
        plus, minus = self._halves
        return evaluate_symbol(plus, z) / evaluate_symbol(minus, z)

    def dlog_psi(self, z):
        """Logarithmic derivative of psi, assembled factor by factor."""
        s = self.symbol
        out = np.full_like(np.asarray(z, dtype=complex), s.exp_plus_t)
        for a in s.zeros_plus:
            out = out + a / (1.0 + a * z)
        for c in s.poles_plus:
            out = out + c / (1.0 - c * z)
        out = out + s.exp_minus_t / z**2
        for b in s.zeros_minus:
            out = out + (b / z**2) / (1.0 + b / z)
        for d in s.poles_minus:
            out = out + (d / z**2) / (1.0 - d / z)
        return out


def kernel_matrix(spec: IntegrableKernelSpec) -> np.ndarray:
    """Nystrom matrix of the operator, weights folded into columns."""
    z = spec.node_points
    k = spec.k
    psi_vals = spec.psi(z)
    power = z**k
    num = np.outer(1.0 / power, power) - np.outer(psi_vals, 1.0 / psi_vals)
    den = 2j * np.pi * (z[:, None] - z[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = num / den
    diag = -(k / z + spec.dlog_psi(z)) / (2j * np.pi)
    np.fill_diagonal(kern, diag)
    return kern * spec.node_weights[None, :]


def fredholm_log_det(spec: IntegrableKernelSpec) -> float:
    """log det(1 - K) for the discretized operator; must come out real.

    A vanishing or tiny pivot product means the discretized spectrum is
    at 1 and the determinant identities are meaningless there; that is
    reported as breakdown rather than returned.
    """
    m = np.eye(spec.nodes, dtype=complex) - kernel_matrix(spec)
    sign, log_abs = np.linalg.slogdet(m)
    if sign == 0 or not math.isfinite(log_abs) or log_abs < -60.0:
        raise BreakdownError(
            "discretized operator has eigenvalue near 1; determinant "
            f"collapsed (log|det| = {log_abs!r})"
        )
    phase = abs(math.atan2(sign.imag, sign.real))
    if phase > _IMAG_TOL:
        raise BreakdownError(
            f"determinant is not real: phase {phase:.3e} exceeds {_IMAG_TOL:.1e}"
        )
    return float(log_abs)


@dataclass(frozen=True)
class IdentityReport:
    """Per-k residuals of the determinant identities."""

    t: float
    nodes: int
    ratio_residuals: tuple[float, ...]  # k = 1..k_max
    product_residuals: tuple[float, ...]  # n = 0..k_max
    normalized_dets: tuple[float, ...]  # 2^{-k} det(1 - K_k), k = 0..k_max

    @property
    def max_residual(self) -> float:
        return max(self.ratio_residuals + self.product_residuals, default=0.0)

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "nodes": self.nodes,
                "max_residual": self.max_residual,
                "ratio_residuals": list(self.ratio_residuals),
                "product_residuals": list(self.product_residuals),
                "normalized_dets": list(self.normalized_dets),
            },
            indent=2,
            sort_keys=True,
        )


def identity_checks(t: float, k_max: int, opuc: OpucData) -> IdentityReport:
    """Residuals linking Fredholm determinants to the recursion data,
    with each determinant on the kernel's default node count.

    Two families: the norm-ratio identity
    1/N_{k-1} = 2 det(1-K_{k-1})/det(1-K_k) for k = 1..k_max, and the
    product identity log D_n - t^2 = -n log 2 + log det(1-K_n) for
    n = 0..k_max.
    """
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if k_max < 0 or k_max > opuc.cutoff:
        raise ValidationError(
            f"k_max must lie in [0, cutoff] = [0, {opuc.cutoff}], got {k_max}"
        )
    symbol = SymbolSpec(exp_plus_t=t, exp_minus_t=t)
    log_z = strong_szego_log_z(symbol)  # t^2
    log_dets = [
        fredholm_log_det(IntegrableKernelSpec(symbol=symbol, k=k))
        for k in range(k_max + 1)
    ]
    ratio = []
    for k in range(1, k_max + 1):
        lhs = math.exp(-float(opuc.log_norms[k - 1]))
        rhs = 2.0 * math.exp(log_dets[k - 1] - log_dets[k])
        ratio.append(abs(lhs - rhs))
    log_d = 0.0
    product = []
    normalized = []
    for n in range(k_max + 1):
        lhs = log_d - log_z
        rhs = -n * math.log(2.0) + log_dets[n]
        product.append(abs(lhs - rhs))
        normalized.append(math.exp(log_dets[n] - n * math.log(2.0)))
        if n < opuc.cutoff + 1:
            log_d += float(opuc.log_norms[n])
    return IdentityReport(
        t=t,
        nodes=IntegrableKernelSpec.nodes,
        ratio_residuals=tuple(ratio),
        product_residuals=tuple(product),
        normalized_dets=tuple(normalized),
    )
