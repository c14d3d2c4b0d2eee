"""Integrable-kernel Fredholm determinants on the circle.

The kernel couples a pure power ratio z^(-k) w^k with the ratio of the
analytic factors of the square's symbol exp(t(z + 1/z)), with the
diagonal installed through the analytic limit of the vanishing
numerator.  Nystrom discretization on equally spaced nodes with
oriented-contour weights is spectrally accurate here because the kernel
is smooth and periodic.

These determinants give a second, structurally different route to the
Toeplitz quantities: a ratio identity against the recursion norms, and
a product identity pinning log D_n - log D_inf.  Both are verified
numerically per k (``identity_checks``, whose dict is the report that
``verify fredholm`` writes); nothing is assumed about the spectrum
except that the discretized operator stays away from eigenvalue one,
which is checked, not presumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError, ValidationError
from .opuc import OpucData
from .symbols import SymbolSpec, strong_szego_log_z

__all__ = [
    "IntegrableKernelSpec",
    "kernel_matrix",
    "fredholm_log_det",
    "identity_checks",
]

_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class IntegrableKernelSpec:
    """Discretized integrable operator of the square's symbol
    exp(t(z + 1/z)) for one index k.

    Its inner analytic factor exp(t z) (value 1 at the origin) over its
    outer one exp(t / z) (value 1 at infinity) is the function psi
    driving the kernel, sampled at ``nodes`` equally spaced points.
    """

    t: float
    k: int
    nodes: int = 128

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if self.nodes < 16 or self.nodes % 2 != 0:
            raise ValidationError(
                f"nodes must be even and >= 16, got {self.nodes}"
            )


def kernel_matrix(spec: IntegrableKernelSpec) -> np.ndarray:
    """Nystrom matrix of the operator at the nodes z_j = e^{2 pi i j / n},
    with the oriented-contour weights 2 pi i z_j / n folded into columns.
    The diagonal holds the analytic limit, through psi'/psi = t + t / z^2."""
    t, k = spec.t, spec.k
    z = np.exp(2j * np.pi * np.arange(spec.nodes) / spec.nodes)
    psi = np.exp(t * z) / np.exp(t / z)
    power = z**k
    num = np.outer(1.0 / power, power) - np.outer(psi, 1.0 / psi)
    den = 2j * np.pi * (z[:, None] - z[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = num / den
    diag = -(k / z + (t + t / z**2)) / (2j * np.pi)
    np.fill_diagonal(kern, diag)
    return kern * (2j * np.pi * z / spec.nodes)[None, :]


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


def identity_checks(t: float, k_max: int, opuc: OpucData) -> dict:
    """Residuals linking Fredholm determinants to the recursion data,
    with each determinant on the kernel's default node count.

    Two families: the norm-ratio identity
    1/N_{k-1} = 2 det(1-K_{k-1})/det(1-K_k) for k = 1..k_max
    (``ratio_residuals``), and the product identity
    log D_n - t^2 = -n log 2 + log det(1-K_n) for n = 0..k_max
    (``product_residuals``).  The dict also holds t, the node count, the
    largest residual of both families and the normalized determinants
    2^{-n} det(1 - K_n), n = 0..k_max.
    """
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if k_max < 0 or k_max > opuc.cutoff:
        raise ValidationError(
            f"k_max must lie in [0, cutoff] = [0, {opuc.cutoff}], got {k_max}"
        )
    log_z = strong_szego_log_z(SymbolSpec(exp_plus_t=t, exp_minus_t=t))  # t^2
    log_dets = [
        fredholm_log_det(IntegrableKernelSpec(t=t, k=k)) for k in range(k_max + 1)
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
    return {
        "t": t,
        "nodes": IntegrableKernelSpec.nodes,
        "max_residual": max(ratio + product, default=0.0),
        "ratio_residuals": ratio,
        "product_residuals": product,
        "normalized_dets": normalized,
    }
