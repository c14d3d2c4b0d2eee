"""Unit-circle symbols for the supported last-passage models.

Every model here is solved through a scalar function phi on the unit
circle, its symbol.  Distribution values are normalized Toeplitz
determinants in the Fourier coefficients of phi, so this module is the
root of the exact-computation stack: it builds the symbol attached to
each model, computes Fourier coefficients by trapezoid quadrature on the
circle (spectrally accurate for these analytic symbols), and gives each
model's normalization constant in closed form.

The symbol family is

    phi(z) = exp(tp*z + tm/z) * prod(1 + a*z) * prod(1 + b/z)
             / prod(1 - c*z) / prod(1 - d/z)

with nonnegative parameters; pole parameters c, d must stay strictly
inside [0, 1) so phi is continuous and nonvanishing on |z| = 1.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ValidationError, BreakdownError

__all__ = [
    "SymbolSpec",
    "FourierTable",
    "ModelKind",
    "ModelSpec",
    "build_symbol",
    "evaluate_symbol",
    "fourier_coeffs",
    "normalization_log_z",
]


def _as_float_tuple(xs) -> tuple[float, ...]:
    return tuple(float(x) for x in xs)


@dataclass(frozen=True)
class SymbolSpec:
    """Factorized description of a circle symbol.

    ``exp_plus_t`` and ``exp_minus_t`` are the coefficients in the
    exponential factor exp(tp*z + tm/z).  ``zeros_plus`` / ``zeros_minus``
    hold the a, b parameters of (1 + a*z) and (1 + b/z) factors;
    ``poles_plus`` / ``poles_minus`` hold the c, d parameters of
    (1 - c*z)^-1 and (1 - d/z)^-1 factors.
    """

    exp_plus_t: float = 0.0
    exp_minus_t: float = 0.0
    zeros_plus: tuple[float, ...] = ()
    zeros_minus: tuple[float, ...] = ()
    poles_plus: tuple[float, ...] = ()
    poles_minus: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros_plus", _as_float_tuple(self.zeros_plus))
        object.__setattr__(self, "zeros_minus", _as_float_tuple(self.zeros_minus))
        object.__setattr__(self, "poles_plus", _as_float_tuple(self.poles_plus))
        object.__setattr__(self, "poles_minus", _as_float_tuple(self.poles_minus))
        for name in ("exp_plus_t", "exp_minus_t"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)
        for name in ("zeros_plus", "zeros_minus"):
            for q in getattr(self, name):
                if not math.isfinite(q) or q < 0.0:
                    raise ValidationError(
                        f"{name} entries must be finite and >= 0, got {q!r}"
                    )
        for name in ("poles_plus", "poles_minus"):
            for q in getattr(self, name):
                if not (0.0 <= q < 1.0):
                    raise ValidationError(
                        f"{name} entries must lie in [0, 1) so the symbol stays "
                        f"continuous and nonvanishing on the circle, got {q!r}"
                    )

    @property
    def is_symmetric(self) -> bool:
        """True when phi(1/z) = phi(z), i.e. the Fourier table is even."""
        return (
            self.exp_plus_t == self.exp_minus_t
            and sorted(self.zeros_plus) == sorted(self.zeros_minus)
            and sorted(self.poles_plus) == sorted(self.poles_minus)
        )

    @property
    def winding_free(self) -> bool:
        """True when no zero of phi falls inside or on the unit circle."""
        return all(q < 1.0 for q in self.zeros_plus + self.zeros_minus)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SymbolSpec":
        return cls(**json.loads(text))


def evaluate_symbol(spec: SymbolSpec, z):
    """Evaluate phi(z); ``z`` may be a scalar or array, real or complex."""
    z = np.asarray(z)
    out = np.exp(spec.exp_plus_t * z + spec.exp_minus_t / z)
    for q in spec.zeros_plus:
        out = out * (1.0 + q * z)
    for q in spec.zeros_minus:
        out = out * (1.0 + q / z)
    for q in spec.poles_plus:
        out = out / (1.0 - q * z)
    for q in spec.poles_minus:
        out = out / (1.0 - q / z)
    return out


@dataclass(frozen=True)
class FourierTable:
    """Fourier coefficients phi_j for j in [-half_width, half_width].

    ``coeffs[j + half_width]`` stores phi_j, the coefficient of z^j in
    the Laurent expansion, equal to (1/2pi) int phi(e^{i th}) e^{-i j th} dth.
    For real symbol parameters every phi_j is real.
    """

    coeffs: np.ndarray
    half_width: int
    quadrature_nodes: int
    symbol: SymbolSpec

    def __getitem__(self, j: int) -> float:
        if abs(j) > self.half_width:
            raise ValidationError(
                f"coefficient index {j} outside tabulated range "
                f"[-{self.half_width}, {self.half_width}]"
            )
        return float(self.coeffs[j + self.half_width])

    @property
    def is_symmetric(self) -> bool:
        # structural symmetry of the generating symbol, not bit equality
        # of the quadrature output, which roundoff breaks
        return self.symbol.is_symmetric

    def to_json(self) -> str:
        return json.dumps(
            {
                "coeffs": [float(c) for c in self.coeffs],
                "half_width": self.half_width,
                "quadrature_nodes": self.quadrature_nodes,
                "symbol": json.loads(self.symbol.to_json()),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FourierTable":
        d = json.loads(text)
        return cls(
            coeffs=np.asarray(d["coeffs"], dtype=float),
            half_width=int(d["half_width"]),
            quadrature_nodes=int(d["quadrature_nodes"]),
            symbol=SymbolSpec(**d["symbol"]),
        )


def default_node_count(half_width: int) -> int:
    return max(64, 16 * (half_width + 1))


def fourier_coeffs(
    spec: SymbolSpec, half_width: int, nodes: int | None = None
) -> FourierTable:
    """Tabulate phi_j by equispaced quadrature on the circle.

    The trapezoid rule on m nodes is exact for Laurent frequencies below
    m and converges spectrally for these entire-function symbols; the
    aliasing error folds in coefficients phi_{j +- m}, so m is required
    to be at least 4*(half_width + 1).
    """
    if half_width < 0:
        raise ValidationError(f"half_width must be >= 0, got {half_width}")
    if nodes is None:
        nodes = default_node_count(half_width)
        # A pole factor has geometric coefficient tails ~ q^m, so the
        # folded term at lag nodes - half_width must be pushed below
        # double precision; entire-symbol tails decay much faster.
        worst_pole = max(spec.poles_plus + spec.poles_minus, default=0.0)
        if worst_pole > 0.0:
            needed = half_width + int(math.ceil(37.0 / -math.log(worst_pole)))
            nodes = max(nodes, needed)
    if nodes < 4 * (half_width + 1):
        raise ValidationError(
            f"nodes={nodes} too small for half_width={half_width}; "
            f"need at least {4 * (half_width + 1)}"
        )
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    values = evaluate_symbol(spec, np.exp(1j * theta))
    if not np.all(np.isfinite(values)):
        raise BreakdownError("symbol evaluation overflowed on the quadrature grid")
    c = np.fft.fft(values) / nodes
    js = np.arange(-half_width, half_width + 1)
    coeffs = np.real(c[np.mod(js, nodes)])
    return FourierTable(
        coeffs=coeffs, half_width=half_width, quadrature_nodes=nodes, symbol=spec
    )


class ModelKind(enum.Enum):
    POISSON_SQUARE = "PoissonSquare"
    POISSON_TRIANGLE = "PoissonTriangle"
    POISSON_EXTERNAL = "PoissonExternal"
    LATTICE_A = "LatticeA"
    LATTICE_B = "LatticeB"
    LATTICE_C = "LatticeC"
    POISSON_LINES_D = "PoissonLinesD"
    POISSON_LINES_E = "PoissonLinesE"
    TRIANGLE_POISSON_FS = "TrianglePoissonFS"
    # Symmetrized lattice models; like TRIANGLE_POISSON_FS their exact law
    # is an orthogonal-group average, a Toeplitz +- Hankel determinant.
    LATTICE_A_SYM = "LatticeASym"
    LATTICE_C_SYM = "LatticeCSym"


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one model instance.

    ``row_params`` / ``col_params`` are the per-row and per-column rate
    parameters of the lattice models; for the Poisson-lines models the
    line rates live in ``col_params``.  ``alpha`` is the boundary rate of
    the symmetrized models, ``alpha_plus`` / ``alpha_minus`` the two axis
    rates of the external-source model.  ``m_rows`` and ``n_cols`` default
    to the parameter list lengths.
    """

    kind: ModelKind
    t: float = 0.0
    alpha: float = 0.0
    alpha_plus: float = 0.0
    alpha_minus: float = 0.0
    row_params: tuple[float, ...] = ()
    col_params: tuple[float, ...] = ()
    m_rows: int = 0
    n_cols: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_params", _as_float_tuple(self.row_params))
        object.__setattr__(self, "col_params", _as_float_tuple(self.col_params))
        if self.m_rows == 0:
            object.__setattr__(self, "m_rows", len(self.row_params))
        if self.n_cols == 0:
            object.__setattr__(self, "n_cols", len(self.col_params))
        for name in ("t", "alpha", "alpha_plus", "alpha_minus"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)
        kind = self.kind
        if kind in (ModelKind.LATTICE_A, ModelKind.LATTICE_B, ModelKind.LATTICE_C):
            if not self.row_params or not self.col_params:
                raise ValidationError(f"{kind.value} needs row_params and col_params")
            if self.m_rows != len(self.row_params) or self.n_cols != len(self.col_params):
                raise ValidationError(
                    "m_rows/n_cols must match the parameter list lengths"
                )
        if kind in (ModelKind.POISSON_LINES_D, ModelKind.POISSON_LINES_E):
            if not self.col_params:
                raise ValidationError(f"{kind.value} needs line rates in col_params")
        if kind in (ModelKind.LATTICE_A_SYM, ModelKind.LATTICE_C_SYM):
            if not self.row_params:
                raise ValidationError(f"{kind.value} needs row_params")
        if kind in (ModelKind.LATTICE_A, ModelKind.LATTICE_C, ModelKind.LATTICE_A_SYM,
                    ModelKind.LATTICE_C_SYM):
            self._check_products()

    def _check_products(self) -> None:
        # Pairwise products index the geometric weights; each must be a
        # valid geometric parameter.
        if self.kind in (ModelKind.LATTICE_A, ModelKind.LATTICE_C):
            pairs = [
                (f"q_{i+1}*q'_{j+1}", qi * qj)
                for i, qi in enumerate(self.row_params)
                for j, qj in enumerate(self.col_params)
            ]
        else:
            qs = self.row_params
            pairs = [(f"alpha*q_{i+1}", self.alpha * q) for i, q in enumerate(qs)]
            pairs += [
                (f"q_{i+1}*q_{j+1}", qs[i] * qs[j])
                for i in range(len(qs))
                for j in range(i, len(qs))
            ]
        for label, p in pairs:
            if not (0.0 <= p < 1.0):
                raise ValidationError(
                    f"{self.kind.value}: product {label} = {p} must lie in [0, 1)"
                )

    def to_json(self) -> str:
        d = asdict(self)
        d["kind"] = self.kind.value
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        d = json.loads(text)
        d["kind"] = ModelKind(d["kind"])
        return cls(**d)


def build_symbol(model: ModelSpec) -> SymbolSpec:
    """Return the circle symbol whose Toeplitz determinants solve ``model``.

    The triangle and external-source models reduce to the same symbol as
    the Poisson square model; their boundary rates enter the distribution
    formulas through polynomial evaluations rather than the symbol.  The
    triangle-FS and the two symmetrized models carry the symbol psi of
    their orthogonal-group average; its determinants are Toeplitz +-
    Hankel in the coefficients of psi(z) psi(1/z), not plain Toeplitz.
    """
    k = model.kind
    if k in (ModelKind.POISSON_SQUARE, ModelKind.POISSON_TRIANGLE,
             ModelKind.POISSON_EXTERNAL):
        if model.t == 0.0 and k is ModelKind.POISSON_SQUARE:
            return SymbolSpec()
        return SymbolSpec(exp_plus_t=model.t, exp_minus_t=model.t)
    if k is ModelKind.LATTICE_A:
        return SymbolSpec(zeros_plus=model.row_params, zeros_minus=model.col_params)
    if k is ModelKind.LATTICE_B:
        return SymbolSpec(zeros_plus=model.row_params, poles_minus=model.col_params)
    if k is ModelKind.LATTICE_C:
        return SymbolSpec(poles_plus=model.row_params, poles_minus=model.col_params)
    if k is ModelKind.POISSON_LINES_D:
        return SymbolSpec(exp_plus_t=model.t, zeros_minus=model.col_params)
    if k is ModelKind.POISSON_LINES_E:
        return SymbolSpec(exp_plus_t=model.t, poles_minus=model.col_params)
    if k is ModelKind.TRIANGLE_POISSON_FS:
        return SymbolSpec(exp_plus_t=model.t, zeros_plus=(model.alpha,))
    if k is ModelKind.LATTICE_A_SYM:
        return SymbolSpec(zeros_plus=(model.alpha,) + model.row_params)
    if k is ModelKind.LATTICE_C_SYM:
        return SymbolSpec(zeros_plus=(model.alpha,), poles_plus=model.row_params)
    raise ValidationError(f"unsupported model kind {k!r}")


def normalization_log_z(model: ModelSpec) -> float:
    """log of the normalization constant Z of the model's law.

    Z is the large-order limit of the model's determinants.  For the
    Poisson square at t > 6 (the extended-precision route) the log-norms
    must sum to log Z = t^2; ``exact_dist.toeplitz_opuc`` checks that strong
    Szego identity and refuses the data when it fails.
    """
    k = model.kind
    t = model.t
    if k is ModelKind.POISSON_SQUARE:
        return t * t
    if k in (ModelKind.POISSON_TRIANGLE, ModelKind.TRIANGLE_POISSON_FS):
        return model.alpha * t + 0.5 * t * t
    if k is ModelKind.POISSON_EXTERNAL:
        return (model.alpha_plus + model.alpha_minus) * t + t * t
    if k in (ModelKind.LATTICE_A, ModelKind.LATTICE_C):
        return -sum(
            math.log1p(-qi * qj) for qi in model.row_params for qj in model.col_params
        )
    if k is ModelKind.LATTICE_B:
        return sum(
            math.log1p(qi * qj) for qi in model.row_params for qj in model.col_params
        )
    if k in (ModelKind.POISSON_LINES_D, ModelKind.POISSON_LINES_E):
        return t * sum(model.col_params)
    if k is ModelKind.LATTICE_A_SYM:
        qs = model.row_params
        out = -sum(math.log1p(-model.alpha * q) for q in qs)
        out -= sum(
            math.log1p(-qs[i] * qs[j])
            for i in range(len(qs))
            for j in range(i + 1, len(qs))
        )
        return out
    if k is ModelKind.LATTICE_C_SYM:
        qs = model.row_params
        out = sum(math.log1p(model.alpha * q) - math.log1p(-q * q) for q in qs)
        out -= sum(
            math.log1p(-qs[i] * qs[j])
            for i in range(len(qs))
            for j in range(i + 1, len(qs))
        )
        return out
    raise ValidationError(f"unsupported model kind {k!r}")
