"""Unit-circle symbols for the supported last-passage models.

Every model here is solved through a scalar function phi on the unit
circle, its symbol.  Distribution values are normalized Toeplitz
determinants in the Fourier coefficients of phi, so this module is the
root of the exact-computation stack: it holds one rule per model kind
(``MODEL_RULES``: its symbol, its normalization and the parameters it
reads, whose command-line flags ``param_flags`` derives) and computes
Fourier coefficients by trapezoid quadrature on the circle (spectrally
accurate for these analytic symbols).  The symbol family is

    phi(z) = exp(tp*z + tm/z) * prod(1 + a*z) * prod(1 + b/z)
             / prod(1 - c*z) / prod(1 - d/z)

with nonnegative parameters; pole parameters c, d must stay strictly
inside [0, 1) so phi is continuous and nonvanishing on |z| = 1.

Each model's normalization constant Z, the large-order limit of its
determinants, is a closed form in these factors.  For Toeplitz
determinants it is the strong Szego limit (Borodin and Okounkov,
arXiv:math/9907165), log Z = tp tm + tp (sum b + sum d) + tm (sum a +
sum c) - sum log(1 - ab) + sum log(1 + ad) + sum log(1 + cb)
- sum log(1 - cd); for an orthogonal-group average of psi = phi with
tm = 0 and no b, d factors it is the O(infinity) limit (Baik and Rains,
arXiv:math/9905083), log Z = tp^2/2 + tp (sum a + sum c)
- sum_{i<j} log(1 - a_i a_j) - sum_{i<=j} log(1 - c_i c_j) + sum log(1 + ac).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError, BreakdownError

__all__ = [
    "SymbolSpec",
    "FourierTable",
    "ModelKind",
    "ModelSpec",
    "ModelRule",
    "MODEL_RULES",
    "param_flags",
    "build_symbol",
    "evaluate_symbol",
    "fourier_coeffs",
    "normalization_log_z",
    "strong_szego_log_z",
    "ogroup_log_z",
]


def _set_nonnegative(spec, scalars, lists) -> None:
    """Store the named fields of a frozen dataclass as a float or a tuple
    of floats; each value must be finite and >= 0."""
    for name in scalars:
        object.__setattr__(spec, name, float(getattr(spec, name)))
    for name in lists:
        object.__setattr__(spec, name, tuple(float(x) for x in getattr(spec, name)))
    named = [(name, getattr(spec, name)) for name in scalars]
    named += [(f"{name} entries", v) for name in lists for v in getattr(spec, name)]
    for name, v in named:
        if not math.isfinite(v) or v < 0.0:
            raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")


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
        _set_nonnegative(self, ("exp_plus_t", "exp_minus_t"), ("zeros_plus", "zeros_minus"))
        for name in ("poles_plus", "poles_minus"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
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
    """One member per solvable model; its value is the model's name on the
    command line and in output file names."""

    POISSON_SQUARE = "square"
    POISSON_TRIANGLE = "triangle"
    POISSON_EXTERNAL = "external"
    LATTICE_A = "lattice-a"
    LATTICE_B = "lattice-b"
    LATTICE_C = "lattice-c"
    POISSON_LINES_D = "lines-d"
    POISSON_LINES_E = "lines-e"
    TRIANGLE_POISSON_FS = "triangle-fs"
    # Symmetrized lattice models; like TRIANGLE_POISSON_FS their exact law
    # is an orthogonal-group average, a Toeplitz +- Hankel determinant.
    LATTICE_A_SYM = "lattice-a-sym"
    LATTICE_C_SYM = "lattice-c-sym"


_SCALARS = ("t", "alpha", "alpha_plus", "alpha_minus")
_LISTS = ("row_params", "col_params")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one model instance.

    ``row_params`` / ``col_params`` are the per-row and per-column rate
    parameters of the lattice models; for the Poisson-lines models the
    line rates live in ``col_params``.  ``alpha`` is the boundary rate of
    the symmetrized models, ``alpha_plus`` / ``alpha_minus`` the two axis
    rates of the external-source model.  The fields each kind reads and
    the parameters and products that must lie in [0, 1) are its entry in
    ``MODEL_RULES``; every list it reads must be nonempty.
    """

    kind: ModelKind
    t: float = 0.0
    alpha: float = 0.0
    alpha_plus: float = 0.0
    alpha_minus: float = 0.0
    row_params: tuple[float, ...] = ()
    col_params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _set_nonnegative(self, _SCALARS, _LISTS)
        for name, flag in param_flags(self.kind).items():
            if name in _LISTS and not getattr(self, name):
                raise ValidationError(f"model {self.kind.value} needs --{flag}")
        for label, p in MODEL_RULES[self.kind].bounded(self):
            if not (0.0 <= p < 1.0):
                raise ValidationError(f"{self.kind.value}: {label} = {p} must lie in [0, 1)")

    def to_json(self) -> str:
        d = asdict(self)
        d["kind"] = self.kind.value
        return json.dumps(d, sort_keys=True)


def strong_szego_log_z(spec: SymbolSpec) -> float:
    """log lim D_n of the symbol's Toeplitz determinants (strong Szego)."""
    a, b, c, d = spec.zeros_plus, spec.zeros_minus, spec.poles_plus, spec.poles_minus
    tp, tm = spec.exp_plus_t, spec.exp_minus_t
    out = tp * tm + tp * (sum(b) + sum(d)) + tm * (sum(a) + sum(c))
    out -= sum(math.log1p(-x * y) for x in a for y in b)
    out += sum(math.log1p(x * y) for x in a for y in d)
    out += sum(math.log1p(x * y) for x in c for y in b)
    return out - sum(math.log1p(-x * y) for x in c for y in d)


def ogroup_log_z(spec: SymbolSpec) -> float:
    """log lim E_{O(ell)} det psi(U), psi the plus-side factors of the symbol."""
    a, c, t = spec.zeros_plus, spec.poles_plus, spec.exp_plus_t
    out = 0.5 * t * t + t * (sum(a) + sum(c))
    out -= sum(math.log1p(-x * y) for i, x in enumerate(a) for y in a[i + 1 :])
    out -= sum(math.log1p(-x * y) for i, x in enumerate(c) for y in c[i:])
    return out + sum(math.log1p(x * y) for x in a for y in c)


def _labelled(m: ModelSpec, name: str) -> list[tuple[str, float]]:
    """The entries of list ``name`` as messages name them: q_i for the list
    set by --q, q'_i for the one set by --qp."""
    prime = "'" if param_flags(m.kind)[name] == "qp" else ""
    return [(f"q{prime}_{i+1}", q) for i, q in enumerate(getattr(m, name))]


def _grid_products(m: ModelSpec) -> list[tuple[str, float]]:
    cols = _labelled(m, "col_params")
    return [(f"{a}*{b}", x * y) for a, x in _labelled(m, "row_params") for b, y in cols]


def _poles(*names: str) -> Callable[[ModelSpec], list[tuple[str, float]]]:
    """Every entry of the named lists, which enter the symbol as poles
    1 / (1 - q z) or 1 / (1 - q / z) and so must lie in [0, 1)."""
    return lambda m: [entry for name in names for entry in _labelled(m, name)]


def _symmetric_products(m: ModelSpec) -> list[tuple[str, float]]:
    qs = _labelled(m, "row_params")
    return [(f"alpha*{a}", m.alpha * x) for a, x in qs] + [
        (f"{a}*{b}", x * y) for i, (a, x) in enumerate(qs) for b, y in qs[i:]
    ]


class ModelRule(NamedTuple):
    """One model kind: the symbol of its determinants, its log Z, the
    ``ModelSpec`` fields it reads and the parameters and products that
    must lie in [0, 1)."""

    symbol: Callable[[ModelSpec], SymbolSpec]
    log_z: Callable[[ModelSpec], float]
    params: tuple[str, ...]
    bounded: Callable[[ModelSpec], list[tuple[str, float]]] = lambda m: []


def _rule(symbol, limit, *checks) -> ModelRule:
    """The rule of a kind whose log Z is ``limit`` of its own symbol."""
    return ModelRule(symbol, lambda m: limit(symbol(m)), *checks)


def _square(m: ModelSpec) -> SymbolSpec:
    return SymbolSpec(exp_plus_t=m.t, exp_minus_t=m.t)


def _triangle_fs(m: ModelSpec) -> SymbolSpec:
    return SymbolSpec(exp_plus_t=m.t, zeros_plus=(m.alpha,))


# The triangle and external-source laws are built on the square's
# recursion, their boundary rates entering through polynomial evaluations.
# The triangle-FS and symmetrized kinds carry the psi of their group average.
MODEL_RULES = {
    ModelKind.POISSON_SQUARE: _rule(_square, strong_szego_log_z, ("t",)),
    ModelKind.POISSON_TRIANGLE: ModelRule(
        _square, lambda m: ogroup_log_z(_triangle_fs(m)), ("t", "alpha")
    ),
    ModelKind.POISSON_EXTERNAL: ModelRule(
        _square,
        lambda m: strong_szego_log_z(_square(m)) + (m.alpha_plus + m.alpha_minus) * m.t,
        ("t", "alpha_plus", "alpha_minus"),
    ),
    ModelKind.LATTICE_A: _rule(
        lambda m: SymbolSpec(zeros_plus=m.row_params, zeros_minus=m.col_params),
        strong_szego_log_z, _LISTS, _grid_products,
    ),
    ModelKind.LATTICE_B: _rule(
        lambda m: SymbolSpec(zeros_plus=m.row_params, poles_minus=m.col_params),
        strong_szego_log_z, _LISTS, _poles("col_params"),
    ),
    ModelKind.LATTICE_C: _rule(
        lambda m: SymbolSpec(poles_plus=m.row_params, poles_minus=m.col_params),
        strong_szego_log_z, _LISTS, _poles(*_LISTS),
    ),
    ModelKind.POISSON_LINES_D: _rule(
        lambda m: SymbolSpec(exp_plus_t=m.t, zeros_minus=m.col_params),
        strong_szego_log_z, ("t", "col_params"),
    ),
    ModelKind.POISSON_LINES_E: _rule(
        lambda m: SymbolSpec(exp_plus_t=m.t, poles_minus=m.col_params),
        strong_szego_log_z, ("t", "col_params"), _poles("col_params"),
    ),
    ModelKind.TRIANGLE_POISSON_FS: _rule(_triangle_fs, ogroup_log_z, ("t", "alpha")),
    ModelKind.LATTICE_A_SYM: _rule(
        lambda m: SymbolSpec(zeros_plus=(m.alpha,) + m.row_params),
        ogroup_log_z, ("alpha", "row_params"), _symmetric_products,
    ),
    ModelKind.LATTICE_C_SYM: _rule(
        lambda m: SymbolSpec(zeros_plus=(m.alpha,), poles_plus=m.row_params),
        ogroup_log_z, ("alpha", "row_params"), _symmetric_products,
    ),
}


def param_flags(kind: ModelKind) -> dict[str, str]:
    """{ModelSpec field: command-line flag} of every field ``kind`` reads.

    A scalar's flag is its own name; the first list the kind reads is
    ``q`` and the second ``qp``, so the lines' one list, ``col_params``,
    is ``q``.  Flags are named as argparse stores them (``alpha_plus``
    for ``--alpha-plus``).
    """
    lists = iter(("q", "qp"))
    return {
        name: next(lists) if name in _LISTS else name
        for name in MODEL_RULES[kind].params
    }


def build_symbol(model: ModelSpec) -> SymbolSpec:
    """The circle symbol whose determinants solve ``model`` (``MODEL_RULES``)."""
    return MODEL_RULES[model.kind].symbol(model)


def normalization_log_z(model: ModelSpec) -> float:
    """log of the normalization constant Z of the model's law, the
    large-order limit of its determinants, in closed form in the factors
    of its symbol.  Toeplitz kinds take the strong Szego limit (Borodin and
    Okounkov, arXiv:math/9907165)

        tp tm + tp (sum b + sum d) + tm (sum a + sum c) - sum log(1 - ab)
        + sum log(1 + ad) + sum log(1 + cb) - sum log(1 - cd),

    group-average kinds, psi = e^{tz} prod(1 + az) / prod(1 - cz), the
    O(infinity) limit (Baik and Rains, arXiv:math/9905083)

        t^2/2 + t (sum a + sum c) - sum_{i<j} log(1 - a_i a_j)
        - sum_{i<=j} log(1 - c_i c_j) + sum log(1 + ac).

    The triangle takes the group form of the triangle-FS psi; only the
    external-source kind has a term of its own, (alpha+ + alpha-) t.
    """
    return MODEL_RULES[model.kind].log_z(model)
