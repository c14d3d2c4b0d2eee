"""Oracles for the samplers, used by the tests only.

Per-draw samplers of the Poisson models: one draw at a time, every point
placed by its coordinates and every chain found by sorting the points and
patience sorting in Python.  The package samples a whole block of draws at
once instead (``montecarlo.SAMPLERS``), and the tests compare the two in
distribution.  Also quadratic dynamic programs for the longest increasing
subsequence and the lattice path rules, and a numerical check of the
parity-weighted geometric diagonal law.
"""

import numpy as np

from lppdet.errors import ValidationError
from lppdet.montecarlo import patience_lis
from lppdet.symbols import ModelKind, ModelSpec


def longest_chain_2d(xs: np.ndarray, ys: np.ndarray, strict: bool = True) -> int:
    """Longest chain of planar points increasing in both coordinates.

    Sorting is by x ascending; equal x (possible only for boundary
    points, measure zero otherwise) is broken by y descending in the
    strict case and y ascending in the weak case, so that patience
    sorting over y realizes exactly the admissible chains.
    """
    if len(xs) == 0:
        return 0
    order = np.lexsort((-ys, xs) if strict else (ys, xs))
    return patience_lis(ys[order].tolist(), strict=strict)


def sample_poisson_square(t: float, rng: np.random.Generator) -> int:
    """One draw of the longest chain among Poisson points in a square."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    n = rng.poisson(t * t)
    if n == 0:
        return 0
    return longest_chain_2d(rng.random(n), rng.random(n), strict=True)


def sample_triangle(t: float, alpha: float, rng: np.random.Generator) -> int:
    """Longest chain for bulk points below the diagonal plus diagonal points.

    The diagonal one-dimensional process has rate alpha per unit of the
    x coordinate; bulk points are uniform on the open triangle y < x.
    """
    if t < 0 or alpha < 0:
        raise ValidationError("need t >= 0 and alpha >= 0")
    n_bulk = rng.poisson(0.5 * t * t)
    u = rng.random(n_bulk) * t
    v = rng.random(n_bulk) * t
    n_diag = rng.poisson(alpha * t)
    d = rng.random(n_diag) * t
    xs = np.concatenate([np.maximum(u, v), d])
    ys = np.concatenate([np.minimum(u, v), d])
    return longest_chain_2d(xs, ys, strict=True)


def sample_external(
    t: float, a_plus: float, a_minus: float, rng: np.random.Generator
) -> int:
    """Longest chain for the square process with sources on both axes.

    Axis points share a coordinate, so chains are taken in the weak
    (product) order.  The corner carries no point.
    """
    if t < 0 or a_plus < 0 or a_minus < 0:
        raise ValidationError("rates must be >= 0")
    n = rng.poisson(t * t)
    xs = [rng.random(n) * t]
    ys = [rng.random(n) * t]
    n_x = rng.poisson(a_plus * t)
    xs.append(rng.random(n_x) * t)
    ys.append(np.zeros(n_x))
    n_y = rng.poisson(a_minus * t)
    xs.append(np.zeros(n_y))
    ys.append(rng.random(n_y) * t)
    return longest_chain_2d(np.concatenate(xs), np.concatenate(ys), strict=False)


def _sample_lines(model: ModelSpec, rng: np.random.Generator) -> int:
    """Every line's points placed by position, then sorted along the lines."""
    t = model.t
    idx = []
    pos = []
    for i, q in enumerate(model.col_params):
        k = rng.poisson(q * t)
        idx.append(np.full(k, i))
        pos.append(rng.random(k) * t)
    line = np.concatenate(idx)
    x = np.concatenate(pos)
    if len(x) == 0:
        return 0
    order = np.argsort(x, kind="stable")
    strict = model.kind == ModelKind.POISSON_LINES_E
    return patience_lis(line[order].tolist(), strict=strict)


# kind -> one draw, the per-draw counterpart of ``montecarlo.SAMPLERS``
ORACLES = {
    ModelKind.POISSON_SQUARE: lambda m, rng: sample_poisson_square(m.t, rng),
    ModelKind.POISSON_TRIANGLE: lambda m, rng: sample_triangle(m.t, m.alpha, rng),
    ModelKind.TRIANGLE_POISSON_FS: lambda m, rng: sample_triangle(m.t, m.alpha, rng),
    ModelKind.POISSON_EXTERNAL: lambda m, rng: sample_external(
        m.t, m.alpha_plus, m.alpha_minus, rng
    ),
    ModelKind.POISSON_LINES_D: _sample_lines,
    ModelKind.POISSON_LINES_E: _sample_lines,
}


def lis_quadratic(values, strict: bool = True) -> int:
    """O(n^2) dynamic-programming oracle for ``patience_lis``."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n == 0:
        return 0
    best = np.ones(n, dtype=np.int64)
    for i in range(1, n):
        mask = v[:i] < v[i] if strict else v[:i] <= v[i]
        if mask.any():
            best[i] = 1 + best[:i][mask].max()
    return int(best.max())


def g_prime_pmf_check(alpha: float, q: float, tol: float = 1e-12) -> None:
    """Verify the parity-weighted geometric law sums to one.

    The law P(k) proportional to alpha^(k mod 2) q^k normalizes to
    (1 - q^2)/(1 + alpha q); this check sums the series numerically with
    a geometric tail bound.
    """
    if not (0.0 <= q < 1.0) or alpha < 0.0:
        raise ValidationError(
            f"need q in [0,1) and alpha >= 0, got q={q}, alpha={alpha}"
        )
    if q == 0.0:
        return
    c = (1.0 - q * q) / (1.0 + alpha * q)
    total = 0.0
    k_top = 400
    for k in range(k_top + 1):
        total += c * (alpha if k % 2 else 1.0) * q**k
    tail = c * max(1.0, alpha) * q ** (k_top + 1) / (1.0 - q)
    if abs(total - 1.0) > tol + tail:
        raise ValidationError(
            f"parity-geometric law fails to normalize: sum={total!r}"
        )


# lattice kind -> (predecessor rule, cell value) of the path rules in
# ``montecarlo.LATTICES``
_PATH_RULES = {
    ModelKind.LATTICE_A: (lambda a, b: a[0] <= b[0] and a[1] <= b[1], False),
    ModelKind.LATTICE_B: (lambda a, b: a[0] <= b[0] and a[1] < b[1], False),
    ModelKind.LATTICE_C: (lambda a, b: a[0] < b[0] and a[1] < b[1], True),
}
_PATH_RULES[ModelKind.LATTICE_A_SYM] = _PATH_RULES[ModelKind.LATTICE_A]
_PATH_RULES[ModelKind.LATTICE_C_SYM] = _PATH_RULES[ModelKind.LATTICE_C]


def lattice_chain_reference(x: np.ndarray, kind: ModelKind) -> int:
    """O((MN)^2) oracle over all admissible predecessor pairs; one array.

    Strict/strict chains count occupied cells, the others sum entries.
    """
    admissible, counts_cells = _PATH_RULES[kind]
    m, n = x.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    if counts_cells:
        cells = [c for c in cells if x[c] > 0]
    best = {}
    out = 0
    for b in cells:  # row-major order dominates the partial orders
        value = 1 if counts_cells else x[b]
        best[b] = value + max(
            (best[a] for a in best if admissible(a, b)), default=0
        )
        out = max(out, best[b])
    return int(out)
