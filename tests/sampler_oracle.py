"""Per-draw samplers of the Poisson models: a test oracle.

One draw at a time, every point placed by its coordinates and every chain
found by sorting the points and patience sorting in Python.  The package
samples a whole block of draws at once instead (``montecarlo.SAMPLERS``),
and the tests compare the two in distribution.
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
