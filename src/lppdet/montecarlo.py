"""Samplers and enumeration oracles for every percolation model.

This module is the ground truth the determinant formulas are tested
against: direct simulation of the point processes and lattice arrays, a
block of draws at a time, exhaustive enumeration over small permutation
groups, and an exact hook-length route to the permutation distribution
for sizes far beyond enumeration range.

Path semantics, resolved against the determinant normalizations:
weak-direction steps may repeat a coordinate and sums accumulate entry
values; along a strictly increasing chain a cell can contribute at most
one point, so the strict/strict models count occupied cells.  The two
line-process models differ in whether a chain may use several points of
the same line (weak) or at most one (strict); position along the lines
is strictly ordered almost surely either way.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .symbols import ModelKind, ModelSpec

__all__ = [
    "SimConfig",
    "EmpiricalCdf",
    "patience_lis",
    "LATTICES",
    "brute_force_lis_distribution",
    "plancherel_lis_cdf",
    "poissonized_square_cdf",
    "SAMPLERS",
    "run_simulation",
]


def patience_lis(values, strict: bool = True) -> int:
    """Longest increasing subsequence length by patience sorting.

    ``strict=True`` counts strictly increasing subsequences,
    ``strict=False`` nondecreasing ones.
    """
    tops: list = []
    insert = bisect.bisect_left if strict else bisect.bisect_right
    for v in values:
        idx = insert(tops, v)
        if idx == len(tops):
            tops.append(v)
        else:
            tops[idx] = v
    return len(tops)


def _patience_rows(flat, starts, lens, strict: bool = True, prefix=None) -> np.ndarray:
    """``patience_lis`` of every row r = ``flat[starts[r] : starts[r] + lens[r]]``.

    Patience sorting takes one step per point, so step j advances every
    row longer than j by one numpy operation on their j-th points, read
    from ``flat`` where they were drawn.  Rows are sorted by length,
    longest first, so the rows still active at a step come first; the
    pile tops are stored as (pile, row), so the comparison against every
    pile of the active rows reads contiguous memory.  Each row's tops
    increase along its piles, so the number of tops below the new value
    (strict) or at most it (weak) is the pile the value lands on, as
    bisect_left / bisect_right give in ``patience_lis``.  Row r of a
    (rows, k) ``prefix``, a chain (sorted, strictly if ``strict``) padded
    with inf, comes before row r: its entries open the first piles.
    """
    lens = np.asarray(lens, dtype=np.int64)
    rows = len(lens)
    width = int(lens.max(initial=0))
    order = np.argsort(-lens, kind="stable")
    first = np.asarray(starts, dtype=np.int64)[order]
    active = rows - np.searchsorted(np.sort(lens), np.arange(width), side="right")
    below = np.less if strict else np.less_equal
    head = np.empty((rows, 0)) if prefix is None else prefix
    piles = head.shape[1]
    # a pile index fits in int16 below 2^15 piles, and its sum runs
    # about twice as fast as one in intp
    index_type = np.int16 if piles + width < 2**15 else np.intp
    tops = np.vstack([head[order].T, np.full((8, rows), np.inf)])
    where = np.arange(rows)
    for j, a in enumerate(active.tolist()):
        v = flat.take(first[:a] + j)
        idx = below(tops[:piles, :a], v).sum(axis=0, dtype=index_type)
        if idx.max() == piles:
            piles += 1
            if piles == len(tops):
                tops = np.vstack([tops, np.full_like(tops, np.inf)])
        tops[idx, where[:a]] = v
    out = np.empty(rows, dtype=np.int64)
    out[order] = np.count_nonzero(tops[:piles] < np.inf, axis=0)
    return out


def _geom(rng: np.random.Generator, p, size: int) -> np.ndarray:
    """Geometric counts of failures >= 0, P(X >= k) = p^k, one per cell and draw.

    ``p`` is a scalar or an array of cells; the result has shape
    ``p.shape + (size,)``, draws last.  By inversion of one uniform U,
    X = floor(log(1 - U) / log p) has exactly this law, since P(X >= k) =
    P(1 - U <= p^k) = p^k; p = 0 gives 1 / log p = -0 and X = 0.  The
    uniforms are drawn a row of cells at a time into one float buffer, in
    the order of one call for the whole array, so a block never holds a
    float copy of all its entries.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        inv_log = 1.0 / np.log(p)
    out = np.empty(p.shape + (size,), dtype=np.int64)
    u = np.empty(p.shape[-1:] + (size,))
    for row in np.ndindex(p.shape[:-1]):
        rng.random(out=u)
        np.log1p(np.negative(u, out=u), out=u)
        u *= inv_log[row][..., np.newaxis]
        # the values are >= 0, so truncation toward zero is the floor
        out[row] = u
    return out


def _bernoulli(rng: np.random.Generator, p, size: int) -> np.ndarray:
    """Occupancy, P(X = 1) = p, one uint8 per cell and draw, shaped as ``_geom``'s.

    One random byte B per cell, the little-endian bytes of one
    ``random_raw`` call in flat order, against the threshold byte T =
    min(floor(256 p), 255): B < T gives 1 and B > T gives 0.  A tie B = T
    is settled by one uniform U per tie, drawn in flat order after the
    bytes: 1 when U < 256 p - T.  So P(X = 1) = (T + 256 p - T) / 256 = p,
    exact up to the 2^-53 grid of U over 256, about 2^-61.  The ties are
    found a row of cells at a time, so no mask as large as the bytes is
    held beside them.
    """
    p = np.asarray(p, dtype=float)
    t = np.minimum(np.floor(256.0 * p), 255.0)
    rest = (256.0 * p - t).ravel()
    t = t.astype(np.uint8)[..., np.newaxis]
    count = p.size * size
    raw = rng.bit_generator.random_raw(-(-count // 8)).astype("<u8", copy=False)
    out = raw.view(np.uint8)[:count].reshape(p.shape + (size,))
    width = p.shape[-1] if p.ndim else 1  # cells per row
    rows, row_t = out.reshape(-1, width, size), t.reshape(-1, width, 1)
    ties = np.concatenate([
        np.flatnonzero(row == at) + i * row.size
        for i, (row, at) in enumerate(zip(rows, row_t))
    ])
    np.less(out, t, out=out)
    out.flat[ties] = rng.random(len(ties)) < rest[ties // size]
    return out


# Lattice arrays are laid out (M, N, draws): a cell of every draw of a
# block is one contiguous vector, and the path rules advance a row at a
# time with in-place ufuncs on those vectors.  A kind's entries are one
# cell law, ``_geom`` or ``_bernoulli``, applied to a matrix of cell
# parameters.


def _grid(cell, at):
    """Independent entries, ``cell`` at ``at(q_i q'_j)``."""

    def entries(model: ModelSpec, rng: np.random.Generator, size: int):
        return cell(rng, at(np.outer(model.row_params, model.col_params)), size)

    return entries


def _symmetric(cell, diagonal):
    """Symmetric entries: ``cell`` at q_i q_j above the diagonal, mirrored
    below it, then at ``diagonal(alpha, q_i)`` on it.

    The upper triangle is drawn a row at a time straight into the array,
    in the row-major order of one call for the whole triangle.
    """

    def entries(model: ModelSpec, rng: np.random.Generator, size: int):
        q = np.asarray(model.row_params, dtype=float)
        n = len(q)
        x = np.empty((n, n, size), dtype=np.uint8 if cell is _bernoulli else np.int64)
        for i in range(n - 1):
            x[i, i + 1 :] = x[i + 1 :, i] = cell(rng, q[i] * q[i + 1 :], size)
        k = np.arange(n)
        x[k, k] = cell(rng, diagonal(model.alpha, q), size)
        return x

    return entries


def _weak_weak(x: np.ndarray) -> np.ndarray:
    """Sums entries along weakly monotone chains.

    ``row[j]`` holds the best sum ending at (i - 1, j) until cell (i, j)
    overwrites it with max(row[j], row[j - 1]) + x[i, j].
    """
    m, n, size = x.shape
    row = np.zeros((n, size), dtype=np.int64)
    for i in range(m):
        row[0] += x[i, 0]
        for j in range(1, n):
            np.maximum(row[j], row[j - 1], out=row[j])
            row[j] += x[i, j]
    return row[-1]


def _running_max(a: np.ndarray) -> None:
    """Running maximum down the first axis, in place.

    One ufunc call per row of contiguous draws: ``np.maximum.accumulate``
    along the first axis walks each draw's short strided column instead,
    about three times slower here.
    """
    for k in range(1, len(a)):
        np.maximum(a[k], a[k - 1], out=a[k])


def _weak_strict(x: np.ndarray) -> np.ndarray:
    """Sums entries along chains with a weak row and a strict column step.

    After column j, ``prefix[i]`` is the best chain ending at a cell
    (i', j') with i' <= i and j' <= j, the predecessors a cell of column
    j + 1 may take.  Entries are >= 0, so a chain ending in column j is
    never worse than the best before it and the new prefix is the running
    maximum of x[:, j] + prefix down the column.  Byte entries are 0/1
    occupancy, so a chain takes at most one per column: below 256 columns
    it fits a byte and the sums run in uint8, otherwise in int64.
    """
    m, n, size = x.shape
    small = x.dtype == np.uint8 and n < 256
    prefix = np.zeros((m, size), dtype=np.uint8 if small else np.int64)
    for j in range(n):
        prefix += x[:, j]
        _running_max(prefix)
    return prefix[-1]


def _strict_strict(x: np.ndarray) -> np.ndarray:
    """Counts occupied cells along strictly monotone chains.

    ``best[j + 1]`` holds the most occupied cells on a chain in rows <= i
    and columns <= j; ``best[0]`` stays 0.  Row i takes, per column,
    max(best[j] + occ, best[j + 1]) from the row above and then the
    running maximum along the row; ``best`` never falls along a row, so
    this is max(occ * (1 + best[j]), best[j + 1]).  A chain holds at most
    min(M, N) cells, so below 256 the counts run in uint8.
    """
    m, n, size = x.shape
    occ = x > 0
    best = np.zeros((n + 1, size), dtype=np.uint8 if min(m, n) < 256 else np.int64)
    here = np.empty_like(best[1:])
    for i in range(m):
        np.add(best[:-1], occ[i], out=here)
        np.maximum(here, best[1:], out=best[1:])
        _running_max(best[1:])
    return best[-1]


# lattice kind -> (entry law(model, rng, size) -> arrays (M, N, size),
#                  path rule(arrays) -> longest-path values, one per draw).
# A strict/strict chain counts occupied cells, so lattice-c and
# lattice-c-sym draw occupancy: P(X > 0) = p off the diagonal, and
# 1 - P(g' = 0) = 1 - (1 - q^2)/(1 + alpha q) on the diagonal of the
# symmetrized model, whose law is proportional to alpha^(k mod 2) q^k.
LATTICES = {
    ModelKind.LATTICE_A: (_grid(_geom, lambda p: p), _weak_weak),
    ModelKind.LATTICE_B: (_grid(_bernoulli, lambda p: p / (1.0 + p)), _weak_strict),
    ModelKind.LATTICE_C: (_grid(_bernoulli, lambda p: p), _strict_strict),
    ModelKind.LATTICE_A_SYM: (_symmetric(_geom, lambda a, q: a * q), _weak_weak),
    ModelKind.LATTICE_C_SYM: (
        _symmetric(_bernoulli, lambda a, q: 1.0 - (1.0 - q * q) / (1.0 + a * q)),
        _strict_strict,
    ),
}


_BRUTE_FORCE_MAX = 8


def brute_force_lis_distribution(n: int) -> dict[int, int]:
    """Exact counts of longest-increasing-subsequence lengths over S_n."""
    if not 0 <= n <= _BRUTE_FORCE_MAX:
        raise ValidationError(
            f"enumeration supports n <= {_BRUTE_FORCE_MAX}, got {n}"
        )
    if n == 0:
        return {0: 1}
    counts: dict[int, int] = {}
    for perm in itertools.permutations(range(n)):
        ell = patience_lis(perm, strict=True)
        counts[ell] = counts.get(ell, 0) + 1
    return counts


def _partitions_capped(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_capped(n - first, first):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def _dimension_squared(shape: tuple[int, ...]) -> int:
    # hook length formula; exact integers throughout
    n = sum(shape)
    cols = [0] * (shape[0] if shape else 0)
    for row_len in shape:
        for j in range(row_len):
            cols[j] += 1
    hooks = 1
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            hooks *= (row_len - j) + (cols[j] - i) - 1
    dim, rem = divmod(math.factorial(n), hooks)
    if rem:
        raise ValidationError("hook product does not divide n! (bug)")
    return dim * dim


_PLANCHEREL_MAX = 40


@functools.lru_cache(maxsize=None)
def plancherel_lis_cdf(n: int, ell: int) -> Fraction:
    """Exact P(LIS <= ell) on S_n via squared dimensions of shapes.

    Sums (dim of the shape)^2 over partitions of n with first row at
    most ell; exact integer arithmetic, valid far beyond enumeration
    range.
    """
    if n < 0 or n > _PLANCHEREL_MAX:
        raise ValidationError(
            f"supported range is 0 <= n <= {_PLANCHEREL_MAX}, got {n}"
        )
    if ell <= 0:
        return Fraction(1 if n == 0 else 0)
    if n == 0:
        return Fraction(1)
    total = sum(
        _dimension_squared(shape) for shape in _partitions_capped(n, ell)
    )
    return Fraction(total, math.factorial(n))


# Poisson mass left unsummed once the sum may stop; far below the
# rounding of a probability near 1
_POISSON_TAIL = 1e-20


def poissonized_square_cdf(t: float, ell: int):
    """Poisson(t^2)-size mixture of the permutation laws, with tail bound.

    Returns (value, truncation bound); the bound is the Poisson mass not
    summed, since each conditional law is at most 1.  The sum stops at the
    first n > t^2 whose tail is provably below _POISSON_TAIL, or at
    _PLANCHEREL_MAX.  Beyond n each weight is at most lam / (n + 2) times
    the one before, so the tail is at most w_(n+1) / (1 - lam / (n + 2)).
    """
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    lam = t * t
    value = 0.0
    mass = 0.0
    for n in range(_PLANCHEREL_MAX + 1):
        if lam == 0.0:
            weight = 1.0 if n == 0 else 0.0
        else:
            weight = math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
        mass += weight
        value += weight * float(plancherel_lis_cdf(n, ell))
        if n > lam and weight * lam / (n + 1) < _POISSON_TAIL * (1.0 - lam / (n + 2)):
            break
    return value, 1.0 - mass


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run."""

    model: ModelSpec
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValidationError(f"trials must be positive, got {self.trials}")
        if self.workers <= 0:
            raise ValidationError(f"workers must be positive, got {self.workers}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")

    @property
    def block_size(self) -> int:
        """Draws per block; each block has its own random stream.

        A Poisson kind's block holds 2048 draws.  A lattice kind's holds
        the largest multiple of 2048 whose entries fit ``_BLOCK_CELLS``,
        at least 2048: 65,536 draws of a 2x2 array, 2048 of a 20x20 one.
        Manifests record it as ``diagnostics.block_size``, and the seeded
        counts depend on it.
        """
        if self.model.kind not in LATTICES:
            return _BLOCK_SIZE
        rows = len(self.model.row_params)
        cells = rows * len(self.model.col_params or self.model.row_params)
        return _BLOCK_SIZE * max(1, _BLOCK_CELLS // (_BLOCK_SIZE * cells))

    @property
    def blocks(self) -> int:
        return -(-self.trials // self.block_size)


@dataclass
class EmpiricalCdf:
    """Integer value counts from simulation, with binomial error bars."""

    counts: dict[int, int]
    trials: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.trials:
            raise ValidationError("counts do not sum to trials")

    def cdf_at(self, ell: int) -> float:
        hits = sum(c for v, c in self.counts.items() if v <= ell)
        return hits / self.trials

    def csv_rows(self) -> list[tuple[int, int, float, float]]:
        """(value, count, cdf, stderr) per value, in one cumulative pass."""
        rows = []
        hits = 0
        for v in sorted(self.counts):
            hits += self.counts[v]
            p = hits / self.trials
            stderr = math.sqrt(p * (1.0 - p) / self.trials)
            rows.append((v, self.counts[v], p, stderr))
        return rows


_BLOCK_SIZE = 2048

# entries of one lattice block's (M, N, draws) array, 2 MiB in int64; at
# twice this a 2x2 block's peak memory would pass every other kind's
_BLOCK_CELLS = 1 << 18

# points of one row chunk, counted as its rows times its longest row; a
# block with more is sampled in row chunks, cut from the block's own point
# counts so that the chunking never depends on the worker count
_PAD_ELEMENTS = 1 << 20


def _in_chunks(counts: np.ndarray, sample_rows) -> np.ndarray:
    """Chain values of a block, ``sample_rows(counts[chunk])`` per row chunk.

    ``counts`` holds one row per draw and one column per point process.
    A block without points is all 0 and never reaches ``sample_rows``.
    """
    lens = counts.sum(axis=1)
    out = np.zeros(len(lens), dtype=np.int64)
    width = int(lens.max(initial=0))
    if width == 0:
        return out
    step = max(1, _PAD_ELEMENTS // width)
    for lo in range(0, len(lens), step):
        out[lo : lo + step] = sample_rows(counts[lo : lo + step])
    return out


def _square_block(model: ModelSpec, rng: np.random.Generator, count: int):
    """Longest chains among Poisson(t^2) uniform points in a square.

    Sorting the points by x leaves their y values in uniformly random
    order, independent of the point count, so the chain is the longest
    increasing subsequence of ``rng.random(n)`` in the order drawn and the
    x coordinates are never drawn.  A chunk's rows are one flat stream.
    """
    counts = rng.poisson(model.t * model.t, size=(count, 1))

    def rows(c):
        n = c[:, 0]
        return _patience_rows(rng.random(int(n.sum())), np.cumsum(n) - n, n, strict=True)

    return _in_chunks(counts, rows)


def _sorted_uniforms(rng: np.random.Generator, lens: np.ndarray) -> np.ndarray:
    """Row r's first ``lens[r]`` entries are ``lens[r]`` sorted uniforms on [0, 1].

    Normalized exponential spacings (Devroye 1986, ch. V): with E_1, ...,
    E_(n+1) standard exponential and S_k = E_1 + ... + E_k, the ratios
    S_1 / S_(n+1) < ... < S_n / S_(n+1) have the law of n sorted uniforms.
    Each row draws to the widest row's length; callers overwrite or skip
    the entries past a row's own.
    """
    width = int(lens.max(initial=0))
    s = rng.standard_exponential((len(lens), width + 1))
    np.cumsum(s, axis=1, out=s)
    s /= np.take_along_axis(s, lens[:, np.newaxis], axis=1)
    return s[:, :width]


def _triangle_block(model: ModelSpec, rng: np.random.Generator, count: int):
    """Bulk points uniform on the triangle y < x < t plus diagonal points.

    The diagonal process has rate alpha per unit of x, so the x
    coordinates of all points form one Poisson process of intensity
    x + alpha on [0, t], of total mass t^2/2 + alpha t.  Its points are
    drawn in x order: sorted uniforms u, mapped through the inverse of the
    cumulative intensity to x = sqrt(alpha^2 + 2 mass u) - alpha.  A point
    at x is diagonal (y = x) with probability alpha / (x + alpha) and
    otherwise has y uniform on [0, x); one uniform z on [-alpha, x) gives
    both, diagonal when z < 0 and y = z otherwise.  The chain is then the
    longest strictly increasing subsequence of the y values in the order
    drawn; y overwrites z, whose row r starts at r times the widest row.
    """
    t, alpha = model.t, model.alpha
    mass = t * (0.5 * t + alpha)
    counts = rng.poisson(mass, size=(count, 1))

    def rows(c):
        x = np.sqrt(alpha * alpha + 2.0 * mass * _sorted_uniforms(rng, c[:, 0])) - alpha
        z = rng.random(x.shape) * (x + alpha) - alpha
        np.copyto(z, x, where=z < 0.0)
        starts = np.arange(len(c)) * z.shape[1]
        return _patience_rows(z.reshape(-1), starts, c[:, 0], strict=True)

    return _in_chunks(counts, rows)


def _external_block(model: ModelSpec, rng: np.random.Generator, count: int):
    """The square process plus sources on both axes; no point at the corner.

    Axis points share a coordinate, so chains are taken in the weak
    (product) order; in the bulk this coincides with strict chains almost
    surely.  In x order the points on the y axis (x = 0, rate alpha_-
    t) come first, y ascending, drawn as sorted uniforms: a chain, the
    kernel's ``prefix``.  The rest, a flat stream as the square's, form
    one Poisson process of intensity t + alpha_+ along (0, t]: each of its
    points lies on the x axis (y = 0) with probability alpha_+ / (t +
    alpha_+) and otherwise has y uniform on [0, t).  As for the square,
    their x coordinates are never drawn: one uniform z on [-alpha_+, t)
    gives y = max(z, 0).
    """
    t, a_plus = model.t, model.alpha_plus
    counts = rng.poisson([model.alpha_minus * t, t * (t + a_plus)], size=(count, 2))

    def rows(c):
        on_y = _sorted_uniforms(rng, c[:, 0])
        on_y[np.arange(on_y.shape[1]) >= c[:, :1]] = np.inf
        on_y *= t
        n = c[:, 1]
        rest = rng.random(int(n.sum())) * (t + a_plus) - a_plus
        np.maximum(rest, 0.0, out=rest)
        return _patience_rows(rest, np.cumsum(n) - n, n, strict=False, prefix=on_y)

    return _in_chunks(counts, rows)


def _lines_block(model: ModelSpec, rng: np.random.Generator, count: int):
    """Longest chains through Poisson points on parallel lines.

    Line i carries a Poisson(q_i t) process of positions.  Merged, the
    lines form one Poisson(t sum q) process whose line labels are i.i.d.
    with weights q / sum q, so the labels are drawn in position order, a
    flat stream as the square's, and never sorted.  A chain may use
    several points of one line in model D (weak order) and at most one in
    model E (strict order).
    """
    rates = np.asarray(model.col_params, dtype=float)
    lines = np.flatnonzero(rates > 0.0)  # a line of rate 0 gets no point
    cum = np.cumsum(rates[lines])
    counts = rng.poisson(model.t * float(rates.sum()), size=(count, 1))
    strict = model.kind == ModelKind.POISSON_LINES_E

    def rows(c):
        n = c[:, 0]
        u = rng.random(int(n.sum()))
        u *= cum[-1]
        index = np.searchsorted(cum[:-1], u, side="right")
        del u  # the uniforms go before the labels are gathered
        labels = lines[index]
        return _patience_rows(labels, np.cumsum(n) - n, n, strict=strict)

    return _in_chunks(counts, rows)


def _lattice_block(model: ModelSpec, rng: np.random.Generator, count: int):
    entries, path = LATTICES[model.kind]
    return path(entries(model, rng, count))


# kind -> sampler(model, rng, count) returning ``count`` chain values, each
# drawing the whole block at once
SAMPLERS = {
    ModelKind.POISSON_SQUARE: _square_block,
    ModelKind.POISSON_TRIANGLE: _triangle_block,
    ModelKind.TRIANGLE_POISSON_FS: _triangle_block,
    ModelKind.POISSON_EXTERNAL: _external_block,
    ModelKind.POISSON_LINES_D: _lines_block,
    ModelKind.POISSON_LINES_E: _lines_block,
    **dict.fromkeys(LATTICES, _lattice_block),
}
_BATCH_KINDS = tuple(SAMPLERS)  # read by the benchmark tracer


def _run_block(args) -> dict[int, int]:
    model, seed, block_index, count = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    values = SAMPLERS[model.kind](model, rng, count)
    freq = np.bincount(values)
    uniq = np.flatnonzero(freq)
    return dict(zip(uniq.tolist(), freq[uniq].tolist()))


def run_simulation(config: SimConfig) -> EmpiricalCdf:
    """Simulate the configured model and collect value counts.

    Trials are partitioned into blocks of ``config.block_size`` draws,
    which depends on the model only, each with its own stream of numpy's
    default generator (PCG64) seeded by the seed sequence of (seed, block
    index), so the merged integer counts do not depend on the worker count
    or scheduling.  At most one process runs per block.
    """
    size = config.block_size
    jobs = [
        (config.model, config.seed, b, min(size, config.trials - b * size))
        for b in range(config.blocks)
    ]
    totals: dict[int, int] = {}
    # the pool starts all its processes at the first submit, so it gets
    # no more of them than there are blocks
    workers = min(config.workers, config.blocks)
    if workers == 1:
        results = map(_run_block, jobs)
    else:
        # concurrent.futures and multiprocessing cost about 24 ms to import,
        # so a single-worker run does not load them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, jobs, chunksize=1))
    for block in results:
        for v, c in block.items():
            totals[v] = totals.get(v, 0) + c
    return EmpiricalCdf(counts=totals, trials=config.trials)
