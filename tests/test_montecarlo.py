"""Samplers, combinatorial oracles, and the reproducible counting loop."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lppdet import montecarlo
from lppdet.errors import ValidationError
from lppdet.exact_dist import certified_law, exact_law
from lppdet.montecarlo import (
    LATTICES,
    SAMPLERS,
    EmpiricalCdf,
    SimConfig,
    _patience_rows,
    brute_force_lis_distribution,
    patience_lis,
    plancherel_lis_cdf,
    poissonized_square_cdf,
    run_simulation,
)
from lppdet.symbols import ModelKind, ModelSpec, SymbolSpec
from sampler_oracle import (
    ORACLES,
    g_prime_pmf_check,
    lattice_chain_reference,
    lis_quadratic,
    longest_chain_2d,
    sample_poisson_square,
)
from ogroup_quadrature import haar_orthogonal_expectation
from route_points import group_mean

# ---------------------------------------------------------------- sequences


@settings(deadline=None, max_examples=200)
@given(
    values=st.lists(st.integers(0, 9), max_size=30),
    strict=st.booleans(),
)
def test_patience_matches_quadratic_dp(values, strict):
    assert patience_lis(values, strict=strict) == lis_quadratic(
        values, strict=strict
    )


def test_patience_edge_cases():
    assert patience_lis([]) == 0
    assert patience_lis([5, 5, 5], strict=True) == 1
    assert patience_lis([5, 5, 5], strict=False) == 3
    assert patience_lis([1, 2, 3, 4], strict=True) == 4
    assert patience_lis([4, 3, 2, 1], strict=True) == 1


def _chain_dp(points, strict):
    """Quadratic oracle over explicit planar points."""
    pts = sorted(points)
    best = []
    for i, (x, y) in enumerate(pts):
        prev = 0
        for j in range(i):
            xj, yj = pts[j]
            ok = (xj < x and yj < y) if strict else (xj <= x and yj <= y)
            if ok:
                prev = max(prev, best[j])
        best.append(prev + 1)
    return max(best, default=0)


@settings(deadline=None, max_examples=150)
@given(
    points=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=22
    ),
    strict=st.booleans(),
)
def test_longest_chain_matches_point_dp(points, strict):
    """Integer coordinates force ties, the case the sort-order choice in
    the patience reduction exists for."""
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    assert longest_chain_2d(xs, ys, strict=strict) == _chain_dp(points, strict)


def _stream(rows):
    """Ragged rows as one flat stream and their starts and lengths.

    The rows are laid out last first with a junk entry before each, so
    the kernel must read every row where its start says.
    """
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    flat, starts = [], np.zeros(len(rows), dtype=np.int64)
    for i in reversed(range(len(rows))):
        flat.append(-7)
        starts[i] = len(flat)
        flat.extend(rows[i])
    return np.array(flat, dtype=float), starts, lens


_ROWS = st.lists(
    st.one_of(
        st.lists(st.integers(0, 4), max_size=25),
        st.builds(lambda v, n: [v] * n, st.integers(0, 4), st.integers(0, 12)),
    ),
    min_size=1,
    max_size=8,
)


@settings(deadline=None, max_examples=200)
@given(rows=_ROWS, strict=st.booleans())
def test_patience_rows_match_patience_lis(rows, strict):
    """Integer ties, empty rows, all-equal rows and ragged lengths."""
    got = _patience_rows(*_stream(rows), strict=strict)
    assert got.tolist() == [patience_lis(r, strict=strict) for r in rows]


@settings(deadline=None, max_examples=200)
@given(rows=_ROWS, heads=st.lists(st.lists(st.integers(0, 4), max_size=6), min_size=8, max_size=8),
       strict=st.booleans())
def test_patience_rows_prefix_opens_the_first_piles(rows, heads, strict):
    """A sorted prefix (strictly for strict chains) padded with inf counts
    as if it came before its row, with ties against the row's entries."""
    heads = [sorted(set(h) if strict else h) for h in heads[: len(rows)]]
    prefix = np.full((len(rows), max(map(len, heads))), np.inf)
    for i, h in enumerate(heads):
        prefix[i, : len(h)] = h
    got = _patience_rows(*_stream(rows), strict=strict, prefix=prefix)
    assert got.tolist() == [patience_lis(h + r, strict=strict) for h, r in zip(heads, rows)]


# ------------------------------------------------- exact distribution data


@pytest.mark.parametrize("n", range(0, 8))
def test_enumeration_matches_hook_lengths(n):
    """Exhaustive search over S_n against the squared-dimension sums;
    both sides are exact integers."""
    counts = brute_force_lis_distribution(n)
    total = math.factorial(n)
    acc = 0
    for ell in range(0, n + 1):
        acc += counts.get(ell, 0)
        assert Fraction(acc, total) == plancherel_lis_cdf(n, ell)


def test_plancherel_cdf_saturates():
    assert plancherel_lis_cdf(12, 12) == Fraction(1)
    assert plancherel_lis_cdf(12, 0) == Fraction(0)
    assert plancherel_lis_cdf(0, 0) == Fraction(1)


def test_plancherel_range_guard():
    with pytest.raises(ValidationError):
        plancherel_lis_cdf(41, 3)
    with pytest.raises(ValidationError):
        brute_force_lis_distribution(9)


def test_poissonized_cdf_tail_and_monotonicity():
    vals = []
    for ell in range(0, 7):
        v, tail = poissonized_square_cdf(1.0, ell)
        assert tail < 1e-15
        assert 0.0 <= v <= 1.0 + 1e-12
        vals.append(v)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_poissonized_cdf_stops_early_with_the_full_sum():
    """Stopping once the Poisson tail is below 1e-20 leaves the value and
    the bound bit-identical to the sum over every n <= 40."""
    for t in (0.0, 0.5, 1.0, 2.0):
        lam = t * t
        for ell in (1, 2, 3):
            value = mass = 0.0
            for n in range(41):
                if lam == 0.0:
                    w = 1.0 if n == 0 else 0.0
                else:
                    w = math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
                mass += w
                value += w * float(plancherel_lis_cdf(n, ell))
            assert poissonized_square_cdf(t, ell) == (value, 1.0 - mass)


# ------------------------------------------------------------ entry laws


def test_g_prime_pmf_check_accepts_and_rejects():
    for alpha in (0.0, 0.5, 2.0):
        for q in (0.0, 0.3, 0.9):
            g_prime_pmf_check(alpha, q)
    with pytest.raises(ValidationError):
        g_prime_pmf_check(0.5, 1.0)
    with pytest.raises(ValidationError):
        g_prime_pmf_check(-0.1, 0.5)


def test_lattice_entry_marginals():
    rng = np.random.default_rng(99)
    model = ModelSpec(
        kind=ModelKind.LATTICE_A, row_params=(0.3,), col_params=(0.5,)
    )
    x = LATTICES[model.kind][0](model, rng, 200000)
    p = 0.15
    assert abs(x.mean() - p / (1.0 - p)) < 0.004
    bern = ModelSpec(
        kind=ModelKind.LATTICE_B, row_params=(0.6,), col_params=(0.7,)
    )
    y = LATTICES[bern.kind][0](bern, rng, 200000)
    assert set(np.unique(y)) <= {0, 1}
    assert abs(y.mean() - 0.42 / 1.42) < 0.004


def _pmf_z(draws: np.ndarray, pmf) -> float:
    """Largest |z| of the sampled frequencies of 0..len(pmf)-1."""
    n = len(draws)
    freq = np.bincount(draws, minlength=len(pmf))[: len(pmf)]
    pmf = np.asarray(pmf)
    return float(np.max(np.abs(freq - n * pmf) / np.sqrt(n * pmf * (1.0 - pmf))))


# 22 z-scores per test; 4.5 keeps a Bonferroni false alarm below 2e-4
_PMF_Z = 4.5


@pytest.mark.parametrize(
    "p",
    [0.0, 0.4, np.array([0.3, 0.0, 0.9]), np.array([[0.3, 0.5], [0.1, 0.9], [0.2, 0.0]])],
    ids=["zero", "scalar", "cells", "grid"],
)
def test_cell_laws_fill_rows_as_one_whole_array_call(p):
    """Geometric cells, drawn a row of cells at a time, equal one call for
    the whole array from the same generator state, inverting one uniform
    each.  Occupancy compares one random byte per cell, the little-endian
    bytes of one ``random_raw`` call, with floor(256 p), and settles the
    ties with one ``random`` call in flat order."""
    size = 513
    shape = np.shape(p) + (size,)
    with np.errstate(divide="ignore"):
        inv_log = 1.0 / np.log(p)
    u = np.random.default_rng(21).random(shape)
    want = (np.log1p(-u) * np.asarray(inv_log)[..., np.newaxis]).astype(np.int64)
    assert np.array_equal(montecarlo._geom(np.random.default_rng(21), p, size), want)
    rng = np.random.default_rng(22)
    count = math.prod(shape)
    raw = rng.bit_generator.random_raw(-(-count // 8))
    b = raw.astype("<u8").tobytes()[:count]
    b = np.frombuffer(b, dtype=np.uint8).reshape(shape).astype(np.int64)
    scaled = 256.0 * np.asarray(p, dtype=float)[..., np.newaxis]
    t = np.minimum(np.floor(scaled), 255.0)
    want = b < t
    ties = np.flatnonzero(b == t)
    want.flat[ties] = rng.random(len(ties)) < np.broadcast_to(scaled - t, shape).flat[ties]
    got = montecarlo._bernoulli(np.random.default_rng(22), p, size)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


@pytest.mark.parametrize("p", [0.0, 1 / 512, 0.5, 77.5 / 256, 0.999, 1.0])
def test_occupancy_bytes_are_exact_on_ties(p):
    """P(X = 1) = p within z <= 5 over 4 x 10^6 draws.  At p = 1/512 every
    1 comes from a tie with the byte 0, at 0.5 a tie is always 0, and at
    77.5 / 256 a tie is 1 half of the time; p = 0 draws 0 only, and p = 1,
    whose threshold byte is capped at 255, draws 1 only."""
    n = 4 * 10**6
    draws = montecarlo._bernoulli(np.random.default_rng(319), p, n)
    assert draws.shape == (n,) and draws.dtype == np.uint8 and draws.max(initial=0) <= 1
    ones = int(np.count_nonzero(draws))
    if p in (0.0, 1.0):
        assert ones == n * p
        return
    assert abs(ones - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)), (p, ones)


def test_sorted_uniforms_are_order_statistics():
    """Each row's first lens[r] entries increase within (0, 1], and the
    k-th of n has mean k / (n + 1)."""
    rng = np.random.default_rng(17)
    lens = np.array([0, 1, 3, 7] * 5000)
    u = montecarlo._sorted_uniforms(rng, lens)
    assert u.shape == (len(lens), 7)
    for n in (1, 3, 7):
        rows = u[lens == n, :n]
        assert np.all(np.diff(rows, axis=1) > 0.0)
        assert rows.min() > 0.0 and rows.max() <= 1.0
        k = np.arange(1, n + 1)
        sd = np.sqrt(k * (n + 1 - k) / ((n + 1) ** 2 * (n + 2)) / len(rows))
        assert np.all(np.abs(rows.mean(axis=0) - k / (n + 1)) < _PMF_Z * sd)


def test_geometric_entries_follow_the_geometric_pmf():
    rng = np.random.default_rng(314)
    assert not montecarlo._geom(rng, 0.0, 1000).any()
    grid = montecarlo._geom(rng, np.array([[0.3, 0.9]]), 100000)
    assert grid.shape == (1, 2, 100000)
    for p, draws in ((0.3, grid[0, 0]), (0.9, grid[0, 1])):
        pmf = [p**k * (1.0 - p) for k in range(11)]
        assert _pmf_z(draws, pmf) < _PMF_Z


@pytest.mark.parametrize("p", [0.0, 0.25, 0.81, 0.99])
def test_geometric_inversion_has_the_geometric_tail(p):
    """P(X >= k) = p^k for k <= 5, each tail frequency within z <= 5 over
    10^6 draws; p = 0 draws 0 only."""
    n = 10**6
    draws = montecarlo._geom(np.random.default_rng(318), p, n)
    assert draws.shape == (n,) and draws.min() >= 0
    if p == 0.0:
        assert not draws.any()
        return
    tail = np.cumsum(np.bincount(draws, minlength=6)[::-1])[::-1] / n
    for k in range(1, 6):
        want = p**k
        assert abs(tail[k] - want) <= 5.0 * math.sqrt(want * (1.0 - want) / n), (k, tail[k])


def test_strict_strict_kinds_draw_occupancy_at_their_cell_laws():
    """lattice-c occupies cell (i, j) with probability q_i q'_j, and the
    lattice-c-sym diagonal with 1 - c, c = (1 - q^2)/(1 + alpha q) the
    probability P(g' = 0) of the parity-weighted law; q = 0 never occupies."""
    rng = np.random.default_rng(316)
    n = 100000
    grid = ModelSpec(
        kind=ModelKind.LATTICE_C, row_params=(0.0, 0.5, 0.9), col_params=(0.3, 0.8)
    )
    x = LATTICES[grid.kind][0](grid, rng, n)
    p = np.outer(grid.row_params, grid.col_params)
    cells = [(x[i, j], p[i, j]) for i in range(3) for j in range(2)]
    alpha, qs = 0.7, (0.0, 0.3, 0.6, 0.9)
    sym = ModelSpec(kind=ModelKind.LATTICE_C_SYM, alpha=alpha, row_params=qs)
    y = LATTICES[sym.kind][0](sym, rng, n)
    assert np.array_equal(y, y.transpose(1, 0, 2))
    for i, q in enumerate(qs):
        g_prime_pmf_check(alpha, q)
        cells.append((y[i, i], 1.0 - (1.0 - q * q) / (1.0 + alpha * q)))
        cells += [(y[i, j], q * qs[j]) for j in range(i + 1, len(qs))]
    for draws, prob in cells:
        assert draws.dtype == np.uint8 and draws.max() <= 1
        if prob == 0.0:
            assert not draws.any()
            continue
        z = (draws.mean() - prob) / math.sqrt(prob * (1.0 - prob) / n)
        assert abs(z) < _PMF_Z, (prob, z)


def test_symmetric_kinds_draw_symmetric_arrays():
    rng = np.random.default_rng(5)
    for kind in (ModelKind.LATTICE_A_SYM, ModelKind.LATTICE_C_SYM):
        model = ModelSpec(
            kind=kind, alpha=0.4, row_params=(0.4, 0.3, 0.2)
        )
        x = LATTICES[kind][0](model, rng, 50)
        assert np.array_equal(x, x.transpose(1, 0, 2))


# ------------------------------------------------------------- path rules


_KIND_ENTRIES = {
    ModelKind.LATTICE_A: 4,
    ModelKind.LATTICE_B: 2,
    ModelKind.LATTICE_C: 3,
}


def _path_entries(seed, kind, byte, shape):
    """int64 entries below the kind's bound, or, with ``byte`` on the
    occupancy kinds lattice-b and lattice-c, uint8 0/1 entries as
    ``_bernoulli`` draws them."""
    rng = np.random.default_rng(seed)
    if byte and kind != ModelKind.LATTICE_A:
        return rng.integers(0, 2, size=shape).astype(np.uint8)
    return rng.integers(0, _KIND_ENTRIES[kind], size=shape).astype(np.int64)


@settings(deadline=None, max_examples=120)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    kind=st.sampled_from(sorted(_KIND_ENTRIES, key=lambda k: k.value)),
    byte=st.booleans(),
)
def test_fast_path_matches_reference(seed, m, n, kind, byte):
    x = _path_entries(seed, kind, byte, (m, n, 1))
    fast = int(LATTICES[kind][1](x)[0])
    assert fast == lattice_chain_reference(x[:, :, 0], kind)


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    draws=st.integers(2, 6),
    kind=st.sampled_from(sorted(_KIND_ENTRIES, key=lambda k: k.value)),
    byte=st.booleans(),
)
@example(seed=1, m=1, n=5, draws=3, kind=ModelKind.LATTICE_A, byte=False)
@example(seed=2, m=5, n=1, draws=3, kind=ModelKind.LATTICE_B, byte=False)
@example(seed=3, m=1, n=4, draws=2, kind=ModelKind.LATTICE_C, byte=False)
@example(seed=4, m=4, n=1, draws=2, kind=ModelKind.LATTICE_C, byte=False)
@example(seed=5, m=2, n=5, draws=4, kind=ModelKind.LATTICE_B, byte=False)
@example(seed=6, m=5, n=4, draws=3, kind=ModelKind.LATTICE_B, byte=True)
@example(seed=7, m=4, n=5, draws=3, kind=ModelKind.LATTICE_C, byte=True)
def test_path_rules_match_reference_on_every_draw(seed, m, n, draws, kind, byte):
    """Several draws of (M, N, draws) arrays share one kernel call."""
    x = _path_entries(seed, kind, byte, (m, n, draws))
    before = x.copy()
    fast = LATTICES[kind][1](x)
    assert np.array_equal(x, before)
    assert fast.tolist() == [
        lattice_chain_reference(x[:, :, d], kind) for d in range(draws)
    ]


def test_path_rules_on_pinned_arrays():
    # weak/weak reads the best corner-to-corner sum
    a = np.array([[[1], [0]], [[2], [3]]], dtype=np.int64)
    assert LATTICES[ModelKind.LATTICE_A][1](a)[0] == 6
    # strict column step forbids stacking within one column, so the best
    # chain is the bottom row 2 + 3
    assert LATTICES[ModelKind.LATTICE_B][1](a)[0] == 5
    # strict/strict counts occupied cells on a strict staircase
    c = np.array([[[1], [1]], [[0], [1]]], dtype=np.int64)
    assert LATTICES[ModelKind.LATTICE_C][1](c)[0] == 2


@pytest.mark.parametrize("n", [255, 256])
def test_byte_chain_counts_do_not_wrap(n):
    """All-occupied byte arrays: a weak/strict chain takes one cell per
    column of a 1 x N array and a strict/strict one the diagonal of an
    N x N array, N cells either way, past a byte's range at N = 256."""
    rows = np.ones((1, n, 2), dtype=np.uint8)
    assert LATTICES[ModelKind.LATTICE_B][1](rows).tolist() == [n, n]
    square = np.ones((n, n, 2), dtype=np.uint8)
    assert LATTICES[ModelKind.LATTICE_C][1](square).tolist() == [n, n]


# ------------------------------------------------------- counting harness


def _small_model():
    return ModelSpec(
        kind=ModelKind.LATTICE_A, row_params=(0.3, 0.2), col_params=(0.25, 0.2)
    )


def test_worker_count_does_not_change_counts():
    """Three full blocks and a partial one, so that two workers share them."""
    for model in (
        _small_model(),
        ModelSpec(kind=ModelKind.POISSON_SQUARE, t=2.0),
        ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=2.0, alpha=0.5),
        ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=2.0, alpha_plus=0.3, alpha_minus=0.6),
    ):
        trials = 3 * SimConfig(model=model, trials=1, seed=11).block_size + 4
        base = SimConfig(model=model, trials=trials, seed=11, workers=1)
        multi = SimConfig(model=model, trials=trials, seed=11, workers=2)
        assert base.blocks == 4
        assert run_simulation(base).counts == run_simulation(multi).counts


def test_pool_gets_no_more_workers_than_blocks(monkeypatch):
    """The pool starts every worker at once, so 64 requested workers on two
    blocks must open a pool of two; a serial stand-in records it."""
    import concurrent.futures

    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    model = ModelSpec(kind=ModelKind.POISSON_SQUARE, t=5.0)
    many = SimConfig(model=model, trials=4096, seed=3, workers=64)
    assert many.blocks == 2
    counts = run_simulation(many).counts
    assert opened == [2]
    assert counts == run_simulation(SimConfig(model=model, trials=4096, seed=3)).counts


def test_lattice_blocks_are_sized_by_their_cells():
    """2048 draws times the multiples that fit 2^18 cells, at least one;
    the symmetrized kinds have n x n cells and the Poisson kinds 2048."""
    def size(**fields):
        return SimConfig(model=ModelSpec(**fields), trials=1, seed=0).block_size

    for n, want in ((1, 262144), (2, 65536), (3, 28672), (4, 16384), (8, 4096), (20, 2048)):
        q = (0.5,) * n
        assert size(kind=ModelKind.LATTICE_B, row_params=q, col_params=q) == want
        assert size(kind=ModelKind.LATTICE_C_SYM, alpha=0.5, row_params=q) == want
    assert size(kind=ModelKind.LATTICE_A, row_params=(0.5,) * 2, col_params=(0.5,) * 8) == 16384
    assert size(kind=ModelKind.POISSON_LINES_D, t=1.0, col_params=(0.5,)) == 2048
    config = SimConfig(model=_small_model(), trials=65537, seed=0)
    assert (config.block_size, config.blocks) == (65536, 2)


def test_same_seed_reproduces_and_seeds_differ():
    cfg = SimConfig(model=_small_model(), trials=3000, seed=42)
    first = run_simulation(cfg)
    second = run_simulation(cfg)
    assert first.counts == second.counts
    other = run_simulation(
        SimConfig(model=_small_model(), trials=3000, seed=43)
    )
    assert other.counts != first.counts


def test_poisson_models_run_through_harness():
    model = ModelSpec(kind=ModelKind.POISSON_SQUARE, t=1.0)
    cdf = run_simulation(SimConfig(model=model, trials=500, seed=3))
    assert cdf.trials == 500
    assert sum(cdf.counts.values()) == 500


def test_sampler_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        sample_poisson_square(-1.0, rng)
    assert sample_poisson_square(0.0, rng) == 0


def _case_id(model: ModelSpec) -> str:
    """The kind's member name in CamelCase (POISSON_LINES_D ->
    PoissonLinesD, TRIANGLE_POISSON_FS -> TrianglePoissonFS), so that the
    cases below keep one id whatever name the command line uses."""
    return "".join(w if len(w) <= 2 else w.capitalize() for w in model.kind.name.split("_"))


_POISSON_MODELS = [
    ModelSpec(kind=ModelKind.POISSON_SQUARE, t=3.0),
    ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=3.0, alpha=0.5),
    ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=2.0, alpha=1.5),
    ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=2.0, alpha_plus=0.8, alpha_minus=1.5),
    ModelSpec(kind=ModelKind.POISSON_LINES_D, t=4.0, col_params=(0.5, 0.3, 0.0)),
    ModelSpec(kind=ModelKind.POISSON_LINES_E, t=4.0, col_params=(0.5, 0.3, 0.7)),
]


# run_simulation counts of each model above at 3000 trials (two blocks),
# seed 7.  The streams, their draw order and the chunk rule fix them, so a
# change to the chain kernel alone must keep them
_PINNED_COUNTS = {
    ModelKind.POISSON_SQUARE: {1: 14, 2: 278, 3: 751, 4: 999, 5: 621, 6: 266, 7: 61, 8: 8, 9: 2},
    ModelKind.POISSON_TRIANGLE: {
        0: 9, 1: 119, 2: 434, 3: 790, 4: 788, 5: 520, 6: 222, 7: 90, 8: 22, 9: 5, 10: 1,
    },
    ModelKind.TRIANGLE_POISSON_FS: {
        0: 20, 1: 173, 2: 442, 3: 717, 4: 697, 5: 475, 6: 273, 7: 112, 8: 58, 9: 22,
        10: 6, 11: 3, 12: 1, 13: 1,
    },
    ModelKind.POISSON_EXTERNAL: {
        1: 20, 2: 203, 3: 650, 4: 822, 5: 664, 6: 381, 7: 174, 8: 52, 9: 23, 10: 10, 11: 1,
    },
    ModelKind.POISSON_LINES_D: {
        0: 119, 1: 562, 2: 864, 3: 721, 4: 436, 5: 191, 6: 68, 7: 30, 8: 4, 9: 3, 10: 2,
    },
    ModelKind.POISSON_LINES_E: {0: 9, 1: 421, 2: 1739, 3: 831},
}


@pytest.mark.parametrize("model", _POISSON_MODELS, ids=_case_id)
def test_poisson_seeded_counts_are_pinned(model):
    counts = run_simulation(SimConfig(model=model, trials=3000, seed=7)).counts
    assert counts == _PINNED_COUNTS[model.kind]


@pytest.mark.parametrize("model", _POISSON_MODELS, ids=_case_id)
def test_block_samplers_match_per_draw_oracles(model):
    """Two-sample z at every threshold of the empirical CDFs, block sampler
    against the per-draw oracle on independent streams."""
    n = 6000
    block = np.asarray(SAMPLERS[model.kind](model, np.random.default_rng(31), n))
    rng = np.random.default_rng(32)
    single = np.array([ORACLES[model.kind](model, rng) for _ in range(n)])
    checked = 0
    for ell in range(int(max(block.max(), single.max())) + 1):
        a, b = np.mean(block <= ell), np.mean(single <= ell)
        p = 0.5 * (a + b)
        if not 0.01 < p < 0.99:
            continue
        assert abs(a - b) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n), ell
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize(
    "model",
    [
        *(
            pytest.param(
                ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=5.0, alpha=a),
                id=f"PoissonTriangle-alpha{a}",
            )
            for a in (0.0, 0.5, 1.5)
        ),
        *(
            pytest.param(
                ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=3.0, alpha_plus=ap, alpha_minus=am),
                id=f"PoissonExternal-{ap}-{am}",
            )
            for ap, am in ((0.8, 1.5), (0.0, 1.2), (1.2, 0.0))
        ),
        ModelSpec(kind=ModelKind.POISSON_LINES_D, t=3.0, col_params=(0.5, 0.4, 0.3)),
        ModelSpec(kind=ModelKind.POISSON_LINES_E, t=3.0, col_params=(0.5, 0.4, 0.3)),
        ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=2.0, alpha=0.5),
        ModelSpec(
            kind=ModelKind.LATTICE_C, row_params=(0.6, 0.5, 0.4), col_params=(0.7, 0.5, 0.6)
        ),
        ModelSpec(kind=ModelKind.LATTICE_A_SYM, alpha=0.5, row_params=(0.4, 0.5, 0.3)),
        ModelSpec(kind=ModelKind.LATTICE_C_SYM, alpha=0.5, row_params=(0.6, 0.5, 0.7)),
    ],
    ids=_case_id,
)
def test_block_samplers_match_exact_laws(model):
    """The kinds criterion 7 leaves out, and the triangle and external kinds
    past its t = 1 (the diagonal rate alpha at 0, below and above 1; both
    boundary rates, and each alone), against their certified rows."""
    trials = 204800
    emp = run_simulation(SimConfig(model=model, trials=trials, seed=2024))
    rows, _ = exact_law(model, max(emp.counts))
    law, _ = certified_law(model.kind, rows)
    checked = 0
    for ell, p in law.items():
        if not 0.01 < p < 0.99:
            continue
        z = abs(emp.cdf_at(ell) - p) / math.sqrt(p * (1.0 - p) / trials)
        assert z <= 4.0, (ell, z)
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize(
    "model",
    [
        ModelSpec(kind=ModelKind.POISSON_SQUARE, t=0.0),
        ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=0.0, alpha=0.0),
        ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=0.0, alpha=1.0),
        ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=0.0, alpha_plus=0.5, alpha_minus=0.5),
        ModelSpec(kind=ModelKind.POISSON_LINES_D, t=5.0, col_params=(0.0, 0.0)),
        ModelSpec(kind=ModelKind.POISSON_LINES_E, t=0.0, col_params=(0.5,)),
    ],
    ids=_case_id,
)
def test_empty_processes_give_zero_chains(model):
    with np.errstate(all="raise"):
        values = SAMPLERS[model.kind](model, np.random.default_rng(0), 50)
    assert np.array_equal(values, np.zeros(50))


@pytest.mark.parametrize("kind", [ModelKind.POISSON_LINES_D, ModelKind.POISSON_LINES_E])
def test_zero_rate_lines_receive_no_points(kind):
    """With the same stream, a zero-rate line anywhere leaves every chain
    as it is without that line."""
    def draw(rates):
        model = ModelSpec(kind=kind, t=4.0, col_params=rates)
        return SAMPLERS[kind](model, np.random.default_rng(8), 500)

    plain = draw((0.5, 0.3))
    assert np.array_equal(draw((0.5, 0.3, 0.0)), plain)
    assert np.array_equal(draw((0.5, 0.0, 0.3)), plain)


def test_negative_line_rate_refused():
    with pytest.raises(ValidationError):
        model = ModelSpec(kind=ModelKind.POISSON_LINES_D, t=1.0, col_params=(0.5, -0.1))
        SAMPLERS[model.kind](model, np.random.default_rng(0), 10)


def test_row_chunks_leave_square_draws_unchanged(monkeypatch):
    """The square's coordinates are one flat stream, so cutting a block
    into row chunks of any size gives the same chains."""
    model = ModelSpec(kind=ModelKind.POISSON_SQUARE, t=4.0)
    whole = SAMPLERS[model.kind](model, np.random.default_rng(4), 300)
    monkeypatch.setattr(montecarlo, "_PAD_ELEMENTS", 100)
    chunked = SAMPLERS[model.kind](model, np.random.default_rng(4), 300)
    assert np.array_equal(chunked, whole)


def _block_peak(model: ModelSpec) -> float:
    """tracemalloc peak of one 2048-draw block, in units of 8 x
    ``_PAD_ELEMENTS`` bytes (one chunk's points in float64)."""
    tracemalloc.start()
    try:
        run_simulation(SimConfig(model=model, trials=2048, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * montecarlo._PAD_ELEMENTS)


def test_large_square_stays_within_the_padding_budget():
    """Unchunked, this block's points would take about 60 MiB.  A chunk's
    points are one flat stream, sorted where they lie: the block peaks at
    about 1.1 units."""
    assert _block_peak(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=60.0)) < 1.5


# ids from the model alone, so that tightening a bound keeps the test's id
@pytest.mark.parametrize(
    "model, bound",
    [pytest.param(model, bound, id=_case_id(model)) for model, bound in [
        # the y-axis chain is a small prefix beside the flat bulk stream:
        # about 1.2 units
        (ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=40.0, alpha_plus=0.5, alpha_minus=0.5), 1.5),
        # the mapped x, the uniforms z and x + alpha: about 3.0 units
        (ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=60.0, alpha=0.5), 3.5),
        # the uniforms and their line indices, then the indices and the
        # labels, never all three: about 2.3 units for lines-d, whose weak
        # chains take more pile tops, and 1.9 for lines-e (2.8 with all three)
        (ModelSpec(kind=ModelKind.POISSON_LINES_D, t=300.0, col_params=(0.5,) * 8), 2.6),
        (ModelSpec(kind=ModelKind.POISSON_LINES_E, t=300.0, col_params=(0.5,) * 8), 2.2),
    ]],
)
def test_large_poisson_blocks_stay_within_the_chunk_budget(model, bound):
    assert _block_peak(model) < bound


@pytest.mark.parametrize("n, multiple", [(2, 3), (20, 4)], ids=["2x2", "20x20"])
@pytest.mark.parametrize("kind", list(LATTICES), ids=lambda k: k.value)
def test_lattice_block_stays_within_its_cell_budget(kind, n, multiple):
    """One block: a 2x2 one holds the most draws (65,536) and a 20x20 one
    the most cells (819,200, 3.1 times the budget of 2^18, since a block
    holds at least 2048 draws).  The geometric 20x20 blocks take the
    most, about 3.5 times the budget's 2 MiB in int64: lattice-a-sym
    draws its upper triangle straight into its one (n, n, draws) array."""
    q = (0.7,) * n
    if kind in (ModelKind.LATTICE_A_SYM, ModelKind.LATTICE_C_SYM):
        model = ModelSpec(kind=kind, alpha=0.5, row_params=q)
    else:
        model = ModelSpec(kind=kind, row_params=q, col_params=q)
    size = SimConfig(model=model, trials=1, seed=0).block_size
    tracemalloc.start()
    try:
        run_simulation(SimConfig(model=model, trials=size, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < multiple * 8 * montecarlo._BLOCK_CELLS


def test_bernoulli_ties_need_no_block_sized_mask():
    """The ties are found a row of cells at a time: the 20x20 lattice-b
    simulation of the benchmark catalogue peaks at 0.93 MB under
    tracemalloc, where a mask of the whole block took it to 1.67 MB."""
    q = (math.sqrt(0.9),) * 20
    model = ModelSpec(kind=ModelKind.LATTICE_B, row_params=q, col_params=q)
    tracemalloc.start()
    try:
        run_simulation(SimConfig(model=model, trials=4608, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.22e6


def test_symmetric_lattice_draws_its_triangle_in_place():
    """Drawn a row of the upper triangle at a time, lattice-a-sym entries
    equal one call for the whole triangle followed by one for the
    diagonal, so its seeded counts keep their stream."""
    q = np.linspace(0.3, 0.9, 20)
    model = ModelSpec(kind=ModelKind.LATTICE_A_SYM, alpha=0.5, row_params=tuple(q))
    x = LATTICES[model.kind][0](model, np.random.default_rng(23), 64)
    rng = np.random.default_rng(23)
    i, j = np.triu_indices(20, k=1)
    upper = montecarlo._geom(rng, q[i] * q[j], 64)
    assert np.array_equal(x[i, j], upper) and np.array_equal(x[j, i], upper)
    diag = np.arange(20)
    assert np.array_equal(x[diag, diag], montecarlo._geom(rng, 0.5 * q, 64))


def test_sim_config_validation_and_parse():
    with pytest.raises(ValidationError):
        SimConfig(model=_small_model(), trials=0, seed=1)
    with pytest.raises(ValidationError):
        SimConfig(model=_small_model(), trials=10, seed=1, workers=0)
    with pytest.raises(ValidationError):
        SimConfig(model=_small_model(), trials=10, seed=-1)


def test_empirical_cdf_accounting():
    cdf = EmpiricalCdf(counts={1: 3, 2: 5, 4: 2}, trials=10)
    assert cdf.cdf_at(0) == 0.0
    assert cdf.cdf_at(2) == 0.8
    assert cdf.cdf_at(4) == 1.0
    rows = cdf.csv_rows()
    assert [r[0] for r in rows] == [1, 2, 4]
    assert rows[-1][2] == 1.0
    assert rows[1][3] == pytest.approx(math.sqrt(0.8 * 0.2 / 10))
    # one cumulative pass gives the per-value accessor's floats exactly
    assert [r[:3] for r in rows] == [
        (v, c, cdf.cdf_at(v)) for v, c in sorted(cdf.counts.items())
    ]
    with pytest.raises(ValidationError):
        EmpiricalCdf(counts={1: 1}, trials=5)


# ------------------------------------------------------------- Haar check


def test_haar_expectation_against_quadrature():
    """Sampled group average versus the deterministic Toeplitz +- Hankel
    determinant, at four standard errors, up to the sampler's largest group."""
    t, alpha = 1.0, 0.5
    psi = SymbolSpec(exp_plus_t=t, zeros_plus=(alpha,))
    rng = np.random.default_rng(77)
    for ell, trials in ((3, 50000), (12, 20000)):
        est, err = haar_orthogonal_expectation(psi, ell, trials, rng)
        exact = group_mean(psi, ell)
        assert err > 0.0
        assert abs(est - exact) < 4.0 * err


def test_haar_validation():
    rng = np.random.default_rng(0)
    psi = SymbolSpec(exp_plus_t=1.0)
    with pytest.raises(ValidationError):
        haar_orthogonal_expectation(psi, 0, 100, rng)
    with pytest.raises(ValidationError):
        haar_orthogonal_expectation(psi, 13, 100, rng)
    with pytest.raises(ValidationError):
        haar_orthogonal_expectation(psi, 3, 1, rng)
