"""Distribution laws: determinant route, product route, group averages."""

import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lppdet.errors import (
    BreakdownError,
    ConditioningError,
    ValidationError,
)
from lppdet.exact_dist import (
    _default_cutoff,
    _leading_minors,
    OGROUP_ROUTE,
    OGROUP_TOL,
    build_dist_table,
    certified_law,
    check_cdf,
    exact_law,
    external_rows,
    ogroup_law,
    scaled_cdf,
    square_opuc,
    triangle_rows,
)
from lppdet.fredholm import IntegrableKernelSpec, fredholm_log_det
from lppdet.opuc import square_opuc_highprec, toeplitz_log_det
from lppdet.symbols import (
    ModelKind,
    ModelSpec,
    SymbolSpec,
    build_symbol,
    normalization_log_z,
)

from highprec_oracle import (
    external_law_dense,
    group_means_mpf,
    prob_square_product,
    square_law_bessel,
    square_levinson,
    triangle_law_mpf,
)
from ogroup_quadrature import MAX_ELL, quadrature_expectation
from route_points import external_point, group_mean, triangle_odd


def top_of_table(model, ell):
    """P(L <= ell) as the last row of the model's table up to ell."""
    return build_dist_table(model, ell).probability(ell)


def test_square_closed_form_first_levels():
    """At t = 1, P(L <= 0) = e^{-1} and P(L <= 1) = e^{-1} I_0(2), on the
    rows ``dist square`` writes."""
    from scipy.special import iv

    table = build_dist_table(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=1.0), 1)
    assert table.probability(0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert table.probability(1) == pytest.approx(
        math.exp(-1.0) * float(iv(0, 2.0)), rel=1e-13
    )


def test_square_frozen_table():
    expected = {
        0: 0.36787944117144233,
        1: 0.8386125671260257,
        2: 0.9809076893280115,
        3: 0.9987407159242524,
        4: 0.9999474581266296,
        5: 0.9999984914527477,
    }
    table = build_dist_table(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=1.0), 5)
    for ell, value in expected.items():
        assert table.probability(ell) == pytest.approx(value, abs=1e-12)


def test_square_out_of_range(opuc_t1):
    """A determinant past the table, or of negative order, is refused, and
    so is a negative lmax."""
    for order in (-1, opuc_t1.cutoff + 5):
        with pytest.raises(ValidationError):
            toeplitz_log_det(opuc_t1, order)
    with pytest.raises(ValidationError):
        exact_law(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=1.0), -1)


@settings(deadline=None, max_examples=20)
@given(t=st.floats(0.2, 3.0))
def test_square_product_route_agrees(t):
    data = square_opuc(t)
    for ell in range(0, 6):
        direct = math.exp(toeplitz_log_det(data, ell) - t * t)
        via_product, bound = prob_square_product(t, ell, data)
        assert via_product == pytest.approx(direct, abs=1e-11 + bound)


def test_square_product_bound_covers_the_szego_residual():
    """At this t the float64 table's log-norms sum to t^2 + 6.6e-11, which
    moves the product route 5.9e-11 off a 40-digit dense determinant; a
    bound of truncation only (4.9e-11) missed it."""
    t, ell = 2.965466227443639, 5
    with mp.workdps(40):
        moments = [mp.besseli(abs(j), 2 * mp.mpf(t)) for j in range(-ell, ell + 1)]
        dense = mp.exp(-mp.mpf(t) ** 2) * mp.det(
            mp.matrix([[moments[ell + j - k] for k in range(ell)] for j in range(ell)])
        )
    assert float(dense) == pytest.approx(0.90303677043884523, abs=1e-16)
    float64 = square_levinson(t, _default_cutoff(t, 0))
    via_product, bound = prob_square_product(t, ell, float64)
    assert abs(via_product - float(dense)) <= bound


@pytest.mark.parametrize("t", [30.0, 90.0])
def test_square_rows_match_the_discrete_bessel_determinant(t):
    """Rows read off the reflection product, not exp(sum log N_k - t^2):
    the float64 rounding of each log N_k summed to 8e-14 at t = 30 and
    9e-13 at t = 90 on these rows, against 1e-16 here."""
    c = t ** (1.0 / 3.0)
    ells = [int(2.0 * t + k * c) for k in (-2, 0, 2, 4)]
    rows, _ = exact_law(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=t), ells[-1])
    for ell, want in square_law_bessel(t, ells).items():
        assert abs(rows[ell][0] - want) <= 1e-15, ell


@settings(deadline=None, max_examples=20)
@given(t=st.floats(0.1, 2.5))
def test_square_cdf_monotone_in_threshold(t):
    data = square_opuc(t)
    values = [math.exp(toeplitz_log_det(data, ell) - t * t) for ell in range(0, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= 1.0 + 1e-12


def test_square_past_the_old_precision_limit():
    """At t = 100 the old precision rule broke the recursion down at
    k = 175.  The table matches the circle Fredholm determinant
    2^-k det(1 - K_k), an independent float64 route, at the top of the law."""
    t, lmax = 100.0, 228
    table = build_dist_table(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=t), lmax)
    for k in (200, 214, 228):
        log_det = fredholm_log_det(IntegrableKernelSpec(t=t, k=k, nodes=512))
        fredholm_p = math.exp(log_det - k * math.log(2.0))
        assert table.probability(k) == pytest.approx(fredholm_p, abs=1e-11)


def test_square_refused_when_strong_szego_fails(monkeypatch):
    """Too little working precision gives wrong digits before it breaks
    the recursion; the strong Szego check turns them into a refusal."""
    from lppdet import opuc

    monkeypatch.setattr(opuc, "_DPS_SLOPE", 1.8)
    with pytest.raises(BreakdownError, match="strong Szego check failed"):
        square_opuc(60.0)


@pytest.fixture(scope="module")
def fixed_point_t25():
    """Fixed-point square data at t = 2.5, to the cutoff of lmax 1000."""
    return square_opuc_highprec(2.5, _default_cutoff(2.5, 1000))


def test_long_float64_tables_match_fixed_point_data(fixed_point_t25):
    """At lmax 1000 Levinson's float64 inner-product norms drifted 2.2e-10
    off t^2, so the strong Szego check refused the square, and the
    triangle law, which read the same log-norms, was 1.1e-10 off the same
    law on fixed-point data.  The tail sums of the reflection coefficients
    keep both.  The external-source law reads the fixed-point table
    itself at every t."""
    data = square_opuc(2.5, ell=1000)
    assert abs(math.fsum(data.log_norms) - 2.5 ** 2) <= 1e-12
    triangle = ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=2.5, alpha=0.5)
    rows, _ = exact_law(triangle, 1000)
    want = triangle_rows(2.5, 0.5, 499, fixed_point_t25)
    assert max(abs(rows[2 * j + 1][0] - p) for j, (p, _) in enumerate(want)) <= 2e-12
    external = ModelSpec(
        kind=ModelKind.POISSON_EXTERNAL, t=2.5, alpha_plus=0.3, alpha_minus=0.6
    )
    rows, _ = exact_law(external, 1000)
    want = external_rows(0.3, 0.6, normalization_log_z(external), 1000, fixed_point_t25)
    assert [rows[ell] for ell in range(1001)] == want


def test_triangle_frozen_values(opuc_t1):
    assert float(triangle_odd(1.0, 0.0, 0, opuc_t1)) == pytest.approx(
        0.9359257154242638, abs=1e-10
    )
    assert float(triangle_odd(1.0, 0.5, 0, opuc_t1)) == pytest.approx(
        0.7838338208091404, abs=1e-10
    )
    assert float(triangle_odd(1.0, 0.5, 1, opuc_t1)) == pytest.approx(
        0.9933828999153463, abs=1e-10
    )
    assert float(triangle_odd(1.0, 1.5, 0, opuc_t1)) == pytest.approx(
        0.44740253437232946, abs=1e-10
    )


def test_triangle_needs_room_for_the_tail():
    small = square_levinson(1.0, 8)
    with pytest.raises(ValidationError):
        triangle_odd(1.0, 0.5, 0, small)
    # enough factors to run, not enough to certify 1e-12
    mid = square_levinson(1.0, 12)
    with pytest.raises(ConditioningError):
        triangle_odd(1.0, 0.5, 0, mid)


def test_triangle_alpha_zero_matches_symmetrized_square(opuc_t1):
    """Without a boundary rate the odd law must match the plain
    orthogonal-group average of e^{tU}."""
    lhs = float(triangle_odd(1.0, 0.0, 1, opuc_t1))
    rhs = top_of_table(ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=1.0, alpha=0.0), 3)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_external_frozen_values(opuc_t1):
    expected = {1: 0.5895222935327221, 2: 0.8943693866451398, 3: 0.9829853441225228}
    for ell, value in expected.items():
        assert float(external_point(1.0, 0.3, 0.6, ell, opuc_t1)) == pytest.approx(
            value, abs=1e-10
        )


def test_external_reduces_to_square_at_zero_rates(opuc_t1):
    for ell in (1, 2, 3):
        assert float(external_point(1.0, 0.0, 0.0, ell, opuc_t1)) == pytest.approx(
            math.exp(toeplitz_log_det(opuc_t1, ell) - 1.0), abs=1e-11
        )


def test_external_at_t_zero_is_certain():
    """Without points L = 0, so every row is 1 up to rounding; the
    fixed-point table that the external law reads takes t = 0 too."""
    model = ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=0.0, alpha_plus=0.3, alpha_minus=0.5)
    rows, _ = exact_law(model, 4)
    assert [p for p, _ in rows.values()] == pytest.approx([1.0] * 5, abs=1e-15)


def test_external_symmetric_in_the_two_rates(opuc_t1):
    a = float(external_point(1.0, 0.3, 0.6, 2, opuc_t1))
    b = float(external_point(1.0, 0.6, 0.3, 2, opuc_t1))
    assert a == pytest.approx(b, abs=1e-11)


def test_external_singular_direction(opuc_t1):
    """At alpha_plus * alpha_minus = 1 the law is as smooth in the rates as
    anywhere else, so its value stays close to nearby evaluations."""
    at = float(external_point(1.0, 2.0, 0.5, 2, opuc_t1))
    assert at == pytest.approx(0.5510366937860481, abs=1e-8)
    near = float(external_point(1.0, 2.0, 0.5 - 2e-4, 2, opuc_t1))
    assert at == pytest.approx(near, abs=1e-4)


@settings(deadline=None, max_examples=25)
@given(
    t=st.floats(0.05, 2.0),
    a_plus=st.floats(0.0, 2.0),
    a_minus=st.floats(0.0, 2.0),
)
@example(t=1.0, a_plus=2.0, a_minus=0.5)
@example(t=2.0, a_plus=1.5, a_minus=1.2)
@example(t=0.18, a_plus=2.0, a_minus=2.0)
@example(t=2.0, a_plus=3.0, a_minus=3.0)
@example(t=0.5, a_plus=4.0, a_minus=2.5)
def test_external_law_matches_dense_minors(t, a_plus, a_minus):
    """The Christoffel-Darboux rows against dense minors of the external
    symbol, on both sides of a+ a- = 1, from p(0) = e^{-log Z} on.  Row
    ell subtracts a+ a- D'_{ell-1} from D'_ell, and both grow like
    (a+ a-)^ell once a+ a- > 1, so float64 roundoff grows alike.  Each
    row's roundoff estimate must cover its error: the route reads the
    fixed-point recursion at every t, and the estimate covers the
    rounding of the kernel and its cancellation."""
    model = ModelSpec(
        kind=ModelKind.POISSON_EXTERNAL, t=t, alpha_plus=a_plus, alpha_minus=a_minus
    )
    rows, _ = exact_law(model, 6)
    assert sorted(rows) == list(range(7))
    assert rows[0][0] == pytest.approx(math.exp(-normalization_log_z(model)), rel=1e-14)
    growth = max(1.0, a_plus * a_minus)
    for ell, want in enumerate(external_law_dense(t, a_plus, a_minus, 6)):
        p, bound = rows[ell]
        assert p == pytest.approx(want, abs=2e-13 * growth**ell)
        assert abs(p - want) <= bound


# Rows copied from perfbench/data/references.json, which computes them
# without the program's routes: fixed-point Toeplitz minors for the square
# and external laws, a Weyl-Heine trapezoid rule for the triangle.  The
# float64 square recursion left every one of these tables off or refused.
REFERENCE_ROWS = {
    "square-t4.75": (
        ModelSpec(kind=ModelKind.POISSON_SQUARE, t=4.75), 20,
        {1: 2.7869669215884773e-07, 4: 0.024854894609536066, 8: 0.8457843772320075,
         12: 0.999551135578051, 16: 0.9999999293279372, 20: 0.9999999999986261},
    ),
    "square-t6": (
        ModelSpec(kind=ModelKind.POISSON_SQUARE, t=6.0), 22,
        {1: 4.395246495627389e-12, 5: 0.002670971933887227, 9: 0.5654779103023614,
         13: 0.9930268285773185, 17: 0.9999939988361561, 22: 0.9999999999512225},
    ),
    "triangle-t3": (
        ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=3.0, alpha=0.5), 15,
        {1: 0.037371153726919626, 3: 0.4453711428251505, 5: 0.8870996566965158,
         7: 0.9911697601004509},
    ),
    "external-t4-above-one": (
        ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=4.0, alpha_plus=2.0, alpha_minus=0.50002),
        20,
        {1: 9.470656166320922e-09, 5: 0.013691556947321333, 10: 0.6149254573642029,
         15: 0.9758919436759472, 20: 0.9996626759853054},
    ),
    "external-t4-below-one": (
        ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=4.0, alpha_plus=0.5, alpha_minus=1.99996),
        20,
        {1: 9.47267601554989e-09, 5: 0.013693099001495342, 10: 0.6149450915953681,
         15: 0.9758952393667006, 20: 0.9996627539553584},
    ),
    "external-t4-small-rates": (
        ModelSpec(kind=ModelKind.POISSON_EXTERNAL, t=4.0, alpha_plus=0.3, alpha_minus=0.6),
        20,
        {1: 2.6574079880997037e-06, 5: 0.2145306349499036, 10: 0.9913191983795067,
         15: 0.9999981215162285, 20: 0.9999999999275322},
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_ROWS))
def test_tables_match_the_references(name):
    model, lmax, expected = REFERENCE_ROWS[name]
    table = build_dist_table(model, lmax)
    for ell, want in expected.items():
        assert table.probability(ell) == pytest.approx(want, rel=1e-12)


def test_triangle_table_far_past_the_product_window():
    """At t = 40 the boundary products run to the end of the table; a
    40-factor window left a bound of 0.18 on P(L <= 1).  Rows against a
    120-digit orthogonal-group determinant that shares nothing with the
    recursion."""
    model = ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=40.0, alpha=0.5)
    table = build_dist_table(model, 101)
    assert table.truncation_info["tail_bound"] <= 1e-12
    for ell in (61, 71, 83, 95):
        assert table.probability(ell) == pytest.approx(
            triangle_law_mpf(40.0, 0.5, ell), rel=1e-14, abs=5e-15
        )


@settings(deadline=None, max_examples=40)
@given(q=st.floats(0.05, 0.9), qp=st.floats(0.05, 0.9), ell=st.integers(0, 6))
def test_lattice_a_single_cell_closed_form(q, qp, ell):
    """One geometric cell: P(L <= ell) = P(X <= ell) = 1 - (q q')^{ell+1}."""
    if q * qp >= 0.999:
        return
    model = ModelSpec(kind=ModelKind.LATTICE_A, row_params=(q,), col_params=(qp,))
    assert top_of_table(model, ell) == pytest.approx(
        1.0 - (q * qp) ** (ell + 1), abs=1e-11
    )


@settings(deadline=None, max_examples=40)
@given(q=st.floats(0.05, 0.9), qp=st.floats(0.05, 0.9))
def test_lattice_b_single_cell_closed_form(q, qp):
    """One Bernoulli cell with odds p: P(L <= 0) = 1/(1+p), P(L <= 1) = 1."""
    p = q * qp
    model = ModelSpec(kind=ModelKind.LATTICE_B, row_params=(q,), col_params=(qp,))
    assert top_of_table(model, 0) == pytest.approx(1.0 / (1.0 + p), abs=1e-11)
    assert top_of_table(model, 1) == pytest.approx(1.0, abs=1e-11)


def test_lattice_frozen_tables():
    la = ModelSpec(kind=ModelKind.LATTICE_A, row_params=(0.3, 0.2), col_params=(0.25, 0.2))
    expected_a = [0.792984, 0.9737843519999998, 0.9973034644559999, 0.9997514869483672]
    for ell, value in enumerate(expected_a):
        assert top_of_table(la, ell) == pytest.approx(value, abs=1e-12)

    lb = ModelSpec(kind=ModelKind.LATTICE_B, row_params=(0.6,), col_params=(0.5, 0.4, 0.3))
    expected_b = [0.5257181309669008, 0.9042351852630693, 0.9931866930226686, 1.0]
    for ell, value in enumerate(expected_b):
        assert top_of_table(lb, ell) == pytest.approx(value, abs=1e-12)

    lc = ModelSpec(kind=ModelKind.LATTICE_C, row_params=(0.3, 0.2), col_params=(0.25, 0.2))
    expected_c = [0.792984, 0.9969999999999999, 1.0]
    for ell, value in enumerate(expected_c):
        assert top_of_table(lc, ell) == pytest.approx(value, abs=1e-12)


def test_lattice_c_saturates_at_min_side():
    # at most one point per cell and per strict chain step, so the
    # chain length cannot exceed min(rows, cols)
    lc = ModelSpec(kind=ModelKind.LATTICE_C, row_params=(0.3, 0.2), col_params=(0.25, 0.2))
    assert top_of_table(lc, 2) == pytest.approx(1.0, abs=1e-12)
    assert top_of_table(lc, 5) == pytest.approx(1.0, abs=1e-12)


def test_lines_frozen_values():
    ld = ModelSpec(kind=ModelKind.POISSON_LINES_D, t=1.0, col_params=(0.5, 0.4))
    le = ModelSpec(kind=ModelKind.POISSON_LINES_E, t=1.0, col_params=(0.5, 0.4))
    # both share P(L <= 0) = e^{-t sum q}
    assert top_of_table(ld, 0) == pytest.approx(math.exp(-0.9), abs=1e-12)
    assert top_of_table(le, 0) == pytest.approx(math.exp(-0.9), abs=1e-12)
    assert top_of_table(ld, 1) == pytest.approx(0.8131393194811982, abs=1e-12)
    assert top_of_table(le, 1) == pytest.approx(0.9254775913276625, abs=1e-12)
    # one point per line caps the strict variant at the line count
    assert top_of_table(le, 2) == pytest.approx(1.0, abs=1e-10)


def test_lines_d_level_one_closed_form():
    """P(L <= 1) for the repeated-lines model equals
    e^{-t sum q} * prod over nonempty-line subsets... reduced to the
    single-line case: (1 + t q) e^{-t q}."""
    ld = ModelSpec(kind=ModelKind.POISSON_LINES_D, t=1.0, col_params=(0.7,))
    assert top_of_table(ld, 1) == pytest.approx((1.0 + 0.7) * math.exp(-0.7), abs=1e-12)
    le = ModelSpec(kind=ModelKind.POISSON_LINES_E, t=1.0, col_params=(0.7,))
    assert top_of_table(le, 1) == pytest.approx(1.0, abs=1e-12)


def test_ogroup_dimension_one_closed_form():
    """O(1) = {+1, -1}, so the average is evaluated by hand."""
    expectation = group_mean(SymbolSpec(exp_plus_t=1.0, zeros_plus=(0.5,)), 1)
    closed = 0.5 * (1.5 * math.e + 0.5 / math.e)
    assert expectation == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize(
    "spec",
    [
        SymbolSpec(exp_plus_t=1.0, zeros_plus=(0.5,)),
        SymbolSpec(exp_plus_t=2.0, zeros_plus=(1.0,)),
        SymbolSpec(zeros_plus=(0.8, 0.4, 0.5, 0.6)),
        SymbolSpec(zeros_plus=(0.8,), poles_plus=(0.4, 0.5, 0.6)),
        # psi(-1) < 0, so the two determinant components cancel
        SymbolSpec(exp_plus_t=1.0, zeros_plus=(1.5,)),
    ],
    ids=["triangle-fs-t1", "triangle-fs-t2", "lattice-a-sym", "lattice-c-sym",
         "alpha-above-one"],
)
def test_ogroup_determinant_matches_quadrature(spec):
    """Toeplitz +- Hankel determinants against the eigenvalue-angle
    quadrature of the Weyl integration formula."""
    for ell in range(1, MAX_ELL + 1):
        assert group_mean(spec, ell) == pytest.approx(
            quadrature_expectation(spec, ell), rel=1e-11
        )


def _random_group_psi(count: int, seed: int):
    """One-sided psi with t in [0, 1] and one to three zeros and poles each
    in [0, 0.6]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield SymbolSpec(
            exp_plus_t=float(rng.uniform(0.0, 1.0)),
            zeros_plus=tuple(rng.uniform(0.0, 0.6, rng.integers(1, 4)).tolist()),
            poles_plus=tuple(rng.uniform(0.0, 0.6, rng.integers(1, 4)).tolist()),
        )


def _symmetrized_catalogue():
    """The symmetrized laws of the benchmark catalogue: its timed stratum,
    its Monte Carlo configurations and its known-defect entry."""
    sym = [(kind, q, alpha, lmax)
           for kind in (ModelKind.LATTICE_A_SYM, ModelKind.LATTICE_C_SYM)
           for q in ((0.5,), (0.3, 0.6), (0.4, 0.5, 0.6)) for alpha in (0.3, 0.8)
           for lmax in (6, 8, 12)]
    sym += [(ModelKind.LATTICE_A_SYM, (0.4, 0.5), 0.5, 8),
            (ModelKind.LATTICE_A_SYM, (0.3,) * 6, 0.6, 8),
            (ModelKind.LATTICE_C_SYM, (0.4, 0.5), 0.5, 8),
            (ModelKind.LATTICE_C_SYM, (0.6,) * 8, 0.8, 8),
            (ModelKind.LATTICE_A_SYM, (0.5,), 0.5, 12)]
    for kind, q, alpha, lmax in sym:
        yield ModelSpec(kind=kind, alpha=alpha, row_params=q), lmax
    for t in (0.5, 1.0, 2.0):
        for alpha in (0.0, 1.0):
            for lmax in (6, 8, 12):
                yield ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=t, alpha=alpha), lmax
    yield ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=2.0, alpha=0.5), 8
    yield ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=4.0, alpha=1.0), 20


def test_group_bound_covers_the_float64_error():
    """Every row of ``ogroup_law`` lies within its bound of the 50-digit
    means of ``group_means_mpf``: bare means up to O(30) for 60 seeded
    random psi, and every symmetrized law of the benchmark catalogue.
    The cond * eps bound this one replaced was exceeded by up to 77x on
    these rows."""
    cases = [(psi, 0.0, 30) for psi in _random_group_psi(60, seed=25)]
    cases += [(build_symbol(model), normalization_log_z(model), lmax)
              for model, lmax in _symmetrized_catalogue()]
    for psi, log_z, lmax in cases:
        exact = group_means_mpf(psi, lmax)
        for ell, (value, bound) in enumerate(ogroup_law(psi, log_z, lmax)):
            if math.isfinite(bound):
                err = abs(value - exact[ell] * math.exp(-log_z))
                assert err <= bound, (psi, ell, value, err, bound)


def test_leading_minors_refuse_only_blocks_past_a_breakdown():
    """Cholesky of the second matrix breaks down at size 3: its blocks of
    size 3 and 4 are refused, its smaller ones and every block of the
    first matrix keep their log det and inverse trace, read off the one
    factor, and a lambda_max bound between the block's own and its trace."""
    good = np.array([[4.0, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 0.5], [0, 0, 0.5, 1]])
    bad = np.diag([2.0, 1.0, -1.0, 1.0])
    bad[0, 1] = bad[1, 0] = 0.5
    log_det, lam_max, inv_trace = _leading_minors(np.stack([good, bad]))
    for f, mat in enumerate((good, bad)):
        for m in range(1, 5):
            if f == 1 and m >= 3:
                assert math.isnan(log_det[f, m]) and inv_trace[f, m] == math.inf
                continue
            block = mat[:m, :m]
            eig = np.linalg.eigvalsh(block)
            assert log_det[f, m] == pytest.approx(np.linalg.slogdet(block)[1], rel=1e-14)
            assert inv_trace[f, m] == pytest.approx(np.sum(1.0 / eig), rel=1e-13)
            assert eig[-1] <= lam_max[f, m] <= np.trace(block)
    assert log_det[:, 0].tolist() == [0.0, 0.0]


def test_group_breakdown_refuses_only_the_rows_that_need_it():
    """At t = 16 the float64 Cholesky breaks down past blocks of size 7-9,
    so those rows carry infinite bounds; the low rows, whose blocks are
    well conditioned, stay certified, and the refused rows are exactly the
    rows from the first refused one on."""
    model = ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=16.0, alpha=0.0)
    rows, _ = exact_law(model, 40)
    law, refused = certified_law(model.kind, rows, skip_refused=True)
    assert sorted(law) == list(range(min(refused)))
    assert refused == list(range(min(refused), 41))
    assert len(law) >= 3
    broken = [ell for ell, (_, bound) in rows.items() if bound == math.inf]
    assert broken and min(broken) > max(law)
    for parity in (0, 1):
        side = [ell for ell in broken if ell % 2 == parity]
        assert side == list(range(side[0], 41, 2))


def test_group_law_holds_a_few_family_sized_arrays():
    """At lmax 400 the four families hold 4 s^2 numbers, s = 200, and so
    do their factor and its inverse: the table peaks at about four such
    arrays (5.2 MB under tracemalloc).  Eigenvalues of every leading
    block, each padded to s x s, took 29.8 MB."""
    psi = SymbolSpec(exp_plus_t=1.0, zeros_plus=(0.5,))
    tracemalloc.start()
    try:
        ogroup_law(psi, 0.0, 400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * 4 * 200**2


def test_symmetrized_table_past_the_old_quadrature_limit():
    model = ModelSpec(kind=ModelKind.LATTICE_A_SYM, alpha=0.5, row_params=(0.5,))
    table = build_dist_table(model, 12)
    assert sorted(table.entries) == list(range(13))
    probs = [table.probability(ell) for ell in range(13)]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert table.truncation_info["path"] == OGROUP_ROUTE
    assert table.truncation_info["error_bound"] <= OGROUP_TOL


def test_symmetrized_lattice_frozen_tables():
    asym = ModelSpec(kind=ModelKind.LATTICE_A_SYM, alpha=0.4, row_params=(0.3, 0.25))
    expected = [0.7326, 0.948717, 0.9915924150000001, 0.9987406679249312]
    for ell, value in enumerate(expected):
        assert top_of_table(asym, ell) == pytest.approx(value, abs=1e-11)
    # the zero level is a pure no-point event with a closed form
    manual = (1 - 0.4 * 0.3) * (1 - 0.4 * 0.25) * (1 - 0.3 * 0.25)
    assert top_of_table(asym, 0) == pytest.approx(manual, abs=1e-13)

    csym = ModelSpec(kind=ModelKind.LATTICE_C_SYM, alpha=0.25, row_params=(0.3, 0.25))
    expected_c = [0.6909028727770178, 0.9819425444596444, 1.0]
    for ell, value in enumerate(expected_c):
        assert top_of_table(csym, ell) == pytest.approx(value, abs=1e-11)


def test_scaled_cdf_edges():
    data = square_opuc(4.0)
    assert scaled_cdf(4.0, -50.0, data) == 0.0
    assert scaled_cdf(4.0, 10.0, data) == pytest.approx(1.0, abs=1e-9)
    mid = scaled_cdf(4.0, 0.0, data)
    assert 0.0 < mid < 1.0


def test_scaled_cdf_refuses_a_short_table():
    """Every row reads the reflection coefficients to the end of the
    table, so a cutoff-10 table, whose P(L <= 10) = 0.999123 is far from
    the converged law, is refused at ell = 23 past its end and at ell = 8
    inside it.  Past the end of a table that reaches the converged cutoff
    its last row stands in, 1 in float64."""
    short = square_levinson(4.0, 10)
    for x in (10.0, 0.0):
        with pytest.raises(ValidationError, match="converged cutoff"):
            scaled_cdf(4.0, x, short)
    data = square_opuc(4.0)
    assert scaled_cdf(4.0, 30.0, data) == 1.0


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_dist_table_round_trip_and_rows():
    """The JSON parses strictly: at t = 30 the first rows underflow to
    p = 0, and their log_p is -inf in the CSV and null in the JSON."""
    model = ModelSpec(kind=ModelKind.POISSON_SQUARE, t=1.0)
    table = build_dist_table(model, 5)
    rows = table.csv_rows()
    assert [r[0] for r in rows] == list(range(6))
    assert rows[1][1] == pytest.approx(0.8386125671260257, abs=1e-12)
    payload = json.loads(table.to_json(), parse_constant=_refuse_constant)
    assert payload["entries"] == {
        str(ell): {"log_p": lp, "p": p} for ell, (lp, p) in table.entries.items()
    }
    assert payload["model"] == json.loads(model.to_json())

    table = build_dist_table(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=30.0), 80)
    zero = [ell for ell, (_, p) in table.entries.items() if p == 0.0]
    assert zero == [0, 1, 2]
    assert [table.csv_rows()[ell][2] for ell in zero] == [-math.inf] * 3
    payload = json.loads(table.to_json(), parse_constant=_refuse_constant)
    assert payload["entries"] == {
        str(ell): {"log_p": None if ell in zero else lp, "p": p}
        for ell, (lp, p) in table.entries.items()
    }


def test_dist_table_monotone_guard():
    with pytest.raises(BreakdownError):
        check_cdf({0: 0.5, 1: 0.4})
    # every step drops 6e-11, inside the slack; together they drop 1.2e-10
    drift = [0.5, 1.0, 1.0 - 6e-11, 1.0 - 1.2e-10]
    with pytest.raises(BreakdownError, match="below an earlier entry"):
        check_cdf(dict(enumerate(drift)))


def test_lines_d_drift_refused():
    """This table ends 1.2e-9 below its reference, falling at most 1.1e-11
    per step but 1.3e-10 from its peak.  Its rows spread 1.8e-9 against a
    twin recursion, so the table is refused before the monotone check;
    the running-maximum guard refuses the same rows where a predecessor
    check would not."""
    model = ModelSpec(kind=ModelKind.POISSON_LINES_D, t=10.0, col_params=(0.3, 0.3))
    with pytest.raises(ConditioningError, match="error bound"):
        build_dist_table(model, 35)
    rows, _ = exact_law(model, 35)
    with pytest.raises(BreakdownError, match="below an earlier entry"):
        check_cdf({ell: p for ell, (p, _) in rows.items()})


def test_ill_conditioned_lattice_refused():
    """Ten rows and columns at q = 0.9 put the symbol's zeros 0.1 from
    the circle.  One recursion for the table returns p(60) = 2.1e-7 where
    an 80-digit dense determinant gives 3.7e-8; the twin recursion on a
    second quadrature grid breaks down, which refuses the table.  At
    lmax 42 the two agree to 1e-14 and the table stands."""
    q = (0.9,) * 10
    model = ModelSpec(kind=ModelKind.LATTICE_A, row_params=q, col_params=q)
    with pytest.raises(BreakdownError):
        build_dist_table(model, 60)
    rows, info = exact_law(model, 42)
    assert 0.0 < max(b for _, b in rows.values()) == info["roundoff_spread"] <= 1e-12
    build_dist_table(model, 42)


@pytest.mark.parametrize("t, lines, lmax", [(3.0, 5, 45), (6.0, 2, 40)])
def test_lines_d_saturated_tail(t, lines, lmax):
    """One recursion for the whole table keeps the saturated tail within
    1e-10 of 1; a recursion per threshold wobbled past 1 + 1e-10."""
    model = ModelSpec(kind=ModelKind.POISSON_LINES_D, t=t, col_params=(0.7,) * lines)
    table = build_dist_table(model, lmax)
    assert sorted(table.entries) == list(range(lmax + 1))
    assert table.probability(lmax) == pytest.approx(1.0, abs=1e-10)


def test_triangle_table_at_the_default_cutoff():
    """At t = 2 the extra cutoff the triangle table once carried put the
    product truncation bound on the roundoff plateau past 1e-12."""
    model = ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=2.0, alpha=0.5)
    fs = ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=2.0, alpha=0.5)
    table = build_dist_table(model, 11)
    for ell in (1, 3, 5, 7, 9, 11):
        assert table.probability(ell) == pytest.approx(
            top_of_table(fs, ell), abs=1e-10
        )
    assert table.truncation_info["tail_bound"] <= 1e-12


def test_build_dist_table_triangle_reports_odd_support():
    model = ModelSpec(kind=ModelKind.POISSON_TRIANGLE, t=1.0, alpha=0.5)
    table = build_dist_table(model, 7)
    assert sorted(table.entries) == [1, 3, 5, 7]


def test_triangle_and_fs_routes_agree_on_shared_thresholds():
    fs = ModelSpec(kind=ModelKind.TRIANGLE_POISSON_FS, t=1.0, alpha=0.5)
    table = build_dist_table(fs, 11)
    data = square_opuc(1.0)
    for thr in (1, 3, 5, 7, 9, 11):
        det_route = float(triangle_odd(1.0, 0.5, (thr - 1) // 2, data))
        assert table.entries[thr][1] == pytest.approx(det_route, abs=1e-10)
