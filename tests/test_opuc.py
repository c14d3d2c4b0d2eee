"""Recursion table, determinants and polynomial evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lppdet.errors import ValidationError
from lppdet.exact_dist import _default_cutoff, square_opuc
from lppdet.opuc import (
    _highprec_dps,
    _miller_moments,
    dpii_residual,
    eval_pi,
    levinson,
    square_opuc_highprec,
    toeplitz_log_det,
    toeplitz_log_det_dense,
)
from lppdet.symbols import ModelKind, ModelSpec, SymbolSpec, build_symbol, fourier_coeffs

from highprec_oracle import (
    eval_pi_dense,
    levinson_two_family,
    recurrence_checks,
    square_levinson,
    square_opuc_mpf,
    y_corner,
)


def test_reflection_starts_from_bessel_ratio():
    """b(1) = I_1(2t)/I_0(2t) at t = 1, straight from the moment ratio."""
    from scipy.special import iv

    data = square_opuc(1.0)
    assert float(data.reflection[1]) == pytest.approx(
        float(iv(1, 2.0) / iv(0, 2.0)), abs=1e-13
    )
    assert float(data.log_norms[0]) == pytest.approx(
        math.log(float(iv(0, 2.0))), abs=1e-13
    )


def test_reflection_frozen_values():
    data = square_opuc(1.0)
    assert float(data.reflection[1]) == pytest.approx(0.697774657964008, abs=1e-11)
    assert float(data.reflection[2]) == pytest.approx(-0.35989152755700093, abs=1e-11)
    assert float(data.reflection[3]) == pytest.approx(0.12910779285455318, abs=1e-11)


def test_signs_alternate_for_exponential_symbol():
    data = square_opuc(2.0)
    b = np.asarray(data.reflection, dtype=float)
    for k in range(1, 12):
        assert b[k] * (-1.0) ** (k + 1) > 0.0


@settings(deadline=None, max_examples=20)
@given(t=st.floats(0.1, 2.5), order=st.integers(1, 8))
def test_log_det_matches_dense_lu(t, order):
    """Recursion route vs scipy's LU on the raw moment matrix, for
    Levinson's inner-product norms (which the lattice and lines laws read)
    and for the square table's tail sums of the reflection coefficients."""
    cutoff = _default_cutoff(t, order)
    coeffs = fourier_coeffs(SymbolSpec(exp_plus_t=t, exp_minus_t=t), cutoff + 1)
    rhs = toeplitz_log_det_dense(coeffs, order)
    for data in (square_levinson(t, cutoff), square_opuc(t, ell=order)):
        lhs = toeplitz_log_det(data, order)
        assert lhs == pytest.approx(rhs, abs=5e-12 * max(1.0, abs(rhs)))


def test_log_det_order_zero_is_zero():
    data = square_opuc(1.0)
    assert toeplitz_log_det(data, 0) == 0.0


@settings(deadline=None, max_examples=20)
@given(
    t=st.floats(0.2, 2.0),
    k=st.integers(1, 6),
    x=st.floats(-0.9, 0.9),
)
def test_eval_pi_matches_dense_solve(t, k, x):
    data = square_opuc(t, ell=k + 2)
    coeffs = fourier_coeffs(SymbolSpec(exp_plus_t=t, exp_minus_t=t), data.cutoff + 1)
    pi, pi_star, log_scale = eval_pi(data, k, x)
    for j in range(k + 1):
        scale = math.exp(log_scale[j])
        dense_pi, dense_star = eval_pi_dense(coeffs, j, x)
        assert pi[j] * scale == pytest.approx(complex(dense_pi).real, abs=1e-10)
        assert pi_star[j] * scale == pytest.approx(complex(dense_star).real, abs=1e-10)


def test_eval_pi_frozen_point():
    data = square_opuc(1.0, ell=8)
    pi, pi_star, log_scale = eval_pi(data, 2, -0.3)
    assert list(log_scale) == [0.0, 0.0, 0.0]
    assert (pi[0], pi_star[0]) == (1.0, 1.0)
    assert pi[2] == pytest.approx(0.7345608812097725, abs=1e-11)
    assert pi_star[2] == pytest.approx(1.3170595911329015, abs=1e-11)


def test_eval_pi_star_reverses_pi_at_plus_one():
    # at z = 1 the reversed polynomial takes the same value
    data = square_opuc(0.8, ell=6)
    pi, pi_star, _ = eval_pi(data, 5, 1.0)
    for k in (1, 3, 5):
        assert pi[k] == pytest.approx(pi_star[k], rel=1e-12)


def test_eval_pi_rescales_large_values():
    """At x = -50 the values pass the 1e120 rescale threshold by degree 71;
    mantissa times scale matches the same recursion run unscaled in mpmath."""
    import mpmath as mp

    data = square_opuc(1.0, ell=90)
    pi, pi_star, log_scale = eval_pi(data, 90, -50.0)
    assert log_scale[0] == 0.0 < log_scale[-1]
    assert np.all(np.diff(log_scale) >= 0.0)
    with mp.workdps(30):
        p, ps = mp.mpf(1), mp.mpf(1)
        for j in range(1, 91):
            b = mp.mpf(float(data.reflection[j]))
            p, ps = -50 * p - b * ps, ps + 50 * b * p
            for value, mantissa in ((p, pi[j]), (ps, pi_star[j])):
                assert np.sign(mantissa) == mp.sign(value)
                assert math.log(abs(mantissa)) + log_scale[j] == pytest.approx(
                    float(mp.log(abs(value))), abs=1e-12
                )


def test_eval_pi_refuses_an_asymmetric_recursion():
    spec = SymbolSpec(zeros_plus=(0.5,), zeros_minus=(0.2,))
    data = levinson(fourier_coeffs(spec, half_width=8), 6)
    with pytest.raises(ValidationError, match="symmetric"):
        eval_pi(data, 3, -0.5)


def test_discrete_painleve_residuals_small():
    for t in (0.5, 1.0, 3.0):
        data = square_opuc(t)
        worst = max(dpii_residual(data, t, k) for k in range(2, 15))
        assert worst < 1e-10


def test_dpii_residual_validates_range():
    data = square_opuc(1.0)
    with pytest.raises(ValidationError):
        dpii_residual(data, 1.0, 1)
    with pytest.raises(ValidationError):
        dpii_residual(data, 1.0, data.cutoff)


def test_recurrence_report_consistency():
    """Levinson's inner-product norms follow the reflection product update,
    and the square table's tail sums stay on them."""
    cutoff = _default_cutoff(2.0, 0)
    levinson_data = square_levinson(2.0, cutoff)
    report = recurrence_checks(levinson_data)
    assert report.max_dev_a < 1e-12
    assert report.max_dev_d < 1e-12
    tail_sums = square_opuc(2.0).log_norms
    assert np.max(np.abs(tail_sums - levinson_data.log_norms)) <= 1e-12


def test_corner_unimodular_relation():
    data = square_opuc(1.5)
    for k in range(1, data.cutoff):
        corner = y_corner(data, k)
        assert corner.a * corner.d + corner.b**2 == pytest.approx(1.0, abs=1e-12)


def test_highprec_agrees_with_float64():
    hp = square_opuc_highprec(1.0, _default_cutoff(1.0, 0))
    fp = square_opuc(1.0)
    for k in range(1, 13):
        assert float(hp.reflection[k]) == pytest.approx(
            float(fp.reflection[k]), abs=1e-12
        )
    assert np.max(np.abs(hp.log_norms - fp.log_norms)) <= 1e-14


def test_highprec_survives_large_t():
    """float64 moments overflow near t = 15; the fixed-point path keeps the
    reflection sequence finite and inside the unit interval in product."""
    data = square_opuc_highprec(15.0, _default_cutoff(15.0, 0))
    b = [float(v) for v in data.reflection[1:]]
    assert all(abs(v) < 1.0 for v in b)
    assert all(math.isfinite(v) for v in b)


@pytest.mark.parametrize("t", [7.0, 20.0, 40.0])
def test_highprec_matches_mpf_oracle(t):
    """The fixed-point route reproduces the scalar mpmath recursion on
    ``besseli`` moments at the same working precision."""
    cutoff = min(_default_cutoff(t, 0), 150)
    data = square_opuc_highprec(t, cutoff)
    reflection, log_norms = square_opuc_mpf(t, cutoff, _highprec_dps(t))
    assert np.max(np.abs(data.reflection - reflection)) <= 1e-13
    assert np.max(np.abs(data.log_norms - log_norms)) <= 1e-12


def test_highprec_refuses_a_short_table():
    """The log-norms are tail sums of the reflection coefficients, which a
    table short of the converged cutoff would truncate: it is refused."""
    cutoff = _default_cutoff(7.0, 0)
    with pytest.raises(ValidationError, match="converged cutoff"):
        square_opuc_highprec(7.0, cutoff - 1)
    assert square_opuc_highprec(7.0, cutoff).log_norms[-1] == 0.0


@pytest.mark.parametrize("t", [0.5, 2.5, 7.0, 30.0])
def test_tail_log_norms_sum_to_log_z(t):
    """log N_0 = log I_0(2t) and sum_k log N_k = t^2 from the reflection
    coefficients alone, on both routes."""
    import mpmath as mp

    data = square_opuc(t)
    assert float(data.log_norms[0]) == pytest.approx(
        float(mp.log(mp.besseli(0, 2 * mp.mpf(t)))), rel=1e-14
    )
    assert math.fsum(data.log_norms) == pytest.approx(t * t, abs=1e-13 * max(1.0, t * t))


@pytest.mark.parametrize("t", [0.5, 7.0, 67.5, 120.0])
def test_miller_moments_match_besseli(t):
    """Every fixed-point moment ratio I_j(2t)/I_0(2t), j <= cutoff + 1, is
    within 2^-(P - 16) of mpmath's Bessel values."""
    import mpmath as mp

    cutoff = _default_cutoff(t, 0)
    with mp.workdps(_highprec_dps(t)):
        bits = mp.mp.prec
        ratios = _miller_moments(t, cutoff + 2, bits)
        tol = mp.ldexp(1, -(bits - 16))
        two_t = 2 * mp.mpf(t)
        exact_i0 = mp.besseli(0, two_t)
        assert len(ratios) == cutoff + 2
        for j, r in enumerate(ratios):
            assert abs(mp.ldexp(r, -bits) - mp.besseli(j, two_t) / exact_i0) <= tol


def _table_symbol(kind: ModelKind, q, qp=None, t: float = 0.0) -> SymbolSpec:
    return build_symbol(ModelSpec(kind=kind, t=t, row_params=q, col_params=q if qp is None else qp))


@pytest.mark.parametrize(
    "spec",
    [
        SymbolSpec(exp_plus_t=0.5, exp_minus_t=0.5),
        SymbolSpec(exp_plus_t=2.5, exp_minus_t=2.5),
        _table_symbol(ModelKind.LATTICE_A, (0.5, 0.3, 0.7)),
        _table_symbol(ModelKind.LATTICE_C, (0.6,) * 4),
        _table_symbol(ModelKind.LATTICE_A, (0.5, 0.3), (0.2, 0.6)),
        _table_symbol(ModelKind.LATTICE_B, (0.5,) * 3, (0.3,) * 3),
        _table_symbol(ModelKind.POISSON_LINES_D, (), (0.3, 0.7), t=3.0),
        _table_symbol(ModelKind.POISSON_LINES_E, (), (0.3, 0.7), t=3.0),
    ],
    ids=["square-t0.5", "square-t2.5", "lattice-a", "lattice-c", "lattice-a-qp",
         "lattice-b", "lines-d", "lines-e"],
)
def test_levinson_matches_the_two_family_recursion_bit_for_bit(spec):
    """One family for symmetric symbols, in preallocated buffers, with the
    float operations of the two-family recursion that built new arrays."""
    for cutoff in (30, 120):
        table = fourier_coeffs(spec, cutoff + 2)
        got, want = levinson(table, cutoff), levinson_two_family(table, cutoff)
        for name in ("reflection", "reflection_dual", "log_norms"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_levinson_requires_enough_coefficients():
    coeffs = fourier_coeffs(SymbolSpec(exp_plus_t=1.0, exp_minus_t=1.0), 4)
    with pytest.raises(ValidationError):
        levinson(coeffs, 10)
