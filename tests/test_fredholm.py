"""Determinant identities for the circle-kernel route."""

import json
import math

import numpy as np
import pytest
from scipy.special import iv

from lppdet.errors import ValidationError
from lppdet.exact_dist import square_opuc, toeplitz_prob
from lppdet.fredholm import (
    IdentityReport,
    IntegrableKernelSpec,
    fredholm_log_det,
    identity_checks,
    kernel_matrix,
)
from lppdet.symbols import SymbolSpec


def square_symbol(t):
    return SymbolSpec(exp_plus_t=t, exp_minus_t=t)


def test_k0_determinant_is_gaussian_void_probability():
    """det(1 - K_0) equals the no-point probability exp(-t^2); the right
    side needs no linear algebra at all."""
    for t in (0.5, 1.0, 1.5):
        spec = IntegrableKernelSpec(symbol=square_symbol(t), k=0, nodes=64)
        assert fredholm_log_det(spec) == pytest.approx(-t * t, abs=1e-12)


def test_k1_determinant_from_bessel():
    # log det(1 - K_1) = log I_0(2t) - t^2 + log 2, with the Bessel value
    # from scipy rather than the recursion
    t = 1.0
    spec = IntegrableKernelSpec(symbol=square_symbol(t), k=1, nodes=96)
    expected = math.log(float(iv(0, 2.0 * t))) - t * t + math.log(2.0)
    assert fredholm_log_det(spec) == pytest.approx(expected, abs=1e-12)


def test_zero_t_determinants_are_powers_of_two():
    for k in range(0, 4):
        spec = IntegrableKernelSpec(symbol=square_symbol(0.0), k=k, nodes=64)
        assert fredholm_log_det(spec) == pytest.approx(
            k * math.log(2.0), abs=1e-12
        )


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_identity_residuals_small(t):
    data = square_opuc(t)
    report = identity_checks(t, 4, data)
    assert report.max_residual < 1e-12
    assert len(report.ratio_residuals) == 4
    assert len(report.product_residuals) == 5


def test_normalized_dets_are_cdf_values():
    """2^{-k} det(1 - K_k) must reproduce the threshold probabilities."""
    t = 1.0
    data = square_opuc(t)
    report = identity_checks(t, 4, data)
    for k, val in enumerate(report.normalized_dets):
        assert val == pytest.approx(toeplitz_prob(t * t, k, data), abs=1e-12)


def test_node_halving_stability():
    t = 1.5
    coarse = fredholm_log_det(
        IntegrableKernelSpec(symbol=square_symbol(t), k=2, nodes=64)
    )
    fine = fredholm_log_det(
        IntegrableKernelSpec(symbol=square_symbol(t), k=2, nodes=128)
    )
    assert abs(coarse - fine) < 1e-12


def test_kernel_matrix_shape_and_finiteness():
    spec = IntegrableKernelSpec(symbol=square_symbol(1.0), k=1, nodes=32)
    m = kernel_matrix(spec)
    assert m.shape == (32, 32)
    assert np.all(np.isfinite(m))


def test_spec_validation():
    with pytest.raises(ValidationError):
        IntegrableKernelSpec(symbol=square_symbol(1.0), k=-1)
    with pytest.raises(ValidationError):
        IntegrableKernelSpec(symbol=square_symbol(1.0), k=0, nodes=65)
    with pytest.raises(ValidationError):
        IntegrableKernelSpec(symbol=square_symbol(1.0), k=0, nodes=8)


def test_identity_checks_validation():
    data = square_opuc(1.0)
    with pytest.raises(ValidationError):
        identity_checks(-0.5, 2, data)
    with pytest.raises(ValidationError):
        identity_checks(1.0, data.cutoff + 1, data)


def test_report_json_contains_residuals():
    data = square_opuc(1.0)
    report = identity_checks(1.0, 2, data)
    d = json.loads(report.to_json())
    assert d["t"] == 1.0
    assert d["max_residual"] == report.max_residual
    assert len(d["normalized_dets"]) == 3


def test_lattice_symbol_kernel_runs():
    """The kernel accepts rational symbols too; the determinant only has
    to come out real and finite here."""
    sym = SymbolSpec(zeros_plus=(0.3, 0.2), zeros_minus=(0.25, 0.2))
    val = fredholm_log_det(IntegrableKernelSpec(symbol=sym, k=1, nodes=64))
    assert math.isfinite(val)
