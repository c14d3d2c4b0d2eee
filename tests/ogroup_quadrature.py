"""Eigenvalue-angle quadrature for orthogonal-group averages: a test oracle.

The Weyl integration formula integrated on a tensor Gauss grid, one
axis per conjugate eigenvalue pair.  The grid has n^(ell/2) points, so it
is only usable for small groups; the package evaluates the same averages
as Toeplitz +- Hankel determinants and the tests compare the two.  Also a
Monte Carlo mean over Haar orthogonal matrices, the sampled counterpart.
"""

import math

import numpy as np
from scipy.special import roots_chebyt, roots_chebyu, roots_jacobi

from lppdet.errors import ValidationError
from lppdet.symbols import SymbolSpec, evaluate_symbol

MAX_ELL = 8


def component_quadrature(
    ell: int, minus_component: bool, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Eigenvalue-angle quadrature for one component of the orthogonal group.

    Returns (cosine nodes, combined weights, fixed eigenvalues).  The
    paired angles carry the squared Vandermonde in the cosines times a
    component-specific one-dimensional weight:

      even size, det +1 : arcsine weight (pure Chebyshev)
      even size, det -1 : fixed +1 and -1, sine-squared weight
      odd size,  det +1 : fixed +1, half-angle sine-squared  -> Jacobi(1/2,-1/2)
      odd size,  det -1 : fixed -1, half-angle cosine-squared -> Jacobi(-1/2,1/2)
    """
    if ell % 2 == 0:
        if not minus_component:
            x, w = roots_chebyt(n_nodes)
            return x, w, []
        x, w = roots_chebyu(n_nodes)
        return x, w, [1.0, -1.0]
    if not minus_component:
        x, w = roots_jacobi(n_nodes, 0.5, -0.5)
        return x, w, [1.0]
    x, w = roots_jacobi(n_nodes, -0.5, 0.5)
    return x, w, [-1.0]


def weyl_component_mean(
    spec: SymbolSpec, ell: int, minus_component: bool, n_nodes: int
) -> float:
    x, w, fixed = component_quadrature(ell, minus_component, n_nodes)
    m = (ell - len(fixed)) // 2
    fixed_value = 1.0
    for lam in fixed:
        fixed_value *= float(np.real(evaluate_symbol(spec, lam)))
    if m == 0:
        return fixed_value
    # each conjugate eigenvalue pair contributes |psi(e^{i theta})|^2,
    # a function of cos theta alone for real-coefficient psi
    z = x + 1j * np.sqrt(1.0 - x * x)
    pair_1d = np.abs(evaluate_symbol(spec, z)) ** 2
    grids = np.meshgrid(*([x] * m), indexing="ij")
    vandermonde = np.ones_like(grids[0])
    for i in range(m):
        for j in range(i + 1, m):
            vandermonde = vandermonde * (grids[i] - grids[j]) ** 2
    num_w = np.ones_like(grids[0])
    den_w = np.ones_like(grids[0])
    for axis in range(m):
        shape = [1] * m
        shape[axis] = n_nodes
        num_w = num_w * (w * pair_1d).reshape(shape)
        den_w = den_w * w.reshape(shape)
    return fixed_value * float(
        np.sum(vandermonde * num_w) / np.sum(vandermonde * den_w)
    )


def quadrature_expectation(spec: SymbolSpec, ell: int, n_nodes: int = 48) -> float:
    """Mean of det(psi(U)) over O(ell), averaging the two components."""
    if not 1 <= ell <= MAX_ELL:
        raise ValueError(f"quadrature oracle supports 1 <= ell <= {MAX_ELL}, got {ell}")
    plus = weyl_component_mean(spec, ell, False, n_nodes)
    minus = weyl_component_mean(spec, ell, True, n_nodes)
    return 0.5 * (plus + minus)


def haar_orthogonal_expectation(
    psi: SymbolSpec,
    ell: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean of det(psi(U)) over Haar orthogonal matrices.

    Returns (estimate, standard error).  QR factors are sign-corrected
    so the law is exactly Haar on the full group, covering both
    determinant components with equal mass; det psi(U) is a product over
    eigenvalues.
    """
    if not 1 <= ell <= 12:
        raise ValidationError(f"supported range is 1 <= ell <= 12, got {ell}")
    if trials < 2:
        raise ValidationError("need at least 2 trials for a standard error")
    vals = np.empty(trials)
    done = 0
    while done < trials:
        batch = min(4096, trials - done)
        g = rng.standard_normal((batch, ell, ell))
        q, r = np.linalg.qr(g)
        signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)
        q = q * signs[:, np.newaxis, :]
        lam = np.linalg.eigvals(q)
        vals[done : done + batch] = np.real(
            np.prod(evaluate_symbol(psi, lam), axis=-1)
        )
        done += batch
    est = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / math.sqrt(trials))
    return est, err
