"""Axial slices of the reproducing kernels of the three space families.

Each kernel is available in two forms: the defining sum over axial harmonic
profiles (ground truth at small degree) and a collapsed single-Jacobi closed
form (O(d) per point, stable at large degree). For n = 2 the closed form is
trigonometric; the Jacobi collapse assumes n > 2.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import FAMILY_TABLE, Family, SpaceId, axial_constant, harmonic_dim, kernel_scale
from .orthopoly import JacobiParams, _clamp, jacobi_eval, legendre_nd_eval
from .quadrature import gauss_jacobi_rule
from .result import ComputationResult

__all__ = ["kernel_axial_sum", "kernel_axial_closed", "kernel_l2_norm"]


def kernel_axial_sum(space: SpaceId, t):
    """Kernel at (e1, y) as a function of t = <y, e1>, in the defining sum form."""
    arr = _clamp(t)
    total = np.zeros_like(arr)
    comp = np.zeros_like(arr)
    for j in FAMILY_TABLE[space.family].degrees(space.d):
        term = harmonic_dim(space.n, j) * legendre_nd_eval(space.n, j, arr)
        # Kahan step, vectorized
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return float(total) if np.ndim(t) == 0 else total


def _closed_trig(space: SpaceId, arr: np.ndarray) -> np.ndarray:
    """n = 2 closed forms via Chebyshev / Dirichlet kernels."""
    theta = np.arccos(arr)
    d = space.d
    if space.family is Family.HARMONIC:
        if d == 0:
            return np.ones_like(arr)
        return 2.0 * np.cos(d * theta)
    if space.family is Family.HOMOGENEOUS:
        # one-parity cosine sum collapses to sin((d+1)theta)/sin(theta)
        den = np.sin(theta)
        safe = den != 0.0
        out = np.empty_like(arr)
        out[safe] = np.sin((d + 1) * theta[safe]) / den[safe]
        # theta = 0 or pi: limit (d+1) t^d
        out[~safe] = (d + 1) * np.sign(arr[~safe]) ** d
        return out
    den = np.sin(0.5 * theta)
    safe = den != 0.0
    out = np.empty_like(arr)
    out[safe] = np.sin((d + 0.5) * theta[safe]) / den[safe]
    out[~safe] = 2 * d + 1  # theta = 0
    return out


def kernel_axial_closed(space: SpaceId, t):
    """Collapsed kernel form: one Jacobi polynomial, kernel_scale(space) P_d^{(a,b)}."""
    arr = _clamp(t)
    n, d = space.n, space.d
    if n == 2:
        out = _closed_trig(space, arr)
    else:
        params = JacobiParams(*FAMILY_TABLE[space.family].jacobi(n), d)
        out = kernel_scale(space) * jacobi_eval(params, arr)
    return float(out) if np.ndim(t) == 0 else out


def kernel_l2_norm(space: SpaceId) -> ComputationResult:
    """Weighted L2 norm of the axial kernel; equals sqrt(dim) in exact arithmetic."""
    n, d = space.n, space.d
    gamma = (n - 3) / 2.0
    c_n = axial_constant(n)

    def norm_sq(order: int) -> float:
        rule = gauss_jacobi_rule(gamma, gamma, order)
        k = kernel_axial_closed(space, rule.nodes)
        return c_n * float(np.dot(rule.weights, k * k))

    # k^2 has degree 2d: order d+2 is already exact, the doubled rule is the check
    base = norm_sq(d + 2)
    refined = norm_sq(2 * (d + 2))
    value = math.sqrt(max(refined, 0.0))
    err = abs(math.sqrt(max(base, 0.0)) - value)
    return ComputationResult(
        value=value,
        abs_err=max(err, value * 1e-15),
        method="JacobiQuadrature",
        inputs={"space": space},
    )
