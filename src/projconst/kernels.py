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
from .orthopoly import JacobiParams, _axial_profile, _clamp, jacobi_eval
from .quadrature import gauss_jacobi_rule
from .result import ComputationResult

__all__ = ["kernel_axial_sum", "kernel_axial_closed", "kernel_l2_norm"]

# abs_err of kernel_l2_norm, in units of eps times order^2 times the value.
# Against sqrt(dim) over the three families, n = 2..11, 20, 50 and d up to
# 1600, the error reached 6.75 such units, at polyleq n = 50, d = 0, where the
# order is 2 and the rounding of axial_constant and the weight's mass (about
# 27 eps) is all there is. From d = 3 on it stayed below 1.2 units, and at
# d >= 40 below 0.07 (at most 1.6e-11 relative, at n = 2, d = 1280); 8 keeps
# a margin at the small orders.
_L2_ROUNDING = 8.0


def kernel_axial_sum(space: SpaceId, t):
    """Kernel at (e1, y) as a function of t = <y, e1>, in the defining sum form."""
    arr = _clamp(t)
    t_sq = arr * arr
    one_minus = 1.0 - t_sq
    total = np.zeros_like(arr)
    comp = np.zeros_like(arr)
    for j in FAMILY_TABLE[space.family].degrees(space.d):
        term = harmonic_dim(space.n, j) * _axial_profile(space.n, j, arr, t_sq, one_minus)
        # Kahan step, vectorized
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return float(total) if np.ndim(t) == 0 else total


def _closed_trig(space: SpaceId, arr: np.ndarray) -> np.ndarray:
    """n = 2 closed forms via Chebyshev / Dirichlet kernels."""
    d = space.d
    if space.family is Family.HOMOGENEOUS:
        # one-parity cosine sum collapses to sin((d+1)theta)/sin(theta); it has
        # the parity of d, so take theta = arccos|t|, where sin(theta) = 0 only
        # at |t| = 1 exactly (arccos(-1) rounds to a float whose sine is not 0)
        theta = np.arccos(np.abs(arr))
        den = np.sin(theta)
        safe = den != 0.0
        out = np.full_like(arr, d + 1.0)  # theta = 0: limit d+1
        out[safe] = np.sin((d + 1) * theta[safe]) / den[safe]
        return np.where(arr < 0, -out, out) if d % 2 else out
    theta = np.arccos(arr)
    if space.family is Family.HARMONIC:
        if d == 0:
            return np.ones_like(arr)
        return 2.0 * np.cos(d * theta)
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
    # k^2 has degree 2d, so a Gauss rule of order d+2 integrates it exactly
    order = d + 2
    rule = gauss_jacobi_rule((n - 3) / 2.0, (n - 3) / 2.0, order)
    k = kernel_axial_closed(space, rule.nodes)
    value = math.sqrt(axial_constant(n) * float(np.dot(rule.weights, k * k)))
    return ComputationResult(
        value=value,
        abs_err=_L2_ROUNDING * math.ulp(1.0) * order**2 * value,
        method="JacobiQuadrature",
    )
