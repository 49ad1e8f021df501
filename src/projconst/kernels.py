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

# abs_err of kernel_l2_norm, in units of eps times order^2 times the value.
# The rule's nodes carry rounding, and near +-1, where the kernel's mass sits,
# a node error moves k by about order^2 times as much relatively. Against
# sqrt(dim) over the three families, n = 2..11, 20, 50 and d up to 1600, the
# error reached 12.8 such units, at polyleq n = 3, d = 1600; 32 keeps a margin.
_L2_ROUNDING = 32.0


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
    # k^2 has degree 2d, so a Gauss rule of order d+2 integrates it exactly
    order = d + 2
    rule = gauss_jacobi_rule((n - 3) / 2.0, (n - 3) / 2.0, order)
    k = kernel_axial_closed(space, rule.nodes)
    value = math.sqrt(axial_constant(n) * float(np.dot(rule.weights, k * k)))
    return ComputationResult(
        value=value,
        abs_err=_L2_ROUNDING * math.ulp(1.0) * order**2 * value,
        method="JacobiQuadrature",
        inputs={"space": space},
    )
