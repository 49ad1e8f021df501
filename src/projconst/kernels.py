"""Axial slices of the reproducing kernels of the three space families.

Each kernel is available in two forms: the defining sum over axial harmonic
profiles (ground truth at small degree) and a collapsed single-Jacobi closed
form (O(d) per point, stable at large degree). The collapse holds at every
n >= 2: at n = 2 the family table's parameters a, b = +-1/2 make the Jacobi
polynomial a multiple of the Chebyshev or Dirichlet kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import FAMILY_TABLE, SpaceId, axial_constant, harmonic_dim, kernel_scale
from .orthopoly import _axial_profile, _clamp, _jacobi_recurrence
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


def kernel_axial_closed(space: SpaceId, t):
    """Collapsed kernel form: one Jacobi polynomial, kernel_scale(space) P_d^{(a,b)}.

    (a, b) comes from the family table at every n >= 2. At n = 2 it is
    (+-1/2, +-1/2), and with t = cos(theta) the kernel is 2 cos(d theta)
    (1 at d = 0), sin((d+1) theta)/sin(theta) or the Dirichlet kernel
    sin((d+1/2) theta)/sin(theta/2).
    """
    a, b = FAMILY_TABLE[space.family].jacobi(space.n)
    out = kernel_scale(space) * _jacobi_recurrence(a, b, space.d, _clamp(t))
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
