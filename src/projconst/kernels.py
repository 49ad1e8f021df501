"""Axial slices of the reproducing kernels of the three space families.

Each kernel is available in two forms: the defining sum over axial harmonic
profiles (ground truth at small degree) and a collapsed single-Jacobi closed
form (O(d) per point, stable at large degree). The collapse holds at every
n >= 2: at n = 2 the family table's parameters a, b = +-1/2 make the Jacobi
polynomial a multiple of the Chebyshev or Dirichlet kernel.

Both forms also come as rows, one per degree d <= d_max of a family, from a
single pass (`kernel_sum_rows`, `kernel_closed_rows`). The sum rows evaluate
every profile once, in blocks that share their Horner steps, and extend one
Kahan chain per start of the degree range instead of restarting it for each
d; the closed rows take every P_d from one recurrence pass. Row d is
bit-identical to the single-space call at degree d, signed zeros included.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from .geometry import FAMILY_TABLE, Family, SpaceId, axial_constant, harmonic_dim, kernel_scale
from .orthopoly import _axial_profile_blocks, _clamp, _jacobi_recurrence, jacobi_rows
from .quadrature import gauss_jacobi_rule
from .result import ComputationResult

__all__ = [
    "kernel_axial_sum",
    "kernel_axial_closed",
    "kernel_sum_rows",
    "kernel_closed_rows",
    "kernel_l2_norm",
]

# abs_err of kernel_l2_norm, in units of eps times order^2 times the value.
# Against sqrt(dim) over the three families, n = 2..11, 20, 50 and d up to
# 1600, the error reached 6.75 such units, at polyleq n = 50, d = 0, where the
# order is 2 and the rounding of axial_constant and the weight's mass (about
# 27 eps) is all there is. From d = 3 on it stayed below 1.2 units, and at
# d >= 40 below 0.07 (at most 1.6e-11 relative, at n = 2, d = 1280); 8 keeps
# a margin at the small orders.
_L2_ROUNDING = 8.0


def _running_sums(family: Family, n: int, degrees: range, t: np.ndarray) -> Iterator[np.ndarray]:
    """Sum form of the kernel of each ascending degree k at a clamped 1-D t.

    The space of degree k spans the harmonics of FAMILY_TABLE[family].degrees(k):
    k and every smaller degree whose range starts where k's does. So one Kahan
    chain per range start (one for polyleq, one per parity for homogeneous, a
    fresh one per degree for harmonic) adds dim_k profile_k in the order and
    with the operations of a sum over degrees(k) alone.
    """
    family_degrees = FAMILY_TABLE[family].degrees
    zero = np.zeros_like(t)
    chains: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    profiles = itertools.chain.from_iterable(_axial_profile_blocks(n, degrees, t))
    for k, profile in zip(degrees, profiles):
        term = harmonic_dim(n, k) * profile
        chain = family_degrees(k).start
        total, comp = chains.get(chain, (zero, zero))
        # Kahan step, vectorized
        y = term - comp
        s = total + y
        chains[chain] = s, (s - total) - y
        yield s


def kernel_axial_sum(space: SpaceId, t):
    """Kernel at (e1, y) as a function of t = <y, e1>, in the defining sum form."""
    arr = _clamp(t)
    for total in _running_sums(
        space.family, space.n, FAMILY_TABLE[space.family].degrees(space.d), arr.reshape(-1)
    ):
        pass
    return float(total[0]) if np.ndim(t) == 0 else total.reshape(arr.shape)


def kernel_sum_rows(family: Family, n: int, d_max: int, t) -> np.ndarray:
    """kernel_axial_sum for every d <= d_max as the rows of one array, bit-identical."""
    arr = _clamp(t)
    out = np.empty((d_max + 1, arr.size))
    for d, total in enumerate(_running_sums(family, n, range(d_max + 1), arr.reshape(-1))):
        out[d] = total
    return out.reshape((d_max + 1,) + arr.shape)


def kernel_closed_rows(family: Family, n: int, d_max: int, t) -> np.ndarray:
    """kernel_axial_closed for every d <= d_max as the rows of one array, bit-identical."""
    a, b = FAMILY_TABLE[family].jacobi(n)
    out = jacobi_rows(a, b, d_max, t)
    for d in range(d_max + 1):
        out[d] *= kernel_scale(SpaceId(family, n, d))
    return out


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
