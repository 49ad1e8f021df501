"""Jacobi polynomials, the axial harmonic profile on spheres, and their roots.

Jacobi polynomials are evaluated by the three-term recurrence in the degree
(stable, O(d) per point) with the normalization P_d^{(a,b)}(1) = binom(d+a, d).
The degree-d axially invariant harmonic profile in n variables is generated
from its coefficient ratio recurrence, which avoids the catastrophic
cancellation of the closed gamma-quotient form.

Roots come from the eigenvalues of the symmetric tridiagonal recurrence
matrix and one Newton step each, with P_d and P'_d from a single recurrence
pass (P'_d follows from P_d and P_{d-1}). For a = b the quadratic
transformation to a Jacobi polynomial of half the degree halves the
eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import ConvergenceError, DomainError

__all__ = [
    "JacobiParams",
    "jacobi_eval",
    "jacobi_symmetry_check",
    "legendre_nd_coeffs",
    "legendre_nd_eval",
    "jacobi_roots",
]

# quadrature node jitter tolerance: |t| up to 1 + this is clamped to [-1, 1]
_CLAMP_SLACK = 1e-12


@dataclass(frozen=True)
class JacobiParams:
    """Parameters (alpha, beta, degree) of a Jacobi polynomial P_d^{(a,b)}."""

    alpha: float
    beta: float
    degree: int

    def __post_init__(self):
        if self.alpha <= -1 or self.beta <= -1:
            raise DomainError(
                f"Jacobi parameters must exceed -1, got ({self.alpha}, {self.beta})"
            )
        if self.degree < 0:
            raise DomainError(f"degree must be >= 0, got {self.degree}")


def _clamp(t):
    """Validate |t| <= 1 (up to node jitter) and clamp into [-1, 1]."""
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1.0 + _CLAMP_SLACK):
        raise DomainError("argument outside [-1, 1]; extrapolation refused")
    return np.clip(arr, -1.0, 1.0)


def _jacobi_recurrence_pair(
    alpha: float, beta: float, degree: int, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(P_d, P_{d-1}) by the three-term recurrence in the degree, vectorized over t."""
    if degree == 0:
        return np.ones_like(t), np.zeros_like(t)
    p_prev = np.ones_like(t)
    p = 0.5 * (alpha + beta + 2.0) * t + 0.5 * (alpha - beta)
    ab = alpha + beta
    for k in range(2, degree + 1):
        c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c2 = (2.0 * k + ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * k + ab - 1.0) * (2.0 * k + ab) * (2.0 * k + ab - 2.0)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + ab)
        p, p_prev = ((c2 + c3 * t) * p - c4 * p_prev) / c1, p
    return p, p_prev


def _jacobi_recurrence(alpha: float, beta: float, degree: int, t: np.ndarray) -> np.ndarray:
    """P_d^{(a,b)}(t), vectorized over t."""
    return _jacobi_recurrence_pair(alpha, beta, degree, t)[0]


def _jacobi_value_deriv(
    alpha: float, beta: float, degree: int, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(P_d, P'_d) at t in (-1, 1) from one recurrence pass, d >= 1.

    (2d+a+b)(1-t^2) P'_d = d((a-b) - (2d+a+b) t) P_d + 2(d+a)(d+b) P_{d-1}.
    """
    p, p_prev = _jacobi_recurrence_pair(alpha, beta, degree, t)
    s = 2.0 * degree + alpha + beta
    num = degree * ((alpha - beta) - s * t) * p + 2.0 * (degree + alpha) * (degree + beta) * p_prev
    return p, num / (s * (1.0 - t) * (1.0 + t))


def jacobi_eval(params: JacobiParams, t):
    """P_d^{(a,b)}(t) for t in [-1, 1]; scalar in, scalar out."""
    arr = _clamp(t)
    out = _jacobi_recurrence(params.alpha, params.beta, params.degree, arr)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def jacobi_symmetry_check(params: JacobiParams, t: float) -> float:
    """Residual of the reflection identity P_d^{(a,b)}(t) = (-1)^d P_d^{(b,a)}(-t)."""
    mirrored = JacobiParams(params.beta, params.alpha, params.degree)
    sign = -1.0 if params.degree % 2 else 1.0
    return jacobi_eval(params, t) - sign * jacobi_eval(mirrored, -t)


@lru_cache(maxsize=4096)
def legendre_nd_coeffs(n: int, d: int) -> tuple[float, ...]:
    """Coefficients b_0..b_{floor(d/2)} of the degree-d axial harmonic in R^n.

    The profile is sum_j b_j t^(d-2j) (1-t^2)^j; b_0 = 1 and consecutive
    coefficients obey b_j = -((d-2j+2)(d-2j+1)) / (2j (2j+n-3)) * b_{j-1}.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    coeffs = [1.0]
    for j in range(1, d // 2 + 1):
        ratio = -((d - 2 * j + 2) * (d - 2 * j + 1)) / (2.0 * j * (2 * j + n - 3))
        coeffs.append(ratio * coeffs[-1])
    return tuple(coeffs)


def legendre_nd_eval(n: int, d: int, t):
    """Axial profile: sum_j b_j t^(d-2j) (1-t^2)^j; equals 1 at t = 1."""
    arr = _clamp(t)
    t_sq = arr * arr
    out = _axial_profile(n, d, arr, t_sq, 1.0 - t_sq)
    return float(out) if np.ndim(t) == 0 else out


def _axial_profile(
    n: int, d: int, t: np.ndarray, t_sq: np.ndarray, one_minus: np.ndarray
) -> np.ndarray:
    """legendre_nd_eval on a clamped array, given t^2 and 1 - t^2.

    Homogeneous Horner in (t^2, 1-t^2): acc <- acc t^2 + b_j (1-t^2)^j with a
    running power of 1-t^2, then one factor t when d is odd.
    """
    coeffs = legendre_nd_coeffs(n, d)
    acc = np.full_like(t, coeffs[0])
    power = np.ones_like(t)
    for b in coeffs[1:]:
        power *= one_minus
        acc *= t_sq
        acc += b * power
    return acc * t if d % 2 else acc


def _recurrence_tridiagonal(alpha: float, beta: float, degree: int):
    """Diagonal and off-diagonal of the symmetric Jacobi recurrence matrix."""
    ab = alpha + beta
    diag = np.empty(degree)
    diag[0] = (beta - alpha) / (ab + 2.0)
    k = np.arange(1, degree, dtype=float)
    with np.errstate(invalid="ignore"):
        diag[1:] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    if degree > 1:
        off = np.empty(degree - 1)
        # k = 1 written with the (1+a+b) factor cancelled so a+b = -1 stays finite
        off[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab)))
        k = np.arange(2, degree, dtype=float)
        off[1:] = np.sqrt(
            4.0 * k * (k + alpha) * (k + beta) * (k + ab)
            / ((2.0 * k + ab) ** 2 * ((2.0 * k + ab) ** 2 - 1.0))
        )
    else:
        off = np.empty(0)
    return diag, off


def _eigen_newton(alpha: float, beta: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the recurrence matrix and the Newton step P/P' at each.

    The roots of P_d^{(a,b)} are the eigenvalues minus the steps; a step that
    is not finite or exceeds 1e-6 raises ConvergenceError.
    """
    nodes = eigvalsh_tridiagonal(*_recurrence_tridiagonal(alpha, beta, degree))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as a step not finite
        values, derivs = _jacobi_value_deriv(alpha, beta, degree, nodes)
        step = values / derivs
    bad = ~np.isfinite(step) | (np.abs(step) > 1e-6)
    if np.any(bad):
        raise ConvergenceError(
            f"Newton polish of P_{degree}^({alpha},{beta}) diverged at root indices "
            f"{np.nonzero(bad)[0].tolist()}"
        )
    return nodes, step


def jacobi_roots(params: JacobiParams) -> np.ndarray:
    """All roots of P_d^{(a,b)}, strictly increasing, in (-1, 1), as a float64 array.

    Eigenvalues of the symmetric tridiagonal recurrence matrix followed by one
    Newton step per root, with P' from the same recurrence pass as P. For
    a = b and d >= 2 the problem is halved by the quadratic transformation
    (DLMF 18.7.13-14): P_{2m}^{(a,a)}(x) is a multiple of P_m^{(a,-1/2)}(2x^2-1)
    and P_{2m+1}^{(a,a)}(x) of x P_m^{(a,1/2)}(2x^2-1), so the roots are
    +-sqrt((1+y)/2) over the roots y of the degree-floor(d/2) polynomial, plus
    0 for odd d; the eigensolve and the polish then cost a quarter as much.
    """
    a, b, d = params.alpha, params.beta, params.degree
    if d < 1:
        raise DomainError("jacobi_roots requires degree >= 1")
    if a == b and d >= 2:
        y, step = _eigen_newton(a, 0.5 if d % 2 else -0.5, d // 2)
        # (1 + y) - step, not 1 + (y - step): 1 + y is exact near y = -1, so
        # the smallest roots keep the relative accuracy that rounding the
        # polished y would cost them (about 1e-14 absolute at d = 1600)
        pos = np.sqrt(0.5 * np.clip((1.0 + y) - step, 0.0, 2.0))
        roots = np.concatenate((-pos[::-1], [0.0] if d % 2 else [], pos))
    else:
        nodes, step = _eigen_newton(a, b, d)
        roots = np.clip(nodes - step, -1.0, 1.0)
    return roots
