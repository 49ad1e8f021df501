"""Projection constants of harmonic and polynomial spaces on real spheres.

Each lambda reduces to a gamma-ratio prefactor times a weighted L1 norm of a
single Jacobi polynomial, the axial kernel, whose arches have closed
antiderivatives (see quadrature.integrate_abs_kernel); n = 2 is always served
by trigonometric closed forms or Dirichlet-kernel integrals, which are
Fejer's finite sums of tangents (the Jacobi route would hit the gamma = -1/2
endpoint singularity for no benefit).
"""

from __future__ import annotations

import math

from .errors import DomainError, ToleranceError
from .gammafn import gamma_ratio
from .geometry import FAMILY_TABLE, Family, SpaceId, _require_float_range, axial_constant, kernel_scale
from .quadrature import dirichlet_lebesgue, integrate_abs_kernel
from .result import ComputationResult

__all__ = [
    "DEFAULT_TOL",
    "projection_constant",
    "lambda_harmonic",
    "lambda_homogeneous",
    "lambda_poly_leq",
    "lambda_complex_homogeneous",
    "lambda_hilbert",
]

DEFAULT_TOL = 1e-10


def projection_constant(space: SpaceId, tol: float = DEFAULT_TOL) -> ComputationResult:
    """Projection constant of a harmonic or polynomial space on S^{n-1}.

    The one place where a lambda meets tol; tol is validated first, for every
    route. lambda = prefactor * I, and tol bounds the error of I: for n >= 3,
    I = Int |P_d^{(a,b)}(t)| (1-t^2)^((n-3)/2) dt, the Jacobi-normalized
    integral, with prefactor = c_n kernel_scale(space), since the kernel is
    kernel_scale(space) P; for n = 2, I is the Dirichlet integral and the
    prefactor is 1. Closed forms are exact. ToleranceError, whose value is
    lambda, when lambda overflows double precision or misses tol.
    """
    if not tol > 0:  # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    spec = FAMILY_TABLE[space.family]
    n, d = space.n, space.d
    if d < spec.min_d:
        raise DomainError(f"need d >= {spec.min_d}, got {d}")
    if d == 0:
        # constants: kernel identically 1
        return ComputationResult(1.0, 0.0, "ClosedForm")
    if n == 2:
        if spec.dirichlet_kind is None:
            return ComputationResult(4.0 / math.pi, 0.0, "ClosedForm")
        res, integral = dirichlet_lebesgue(d, spec.dirichlet_kind), "Dirichlet integral"
    else:
        res, integral = integrate_abs_kernel(space), "Jacobi-normalized arch sum"
    if not math.isfinite(res.value):
        raise ToleranceError(
            f"lambda overflows double precision at n={n}, d={d}", value=res.value, achieved=math.inf
        )
    prefactor = 1.0 if n == 2 else axial_constant(n) * kernel_scale(space)
    achieved = res.abs_err / prefactor
    if not achieved <= tol:
        raise ToleranceError(
            f"{integral} reached {achieved:.3e}, requested {tol:.3e}", value=res.value, achieved=achieved
        )
    return res


def lambda_harmonic(n: int, d: int, tol: float = DEFAULT_TOL) -> ComputationResult:
    """Projection constant of degree-d spherical harmonics on S^{n-1}."""
    return projection_constant(SpaceId(Family.HARMONIC, n, d), tol)


def lambda_homogeneous(n: int, d: int, tol: float = DEFAULT_TOL) -> ComputationResult:
    """Projection constant of degree-d homogeneous polynomials on S^{n-1} (d >= 1)."""
    return projection_constant(SpaceId(Family.HOMOGENEOUS, n, d), tol)


def lambda_poly_leq(n: int, d: int, tol: float = DEFAULT_TOL) -> ComputationResult:
    """Projection constant of all polynomials of degree <= d on S^{n-1}."""
    return projection_constant(SpaceId(Family.POLY_LEQ, n, d), tol)


def lambda_complex_homogeneous(n: int, d: int) -> ComputationResult:
    """Ryll-Wojtaszczyk constant for d-homogeneous polynomials on complex l2^n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    _require_float_range("n", n)
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    try:
        value = gamma_ratio((float(n + d), 1.0 + d / 2.0), (1.0 + d, n + d / 2.0))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ToleranceError(
            f"lambda overflows double precision at n={n}, d={d}", value=value, achieved=math.inf
        )
    return ComputationResult(
        value=value,
        abs_err=value * 1e-13,
        method="ClosedForm",
    )


def lambda_hilbert(n: int, field: str = "real") -> ComputationResult:
    """Rutovitz constant for l2^n, real or complex scalars."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    _require_float_range("n", n)
    if field == "real":
        value = 2.0 / math.sqrt(math.pi) * gamma_ratio(((n + 2) / 2.0,), ((n + 1) / 2.0,))
    elif field == "complex":
        value = math.sqrt(math.pi) / 2.0 * gamma_ratio((n + 1.0,), (n + 0.5,))
    else:
        raise DomainError(f"field must be 'real' or 'complex', got {field!r}")
    return ComputationResult(
        value=value,
        abs_err=value * 1e-15,
        method="ClosedForm",
    )
