"""Projection constants of harmonic and polynomial spaces on real spheres.

Each lambda reduces to a gamma-ratio prefactor times a weighted L1 norm of a
single Jacobi polynomial, the axial kernel, whose arches have closed
antiderivatives (see quadrature.integrate_abs_kernel); n = 2 is always served
by trigonometric closed forms or Dirichlet-kernel integrals (the Jacobi route
would hit the gamma = -1/2 endpoint singularity for no benefit).
"""

from __future__ import annotations

import math

from .errors import DomainError, ToleranceError
from .gammafn import GammaRatioSpec, gamma_ratio, log_gamma
from .geometry import Family, SpaceId, axial_constant, dim_space
from .orthopoly import JacobiParams
from .quadrature import DEFAULT_TOL, dirichlet_lebesgue, integrate_abs_kernel
from .result import ComputationResult

__all__ = [
    "lambda_harmonic",
    "lambda_homogeneous",
    "lambda_poly_leq",
    "lambda_complex_homogeneous",
    "lambda_hilbert",
]

# verification hook: set by the CLI fault-injection flag to scale every
# lambda of the n >= 3 route, proving the check harness detects a wrong constant
_FAULT_SCALE = 1.0


def _exact_lambda(
    family: Family, n: int, d: int, degrees: range, roots_of: JacobiParams, tol: float
) -> ComputationResult:
    """lambda for n >= 3 from the exact arch sum over the kernel's roots.

    tol bounds the error of the Jacobi-normalized integral
    Int |P_d^{(a,b)}(t)| (1-t^2)^((n-3)/2) dt, with P = roots_of; it equals
    lambda / prefactor, where prefactor = c_n dim / P(1) since the kernel
    is dim P / P(1) and P(1) = binom(d+a, d).
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    res = integrate_abs_kernel(n, degrees, roots_of)
    if not math.isfinite(res.value):
        raise ToleranceError(
            f"lambda overflows double precision at n={n}, d={d}", value=res.value, achieved=math.inf
        )
    a = roots_of.alpha
    prefactor = (
        axial_constant(n)
        * dim_space(SpaceId(family, n, d))
        / gamma_ratio(GammaRatioSpec((d + a + 1.0,), (d + 1.0, a + 1.0)))
    )
    achieved = res.abs_err / prefactor
    if not achieved <= tol:
        raise ToleranceError(
            f"abs-Jacobi integral reached {achieved:.3e}, requested {tol:.3e}",
            value=res.value / prefactor,
            achieved=achieved,
        )
    return ComputationResult(
        value=_FAULT_SCALE * res.value,
        abs_err=_FAULT_SCALE * res.abs_err,
        method=res.method,
        inputs={"family": family.value, "n": n, "d": d, "tol": tol},
    )


def lambda_harmonic(n: int, d: int, tol: float = DEFAULT_TOL) -> ComputationResult:
    """Projection constant of degree-d spherical harmonics on S^{n-1}."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    if d == 0:
        # constants: kernel identically 1
        return ComputationResult(1.0, 0.0, "ClosedForm", {"family": "harmonic", "n": n, "d": d})
    if n == 2:
        return ComputationResult(
            4.0 / math.pi, 0.0, "ClosedForm", {"family": "harmonic", "n": n, "d": d}
        )
    gamma = (n - 3) / 2.0
    return _exact_lambda(Family.HARMONIC, n, d, range(d, d + 1), JacobiParams(gamma, gamma, d), tol)


def lambda_homogeneous(n: int, d: int, tol: float = DEFAULT_TOL) -> ComputationResult:
    """Projection constant of degree-d homogeneous polynomials on S^{n-1}."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if n == 2:
        res = dirichlet_lebesgue(d, "half", tol)
        return ComputationResult(
            res.value, res.abs_err, res.method,
            {"family": "homogeneous", "n": n, "d": d, "tol": tol},
        )
    alpha = (n - 1) / 2.0
    return _exact_lambda(
        Family.HOMOGENEOUS, n, d, range(d % 2, d + 1, 2), JacobiParams(alpha, alpha, d), tol
    )


def lambda_poly_leq(n: int, d: int, tol: float = DEFAULT_TOL) -> ComputationResult:
    """Projection constant of all polynomials of degree <= d on S^{n-1}."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    if d == 0:
        return ComputationResult(1.0, 0.0, "ClosedForm", {"family": "polyleq", "n": n, "d": d})
    if n == 2:
        res = dirichlet_lebesgue(d, "full", tol)
        return ComputationResult(
            res.value, res.abs_err, res.method,
            {"family": "polyleq", "n": n, "d": d, "tol": tol},
        )
    params = JacobiParams((n - 1) / 2.0, (n - 3) / 2.0, d)
    return _exact_lambda(Family.POLY_LEQ, n, d, range(d + 1), params, tol)


def lambda_complex_homogeneous(n: int, d: int) -> ComputationResult:
    """Ryll-Wojtaszczyk constant for d-homogeneous polynomials on complex l2^n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    value = gamma_ratio(
        GammaRatioSpec(
            numerator_args=(float(n + d), 1.0 + d / 2.0),
            denominator_args=(1.0 + d, n + d / 2.0),
        )
    )
    return ComputationResult(
        value=value,
        abs_err=value * 1e-13,
        method="ClosedForm",
        inputs={"family": "complex-homogeneous", "n": n, "d": d},
    )


def lambda_hilbert(n: int, field: str = "real") -> ComputationResult:
    """Rutovitz constant for l2^n, real or complex scalars."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if field == "real":
        value = 2.0 / math.sqrt(math.pi) * math.exp(
            log_gamma((n + 2) / 2.0) - log_gamma((n + 1) / 2.0)
        )
    elif field == "complex":
        value = math.sqrt(math.pi) / 2.0 * math.exp(
            log_gamma(n + 1.0) - log_gamma(n + 0.5)
        )
    else:
        raise DomainError(f"field must be 'real' or 'complex', got {field!r}")
    return ComputationResult(
        value=value,
        abs_err=value * 1e-15,
        method="ClosedForm",
        inputs={"family": f"hilbert-{field}", "n": n},
    )
