"""Weighted integration on [-1, 1] and Dirichlet-type periodic integrals.

The central operation integrates |P(t)| (1-t^2)^gamma for a Jacobi polynomial
P. The absolute value has kinks exactly at the roots of P, so the interval is
split there. For the axial kernels of the projection constants every arch has
a closed antiderivative, and `integrate_abs_kernel` sums its differences at
the roots exactly. `integrate_abs_jacobi` is the general route for any
(a, b, gamma): each smooth arch is integrated to spectral accuracy, endpoint
weight singularities (gamma < 0) stay inside a Gauss-Jacobi rule on the two
outermost subintervals, and interior subintervals fold the weight into the
integrand under plain Gauss-Legendre. The Dirichlet-kernel integrals of
n = 2 are Fejer's finite sums of tangents (`dirichlet_lebesgue`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, roots_jacobi

from .errors import DomainError, ToleranceError
from .gammafn import beta as beta_fn
from .geometry import axial_constant
from .orthopoly import JacobiParams, _jacobi_recurrence, jacobi_roots
from .result import ComputationResult

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "integrate_abs_jacobi",
    "integrate_abs_kernel",
    "dirichlet_lebesgue",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10

# abs_err of integrate_abs_kernel, in units of eps times the summed sizes of
# the antiderivative's two parts at the roots. Against 40-digit references
# (every n >= 3 value of perfbench/reference.json) the error reached 29 such
# units, at polyleq n = 4, d = 662; 48 keeps a margin, and n = 50, d <= 54
# still meets the default tolerance, which allows up to 59 there.
_ARCH_SUM_ROUNDING = 48.0

# abs_err of dirichlet_lebesgue, in units of eps times the value. Each term
# takes about five roundings (the angle, the tangent, its reciprocal, 4/pi and
# the division by p); against the 300 n = 2 homogeneous and polyleq values of
# perfbench/reference.json (d up to 1e5) the error reached 1.35 such units;
# 8 covers all five roundings of every term with a margin.
_FEJER_ROUNDING = 8.0


# bounded, since kernel_l2_norm asks for orders that grow with d; `verify`
# cycles through six orders, which a smaller cache would evict and rebuild
@lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for the weight (1-t)^alpha (1+t)^beta on a subinterval.

    The weight always refers to the global variable on [-1, 1]; on interior
    subintervals it is folded into the weights of a Gauss-Legendre rule.
    """

    alpha: float
    beta: float
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_jacobi_rule(
    alpha: float, beta: float, order: int, interval: tuple[float, float] = (-1.0, 1.0)
) -> QuadratureRule:
    """Gauss rule for the weight (1-t)^alpha (1+t)^beta restricted to interval."""
    if alpha <= -1 or beta <= -1:
        raise DomainError(f"weight exponents must exceed -1, got ({alpha}, {beta})")
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    lo, hi = interval
    if not (-1.0 <= lo < hi <= 1.0):
        raise DomainError(f"invalid subinterval {interval}")

    touches_hi = hi == 1.0 and alpha != 0.0
    touches_lo = lo == -1.0 and beta != 0.0

    if touches_hi and touches_lo:
        x, w = roots_jacobi(order, alpha, beta)
        if (lo, hi) != (-1.0, 1.0):  # pragma: no cover - excluded by touching both ends
            raise DomainError("a proper subinterval cannot touch both endpoints")
    elif touches_hi:
        # substitute so the (1-t)^alpha factor becomes the rule's weight
        s, ws = roots_jacobi(order, alpha, 0.0)
        half = 0.5 * (hi - lo)
        x = lo + half * (s + 1.0)
        w = ws * half ** (alpha + 1.0) * (1.0 + x) ** beta
    elif touches_lo:
        s, ws = roots_jacobi(order, 0.0, beta)
        half = 0.5 * (hi - lo)
        x = lo + half * (s + 1.0)
        w = ws * half ** (beta + 1.0) * (1.0 - x) ** alpha
    else:
        s, ws = _leggauss(order)
        half = 0.5 * (hi - lo)
        x = lo + half * (s + 1.0)
        w = ws * half * (1.0 - x) ** alpha * (1.0 + x) ** beta

    return QuadratureRule(
        alpha=alpha,
        beta=beta,
        order=order,
        nodes=x,
        weights=w,
        interval=(lo, hi),
    )


def weight_mass(alpha: float, beta: float) -> float:
    """Total mass of (1-t)^alpha (1+t)^beta over [-1, 1]."""
    return 2.0 ** (alpha + beta + 1.0) * beta_fn(alpha + 1.0, beta + 1.0)


def _abs_jacobi_pass(
    params: JacobiParams, gamma: float, breakpoints: np.ndarray, order: int
) -> float:
    """Sum of |signed integral| over each arch, all arches at the given order."""
    alpha, bta, d = params.alpha, params.beta, params.degree
    lo = breakpoints[:-1]
    hi = breakpoints[1:]
    half = 0.5 * (hi - lo)

    contributions = []

    # interior arches: Gauss-Legendre, full weight folded into the integrand
    s, ws = _leggauss(order)
    inner_lo, inner_hi = lo[1:-1], hi[1:-1]
    if inner_lo.size:
        x = inner_lo[:, None] + (inner_hi - inner_lo)[:, None] * 0.5 * (s[None, :] + 1.0)
        vals = _jacobi_recurrence(alpha, bta, d, x.ravel()).reshape(x.shape)
        integrand = vals * (1.0 - x * x) ** gamma
        signed = (integrand * ws[None, :]).sum(axis=1) * half[1:-1]
        contributions.extend(np.abs(signed).tolist())

    # left arch touching -1: weight (1+t)^gamma inside a Gauss-Jacobi rule
    if gamma != 0.0:
        sl, wl = roots_jacobi(order, 0.0, gamma)
        hl = half[0]
        xl = lo[0] + hl * (sl + 1.0)
        vl = _jacobi_recurrence(alpha, bta, d, xl) * (1.0 - xl) ** gamma
        contributions.append(abs(float(np.dot(wl, vl)) * hl ** (gamma + 1.0)))

        sr, wr = roots_jacobi(order, gamma, 0.0)
        hr = half[-1]
        xr = lo[-1] + hr * (sr + 1.0)
        vr = _jacobi_recurrence(alpha, bta, d, xr) * (1.0 + xr) ** gamma
        contributions.append(abs(float(np.dot(wr, vr)) * hr ** (gamma + 1.0)))
    else:
        for a, b, h in ((lo[0], hi[0], half[0]), (lo[-1], hi[-1], half[-1])):
            x = a + h * (s + 1.0)
            v = _jacobi_recurrence(alpha, bta, d, x)
            contributions.append(abs(float(np.dot(ws, v)) * h))

    return math.fsum(contributions)


def integrate_abs_jacobi(
    params: JacobiParams, weight_exponent: float, tol: float = DEFAULT_TOL
) -> ComputationResult:
    """Integral of |P_d^{(a,b)}(t)| (1-t^2)^gamma over [-1, 1].

    Splits at the roots of P (where |P| has kinks), integrates the signed
    polynomial on each arch, and sums absolute arch integrals with compensated
    summation. The error estimate comes from doubling the arch rule order.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if weight_exponent <= -1:
        raise DomainError(f"weight exponent must exceed -1, got {weight_exponent}")

    d = params.degree
    if d == 0:
        value = weight_mass(weight_exponent, weight_exponent)
        return ComputationResult(
            value=value,
            abs_err=abs(value) * 1e-15,
            method="JacobiQuadrature",
            inputs={"params": params, "gamma": weight_exponent, "tol": tol},
        )

    roots = jacobi_roots(params)
    breakpoints = np.concatenate(([-1.0], roots, [1.0]))

    order = 24
    value = _abs_jacobi_pass(params, weight_exponent, breakpoints, order)
    err = math.inf
    for _ in range(4):
        refined = _abs_jacobi_pass(params, weight_exponent, breakpoints, 2 * order)
        err = abs(refined - value)
        value = refined
        order *= 2
        if err <= tol:
            break
    result = ComputationResult(
        value=value,
        abs_err=max(err, abs(value) * 1e-15),
        method="JacobiQuadrature",
        inputs={"params": params, "gamma": weight_exponent, "tol": tol},
    )
    if err > tol:
        raise ToleranceError(
            f"abs-Jacobi integral reached {err:.3e}, requested {tol:.3e}",
            value=value,
            achieved=err,
        )
    return result


def integrate_abs_kernel(n: int, degrees: range, roots_of: JacobiParams) -> ComputationResult:
    """c_n Int_{-1}^1 |K(t)| (1-t^2)^gamma dt, exactly up to rounding.

    K = sum_{k in degrees} ((k+lam)/lam) C_k^{(lam)}(t) is the axial kernel of
    the zonal space spanned by the harmonics of those degrees, lam = (n-2)/2,
    gamma = (n-3)/2 and c_n = axial_constant(n), so the result is the space's
    projection constant. `roots_of` is a Jacobi polynomial with the roots of K.

    By DLMF 18.9.20 the integrand has the antiderivative
    F(t) = [0 in degrees] I(t)
           - 2 c_n (1-t^2)^(gamma+1) sum_{k in degrees, k >= 1}
             (k+lam)/(k(k+2lam)) C_{k-1}^{(lam+1)}(t),
    with I(t) = c_n Int_{-1}^t (1-s^2)^gamma ds, a regularized incomplete
    beta. K keeps its sign between consecutive breakpoints -1, roots, 1, so
    the integral is the sum of |F(x_{j+1}) - F(x_j)|; the series is summed by
    one Clenshaw pass over all roots, O(d^2) in all. abs_err estimates the
    rounding of F at the roots: a fixed multiple of eps times the summed
    sizes of both parts there.
    """
    d = max(degrees, default=0)
    if n < 3 or d < 1 or min(degrees) < 0 or roots_of.degree != d:
        raise DomainError(
            f"need n >= 3 and degrees in 0..d, d >= 1, with roots_of of degree d; "
            f"got n={n}, degrees={degrees}, roots_of={roots_of}"
        )
    lam = (n - 2) / 2.0
    mu = lam + 1.0
    x = np.asarray(jacobi_roots(roots_of))

    coef = np.zeros(d)
    ks = np.array([k for k in degrees if k], dtype=float)
    coef[ks.astype(int) - 1] = (ks + lam) / (ks * (ks + 2.0 * lam))
    # b_j = coef_j + A_j x b_{j+1} - B_{j+1} b_{j+2} for the recurrence
    # C_{j+1} = A_j x C_j - B_j C_{j-1}, A_j = 2(j+mu)/(j+1), B_j = (j+2mu-1)/(j+1)
    # at huge n the sums overflow; projection_constant reports the value that
    # is not finite as a ToleranceError, so numpy's warnings would be noise
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d - 1, -1, -1):
            b1, b2 = coef[j] + (2.0 * (j + mu) / (j + 1)) * x * b1 - ((j + 2.0 * mu) / (j + 2)) * b2, b1

    c_n = axial_constant(n)
    # (1-x)(1+x) rather than 1-x^2: exact near +-1, where the power amplifies error
    oscillating = 2.0 * c_n * ((1.0 - x) * (1.0 + x)) ** (lam + 0.5) * b1
    if 0 in degrees:
        incomplete = betainc(lam + 0.5, lam + 0.5, 0.5 * (1.0 + x))
        top = 1.0  # I(1): the weight's total mass times c_n
    else:
        incomplete = np.zeros_like(x)
        top = 0.0
    f = np.concatenate(([0.0], incomplete - oscillating, [top]))
    value = math.fsum(np.abs(np.diff(f)).tolist())
    sizes = float(np.sum(np.abs(oscillating) + np.abs(incomplete)))
    return ComputationResult(
        value=value,
        abs_err=_ARCH_SUM_ROUNDING * math.ulp(1.0) * sizes,
        method="ExactArchSum",
        inputs={"n": n, "degrees": degrees, "roots_of": roots_of},
    )


def dirichlet_lebesgue(d: int, kind: str, tol: float = DEFAULT_TOL) -> ComputationResult:
    """Lebesgue-type integral of the Dirichlet kernel over a full period.

    kind="full": (1/2pi) Int_0^{2pi} |sin((d+1/2)t)/sin(t/2)| dt
    kind="half": (1/2pi) Int_0^{2pi} |sin(((d+1)/2)t)/sin(t/2)| dt

    With N = 2d+1 ("full") or d+1 ("half") arches, Fejer's (1910) finite sum
    gives both as [N odd]/N + (4/pi) sum tan(p pi/(2N))/p over 0 < p < N with
    N-p odd. A tangent beyond pi/4 is taken as 1/tan((N-p) pi/(2N)): N-p is an
    exact integer, so the small argument keeps full relative accuracy. abs_err
    is a rounding estimate, a fixed multiple of eps times the summed terms.
    """
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    if kind not in ("full", "half"):
        raise DomainError(f"kind must be 'full' or 'half', got {kind!r}")
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")

    n_arches = 2 * d + 1 if kind == "full" else d + 1
    p = np.arange(n_arches - 1, 0, -2, dtype=float)
    small = np.tan(np.minimum(p, n_arches - p) * (math.pi / (2 * n_arches)))
    terms = (4.0 / math.pi) * np.where(2 * p <= n_arches, small, 1.0 / small) / p
    value = math.fsum([1.0 / n_arches if n_arches % 2 else 0.0, *terms.tolist()])
    # every term is positive, so the summed sizes are the value itself
    err = _FEJER_ROUNDING * math.ulp(1.0) * value
    if err > tol:
        raise ToleranceError(f"Dirichlet integral reached {err:.3e}, requested {tol:.3e}", value, err)
    return ComputationResult(value, err, "FejerSum", {"d": d, "kind": kind, "tol": tol})
