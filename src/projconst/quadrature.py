"""Weighted integration on [-1, 1] and Dirichlet-type periodic integrals.

The central operation integrates |P(t)| (1-t^2)^gamma for a Jacobi polynomial
P. The absolute value has kinks exactly at the roots of P, so the interval is
split there. For the axial kernels of the projection constants every arch has
a closed antiderivative, and `integrate_abs_kernel` sums its differences at
the roots exactly. Those roots are the recurrence matrix's eigenvalues with
no Newton step, since the antiderivative is stationary at each root; for the
symmetric kernels (harmonic, homogeneous) only the roots in [0, 1] are
summed, and a root set that collapses at huge n is reported as a value that
is not finite. Gauss rules (`gauss_jacobi_rule`) live on [-1, 1]: their
nodes come from `jacobi_roots`, Newton-polished, and their weights are the
Christoffel numbers of the same recurrence. `integrate_abs_jacobi` is the
general route for any (a, b, gamma): each smooth arch is integrated to
spectral accuracy; the two end arches map the rule for (1+t)^gamma,
mirrored at +1, so an endpoint singularity (gamma < 0) stays inside the
rule, and interior arches fold the weight into the integrand under
Gauss-Legendre. The Dirichlet-kernel integrals of n = 2 are Fejer's finite
sums of tangents (`dirichlet_lebesgue`), built in chunks of 2^16 terms and
summed exactly in integer limbs, then rounded once: O(d) time and O(2^16)
memory, for up to 2^53 arches.
All three routes only compute value +- abs_err; constants.projection_constant
decides whether a lambda meets tol. scipy is imported only where it is used:
`betainc` for a kernel whose degree set holds 0 (polyleq, and homogeneous at
even d), and scipy.linalg by any eigensolve of more than 32 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .gammafn import beta as beta_fn
from .geometry import FAMILY_TABLE, SpaceId, axial_constant
from .orthopoly import (
    JacobiParams,
    _eigen_roots,
    _jacobi_recurrence,
    _recurrence_tridiagonal,
    jacobi_roots,
)
from .result import ComputationResult

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "integrate_abs_jacobi",
    "integrate_abs_kernel",
    "dirichlet_lebesgue",
]

# integrate_abs_jacobi stops doubling the arch rule order once two passes
# differ by at most this much
_DOUBLING_STOP = 1e-10

# abs_err of integrate_abs_kernel, in units of eps times the summed sizes of
# the antiderivative's two parts at every root. Against 40-digit references
# (every n >= 3 value of perfbench/reference.json) the error of the sum over
# unpolished roots, half of them for the symmetric kernels, reached 25 such
# units, at homogeneous n = 4, d = 275 (Newton-polished roots summed in full
# reached 29, at polyleq n = 4, d = 662); 48 keeps a margin, and n = 50,
# d <= 54 still meets the default tolerance, which allows up to 59 there.
_ARCH_SUM_ROUNDING = 48.0

# abs_err of dirichlet_lebesgue, in units of eps times the value. Each term
# takes about five roundings (the angle, the tangent, its reciprocal, 4/pi and
# the division by p), and the exact sum adds one final rounding, as fsum did;
# against the 300 n = 2 homogeneous and polyleq values of
# perfbench/reference.json (d up to 1e5) the error reached 1.35 such units;
# 8 covers all five roundings of every term and the last one with a margin.
_FEJER_ROUNDING = 8.0

# Fejer terms per chunk of dirichlet_lebesgue: the memory of a sum at any d
_CHUNK = 2**16


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss rule on [-1, 1] for the weight (1-t)^alpha (1+t)^beta.

    The nodes are the roots of P_order^{(alpha, beta)} from `jacobi_roots`;
    the weights are the Christoffel numbers. Both arrays are read-only.
    """

    nodes: np.ndarray
    weights: np.ndarray


# bounded, since kernel_l2_norm asks for orders that grow with d; a full
# `verify` run asks for 37 distinct rules, 247 times
@lru_cache(maxsize=64)
def gauss_jacobi_rule(alpha: float, beta: float, order: int) -> QuadratureRule:
    """Gauss rule for the weight (1-t)^alpha (1+t)^beta on [-1, 1].

    Golub-Welsch: the weight of node x is the weight's mass divided by
    sum_{j<order} p_j(x)^2, the p_j orthonormal for the normalized weight and
    generated by the symmetric recurrence whose matrix gives the nodes.
    """
    if alpha <= -1 or beta <= -1:
        raise DomainError(f"weight exponents must exceed -1, got ({alpha}, {beta})")
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    x = jacobi_roots(JacobiParams(alpha, beta, order))
    diag, off = _recurrence_tridiagonal(alpha, beta, order)
    b = np.concatenate(([0.0], off))
    # b_{j+1} p_{j+1} = (x - diag_j) p_j - b_j p_{j-1}, from p_0 = 1
    p_prev, p, total = np.zeros_like(x), np.ones_like(x), np.ones_like(x)
    for j in range(order - 1):
        p, p_prev = ((x - diag[j]) * p - b[j] * p_prev) / b[j + 1], p
        total += p * p
    w = weight_mass(alpha, beta) / total
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(nodes=x, weights=w)


def weight_mass(alpha: float, beta: float) -> float:
    """Total mass of (1-t)^alpha (1+t)^beta over [-1, 1]."""
    return 2.0 ** (alpha + beta + 1.0) * beta_fn(alpha + 1.0, beta + 1.0)


def _abs_jacobi_pass(
    params: JacobiParams, gamma: float, breakpoints: np.ndarray, order: int
) -> float:
    """Sum of |signed integral| over each arch, all arches at the given order."""
    alpha, bta, d = params.alpha, params.beta, params.degree
    half = 0.5 * np.diff(breakpoints)

    # interior arches: Gauss-Legendre, full weight folded into the integrand
    inner = gauss_jacobi_rule(0.0, 0.0, order)
    x = breakpoints[1:-2, None] + half[1:-1, None] * (inner.nodes + 1.0)
    vals = _jacobi_recurrence(alpha, bta, d, x.ravel()).reshape(x.shape)
    signed = (vals * (1.0 - x * x) ** gamma) @ inner.weights * half[1:-1]
    contributions = np.abs(signed).tolist()

    # end arches: the rule (0, gamma) carries (1+t)^gamma on the arch at -1,
    # and mirrored, t -> -t, carries (1-t)^gamma on the arch at +1
    end = gauss_jacobi_rule(0.0, gamma, order)
    for sign, h in ((1.0, half[0]), (-1.0, half[-1])):
        x = sign * (h * (end.nodes + 1.0) - 1.0)
        v = _jacobi_recurrence(alpha, bta, d, x) * (1.0 - sign * x) ** gamma
        contributions.append(abs(float(np.dot(end.weights, v))) * h ** (gamma + 1.0))

    return math.fsum(contributions)


def integrate_abs_jacobi(params: JacobiParams, weight_exponent: float) -> ComputationResult:
    """Integral of |P_d^{(a,b)}(t)| (1-t^2)^gamma over [-1, 1].

    Splits at the roots of P (where |P| has kinks), integrates the signed
    polynomial on each arch, and sums absolute arch integrals with compensated
    summation. The arch rule order doubles up to four times, until two passes
    differ by at most 1e-10; abs_err is the last difference, floored at 1e-15
    times the value.
    """
    if weight_exponent <= -1:
        raise DomainError(f"weight exponent must exceed -1, got {weight_exponent}")

    d = params.degree
    if d == 0:
        value, err = weight_mass(weight_exponent, weight_exponent), 0.0
    else:
        roots = jacobi_roots(params)
        breakpoints = np.concatenate(([-1.0], roots, [1.0]))
        order = 24
        value = _abs_jacobi_pass(params, weight_exponent, breakpoints, order)
        for _ in range(4):
            refined = _abs_jacobi_pass(params, weight_exponent, breakpoints, 2 * order)
            err = abs(refined - value)
            value = refined
            order *= 2
            if err <= _DOUBLING_STOP:
                break
    return ComputationResult(
        value=value,
        abs_err=max(err, abs(value) * 1e-15),
        method="JacobiQuadrature",
    )


def integrate_abs_kernel(space: SpaceId) -> ComputationResult:
    """c_n Int_{-1}^1 |K(t)| (1-t^2)^gamma dt, exactly up to rounding.

    K = sum_{k in degrees} ((k+lam)/lam) C_k^{(lam)}(t) is the axial kernel of
    the space (n >= 3, d >= 1), whose degree set and Jacobi parameters come
    from FAMILY_TABLE, lam = (n-2)/2, gamma = (n-3)/2 and c_n =
    axial_constant(n), so the result is the space's projection constant; the
    roots of K are those of P_d^{(a,b)}.

    By DLMF 18.9.20 the integrand has the antiderivative
    F(t) = [0 in degrees] I(t)
           - 2 c_n (1-t^2)^(gamma+1) sum_{k in degrees, k >= 1}
             (k+lam)/(k(k+2lam)) C_{k-1}^{(lam+1)}(t),
    with I(t) = c_n Int_{-1}^t (1-s^2)^gamma ds, a regularized incomplete
    beta. K keeps its sign between consecutive breakpoints -1, roots, 1, so
    the integral is the sum of |F(x_{j+1}) - F(x_j)|; the series is summed by
    one in-place Clenshaw pass over the roots, O(d^2) in all.

    The roots are the recurrence matrix's eigenvalues without a Newton step
    (orthopoly._eigen_roots): F' = c_n K w vanishes at each root, so a root
    error e moves F only by O(e^2). For harmonic and homogeneous spaces K has
    the parity of d and F(-t) = F(1) - F(t), so only the roots in [0, 1] are
    summed: twice the arches there, plus the middle arch |2F(x_1) - F(1)|
    across 0 when d is even. abs_err estimates the rounding of F at the
    roots: a fixed multiple of eps times the summed sizes of both parts at
    every root. Where the eigenproblem collapses (roots that do not increase
    strictly inside (-1, 1), at huge n) or P or the sums overflow, the value
    is not finite.
    """
    n, d = space.n, space.d
    if n < 3 or d < 1:
        raise DomainError(f"need n >= 3 and d >= 1, got n={n}, d={d}")
    spec = FAMILY_TABLE[space.family]
    degrees = spec.degrees(d)
    alpha, beta = spec.jacobi(n)
    x = _eigen_roots(alpha, beta, d)
    if not (x[0] > -1.0 and x[-1] < 1.0 and np.all(x[1:] > x[:-1])):
        return ComputationResult(math.nan, math.inf, "ExactArchSum")
    # K has the parity of d when every degree has it (harmonic, homogeneous):
    # its roots are symmetric, and only those in [0, 1] are summed, 0 first at
    # odd d. Not a == b, which polyleq's float parameters meet from n ~ 2^54 on
    symmetric = all((d - k) % 2 == 0 for k in degrees)
    if symmetric:
        x = x[d // 2:]
    lam = (n - 2) / 2.0
    mu = lam + 1.0

    coef = [0.0] * d
    for k in degrees:
        if k:
            coef[k - 1] = (k + lam) / (k * (k + 2.0 * lam))
    c_n = axial_constant(n)
    # at huge n the sums overflow; projection_constant reports the value that
    # is not finite as a ToleranceError, so numpy's warnings would be noise
    with np.errstate(over="ignore", invalid="ignore"):
        series = _gegenbauer_series(x, coef, mu)
        # (1-x)(1+x) rather than 1-x^2: exact near +-1, where the power amplifies error
        oscillating = 2.0 * c_n * ((1.0 - x) * (1.0 + x)) ** (lam + 0.5) * series
        if 0 in degrees:
            from scipy.special import betainc  # only this branch needs scipy

            incomplete = betainc(lam + 0.5, lam + 0.5, 0.5 * (1.0 + x))
            top = 1.0  # I(1): the weight's total mass times c_n
        else:
            incomplete = np.zeros_like(x)
            top = 0.0
        f = incomplete - oscillating
        osc_size = np.abs(oscillating)
        inc_size = np.abs(incomplete)
        if symmetric:
            arches = (2.0 * np.abs(np.diff(f, append=top))).tolist()
            if d % 2 == 0:
                arches.append(abs(2.0 * f[0] - top))
            # sizes at the mirror images too: |osc(-x)| = |osc(x)| and
            # I(-x) = top - I(x); at odd d, 0 is its own image and I = top = 0
            osc_size *= 2.0
            if d % 2:
                osc_size[0] *= 0.5
            inc_size += np.abs(top - incomplete)
        else:
            arches = np.abs(np.diff(f, prepend=0.0, append=top)).tolist()
        try:
            value = math.fsum(arches)
        except OverflowError:  # finite arches whose sum exceeds the float range
            value = math.inf
        sizes = float(np.sum(osc_size + inc_size))
    return ComputationResult(
        value=value,
        abs_err=_ARCH_SUM_ROUNDING * math.ulp(1.0) * sizes,
        method="ExactArchSum",
    )


def _gegenbauer_series(x: np.ndarray, coef: list[float], mu: float) -> np.ndarray:
    """sum_j coef[j] C_j^{(mu)}(x) by Clenshaw's recurrence, vectorized over x.

    b_j = coef_j + A_j x b_{j+1} - B_{j+1} b_{j+2} for the recurrence
    C_{j+1} = A_j x C_j - B_j C_{j-1}, A_j = 2(j+mu)/(j+1) and
    B_j = (j+2mu-1)/(j+1); the sum is b_0. Three buffers rotate, so no step
    allocates, and each step rounds as coef_j + (A_j x) b_{j+1} - B_{j+1} b_{j+2}
    would.
    """
    a = [2.0 * (j + mu) / (j + 1) for j in range(len(coef))]
    b_next = [(j + 2.0 * mu) / (j + 2) for j in range(len(coef))]  # B_{j+1}
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    scratch = np.empty_like(x)
    for j in range(len(coef) - 1, -1, -1):
        np.multiply(x, a[j], out=scratch)
        scratch *= b1
        scratch += coef[j]
        b2 *= b_next[j]
        scratch -= b2
        b1, b2, scratch = scratch, b1, b2
    return b1


def _exact_sum(chunks) -> float:
    """Correctly rounded sum of every entry of an iterable of arrays, as math.fsum
    gives it.

    Each array holds at most _CHUNK + 1 entries in [0, 2). Scaled by 2^29, an
    entry is below 2^30 and splits exactly into 30-bit integer limbs: floor
    takes the top limb, the remainder is exact, and 2^30 times it is the next
    level. At most 36 levels reach the lowest bit of a double, so a Python int
    at scale 2^1079 holds the sum exactly; each level's limbs sum exactly in
    float64, since (_CHUNK + 1) 2^30 < 2^53. One int/int division, which
    CPython rounds correctly, gives the float.
    """
    total = 0
    for chunk in chunks:
        r = chunk * 2.0**29
        shift = 30 * 35
        while r.any():
            limb = np.floor(r)
            r -= limb
            total += int(limb.sum()) << shift
            shift -= 30
            r *= 2.0**30
    return total / (1 << 1079)


def _fejer_terms(n_arches: int):
    """Yield Fejer's terms for N arches in chunks of _CHUNK, p counting down from N-1.

    The first chunk also holds [N odd]/N; at N = 1 that is its only entry.
    """
    angle = math.pi / (2 * n_arches)
    head = [1.0 / n_arches] if n_arches % 2 else []
    for top in range(n_arches - 1, -1, -2 * _CHUNK):
        p = np.arange(top, max(top - 2 * _CHUNK, 0), -2, dtype=float)
        small = np.tan(np.minimum(p, n_arches - p) * angle)
        terms = (4.0 / math.pi) * np.where(2 * p <= n_arches, small, 1.0 / small) / p
        yield np.append(terms, head) if head else terms
        head = []


def dirichlet_lebesgue(d: int, kind: str) -> ComputationResult:
    """Lebesgue-type integral of the Dirichlet kernel over a full period.

    kind="full": (1/2pi) Int_0^{2pi} |sin((d+1/2)t)/sin(t/2)| dt
    kind="half": (1/2pi) Int_0^{2pi} |sin(((d+1)/2)t)/sin(t/2)| dt

    With N = 2d+1 ("full") or d+1 ("half") arches, Fejer's (1910) finite sum
    gives both as [N odd]/N + (4/pi) sum tan(p pi/(2N))/p over 0 < p < N with
    N-p odd. A tangent beyond pi/4 is taken as 1/tan((N-p) pi/(2N)): N-p is an
    exact integer, so the small argument keeps full relative accuracy. The
    terms are built in chunks of _CHUNK and summed exactly (`_exact_sum`),
    then rounded once: O(d) time and O(_CHUNK) memory at every d. N may not
    exceed 2^53, beyond which p and N-p are no longer exact floats (DomainError).
    abs_err is a rounding estimate, a fixed multiple of eps times the summed
    terms; projection_constant compares it with the requested tolerance.
    """
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    if kind not in ("full", "half"):
        raise DomainError(f"kind must be 'full' or 'half', got {kind!r}")

    n_arches = 2 * d + 1 if kind == "full" else d + 1
    if n_arches > 2**53:
        raise DomainError(f"need at most 2**53 arches, got {n_arches} at d={d}, kind={kind!r}")
    value = _exact_sum(_fejer_terms(n_arches))
    # every term is positive, so the summed sizes are the value itself
    return ComputationResult(value, _FEJER_ROUNDING * math.ulp(1.0) * value, "FejerSum")
