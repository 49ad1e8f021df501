"""Log-gamma, gamma ratios and the beta function for positive real arguments.

Everything is evaluated in log space: the prefactors appearing in the
projection-constant formulas involve quotients like Gamma(d+n)/Gamma(d+(n+1)/2)
whose numerator and denominator overflow double precision long before the
quotient does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "GammaRatioSpec",
    "log_gamma",
    "gamma_ratio",
    "beta",
    "duplication_residual",
]

_HALF_LOG_PI = 0.5 * math.log(math.pi)

# relative distance of a - b from an integer below which gamma_ratio treats
# the offset as an integer plus a first-order correction; the neglected
# delta^2 psi'(a) / 2 stays below 1e-24 max(a, 1), under 1e-17 up to a ~ 1e7
_NEAR_INTEGER = 1e-12


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


@dataclass(frozen=True)
class GammaRatioSpec:
    """A product of gamma values divided by another product of gamma values.

    All arguments must be strictly positive; evaluation goes through sums and
    differences of log-gamma, never through direct Gamma products.
    """

    numerator_args: tuple[float, ...] = field(default=())
    denominator_args: tuple[float, ...] = field(default=())

    def __post_init__(self):
        for a in (*self.numerator_args, *self.denominator_args):
            if a <= 0:
                raise DomainError(f"gamma ratio argument must be positive, got {a}")


def gamma_ratio(spec: GammaRatioSpec) -> float:
    """prod Gamma(num) / prod Gamma(den), finite for arguments up to ~1e7.

    Argument pairs at a small integer offset are reduced through the
    recurrence Gamma(x+m) = (x+m-1)...(x) Gamma(x) as an exact product; only
    the leftover arguments go through log-gamma differences, whose rounding
    would otherwise dominate for nearly cancelling pairs. An offset that is
    an integer m only up to rounding, a - b = m + delta (as for a = x + 1
    rounded), takes the same product times 1 + delta psi(max(a, b)), which
    is exact to O(delta^2).
    """
    factor = 1.0
    leftover_num = []
    dens = list(spec.denominator_args)
    for a in spec.numerator_args:
        for i, b in enumerate(dens):
            diff = a - b
            m = round(diff)
            delta = diff - m
            if abs(m) <= 64 and abs(delta) <= _NEAR_INTEGER * max(a, b):
                if m >= 0:
                    for j in range(m):
                        factor *= b + j
                else:
                    for j in range(-m):
                        factor /= a + j
                if delta:
                    factor *= 1.0 + delta * _digamma(max(a, b))
                del dens[i]
                break
        else:
            leftover_num.append(a)
    log_num = math.fsum(math.lgamma(a) for a in leftover_num)
    log_den = math.fsum(math.lgamma(b) for b in dens)
    # math.exp raises OverflowError if the final quotient is not representable
    return factor * math.exp(log_num - log_den)


# psi's asymptotic series: B_2k / (2k) for k = 1..7, the terms through x^-14
_PSI_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    psi(x) = psi(x+1) - 1/x shifts x up to 10, where the asymptotic series
    ln x - 1/(2x) - sum B_2k / (2k x^2k) through x^-14 leaves under 5e-17
    (through x^-12 it leaves 8e-16, near the 1e-15 that psi needs close to
    its zero at x = 1.4616). The terms are added by fsum, so that
    cancellation costs no more than a few roundings.
    """
    terms = []
    while x < 10.0:
        terms.append(-1.0 / x)
        x += 1.0
    inv_sq = 1.0 / (x * x)
    power = inv_sq
    for c in _PSI_SERIES:
        terms.append(-c * power)
        power *= inv_sq
    return math.fsum([*terms, math.log(x), -0.5 / x])


def beta(a: float, b: float) -> float:
    """Beta function Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if a <= 0 or b <= 0:
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    # symmetric evaluation order: sort so beta(a, b) == beta(b, a) exactly
    lo, hi = min(a, b), max(a, b)
    return math.exp(math.lgamma(lo) + math.lgamma(hi) - math.lgamma(lo + hi))


# Stirling correction coefficients B_2k / (2k (2k-1))
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)


def _stirling_tail(z: float) -> float:
    inv_sq = 1.0 / (z * z)
    total = 0.0
    power = 1.0 / z
    for c in _STIRLING:
        total += c * power
        power *= inv_sq
    return total


def duplication_residual(x: float) -> float:
    """Relative residual of Gamma(x)Gamma(x+1/2) = 2^(1-2x) sqrt(pi) Gamma(2x).

    Computed in log space; for large x the dominant Stirling terms of the two
    sides are cancelled analytically first, otherwise the rounding of the huge
    individual log-gamma values would swamp the tiny residual.
    """
    if x <= 0:
        raise DomainError(f"duplication_residual requires x > 0, got {x}")
    if x < 20.0:
        log_lhs = math.lgamma(x) + math.lgamma(x + 0.5)
        log_rhs = (1.0 - 2.0 * x) * math.log(2.0) + _HALF_LOG_PI + math.lgamma(2.0 * x)
        return abs(math.expm1(log_lhs - log_rhs))
    # main terms of lhs - rhs collapse to x log1p(1/(2x)) - 1/2 exactly
    diff = (
        x * math.log1p(0.5 / x)
        - 0.5
        + _stirling_tail(x)
        + _stirling_tail(x + 0.5)
        - _stirling_tail(2.0 * x)
    )
    return abs(math.expm1(diff))
