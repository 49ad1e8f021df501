"""Log-gamma, gamma ratios and the beta function for positive real arguments.

Everything is evaluated in log space: the prefactors appearing in the
projection-constant formulas involve quotients like Gamma(d+n)/Gamma(d+(n+1)/2)
whose numerator and denominator overflow double precision long before the
quotient does.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "log_gamma",
    "gamma_ratio",
    "beta",
    "duplication_residual",
]

_HALF_LOG_PI = 0.5 * math.log(math.pi)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma_ratio(numerator_args: tuple[float, ...], denominator_args: tuple[float, ...]) -> float:
    """prod Gamma(num) / prod Gamma(den) for positive arguments.

    Argument pairs at a small integer offset m are reduced through the
    recurrence Gamma(x+m) = (x+m-1)...(x) Gamma(x) as an exact product; only
    the leftover arguments go through log-gamma differences, whose rounding
    would otherwise dominate for nearly cancelling pairs. A pair counts as
    such only if a = b + m or b = a - m holds in floating point, so the
    offset is m exactly or up to the rounding of that sum, a - b = m + delta
    with |delta| <= eps max(a, b). The rounding is undone by the factor
    1 + delta psi(c), c = max(a, b), where psi(c) ~ ln(c + 1/2) - 1/c is off
    by at most 0.12. Any other offset, half-integers included, takes the
    log-gamma difference. DomainError for an argument that is not positive.
    """
    for a in (*numerator_args, *denominator_args):
        if a <= 0:
            raise DomainError(f"gamma ratio argument must be positive, got {a}")
    factor = 1.0
    leftover_num = []
    dens = list(denominator_args)
    for a in numerator_args:
        for i, b in enumerate(dens):
            diff = a - b
            m = round(diff)
            if abs(m) <= 64 and (b + m == a or a - m == b):
                if m >= 0:
                    for j in range(m):
                        factor *= b + j
                else:
                    for j in range(-m):
                        factor /= a + j
                delta = diff - m
                if delta:
                    c = max(a, b)
                    factor *= 1.0 + delta * (math.log(c + 0.5) - 1.0 / c)
                del dens[i]
                break
        else:
            leftover_num.append(a)
    log_num = math.fsum(math.lgamma(a) for a in leftover_num)
    log_den = math.fsum(math.lgamma(b) for b in dens)
    # math.exp raises OverflowError if the final quotient is not representable
    return factor * math.exp(log_num - log_den)


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
