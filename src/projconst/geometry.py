"""Sphere dimensions, surface measure, axial reduction and exact moments."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .gammafn import GammaRatioSpec, gamma_ratio, log_gamma

__all__ = [
    "Family",
    "SpaceId",
    "surface_area",
    "dim_space",
    "harmonic_dim",
    "axial_constant",
    "monomial_moment",
    "monomial_moment_exact",
]


class Family(str, enum.Enum):
    HARMONIC = "harmonic"
    HOMOGENEOUS = "homogeneous"
    POLY_LEQ = "polyleq"


@dataclass(frozen=True)
class SpaceId:
    """Which function space on S^{n-1}: harmonics, homogeneous, or degree <= d."""

    family: Family
    n: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"need n >= 2, got {self.n}")
        if self.d < 0:
            raise DomainError(f"need d >= 0, got {self.d}")

    @property
    def dim(self) -> int:
        return dim_space(self)


def surface_area(n: int) -> float:
    """Surface area of S^{n-1}: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - log_gamma(n / 2.0))


def harmonic_dim(n: int, d: int) -> int:
    """dim of degree-d spherical harmonics on S^{n-1}, exact integer."""
    if d == 0:
        return 1
    if d == 1:
        return n
    return math.comb(n + d - 1, d) - math.comb(n + d - 3, d - 2)


def dim_space(space: SpaceId) -> int:
    """Exact integer dimension of the space (Python ints never overflow)."""
    n, d = space.n, space.d
    if space.family is Family.HARMONIC:
        return harmonic_dim(n, d)
    if space.family is Family.HOMOGENEOUS:
        return math.comb(n + d - 1, d)
    # degree <= d: homogeneous degree d plus homogeneous degree d-1
    if d == 0:
        return 1
    return math.comb(n + d - 1, d) + math.comb(n + d - 2, d - 1)


def axial_constant(n: int) -> float:
    """c_n with Int_{S^{n-1}} f(eta_1) dsigma = c_n Int_{-1}^1 f(t)(1-t^2)^{(n-3)/2} dt."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    # c_n = Gamma(n/2) / (Gamma(1/2) Gamma((n-1)/2)); pairing each argument
    # with 1/2 or 1 at an integer offset lets gamma_ratio use the recurrence
    # product instead of a log-gamma difference, whose rounding grows with n
    if n % 2:
        return gamma_ratio(GammaRatioSpec((n / 2.0, 1.0), (0.5, (n - 1) / 2.0)))
    return gamma_ratio(GammaRatioSpec((n / 2.0, 0.5), (1.0, (n - 1) / 2.0))) / math.pi


def _double_factorial(k: int) -> int:
    """(k)!! with (-1)!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def monomial_moment_exact(n: int, multi_index: tuple[int, ...]) -> Fraction:
    """Int_{S^{n-1}} x^alpha dsigma as an exact rational.

    Zero when any entry is odd; otherwise
    prod_i (alpha_i - 1)!! / prod_{k=0}^{B-1} (n + 2k) with B = |alpha|/2.
    """
    if len(multi_index) != n:
        raise DomainError(f"multi-index length {len(multi_index)} != n = {n}")
    if any(a < 0 for a in multi_index):
        raise DomainError("multi-index entries must be nonnegative")
    if any(a % 2 for a in multi_index):
        return Fraction(0)
    half_total = sum(multi_index) // 2
    num = 1
    for a in multi_index:
        num *= _double_factorial(a - 1)
    den = 1
    for k in range(half_total):
        den *= n + 2 * k
    return Fraction(num, den)


def monomial_moment(n: int, multi_index: tuple[int, ...]) -> float:
    """Float moment via a log-space gamma product (stable for large degrees)."""
    if len(multi_index) != n:
        raise DomainError(f"multi-index length {len(multi_index)} != n = {n}")
    if any(a < 0 for a in multi_index):
        raise DomainError("multi-index entries must be nonnegative")
    if any(a % 2 for a in multi_index):
        return 0.0
    total = sum(multi_index)
    if total <= 12:
        return float(monomial_moment_exact(n, multi_index))
    log_val = log_gamma(n / 2.0) - log_gamma((total + n) / 2.0)
    half_log_pi = 0.5 * math.log(math.pi)
    for a in multi_index:
        log_val += log_gamma((a + 1) / 2.0) - half_log_pi
    return math.exp(log_val)
