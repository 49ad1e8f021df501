"""Sphere dimensions, surface measure, axial reduction and exact moments."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError
from .gammafn import GammaRatioSpec, gamma_ratio, log_gamma

__all__ = [
    "Family",
    "FamilySpec",
    "FAMILY_TABLE",
    "SpaceId",
    "surface_area",
    "dim_space",
    "harmonic_dim",
    "axial_constant",
    "kernel_scale",
    "monomial_moment",
    "monomial_moment_exact",
]


class Family(str, enum.Enum):
    HARMONIC = "harmonic"
    HOMOGENEOUS = "homogeneous"
    POLY_LEQ = "polyleq"


@dataclass(frozen=True)
class FamilySpec:
    """What distinguishes one sphere family from another.

    lambda is defined for d >= min_d. The space of degree d spans the
    harmonics of the degrees in degrees(d); for n >= 3 its axial kernel is a
    multiple of the Jacobi polynomial P_d^{(a,b)} with (a, b) = jacobi(n).
    For n = 2, lambda is the Dirichlet integral
    dirichlet_lebesgue(d, dirichlet_kind), one of Fejer's finite sums of
    tangents, or 4/pi where that kind is None.
    """

    min_d: int
    degrees: Callable[[int], range]
    jacobi: Callable[[int], tuple[float, float]]
    dirichlet_kind: str | None


FAMILY_TABLE = {
    Family.HARMONIC: FamilySpec(
        0, lambda d: range(d, d + 1), lambda n: ((n - 3) / 2.0, (n - 3) / 2.0), None
    ),
    Family.HOMOGENEOUS: FamilySpec(
        1, lambda d: range(d % 2, d + 1, 2), lambda n: ((n - 1) / 2.0, (n - 1) / 2.0), "half"
    ),
    Family.POLY_LEQ: FamilySpec(
        0, lambda d: range(d + 1), lambda n: ((n - 1) / 2.0, (n - 3) / 2.0), "full"
    ),
}


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


def kernel_scale(space: SpaceId) -> float:
    """dim / P(1): the axial kernel is kernel_scale * P for n >= 3.

    P = P_d^{(a,b)} with (a, b) from the family table, and P(1) = binom(d+a, d).
    Where the exact integer dim or P(1) exceeds the float range, the ratio
    comes from logarithms (math.log takes the int as it is) and is inf only
    if it overflows itself.
    """
    a = FAMILY_TABLE[space.family].jacobi(space.n)[0]
    d = space.d
    try:
        return space.dim / gamma_ratio(GammaRatioSpec((d + a + 1.0,), (d + 1.0, a + 1.0)))
    except OverflowError:
        log_p_one = log_gamma(d + a + 1.0) - log_gamma(d + 1.0) - log_gamma(a + 1.0)
        try:
            return math.exp(math.log(space.dim) - log_p_one)
        except OverflowError:
            return math.inf


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
    """Float moment: the exact rational, correctly rounded by int/int division."""
    return float(monomial_moment_exact(n, multi_index))
