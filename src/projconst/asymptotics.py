"""Closed-form limit constants and finite-degree convergence diagnostics."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import projection_constant
from .errors import DomainError, ToleranceError, UnsupportedCombinationError
from .gammafn import log_gamma
from .geometry import FAMILY_TABLE, Family, SpaceId
from .quadrature import DEFAULT_TOL

__all__ = ["LimitSpec", "ConvergenceRow", "limit_constant", "convergence_report"]


@dataclass(frozen=True)
class LimitSpec:
    """A (family, n, normalization) triple naming one of the limit theorems.

    Valid combinations: any family with "d_power" (n >= 3), harmonic with
    "dim_sqrt" (n >= 3), and "log_d" (n = 2) for the families whose n = 2
    lambda is a Dirichlet integral (homogeneous, polyleq).
    """

    family: Family
    n: int
    normalization: str  # dim_sqrt | d_power | log_d

    def __post_init__(self):
        ok = (
            (self.normalization == "d_power" and self.n >= 3)
            or (
                self.normalization == "dim_sqrt"
                and self.family is Family.HARMONIC
                and self.n >= 3
            )
            or (
                self.normalization == "log_d"
                and self.n == 2
                and FAMILY_TABLE[self.family].dirichlet_kind is not None
            )
        )
        if not ok:
            raise UnsupportedCombinationError(
                f"no limit theorem for {self.family.value}, n={self.n}, "
                f"normalization={self.normalization}"
            )


def limit_constant(spec: LimitSpec) -> float:
    """The closed-form value of the corresponding limit.

    ToleranceError where it underflows double precision, that is, falls below
    the smallest normal float (every d_power limit does from n = 302 on).
    """
    n = spec.n
    if spec.normalization == "log_d":
        return 4.0 / math.pi**2

    log_quarter_sq = 2.0 * log_gamma(n / 4.0)
    if spec.family is Family.HARMONIC:
        if spec.normalization == "dim_sqrt":
            value = math.exp(
                (n - 0.5) * math.log(2.0) - 0.5 * log_gamma(n - 1.0) + log_quarter_sq
            ) / math.pi**2
        else:
            value = math.exp(
                n * math.log(2.0) - log_gamma(n - 1.0) + log_quarter_sq
            ) / math.pi**2
    elif spec.family is Family.HOMOGENEOUS:
        value = math.exp(
            (n + 1) * math.log(2.0)
            + 2.0 * log_gamma(n / 4.0 + 0.5)
            - log_gamma(n - 1.0)
        ) / (math.pi**2 * (n - 2))
    else:  # polyleq
        value = math.exp(
            log_gamma(n / 2.0 - 1.0)
            - (n / 2.0 - 3.0) * math.log(2.0)
            - 2.0 * log_gamma(n / 2.0 - 0.5)
        ) / math.pi
    if value < sys.float_info.min:
        raise ToleranceError(
            f"{spec.family.value} limit constant underflows double precision at n={n}, "
            f"normalization={spec.normalization}",
            value=value, achieved=math.inf,
        )
    return value


@dataclass(frozen=True)
class ConvergenceRow:
    d: int
    finite_ratio: float
    limit: float
    deviation: float


def _normalizer(normalization: str, space: SpaceId) -> float:
    """dim^(1/2), d^((n-2)/2) or log d: DomainError where it is 0 or undefined,
    ToleranceError where it overflows double precision."""
    n, d = space.n, space.d
    least_d = {"d_power": 1, "log_d": 2}.get(normalization, 0)
    if d < least_d:
        raise DomainError(f"normalization {normalization} needs d >= {least_d}, got {d}")
    try:
        if normalization == "dim_sqrt":
            return math.sqrt(space.dim)
        if normalization == "d_power":
            return d ** ((n - 2) / 2.0)
        return math.log(d)
    except OverflowError:
        raise ToleranceError(
            f"normalization {normalization} overflows double precision at n={n}, d={d}",
            value=math.inf, achieved=math.inf,
        ) from None


def convergence_report(
    spec: LimitSpec, d_values: list[int], tol: float = DEFAULT_TOL
) -> tuple[list[ConvergenceRow], bool]:
    """Per-d ratio lambda/normalization against the limit constant.

    Returns the table and a flag that is True when |deviation| fails to
    decrease monotonically along d_values. Raises DomainError when d_values
    do not increase strictly or a normalization is 0 or undefined, and
    ToleranceError when lambda or a normalization overflows or misses tol,
    or, failing those, when the limit underflows.
    """
    if any(b <= a for a, b in zip(d_values, d_values[1:])):
        raise DomainError("d_values must be strictly increasing")
    ratios = []
    for d in d_values:
        space = SpaceId(spec.family, spec.n, d)
        ratios.append(projection_constant(space, tol).value / _normalizer(spec.normalization, space))
    limit = limit_constant(spec)
    rows = [ConvergenceRow(d, ratio, limit, ratio - limit) for d, ratio in zip(d_values, ratios)]
    devs = [abs(r.deviation) for r in rows]
    non_monotone = any(b >= a for a, b in zip(devs, devs[1:]))
    return rows, non_monotone
