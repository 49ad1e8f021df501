"""The universal output record for numerical computations."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ComputationResult"]


@dataclass(frozen=True)
class ComputationResult:
    """Value plus an absolute-error estimate and a method tag."""

    value: float
    abs_err: float
    method: str  # ClosedForm | ExactArchSum | JacobiQuadrature | FejerSum
