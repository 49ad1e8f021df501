"""The universal output record for numerical computations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ComputationResult"]


@dataclass(frozen=True)
class ComputationResult:
    """Value plus an absolute-error estimate, a method tag and the input echo."""

    value: float
    abs_err: float
    method: str  # ClosedForm | ExactArchSum | JacobiQuadrature | FejerSum
    inputs: dict[str, Any] = field(default_factory=dict)
