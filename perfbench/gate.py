"""The correctness gate: every output is compared with reference.json.

The reference values come from `make_reference.py` (mpmath, closed forms),
never from projconst, so a faster but wrong result fails here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import lambda_key

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance on every lambda, limit constant and convergence ratio.
# The library's own error on these values is below 1e-12 relative; 1e-8
# flags an error of 1e-6 relative with a wide margin on both sides.
RTOL = 1e-8
# Kernel samples: absolute tolerance as a share of the kernel's peak K(1) = dim.
KERNEL_RTOL = 1e-8


def harmonic_dim(n: int, d: int) -> int:
    if d == 0:
        return 1
    if d == 1:
        return n
    return math.comb(n + d - 1, d) - math.comb(n + d - 3, d - 2)


def dim(family: str, n: int, d: int) -> int:
    if family == "harmonic":
        return harmonic_dim(n, d)
    if family in ("homogeneous", "complex-homogeneous"):
        return math.comb(n + d - 1, d)
    if family == "polyleq":
        return 1 if d == 0 else math.comb(n + d - 1, d) + math.comb(n + d - 2, d - 1)
    return n  # hilbert-real, hilbert-complex


def close(got: float, expected: float, rtol: float = RTOL) -> bool:
    return abs(got - expected) <= rtol * abs(expected)


class Gate:
    def __init__(self, path: Path = REFERENCE):
        data = json.loads(path.read_text())
        self._lambda = {k: float(v) for k, v in data["lambda"].items()}
        self._limit = {k: float(v) for k, v in data["limit_d_power"].items()}
        self._kernel = {k: [float(v) for v in vs] for k, vs in data["kernel"].items()}
        self.kernel_t = [float(t) for t in data["kernel_t"]]
        self._verify = data["verify_summary"]

    def lam(self, family: str, n: int, d: int | None = None) -> float:
        if family.startswith("hilbert"):
            d = None
        return self._lambda[lambda_key(family, n, d)]

    def limit(self, family: str, n: int) -> float:
        return self._limit[lambda_key(family, n)]

    def lambda_ok(self, family: str, n: int, d: int, value: float) -> bool:
        return close(value, self.lam(family, n, d))

    def kernel_ok(self, family: str, n: int, d: int, t: list[float], values: list[float]) -> bool:
        expected = self._kernel[lambda_key(family, n, d)]
        tol = KERNEL_RTOL * dim(family, n, d)
        return t == self.kernel_t and len(values) == len(expected) and all(
            abs(v - e) <= tol for v, e in zip(values, expected)
        )

    def verify_stdout(self, seed: int) -> str:
        return self._verify.format(seed=seed)

    def verify_ok(self, stdout: str, seed: int) -> bool:
        return stdout == self.verify_stdout(seed)
