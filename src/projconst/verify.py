"""Self-verification suite: every module invariant at desk scale.

Each check returns a list of failure records (empty = pass). The runner is
deterministic for a fixed seed so CI reports are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from .asymptotics import LimitSpec, limit_constant
from .constants import (
    lambda_complex_homogeneous,
    lambda_harmonic,
    lambda_hilbert,
    lambda_homogeneous,
    lambda_poly_leq,
)
from .gammafn import beta, duplication_residual, gamma_ratio
from .geometry import Family, SpaceId, axial_constant, dim_space, monomial_moment
from .kernels import kernel_axial_sum, kernel_closed_rows, kernel_l2_norm, kernel_sum_rows
from .oracle import gram_basis, kernel_bruteforce, montecarlo_sphere
from .orthopoly import (
    JacobiParams,
    _recurrence_eigenvalues,
    jacobi_roots,
    jacobi_rows,
    jacobi_symmetry_check,
    legendre_nd_coeffs,
    legendre_nd_rows,
)
from .quadrature import dirichlet_lebesgue, gauss_jacobi_rule, integrate_abs_jacobi, weight_mass

__all__ = ["run_checks", "CheckResult"]


@dataclass
class CheckResult:
    check_id: str
    failures: list[dict] = field(default_factory=list)
    wall_s: float | None = None  # measured only when run_checks is asked to time


def _fail(check: str, expected, got, tol) -> dict:
    return {"check": check, "expected": expected, "got": got, "tolerance": tol}


def _check_gamma(seed: int, quick: bool) -> list[dict]:
    failures = []
    rng = np.random.default_rng(seed)
    count = 100 if quick else 1000
    for x in rng.uniform(1e-6, 100.0, count):
        got = gamma_ratio((x + 1.0,), (x,))
        if abs(got - x) > 1e-13 * x:
            failures.append(_fail("gamma.recurrence", float(x), got, 1e-13))
    for x in np.logspace(-2, 6, 20 if quick else 100):
        r = duplication_residual(float(x))
        if r > 1e-12:
            failures.append(_fail("gamma.duplication", 0.0, r, 1e-12))
    if beta(0.3, 1.7) != beta(1.7, 0.3):
        failures.append(_fail("gamma.beta_symmetry", beta(0.3, 1.7), beta(1.7, 0.3), 0.0))
    return failures


def _check_orthopoly(seed: int, quick: bool) -> list[dict]:
    failures = []
    rng = np.random.default_rng(seed + 1)
    cases = [(1.0, 0.0, 3), (0.5, -0.5, 5), (2.0, 1.5, 8)]
    for a, b, d in cases:
        for t in rng.uniform(-1, 1, 5):
            r = jacobi_symmetry_check(JacobiParams(a, b, d), float(t))
            if abs(r) > 1e-11:
                failures.append(_fail("orthopoly.jacobi_symmetry", 0.0, r, 1e-11))
    # Jacobi rescaling reproduces the direct axial-profile expansion
    n_max = 5 if quick else 8
    d_max = 12 if quick else 25
    ts = rng.uniform(-1, 1, 40 if quick else 200)
    for n in range(3, n_max + 1):
        a = (n - 3) / 2.0
        direct = legendre_nd_rows(n, d_max, ts)
        jacobi = jacobi_rows(a, a, d_max, ts)
        for d in range(0, d_max + 1):
            scale = math.exp(
                math.lgamma(d + 1.0)
                + math.lgamma((n - 1) / 2.0)
                - math.lgamma((n - 1) / 2.0 + d)
            )
            err = float(np.max(np.abs(direct[d] - scale * jacobi[d])))
            if err > 1e-10:
                failures.append(_fail(f"orthopoly.jacobi_rescale[{n},{d}]", 0.0, err, 1e-10))
    # harmonicity of the coefficient list
    for n in (2, 3, 5):
        for d in (4, 9):
            c = legendre_nd_coeffs(n, d)
            for j in range(len(c) - 1):
                res = (d - 2 * j) * (d - 2 * j - 1) * c[j] + (2 * n - 2 + 4 * j) * (j + 1) * c[j + 1]
                rel = abs(res) / max(abs(c[j]), abs(c[j + 1]))
                if rel > 1e-13:
                    failures.append(_fail(f"orthopoly.harmonicity[{n},{d}]", 0.0, rel, 1e-13))
    # root interlacing
    for d in (3, 7):
        lo = jacobi_roots(JacobiParams(0.5, 1.5, d))
        hi = jacobi_roots(JacobiParams(0.5, 1.5, d + 1))
        for i in range(d):
            if not (hi[i] < lo[i] < hi[i + 1]):
                failures.append(_fail(f"orthopoly.interlacing[{d}]", "interlace", (hi[i], lo[i], hi[i + 1]), 0.0))
    # symmetric roots come from a half-size problem; the full eigensolve agrees
    for d in (7, 8):
        got = jacobi_roots(JacobiParams(0.5, 0.5, d))
        full = _recurrence_eigenvalues(0.5, 0.5, d)  # dense np.linalg.eigvalsh
        err = float(np.max(np.abs(got - full)))
        if err > 1e-13:
            failures.append(_fail(f"orthopoly.symmetric_roots[{d}]", 0.0, err, 1e-13))
    return failures


def _check_quadrature(seed: int, quick: bool) -> list[dict]:
    failures = []
    rule = gauss_jacobi_rule(0.5, 0.5, 20)
    got = math.fsum(rule.weights)
    expected = weight_mass(0.5, 0.5)  # pi/2
    if abs(got - expected) > 1e-12 * expected:
        failures.append(_fail("quadrature.mass", expected, got, 1e-12))
    got = integrate_abs_jacobi(JacobiParams(0.0, 0.0, 1), 0.0).value
    if abs(got - 1.0) > 1e-11:
        failures.append(_fail("quadrature.abs_p1", 1.0, got, 1e-11))
    got = integrate_abs_jacobi(JacobiParams(0.0, 0.0, 2), 0.0).value
    expected = 4.0 / (3.0 * math.sqrt(3.0))
    if abs(got - expected) > 1e-11:
        failures.append(_fail("quadrature.abs_p2", expected, got, 1e-11))
    for n in range(3, 6 if quick else 9):
        a = (n - 1) / 2.0
        got = integrate_abs_jacobi(JacobiParams(a, a, 1), (n - 3) / 2.0).value
        expected = (n + 1) / (n - 1)
        if abs(got - expected) > 1e-11 * expected:
            failures.append(_fail(f"quadrature.rutovitz_integral[{n}]", expected, got, 1e-11))
    for d, kind, expected in [(0, "full", 1.0), (0, "half", 1.0),
                              (1, "full", 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi)]:
        got = dirichlet_lebesgue(d, kind).value
        if abs(got - expected) > 1e-11:
            failures.append(_fail(f"quadrature.dirichlet[{d},{kind}]", expected, got, 1e-11))
    return failures


def _check_geometry(seed: int, quick: bool) -> list[dict]:
    failures = []
    for n in range(2, 8 if quick else 13):
        acc = 0  # running sum of the harmonic dimensions of degree <= d
        for d in range(0, 20 if quick else 61):
            hom = dim_space(SpaceId(Family.HOMOGENEOUS, n, d))
            harm = dim_space(SpaceId(Family.HARMONIC, n, d))
            acc += harm
            if d >= 2:
                lower = dim_space(SpaceId(Family.HOMOGENEOUS, n, d - 2))
                if hom != harm + lower:
                    failures.append(_fail(f"geometry.split[{n},{d}]", hom, harm + lower, 0))
            leq = dim_space(SpaceId(Family.POLY_LEQ, n, d))
            if leq != acc:
                failures.append(_fail(f"geometry.leq_sum[{n},{d}]", leq, acc, 0))
    for n in range(2, 11):
        rule = gauss_jacobi_rule((n - 3) / 2.0, (n - 3) / 2.0, 40)
        got = axial_constant(n) * math.fsum(rule.weights)
        if abs(got - 1.0) > 1e-11:
            failures.append(_fail(f"geometry.axial_mass[{n}]", 1.0, got, 1e-11))
    for n in (2, 3, 5):
        got = math.fsum(
            monomial_moment(n, tuple(2 if i == j else 0 for i in range(n)))
            for j in range(n)
        )
        if abs(got - 1.0) > 1e-14:
            failures.append(_fail(f"geometry.moment_trace[{n}]", 1.0, got, 1e-14))
    return failures


def _check_kernels(seed: int, quick: bool) -> list[dict]:
    failures = []
    rng = np.random.default_rng(seed + 2)
    n_max = 4 if quick else 6
    d_max = 10 if quick else 30
    ts = rng.uniform(-1, 1, 100 if quick else 1000)
    for family in Family:
        for n in range(2, n_max + 1):
            # row d of each is the single-space kernel at degree d, bit for bit
            diag_sum = kernel_sum_rows(family, n, d_max, 1.0)
            diag_closed = kernel_closed_rows(family, n, d_max, 1.0)
            if n >= 3:
                sums = kernel_sum_rows(family, n, d_max, ts)
                closed = kernel_closed_rows(family, n, d_max, ts)
            for d in range(0, d_max + 1):
                dim = dim_space(SpaceId(family, n, d))
                for form, k1 in (("sum", float(diag_sum[d])), ("closed", float(diag_closed[d]))):
                    if abs(k1 - dim) > 1e-10 * dim:
                        failures.append(_fail(f"kernels.diag[{family.value},{n},{d},{form}]", dim, k1, 1e-10))
                if n >= 3:
                    diff = float(np.max(np.abs(sums[d] - closed[d])))
                    if diff > 1e-9 * dim:
                        failures.append(_fail(f"kernels.sum_closed[{family.value},{n},{d}]", 0.0, diff, 1e-9 * dim))
    for family in Family:
        for n in range(2, n_max + 1):
            for d in (0, 3, d_max):
                space = SpaceId(family, n, d)
                got = kernel_l2_norm(space).value
                expected = math.sqrt(dim_space(space))
                if abs(got - expected) > 1e-8 * expected:
                    failures.append(_fail(f"kernels.l2[{family.value},{n},{d}]", expected, got, 1e-8))
    return failures


def _check_constants(seed: int, quick: bool) -> list[dict]:
    failures = []
    got = lambda_harmonic(2, 7).value
    if abs(got - 4.0 / math.pi) > 1e-12:
        failures.append(_fail("constants.harmonic_circle", 4.0 / math.pi, got, 1e-12))
    for n in range(2, 6 if quick else 11):
        ruto = lambda_hilbert(n, "real").value
        for got in (lambda_harmonic(n, 1).value, lambda_homogeneous(n, 1).value):
            if abs(got - ruto) > 1e-10 * ruto:
                failures.append(_fail(f"constants.rutovitz[{n}]", ruto, got, 1e-10))
    got = lambda_harmonic(3, 2).value
    expected = 10.0 * math.sqrt(3.0) / 9.0
    if abs(got - expected) > 1e-10 * expected:
        failures.append(_fail("constants.harmonic_3_2", expected, got, 1e-10))
    for d in range(0, 8 if quick else 41):
        general = lambda_poly_leq(3, d).value
        gronwall = (d + 1) / 2.0 * integrate_abs_jacobi(JacobiParams(1.0, 0.0, max(d, 1)), 0.0).value if d >= 1 else 1.0
        if abs(general - gronwall) > 1e-10 * gronwall:
            failures.append(_fail(f"constants.gronwall[{d}]", gronwall, general, 1e-10))
    for n in range(2, 7):
        got = lambda_complex_homogeneous(n, 10**6).value
        expected = 2.0 ** (n - 1)
        if abs(got - expected) > 1e-3 * expected:
            failures.append(_fail(f"constants.complex_limit[{n}]", expected, got, 1e-3))
    for n in range(3, 10 if quick else 21):
        a = limit_constant(LimitSpec(Family.HARMONIC, n, "dim_sqrt"))
        b = limit_constant(LimitSpec(Family.HARMONIC, n, "d_power"))
        bridged = a * math.sqrt(2.0 / math.exp(math.lgamma(n - 1.0)))
        if abs(bridged - b) > 1e-12 * b:
            failures.append(_fail(f"constants.limit_bridge[{n}]", b, bridged, 1e-12))
    return failures


def _check_oracle(seed: int, quick: bool) -> list[dict]:
    failures = []
    n_max = 3 if quick else 4
    d_max = 4 if quick else 5
    ts = np.linspace(-1.0, 1.0, 50)
    for family in Family:
        for n in range(2, n_max + 1):
            for d in range(0, d_max + 1):
                space = SpaceId(family, n, d)
                basis = gram_basis(space)
                if basis.coefficients.shape[0] != dim_space(space):
                    failures.append(_fail(
                        f"oracle.dim[{family.value},{n},{d}]",
                        dim_space(space), basis.coefficients.shape[0], 0,
                    ))
                    continue
                dim = dim_space(space)
                worst = float(np.max(np.abs(
                    kernel_bruteforce(space, ts, basis) - kernel_axial_sum(space, ts)
                )))
                if worst > 1e-8 * dim:
                    failures.append(_fail(f"oracle.kernel[{family.value},{n},{d}]", 0.0, worst, 1e-8 * dim))
    if not quick:
        est, se = montecarlo_sphere(4, lambda x: x[:, 0] ** 2, 10**6, seed=seed)
        if abs(est - 0.25) > 4 * se:
            failures.append(_fail("oracle.mc_moment", 0.25, est, 4 * se))
        space = SpaceId(Family.HARMONIC, 3, 2)
        est, se = montecarlo_sphere(
            3, lambda x: np.abs(kernel_axial_sum(space, x[:, 0])), 10**6, seed=seed + 7
        )
        expected = 10.0 * math.sqrt(3.0) / 9.0
        if abs(est - expected) > 4 * se:
            failures.append(_fail("oracle.mc_lambda", expected, est, 4 * se))
    return failures


CHECKS: list[tuple[str, Callable[[int, bool], list[dict]]]] = [
    ("gamma", _check_gamma),
    ("orthopoly", _check_orthopoly),
    ("quadrature", _check_quadrature),
    ("geometry", _check_geometry),
    ("kernels", _check_kernels),
    ("constants", _check_constants),
    ("oracle", _check_oracle),
]


def run_checks(seed: int = 42, quick: bool = False, timed: bool = False) -> list[CheckResult]:
    """Run every check group in CHECKS order with the same seed and quick flag.

    timed records each group's wall time in CheckResult.wall_s.
    """
    results = []
    for check_id, fn in CHECKS:
        start = perf_counter() if timed else None
        failures = fn(seed, quick)
        wall_s = perf_counter() - start if timed else None
        results.append(CheckResult(check_id=check_id, failures=failures, wall_s=wall_s))
    return results
