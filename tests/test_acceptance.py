"""Acceptance gate: one test per criterion, one pass/fail line each under -v.

Every tolerance here is pinned; loosening one is a behavior change, not a fix.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projconst
from projconst.constants import (
    lambda_complex_homogeneous,
    lambda_harmonic,
    lambda_hilbert,
    lambda_homogeneous,
    lambda_poly_leq,
)
from projconst.geometry import Family, SpaceId, dim_space, harmonic_dim
from projconst.kernels import kernel_axial_closed, kernel_axial_sum, kernel_l2_norm
from projconst.oracle import gram_basis, kernel_bruteforce, montecarlo_sphere
from projconst.orthopoly import JacobiParams
from projconst.quadrature import dirichlet_lebesgue, integrate_abs_jacobi


def _grid_spaces(n_values, d_values):
    for family in Family:
        for n in n_values:
            for d in d_values:
                if family is Family.HOMOGENEOUS and d == 0:
                    continue
                yield SpaceId(family, n, d)


def _report(name: str) -> None:
    print(f"PASS {name}")


def test_criterion_01_circle_harmonics_closed_form():
    # lambda(H_d(S^1)) = 4/pi for every d in 1..50, abs tol 1e-12
    for d in range(1, 51):
        res = lambda_harmonic(2, d)
        assert abs(res.value - 4.0 / math.pi) <= 1e-12, d
        assert res.method == "ClosedForm"
    _report("criterion 1: lambda(H_d(S^1)) = 4/pi, d=1..50, abs 1e-12")


def test_criterion_02_degree_one_reference():
    # lambda(.,n,1) = 2 Gamma((n+2)/2) / (sqrt(pi) Gamma((n+1)/2)), rel 1e-10
    for n in range(2, 11):
        expect = lambda_hilbert(n, "real").value
        assert lambda_harmonic(n, 1).value == pytest.approx(expect, rel=1e-10), n
        assert lambda_homogeneous(n, 1).value == pytest.approx(expect, rel=1e-10), n
    _report("criterion 2: degree-1 constants match the Hilbert-space value, n=2..10")


def test_criterion_03_degree_one_jacobi_integral():
    # int |P_1^{((n-1)/2,(n-1)/2)}| (1-t^2)^{(n-3)/2} dt = (n+1)/(n-1), rel 1e-11
    for n in range(3, 9):
        alpha = (n - 1) / 2.0
        res = integrate_abs_jacobi(JacobiParams(alpha, alpha, 1), (n - 3) / 2.0)
        assert res.value == pytest.approx((n + 1.0) / (n - 1.0), rel=1e-11), n
    _report("criterion 3: degree-1 abs-Jacobi integral equals (n+1)/(n-1), n=3..8")


def test_criterion_04_kernel_diagonal():
    # both kernel forms at t=1 equal dim, all families, n=2..6, d=0..30, rel 1e-10
    for space in _grid_spaces(range(2, 7), range(0, 31)):
        dim = dim_space(space)
        assert kernel_axial_sum(space, 1.0) == pytest.approx(dim, rel=1e-10), space
        assert kernel_axial_closed(space, 1.0) == pytest.approx(dim, rel=1e-10), space
    _report("criterion 4: kernel diagonal equals dim, n=2..6, d=0..30")


def test_criterion_05_kernel_l2_identity():
    # weighted L2 norm of the kernel equals sqrt(dim), rel 1e-8, same grid
    for space in _grid_spaces(range(2, 7), range(0, 31)):
        res = kernel_l2_norm(space)
        assert res.value == pytest.approx(math.sqrt(dim_space(space)), rel=1e-8), space
    _report("criterion 5: kernel L2 norm equals sqrt(dim), n=2..6, d=0..30")


def test_criterion_06_sum_closed_equivalence():
    # both kernel representations agree at 1000 random points, tol 1e-9 * dim
    rng = np.random.default_rng(42)
    for space in _grid_spaces(range(3, 7), range(0, 31)):
        t = rng.uniform(-1.0, 1.0, size=1000)
        gap = np.max(np.abs(kernel_axial_sum(space, t) - kernel_axial_closed(space, t)))
        assert gap <= 1e-9 * dim_space(space), space
    _report("criterion 6: sum and closed kernels agree at 1000 random t, n=3..6")


def test_criterion_07_oracle_equivalence():
    # Gram-basis brute-force kernel matches fast kernels; cardinality exact
    ts = np.linspace(-1.0, 1.0, 11)
    for space in _grid_spaces((2, 3, 4), range(0, 6)):
        basis = gram_basis(space)
        dim = dim_space(space)
        assert basis.coefficients.shape[0] == dim, space
        for t in ts:
            brute = kernel_bruteforce(space, float(t), basis)
            assert abs(brute - kernel_axial_sum(space, float(t))) <= 1e-8 * dim, space
            assert abs(brute - kernel_axial_closed(space, float(t))) <= 1e-8 * dim, space
    _report("criterion 7: first-principles oracle matches fast kernels, n<=4, d<=5")


def test_criterion_08_s2_harmonic_degree_2():
    # lambda(H_2(S^2)) = 10 sqrt(3) / 9, rel 1e-10
    assert lambda_harmonic(3, 2).value == pytest.approx(
        10.0 * math.sqrt(3.0) / 9.0, rel=1e-10
    )
    _report("criterion 8: lambda(H_2(S^2)) = 10*sqrt(3)/9, rel 1e-10")


def test_criterion_09_n3_gronwall_consistency():
    # general n=3 route equals (d+1)/2 int |P_d^{(1,0)}| dt, d=0..40, rel 1e-10
    for d in range(0, 41):
        general = lambda_poly_leq(3, d).value
        alt = (d + 1) / 2.0 * integrate_abs_jacobi(JacobiParams(1.0, 0.0, d), 0.0).value
        assert general == pytest.approx(alt, rel=1e-10), d
    _report("criterion 9: n=3 general formula equals the Gronwall form, d=0..40")


def test_criterion_10_circle_finite_and_log_growth():
    # lambda(P_{<=1}(S^1)) exactly; log growth over three decades within 1%
    assert lambda_poly_leq(2, 1).value == pytest.approx(
        1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi, rel=1e-11
    )
    gap = lambda_poly_leq(2, 10**4).value - lambda_poly_leq(2, 10**3).value
    expect = 4.0 / math.pi**2 * math.log(10.0)
    assert abs(gap - expect) <= 0.01 * expect
    _report("criterion 10: circle value at d=1 exact; decade growth = (4/pi^2) ln 10")


def test_criterion_11_desk_scale_asymptotics():
    # n=3: lambda/sqrt(d) within 2% of its limit at d=2000 and closer than at d=200;
    # n=4: lambda(P_d)/d within 5% of 2/pi at d=2000
    targets = [
        (lambda d: lambda_harmonic(3, d).value, 8.0 * math.gamma(0.75) ** 2 / math.pi**2),
        (lambda d: lambda_poly_leq(3, d).value, 2.0 * math.sqrt(2.0 / math.pi)),
    ]
    for fn, limit in targets:
        dev = {d: abs(fn(d) / math.sqrt(d) - limit) for d in (200, 2000)}
        assert dev[2000] <= 0.02 * limit
        assert dev[2000] < dev[200]
    ratio = lambda_homogeneous(4, 2000).value / 2000.0
    assert abs(ratio - 2.0 / math.pi) <= 0.05 * (2.0 / math.pi)
    _report("criterion 11: desk-scale asymptotics at d=200/2000 within stated slack")


def test_criterion_12_complex_reference():
    # complex homogeneous constant: tends to 2^{n-1} and never exceeds it
    for n in range(2, 7):
        bound = 2.0 ** (n - 1)
        assert abs(lambda_complex_homogeneous(n, 10**6).value - bound) < 1e-3 * bound, n
        for d in (0, 1, 2, 5, 10, 100, 10**4, 10**6):
            assert lambda_complex_homogeneous(n, d).value <= bound * (1 + 1e-12), (n, d)
    _report("criterion 12: complex constants approach and never exceed 2^(n-1)")


def test_criterion_13_monte_carlo_cross_check():
    # 10^6-sample MC of int |k_{H_2(S^2)}| dsigma within 4 standard errors
    space = SpaceId(Family.HARMONIC, 3, 2)
    mean, err = montecarlo_sphere(
        3, lambda x: np.abs(kernel_axial_closed(space, x[:, 0])), 10**6
    )
    assert abs(mean - 10.0 * math.sqrt(3.0) / 9.0) <= 4.0 * err
    _report("criterion 13: Monte Carlo agrees with criterion 8 within 4 std errors")


def test_criterion_14_dimension_identities():
    # exact integer identities, n=2..12, d=0..60
    for n in range(2, 13):
        for d in range(0, 61):
            homo = dim_space(SpaceId(Family.HOMOGENEOUS, n, d))
            lower = dim_space(SpaceId(Family.HOMOGENEOUS, n, d - 2)) if d >= 2 else 0
            assert homo == harmonic_dim(n, d) + lower, (n, d)
            total = dim_space(SpaceId(Family.POLY_LEQ, n, d))
            assert total == sum(harmonic_dim(n, k) for k in range(d + 1)), (n, d)
    _report("criterion 14: exact dimension identities, n=2..12, d=0..60")


def test_criterion_15_verify_determinism():
    # two full verification runs with the same seed are byte-identical
    cmd = [sys.executable, "-m", "projconst", "verify", "--seed", "42"]
    # the child imports the projconst this process imported, also when only
    # pytest's pythonpath setting, which the child does not inherit, found it
    src = str(Path(projconst.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    runs = [subprocess.run(cmd, capture_output=True, timeout=300, env=env) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stdout.decode() + run.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr
    _report("criterion 15: verify --seed 42 is byte-identical across runs")
