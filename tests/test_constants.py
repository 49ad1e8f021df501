import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import quad
from scipy.special import roots_jacobi

from projconst.constants import (
    lambda_complex_homogeneous,
    lambda_harmonic,
    lambda_hilbert,
    lambda_homogeneous,
    lambda_poly_leq,
)
from projconst.errors import DomainError, ToleranceError
from projconst.geometry import Family, SpaceId, axial_constant
from projconst.kernels import kernel_axial_closed
from projconst.orthopoly import JacobiParams, jacobi_roots
from projconst.quadrature import integrate_abs_jacobi

LAMBDA = {"harmonic": lambda_harmonic, "homogeneous": lambda_homogeneous, "polyleq": lambda_poly_leq}


def test_lambda_harmonic_trivial():
    res = lambda_harmonic(3, 0)
    assert res.value == 1.0
    assert res.method == "ClosedForm"


def test_lambda_harmonic_circle():
    for d in (1, 5, 50):
        assert lambda_harmonic(2, d).value == pytest.approx(4 / math.pi, abs=1e-15)


def test_lambda_harmonic_s2_degree2():
    assert lambda_harmonic(3, 2).value == pytest.approx(10 * math.sqrt(3) / 9, rel=1e-11)


def test_rutovitz_degree_one():
    for n in range(2, 11):
        expect = lambda_hilbert(n, "real").value
        assert lambda_harmonic(n, 1).value == pytest.approx(expect, rel=1e-10), n
        assert lambda_homogeneous(n, 1).value == pytest.approx(expect, rel=1e-10), n


def test_lambda_hilbert_values():
    assert lambda_hilbert(1, "real").value == pytest.approx(1.0, rel=1e-14)
    assert lambda_hilbert(2, "real").value == pytest.approx(4 / math.pi, rel=1e-13)
    assert lambda_hilbert(1, "complex").value == pytest.approx(
        math.sqrt(math.pi) / 2 * math.exp(math.lgamma(2.0) - math.lgamma(1.5)), rel=1e-13
    )


def test_lambda_poly_leq_circle_degree_one():
    assert lambda_poly_leq(2, 1).value == pytest.approx(
        1 / 3 + 2 * math.sqrt(3) / math.pi, rel=1e-11
    )


def test_lambda_complex_homogeneous_values():
    # n=2, d=2: Gamma(4)Gamma(2)/(Gamma(3)Gamma(3)) = 3/2
    assert lambda_complex_homogeneous(2, 2).value == pytest.approx(1.5, rel=1e-13)
    # d=0: always 1
    assert lambda_complex_homogeneous(5, 0).value == pytest.approx(1.0, rel=1e-13)


def test_lambda_complex_bounded_by_power():
    for n in range(1, 7):
        bound = 2.0 ** (n - 1)
        for d in (0, 1, 2, 5, 10, 100, 10**4):
            val = lambda_complex_homogeneous(n, d).value
            assert val <= bound * (1 + 1e-12), (n, d)


def test_lambda_monotone_in_degree():
    for n in (3, 4):
        prev_h, prev_p = 0.0, 0.0
        for d in range(1, 41):
            h = lambda_homogeneous(n, d).value
            p = lambda_poly_leq(n, d).value
            assert h > prev_h, (n, d)
            assert p > prev_p, (n, d)
            prev_h, prev_p = h, p


def test_lambda_growth_in_dimension():
    prev = 0.0
    for n in range(3, 41):
        val = lambda_homogeneous(n, 2).value
        assert val > prev, n
        prev = val
    # growth is linear in n up to a bounded factor
    assert 0.1 < lambda_homogeneous(40, 2).value / 40 < 10


def _lambda_via_adaptive_kernel_integral(space: SpaceId) -> float:
    """Independent route: c_n * adaptive integral of |k(t)| (1-t^2)^{(n-3)/2}."""
    n = space.n
    gamma = (n - 3) / 2.0
    if space.family is Family.HARMONIC:
        params = JacobiParams((n - 3) / 2.0, (n - 3) / 2.0, space.d)
    elif space.family is Family.HOMOGENEOUS:
        params = JacobiParams((n - 1) / 2.0, (n - 1) / 2.0, space.d)
    else:
        params = JacobiParams((n - 1) / 2.0, (n - 3) / 2.0, space.d)
    pts = np.sort(jacobi_roots(params)).tolist()

    def integrand(t):
        return abs(kernel_axial_closed(space, t)) * (1 - t * t) ** gamma

    val, _ = quad(integrand, -1.0, 1.0, points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)
    return axial_constant(n) * val


def test_lambda_equals_independent_kernel_integral():
    # odd n keeps the weight polynomial, so the adaptive reference is clean
    cases = [
        (lambda_harmonic, SpaceId(Family.HARMONIC, 3, 4)),
        (lambda_harmonic, SpaceId(Family.HARMONIC, 5, 3)),
        (lambda_homogeneous, SpaceId(Family.HOMOGENEOUS, 3, 5)),
        (lambda_homogeneous, SpaceId(Family.HOMOGENEOUS, 5, 4)),
        (lambda_poly_leq, SpaceId(Family.POLY_LEQ, 3, 6)),
        (lambda_poly_leq, SpaceId(Family.POLY_LEQ, 5, 3)),
    ]
    for fn, space in cases:
        reference = _lambda_via_adaptive_kernel_integral(space)
        assert fn(space.n, space.d).value == pytest.approx(reference, rel=1e-10), space


def test_lambda_equals_independent_kernel_integral_even_n():
    # even n has a sqrt weight; the adaptive reference converges more slowly
    for fn, space in [
        (lambda_harmonic, SpaceId(Family.HARMONIC, 4, 3)),
        (lambda_poly_leq, SpaceId(Family.POLY_LEQ, 4, 4)),
    ]:
        reference = _lambda_via_adaptive_kernel_integral(space)
        assert fn(space.n, space.d).value == pytest.approx(reference, rel=1e-7), space


def test_gronwall_consistency_n3_polyleq():
    # (d+1)/2 * int |P_d^{(1,0)}| dt equals the general n=3 formula
    for d in range(0, 21):
        direct = lambda_poly_leq(3, d).value
        if d == 0:
            assert direct == 1.0
            continue
        alt = (d + 1) / 2.0 * integrate_abs_jacobi(JacobiParams(1.0, 0.0, d), 0.0).value
        assert direct == pytest.approx(alt, rel=1e-10), d


def test_degree_zero_and_domain_errors():
    assert lambda_poly_leq(7, 0).value == 1.0
    with pytest.raises(DomainError):
        lambda_harmonic(1, 2)
    with pytest.raises(DomainError):
        lambda_homogeneous(3, 0)
    with pytest.raises(DomainError):
        lambda_poly_leq(3, -1)
    with pytest.raises(DomainError):
        lambda_hilbert(3, "quaternion")
    with pytest.raises(DomainError):
        lambda_complex_homogeneous(0, 3)


def _quadrature_lambda(family: str, n: int, d: int) -> float:
    """The quadrature route: log-gamma prefactor times the abs-Jacobi integral."""
    lg = math.lgamma
    if family == "harmonic":
        a = b = (n - 3) / 2.0
        prefactor = (2 * d + n - 2) / 2.0 ** (n - 2) * math.exp(
            lg(d + n - 2.0) - lg((n - 1) / 2.0) - lg(d + (n - 1) / 2.0)
        )
    elif family == "homogeneous":
        a = b = (n - 1) / 2.0
        prefactor = math.exp(
            lg(n / 2.0) + lg(d + float(n)) - lg(n - 1.0) - lg(d + (n + 1) / 2.0)
        ) / (2.0 * math.sqrt(math.pi))
    else:
        a, b = (n - 1) / 2.0, (n - 3) / 2.0
        prefactor = math.exp(
            lg(n / 2.0) - lg(n - 1.0) + lg(d + n - 1.0) - lg(d + (n - 1) / 2.0)
        ) / math.sqrt(math.pi)
    return prefactor * integrate_abs_jacobi(JacobiParams(a, b, d), (n - 3) / 2.0).value


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LAMBDA)), st.integers(3, 20), st.integers(1, 60))
def test_exact_arch_sum_matches_quadrature(family, n, d):
    res = LAMBDA[family](n, d)
    assert res.method == "ExactArchSum"
    assert res.value == pytest.approx(_quadrature_lambda(family, n, d), rel=1e-12)


def _mp_lambda(family: str, n: int, d: int):
    """lambda at 40 digits: the arch antiderivative at roots refined in mpmath.

    K = sum_{k in S} ((k+lam)/lam) C_k^{(lam)}; the antiderivative of
    c_n K (1-t^2)^(lam-1/2) is [0 in S] I(t) - 2 c_n (1-t^2)^(lam+1/2)
    sum_{k in S, k >= 1} (k+lam)/(k(k+2lam)) C_{k-1}^{(lam+1)}(t).
    """
    degrees = {"harmonic": [d], "homogeneous": list(range(d % 2, d + 1, 2)),
               "polyleq": list(range(d + 1))}[family]
    with mp.workdps(40):
        lam = mp.mpf(n - 2) / 2

        def gegenbauer_sum(mu, coef, t):
            c_prev, c = mp.mpf(0), mp.mpf(1)
            total = coef.get(0, 0) * c
            for k in range(max(coef)):
                c_prev, c = c, (2 * (k + mu) * t * c - (k + 2 * mu - 1) * c_prev) / (k + 1)
                total += coef.get(k + 1, 0) * c
            return total

        kernel = {k: (k + lam) / lam for k in degrees}
        series = {k - 1: (k + lam) / (k * (k + 2 * lam)) for k in degrees if k}
        c_n = mp.gamma(mp.mpf(n) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - 1) / 2))

        def antiderivative(t):
            value = -2 * c_n * (1 - t * t) ** (lam + 0.5) * gegenbauer_sum(lam + 1, series, t)
            if 0 in degrees:
                value += mp.betainc(lam + 0.5, lam + 0.5, 0, (1 + t) / 2, regularized=True)
            return value

        g = (n - 3) / 2.0
        a, b = {"harmonic": (g, g), "homogeneous": (g + 1, g + 1), "polyleq": (g + 1, g)}[family]
        guesses = roots_jacobi(d, a, b)[0]
        roots = [mp.findroot(lambda t: gegenbauer_sum(lam, kernel, t), mp.mpf(float(x)))
                 for x in guesses]
        values = [antiderivative(t) for t in [mp.mpf(-1), *roots, mp.mpf(1)]]
        return mp.fsum(abs(v1 - v0) for v0, v1 in zip(values, values[1:]))


@pytest.mark.parametrize("family,n,d", [
    ("harmonic", 3, 40), ("harmonic", 8, 17), ("harmonic", 27, 9), ("harmonic", 50, 12),
    ("homogeneous", 3, 33), ("homogeneous", 4, 31), ("homogeneous", 12, 24), ("homogeneous", 50, 9),
    ("polyleq", 4, 38), ("polyleq", 7, 25), ("polyleq", 20, 33), ("polyleq", 50, 15),
])
def test_exact_arch_sum_against_mpmath(family, n, d):
    res = LAMBDA[family](n, d)
    ref = float(_mp_lambda(family, n, d))
    assert abs(res.value - ref) <= res.abs_err
    assert res.value == pytest.approx(ref, rel=1e-13)


def test_default_tol_met_at_n50():
    # the largest degrees at n = 50 that the benchmark's lambda sweep draws
    for fn in LAMBDA.values():
        for d in range(47, 55):
            assert fn(50, d).method == "ExactArchSum"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_overflow_fails_loudly():
    # the kernel's Gegenbauer series overflows double precision here
    with pytest.raises(ToleranceError):
        lambda_harmonic(600, 600, tol=1e300)
