import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.linalg import eigvalsh_tridiagonal

from projconst.orthopoly import (
    JacobiParams,
    _jacobi_value_deriv,
    _recurrence_tridiagonal,
    jacobi_eval,
    jacobi_roots,
    jacobi_symmetry_check,
    legendre_nd_coeffs,
    legendre_nd_eval,
)

GRID = np.linspace(-1.0, 1.0, 201)


def test_jacobi_value_at_one():
    for alpha in (0.0, 0.5, -0.5, 1.5):
        for beta_ in (0.0, 0.5, -0.5, 1.5):
            for d in range(0, 9):
                p = JacobiParams(alpha, beta_, d)
                expect = math.exp(
                    math.lgamma(d + alpha + 1)
                    - math.lgamma(alpha + 1)
                    - math.lgamma(d + 1)
                )
                got = float(jacobi_eval(p, np.array([1.0]))[0])
                assert got == pytest.approx(expect, rel=1e-12), (alpha, beta_, d)


def test_jacobi_specific_value():
    # P_2^{(0,0)}(0) = -1/2 (Legendre)
    p = JacobiParams(0.0, 0.0, 2)
    assert float(jacobi_eval(p, np.array([0.0]))[0]) == pytest.approx(-0.5, rel=1e-14)


def test_jacobi_degenerate_sum_minus_one():
    # alpha+beta = -1 must not break the recurrence start
    p = JacobiParams(-0.5, -0.5, 1)
    vals = jacobi_eval(p, GRID)
    assert np.allclose(vals, 0.5 * GRID, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.49, max_value=3.0),
    st.floats(min_value=-0.49, max_value=3.0),
    st.integers(min_value=0, max_value=25),
)
def test_jacobi_reflection_symmetry(alpha, beta_, d):
    residual = jacobi_symmetry_check(JacobiParams(alpha, beta_, d), GRID)
    assert np.max(np.abs(residual)) <= 1e-10


def test_jacobi_derivative_identity():
    p = JacobiParams(0.5, 1.5, 6)
    h = 1e-6
    t = np.linspace(-0.9, 0.9, 37)
    numeric = (jacobi_eval(p, t + h) - jacobi_eval(p, t - h)) / (2 * h)
    assert np.allclose(_jacobi_value_deriv(0.5, 1.5, 6, t)[1], numeric, atol=1e-5)


def test_legendre_nd_coeffs_examples():
    # n=3, d=2: L = (3t^2 - 1)/2 so coeffs for t^2, (1-t^2): (3/2 - 1/2? )
    # representation: sum b_j t^{d-2j} (1-t^2)^j with b_0 = 1
    coeffs = legendre_nd_coeffs(3, 2)
    vals = legendre_nd_eval(3, 2, GRID)
    assert coeffs[0] == pytest.approx(1.0)
    assert coeffs[1] == pytest.approx(-0.5)  # (3t^2 - 1)/2 = t^2 - (1-t^2)/2
    assert np.allclose(vals, GRID**2 + coeffs[1] * (1 - GRID**2), atol=1e-13)


def test_legendre_nd_n2_is_cosine():
    theta = np.linspace(0.0, math.pi, 100)
    t = np.cos(theta)
    for d in range(0, 8):
        assert np.allclose(legendre_nd_eval(2, d, t), np.cos(d * theta), atol=1e-11)


def test_legendre_nd_n3_is_legendre():
    # n=3 reproduces classical Legendre polynomials
    for d in range(0, 10):
        classical = np.polynomial.legendre.Legendre.basis(d)(GRID)
        assert np.allclose(legendre_nd_eval(3, d, GRID), classical, atol=1e-11)


def test_legendre_nd_bounded_by_one():
    for n in range(2, 7):
        for d in range(0, 21):
            vals = legendre_nd_eval(n, d, GRID)
            assert np.max(np.abs(vals)) <= 1.0 + 1e-12
            assert float(legendre_nd_eval(n, d, np.array([1.0]))[0]) == pytest.approx(
                1.0, rel=1e-13
            )


def test_legendre_nd_gegenbauer_rescaling():
    for n in (3, 4, 5):
        lam = (n - 2) / 2.0
        for d in range(1, 9):
            scale = float(mp.gegenbauer(d, lam, 1))
            # zeroprec caps the precision mpmath spends proving an exact zero (t = 0, odd d)
            expect = [float(mp.gegenbauer(d, lam, float(t), zeroprec=100)) / scale for t in GRID]
            assert np.allclose(legendre_nd_eval(n, d, GRID), expect, atol=1e-11)


def _mp_axial_profile(n: int, d: int, ts) -> list:
    """sum_j b_j t^(d-2j) (1-t^2)^j at 40 digits, with exact rational b_j."""
    with mp.workdps(40):
        coeffs, b = [], Fraction(1)
        for j in range(d // 2 + 1):
            if j:
                b *= Fraction(-(d - 2 * j + 2) * (d - 2 * j + 1), 2 * j * (2 * j + n - 3))
            coeffs.append(mp.mpf(b.numerator) / b.denominator)
        out = []
        for t in ts:
            t = mp.mpf(float(t))
            one_minus = 1 - t * t
            out.append(mp.fsum(b * t ** (d - 2 * j) * one_minus**j for j, b in enumerate(coeffs)))
        return out


# worst errors over GRID and these degrees, measured for the Horner form, all
# at d = 40: 3.4e-11 (n = 2), 5.1e-12 (3), 2.1e-13 (6), 5.1e-14 (8); the
# bounds keep about a 1.5x margin
@pytest.mark.parametrize("n, bound", [(2, 5e-11), (3, 8e-12), (6, 3e-13), (8, 8e-14)])
def test_legendre_nd_horner_against_mpmath(n, bound):
    for d in (0, 1, 2, 9, 20, 39, 40):
        ref = _mp_axial_profile(n, d, GRID)
        got = legendre_nd_eval(n, d, GRID)
        err = max(abs(float(g - r)) for g, r in zip(got, ref))
        assert err <= bound, (n, d, err)


def test_jacobi_roots_legendre_2():
    roots = jacobi_roots(JacobiParams(0.0, 0.0, 2))
    assert isinstance(roots, np.ndarray) and roots.dtype == np.float64
    assert np.allclose(np.sort(roots), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-13)


def test_jacobi_roots_chebyshev():
    d = 7
    roots = np.sort(jacobi_roots(JacobiParams(-0.5, -0.5, d)))
    expect = np.sort(np.cos((2 * np.arange(1, d + 1) - 1) * math.pi / (2 * d)))
    assert np.allclose(roots, expect, atol=1e-13)


@pytest.mark.parametrize("d", [8, 200, 201])
def test_jacobi_roots_chebyshev_both_parities(d):
    # even d takes a half problem that is itself symmetric, P_{d/2}^{(-1/2,-1/2)}
    roots = jacobi_roots(JacobiParams(-0.5, -0.5, d))
    expect = np.cos((2 * np.arange(d, 0, -1) - 1) * math.pi / (2 * d))
    assert np.max(np.abs(roots - expect)) <= 1e-13


def test_jacobi_roots_residual_and_interlacing():
    for alpha, beta_ in ((0.0, 0.0), (0.5, -0.5), (1.5, 0.5)):
        prev = None
        for d in range(1, 26):
            p = JacobiParams(alpha, beta_, d)
            roots = np.sort(jacobi_roots(p))
            assert roots.shape == (d,)
            assert np.all(roots > -1.0) and np.all(roots < 1.0)
            assert np.all(np.diff(roots) > 0)
            scale = float(np.max(np.abs(jacobi_eval(p, GRID))))
            assert np.max(np.abs(jacobi_eval(p, roots))) <= 1e-10 * scale
            if prev is not None:
                # interlacing: one root of degree d-1 strictly between consecutive
                for lo, hi in zip(roots[:-1], roots[1:]):
                    assert np.any((prev > lo) & (prev < hi))
            prev = roots


def _full_eigensolve(alpha, beta_, d):
    return eigvalsh_tridiagonal(*_recurrence_tridiagonal(alpha, beta_, d))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 3.5, 23.5, 24.5])
def test_jacobi_roots_symmetric_half_size(alpha):
    # a = b takes the half-size problem; it must agree with the full one
    for d in range(1, 81):
        roots = jacobi_roots(JacobiParams(alpha, alpha, d))
        assert np.max(np.abs(roots - _full_eigensolve(alpha, alpha, d))) <= 1e-13, d
        assert np.array_equal(roots, -roots[::-1]), d
        assert np.all(np.diff(roots) > 0), d
        if d % 2:
            assert roots[d // 2] == 0.0 and np.count_nonzero(roots == 0.0) == 1, d


@pytest.mark.parametrize("d", [2000, 2001])
def test_jacobi_roots_symmetric_large_degree(d):
    roots = jacobi_roots(JacobiParams(3.5, 3.5, d))
    assert np.max(np.abs(roots - _full_eigensolve(3.5, 3.5, d))) <= 1e-13
    assert np.array_equal(roots, -roots[::-1])
    assert (0.0 in roots) == bool(d % 2)


@pytest.mark.parametrize("alpha, beta_", [(0.0, 0.0), (3.5, 3.5), (1.5, -0.5)])
def test_one_pass_derivative_matches_jacobi_deriv(alpha, beta_):
    # P' from (P_d, P_{d-1}) of one recurrence pass, as the root polish uses it
    t = np.linspace(-0.95, 0.95, 191)
    for d in (1, 2, 5, 20, 100):
        p = JacobiParams(alpha, beta_, d)
        # oracle: P'_d^{(a,b)} = ((d+a+b+1)/2) P_{d-1}^{(a+1,b+1)}
        shifted = JacobiParams(alpha + 1.0, beta_ + 1.0, d - 1)
        factor = 0.5 * (d + alpha + beta_ + 1.0)
        value, deriv = _jacobi_value_deriv(alpha, beta_, d, t)
        expect = factor * jacobi_eval(shifted, t)
        assert np.array_equal(value, jacobi_eval(p, t))
        assert np.max(np.abs(deriv - expect)) <= 1e-12 * np.max(np.abs(expect)), d
        # pointwise at the roots, where P' is far from zero
        roots = jacobi_roots(p)
        _, deriv = _jacobi_value_deriv(alpha, beta_, d, roots)
        expect = factor * jacobi_eval(shifted, roots)
        assert np.all(np.abs(deriv - expect) <= 1e-12 * np.abs(expect)), d
