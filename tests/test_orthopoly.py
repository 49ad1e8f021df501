import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from projconst.errors import DomainError
from projconst.orthopoly import (
    JacobiParams,
    _jacobi_value_deriv,
    _recurrence_tridiagonal,
    gegenbauer_eval,
    gegenbauer_norm_sq,
    jacobi_deriv,
    jacobi_eval,
    jacobi_roots,
    jacobi_symmetry_check,
    legendre_harmonic_eval,
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
    assert np.allclose(jacobi_deriv(p, t), numeric, atol=1e-5)


def test_gegenbauer_values():
    # C_2^{(1)}(t) = 4t^2 - 1 (Chebyshev U_2)
    vals = gegenbauer_eval(1.0, 2, GRID)
    assert np.allclose(vals, 4 * GRID**2 - 1, atol=1e-12)


def test_gegenbauer_norm_sq_example():
    # lam=1/2, d=2 (Legendre): 2/(2d+1) = 2/5
    assert gegenbauer_norm_sq(0.5, 2) == pytest.approx(0.4, rel=1e-12)


def test_gegenbauer_norm_sq_matches_quadrature():
    from scipy.special import roots_jacobi

    lam, d = 1.25, 5
    nodes, weights = roots_jacobi(32, lam - 0.5, lam - 0.5)
    vals = gegenbauer_eval(lam, d, nodes)
    assert float(weights @ vals**2) == pytest.approx(
        gegenbauer_norm_sq(lam, d), rel=1e-11
    )


def test_gegenbauer_domain():
    with pytest.raises(DomainError):
        gegenbauer_eval(0.0, 3, GRID)
    with pytest.raises(DomainError):
        gegenbauer_eval(-0.6, 3, GRID)


def test_legendre_nd_coeffs_examples():
    # n=3, d=2: L = (3t^2 - 1)/2 so coeffs for t^2, (1-t^2): (3/2 - 1/2? )
    # representation: sum b_j t^{d-2j} (1-t^2)^j with b_0 = 1
    coeffs = legendre_nd_coeffs(3, 2).coeffs
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
            scale = float(gegenbauer_eval(lam, d, np.array([1.0]))[0])
            assert np.allclose(
                legendre_nd_eval(n, d, GRID),
                gegenbauer_eval(lam, d, GRID) / scale,
                atol=1e-11,
            )


def test_legendre_harmonic_eval_matches_axial():
    # on the unit sphere the harmonic polynomial reduces to the axial profile
    rng = np.random.default_rng(7)
    for n in (3, 4):
        for d in (1, 3, 4):
            x = rng.normal(size=n)
            x /= np.linalg.norm(x)
            assert legendre_harmonic_eval(n, d, x) == pytest.approx(
                float(legendre_nd_eval(n, d, float(x[0]))), abs=1e-12
            )


def test_legendre_harmonic_eval_is_harmonic():
    # numerical Laplacian vanishes away from the sphere too
    n, d = 3, 4
    rng = np.random.default_rng(3)
    x = rng.normal(size=n)
    h = 1e-4
    lap = 0.0
    center = legendre_harmonic_eval(n, d, x)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        lap += (
            legendre_harmonic_eval(n, d, x + e)
            - 2 * center
            + legendre_harmonic_eval(n, d, x - e)
        ) / h**2
    assert abs(lap) < 1e-5 * max(1.0, abs(center))


def test_jacobi_roots_legendre_2():
    roots = jacobi_roots(JacobiParams(0.0, 0.0, 2))
    assert np.allclose(np.sort(roots), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-13)


def test_jacobi_roots_chebyshev():
    d = 7
    roots = np.sort(jacobi_roots(JacobiParams(-0.5, -0.5, d)))
    expect = np.sort(np.cos((2 * np.arange(1, d + 1) - 1) * math.pi / (2 * d)))
    assert np.allclose(roots, expect, atol=1e-13)


@pytest.mark.parametrize("d", [8, 200, 201])
def test_jacobi_roots_chebyshev_both_parities(d):
    # even d takes a half problem that is itself symmetric, P_{d/2}^{(-1/2,-1/2)}
    roots = np.array(jacobi_roots(JacobiParams(-0.5, -0.5, d)))
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
        roots = np.array(jacobi_roots(JacobiParams(alpha, alpha, d)))
        assert np.max(np.abs(roots - _full_eigensolve(alpha, alpha, d))) <= 1e-13, d
        assert np.array_equal(roots, -roots[::-1]), d
        assert np.all(np.diff(roots) > 0), d
        if d % 2:
            assert roots[d // 2] == 0.0 and np.count_nonzero(roots == 0.0) == 1, d


@pytest.mark.parametrize("d", [2000, 2001])
def test_jacobi_roots_symmetric_large_degree(d):
    roots = np.array(jacobi_roots(JacobiParams(3.5, 3.5, d)))
    assert np.max(np.abs(roots - _full_eigensolve(3.5, 3.5, d))) <= 1e-13
    assert np.array_equal(roots, -roots[::-1])
    assert (0.0 in roots) == bool(d % 2)


@pytest.mark.parametrize("alpha, beta_", [(0.0, 0.0), (3.5, 3.5), (1.5, -0.5)])
def test_one_pass_derivative_matches_jacobi_deriv(alpha, beta_):
    # P' from (P_d, P_{d-1}) of one recurrence pass, as the root polish uses it
    t = np.linspace(-0.95, 0.95, 191)
    for d in (1, 2, 5, 20, 100):
        p = JacobiParams(alpha, beta_, d)
        value, deriv = _jacobi_value_deriv(alpha, beta_, d, t)
        expect = jacobi_deriv(p, t)
        assert np.array_equal(value, jacobi_eval(p, t))
        assert np.max(np.abs(deriv - expect)) <= 1e-12 * np.max(np.abs(expect)), d
        # pointwise at the roots, where P' is far from zero
        roots = np.array(jacobi_roots(p))
        _, deriv = _jacobi_value_deriv(alpha, beta_, d, roots)
        expect = jacobi_deriv(p, roots)
        assert np.all(np.abs(deriv - expect) <= 1e-12 * np.abs(expect)), d
