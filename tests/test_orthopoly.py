import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.linalg import eigvalsh_tridiagonal

from projconst import orthopoly
from projconst.errors import ConvergenceError
from projconst.geometry import FAMILY_TABLE, Family
from projconst.orthopoly import (
    _NEWTON_MIN_ROWS,
    JacobiParams,
    _bessel_zeros,
    _newton_step,
    _recurrence_eigenvalues,
    _recurrence_tridiagonal,
    jacobi_eval,
    jacobi_roots,
    jacobi_rows,
    jacobi_symmetry_check,
    legendre_nd_coeffs,
    legendre_nd_eval,
    legendre_nd_rows,
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


def _shifted_deriv(alpha, beta_, d, t):
    """P'_d^{(a,b)}(t) = ((d+a+b+1)/2) P_{d-1}^{(a+1,b+1)}(t)."""
    shifted = JacobiParams(alpha + 1.0, beta_ + 1.0, d - 1)
    return 0.5 * (d + alpha + beta_ + 1.0) * jacobi_eval(shifted, t)


def test_jacobi_derivative_identity():
    # the P' that the Newton step implies, P / step, against a central
    # difference and the shifted-parameter P', also at order 1 and a + b = -1
    h = 1e-6
    t = np.linspace(-0.9, 0.9, 37)
    for alpha, beta_, d in ((0.5, 1.5, 6), (0.5, 1.5, 1), (-0.25, -0.75, 6)):
        p = JacobiParams(alpha, beta_, d)
        numeric = (jacobi_eval(p, t + h) - jacobi_eval(p, t - h)) / (2 * h)
        implied = jacobi_eval(p, t) / _newton_step(alpha, beta_, d, t)
        assert np.allclose(implied, numeric, atol=1e-5)
        assert np.allclose(implied, _shifted_deriv(alpha, beta_, d, t), atol=1e-5)


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


@pytest.mark.parametrize("alpha, beta_", [(1.5, 0.5), (0.5, 1.5), (24.5, 23.5), (3.5, -0.5)])
def test_jacobi_roots_asymmetric_both_eigensolvers(alpha, beta_):
    # d = 1..80 crosses the size at which the dense eigensolve hands over to scipy's
    for d in range(1, 81):
        roots = jacobi_roots(JacobiParams(alpha, beta_, d))
        assert np.max(np.abs(roots - _full_eigensolve(alpha, beta_, d))) <= 1e-13, d
        assert np.all(np.diff(roots) > 0), d


@pytest.mark.parametrize("alpha, beta_", [(0.5, 0.5), (1.5, 0.5), (24.5, 23.5), (3.5, -0.5), (3.5, 0.5)])
def test_dense_eigensolve_is_bit_identical(alpha, beta_):
    # the dense and the tridiagonal solver end in the same LAPACK sterf, so the
    # size cutoff between them cannot change a root
    for m in range(1, 65):
        diag, off = _recurrence_tridiagonal(alpha, beta_, m)
        tridiagonal = eigvalsh_tridiagonal(diag, off)
        assert np.array_equal(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1)), tridiagonal), m
        assert np.array_equal(_recurrence_eigenvalues(alpha, beta_, m), tridiagonal), m


@pytest.mark.parametrize("d", [2000, 2001])
def test_jacobi_roots_symmetric_large_degree(d):
    roots = jacobi_roots(JacobiParams(3.5, 3.5, d))
    assert np.max(np.abs(roots - _full_eigensolve(3.5, 3.5, d))) <= 1e-13
    assert np.array_equal(roots, -roots[::-1])
    assert (0.0 in roots) == bool(d % 2)


@pytest.mark.parametrize(
    "alpha, beta_", [(0.0, 0.0), (3.5, 3.5), (1.5, -0.5), (-0.5, -0.5), (-0.3, -0.7)]
)
def test_one_pass_derivative_matches_jacobi_deriv(alpha, beta_):
    # the Newton step of one scaled recurrence pass, as every Newton step takes
    # it, against P / P' with the shifted-parameter P'. On a grid the bound is
    # what errors of 1e-12 max|P| in P and 1e-12 max|P'| in P' would move P/P'
    # by; at the roots, where the step is the Newton correction, it is 1e-12
    # of the gap to the nearest neighbour
    t = np.linspace(-0.95, 0.95, 191)
    for d in (1, 2, 5, 20, 100):
        p = JacobiParams(alpha, beta_, d)
        value, deriv = jacobi_eval(p, t), _shifted_deriv(alpha, beta_, d, t)
        expect = value / deriv
        bound = 1e-12 * (np.max(np.abs(value)) + np.abs(expect) * np.max(np.abs(deriv)))
        bound /= np.abs(deriv)
        assert np.all(np.abs(_newton_step(alpha, beta_, d, t) - expect) <= bound), d
        roots = jacobi_roots(p)
        expect = jacobi_eval(p, roots) / _shifted_deriv(alpha, beta_, d, roots)
        gap = np.diff(np.concatenate(([-1.0], roots, [1.0])))
        spacing = np.minimum(gap[1:], gap[:-1])
        assert np.all(np.abs(_newton_step(alpha, beta_, d, roots) - expect) <= 1e-12 * spacing), d


def test_newton_step_is_not_finite_where_p_prime_is_not():
    # t = +-1, where the identity for P' gives none, and an overflowing P'
    with np.errstate(invalid="ignore"):  # P' there comes from 0/0
        step = _newton_step(0.5, 1.5, 6, np.array([-1.0, 0.0, 1.0]))
    assert np.isnan(step[0]) and np.isfinite(step[1]) and np.isnan(step[2])
    with np.errstate(over="ignore", invalid="ignore"):
        step = _newton_step(400.0, 400.0, 5000, np.array([0.999]))
    assert np.isnan(step[0])


@pytest.mark.parametrize("t", [0.0, -0.0, 1.0, -0.4, GRID])
def test_rows_bit_identical_to_single_degree(t):
    # one recurrence pass (jacobi_rows) and one batched Horner pass
    # (legendre_nd_rows) give each degree's values exactly as its own call
    for a, b in ((0.0, 0.0), (0.5, -0.5), (1.5, 0.5), (2.5, 2.5), (-0.5, -0.5)):
        rows = jacobi_rows(a, b, 40, t)
        assert rows.shape == (41,) + np.shape(t)
        for d in range(41):
            single = jacobi_eval(JacobiParams(a, b, d), t)
            assert np.array_equal(np.asarray(rows[d]).view(np.uint64), np.asarray(single).view(np.uint64))
    for n in range(2, 9):
        rows = legendre_nd_rows(n, 70, t)
        for d in range(71):
            single = legendre_nd_eval(n, d, t)
            assert np.array_equal(np.asarray(rows[d]).view(np.uint64), np.asarray(single).view(np.uint64))


def _allocating_rows(alpha, beta_, d_max, t):
    """P_0..P_{d_max} with one new array per operation, as the recurrence ran
    before it stepped in place."""
    p_prev, p = np.zeros_like(t), np.ones_like(t)
    rows = [p]
    if d_max >= 1:
        p_prev, p = p, 0.5 * (alpha + beta_ + 2.0) * t + 0.5 * (alpha - beta_)
        rows.append(p)
    ab = alpha + beta_
    for k in range(2, d_max + 1):
        c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c2 = (2.0 * k + ab - 1.0) * (alpha * alpha - beta_ * beta_)
        c3 = (2.0 * k + ab - 1.0) * (2.0 * k + ab) * (2.0 * k + ab - 2.0)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta_ - 1.0) * (2.0 * k + ab)
        p, p_prev = ((c2 + c3 * t) * p - c4 * p_prev) / c1, p
        rows.append(p)
    return np.array(rows)


@pytest.mark.parametrize("alpha, beta_", [(0.0, 0.0), (0.5, -0.5), (1.0, 0.0), (9.5, 8.5), (24.5, 0.5), (-0.5, 3.0)])
def test_in_place_recurrence_bit_identical_to_allocating(alpha, beta_):
    # the coefficient lists from numpy and the rotating buffers round exactly
    # as the per-degree Python floats and fresh arrays did
    for d_max in (0, 1, 2, 300):
        expect = _allocating_rows(alpha, beta_, d_max, GRID)
        assert np.array_equal(jacobi_rows(alpha, beta_, d_max, GRID).view(np.uint64), expect.view(np.uint64))
    single = jacobi_eval(JacobiParams(alpha, beta_, 300), 0.3)
    assert single == _allocating_rows(alpha, beta_, 300, np.float64(0.3))[-1]


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.0, 2.5, 9.5, 24.5])
def test_bessel_zeros_against_mpmath(a):
    count = min(20 + math.ceil(4 * a), 40)
    zeros = _bessel_zeros(a, count)
    for k, z in enumerate(zeros, start=1):
        # J_{-1/2}(x) is a multiple of cos(x)/sqrt(x)
        ref = (k - 0.5) * math.pi if a == -0.5 else float(mp.besseljzero(a, k))
        assert abs(z / ref - 1.0) <= 4e-15, (a, k)


def _half_rows(alpha, beta_, rows):
    """(a, b, d) of the polynomial whose eigenproblem has `rows` rows."""
    return (alpha, beta_, 2 * rows) if alpha == beta_ else (alpha, beta_, rows)


def _unfold(one_plus_y, d):
    """+-sqrt((1+y)/2), plus 0 for odd d: the roots of P_d^{(a,a)} from its half problem."""
    pos = np.sqrt(0.5 * np.clip(one_plus_y, 0.0, 2.0))
    return np.concatenate((-pos[::-1], [0.0] if d % 2 else [], pos))


def _eigenvalue_roots(a, b, d):
    """The recurrence matrix's eigenvalues, unfolded for a = b: jacobi_roots' fallback."""
    if a == b and d >= 2:
        return _unfold(1.0 + _recurrence_eigenvalues(a, 0.5 if d % 2 else -0.5, d // 2), d)
    return _recurrence_eigenvalues(a, b, d)


def _polished_eigenvalue_roots(a, b, d):
    """The eigenvalues with one Newton step each, on the half problem for a = b."""
    half = a == b and d >= 2
    b_rows, rows = ((0.5 if d % 2 else -0.5), d // 2) if half else (b, d)
    y = _recurrence_eigenvalues(a, b_rows, rows)
    step = _newton_step(a, b_rows, rows, y)
    return _unfold((1.0 + y) - step, d) if half else y - step


def _fail(*args):
    raise AssertionError(f"fell back to the eigensolve at {args}")


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 4, 5, 10, 20, 50, 104, 150, 400])
def test_kernel_roots_newton_route_accuracy(monkeypatch, family, n):
    # every root within 1e-9 of the gap to its nearest neighbour of the
    # polished eigenvalues, at every row count where the Newton route is
    # eligible (20 + 4 max(a, b) <= rows/4); jacobi_roots must not fall back.
    # n = 400 (a ~ 200) at 3600 rows is where P itself overflows near +1,
    # and the scaled recurrence of the Newton steps does not
    monkeypatch.setattr(orthopoly, "_recurrence_eigenvalues", _fail)
    row_counts = (3600,) if n == 400 else (_NEWTON_MIN_ROWS, 800, 1600, 3000)
    alpha = FAMILY_TABLE[family].jacobi(n)[0]  # a >= b in every family
    eligible = [rows for rows in row_counts if 20 + 4 * alpha <= rows / 4]
    assert eligible
    for rows in eligible:
        a, b, d = _half_rows(*FAMILY_TABLE[family].jacobi(n), rows)
        roots = jacobi_roots(JacobiParams(a, b, d))
        ref = _polished_eigenvalue_roots(a, b, d)
        gap = np.diff(ref)
        spacing = np.minimum(np.append(gap, np.inf), np.insert(gap, 0, np.inf))
        assert np.max(np.abs(roots - ref) / spacing) <= 1e-9, rows


def _bit_identical(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("family", list(Family))
def test_kernel_roots_fallbacks_are_the_eigenvalues(monkeypatch, family):
    # below the crossover the eigenproblem is solved as before
    a, b, d = _half_rows(*FAMILY_TABLE[family].jacobi(3), _NEWTON_MIN_ROWS - 1)
    assert _bit_identical(jacobi_roots(JacobiParams(a, b, d)), _eigenvalue_roots(a, b, d))
    # at huge n the edge roots are too many for the asymptotic guesses
    a, b, d = _half_rows(*FAMILY_TABLE[family].jacobi(10**6), 1600)
    assert _bit_identical(jacobi_roots(JacobiParams(a, b, d)), _eigenvalue_roots(a, b, d))
    # at n = 700 (a ~ 350), 5000 rows hold too many edge roots as well
    a, b, d = _half_rows(*FAMILY_TABLE[family].jacobi(700), 5000)
    assert _bit_identical(jacobi_roots(JacobiParams(a, b, d)), _eigenvalue_roots(a, b, d))


def _shift_all(x):
    # each guess onto its neighbour's, the last halfway to +1
    return np.append(x[1:], 0.5 * (1.0 + x[-1]))


def _duplicate_one(x):
    # the middle guess onto its neighbour's: both settle on one root, every
    # step is tiny, and only the strict increase fails
    x = x.copy()
    x[len(x) // 2] = x[len(x) // 2 + 1]
    return x


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("perturb", [_shift_all, _duplicate_one])
def test_kernel_roots_bad_guesses_fall_back(monkeypatch, family, perturb):
    guesses = orthopoly._root_guesses
    monkeypatch.setattr(orthopoly, "_root_guesses", lambda *args: perturb(guesses(*args)))
    a, b, d = _half_rows(*FAMILY_TABLE[family].jacobi(4), 1600)
    assert _bit_identical(jacobi_roots(JacobiParams(a, b, d)), _eigenvalue_roots(a, b, d))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n, d", [(10**17, 2), (10**17, 8), (10**20, 40)])
def test_jacobi_roots_raise_on_a_collapsed_root_set(family, n, d):
    # from n ~ 1e17 on the eigenvalue nearest -1 rounds to -1 (or the
    # eigenproblem overflows), and no root set is returned
    with pytest.raises(ConvergenceError):
        jacobi_roots(JacobiParams(*FAMILY_TABLE[family].jacobi(n), d))
