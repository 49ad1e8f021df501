import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from projconst.geometry import Family, SpaceId, dim_space
from projconst.kernels import kernel_axial_closed, kernel_axial_sum

GRID = np.linspace(-1.0, 1.0, 401)


def _spaces(n_range, d_range):
    for family in Family:
        for n in n_range:
            for d in d_range:
                if family is Family.HOMOGENEOUS and d == 0:
                    continue
                yield SpaceId(family, n, d)


def test_kernel_diagonal_is_dimension():
    for space in _spaces(range(2, 6), range(0, 16)):
        dim = dim_space(space)
        for fn in (kernel_axial_sum, kernel_axial_closed):
            assert fn(space, 1.0) == pytest.approx(dim, rel=1e-10), (space, fn)


def test_kernel_scalar_and_array_agree():
    space = SpaceId(Family.POLY_LEQ, 3, 4)
    vals = kernel_axial_closed(space, GRID)
    assert isinstance(kernel_axial_closed(space, 0.3), float)
    assert kernel_axial_closed(space, float(GRID[17])) == pytest.approx(
        float(vals[17]), rel=1e-13
    )


def test_kernel_harmonic_small_closed_values():
    # H_2 on S^2: k(t) = 5 P_2(t) = 5 (3t^2-1)/2
    space = SpaceId(Family.HARMONIC, 3, 2)
    expect = 5.0 * (3 * GRID**2 - 1) / 2
    assert np.allclose(kernel_axial_sum(space, GRID), expect, atol=1e-10)
    assert np.allclose(kernel_axial_closed(space, GRID), expect, atol=1e-10)


def test_kernel_polyleq_small_sum_values():
    # P_{<=1} on S^2: 1 + 3t
    space = SpaceId(Family.POLY_LEQ, 3, 1)
    assert np.allclose(kernel_axial_sum(space, GRID), 1 + 3 * GRID, atol=1e-12)
    assert np.allclose(kernel_axial_closed(space, GRID), 1 + 3 * GRID, atol=1e-11)


def test_kernel_n2_trig_forms():
    theta = np.linspace(0.0, math.pi, 301)
    t = np.cos(theta)
    d = 5
    harm = kernel_axial_closed(SpaceId(Family.HARMONIC, 2, d), t)
    assert np.allclose(harm, 2 * np.cos(d * theta), atol=1e-10)
    full = kernel_axial_closed(SpaceId(Family.POLY_LEQ, 2, d), t)
    expect = np.where(
        np.sin(theta / 2) != 0,
        np.sin((d + 0.5) * theta) / np.where(np.sin(theta / 2) != 0, np.sin(theta / 2), 1.0),
        2 * d + 1,
    )
    assert np.allclose(full, expect, atol=1e-9)


def test_kernel_endpoint_minus_one_homogeneous():
    # t = -1 limit of sin((d+1)theta)/sin(theta) is (d+1)(-1)^d; from d = 18 on,
    # theta = arccos(-1) rounds to a float whose sine (1.2e-16) is not 0
    for d in (1, 2, 3, 4, 18, 40, 101):
        space = SpaceId(Family.HOMOGENEOUS, 2, d)
        for fn in (kernel_axial_sum, kernel_axial_closed):
            assert fn(space, -1.0) == pytest.approx((d + 1) * (-1.0) ** d, rel=1e-12), (d, fn)


def test_kernel_sum_closed_agreement():
    rng = np.random.default_rng(11)
    t = rng.uniform(-1.0, 1.0, size=500)
    for space in _spaces(range(2, 12), (0, 1, 2, 5, 9, 14, 20, 30)):
        dim = dim_space(space)
        a = kernel_axial_sum(space, t)
        b = kernel_axial_closed(space, t)
        assert np.max(np.abs(a - b)) <= 1e-9 * dim, space


def test_kernel_parity():
    # harmonic and homogeneous kernels have the parity of d
    t = np.linspace(0.05, 0.95, 50)
    for family in (Family.HARMONIC, Family.HOMOGENEOUS):
        for n in (2, 3, 4):
            for d in (1, 2, 3, 6):
                space = SpaceId(family, n, d)
                left = kernel_axial_closed(space, -t)
                right = (-1.0) ** d * kernel_axial_closed(space, t)
                assert np.allclose(left, right, atol=1e-9 * dim_space(space)), space


def test_kernel_l2_norm_is_sqrt_dim():
    from projconst.kernels import kernel_l2_norm

    for space in _spaces(range(2, 6), (0, 1, 3, 7, 12)):
        res = kernel_l2_norm(space)
        assert res.value == pytest.approx(math.sqrt(dim_space(space)), rel=1e-9), space


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_kernel_l2_norm_large_degree_against_exact_dim(family, n):
    from projconst.kernels import kernel_l2_norm

    space = SpaceId(family, n, 1600)
    res = kernel_l2_norm(space)
    exact = mp.sqrt(dim_space(space))
    err = abs(mp.mpf(res.value) - exact)
    assert err <= 1e-10 * exact, space
    assert err <= res.abs_err, space


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(Family)),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_kernel_bounded_by_diagonal(family, n, d, t):
    # |k(t)| <= k(1) = dim (positive-definiteness of the reproducing kernel)
    space = SpaceId(family, n, d)
    dim = dim_space(space)
    assert abs(kernel_axial_closed(space, t)) <= dim * (1 + 1e-10)
