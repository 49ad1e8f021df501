import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from projconst import kernels, verify
from projconst.cli import main
from projconst.geometry import FAMILY_TABLE, Family, SpaceId, dim_space, harmonic_dim, kernel_scale
from projconst.kernels import (
    kernel_axial_closed,
    kernel_axial_sum,
    kernel_closed_rows,
    kernel_l2_norm,
    kernel_sum_rows,
)
from projconst.orthopoly import legendre_nd_coeffs, legendre_nd_eval, legendre_nd_rows

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
    # with t = cos(theta): 2 cos(d theta) (1 at d = 0), sin((d+1) theta)/sin(theta)
    # and the Dirichlet kernel sin((d+1/2) theta)/sin(theta/2); at theta = 0
    # and pi the limits are given apart, since sin(pi) rounds to 1.2e-16, not 0
    theta = np.linspace(0.0, math.pi, 301)
    inner = theta[1:-1]
    for d in (0, 1, 5, 40, 400):
        sign = (-1.0) ** d
        forms = {
            Family.HARMONIC: (2 * np.cos(d * inner) if d else np.ones_like(inner), 2 * sign if d else 1.0),
            Family.HOMOGENEOUS: (np.sin((d + 1) * inner) / np.sin(inner), (d + 1) * sign),
            Family.POLY_LEQ: (np.sin((d + 0.5) * inner) / np.sin(inner / 2), sign),
        }
        for family, (interior, at_minus_one) in forms.items():
            space = SpaceId(family, 2, d)
            dim = dim_space(space)
            expect = np.concatenate(([dim], interior, [at_minus_one]))
            err = np.max(np.abs(kernel_axial_closed(space, np.cos(theta)) - expect))
            assert err <= 1e-10 * dim, (space, err)


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


def test_kernel_l2_norm_where_the_weight_mass_overflows_as_a_product():
    # the Gauss rule's weight (a, a) = (750, 750) has 2^(2a+1) out of float range
    space = SpaceId(Family.HARMONIC, 1503, 2)
    res = kernel_l2_norm(space)
    assert abs(mp.mpf(res.value) - mp.sqrt(dim_space(space))) <= res.abs_err


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


# Reference forms with nothing shared between degrees: one Horner pass per
# degree and one Kahan chain per space (_reference_axial_sum), and P_d from
# its own recurrence pass (_reference_axial_closed). The row routines and the
# single-space calls must agree with them bit for bit.
def _reference_profile(n, d, t, t_sq, one_minus):
    coeffs = legendre_nd_coeffs(n, d)
    acc = np.full_like(t, coeffs[0])
    power = np.ones_like(t)
    for b in coeffs[1:]:
        power *= one_minus
        acc *= t_sq
        acc += b * power
    return acc * t if d % 2 else acc


def _reference_axial_sum(space, t):
    arr = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    t_sq = arr * arr
    one_minus = 1.0 - t_sq
    total = np.zeros_like(arr)
    comp = np.zeros_like(arr)
    for j in FAMILY_TABLE[space.family].degrees(space.d):
        term = harmonic_dim(space.n, j) * _reference_profile(space.n, j, arr, t_sq, one_minus)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return float(total) if np.ndim(t) == 0 else total


def _reference_jacobi(alpha, beta, degree, t):
    if degree == 0:
        return np.ones_like(t)
    p_prev = np.ones_like(t)
    p = 0.5 * (alpha + beta + 2.0) * t + 0.5 * (alpha - beta)
    ab = alpha + beta
    for k in range(2, degree + 1):
        c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c2 = (2.0 * k + ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * k + ab - 1.0) * (2.0 * k + ab) * (2.0 * k + ab - 2.0)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + ab)
        p, p_prev = ((c2 + c3 * t) * p - c4 * p_prev) / c1, p
    return p


def _reference_axial_closed(space, t):
    a, b = FAMILY_TABLE[space.family].jacobi(space.n)
    out = kernel_scale(space) * _reference_jacobi(a, b, space.d, np.clip(np.asarray(t, dtype=float), -1.0, 1.0))
    return float(out) if np.ndim(t) == 0 else out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


_SCALARS = (1.0, -1.0, 0.0, -0.0, 0.3, -0.7)
_POINTS = np.concatenate(([-1.0, -0.0, 0.0, 1.0, 0.5, -0.5], np.random.default_rng(8).uniform(-1.0, 1.0, 994)))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", range(2, 7))
def test_kernel_rows_bit_identical_to_single_space(family, n):
    d_max = 30
    zeros = 0
    for t in (*_SCALARS, _POINTS):
        sums = kernel_sum_rows(family, n, d_max, t)
        closed = kernel_closed_rows(family, n, d_max, t)
        assert sums.shape == closed.shape == (d_max + 1,) + np.shape(t)
        for d in range(d_max + 1):
            space = SpaceId(family, n, d)
            for got, single, reference in (
                (sums[d], kernel_axial_sum(space, t), _reference_axial_sum(space, t)),
                (closed[d], kernel_axial_closed(space, t), _reference_axial_closed(space, t)),
            ):
                assert np.array_equal(_bits(got), _bits(single)), (space, t)
                assert np.array_equal(_bits(single), _bits(reference)), (space, t)
        zeros += np.count_nonzero(np.signbit(closed) & (closed == 0.0))
    if family is not Family.POLY_LEQ and n >= 3:
        assert zeros, "the grid must reach -0.0, or the sign bit is not under test"


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 4])
def test_kernel_rows_bit_identical_across_blocks(family, n):
    # d = 200 spans four blocks of profile rows; the sum form has long lost all
    # accuracy there, but its rounding must still be that of the single space
    d_max = 200
    t = np.linspace(-1.0, 1.0, 41)
    sums = kernel_sum_rows(family, n, d_max, t)
    for d in (63, 64, 65, 127, 128, 199, 200):
        space = SpaceId(family, n, d)
        reference = _reference_axial_sum(space, t)
        assert np.array_equal(_bits(kernel_axial_sum(space, t)), _bits(reference)), space
        assert np.array_equal(_bits(sums[d]), _bits(reference)), space
    profiles = legendre_nd_rows(n, d_max, t)
    for d in range(d_max + 1):
        reference = _reference_profile(n, d, t, t * t, 1.0 - t * t)
        assert np.array_equal(_bits(profiles[d]), _bits(reference)), d
        assert np.array_equal(_bits(legendre_nd_eval(n, d, t)), _bits(reference)), d


def _reference_check_kernels(seed, quick):
    # verify._check_kernels with one single-space call per (family, n, d)
    failures = []
    rng = np.random.default_rng(seed + 2)
    n_max = 4 if quick else 6
    d_max = 10 if quick else 30
    ts = rng.uniform(-1, 1, 100 if quick else 1000)
    for family in Family:
        for n in range(2, n_max + 1):
            for d in range(0, d_max + 1):
                space = SpaceId(family, n, d)
                dim = dim_space(space)
                for form, k1 in (("sum", kernel_axial_sum(space, 1.0)),
                                 ("closed", kernel_axial_closed(space, 1.0))):
                    if abs(k1 - dim) > 1e-10 * dim:
                        failures.append(verify._fail(f"kernels.diag[{family.value},{n},{d},{form}]", dim, k1, 1e-10))
                if n >= 3:
                    diff = float(np.max(np.abs(
                        kernel_axial_sum(space, ts) - kernel_axial_closed(space, ts)
                    )))
                    if diff > 1e-9 * dim:
                        failures.append(verify._fail(f"kernels.sum_closed[{family.value},{n},{d}]", 0.0, diff, 1e-9 * dim))
    for family in Family:
        for n in range(2, n_max + 1):
            for d in (0, 3, d_max):
                space = SpaceId(family, n, d)
                got = kernel_l2_norm(space).value
                expected = math.sqrt(dim_space(space))
                if abs(got - expected) > 1e-8 * expected:
                    failures.append(verify._fail(f"kernels.l2[{family.value},{n},{d}]", expected, got, 1e-8))
    return failures


def _scaled_kernel_scale(space):
    return kernel_scale(space) * (1 + 1e-8)


def _harmonic_dim_off_at_3(n, d):
    return harmonic_dim(n, d) + (d == 3)


@pytest.mark.parametrize("faults", [
    {"kernel_scale": _scaled_kernel_scale},
    {"harmonic_dim": _harmonic_dim_off_at_3},
    {"kernel_scale": _scaled_kernel_scale, "harmonic_dim": _harmonic_dim_off_at_3},
], ids=["scale", "dim", "both"])
@pytest.mark.parametrize("quick", [True, False])
def test_check_kernels_failures_match_single_space_loop(monkeypatch, faults, quick):
    for name, fault in faults.items():
        monkeypatch.setattr(kernels, name, fault)
    got = verify._check_kernels(7, quick)
    assert got, "the injected fault must surface"
    assert got == _reference_check_kernels(7, quick)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("d", [0, 1, 9, 30, 500])
def test_kernel_cli_output_unchanged(capsys, family, d):
    # byte for byte the CSV of the reference forms
    assert main(["kernel", "--family", family.value, "--n", "3", "--d", str(d), "--samples", "101"]) == 0
    out = capsys.readouterr().out
    ts = np.linspace(-1.0, 1.0, 101)
    space = SpaceId(family, 3, d)
    rows = zip(ts, _reference_axial_sum(space, ts), _reference_axial_closed(space, ts))
    expected = "t,k_sum,k_closed\n" + "".join(
        f"{float(t)!r},{float(a)!r},{float(b)!r}\n" for t, a, b in rows
    )
    assert out == expected


def test_kernel_sum_memory_bounded_in_d():
    # profiles are built in blocks of 64 degrees and nothing is cached: the
    # peak is about 0.4 MB here, where one (d+1) x (d/2+1) coefficient matrix
    # reached 2.5 MB and a cache of every degree's coefficients 2.9 MB
    space = SpaceId(Family.POLY_LEQ, 3, 600)
    t = np.linspace(-1.0, 1.0, 101)
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            kernel_axial_sum(space, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak


def test_kernel_sum_memory_bounded_in_points():
    # at many points a block takes fewer rows: the peak is about 3 MB here,
    # where blocks of 64 rows of 20 000 points reached 23 MB
    space = SpaceId(Family.POLY_LEQ, 3, 100)
    t = np.linspace(-1.0, 1.0, 20_000)
    expected = _reference_axial_sum(space, t)
    tracemalloc.start()
    try:
        got = kernel_axial_sum(space, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(_bits(got), _bits(expected))
    assert peak <= 4 * 2**20, peak
