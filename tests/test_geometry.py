import math
import sys
from fractions import Fraction

import pytest
from mpmath import mp
from hypothesis import given, settings
from hypothesis import strategies as st

from projconst.errors import DomainError
from projconst.geometry import (
    FAMILY_TABLE,
    Family,
    SpaceId,
    axial_constant,
    dim_space,
    harmonic_dim,
    kernel_scale,
    monomial_moment,
    monomial_moment_exact,
    surface_area,
)


def test_surface_area_values():
    assert surface_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert surface_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert surface_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_harmonic_dim_values():
    assert harmonic_dim(3, 0) == 1
    assert harmonic_dim(3, 1) == 3
    assert harmonic_dim(3, 2) == 5
    assert harmonic_dim(3, 7) == 15
    assert harmonic_dim(2, 5) == 2
    assert harmonic_dim(4, 3) == 16


def test_dim_space_values():
    assert dim_space(SpaceId(Family.HOMOGENEOUS, 3, 2)) == 6
    assert dim_space(SpaceId(Family.POLY_LEQ, 3, 2)) == 9
    assert dim_space(SpaceId(Family.POLY_LEQ, 2, 4)) == 9
    assert dim_space(SpaceId(Family.HARMONIC, 5, 2)) == 14


def test_dim_space_huge_exact():
    # Python integers: no overflow at large n, d
    val = dim_space(SpaceId(Family.HOMOGENEOUS, 100, 100))
    assert val == math.comb(199, 100)
    assert val > 10**58


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=60))
def test_dim_split_identities(n, d):
    homo = dim_space(SpaceId(Family.HOMOGENEOUS, n, d))
    homo_minus2 = dim_space(SpaceId(Family.HOMOGENEOUS, n, d - 2))
    assert homo == harmonic_dim(n, d) + homo_minus2
    total = dim_space(SpaceId(Family.POLY_LEQ, n, d))
    assert total == sum(harmonic_dim(n, k) for k in range(d + 1))


def test_family_table_degrees_span_the_space():
    for family, spec in FAMILY_TABLE.items():
        for n in range(2, 9):
            for d in range(spec.min_d, 25):
                degrees = spec.degrees(d)
                assert max(degrees) == d
                assert sum(harmonic_dim(n, k) for k in degrees) == dim_space(SpaceId(family, n, d))


def test_axial_constant_values():
    assert axial_constant(3) == pytest.approx(0.5, rel=1e-14)
    assert axial_constant(2) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert axial_constant(4) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_axial_constant_normalizes_weight():
    # c_n * int (1-t^2)^{(n-3)/2} dt = 1
    from projconst.quadrature import weight_mass

    for n in range(2, 12):
        gamma = (n - 3) / 2.0
        assert axial_constant(n) * weight_mass(gamma, gamma) == pytest.approx(
            1.0, rel=1e-13
        )


def test_monomial_moment_exact_values():
    assert monomial_moment_exact(3, (0, 0, 0)) == 1
    assert monomial_moment_exact(3, (2, 0, 0)) == Fraction(1, 3)
    assert monomial_moment_exact(3, (1, 1, 0)) == 0
    assert monomial_moment_exact(3, (2, 2, 0)) == Fraction(1, 15)
    assert monomial_moment_exact(3, (4, 0, 0)) == Fraction(1, 5)
    assert monomial_moment_exact(2, (2, 0)) == Fraction(1, 2)
    assert monomial_moment_exact(4, (2, 0, 0, 0)) == Fraction(1, 4)


def test_monomial_moment_trace_identity():
    # sum_i <x_i^2> = 1 on the unit sphere
    for n in range(2, 8):
        total = sum(
            monomial_moment_exact(n, tuple(2 if j == i else 0 for j in range(n)))
            for i in range(n)
        )
        assert total == 1


def test_monomial_moment_float_matches_exact():
    for idx in ((2, 0, 0), (2, 2, 0), (4, 2, 0), (6, 4, 2)):
        assert monomial_moment(3, idx) == pytest.approx(
            float(monomial_moment_exact(3, idx)), rel=1e-13
        )


def test_monomial_moment_large_degree_stable():
    # <x_1^200> on S^2: exact product form vs log-gamma path
    exact = float(monomial_moment_exact(3, (200, 0, 0)))
    assert monomial_moment(3, (200, 0, 0)) == pytest.approx(exact, rel=1e-11)


def test_domain_errors():
    with pytest.raises(DomainError):
        surface_area(1)
    with pytest.raises(DomainError):
        SpaceId(Family.HARMONIC, 1, 2)
    with pytest.raises(DomainError):
        SpaceId(Family.HARMONIC, 3, -1)
    with pytest.raises(DomainError):
        monomial_moment_exact(3, (2, 0))
    with pytest.raises(DomainError):
        monomial_moment_exact(2, (-2, 0))


@pytest.mark.parametrize("family", list(Family))
def test_kernel_scale_beyond_float_dim(family):
    # dim exceeds the float range (about 1.8e308); dim / P(1) does not
    space = SpaceId(family, 520, 560)
    assert space.dim > int(sys.float_info.max)
    a = FAMILY_TABLE[family].jacobi(space.n)[0]
    with mp.workdps(30):
        expect = mp.mpf(space.dim) / mp.binomial(space.d + a, space.d)
    assert kernel_scale(space) == pytest.approx(float(expect), rel=1e-12)
