import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from projconst.errors import DomainError
from projconst.gammafn import (
    GammaRatioSpec,
    _digamma,
    beta,
    duplication_residual,
    gamma_ratio,
    log_gamma,
)


def test_log_gamma_trivial_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.2)


def test_gamma_ratio_recurrence_at_3_5():
    spec = GammaRatioSpec((4.5,), (3.5,))
    assert gamma_ratio(spec) == pytest.approx(3.5, rel=1e-14)


def test_gamma_ratio_large_argument_asymptotic():
    # Gamma(d+n)/Gamma(d+(n+1)/2) ~ d^{(n-1)/2} for n=3, d=1e6
    d, n = 10**6, 3
    ratio = gamma_ratio(GammaRatioSpec((d + float(n),), (d + (n + 1) / 2.0,)))
    assert ratio / d ** ((n - 1) / 2.0) == pytest.approx(1.0, abs=1e-5)


def test_gamma_ratio_complex_projection_value():
    # n=2, d=2: Gamma(4)Gamma(2)/(Gamma(3)Gamma(3)) = 6/4
    spec = GammaRatioSpec((4.0, 2.0), (3.0, 3.0))
    assert gamma_ratio(spec) == pytest.approx(1.5, rel=1e-13)


def test_digamma_matches_mpmath():
    # x spans the shift (x < 10), psi's zero near 1.4616 and the bare series
    xs = [10.0 ** (k / 20.0) for k in range(-120, 141)]
    xs += [1.0 + k / 200.0 for k in range(2001)] + [1.4616321449683622, 9.999999999999998, 10.0]
    for x in xs:
        expected = mp.digamma(x)
        assert abs(_digamma(x) - expected) <= 1e-15 * max(1.0, abs(expected)), x


def test_gamma_ratio_rejects_nonpositive():
    with pytest.raises(DomainError):
        GammaRatioSpec((1.0,), (0.0,))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=100.0, allow_nan=False))
def test_gamma_ratio_recurrence_property(x):
    assert gamma_ratio(GammaRatioSpec((x + 1.0,), (x,))) == pytest.approx(x, rel=1e-13)


def test_gamma_ratio_near_integer_offset():
    # (x + 1) - x rounds to 0.9999999999999929 here; a log-gamma difference
    # gave a relative error of 1.06e-13 (`verify --seed 924406` failed on it)
    x = 63.45810509907083
    a = x + 1.0
    assert a - x != 1.0
    got = gamma_ratio(GammaRatioSpec((a,), (x,)))
    assert got == pytest.approx(x, rel=1e-13)
    with mp.workdps(40):
        exact = float(mp.gamma(mp.mpf(a)) / mp.gamma(mp.mpf(x)))
    assert got == pytest.approx(exact, rel=1e-15)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
    expected = math.exp(2 * math.lgamma(0.75) - math.lgamma(1.5))
    assert beta(0.75, 0.75) == pytest.approx(expected, rel=1e-14)
    assert beta(0.75, 0.75) == pytest.approx(1.694426, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=1e-3, max_value=50.0),
)
def test_beta_symmetric_evaluation(a, b):
    assert beta(a, b) == beta(b, a)  # bitwise, by construction


def test_duplication_residual_examples():
    assert duplication_residual(1.0) < 1e-14
    assert duplication_residual(0.75) < 1e-13
    assert duplication_residual(50.0) < 1e-12


def test_duplication_residual_log_grid():
    x = 1e-2
    while x <= 1e6:
        assert duplication_residual(x) < 1e-12, x
        x *= 3.1
