import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from projconst.errors import DomainError
from projconst.gammafn import beta, duplication_residual, gamma_ratio, log_gamma
from projconst.geometry import axial_constant


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
    assert gamma_ratio((4.5,), (3.5,)) == pytest.approx(3.5, rel=1e-14)


def test_gamma_ratio_large_argument_asymptotic():
    # Gamma(d+n)/Gamma(d+(n+1)/2) ~ d^{(n-1)/2} for n=3, d=1e6
    d, n = 10**6, 3
    ratio = gamma_ratio((d + float(n),), (d + (n + 1) / 2.0,))
    assert ratio / d ** ((n - 1) / 2.0) == pytest.approx(1.0, abs=1e-5)


def test_gamma_ratio_complex_projection_value():
    # n=2, d=2: Gamma(4)Gamma(2)/(Gamma(3)Gamma(3)) = 6/4
    assert gamma_ratio((4.0, 2.0), (3.0, 3.0)) == pytest.approx(1.5, rel=1e-13)


def test_gamma_ratio_rounded_offset_sweep():
    # a = x + m rounded: the offset is m only up to that rounding, which the
    # psi correction has to undo at every scale, near psi's zero included
    rng = random.Random(20261019)
    xs = [10.0 ** rng.uniform(-6.0, 7.0) for _ in range(400)] + [1.4616321449683622, 63.45810509907083]
    with mp.workdps(40):
        for x in xs:
            for m in (0, 1, 2, 7):
                a = x + m
                exact = mp.gamma(mp.mpf(a)) / mp.gamma(mp.mpf(x))
                got = gamma_ratio((a,), (x,))
                assert abs(got - exact) <= (m + 2) * 2.3e-16 * exact, (x, m)
                inverse = gamma_ratio((x,), (a,))
                assert abs(inverse * exact - 1) <= (m + 2) * 2.3e-16, (x, m)


def _log_gamma_rounding(x: float) -> float:
    """The relative error that one rounded log-gamma difference at x allows."""
    return 8 * sys.float_info.epsilon * math.lgamma(x)


def test_gamma_ratio_half_integer_offset_at_large_argument():
    # a relative near-integer threshold once took this offset of 1/2 for an
    # integer, multiplied by 1 + psi / 2, and returned 14.56
    x = 6e11
    got = gamma_ratio((x + 0.5,), (x,))
    with mp.workdps(40):
        exact = mp.gamma(mp.mpf(x) + mp.mpf(0.5)) / mp.gamma(mp.mpf(x))
    assert abs(got - exact) <= _log_gamma_rounding(x + 0.5) * exact


@pytest.mark.parametrize("n", [10**12, 10**12 + 1, 10**13 + 1])
def test_axial_constant_at_large_n(n):
    got = axial_constant(n)
    with mp.workdps(40):
        exact = mp.gamma(mp.mpf(n) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - 1) / 2))
    assert abs(got - exact) <= _log_gamma_rounding(n / 2.0) * exact


def test_gamma_ratio_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma_ratio((1.0,), (0.0,))
    with pytest.raises(DomainError):
        gamma_ratio((-2.5, 1.0), (1.0,))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=100.0, allow_nan=False))
def test_gamma_ratio_recurrence_property(x):
    assert gamma_ratio((x + 1.0,), (x,)) == pytest.approx(x, rel=1e-13)


def test_gamma_ratio_near_integer_offset():
    # (x + 1) - x rounds to 0.9999999999999929 here; a log-gamma difference
    # gave a relative error of 1.06e-13 (`verify --seed 924406` failed on it)
    x = 63.45810509907083
    a = x + 1.0
    assert a - x != 1.0
    got = gamma_ratio((a,), (x,))
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
