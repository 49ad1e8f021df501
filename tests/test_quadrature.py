import json
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.special import betainc

from projconst.constants import lambda_homogeneous, lambda_poly_leq
from projconst.errors import DomainError
from projconst.geometry import FAMILY_TABLE, Family, SpaceId, axial_constant
from projconst.orthopoly import JacobiParams, jacobi_roots
from projconst.quadrature import (
    _ARCH_SUM_ROUNDING,
    _CHUNK,
    _exact_sum,
    _gegenbauer_series,
    dirichlet_lebesgue,
    gauss_jacobi_rule,
    integrate_abs_jacobi,
    integrate_abs_kernel,
    weight_mass,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_rule_order_one_plain():
    rule = gauss_jacobi_rule(0.0, 0.0, 1)
    assert np.allclose(rule.nodes, [0.0], atol=1e-15)
    assert np.allclose(rule.weights, [2.0], atol=1e-14)


def test_rule_exactness_plain():
    rule = gauss_jacobi_rule(0.0, 0.0, 6)
    for k in range(0, 12):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert np.dot(rule.weights, rule.nodes**k) == pytest.approx(exact, abs=1e-13)


def test_rule_semicircle_mass():
    rule = gauss_jacobi_rule(0.5, 0.5, 8)
    assert np.dot(rule.weights, np.ones_like(rule.nodes)) == pytest.approx(
        math.pi / 2, rel=1e-12
    )


def test_rule_domain_errors():
    with pytest.raises(DomainError):
        gauss_jacobi_rule(-1.5, 0.0, 4)
    with pytest.raises(DomainError):
        gauss_jacobi_rule(0.0, 0.0, 0)


def _dec_gauss_jacobi(alpha: float, beta: float, order: int, guesses):
    """Gauss-Jacobi nodes and weights to 40 digits, from guesses near the nodes.

    Two Newton steps on the three-term recurrence in 40-digit decimal
    arithmetic polish each guess; the weight is the classical
    Gamma(n+a+1) Gamma(n+b+1) 2^(a+b+1) / (Gamma(n+a+b+1) n! (1-x^2) P'_n(x)^2),
    its gamma factors from mpmath. Independent of the Christoffel sums.
    """
    with mp.workdps(40), localcontext() as ctx:
        ctx.prec = 40
        a, b, n = Decimal(alpha), Decimal(beta), order
        s = 2 * n + a + b
        scale = Decimal(mp.nstr(
            mp.gamma(n + alpha + 1) * mp.gamma(n + beta + 1) * mp.mpf(2) ** (alpha + beta + 1)
            / (mp.gamma(n + alpha + beta + 1) * mp.factorial(n)), 45))
        coef = []
        for k in range(2, n + 1):
            c = 2 * k + a + b
            den = 2 * k * (k + a + b) * (c - 2)
            coef.append(((c - 1) * (a * a - b * b) / den, (c - 1) * c * (c - 2) / den,
                         2 * (k + a - 1) * (k + b - 1) * c / den))
        nodes, weights = [], []
        for g in guesses:
            x = Decimal(float(g))
            for _ in range(2):
                q, p = Decimal(1), (a + b + 2) * x / 2 + (a - b) / 2
                for c2, c3, c4 in coef:
                    p, q = (c2 + c3 * x) * p - c4 * q, p
                dp = (n * ((a - b) - s * x) * p + 2 * (n + a) * (n + b) * q) / (s * (1 - x * x))
                x -= p / dp
            nodes.append(x)
            weights.append(scale / ((1 - x * x) * dp * dp))
        return nodes, weights


@pytest.mark.parametrize(
    "alpha, beta, order",
    [(0.0, 0.0, 1), (0.5, 0.5, 8), (-0.5, -0.5, 40),
     (0.0, -0.5, 24), (0.0, 23.5, 96), (1.5, 0.5, 384)],
)
def test_rule_against_40_digit_reference(alpha, beta, order):
    # measured worst case 8.8e-13 relative in the weights, at order 384
    rule = gauss_jacobi_rule(alpha, beta, order)
    nodes, weights = _dec_gauss_jacobi(alpha, beta, order, rule.nodes)
    with localcontext() as ctx:
        ctx.prec = 40
        for x, ref in zip(rule.nodes, nodes):
            assert abs(Decimal(float(x)) - ref) <= Decimal("1e-15")
        for w, ref in zip(rule.weights, weights):
            assert abs(Decimal(float(w)) - ref) <= Decimal("1e-11") * ref


def test_rule_is_cached_and_read_only():
    rule = gauss_jacobi_rule(0.0, 0.5, 12)
    assert gauss_jacobi_rule(0.0, 0.5, 12) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_weight_mass_examples():
    assert weight_mass(0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert weight_mass(-0.5, -0.5) == pytest.approx(math.pi, rel=1e-14)
    assert weight_mass(0.5, 0.5) == pytest.approx(math.pi / 2, rel=1e-14)


def test_integrate_abs_jacobi_degree_zero():
    res = integrate_abs_jacobi(JacobiParams(0.0, 0.0, 0), 0.0)
    assert res.value == pytest.approx(2.0, rel=1e-14)
    assert res.method == "JacobiQuadrature"


def test_integrate_abs_jacobi_legendre_2():
    # int_{-1}^{1} |(3t^2-1)/2| dt = 4/(3 sqrt(3))
    res = integrate_abs_jacobi(JacobiParams(0.0, 0.0, 2), 0.0)
    assert res.value == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)
    assert res.abs_err <= 1e-10


def test_integrate_abs_chebyshev():
    # with the chebyshev weight: (scale of P_d^{(-1/2,-1/2)}) * int |cos(d theta)| = 2 scale
    for d in (1, 2, 5, 9):
        scale = math.exp(math.lgamma(d + 0.5) - math.lgamma(0.5) - math.lgamma(d + 1))
        res = integrate_abs_jacobi(JacobiParams(-0.5, -0.5, d), -0.5)
        assert res.value == pytest.approx(2.0 * scale, rel=1e-10), d


def test_integrate_abs_degree_one():
    # P_1^{(0,0)} = t: int |t| dt = 1
    res = integrate_abs_jacobi(JacobiParams(0.0, 0.0, 1), 0.0)
    assert res.value == pytest.approx(1.0, rel=1e-13)


def test_integrate_abs_with_positive_weight():
    # int |t| (1-t^2) dt = 1/2
    res = integrate_abs_jacobi(JacobiParams(0.0, 0.0, 1), 1.0)
    assert res.value == pytest.approx(0.5, rel=1e-12)


def test_triangle_inequality_strict_gap():
    # once P_d changes sign, int |P_d| w exceeds |int P_d w| = 0
    for d in range(1, 8):
        res = integrate_abs_jacobi(JacobiParams(0.0, 0.0, d), 0.0)
        assert res.value > 1e-3


def test_abs_err_on_impossible_request():
    # the caller, not the route, compares abs_err with a tolerance
    res = integrate_abs_jacobi(JacobiParams(0.0, 0.0, 50), 0.0)
    assert res.abs_err > 1e-18
    assert res.value > 0


def test_abs_err_floored_at_value_rounding():
    # the order-doubling difference may vanish, but abs_err is floored at
    # 1e-15 times the value
    res = integrate_abs_jacobi(JacobiParams(0.0, 0.0, 1), 0.0)
    assert res.abs_err == pytest.approx(1e-15, rel=1e-6)
    assert res.abs_err <= 1e-14


def test_invalid_inputs():
    with pytest.raises(DomainError):
        integrate_abs_jacobi(JacobiParams(0.0, 0.0, 2), -1.0)
    with pytest.raises(DomainError):
        dirichlet_lebesgue(-1, "full")
    with pytest.raises(DomainError):
        dirichlet_lebesgue(3, "other")
    # tol is checked where lambda meets it, also on the n = 2 Dirichlet route
    for tol in (0.0, -1.0):
        for lam in (lambda_homogeneous, lambda_poly_leq):
            with pytest.raises(DomainError):
                lam(2, 3, tol=tol)


def test_dirichlet_lebesgue_degree_zero():
    for kind in ("full", "half"):
        res = dirichlet_lebesgue(0, kind)
        assert res.value == pytest.approx(1.0, rel=1e-12), kind
        assert res.abs_err <= 1e-12, kind


def test_dirichlet_full_closed_value_d1():
    # (1/2pi) int_0^{2pi} |sin(3x/2)/sin(x/2)| dx = 1/3 + 2 sqrt(3)/pi
    res = dirichlet_lebesgue(1, "full")
    assert res.abs_err <= 1e-12
    assert res.value == pytest.approx(
        1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi, rel=1e-11
    )


def test_dirichlet_monotone_and_log_growth():
    prev = 0.0
    vals = {}
    for d in (1, 2, 4, 8, 16, 32, 64):
        res = dirichlet_lebesgue(d, "full")
        assert res.abs_err <= 1e-11
        assert res.value > prev
        prev = res.value
        vals[d] = res.value
    # doubling d adds about (4/pi^2) log 2
    gap = vals[64] - vals[32]
    assert gap == pytest.approx(4.0 / math.pi**2 * math.log(2.0), rel=0.05)


def test_dirichlet_half_matches_dense_reference():
    for d in (1, 2, 3, 6):
        res = dirichlet_lebesgue(d, "half")
        assert res.abs_err <= 1e-11, d
        x = np.linspace(1e-9, 2 * math.pi - 1e-9, 2_000_001)
        dense = np.trapezoid(np.abs(np.sin((d + 1) * x / 2.0) / np.sin(x / 2.0)), x)
        assert res.value == pytest.approx(dense / (2 * math.pi), rel=1e-6), d


def _mp_tan_sum(theta, first: int, count: int, stride: int):
    """sum of tan(k theta)/k over k = first, first + stride, ... (count terms).

    mpmath gives cos and sin of the first angle and of the stride at 50 digits;
    the other tangents follow by rotation in 50-digit decimal arithmetic. At
    d = 1e5 this is eight times faster than mpmath's tangent at 40 digits, and
    the two sums agree to 1e-35.
    """
    with mp.workdps(50), localcontext() as ctx:
        ctx.prec = 50

        def dec(x):
            return Decimal(mp.nstr(x, 50))

        c, s = dec(mp.cos(first * theta)), dec(mp.sin(first * theta))
        c_step, s_step = dec(mp.cos(stride * theta)), dec(mp.sin(stride * theta))
        total = Decimal(0)
        for k in range(first, first + stride * count, stride):
            total += s / (c * k)
            c, s = c * c_step - s * s_step, s * c_step + c * s_step
        return mp.mpf(str(total))


def _mp_dirichlet(d: int, kind: str):
    """Fejer's sums at 40 digits. "full" is 1/q + (2/pi) sum_{k=1}^{d} tan(k pi/q)/k
    with q = 2d+1; "half" at even d is "full" at d/2, and at odd d, with
    m = (d+1)/2, it is (4/pi) sum_{j<m} tan((2j+1) pi/(4m))/(2j+1)."""
    with mp.workdps(40):
        if kind == "half" and d % 2 == 0:
            kind, d = "full", d // 2
        if kind == "full":
            q = 2 * d + 1
            return 1 / mp.mpf(q) + 2 / mp.pi * _mp_tan_sum(mp.pi / q, 1, d, 1)
        m = (d + 1) // 2
        return 4 / mp.pi * _mp_tan_sum(mp.pi / (4 * m), 1, m, 2)


@pytest.mark.parametrize("kind", ["full", "half"])
@pytest.mark.parametrize("d", [1, 2, 7, 8, 999, 1000, 99999, 100000])
def test_dirichlet_against_mpmath_fejer_sums(d, kind):
    res = dirichlet_lebesgue(d, kind)
    assert res.method == "FejerSum"
    err = abs(mp.mpf(res.value) - _mp_dirichlet(d, kind))
    assert err <= 2e-15 * res.value
    assert err <= res.abs_err


def _fejer_fsum(d: int, kind: str) -> float:
    """Fejer's sum with every term in one array and one math.fsum over them all,
    as dirichlet_lebesgue summed it before the chunked exact sum."""
    n_arches = 2 * d + 1 if kind == "full" else d + 1
    p = np.arange(n_arches - 1, 0, -2, dtype=float)
    small = np.tan(np.minimum(p, n_arches - p) * (math.pi / (2 * n_arches)))
    terms = (4.0 / math.pi) * np.where(2 * p <= n_arches, small, 1.0 / small) / p
    return math.fsum([1.0 / n_arches if n_arches % 2 else 0.0, *terms.tolist()])


# floor(N/2) tangent terms around the chunk boundaries; "half" at even and at
# odd N, so with and without the 1/N term
_BOUNDARY_TERMS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


@pytest.mark.parametrize("kind,d", [
    *(("full", t) for t in _BOUNDARY_TERMS),  # N = 2t + 1
    *(("half", 2 * t - 1) for t in _BOUNDARY_TERMS),  # N = 2t
    *(("half", 2 * t) for t in _BOUNDARY_TERMS),  # N = 2t + 1
])
def test_dirichlet_chunk_boundaries_match_one_fsum(kind, d):
    assert dirichlet_lebesgue(d, kind).value == _fejer_fsum(d, kind)


@settings(max_examples=40, deadline=None)
@given(
    head=st.lists(st.one_of(
        st.just(0.0),
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-79, 1)),
    ), max_size=3),
    # up to three chunks, often just past a chunk boundary
    length=st.one_of(st.integers(0, 2), st.builds(
        lambda k, rest: k * _CHUNK + rest, st.integers(0, 2), st.integers(0, _CHUNK))),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_sum_equals_fsum(head, length, zeros, seed):
    # non-negative doubles below 2, exponents spread over [-80, 1], some zero
    rng = np.random.default_rng(seed)
    bulk = np.ldexp(rng.uniform(0.5, 1.0, length), rng.integers(-79, 2, length))
    bulk[rng.random(length) < zeros] = 0.0
    x = np.concatenate((head, bulk))
    chunks = [x[i:i + _CHUNK] for i in range(0, len(x), _CHUNK)]
    assert _exact_sum(chunks) == math.fsum(x.tolist())


@pytest.mark.parametrize("kind,value,abs_err", [
    ("half", 7.521849432021674, 1.336148868351059e-14),
    ("full", 7.80277138284817, 1.3860506312198897e-14),
])
def test_dirichlet_memory_does_not_grow_with_d(kind, value, abs_err):
    # with every term in one array and one list, the peak grew with d: 64 MB
    # at d = 1e6 ("full"); the chunked sum keeps a few chunks of 2^16 terms
    tracemalloc.start()
    try:
        res = dirichlet_lebesgue(10**7, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert (res.value, res.abs_err) == (value, abs_err)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_abs_integral_positive_and_bounded(d):
    # Legendre polynomials are bounded by 1 on [-1, 1]
    res = integrate_abs_jacobi(JacobiParams(0.0, 0.0, d), 0.0)
    assert 0.0 < res.value <= 2.0


def test_arch_sum_within_abs_err_of_every_reference():
    # every n >= 3 lambda of the benchmark's 30-digit references (n <= 50,
    # d <= 1600), the n = 50 cells that miss the default tolerance included
    lambdas = json.loads(REFERENCE.read_text())["lambda"]
    checked = 0
    for key, ref in lambdas.items():
        family, *rest = key.split("/")
        if family not in {f.value for f in Family} or len(rest) != 2:
            continue
        n, d = int(rest[0]), int(rest[1])
        if n < 3 or d < 1:
            continue
        res = integrate_abs_kernel(SpaceId(Family(family), n, d))
        assert abs(Fraction(res.value) - Fraction(ref)) <= Fraction(res.abs_err), key
        checked += 1
    assert checked == 816


def _allocating_series(x, coef, mu):
    """sum_j coef[j] C_j^{(mu)}(x) with one new array per operation, as the
    arch sum's Clenshaw pass ran before it worked in place."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for j in range(len(coef) - 1, -1, -1):
        b1, b2 = coef[j] + (2.0 * (j + mu) / (j + 1)) * x * b1 - ((j + 2.0 * mu) / (j + 2)) * b2, b1
    return b1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 60),
    coef=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=80),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_series_is_bit_identical(n, coef, seed):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, 33)
    mu = n / 2.0
    assert np.array_equal(_gegenbauer_series(x, coef, mu), _allocating_series(x, coef, mu))


def _full_arch_sum(space: SpaceId) -> tuple[float, float]:
    """lambda and its abs_err as integrate_abs_kernel summed them before the
    half-root sum: every Newton-polished root of jacobi_roots and the
    allocating Clenshaw pass."""
    n, d = space.n, space.d
    spec = FAMILY_TABLE[space.family]
    degrees = spec.degrees(d)
    x = jacobi_roots(JacobiParams(*spec.jacobi(n), d))
    lam = (n - 2) / 2.0
    coef = np.zeros(d)
    ks = np.array([k for k in degrees if k], dtype=float)
    coef[ks.astype(int) - 1] = (ks + lam) / (ks * (ks + 2.0 * lam))
    series = _allocating_series(x, coef, lam + 1.0)
    oscillating = 2.0 * axial_constant(n) * ((1.0 - x) * (1.0 + x)) ** (lam + 0.5) * series
    if 0 in degrees:
        incomplete, top = betainc(lam + 0.5, lam + 0.5, 0.5 * (1.0 + x)), 1.0
    else:
        incomplete, top = np.zeros_like(x), 0.0
    f = np.concatenate(([0.0], incomplete - oscillating, [top]))
    sizes = float(np.sum(np.abs(oscillating) + np.abs(incomplete)))
    return math.fsum(np.abs(np.diff(f)).tolist()), _ARCH_SUM_ROUNDING * math.ulp(1.0) * sizes


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from([Family.HARMONIC, Family.HOMOGENEOUS]),
    n=st.integers(3, 60),
    d=st.one_of(st.integers(1, 12), st.integers(1, 200)),
)
def test_half_root_sum_matches_full_root_sum(family, n, d):
    space = SpaceId(family, n, d)
    res = integrate_abs_kernel(space)
    value, abs_err = _full_arch_sum(space)
    assert abs(res.value - value) <= res.abs_err
    # abs_err still counts the sizes at every root, not only at those summed
    assert res.abs_err == pytest.approx(abs_err, rel=1e-9)
