"""Write perfbench/reference.json: every value the benchmark can check.

The values are computed without importing projconst, in mpmath at 40 digits
and stored with 30 significant digits:

- n = 2: 1 at d = 0, 4/pi for harmonics, Fejer's tangent sum for the
  Dirichlet kernel (polyleq) and its integer-frequency analogue (homogeneous,
  odd d).
- n >= 3: lambda = c_n * Int |K(t)| (1-t^2)^a dt with a = (n-3)/2 and K the
  defining sum of the normalized zonal harmonics, sum_m dim_m P_m/P_m(1).
  Each zonal term has the exact antiderivative
  Int_x^1 (1-t^2)^a P_m^{(a,a)} = (1-x^2)^{a+1} P_{m-1}^{(a+1,a+1)}(x) / (2m),
  so the integral is sum |G(x_i) - G(x_{i+1})| over the sign changes x_i of
  K. Those are taken in float64 from scipy; G is stationary there, so a root
  error e changes the value by O(e^2). The closed forms (Rutovitz at d = 1,
  10 sqrt(3)/9) are checked against this route before anything is written.
- hilbert, complex-homogeneous and the limit constants: closed forms.
- kernel samples: the defining sum at the CLI's sample points.

Usage: python3 perfbench/make_reference.py   (about 10 minutes on two cores)
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

from mpmath import mp, mpf
from scipy.special import roots_jacobi

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
from gate import harmonic_dim  # noqa: E402

mp.dps = 40
DIGITS = 30
OUT = Path(__file__).resolve().parent / "reference.json"


def zonal_degrees(family: str, d: int) -> list[int]:
    if family == "harmonic":
        return [d]
    if family == "homogeneous":
        return list(range(d % 2, d + 1, 2))
    return list(range(d + 1))


def kernel_jacobi_params(family: str, n: int) -> tuple[float, float]:
    """K is a multiple of P_d^{(alpha, beta)}; only its roots are used."""
    if family == "harmonic":
        return (n - 3) / 2, (n - 3) / 2
    if family == "homogeneous":
        return (n - 1) / 2, (n - 1) / 2
    return (n - 1) / 2, (n - 3) / 2


def jacobi_symmetric(m_max: int, a: mpf, x: mpf) -> list[mpf]:
    """P_0..P_{m_max} of P_m^{(a,a)}(x) by the three-term recurrence."""
    values = [mpf(1), (a + 1) * x]
    for k in range(2, m_max + 1):
        values.append((k + a) * ((2 * k + 2 * a - 1) * x * values[-1] - (k + a - 1) * values[-2]) / (k * (k + 2 * a)))
    return values[: m_max + 1]


def zonal_kernel(family: str, n: int, d: int, x: mpf) -> mpf:
    """K(x) = sum_m dim_m P_m^{(a,a)}(x) / P_m^{(a,a)}(1), a = (n-3)/2."""
    a = mpf(n - 3) / 2
    p = jacobi_symmetric(d, a, x)
    return mp.fsum(harmonic_dim(n, m) * p[m] / mp.binomial(m + a, m) for m in zonal_degrees(family, d))


def axial_constant(n: int) -> mpf:
    return mp.gamma(mpf(n) / 2) / (mp.gamma(mpf(n - 1) / 2) * mp.sqrt(mp.pi))


def rutovitz(n: int) -> mpf:
    return 2 / mp.sqrt(mp.pi) * mp.gamma(mpf(n + 2) / 2) / mp.gamma(mpf(n + 1) / 2)


def fejer_full(d: int) -> mpf:
    """(1/2pi) Int_0^{2pi} |sin((d+1/2)t)/sin(t/2)| dt (Fejer 1910)."""
    q = 2 * d + 1
    return mpf(1) / q + 2 / mp.pi * mp.fsum(mp.tan(k * mp.pi / q) / k for k in range(1, d + 1))


def dirichlet_half(d: int) -> mpf:
    """(1/2pi) Int_0^{2pi} |sin((d+1)t/2)/sin(t/2)| dt.

    Even d is fejer_full(d/2). For odd d the frequency m = (d+1)/2 is an
    integer, sin(mt)/sin(t/2) = 2 sum_{j<m} cos((j+1/2)t), and summing the
    alternating arch integrals of its antiderivative gives
    (4/pi) sum_{j<m} tan((2j+1)pi/(4m)) / (2j+1).
    """
    if d % 2 == 0:
        return fejer_full(d // 2)
    m = (d + 1) // 2
    return 4 / mp.pi * mp.fsum(
        mp.tan((2 * j + 1) * mp.pi / (4 * m)) / (2 * j + 1) for j in range(m)
    )


def jacobi_l1(family: str, n: int, d: int) -> mpf:
    """lambda for n >= 3, d >= 1 by exact arch antiderivatives (module doc)."""
    a = mpf(n - 3) / 2
    big_a = a + 1
    degrees = zonal_degrees(family, d)
    weight = [mpf(0)] * (d + 1)  # weight[m] = dim_m / (P_m(1) * 2m)
    for m in degrees:
        if m:
            weight[m] = harmonic_dim(n, m) / (mp.binomial(m + a, m) * 2 * m)
    # P_k^{(A,A)} = u_k x P_{k-1} - v_k P_{k-2}
    u = [mpf(0)] + [(k + big_a) * (2 * k + 2 * big_a - 1) / (k * (k + 2 * big_a)) for k in range(1, d)]
    v = [mpf(0)] + [(k + big_a) * (k + big_a - 1) / (k * (k + 2 * big_a)) for k in range(1, d)]
    has_const = 0 in degrees
    two_pow = mpf(2) ** (2 * a + 1)
    mass = two_pow * mp.beta(a + 1, a + 1)

    def antiderivative(x: mpf) -> mpf:
        """G(x) = Int_x^1 K(t) (1-t^2)^a dt."""
        p0, p1 = mpf(0), mpf(1)
        acc = weight[1] * p1
        xm = x
        for k in range(1, d):
            p0, p1 = p1, u[k] * (xm * p1) - v[k] * p0
            w = weight[k + 1]
            if w:
                acc += w * p1
        g = (1 - x * x) ** big_a * acc
        if has_const:
            g += two_pow * mp.betainc(a + 1, a + 1, (1 + x) / 2, 1)
        return g

    alpha, beta = kernel_jacobi_params(family, n)
    roots = roots_jacobi(d, alpha, beta)[0]
    if len(roots) != d or not all(-1 < r < 1 for r in roots) or any(
        b <= a_ for a_, b in zip(roots, roots[1:])
    ):
        raise RuntimeError(f"bad roots for {family} n={n} d={d}")
    values = [mass if has_const else mpf(0)]
    values += [antiderivative(mpf(float(r))) for r in roots]
    values.append(mpf(0))
    l1 = mp.fsum(abs(g1 - g0) for g0, g1 in zip(values, values[1:]))
    return axial_constant(n) * l1


def lambda_value(family: str, n: int, d: int | None) -> mpf:
    if family == "hilbert-real":
        return rutovitz(n)
    if family == "hilbert-complex":
        return mp.sqrt(mp.pi) / 2 * mp.gamma(n + 1) / mp.gamma(mpf(n) + mpf(1) / 2)
    if family == "complex-homogeneous":
        return mp.gamma(n + d) * mp.gamma(1 + mpf(d) / 2) / (mp.gamma(1 + d) * mp.gamma(n + mpf(d) / 2))
    if d == 0:
        return mpf(1)
    if n == 2:
        if family == "harmonic":
            return 4 / mp.pi
        return fejer_full(d) if family == "polyleq" else dirichlet_half(d)
    if family == "harmonic" and n == 3 and d == 2:
        return 10 * mp.sqrt(3) / 9
    if family in ("harmonic", "homogeneous") and d == 1:
        return rutovitz(n)
    return jacobi_l1(family, n, d)


def limit_value(family: str, n: int) -> mpf:
    """Closed-form limit of lambda / d^((n-2)/2) as d grows (n >= 3)."""
    if family == "harmonic":
        return 2 ** mpf(n) * mp.gamma(mpf(n) / 4) ** 2 / (mp.gamma(n - 1) * mp.pi**2)
    if family == "homogeneous":
        return 2 ** mpf(n + 1) * mp.gamma(mpf(n) / 4 + mpf(1) / 2) ** 2 / (
            mp.gamma(n - 1) * mp.pi**2 * (n - 2)
        )
    return mp.gamma(mpf(n) / 2 - 1) * 2 ** (3 - mpf(n) / 2) / (
        mp.gamma(mpf(n) / 2 - mpf(1) / 2) ** 2 * mp.pi
    )


def kernel_values(family: str, n: int, d: int) -> list[str]:
    return [mp.nstr(zonal_kernel(family, n, d, mpf(t)), DIGITS) for t in inputs.kernel_grid()]


def self_check() -> None:
    """The arch-antiderivative route against closed forms and plain quadrature."""
    cases = [(mpf(10) * mp.sqrt(3) / 9, "harmonic", 3, 2)]
    cases += [(rutovitz(n), family, n, 1) for n in (3, 4, 7) for family in ("harmonic", "homogeneous")]
    for expected, family, n, d in cases:
        got = jacobi_l1(family, n, d)
        assert abs(got / expected - 1) < mpf(10) ** -30, (family, n, d, got, expected)
    for family, n, d in (("harmonic", 4, 5), ("homogeneous", 3, 4), ("polyleq", 5, 3), ("polyleq", 3, 6)):
        a = mpf(n - 3) / 2

        def kernel(t, family=family, n=n, d=d):
            return zonal_kernel(family, n, d, t)

        alpha, beta = kernel_jacobi_params(family, n)
        pts = [mpf(-1)] + [mp.findroot(kernel, mpf(float(r))) for r in roots_jacobi(d, alpha, beta)[0]] + [mpf(1)]
        direct = axial_constant(n) * mp.fsum(
            abs(mp.quad(lambda t: kernel(t) * (1 - t * t) ** a, [lo, hi])) for lo, hi in zip(pts, pts[1:])
        )
        got = jacobi_l1(family, n, d)
        assert abs(got / direct - 1) < mpf(10) ** -25, (family, n, d, got, direct)
    for d in range(1, 7):
        for kind, value in (("full", fejer_full(d)), ("half", dirichlet_half(d))):
            freq = d + mpf(1) / 2 if kind == "full" else mpf(d + 1) / 2
            arches = [k * mp.pi / freq for k in range(int(2 * freq) + 1)]
            arches[-1] = 2 * mp.pi
            direct = mp.fsum(
                abs(mp.quad(lambda t: mp.sin(freq * t) / mp.sin(t / 2), [lo, hi]))
                for lo, hi in zip(arches, arches[1:])
            ) / (2 * mp.pi)
            assert abs(value / direct - 1) < mpf(10) ** -25, (kind, d, value, direct)


def _lambda_job(key):
    mp.dps = 40
    t0 = time.perf_counter()
    value = mp.nstr(lambda_value(*key), DIGITS)
    return key, value, time.perf_counter() - t0


def _cost(key) -> float:
    family, n, d = key
    return 0.0 if d is None or n == 2 and family == "harmonic" else float(d) ** 2 if n > 2 else float(d)


def main() -> int:
    self_check()
    print("self-check passed", flush=True)
    keys = sorted(inputs.lambda_keys(), key=_cost, reverse=True)
    lambdas = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for key, value, seconds in pool.imap_unordered(_lambda_job, keys):
            lambdas[inputs.lambda_key(*key)] = value
            if seconds > 5:
                print(f"{key}: {seconds:.1f} s", flush=True)
    reference = {
        "digits": DIGITS,
        "lambda": {k: lambdas[k] for k in sorted(lambdas)},
        "limit_d_power": {
            inputs.lambda_key(f, n): mp.nstr(limit_value(f, n), DIGITS) for f, n in inputs.limit_keys()
        },
        "kernel": {inputs.lambda_key(*k): kernel_values(*k) for k in inputs.kernel_keys()},
        "kernel_t": [repr(t) for t in inputs.kernel_grid()],
        "verify_summary": "verify: 7 check groups, 0 failures (seed={seed})\n",
    }
    OUT.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(lambdas)} lambda values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
