"""Jacobi polynomials, the axial harmonic profile on spheres, and their roots.

Jacobi polynomials are evaluated by the three-term recurrence in the degree
(stable, O(d) per point) with the normalization P_d^{(a,b)}(1) = binom(d+a, d).
The degree-d axially invariant harmonic profile in n variables is generated
from its coefficient ratio recurrence, which avoids the catastrophic
cancellation of the closed gamma-quotient form. Profiles of many degrees are
evaluated in blocks of rows that share their Horner steps
(`_axial_profile_blocks`, which `legendre_nd_eval` uses with one row), and
`jacobi_rows` gives P_d for every d <= d_max from one recurrence pass; row d
of either is bit-identical to the single-degree call.

The recurrence precomputes its coefficients and steps in three rotating
buffers, so no step allocates.

`jacobi_roots` is the one root finder; lambda's arch sum, Gauss rules and
`verify` all take their roots from it. For a = b the quadratic
transformation to a Jacobi polynomial of half the degree halves the
problem. From _NEWTON_MIN_ROWS = 128 rows on, the measured crossover, the
roots are asymptotic guesses (Gatteschi-Pittaluga in the interior,
Gatteschi's Bessel-type expansion at both ends, with the Bessel zeros from
Ikebe's small eigenproblem) refined by one Newton pass, O(d) per root
(Hale & Townsend 2013), and a second pass over only the roots whose first
step exceeds the acceptance bound: none for lambda at n <= 10, a few dozen
edge roots at n = 20. Each step P_d/P'_d comes from one pass of a scaled
monic recurrence, four in-place calls per degree, which stays finite near
+-1 at large a, b where P_d overflows (`_newton_step`; P'_d follows from P_d
and P_{d-1}); the roots are kept only if they are finite, increase strictly
inside (-1, 1) and every last step is within 1e-4 of the local spacing
(`_newton_roots`). Below 128 rows, and wherever they are not kept, the
roots are the eigenvalues of the symmetric tridiagonal recurrence matrix.
Neither is polished: lambda's antiderivative is stationary at every root, so
a root error e costs it O(e^2), and `gauss_jacobi_rule`, which needs more,
takes one `_newton_step` itself. Eigenproblems of up to 32 rows are solved
dense by numpy; only larger ones import scipy's tridiagonal solver, so small
roots, and the Newton route, never load scipy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "JacobiParams",
    "jacobi_eval",
    "jacobi_symmetry_check",
    "legendre_nd_coeffs",
    "legendre_nd_eval",
    "legendre_nd_rows",
    "jacobi_rows",
    "jacobi_roots",
]

# quadrature node jitter tolerance: |t| up to 1 + this is clamped to [-1, 1]
_CLAMP_SLACK = 1e-12

# largest eigenproblem solved dense by np.linalg.eigvalsh (LAPACK syevd, which
# ends in the same sterf as scipy's tridiagonal solver and gives bit-identical
# eigenvalues). Warm, on a 2-vCPU Xeon, dense takes 16 against 26 us at 16
# rows and 37 against 44 us at 32, but 75 against 57 us at 40 and 191
# against 135 us at 64; it also spares a small problem the scipy import.
_DENSE_EIGEN_MAX = 32

# smallest root problem that jacobi_roots solves by asymptotic guesses and
# Newton steps instead of the eigensolve; lambda's problems from here on take
# one pass up to n = 10. Warm, on a shared 2-vCPU Xeon with one BLAS thread
# (medians over six of lambda's (a, b) at n = 3, 4 and 5 of 21 calls each in
# alternating order, two runs), the Newton route takes 246-247 / 261-263 /
# 278 / 293-295 / 310-312 / 329-337 / 359-375 / 452-477 / 587-595 / 653-659
# us at 96 / 104 / 112 / 120 / 128 / 137 / 150 / 200 / 274 / 300 rows against
# 217-220 / 247-250 / 278-279 / 310-314 / 349-351 / 392-395 / 456-482 /
# 744-778 / 1305-1317 / 1552-1579 us for the eigensolve, so the two are even
# at 112 rows; 128 keeps jacobi_sweep's median cells (polyleq d ~ 113-120)
# on the eigensolve. In spells where the host ran this interpreter-bound loop
# at up to 1.8x its time, as it has been seen to, the route lost 1.4x at 128
# rows and 1.2x at 150, and was even at 200
_NEWTON_MIN_ROWS = 128

# degrees per block of _axial_profile_blocks: a block holds block x (d/2 + 1)
# coefficients and block x points values, so memory stays bounded at large d,
# and it takes fewer rows when points x rows would pass _PROFILE_VALUES
_PROFILE_BLOCK = 64
_PROFILE_VALUES = 2**16


@dataclass(frozen=True)
class JacobiParams:
    """Parameters (alpha, beta, degree) of a Jacobi polynomial P_d^{(a,b)}."""

    alpha: float
    beta: float
    degree: int

    def __post_init__(self):
        if self.alpha <= -1 or self.beta <= -1:
            raise DomainError(
                f"Jacobi parameters must exceed -1, got ({self.alpha}, {self.beta})"
            )
        if self.degree < 0:
            raise DomainError(f"degree must be >= 0, got {self.degree}")


def _clamp(t):
    """Validate |t| <= 1 (up to node jitter) and clamp into [-1, 1]."""
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1.0 + _CLAMP_SLACK):
        raise DomainError("argument outside [-1, 1]; extrapolation refused")
    return np.clip(arr, -1.0, 1.0)


def _jacobi_recurrence_steps(
    alpha: float, beta: float, top: int, t: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(P_k, P_{k-1}) for k = 0, 1, ..., top by the three-term recurrence in the degree.

    Vectorized over t. Every single-degree and every all-degree evaluation of
    P takes its values from this one generator. The coefficients c1..c4 of
    every step are computed up front, and three buffers rotate, so no step
    allocates: a yielded pair stays valid only until the next step, which
    overwrites the older array. Each step rounds as
    ((c2 + c3 t) P_{k-1} - c4 P_{k-2}) / c1 would.
    """
    p_prev, p = np.zeros_like(t), np.ones_like(t)
    yield p, p_prev
    if top < 1:
        return
    scratch = np.empty_like(t)
    np.multiply(t, 0.5 * (alpha + beta + 2.0), out=scratch)
    scratch += 0.5 * (alpha - beta)
    p_prev, p, scratch = p, scratch, p_prev
    yield p, p_prev
    ab = alpha + beta
    k = np.arange(2, top + 1, dtype=float)
    c1 = (2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)).tolist()
    c2 = ((2.0 * k + ab - 1.0) * (alpha * alpha - beta * beta)).tolist()
    c3 = ((2.0 * k + ab - 1.0) * (2.0 * k + ab) * (2.0 * k + ab - 2.0)).tolist()
    c4 = (2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + ab)).tolist()
    for c1_k, c2_k, c3_k, c4_k in zip(c1, c2, c3, c4):
        np.multiply(t, c3_k, out=scratch)
        scratch += c2_k
        scratch *= p
        p_prev *= c4_k
        scratch -= p_prev
        scratch /= c1_k
        p_prev, p, scratch = p, scratch, p_prev
        yield p, p_prev


def _jacobi_recurrence(alpha: float, beta: float, degree: int, t: np.ndarray) -> np.ndarray:
    """P_d^{(a,b)}(t), vectorized over t."""
    for p, _ in _jacobi_recurrence_steps(alpha, beta, degree, t):
        pass
    return p


def jacobi_eval(params: JacobiParams, t):
    """P_d^{(a,b)}(t) for t in [-1, 1]; scalar in, scalar out."""
    arr = _clamp(t)
    out = _jacobi_recurrence(params.alpha, params.beta, params.degree, arr)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def jacobi_rows(alpha: float, beta: float, d_max: int, t) -> np.ndarray:
    """P_d^{(a,b)}(t) for every d <= d_max as the rows of one array, from one recurrence pass.

    Row d is bit-identical to jacobi_eval at degree d.
    """
    arr = _clamp(t)
    out = np.empty((d_max + 1,) + arr.shape)
    for d, (p, _) in zip(range(d_max + 1), _jacobi_recurrence_steps(alpha, beta, d_max, arr)):
        out[d] = p
    return out


def jacobi_symmetry_check(params: JacobiParams, t: float) -> float:
    """Residual of the reflection identity P_d^{(a,b)}(t) = (-1)^d P_d^{(b,a)}(-t)."""
    mirrored = JacobiParams(params.beta, params.alpha, params.degree)
    sign = -1.0 if params.degree % 2 else 1.0
    return jacobi_eval(params, t) - sign * jacobi_eval(mirrored, -t)


def legendre_nd_coeffs(n: int, d: int) -> tuple[float, ...]:
    """Coefficients b_0..b_{floor(d/2)} of the degree-d axial harmonic in R^n.

    The profile is sum_j b_j t^(d-2j) (1-t^2)^j; b_0 = 1 and consecutive
    coefficients obey b_j = -((d-2j+2)(d-2j+1)) / (2j (2j+n-3)) * b_{j-1}.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    coeffs = [1.0]
    for j in range(1, d // 2 + 1):
        ratio = -((d - 2 * j + 2) * (d - 2 * j + 1)) / (2.0 * j * (2 * j + n - 3))
        coeffs.append(ratio * coeffs[-1])
    return tuple(coeffs)


def legendre_nd_eval(n: int, d: int, t):
    """Axial profile: sum_j b_j t^(d-2j) (1-t^2)^j; equals 1 at t = 1."""
    arr = _clamp(t)
    out = next(_axial_profile_blocks(n, [d], arr.reshape(-1)))[0].reshape(arr.shape)
    return float(out) if np.ndim(t) == 0 else out


def legendre_nd_rows(n: int, d_max: int, t) -> np.ndarray:
    """legendre_nd_eval for every d <= d_max as the rows of one array, bit-identical."""
    arr = _clamp(t)
    rows = np.concatenate(list(_axial_profile_blocks(n, range(d_max + 1), arr.reshape(-1))))
    return rows.reshape((d_max + 1,) + arr.shape)


def _axial_profile_blocks(n: int, degrees, t: np.ndarray) -> Iterator[np.ndarray]:
    """Axial profiles of ascending degrees at a clamped 1-D t, in blocks of rows.

    Each block holds the next (at most) _PROFILE_BLOCK degrees, one row each,
    and at most _PROFILE_VALUES values unless a single row is larger.
    Every row runs the homogeneous Horner scheme in (t^2, 1-t^2) of its own
    degree, acc <- acc t^2 + b_j (1-t^2)^j with a running power of 1-t^2, then
    one factor t when the degree is odd, so it is bit-identical to evaluating
    that degree alone. The running power is shared, and since the degrees
    ascend, the rows still taking steps at step j (floor(k/2) >= j) are a
    suffix of the block: one slice operation serves them all.
    """
    block = max(1, min(_PROFILE_BLOCK, _PROFILE_VALUES // max(t.size, 1)))
    t_sq = t * t
    one_minus = 1.0 - t_sq
    for start in range(0, len(degrees), block):
        yield _axial_profile_block(n, degrees[start : start + block], t, t_sq, one_minus)


def _axial_profile_block(
    n: int, degrees, t: np.ndarray, t_sq: np.ndarray, one_minus: np.ndarray
) -> np.ndarray:
    """One block of _axial_profile_blocks, given t^2 and 1 - t^2."""
    halves = [k // 2 for k in degrees]
    coeffs = np.zeros((len(degrees), halves[-1] + 1))
    for row, k in enumerate(degrees):
        c = legendre_nd_coeffs(n, k)
        coeffs[row, : len(c)] = c
    acc = np.ones((len(degrees), t.size))
    power = np.ones_like(t)
    for j in range(1, halves[-1] + 1):
        first = bisect_left(halves, j)
        power *= one_minus
        acc[first:] *= t_sq
        acc[first:] += coeffs[first:, j, None] * power
    acc[[row for row, k in enumerate(degrees) if k % 2]] *= t
    return acc


def _recurrence_squares(alpha: float, beta: float, degree: int):
    """Diagonal and squared off-diagonal of the symmetric Jacobi recurrence matrix.

    They are the coefficients of the monic recurrence
    p_{k+1}(t) = (t - diag_k) p_k(t) - off_sq_{k-1} p_{k-1}(t).
    """
    ab = alpha + beta
    diag = np.empty(degree)
    diag[0] = (beta - alpha) / (ab + 2.0)
    k = np.arange(1, degree, dtype=float)
    with np.errstate(invalid="ignore"):
        diag[1:] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    off_sq = np.empty(max(degree - 1, 0))
    if degree > 1:
        # k = 1 written with the (1+a+b) factor cancelled so a+b = -1 stays finite
        off_sq[0] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab))
        k = np.arange(2, degree, dtype=float)
        off_sq[1:] = (
            4.0 * k * (k + alpha) * (k + beta) * (k + ab)
            / ((2.0 * k + ab) ** 2 * ((2.0 * k + ab) ** 2 - 1.0))
        )
    return diag, off_sq


def _recurrence_tridiagonal(alpha: float, beta: float, degree: int):
    """Diagonal and off-diagonal of the symmetric Jacobi recurrence matrix."""
    diag, off_sq = _recurrence_squares(alpha, beta, degree)
    return diag, np.sqrt(off_sq)


def _newton_step(alpha: float, beta: float, degree: int, t: np.ndarray) -> np.ndarray:
    """The Newton step P_d/P'_d of P_d^{(a,b)} at t, from one recurrence pass, d >= 1.

    The pass runs the scaled monic recurrence q_0 = 1, q_1 = 2t - 2a_0,
    q_{k+1} = (2t - 2a_k) q_k - 4b_k^2 q_{k-1}, with a_k and b_k^2 from
    `_recurrence_squares`, so q_k = 2^k P_k / kappa_k for kappa_k the leading
    coefficient of P_k. Each step is four in-place calls, and near +1, q_d is
    about 2^-(a+b) P_d, so it stays finite at large a where P_d overflows.
    With s = 2d+a+b, s(1-t^2) P'_d = d((a-b) - s t) P_d + 2(d+a)(d+b) P_{d-1}
    gives P/P' = s(1-t^2) q_d / [d((a-b) - s t) q_d + 2(d+a)(d+b) r q_{d-1}],
    where r = 2 kappa_{d-1}/kappa_d = 4d(d+a+b)/(s(s-1)), written 4/(a+b+2) at
    d = 1 so that a+b = -1 stays finite. The step is NaN where that
    denominator is not finite or t = +-1, where the identity gives no P'.
    """
    diag, off_sq = _recurrence_squares(alpha, beta, degree)
    t2 = 2.0 * t
    q_prev, q = np.ones_like(t), t2 - 2.0 * diag[0]
    scratch = np.empty_like(t)
    for two_a, four_b_sq in zip((2.0 * diag[1:]).tolist(), (4.0 * off_sq).tolist()):
        np.subtract(t2, two_a, out=scratch)
        scratch *= q
        q_prev *= four_b_sq
        scratch -= q_prev
        q_prev, q, scratch = q, scratch, q_prev
    ab = alpha + beta
    s = 2.0 * degree + ab
    r = 4.0 / (ab + 2.0) if degree == 1 else 4.0 * degree * (degree + ab) / (s * (s - 1.0))
    den = degree * ((alpha - beta) - s * t) * q
    den += (2.0 * (degree + alpha) * (degree + beta) * r) * q_prev
    one_minus = (1.0 - t) * (1.0 + t)
    return np.where(np.isfinite(den) & (one_minus > 0.0), s * one_minus * q / den, np.nan)


def _recurrence_eigenvalues(alpha: float, beta: float, degree: int) -> np.ndarray:
    """Eigenvalues of the degree x degree recurrence matrix, in increasing order."""
    diag, off = _recurrence_tridiagonal(alpha, beta, degree)
    if degree <= _DENSE_EIGEN_MAX:
        return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(diag, off)


def jacobi_roots(params: JacobiParams) -> np.ndarray:
    """All roots of P_d^{(a,b)}, strictly increasing, in (-1, 1), as a float64 array.

    For a = b and d >= 2 the problem is halved by the quadratic transformation
    (DLMF 18.7.13-14): P_{2m}^{(a,a)}(x) is a multiple of P_m^{(a,-1/2)}(2x^2-1)
    and P_{2m+1}^{(a,a)}(x) of x P_m^{(a,1/2)}(2x^2-1), so the roots are
    +-sqrt((1+y)/2) over the roots y of the degree-floor(d/2) polynomial, plus
    0 for odd d, and they cost a quarter as much. The roots of the problem
    left (floor(d/2) rows for a = b, else d) come from `_newton_roots` where
    it settles, and otherwise are the eigenvalues of the symmetric
    tridiagonal recurrence matrix. Nothing polishes them: each keeps an error of about 1e-15
    absolute (at d = 1600), which a sum stationary at every root, such as
    lambda's arch sum, feels only squared. Where the problem collapses (huge
    a, b), roots that are not finite or do not increase strictly inside
    (-1, 1) raise ConvergenceError.
    """
    a, b, d = params.alpha, params.beta, params.degree
    if d < 1:
        raise DomainError("jacobi_roots requires degree >= 1")
    half = a == b and d >= 2
    b_rows, rows = ((0.5 if d % 2 else -0.5), d // 2) if half else (b, d)
    y, step = _newton_roots(a, b_rows, rows) or (_recurrence_eigenvalues(a, b_rows, rows), 0.0)
    if half:
        # (1 + y) - step, not 1 + (y - step): 1 + y is exact near y = -1, so
        # the roots nearest 0 are spared the rounding of y - step
        pos = np.sqrt(0.5 * np.clip((1.0 + y) - step, 0.0, 2.0))
        x = np.concatenate((-pos[::-1], [0.0] if d % 2 else [], pos))
    else:
        x = y - step
    if not (x[0] > -1.0 and x[-1] < 1.0 and np.all(x[1:] > x[:-1])):
        raise ConvergenceError(
            f"roots of P_{d}^({a},{b}) are not finite or do not increase strictly inside (-1, 1)"
        )
    return x


def _newton_roots(alpha: float, beta: float, degree: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(y, s) with the roots of P_d^{(a,b)} at y - s, from Newton steps, or None.

    Only where the problem has at least _NEWTON_MIN_ROWS rows and its edge
    roots are few against its size (20 + 4 max(a, b) <= d/4): asymptotic
    guesses (`_root_guesses`) refined by one vectorized Newton pass, O(d^2),
    as in Hale & Townsend (2013), and a second pass over only the roots whose
    first step exceeds the bound below; y is each root's iterate before its
    last step and s that step. They count only if they are finite, increase
    strictly inside (-1, 1), and every last step is at most 1e-4 of the
    local spacing sqrt(1-x^2)/d (`_newton_bound`); otherwise, and for smaller
    or edge-heavy problems, None. A last step s leaves a root error of about
    s^2/spacing, so the bound keeps the roots within about 1e-8 of the
    spacing, which the arch sum of lambda, stationary at every root, feels
    only squared. For lambda's (a, b) every first step is within the bound
    up to n = 10 (at most 5.6e-5 of the spacing, n = 10 at 152 rows), so one
    pass serves; at n = 20, 20-52 edge roots take a second, and at n = 50
    about 180-390. The second pass's steps grow roughly like a^2.5 and not
    with d: 5.7e-7 of the spacing at n = 80 (a ~ 40), 2.9e-6 at n = 150 and
    1.5e-5 at n = 300. The steps' scaled recurrence (`_newton_step`) stays
    finite where P_d overflows, so lambda's problems settle at n = 400 with
    3600 rows, and polyleq's up to n = 600 with 5000; but the scaled values
    overflow too at the roots nearest the ends, and the result is None, for
    harmonic and homogeneous from n ~ 480 with 5000 rows (a ~ 240) and for
    polyleq at n = 678 with 5500.
    """
    if degree < _NEWTON_MIN_ROWS or 20 + 4 * max(alpha, beta) > degree / 4:
        return None
    y = _root_guesses(alpha, beta, degree)
    # a guess that went astray shows as a value that is not finite, and NaN
    # fails every test below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = _newton_step(alpha, beta, degree, y)
        x = y - step
        redo = ~(np.abs(step) <= _newton_bound(x, degree))
        if np.any(redo):
            y[redo] = x[redo]
            step[redo] = _newton_step(alpha, beta, degree, y[redo])
            x = y - step
        settled = (
            x[0] > -1.0
            and x[-1] < 1.0
            and np.all(x[1:] > x[:-1])
            and np.all(np.abs(step) <= _newton_bound(x, degree))
        )
    return (y, step) if settled else None


def _newton_bound(x: np.ndarray, degree: int) -> np.ndarray:
    """The largest last Newton step `_newton_roots` accepts: 1e-4 of the local spacing."""
    return 1e-4 * np.sqrt((1.0 - x) * (1.0 + x)) / degree


def _root_guesses(alpha: float, beta: float, degree: int) -> np.ndarray:
    """Asymptotic approximations to the roots of P_d^{(a,b)}, increasing, d >= 1.

    Interior roots: Gatteschi and Pittaluga's x_k = cos(theta_k), with
    rho = d + (a+b+1)/2, phi_k = (k + a/2 - 1/4) pi / rho and
    theta_k = phi_k + [(1/4 - a^2) cot(phi_k/2) - (1/4 - b^2) tan(phi_k/2)] / (4 rho^2),
    k = 1 nearest +1 (Gatteschi & Pittaluga 1985). The 20 + ceil(4a) roots
    nearest +1 take Gatteschi's Bessel-type form instead, theta_k = (j_{a,k}/nu)
    [1 - (4 - a^2 - 15 b^2)(j_{a,k}^2/2 + a^2 - 1) / (720 nu^4)] with
    nu = sqrt(rho^2 + (1 - a^2 - 3 b^2)/12) and j_{a,k} the zeros of J_a
    (`_bessel_zeros`), and the 20 + ceil(4b) nearest -1 the same with a and b
    swapped, mirrored (both as collected by Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013) A652). The caller keeps both edge counts within d/4.
    """
    rho = degree + 0.5 * (alpha + beta + 1.0)
    phi = (np.arange(degree, 0, -1) + 0.5 * alpha - 0.25) * (math.pi / rho)
    theta = phi + ((0.25 - alpha * alpha) / np.tan(0.5 * phi)
                   - (0.25 - beta * beta) * np.tan(0.5 * phi)) / (4.0 * rho * rho)
    x = np.cos(theta)
    for a, b, sign in ((alpha, beta, 1.0), (beta, alpha, -1.0)):
        count = 20 + math.ceil(4 * a)
        j = _bessel_zeros(a, count)
        nu = math.sqrt(rho * rho + (1.0 - a * a - 3.0 * b * b) / 12.0)
        correction = (4.0 - a * a - 15.0 * b * b) * (0.5 * j * j + a * a - 1.0) / (720.0 * nu**4)
        edge = sign * np.cos((j / nu) * (1.0 - correction))
        if sign > 0:
            x[degree - count:] = edge[::-1]
        else:
            x[:count] = edge
    return x


@lru_cache(maxsize=16)
def _bessel_zeros(a: float, count: int) -> np.ndarray:
    """The first `count` positive zeros j_{a,1} < j_{a,2} < ... of J_a, a > -1, read-only.

    1/j_{a,k}^2 are the largest eigenvalues of the infinite symmetric
    tridiagonal matrix with diagonal 1/(2(a+2i-1)(a+2i+1)) and off-diagonal
    1/(4(a+2i+1) sqrt((a+2i)(a+2i+2))), i = 1, 2, ... (Ikebe, Kikuchi and
    Fujishiro 1991, after Ikebe 1975). Its leading 2 count + 30 rows give
    them to within 2e-15 relative against mpmath for a from -1/2 to 24.5 and
    count <= 40, and within 2.3e-15 at count = 20 + ceil(4a) for a = 24.5,
    49.5 and 74.5 (every seventh zero checked). Dense numpy, so no scipy
    import; cached, since lambda asks for the same few a again and again.
    """
    i = np.arange(1.0, 2 * count + 31)
    diag = 1.0 / (2.0 * (a + 2.0 * i - 1.0) * (a + 2.0 * i + 1.0))
    i = i[:-1]
    off = 1.0 / (4.0 * (a + 2.0 * i + 1.0) * np.sqrt((a + 2.0 * i) * (a + 2.0 * i + 2.0)))
    eig = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    j = 1.0 / np.sqrt(eig[: -count - 1 : -1])
    j.setflags(write=False)
    return j

