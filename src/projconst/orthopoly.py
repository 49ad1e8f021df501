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

Roots come from the eigenvalues of the symmetric tridiagonal recurrence
matrix. For a = b the quadratic transformation to a Jacobi polynomial of
half the degree halves the eigenproblem (`_unfold_half_roots`).
`jacobi_roots`, which Gauss rules and `verify` use, adds one Newton step to
each eigenvalue, with P_d and P'_d from a single recurrence pass (P'_d
follows from P_d and P_{d-1}). The arch sum of lambda, whose antiderivative
is stationary at every root, so that a root error e costs it O(e^2), takes
its roots from `_kernel_roots`: below _NEWTON_MIN_ROWS = 700 rows, the
measured crossover, they are the eigenvalues alone (`_eigen_roots`); from
there on they are asymptotic guesses (Gatteschi-Pittaluga in the interior,
Gatteschi's Bessel-type expansion at both ends, with the Bessel zeros from
Ikebe's small eigenproblem) refined by two Newton passes, O(d) per root per
pass (Hale & Townsend 2013), kept only if they are finite, increase strictly
inside (-1, 1) and every last step is within 1e-6 of the local spacing, and
otherwise the eigenvalues again. Eigenproblems of up to 32 rows are solved
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

# smallest eigenproblem whose roots _kernel_roots takes from asymptotic
# guesses and two Newton passes instead of the eigensolve. Warm, on a shared
# 2-vCPU Xeon with one BLAS thread (medians of 9 interleaved calls, four
# (a, b) pairs, three processes), the Newton route takes 3.0 / 3.7 / 4.9 /
# 6.0 / 7.1 / 9.5 / 18.2 ms at 400 / 500 / 600 / 700 / 800 / 1000 / 1600 rows
# against 2.9 / 4.3 / 6.0 / 8.2 / 10.6 / 16.4 / 41.5 ms for the eigensolve;
# but the host often runs this interpreter-bound loop at about half speed
# (12 ms at 800 rows, against an unchanged 11 ms for the eigensolve), and
# then the crossover moves to about 800 rows. 700 wins by about 1.35x in the
# fast state and loses at most about 20% in the slow one
_NEWTON_MIN_ROWS = 700

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


def _jacobi_recurrence_pair(
    alpha: float, beta: float, degree: int, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(P_d, P_{d-1}) by the three-term recurrence in the degree, vectorized over t."""
    for pair in _jacobi_recurrence_steps(alpha, beta, degree, t):
        pass
    return pair


def _jacobi_recurrence(alpha: float, beta: float, degree: int, t: np.ndarray) -> np.ndarray:
    """P_d^{(a,b)}(t), vectorized over t."""
    return _jacobi_recurrence_pair(alpha, beta, degree, t)[0]


def _jacobi_value_deriv(
    alpha: float, beta: float, degree: int, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(P_d, P'_d) at t in (-1, 1) from one recurrence pass, d >= 1.

    (2d+a+b)(1-t^2) P'_d = d((a-b) - (2d+a+b) t) P_d + 2(d+a)(d+b) P_{d-1}.
    """
    p, p_prev = _jacobi_recurrence_pair(alpha, beta, degree, t)
    s = 2.0 * degree + alpha + beta
    num = degree * ((alpha - beta) - s * t) * p + 2.0 * (degree + alpha) * (degree + beta) * p_prev
    return p, num / (s * (1.0 - t) * (1.0 + t))


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


def _recurrence_tridiagonal(alpha: float, beta: float, degree: int):
    """Diagonal and off-diagonal of the symmetric Jacobi recurrence matrix."""
    ab = alpha + beta
    diag = np.empty(degree)
    diag[0] = (beta - alpha) / (ab + 2.0)
    k = np.arange(1, degree, dtype=float)
    with np.errstate(invalid="ignore"):
        diag[1:] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    if degree > 1:
        off = np.empty(degree - 1)
        # k = 1 written with the (1+a+b) factor cancelled so a+b = -1 stays finite
        off[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab)))
        k = np.arange(2, degree, dtype=float)
        off[1:] = np.sqrt(
            4.0 * k * (k + alpha) * (k + beta) * (k + ab)
            / ((2.0 * k + ab) ** 2 * ((2.0 * k + ab) ** 2 - 1.0))
        )
    else:
        off = np.empty(0)
    return diag, off


def _recurrence_eigenvalues(alpha: float, beta: float, degree: int) -> np.ndarray:
    """Eigenvalues of the degree x degree recurrence matrix, in increasing order."""
    diag, off = _recurrence_tridiagonal(alpha, beta, degree)
    if degree <= _DENSE_EIGEN_MAX:
        return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(diag, off)


def _eigen_newton(alpha: float, beta: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the recurrence matrix and the Newton step P/P' at each.

    The roots of P_d^{(a,b)} are the eigenvalues minus the steps; a P' or a
    step that is not finite, or a step beyond 1e-6, raises ConvergenceError.
    An infinite P' (an eigenvalue rounded to +-1 at huge a, b) would make the
    step 0 and pass silently.
    """
    nodes = _recurrence_eigenvalues(alpha, beta, degree)
    # overflow, and an eigenvalue rounded to +-1, show as P' or a step not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values, derivs = _jacobi_value_deriv(alpha, beta, degree, nodes)
        step = values / derivs
    bad = ~np.isfinite(derivs) | ~np.isfinite(step) | (np.abs(step) > 1e-6)
    if np.any(bad):
        raise ConvergenceError(
            f"Newton polish of P_{degree}^({alpha},{beta}) diverged at root indices "
            f"{np.nonzero(bad)[0].tolist()}"
        )
    return nodes, step


def jacobi_roots(params: JacobiParams) -> np.ndarray:
    """All roots of P_d^{(a,b)}, strictly increasing, in (-1, 1), as a float64 array.

    Eigenvalues of the symmetric tridiagonal recurrence matrix followed by one
    Newton step per root, with P' from the same recurrence pass as P. For
    a = b and d >= 2 the problem is halved by the quadratic transformation
    (DLMF 18.7.13-14): P_{2m}^{(a,a)}(x) is a multiple of P_m^{(a,-1/2)}(2x^2-1)
    and P_{2m+1}^{(a,a)}(x) of x P_m^{(a,1/2)}(2x^2-1), so the roots are
    +-sqrt((1+y)/2) over the roots y of the degree-floor(d/2) polynomial, plus
    0 for odd d; the eigensolve and the polish then cost a quarter as much.
    """
    a, b, d = params.alpha, params.beta, params.degree
    if d < 1:
        raise DomainError("jacobi_roots requires degree >= 1")
    if a == b and d >= 2:
        y, step = _eigen_newton(a, 0.5 if d % 2 else -0.5, d // 2)
        # (1 + y) - step, not 1 + (y - step): 1 + y is exact near y = -1, so
        # the roots nearest 0 are spared the rounding of the polished y (about
        # 1e-14 absolute at d = 1600). They still carry y's own error, about
        # 1e-15 absolute (5400 ulp relative nearest 0 of P_1600)
        return _unfold_half_roots((1.0 + y) - step, d)
    nodes, step = _eigen_newton(a, b, d)
    return np.clip(nodes - step, -1.0, 1.0)


def _eigen_roots(alpha: float, beta: float, degree: int) -> np.ndarray:
    """Roots of P_d^{(a,b)} as the recurrence matrix's eigenvalues, unpolished, d >= 1.

    jacobi_roots without the Newton step, halved the same way for a = b, so
    each root keeps the eigensolve's error (about 1e-15 absolute at d = 1600);
    a caller whose result is stationary at a root needs no more. Where the
    eigenproblem collapses (huge a, b) the roots may fail to increase
    strictly or reach +-1; the caller checks.
    """
    if alpha == beta and degree >= 2:
        return _unfold_half_roots(
            1.0 + _recurrence_eigenvalues(alpha, 0.5 if degree % 2 else -0.5, degree // 2), degree
        )
    return _recurrence_eigenvalues(alpha, beta, degree)


def _kernel_roots(alpha: float, beta: float, degree: int) -> np.ndarray:
    """Roots of P_d^{(a,b)}, as accurate as _eigen_roots, for the arch sum of lambda, d >= 1.

    Where the eigenproblem _eigen_roots would solve (floor(d/2) rows for
    a = b, d rows otherwise) has at least _NEWTON_MIN_ROWS rows, and its
    edge roots are few against its size (20 + 4 max(a, b) <= rows/4), the
    roots of the same polynomial come from asymptotic guesses
    (`_root_guesses`) and two vectorized Newton passes, O(rows^2) in all,
    as in Hale & Townsend (2013). They are kept only if they are finite,
    increase strictly inside (-1, 1), and every last step is at most 1e-6 of
    the local spacing sqrt(1-x^2)/rows; otherwise, and for smaller or
    edge-heavy problems, the eigenvalues serve.
    """
    half = alpha == beta and degree >= 2
    b, rows = ((0.5 if degree % 2 else -0.5), degree // 2) if half else (beta, degree)
    if rows < _NEWTON_MIN_ROWS or 20 + 4 * max(alpha, b) > rows / 4:
        return _eigen_roots(alpha, beta, degree)
    y = _root_guesses(alpha, b, rows)
    # a guess that went astray shows as a value that is not finite, and NaN
    # fails every test below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(2):
            value, deriv = _jacobi_value_deriv(alpha, b, rows, y)
            step = value / deriv
            prev, y = y, y - step
        settled = (
            y[0] > -1.0
            and y[-1] < 1.0
            and np.all(y[1:] > y[:-1])
            and np.all(np.abs(step) <= 1e-6 * np.sqrt((1.0 - y) * (1.0 + y)) / rows)
        )
    if not settled:
        return _eigen_roots(alpha, beta, degree)
    # (1 + y) - step for the half problem, as in jacobi_roots
    return _unfold_half_roots((1.0 + prev) - step, degree) if half else y


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


def _unfold_half_roots(one_plus_y: np.ndarray, degree: int) -> np.ndarray:
    """Roots of P_d^{(a,a)}, increasing, from 1 + y over the roots y of its half-degree problem.

    By the quadratic transformation (DLMF 18.7.13-14) they are
    +-sqrt((1+y)/2), plus 0 for odd d. 1 + y is passed in, not y, so that a
    caller can form it exactly near y = -1, where the roots nearest 0 come from.
    """
    pos = np.sqrt(0.5 * np.clip(one_plus_y, 0.0, 2.0))
    return np.concatenate((-pos[::-1], [0.0] if degree % 2 else [], pos))
