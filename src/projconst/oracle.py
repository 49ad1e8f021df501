"""First-principles ground truth for small spaces.

Reproducing kernels are rebuilt from an orthonormal basis of restricted
monomials, orthonormalized by fraction-free integer (Bareiss) elimination
over exact sphere moments; floats appear only in the final normalization.
Sphere integrals are also estimated by Monte Carlo for cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Family, SpaceId, dim_space, monomial_moment_exact

__all__ = ["GramBasis", "gram_basis", "kernel_bruteforce", "montecarlo_sphere"]

ORACLE_MAX_N = 4
ORACLE_MAX_D = 6

MonomialKey = tuple[int, ...]


def _monomials(n: int, degree: int) -> list[MonomialKey]:
    """All multi-indices in n variables of the given total degree."""
    if degree < 0:
        return []
    out = []
    for comp in itertools.combinations_with_replacement(range(n), degree):
        alpha = [0] * n
        for i in comp:
            alpha[i] += 1
        out.append(tuple(alpha))
    return sorted(set(out), reverse=True)


@dataclass(frozen=True)
class GramBasis:
    """Orthonormal basis coefficients over a fixed spanning monomial list."""

    space: SpaceId
    monomials: tuple[MonomialKey, ...]
    coefficients: np.ndarray  # (dim, len(monomials))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Values of every basis function at points x of shape (..., n); shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        mono_vals = np.prod(x[..., None, :] ** np.array(self.monomials), axis=-1)
        return mono_vals @ self.coefficients.T


def _spanning_monomials(space: SpaceId) -> tuple[list[MonomialKey], int]:
    """Spanning monomials and the index where the target block starts.

    For harmonics the degree-(d-2) monomials come first: their span is
    projected out and the basis is read off the remaining degree-d block.
    """
    n, d = space.n, space.d
    if space.family is Family.HOMOGENEOUS:
        return _monomials(n, d), 0
    if space.family is Family.POLY_LEQ:
        lower = _monomials(n, d - 1)
        return lower + _monomials(n, d), 0
    lower = _monomials(n, d - 2)
    return lower + _monomials(n, d), len(lower)


def _bareiss_rows(gram: list[list[int]]):
    """Fraction-free (Bareiss) elimination of [gram | I] in Python integers.

    gram must be symmetric positive semidefinite. A zero pivot means that row
    depends on the earlier ones, so its whole Schur-complement row and column
    are zero: it is skipped and never used as a pivot. Yields, for each row k
    with a nonzero pivot, (k, right half of row k, previous pivot, pivot).
    After the steps before it, row k is the previous pivot times the row of
    plain elimination, so right / previous is the Gram-Schmidt vector e_k
    minus its projection on the earlier rows, and pivot / previous its squared
    norm in the inner product gram.
    """
    m = len(gram)
    rows = [row + [int(i == j) for j in range(m)] for i, row in enumerate(gram)]
    prev = 1
    for k in range(m):
        row_k = rows[k]
        pivot = row_k[k]
        if pivot == 0:
            continue
        yield k, row_k[m:], prev, pivot
        for i in range(k + 1, m):
            row_i = rows[i]
            lead = row_i[k]
            rows[i] = [(pivot * a - lead * b) // prev for a, b in zip(row_i, row_k)]
        prev = pivot


def gram_basis(space: SpaceId) -> GramBasis:
    """Exact orthonormalization of the spanning set, in the spanning order.

    Monomials whose exponents differ in parity in some coordinate are
    orthogonal on the sphere, so each parity class is eliminated on its own.
    The moments are scaled to integers by the common denominator
    prod_{k<d} (n + 2k), and floats are formed only from exact int / int
    quotients, which Python rounds correctly.
    """
    n, d = space.n, space.d
    if n > ORACLE_MAX_N or d > ORACLE_MAX_D:
        raise DomainError(
            f"oracle scale is n <= {ORACLE_MAX_N}, d <= {ORACLE_MAX_D}, got ({n}, {d})"
        )
    span, block_start = _spanning_monomials(space)
    m = len(span)
    den = math.prod(n + 2 * k for k in range(d))
    moments: dict[MonomialKey, int] = {}

    def scaled_moment(alpha: MonomialKey, beta: MonomialKey) -> int:
        key = tuple(a + b for a, b in zip(alpha, beta))
        if key not in moments:
            exact = monomial_moment_exact(n, key)
            moments[key] = exact.numerator * (den // exact.denominator)
        return moments[key]

    classes: dict[MonomialKey, list[int]] = {}
    for k, alpha in enumerate(span):
        classes.setdefault(tuple(a % 2 for a in alpha), []).append(k)

    found: dict[int, np.ndarray] = {}
    for members in classes.values():
        gram = [[scaled_moment(span[i], span[j]) for j in members] for i in members]
        for k, right, prev, pivot in _bareiss_rows(gram):
            if members[k] < block_start:
                continue
            u = np.zeros(m)
            u[members] = [c / prev for c in right]
            found[members[k]] = u / math.sqrt(pivot / (prev * den))

    rows = [found[k] for k in sorted(found)]
    coeff = np.array(rows) if rows else np.zeros((0, m))

    expected = dim_space(space)
    if coeff.shape[0] != expected:
        raise DomainError(
            f"rank deficiency: got {coeff.shape[0]} basis functions for {space}, "
            f"expected {expected}"
        )
    return GramBasis(space=space, monomials=tuple(span), coefficients=coeff)


def kernel_bruteforce(space: SpaceId, t, basis: GramBasis | None = None):
    """Kernel slice sum_j f_j(e1) f_j(y) with y = (t, sqrt(1-t^2), 0, ...); t may be an array."""
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1):
        raise DomainError(f"need |t| <= 1, got {t}")
    if basis is None:
        basis = gram_basis(space)
    n = space.n
    e1 = np.zeros(n)
    e1[0] = 1.0
    y = np.zeros(arr.shape + (n,))
    y[..., 0] = arr
    if n > 1:
        y[..., 1] = np.sqrt(np.maximum(0.0, 1.0 - arr * arr))
    out = basis.evaluate(y) @ basis.evaluate(e1)
    return float(out) if np.ndim(t) == 0 else out


def montecarlo_sphere(
    n: int, f, samples: int, seed: int = 20240, chunk: int = 200_000
) -> tuple[float, float]:
    """Monte Carlo estimate of Int f dsigma_n with its standard error.

    Uniform points come from normalized standard Gaussian vectors; the stream
    is fully determined by the seed (fixed chunking, fixed reduction order).
    f takes an (m, n) array of sphere points and returns m values.
    """
    if samples < 1000:
        raise DomainError(f"need samples >= 1000, got {samples}")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        vals = np.asarray(f(g), dtype=float)
        total += float(vals.sum())
        total_sq += float(np.square(vals).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_err = math.sqrt(var / samples)
    return mean, std_err
