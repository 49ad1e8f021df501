import math
from fractions import Fraction

import numpy as np
import pytest

from projconst.errors import DomainError
from projconst.geometry import Family, SpaceId, dim_space, monomial_moment_exact
from projconst.kernels import kernel_axial_closed, kernel_axial_sum
from projconst.oracle import (
    ORACLE_MAX_D,
    ORACLE_MAX_N,
    _spanning_monomials,
    gram_basis,
    kernel_bruteforce,
    montecarlo_sphere,
)


def _oracle_spaces():
    for family in Family:
        for n in (2, 3, 4):
            for d in range(0, 6):
                if family is Family.HOMOGENEOUS and d == 0:
                    continue
                yield SpaceId(family, n, d)


def test_gram_basis_cardinality():
    for space in _oracle_spaces():
        basis = gram_basis(space)
        assert basis.coefficients.shape[0] == dim_space(space), space


def test_gram_basis_orthonormal_by_moments():
    # check <f_i, f_j> = delta_ij by expanding into exact monomial moments
    space = SpaceId(Family.POLY_LEQ, 3, 2)
    basis = gram_basis(space)
    m = len(basis.monomials)
    gram = np.array(
        [
            [
                float(
                    monomial_moment_exact(
                        3, tuple(a + b for a, b in zip(basis.monomials[i], basis.monomials[j]))
                    )
                )
                for j in range(m)
            ]
            for i in range(m)
        ]
    )
    inner = basis.coefficients @ gram @ basis.coefficients.T
    assert np.allclose(inner, np.eye(inner.shape[0]), atol=1e-10)


def _fraction_gram_schmidt(space: SpaceId) -> np.ndarray:
    """Reference: Gram-Schmidt over Fractions in the spanning order, floats at the end."""
    span, block_start = _spanning_monomials(space)
    m = len(span)
    gram = [
        [monomial_moment_exact(space.n, tuple(a + b for a, b in zip(span[i], span[j])))
         for j in range(m)]
        for i in range(m)
    ]
    ortho, norms_sq, rows = [], [], []
    for k in range(m):
        u = [Fraction(int(i == k)) for i in range(m)]
        for u_j, nsq in zip(ortho, norms_sq):
            proj = sum(c * gram[k][j] for j, c in enumerate(u_j) if c) / nsq
            if proj:
                u = [a - proj * b for a, b in zip(u, u_j)]
        nsq = sum(
            ui * sum(vj * gram[i][j] for j, vj in enumerate(u) if vj)
            for i, ui in enumerate(u) if ui
        )
        if nsq == 0:
            continue  # dependent on the sphere
        ortho.append(u)
        norms_sq.append(nsq)
        if k >= block_start:
            rows.append(np.array([float(c) for c in u]) / math.sqrt(float(nsq)))
    return np.array(rows)


def _bit_identity_spaces():
    for family in Family:
        for n in (2, 3):
            for d in range(0, 6):
                yield SpaceId(family, n, d)
    yield SpaceId(Family.POLY_LEQ, 4, 3)
    yield SpaceId(Family.HARMONIC, 4, 4)


def test_gram_basis_bit_identical_to_fraction_gram_schmidt():
    for space in _bit_identity_spaces():
        assert np.array_equal(
            gram_basis(space).coefficients, _fraction_gram_schmidt(space)
        ), space


def test_gram_basis_scale_guard():
    with pytest.raises(DomainError):
        gram_basis(SpaceId(Family.HARMONIC, ORACLE_MAX_N + 1, 2))
    with pytest.raises(DomainError):
        gram_basis(SpaceId(Family.HARMONIC, 3, ORACLE_MAX_D + 1))


def test_kernel_bruteforce_matches_fast_kernels():
    ts = np.linspace(-1.0, 1.0, 21)
    for space in _oracle_spaces():
        basis = gram_basis(space)
        dim = dim_space(space)
        for t in ts:
            brute = kernel_bruteforce(space, float(t), basis)
            assert brute == pytest.approx(
                kernel_axial_sum(space, float(t)), abs=1e-8 * dim
            ), (space, t)
            assert brute == pytest.approx(
                kernel_axial_closed(space, float(t)), abs=1e-8 * dim
            ), (space, t)


def test_kernel_bruteforce_grid_matches_scalar():
    ts = np.linspace(-1.0, 1.0, 50)
    for space in (SpaceId(Family.HARMONIC, 4, 5), SpaceId(Family.POLY_LEQ, 3, 4),
                  SpaceId(Family.HOMOGENEOUS, 2, 3)):
        basis = gram_basis(space)
        grid = kernel_bruteforce(space, ts, basis)
        assert grid.shape == ts.shape
        for i in (0, 7, 24, 25, 49):
            assert grid[i] == pytest.approx(
                kernel_bruteforce(space, float(ts[i]), basis), abs=1e-13
            ), (space, ts[i])


def test_kernel_bruteforce_domain():
    with pytest.raises(DomainError):
        kernel_bruteforce(SpaceId(Family.HARMONIC, 3, 2), 1.5)
    with pytest.raises(DomainError):
        kernel_bruteforce(SpaceId(Family.HARMONIC, 3, 2), np.array([0.0, -1.5]))


def test_montecarlo_constant():
    mean, err = montecarlo_sphere(3, lambda x: np.ones(x.shape[0]), 10_000)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_montecarlo_moment():
    # <x_1^2> = 1/3 on S^2
    mean, err = montecarlo_sphere(3, lambda x: x[:, 0] ** 2, 200_000, seed=5)
    assert err < 0.01
    assert abs(mean - 1.0 / 3.0) < 4 * err + 1e-4


def test_montecarlo_deterministic():
    f = lambda x: np.abs(x[:, 0])
    a = montecarlo_sphere(3, f, 50_000, seed=99)
    b = montecarlo_sphere(3, f, 50_000, seed=99)
    assert a == b


def test_montecarlo_sample_floor():
    with pytest.raises(DomainError):
        montecarlo_sphere(3, lambda x: np.ones(x.shape[0]), 10)


def test_montecarlo_matches_axial_reduction():
    # int |k_{H_2(S^2)}(e1, .)| dsigma by MC vs the quadrature value
    from projconst.constants import lambda_harmonic

    space = SpaceId(Family.HARMONIC, 3, 2)
    mean, err = montecarlo_sphere(
        3, lambda x: np.abs(kernel_axial_closed(space, x[:, 0])), 400_000
    )
    assert abs(mean - lambda_harmonic(3, 2).value) < 4 * err
