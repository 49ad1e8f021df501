"""Projection constants of spherical harmonic and polynomial spaces.

Numerical realization of the reduction of projection constants on real
Euclidean spheres to weighted L1 norms of Jacobi polynomials, with exact
reference values, asymptotic limit constants, and a first-principles oracle.
"""

from .asymptotics import LimitSpec, convergence_report, limit_constant
from .constants import (
    lambda_complex_homogeneous,
    lambda_harmonic,
    lambda_hilbert,
    lambda_homogeneous,
    lambda_poly_leq,
)
from .errors import (
    ConvergenceError,
    DomainError,
    ProjconstError,
    ToleranceError,
    UnsupportedCombinationError,
)
from .gammafn import beta, duplication_residual, gamma_ratio, log_gamma
from .geometry import (
    Family,
    SpaceId,
    axial_constant,
    dim_space,
    monomial_moment,
    surface_area,
)
from .kernels import kernel_axial_closed, kernel_axial_sum, kernel_l2_norm
from .oracle import GramBasis, gram_basis, kernel_bruteforce, montecarlo_sphere
from .orthopoly import (
    JacobiParams,
    jacobi_eval,
    jacobi_roots,
    jacobi_symmetry_check,
    legendre_nd_coeffs,
    legendre_nd_eval,
)
from .quadrature import (
    QuadratureRule,
    dirichlet_lebesgue,
    gauss_jacobi_rule,
    integrate_abs_jacobi,
)
from .result import ComputationResult

__version__ = "0.1.0"
