"""Arithmetic over the four-generator oscillator algebra and its 2x2 image.

The model lives on the span of four Hermitian generators
K1 = (px^2 + x^2)/2, K2 = (py^2 + y^2)/2, K3 = (xy + px py)/2,
K4 = (x py - y px)/2, closing under

    [K1,K2] = 0        [K1,K3] =  iK4      [K1,K4] = -iK3
    [K2,K3] = -iK4     [K2,K4] =  iK3      [K3,K4] =  i(K1-K2)/2

Everything here is representation independent except the conjugation
helpers, which push the computation through the smallest faithful matrix
image: K1 -> diag(1,0), K2 -> diag(0,1), K3 -> sigma1/2, K4 -> sigma2/2.
In that image all group factor exponentials are closed form, so
conjugation and the time-derivative term carry no matrix-exponential
truncation error.  The tests verify the six brackets in both pictures
before anything else runs.

Coefficients and group parameters may be stacked along trailing axes (one
entry per time sample, coefficient axis first); the matrix helpers then
return (..., 2, 2) stacks and matmul carries the stacking through.
"""

from dataclasses import dataclass

import numpy as np

# Max imaginary coefficient magnitude for the Hermiticity classification.
HERMITIAN_TOL = 1e-10

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# Basis images, index i <-> generator K_{i+1}.
BASIS_MATRICES = (
    np.diag([1.0, 0.0]).astype(complex),
    np.diag([0.0, 1.0]).astype(complex),
    0.5 * _SIGMA1,
    0.5 * _SIGMA2,
)
_EYE = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class AlgebraElement:
    """Complex coefficient 4-vector c over the generator basis.

    Represents c[0]*K1 + c[1]*K2 + c[2]*K3 + c[3]*K4.  Immutable.  Each
    coefficient may be a scalar or an array (one entry per sample); they
    are broadcast together, so `vector` has shape (4, ...) and every
    operation below acts sample by sample.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        c = np.array(np.broadcast_arrays(*coeffs), dtype=complex)
        if c.shape[:1] != (4,):
            raise ValueError("AlgebraElement needs exactly 4 coefficients")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def vector(self):
        return np.array(self.coeffs, dtype=complex)

    def is_hermitian(self, tol=HERMITIAN_TOL):
        # Generators are self-adjoint, so Hermiticity is reality of the
        # coefficients.
        return np.max(np.abs(self.vector.imag), axis=0) < tol

    def norm(self):
        """Euclidean norm over the coefficient axis, per sample."""
        return np.linalg.norm(self.vector, axis=0)[()]

    def __add__(self, other):
        return AlgebraElement(self.vector + other.vector)

    def __sub__(self, other):
        return AlgebraElement(self.vector - other.vector)

    def __mul__(self, scalar):
        return AlgebraElement(self.vector * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return AlgebraElement(-self.vector)


def basis_element(i):
    """The generator K_i as an element, i in 1..4."""
    c = np.zeros(4, dtype=complex)
    c[i - 1] = 1.0
    return AlgebraElement(c)


@dataclass(frozen=True)
class DysonParams:
    """Group parameters of the ordered product

        eta = exp(g1 K1) exp(g2 K2) exp(g3 K3) exp(g4 K4).

    For a valid map of the time-dependent model g1 = g2 = const; the
    constructor does not enforce that, the dyson module does.  Parameters
    may be arrays (one entry per sample) that broadcast together.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float

    def as_array(self):
        """The four parameters broadcast together, shape (4, ...)."""
        return np.array(
            np.broadcast_arrays(self.gamma1, self.gamma2, self.gamma3, self.gamma4),
            dtype=float,
        )


def commutator(a, b):
    """[a, b] expanded in the generator basis via the structure constants."""
    a1, a2, a3, a4 = a.coeffs
    b1, b2, b3, b4 = b.coeffs
    c1 = 0.5j * (a3 * b4 - a4 * b3)
    c3 = 1.0j * ((a2 - a1) * b4 + a4 * (b1 - b2))
    c4 = 1.0j * ((a1 - a2) * b3 - a3 * (b1 - b2))
    return AlgebraElement([c1, -c1, c3, c4])


def to_matrix(a):
    """2x2 image of an element, shape (..., 2, 2)."""
    return np.einsum("i...,ijk->...jk", a.vector, BASIS_MATRICES)


def from_matrix(m):
    """Inverse of to_matrix on (..., 2, 2); the coefficient map is a bijection."""
    m = np.asarray(m, dtype=complex)
    c1 = m[..., 0, 0]
    c2 = m[..., 1, 1]
    c3 = m[..., 0, 1] + m[..., 1, 0]
    c4 = -1.0j * (m[..., 1, 0] - m[..., 0, 1])
    return AlgebraElement([c1, c2, c3, c4])


def factor_matrix(i, gamma):
    """Closed-form exp(gamma K_i) in the 2x2 image, i in 1..4, gamma real.

    Broadcasts over gamma: the result has shape gamma.shape + (2, 2).
    """
    g = np.asarray(gamma, dtype=float)[..., None, None]
    if i in (1, 2):
        # exp(gamma) on the generator's one diagonal entry, 1 on the other
        return np.where(BASIS_MATRICES[i - 1] != 0.0, np.exp(g), _EYE)
    if i == 3:
        return np.cosh(0.5 * g) * _EYE + np.sinh(0.5 * g) * _SIGMA1
    if i == 4:
        return np.cosh(0.5 * g) * _EYE + np.sinh(0.5 * g) * _SIGMA2
    raise ValueError("generator index out of range")


def group_matrix(params):
    """eta in the 2x2 image, ordered-product convention."""
    g = params.as_array()
    m = factor_matrix(1, g[0])
    for i in (2, 3, 4):
        m = m @ factor_matrix(i, g[i - 1])
    return m


def group_inverse(params):
    """eta^{-1}, built from reversed negated factors (no matrix inverse)."""
    g = params.as_array()
    m = factor_matrix(4, -g[3])
    for i in (3, 2, 1):
        m = m @ factor_matrix(i, -g[i - 1])
    return m


def conjugate(params, a):
    """eta a eta^{-1} computed in the 2x2 image.

    Preserves the central K1 + K2 coefficient and the spectrum of the
    matrix image.
    """
    m = group_matrix(params) @ to_matrix(a) @ group_inverse(params)
    return from_matrix(m)


def time_term(params, params_dot):
    """The derivative term i etadot eta^{-1} of the Dyson relation.

    Product rule over the ordered factors: each gdot_i contributes
    i gdot_i Ad(prefix_i) K_i with prefix_i the product of the factors to
    the left of factor i.
    """
    g = params.as_array()
    gdot = np.asarray(params_dot, dtype=float)
    prefix = _EYE
    prefix_inv = _EYE
    total = 0.0
    for i in (1, 2, 3, 4):
        total = total + gdot[i - 1][..., None, None] * (
            prefix @ BASIS_MATRICES[i - 1] @ prefix_inv
        )
        prefix = prefix @ factor_matrix(i, g[i - 1])
        prefix_inv = factor_matrix(i, -g[i - 1]) @ prefix_inv
    return from_matrix(1.0j * total)
