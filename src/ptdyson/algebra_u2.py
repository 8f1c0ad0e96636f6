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

The map's group parameters are the four reals of the ordered product

    eta = exp(g1 K1) exp(g2 K2) exp(g3 K3) exp(g4 K4),

passed, like their rates, as one float array of shape (4, ...): row i - 1
holds g_i, and trailing axes hold one entry per time sample.  (A valid map
of the time-dependent model has g1 = g2 = const; the dyson module builds
such stacks.)  Coefficients are stacked the same way, coefficient axis
first, and the matrix helpers return (..., 2, 2) stacks.  Inside, the 2x2
layer works entry-wise on entry-first stacks of shape (2, 2, ...): one
product helper writes each matrix product out as broadcast multiplies and
adds over whole sample axes, so no step makes a BLAS call per sample, and a
stacked call agrees bit for bit with the same samples taken one at a time.
"""

from dataclasses import dataclass

import numpy as np

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# Basis images, index i <-> generator K_{i+1}.
BASIS_MATRICES = (
    np.diag([1.0, 0.0]).astype(complex),
    np.diag([0.0, 1.0]).astype(complex),
    0.5 * _SIGMA1,
    0.5 * _SIGMA2,
)


@dataclass(frozen=True)
class AlgebraElement:
    """Complex coefficient 4-vector c over the generator basis.

    Represents c[0]*K1 + c[1]*K2 + c[2]*K3 + c[3]*K4.  Immutable: `vector`
    is a read-only complex array.  Each coefficient may be a scalar or an
    array (one entry per sample); they are broadcast together, so `vector`
    has shape (4, ...) and its operations, `norm`, `+` and `-`, act sample by sample.
    """

    vector: np.ndarray

    def __init__(self, coeffs):
        c = np.array(np.broadcast_arrays(*coeffs), dtype=complex)
        if c.shape[:1] != (4,):
            raise ValueError("AlgebraElement needs exactly 4 coefficients")
        c.flags.writeable = False
        object.__setattr__(self, "vector", c)

    def norm(self):
        """Euclidean norm over the coefficient axis, per sample."""
        return np.linalg.norm(self.vector, axis=0)[()]

    def __add__(self, other):
        return AlgebraElement(self.vector + other.vector)

    def __sub__(self, other):
        return AlgebraElement(self.vector - other.vector)


def basis_element(i):
    """The generator K_i as an element, i in 1..4."""
    c = np.zeros(4, dtype=complex)
    c[i - 1] = 1.0
    return AlgebraElement(c)


def commutator(a, b):
    """[a, b] expanded in the generator basis via the structure constants."""
    a1, a2, a3, a4 = a.vector
    b1, b2, b3, b4 = b.vector
    c1 = 0.5j * (a3 * b4 - a4 * b3)
    c3 = 1.0j * ((a2 - a1) * b4 + a4 * (b1 - b2))
    c4 = 1.0j * ((a1 - a2) * b3 - a3 * (b1 - b2))
    return AlgebraElement([c1, -c1, c3, c4])


def _mul(a, b):
    """Product of two entry-first 2x2 stacks, shape (2, 2, ...)."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _last(e):
    """An entry-first stack (2, 2, ...) as the public (..., 2, 2)."""
    return e.transpose(*range(2, e.ndim), 0, 1)


def _broadcast(*stacks):
    """(4, ...) stacks broadcast together over their sample axes."""
    # coefficient axis last, so that the sample axes align from the right
    moved = np.broadcast_arrays(*(s.transpose(*range(1, s.ndim), 0) for s in stacks))
    return [s.transpose(-1, *range(s.ndim - 1)) for s in moved]


def _image(c):
    """Entry-first 2x2 image (2, 2, ...) of a (4, ...) coefficient stack."""
    c1, c2, c3, c4 = c
    return np.array(
        [[c1, 0.5 * (c3 - 1.0j * c4)], [0.5 * (c3 + 1.0j * c4), c2]], dtype=complex
    )


def _element(e):
    """Inverse of _image on an entry-first stack."""
    return AlgebraElement(
        [e[0, 0], e[1, 1], e[0, 1] + e[1, 0], -1.0j * (e[1, 0] - e[0, 1])]
    )


def _factor(i, g):
    """Entry-first exp(g K_i), shape (2, 2) + g.shape."""
    if i in (1, 2):
        # exp(g) on the generator's one diagonal entry, 1 on the other
        e, one, zero = np.exp(g), np.ones_like(g), np.zeros_like(g)
        d1, d2 = (e, one) if i == 1 else (one, e)
        return np.array([[d1, zero], [zero, d2]], dtype=complex)
    ch, sh = np.cosh(0.5 * g), np.sinh(0.5 * g)
    if i == 3:
        return np.array([[ch, sh], [sh, ch]], dtype=complex)
    return np.array([[ch, -1.0j * sh], [1.0j * sh, ch]], dtype=complex)


def _product(g, order):
    """Entry-first product of the factors exp(g_i K_i), i in the given order.

    eta is order (1, 2, 3, 4) of g; eta^{-1} is order (4, 3, 2, 1) of -g.
    """
    m = _factor(order[0], g[order[0] - 1])
    for i in order[1:]:
        m = _mul(m, _factor(i, g[i - 1]))
    return m


def to_matrix(a):
    """2x2 image of an element, shape (..., 2, 2)."""
    return _last(_image(a.vector))


def group_matrix(params):
    """eta of a (4, ...) parameter stack in the 2x2 image, shape (..., 2, 2)."""
    return _last(_product(np.asarray(params, dtype=float), (1, 2, 3, 4)))


def conjugate(params, a):
    """eta a eta^{-1} computed in the 2x2 image.

    Preserves the central K1 + K2 coefficient and the spectrum of the
    matrix image.
    """
    g, c = _broadcast(np.asarray(params, dtype=float), a.vector)
    eta, eta_inv = _product(g, (1, 2, 3, 4)), _product(-g, (4, 3, 2, 1))
    return _element(_mul(_mul(eta, _image(c)), eta_inv))


def time_term(params, params_dot):
    """The derivative term i etadot eta^{-1} of the Dyson relation.

    Product rule over the ordered factors F_i = exp(g_i K_i), nested from
    the right:

        etadot eta^{-1} = gdot_1 K1 + F_1 (gdot_2 K2 + F_2 (...) F_2^{-1}) F_1^{-1}.

    The parameters and their rates are (4, ...) stacks that broadcast
    together over their sample axes.
    """
    g, gdot = _broadcast(*(np.asarray(p, dtype=float) for p in (params, params_dot)))
    # row i - 1 of unit times gdot_i is the coefficient stack of gdot_i K_i
    unit = np.eye(4).reshape((4, 4) + (1,) * (gdot.ndim - 1))
    total = _image(unit[3] * gdot[3])
    for i in (3, 2, 1):
        f, f_inv = _factor(i, g[i - 1]), _factor(i, -g[i - 1])
        total = _image(unit[i - 1] * gdot[i - 1]) + _mul(_mul(f, total), f_inv)
    return _element(1.0j * total)
