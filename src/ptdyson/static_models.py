"""The two time-independent coupled-oscillator models.

Model one couples two harmonic oscillators through an imaginary space-space
term; a rotation generated by angular momentum decouples it into two real
oscillators as long as the coupling stays strictly inside the exceptional
point |coupling| < m (Oy^2 - Ox^2) / 2.  At the bound the rotation
parameter diverges and the real frequencies merge.

Model two couples through both space and momentum and is the static limit
of the time-dependent model treated elsewhere in the package:
a K1 + b K2 + i lam K3.  For |lam| < |a - b| the same rotation decouples
it; for a = b and lam != 0 no such rotation exists for any coupling
strength (completely broken regime), yet the spectrum is still exactly
computable: E = a (1 + n + m) + i (lam/2)(n - m), with explicit real-valued
eigenfunctions built from Hermite polynomials in rotated arguments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra_u2 import AlgebraElement
from .errors import (
    ConstraintViolationError,
    ExceptionalPointError,
    UnsupportedDegreeError,
    _square,
)
from .modes import _hermite_upto

MAX_EIGENSTATE_DEGREE = 20


@dataclass(frozen=True)
class XYModel:
    """Mass, two frequencies, and the imaginary space-space coupling."""

    m: float
    omega_x: float
    omega_y: float
    coupling: float

    def __post_init__(self):
        for name in ("m", "omega_x", "omega_y"):
            value = getattr(self, name)
            if not value > 0:
                raise ConstraintViolationError(f"{name} must be > 0, got {value}")

    def ep_bound(self):
        """|coupling| must stay strictly below this for the decoupling."""
        squares = _square("omega_y", self.omega_y) - _square("omega_x", self.omega_x)
        return abs(self.m * squares) / 2.0


@dataclass(frozen=True)
class KModel:
    """Coefficients of the algebraic model a K1 + b K2 + i lam K3."""

    a: float
    b: float
    lam: float


@dataclass(frozen=True)
class BrokenRegime:
    """Marker value: no real decoupling rotation exists.

    complete is True in the a = b case, where the symmetry is broken for
    every nonzero coupling.
    """

    complete: bool


def decouple_xy(model):
    """Rotation parameter and decoupled real frequencies of model one.

    theta = arctanh[2 coupling / (m (Oy^2 - Ox^2))] / 2,
    ox^2 = (Ox^2 cosh^2 + Oy^2 sinh^2) / cosh(2 theta),
    oy^2 = (Ox^2 sinh^2 + Oy^2 cosh^2) / cosh(2 theta).

    The sum ox^2 + oy^2 = Ox^2 + Oy^2 is preserved.  Raises
    ExceptionalPointError (carrying the bound) at or beyond
    |coupling| = m (Oy^2 - Ox^2) / 2.
    """
    if model.coupling == 0.0:
        return 0.0, abs(model.omega_x), abs(model.omega_y)
    bound = model.ep_bound()
    denom = model.m * (model.omega_y**2 - model.omega_x**2)
    if denom == 0.0 or not abs(model.coupling) < bound:
        raise ExceptionalPointError(
            f"|coupling| = {abs(model.coupling)} at or beyond the "
            f"exceptional point {bound}",
            bound=bound,
        )
    theta = 0.5 * np.arctanh(2.0 * model.coupling / denom)
    ch2, sh2 = np.cosh(theta) ** 2, np.sinh(theta) ** 2
    c2t = np.cosh(2.0 * theta)
    ox2 = (model.omega_x**2 * ch2 + model.omega_y**2 * sh2) / c2t
    oy2 = (model.omega_x**2 * sh2 + model.omega_y**2 * ch2) / c2t
    return float(theta), float(np.sqrt(ox2)), float(np.sqrt(oy2))


def spectrum_xy(omega_x, omega_y, n_max, m_max):
    """Oscillator-pair spectrum, sorted: list of (energy, n, m)."""
    if not (omega_x > 0 and omega_y > 0):
        raise ConstraintViolationError("frequencies must be positive")
    levels = [
        ((n + 0.5) * omega_x + (m + 0.5) * omega_y, n, m)
        for n in range(n_max + 1)
        for m in range(m_max + 1)
    ]
    return sorted(levels)


def decouple_K(model):
    """Rotation parameter and Hermitian image of model two, if they exist.

    Returns (theta, h) with h = (a+b)/2 (K1+K2)
    + sqrt((a-b)^2 - lam^2)/2 (K1-K2) when |lam| < |a - b|, and a
    BrokenRegime marker otherwise.  The broken regime is a value, not an
    error: the spectrum there is still exact, just complex.
    """
    a, b, lam = model.a, model.b, model.lam
    if lam == 0.0:
        return 0.0, AlgebraElement([a, b, 0.0, 0.0])
    if abs(lam) < abs(a - b):
        theta = float(np.arctanh(lam / (b - a)))
        mean = 0.5 * (a + b)
        split = 0.5 * np.sqrt(_square("a - b", a - b) - lam**2)
        return theta, AlgebraElement([mean + split, mean - split, 0.0, 0.0])
    return BrokenRegime(complete=(a == b))


def broken_spectrum(a, lam, n, m):
    """Exact eigenvalue in the completely broken regime (b = a).

    E(n, m) = a (1 + n + m) + i (lam/2)(n - m) = conj(E(m, n)); real
    exactly on the diagonal n = m.
    """
    if n < 0 or m < 0:
        raise ConstraintViolationError("quantum numbers must be >= 0")
    return complex(a * (1 + n + m), 0.5 * lam * (n - m))


def static_eigenstate(n, m, x, y):
    """Eigenfunction of the completely broken model, real-valued.

    phi(n, m; x, y) = exp(-(x^2+y^2)/2) / (2^(n+m) sqrt(n! m! pi))
        * [ sum_k  binom(n,k) H_k(x) H_{n-k}(y) ]
        * [ sum_l  (-1)^l binom(m,l) H_l(y) H_{m-l}(x) ].

    Both sums index one table of H_0..H_max(n,m) per axis.  Orthonormal
    under the plain L2 inner product.  Degree cap 20 per index
    (binomial times Hermite growth; beyond that the sums lose digits).
    """
    if n > MAX_EIGENSTATE_DEGREE or m > MAX_EIGENSTATE_DEGREE:
        raise UnsupportedDegreeError(
            f"eigenstate indices capped at {MAX_EIGENSTATE_DEGREE}, got ({n}, {m})"
        )
    if n < 0 or m < 0:
        raise UnsupportedDegreeError("quantum numbers must be >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hx, hy = (list(_hermite_upto(max(n, m), v)) for v in (x, y))
    first = sum(math.comb(n, k) * hx[k] * hy[n - k] for k in range(n + 1))
    second = sum(
        (-1) ** l * math.comb(m, l) * hy[l] * hx[m - l] for l in range(m + 1)
    )
    norm = 2.0 ** (n + m) * math.sqrt(
        math.factorial(n) * math.factorial(m) * math.pi
    )
    return np.exp(-0.5 * (x**2 + y**2)) * first * second / norm
