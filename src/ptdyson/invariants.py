"""Conserved operators for the driven model and their Hermitian images.

For H(t) = a(K1 + K2) + i lam K3 an operator I_H(t) = sum_i alpha_i(t) K_i
is conserved when dI/dt = i [I, H].  That system integrates in closed form:
with L(t) the running integral of lam and complex constants c1..c4,

    alpha1 = c1/2 + c3 cosh(c4 - L)      alpha2 = c1 - alpha1
    alpha3 = c2                          alpha4 = 2 i c3 sinh(c4 - L).

Demanding that the similarity image eta I_H eta^{-1} be Hermitian pins the
map parameters g3, g4 through ratios of the alpha components and imposes
matching constraints on the constants:

    Im c1 = 0,   4 Re(c3) Im(c3) = -Re(c2) Im(c2),   2 |Re c3| > |Im c2|,

plus Im c4 = 0, which every closed-form identity downstream relies on.
InvariantCoeffs builds the constants from the map trajectory's (q2, q3) and
the three free reals c1, Re c2, Re c3, so the constraints hold by
construction (the third is |q3| < 1).
The Hermitian-side invariant I_h = sum_i beta_i K_i comes out two ways, a
radical closed form (beta_from_match) and the solution of its own evolution
system (beta_from_evolution); both take (coeffs, lam, t), and with the
matched constants c5..c8 the two agree pointwise, which criterion 06 of the
gate checks.  The evolution route's splitting integral is that of the
family's map trajectory, EPConstants._splitting_integral: one primitive,
EPConstants._splitting_primitive, serves it, c8 (minus its value at t = 0)
and the split drivers of the energy module.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra_u2 import AlgebraElement, commutator, conjugate
from .dyson import EPConstants, first_derivative
from .errors import ConstraintViolationError, _square


@dataclass(frozen=True)
class InvariantCoeffs:
    """The conserved-operator family whose map trajectory has the given (q2, q3).

    c1, Re c2 = c2_real and a nonzero Re c3 = c3_real are free; the complex
    constants follow as c2 = c2_real - 2 i c3_real q3, Im c3 from the
    matching constraint, and c4 = q2.  The derived real constants c5..c8
    parameterize the evolution-route solution; they are only defined for
    c3_real > 0 (None otherwise).
    """

    q2: float
    q3: float
    c1: float = 1.0
    c2_real: float = 0.5
    c3_real: float = 0.8
    c2: complex = field(init=False)
    c3: complex = field(init=False)
    c4: complex = field(init=False)
    c5: float = field(init=False)
    c6: float = field(init=False)
    c7: float = field(init=False)
    c8: float = field(init=False)

    def __post_init__(self):
        for name in ("q2", "q3", "c1", "c2_real", "c3_real"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # Im c3 divides by Re c3; the refusal comes before the division
        if self.c3_real == 0.0:
            raise ConstraintViolationError(
                f"c3_real must be nonzero, got {self.c3_real}"
            )
        consts = self.ep_constants()  # EPConstants owns the |q3| < 1 check
        c2 = complex(self.c2_real, -2.0 * self.c3_real * self.q3)
        c3 = complex(self.c3_real, -self.c2_real * c2.imag / (4.0 * self.c3_real))
        c5 = c6 = c7 = c8 = None
        if self.c3_real > 0.0:
            root = np.sqrt(
                4.0 * _square("Re c3", self.c3_real) - _square("Im c2", c2.imag)
            )
            c5 = float(0.5 * self.c1 + 0.5 * root)
            c6 = float(0.5 * self.c1 - 0.5 * root)
            c7 = float(self.c2_real * root / (2.0 * self.c3_real))
            c8 = float(-consts._splitting_primitive(self.q2))
        derived = (c2, c3, complex(self.q2), c5, c6, c7, c8)
        for name, value in zip(("c2", "c3", "c4", "c5", "c6", "c7", "c8"), derived):
            object.__setattr__(self, name, value)

    def ep_constants(self):
        """Constants of the closed-form map trajectory this family selects.

        With Im c2 = -2 Re(c3) q3 the g3, g4 recovered from the Hermiticity
        ratios coincide with the canonical closed forms (the other sign
        lands on the mirrored map that negates g4).
        """
        return EPConstants(q2=self.q2, q3=self.q3)


invariant_coeffs_for = InvariantCoeffs


def alpha_coeffs(coeffs, lam, t):
    """Coefficient 4-vector of the conserved operator at time t.

    Broadcasts over array t (leading axis 4).  alpha1 + alpha2 = c1 and
    alpha3 = c2 identically.
    """
    u = coeffs.c4 - np.asarray(lam.cumulative(t), dtype=complex)
    alpha1 = 0.5 * coeffs.c1 + coeffs.c3 * np.cosh(u)
    alpha2 = coeffs.c1 - alpha1
    alpha3 = np.full_like(alpha1, coeffs.c2)
    alpha4 = 2.0j * coeffs.c3 * np.sinh(u)
    return np.array([alpha1, alpha2, alpha3, alpha4], dtype=complex)


def gamma_from_alpha(alpha):
    """Recover the map parameters (g3, g4) from alpha snapshots.

    Hermiticity of the similarity image forces

        tanh g4 = Im(alpha3) / (Re alpha2 - Re alpha1)
        tanh g3 = sgn(Re alpha1 - Re alpha2) * Im(alpha4)
                  / sqrt((Re alpha1 - Re alpha2)^2 - Im(alpha3)^2),

    the unique real solution among the four sign combinations.  alpha is
    one 4-vector or a (4, ...) stack of them, and g3, g4 take the shape of
    its trailing axes.  Raises ConstraintViolationError naming the failed
    inequality, and for a stack the first snapshot where a ratio leaves the
    arctanh domain.
    """
    alpha = np.asarray(alpha, dtype=complex)
    diff = alpha[0].real - alpha[1].real
    a3i = alpha[2].imag
    a4i = alpha[3].imag
    with np.errstate(invalid="ignore"):
        root = np.sqrt(diff**2 - a3i**2)
    ok = (diff != 0.0) & (diff**2 > a3i**2) & (np.abs(a4i) < root)
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = np.unravel_index(bad[0], diff.shape)
        d, b3, b4, r = (x[i] for x in (diff, a3i, a4i, root))
        at = f" at snapshot {', '.join(map(str, i))}" if i else ""
        if d == 0.0:
            raise ConstraintViolationError(
                f"Re(alpha1) != Re(alpha2) required (degenerate snapshot){at}"
            )
        if not d**2 > b3**2:
            raise ConstraintViolationError(
                "(Re alpha1 - Re alpha2)^2 > Im(alpha3)^2 required, got "
                f"{d**2} <= {b3**2}{at}"
            )
        raise ConstraintViolationError(
            "|Im alpha4| < sqrt((Re alpha1 - Re alpha2)^2 - Im(alpha3)^2) "
            f"required, got {abs(b4)} >= {r}{at}"
        )
    g4 = np.arctanh(a3i / (-diff))
    g3 = np.arctanh(np.sign(diff) * a4i / root)
    return g3, g4


def beta_from_match(coeffs, lam, t):
    """Hermitian-side coefficient 4-vector, radical closed form.

    beta1 and beta2 are constant in t (their sum is c1); beta3, beta4 carry
    the time dependence.
    """
    c2r, c2i = coeffs.c2_real, coeffs.c2.imag
    c3r = coeffs.c3_real
    c3r_sq = _square("Re c3", c3r)
    # r2 = 4 c3r^2 (1 - q3^2) > 0, since the family's |q3| < 1
    r2 = 4.0 * c3r_sq - _square("Im c2", c2i)
    u = coeffs.q2 - np.asarray(lam.cumulative(t), dtype=float)
    d = np.sqrt(4.0 * c3r_sq - (c2i / np.cosh(u)) ** 2)
    root = np.sqrt(r2)
    beta1 = 0.5 * coeffs.c1 + 0.5 * root
    beta2 = 0.5 * coeffs.c1 - 0.5 * root
    beta3 = (c2r / (2.0 * c3r)) * r2 / d
    beta4 = (c2r * c2i / (2.0 * c3r)) * (root / d) * np.tanh(u)
    return np.array(np.broadcast_arrays(beta1, beta2, beta3, beta4), dtype=float)


def beta_from_evolution(coeffs, lam, t):
    """Hermitian-side coefficient 4-vector, evolution-route closed form.

    (c5, c6, c7 cos(phase), -c7 sin(phase)) with phase = c8 minus the
    splitting integral of the Hermitian counterpart from 0 to t, so that
    beta3^2 + beta4^2 = c7^2 identically.  Needs Re c3 > 0, where c5..c8
    are defined.
    """
    phase = coeffs.c8 - coeffs.ep_constants()._splitting_integral(lam, t)
    beta3 = coeffs.c7 * np.cos(phase)
    beta4 = -coeffs.c7 * np.sin(phase)
    return np.array(
        np.broadcast_arrays(coeffs.c5, coeffs.c6, beta3, beta4), dtype=float
    )


def conservation_residual(element_fn, hamiltonian_fn, t):
    """Coefficient-norm residual of d/dt I = i [I, H] at time t.

    element_fn and hamiltonian_fn map t to AlgebraElement; the time
    derivative is the five-point first derivative of the coefficients
    (dyson.first_derivative) at step 1e-3.  Array t gives one residual per
    entry when both callables stack over t.
    """
    di = first_derivative(lambda s: element_fn(s).vector, t, 1e-3)
    bracket = commutator(element_fn(t), hamiltonian_fn(t)).vector
    return np.linalg.norm(di - 1.0j * bracket, axis=0)[()]


def similarity_residual(alpha, beta, params):
    """|| eta I_H eta^{-1} - I_h || in the coefficient norm.

    alpha is the complex 4-vector of I_H, beta the real 4-vector of I_h,
    params the map parameters at the same instant; stacks of all three
    (coefficient axis first) give one residual per sample.
    """
    return (conjugate(params, AlgebraElement(alpha)) - AlgebraElement(beta)).norm()
