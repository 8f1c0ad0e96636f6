"""Conserved operators for the driven model and their Hermitian images.

For H(t) = a(K1 + K2) + i lam K3 an operator I_H(t) = sum_i alpha_i(t) K_i
is conserved when dI/dt = i [I, H].  That system integrates in closed form:
with L(t) the running integral of lam and complex constants c1..c4,

    alpha1 = c1/2 + c3 cosh(c4 - L)      alpha2 = c1 - alpha1
    alpha3 = c2                          alpha4 = 2 i c3 sinh(c4 - L).

Demanding that the similarity image eta I_H eta^{-1} be Hermitian pins the
map parameters g3, g4 through ratios of the alpha components and imposes
matching constraints on the constants (checked eagerly at construction):

    Im c1 = 0,   4 Re(c3) Im(c3) = -Re(c2) Im(c2),   2 |Re c3| > |Im c2|,

plus Im c4 = 0, which every closed-form identity downstream relies on.
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

_CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True)
class InvariantCoeffs:
    """Integration constants c1..c4 of the conserved-operator family.

    branch (+1 or -1) picks the sign pairing of the radical closed forms.
    The derived real constants c5..c8 parameterize the evolution-route
    solution; they are only defined for Re(c3) > 0 (None otherwise).
    """

    c1: complex
    c2: complex
    c3: complex
    c4: complex
    branch: int = 1
    c5: float = field(init=False)
    c6: float = field(init=False)
    c7: float = field(init=False)
    c8: float = field(init=False)

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.branch not in (1, -1):
            raise ConstraintViolationError("branch must be +1 or -1")
        scale = max(1.0, *(abs(getattr(self, n)) for n in ("c1", "c2", "c3", "c4")))
        if abs(self.c1.imag) > _CONSTRAINT_TOL * scale:
            raise ConstraintViolationError(
                f"Im c1 = 0 required, got {self.c1.imag}"
            )
        # relative to scale**2: the scaled products cannot overflow
        c2, c3 = self.c2 / scale, self.c3 / scale
        mismatch = 4.0 * c3.real * c3.imag + c2.real * c2.imag
        if abs(mismatch) > _CONSTRAINT_TOL:
            raise ConstraintViolationError(
                "4 Re(c3) Im(c3) = -Re(c2) Im(c2) required, "
                f"mismatch = {mismatch} relative to max(1, |c1|..|c4|)^2"
            )
        if not 2.0 * abs(self.c3.real) > abs(self.c2.imag):
            raise ConstraintViolationError(
                "2 |Re c3| > |Im c2| required, got "
                f"2|Re c3| = {2 * abs(self.c3.real)}, |Im c2| = {abs(self.c2.imag)}"
            )
        if abs(self.c4.imag) > _CONSTRAINT_TOL * scale:
            raise ConstraintViolationError(
                f"Im c4 = 0 required, got {self.c4.imag}"
            )
        if self.c3.real > 0.0:
            s = float(self.branch)
            root = np.sqrt(
                4.0 * _square("Re c3", self.c3.real) - _square("Im c2", self.c2.imag)
            )
            c5 = 0.5 * self.c1.real + 0.5 * s * root
            c6 = 0.5 * self.c1.real - 0.5 * s * root
            c7 = s * self.c2.real * root / (2.0 * self.c3.real)
            c8 = -self.ep_constants()._splitting_primitive(self.c4.real)
            for name, value in zip(("c5", "c6", "c7", "c8"), (c5, c6, c7, c8)):
                object.__setattr__(self, name, float(value))
        else:
            for name in ("c5", "c6", "c7", "c8"):
                object.__setattr__(self, name, None)

    def ep_constants(self):
        """Constants of the closed-form map trajectory this family selects.

        q2 = Re c4 and q3 = -Im(c2) / (2 Re c3); the sign makes the
        g3, g4 recovered from the Hermiticity ratios coincide with the
        canonical closed forms (the other sign lands on the mirrored map
        that negates g4).
        """
        return EPConstants(
            q2=self.c4.real, q3=-self.c2.imag / (2.0 * self.c3.real)
        )


def invariant_coeffs_for(scenario_q2, scenario_q3, c1=1.0, c2_real=0.5,
                         c3_real=0.8, branch=1):
    """The constant family whose map trajectory has the given (q2, q3).

    Inverts ep_constants: Im c2 = -2 Re(c3) q3, and Im c3 follows from the
    matching constraint.  c1, Re c2 and a nonzero Re c3 stay free.
    """
    if c3_real == 0.0:
        raise ConstraintViolationError(f"c3_real must be nonzero, got {c3_real}")
    c2_imag = -2.0 * c3_real * scenario_q3
    c3_imag = -c2_real * c2_imag / (4.0 * c3_real)
    return InvariantCoeffs(
        c1=complex(c1),
        c2=complex(c2_real, c2_imag),
        c3=complex(c3_real, c3_imag),
        c4=complex(scenario_q2),
        branch=branch,
    )


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


def invariant_element(coeffs, lam, t):
    """alpha_coeffs packaged as an AlgebraElement, stacked over array t."""
    return AlgebraElement(alpha_coeffs(coeffs, lam, t))


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

    beta1 and beta2 are constant in t and anti-correlated in coeffs.branch
    (their sum is Re c1); beta3, beta4 carry the time dependence.
    """
    s = float(coeffs.branch)
    c1r = coeffs.c1.real
    c2r, c2i = coeffs.c2.real, coeffs.c2.imag
    c3r = coeffs.c3.real
    c3r_sq = _square("Re c3", c3r)
    # The eager bound 2|Re c3| > |Im c2| keeps r2 > 0.
    r2 = 4.0 * c3r_sq - _square("Im c2", c2i)
    u = coeffs.c4.real - np.asarray(lam.cumulative(t), dtype=float)
    d = np.sqrt(4.0 * c3r_sq - (c2i / np.cosh(u)) ** 2)
    root = np.sqrt(r2)
    beta1 = 0.5 * c1r + 0.5 * s * root
    beta2 = 0.5 * c1r - 0.5 * s * root
    beta3 = s * (c2r / (2.0 * c3r)) * r2 / d
    beta4 = s * (c2r * c2i / (2.0 * c3r)) * (root / d) * np.tanh(u)
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
