"""Decoupled driver coefficients and real instantaneous energies.

On the closed-form map trajectory the Hermitian counterpart splits into two
independent oscillators, h(t) = f_plus(t) K1 + f_minus(t) K2 with

    f_pm = a +- q3 sqrt(1 - q3^2) lam / (1 + cosh(2 q2 - 2 L) - 2 q3^2),

whose denominator is bounded below by 2 (1 - q3^2) > 0.  Each half drives a
single-mode wavefunction (modes module); the energy expectation of the
product state is then the real closed form

    E = f_plus (n + 1/2) sqrt(1 + ktp^2) + f_minus (m + 1/2) sqrt(1 + ktm^2),

with ktp, ktm the scale constants of the two mode channels.  The quadrature
and matrix-backend evaluations of the same number live in the tests and the
fock_oracle module; this module only carries the closed forms.
"""

from dataclasses import dataclass

import numpy as np

from .algebra_u2 import AlgebraElement
from .dyson import EPConstants, nonhermitian_hamiltonian
from .errors import ConstraintViolationError
from .profiles import TimeProfile


@dataclass(frozen=True)
class Scenario:
    """A complete time-dependent run: profiles, map constants, mode numbers.

    q1 is the free constant pair of map parameters (cancels everywhere; kept
    for completeness), (q2, q3) pick the closed-form trajectory, ktilde_plus
    and ktilde_minus the scale constants of the two mode channels, (n, m)
    the quantum numbers of the product state.
    """

    a: object
    lam: object
    q2: float
    q3: float
    q1: float = 0.0
    ktilde_plus: float = 0.0
    ktilde_minus: float = 0.0
    n: int = 0
    m: int = 0

    def __post_init__(self):
        self.ep_constants()  # EPConstants owns the |q3| < 1 check
        for name, value in (("n", self.n), ("m", self.m)):
            if value < 0:
                raise ConstraintViolationError(f"{name} must be >= 0, got {value}")

    def ep_constants(self):
        return EPConstants(q2=self.q2, q3=self.q3)

    def t_max(self):
        return min(self.a.t_max, self.lam.t_max)


def f_pm(scenario, t):
    """The two driver coefficients (f_plus, f_minus) at time t.

    f_plus + f_minus = 2 a(t) identically; the splitting is proportional
    to lam and vanishes for q3 = 0.
    """
    q3 = scenario.q3
    u = scenario.q2 - scenario.lam.cumulative(t)
    denom = 1.0 + np.cosh(2.0 * u) - 2.0 * q3**2
    split = q3 * np.sqrt(1.0 - q3**2) * scenario.lam(t) / denom
    a_t = scenario.a(t)
    return a_t + split, a_t - split


def driver_diff_integral(scenario, t):
    """Integral from 0 to t of f_plus - f_minus, in closed form.

    Antiderivative of the splitting: with kappa = q3/sqrt(1 - q3^2) and
    u(tau) = q2 - L(tau), the primitive is -arctan[kappa tanh(u)].
    """
    kappa = scenario.q3 / np.sqrt(1.0 - scenario.q3**2)

    def primitive(tau):
        u = scenario.q2 - scenario.lam.cumulative(tau)
        return -np.arctan(kappa * np.tanh(u))

    return primitive(t) - primitive(0.0)


def _driver_half(scenario, sign):
    """f_plus (sign +1) or f_minus (sign -1) as a profile on the scenario's domain.

    The rate is analytic, and the running integral uses the closed-form
    antiderivative of the splitting, not quadrature.
    """
    s, q3 = scenario, scenario.q3

    def rate(t):
        u = s.q2 - s.lam.cumulative(t)
        lam_t = s.lam(t)
        lamdot = s.lam.derivative(t)
        denom = 2.0 * (np.cosh(u) ** 2 - q3**2)
        # d/dt[lam/denom]: denom carries du/dt = -lam, so its derivative is
        # -2 lam sinh(2u).
        split_dot = q3 * np.sqrt(1.0 - q3**2) * (
            lamdot / denom + 2.0 * lam_t**2 * np.sinh(2.0 * u) / denom**2
        )
        return s.a.derivative(t) + sign * split_dot

    return TimeProfile(
        "f_plus" if sign > 0 else "f_minus",
        lambda t: f_pm(s, t)[0 if sign > 0 else 1],
        rate,
        lambda t: s.a.cumulative(t) + 0.5 * sign * driver_diff_integral(s, t),
        s.t_max(),
    )


def f_plus_profile(scenario):
    return _driver_half(scenario, +1)


def f_minus_profile(scenario):
    return _driver_half(scenario, -1)


def scenario_h(scenario, t):
    """The Hermitian counterpart h(t) = f_plus K1 + f_minus K2."""
    fp, fm = f_pm(scenario, t)
    return AlgebraElement([fp, fm, 0.0, 0.0])


def scenario_hamiltonian(scenario, t):
    """The non-Hermitian model H(t) at time t."""
    return nonhermitian_hamiltonian(scenario.a(t), scenario.lam(t))


def energy_expectation(scenario, t):
    """Real instantaneous energy of the (n, m) product state at time t."""
    fp, fm = f_pm(scenario, t)
    e_plus = (scenario.n + 0.5) * np.sqrt(1.0 + scenario.ktilde_plus**2)
    e_minus = (scenario.m + 0.5) * np.sqrt(1.0 + scenario.ktilde_minus**2)
    return fp * e_plus + fm * e_minus
