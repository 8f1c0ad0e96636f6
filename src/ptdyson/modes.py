"""Exact single-mode wavefunctions for a driven oscillator, and 2D products.

For a Hamiltonian d(t) K with K = (p^2 + x^2)/2 and any real driver d(t),
the time-dependent Schroedinger equation is solved exactly by

    mode_n(x, t) = e^{i phase_n(t)} / sqrt(kt(t))
                   * exp[ ( i ktdot/(d kt) - 1/kt^2 ) x^2 / 2 ]
                   * H_n(x / kt) / sqrt(2^n n! sqrt(pi)),

where the scale function kt(t) obeys the auxiliary equation

    ktdotdot - (ddot/d) ktdot + d^2 kt = d^2 / kt^3

and phase_n = -(n + 1/2) * integral of d / kt^2.  With A(t) the cumulative
driver integral, the closed-form scale

    kt = sqrt( ktilde cos(2 A) + sqrt(1 + ktilde^2) )

solves the auxiliary equation for any constant ktilde and stays strictly
positive; ep_classical gives it and ep_classical_rate its analytic rate,
which ermakov_quantity takes, and dyson.ep_residual with (sign, const) =
(+1, 1) is the equation's finite-difference residual.  The ratio
ktdot/(d kt) reduces to -ktilde sin(2A)/kt^2, so the mode itself never
divides by the driver; the evaluation contract still rejects driver zeros
since the generic ansatz is singular there.

The phase integral has the closed form arctan[g tan(A)] with
g = sqrt((r - ktilde)/(r + ktilde)), r = sqrt(1 + ktilde^2), unwrapped
branch-safely; note g's defining products satisfy r^2 - ktilde^2 = 1, which
is why no prefactor appears.

Every Hermite polynomial, here and in the static eigenstates, comes from
one run of the three-term recurrence _hermite_upto, which yields H_0..H_n;
the mode has one expression, _mode_pair_at, which forms psi and psi''.

The 2D solutions of h(t) = f_plus K1 + f_minus K2 are plain products of one
mode per axis with the split drivers of the energy module; the `modes`
command evaluates each mode once per axis point.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dyson import driver_value
from .energy import f_minus_profile, f_plus_profile
from .errors import ConstraintViolationError, UnsupportedDegreeError, _square

MAX_HERMITE_DEGREE = 60


def _hermite_upto(n, x):
    """H_0(x), ..., H_n(x) in turn, from one run of the three-term recurrence.

    A generator, so a caller holds only the degrees it keeps.
    """
    if n < 0 or int(n) != n:
        raise UnsupportedDegreeError(f"degree must be a nonnegative integer, got {n}")
    if n > MAX_HERMITE_DEGREE:
        raise UnsupportedDegreeError(
            f"degree {n} above cap {MAX_HERMITE_DEGREE}"
        )
    x = np.asarray(x)
    h_prev = np.ones_like(x, dtype=float)[()]
    yield h_prev
    if n == 0:
        return
    h = 2.0 * x
    yield h
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
        yield h


@dataclass(frozen=True)
class ModeSpec:
    """One mode channel: quantum number, driver profile, scale constant.

    channel is a cosmetic tag ('+' or '-') naming which split driver the
    spec belongs to in a 2D product.
    """

    n: int
    driver: object
    ktilde: float
    channel: str = "+"

    def __post_init__(self):
        if self.n < 0 or int(self.n) != self.n:
            raise ConstraintViolationError("mode number must be an integer >= 0")
        if self.channel not in ("+", "-"):
            raise ConstraintViolationError("channel tag must be '+' or '-'")


def _scale(ktilde, a_int):
    # kt as a function of the driver's running integral A(t)
    r = np.sqrt(1.0 + _square("ktilde", ktilde))
    return np.sqrt(ktilde * np.cos(2.0 * a_int) + r)


def ep_classical(ktilde, driver, t):
    """Closed-form scale function kt(t); strictly positive for any ktilde."""
    return _scale(ktilde, driver.cumulative(t))


def ep_classical_rate(ktilde, driver, t):
    """Analytic d/dt of the closed-form scale function."""
    a_int = driver.cumulative(t)
    return -ktilde * driver(t) * np.sin(2.0 * a_int) / _scale(ktilde, a_int)


def ermakov_quantity(scale_fn, rate_fn, driver, t):
    """The conserved combination [d^2 (1 + kt^4) + kt^2 ktdot^2] / (d^2 kt^2).

    Constant along any solution of the auxiliary equation; equals
    2 sqrt(1 + ktilde^2) on the closed-form scale.  kt = scale_fn(t) and
    ktdot = rate_fn(t) (ep_classical_rate for the closed form).  Scalar or
    array t; the callables must accept what t is.
    """
    d_t = driver_value(driver, t)
    kt, rate = scale_fn(t), rate_fn(t)
    return (d_t**2 * (1.0 + kt**4) + kt**2 * rate**2) / (d_t**2 * kt**2)


def phase_integral(ktilde, driver, t):
    """Integral from 0 to t of driver / kt^2, in closed form.

    Substituting theta = A(t) gives integrand 1/(ktilde cos(2 theta) + r);
    the primitive arctan[g tan(theta)] is unwrapped by shifting theta to
    its nearest multiple of pi and adding the winding back.
    """
    return _phase(ktilde, driver.cumulative(t))


def _phase(ktilde, a_int):
    # phase_integral as a function of the driver's running integral A(t)
    r = np.sqrt(1.0 + _square("ktilde", ktilde))
    g = np.sqrt((r - ktilde) / (r + ktilde))
    theta = np.asarray(a_int, dtype=float)
    winding = np.round(theta / np.pi)
    reduced = theta - winding * np.pi
    return winding * np.pi + np.arctan2(g * np.sin(reduced), np.cos(reduced))


def _time_factors(spec, t):
    """The pieces of the mode that depend on t alone.

    Returns (kt, W, amp, norm): the scale, the complex width
    W = i ktdot/(d kt) - 1/kt^2, amp = e^{i phase_n} / sqrt(kt) and the
    Hermite normalization; the first three are shaped like t.  Raises
    SingularEvaluationError when the driver vanishes at any t (the generic
    ansatz divides by it, even though the closed-form scale cancels the
    division analytically).
    """
    driver_value(spec.driver, t)
    a_int = spec.driver.cumulative(t)
    kt = _scale(spec.ktilde, a_int)
    # i ktdot/(d kt) - 1/kt^2 with the driver cancelled from the ratio.
    width = (-1.0j * spec.ktilde * np.sin(2.0 * a_int) - 1.0) / kt**2
    phase = -(spec.n + 0.5) * _phase(spec.ktilde, a_int)
    norm = math.sqrt(2.0**spec.n * math.factorial(spec.n) * math.sqrt(math.pi))
    amp = np.exp(1.0j * phase) / np.sqrt(kt)
    return kt, width, amp, norm


def pedrosa_mode(spec, x, t):
    """The normalized n-th mode at position(s) x and time(s) t.

    x and t broadcast against each other: t of shape (T, 1) against x of
    shape (P,) gives a (T, P) array.  Unit L2 norm for every t; solves
    i d/dt psi = driver(t) K psi.  Raises SingularEvaluationError when the
    driver vanishes at any t.
    """
    return _mode_pair_at(spec, x, _time_factors(spec, t))[0]


def _mode_pair_at(spec, x, time_factors):
    """The mode psi and its second x-derivative psi'' from _time_factors' output.

    For psi = C exp(W x^2 / 2) H_n(x/kt), analytically,
    psi'' = C exp(W x^2/2) [ (W + W^2 x^2) H_n
                             + (4 n W x / kt) H_{n-1}
                             + (4 n (n-1) / kt^2) H_{n-2} ];
    the quadrature oracles use it, where a grid check would lose too many
    digits.  A caller that evaluates the pair on many x at the same times
    computes the time factors once; each call forms one Gaussian and runs
    one Hermite recurrence, whose H_n, H_{n-1} and H_{n-2} serve both.
    """
    x = np.asarray(x, dtype=float)
    n = spec.n
    kt, width, amp, norm = time_factors
    gauss = np.exp(0.5 * width * x**2)
    h = deque(_hermite_upto(n, x / kt), maxlen=3)  # ..., H_{n-1}, H_n
    total = (width + width**2 * x**2) * h[-1]
    if n >= 1:
        total = total + (4.0 * n * width * x / kt) * h[-2]
    if n >= 2:
        total = total + (4.0 * n * (n - 1) / kt**2) * h[-3]
    return amp * gauss * h[-1] / norm, amp / norm * gauss * total


def k1_expectation(spec):
    """Expectation of the oscillator generator in the n-th mode.

    (n + 1/2) sqrt(1 + ktilde^2), constant in time.
    """
    return (spec.n + 0.5) * np.sqrt(1.0 + _square("ktilde", spec.ktilde))


def product_specs(n, m, scenario):
    """The two mode channels of a 2D product.

    Mode n on x under f_plus and mode m on y under f_minus.
    """
    spec_x = ModeSpec(n, f_plus_profile(scenario), scenario.ktilde_plus, "+")
    spec_y = ModeSpec(m, f_minus_profile(scenario), scenario.ktilde_minus, "-")
    return spec_x, spec_y


def product_state(n, m, scenario, x, y, t):
    """The 2D solution for h(t): one mode per axis with the split drivers.

    x, y and t broadcast against each other; for a grid, pass the axes as
    x[:, None] and y[None, :], so each mode is evaluated once per axis
    point rather than once per grid point.
    """
    spec_x, spec_y = product_specs(n, m, scenario)
    return pedrosa_mode(spec_x, x, t) * pedrosa_mode(spec_y, y, t)
