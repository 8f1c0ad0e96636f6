"""Time-dependent mapping between the non-Hermitian model and its Hermitian twin.

The model Hamiltonian is H(t) = a(t)(K1 + K2) + i lam(t) K3.  An invertible
ordered-product group element eta(t) with real parameters maps it to a
Hermitian counterpart via h = eta H eta^{-1} + i etadot eta^{-1}.  Demanding
h Hermitian pins two of the parameters to the coupled system

    g3dot = -lam cosh(g4),      g4dot = lam tanh(g3) sinh(g4),

while g1 = g2 = q1 stays a free constant that cancels from h (asserted in
the tests, not assumed).  This module solves that system two ways, by
direct adaptive integration and by closed forms parameterized by two
integration constants (q2, q3), and provides the resulting Hermitian
counterpart h(t), the energy operator, and residual diagnostics including
the auxiliary scale-function equation

    chidot2 - (lamdot/lam) chidot - lam^2 chi = kappa^2 lam^2 / chi^3

satisfied by chi = cosh(g3).  One residual, ep_residual, serves this
equation and the modes' auxiliary equation, which differ in a sign and a
constant.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra_u2 import AlgebraElement, conjugate, time_term
from .errors import ConstraintViolationError, IntegrationError, SingularEvaluationError

# Below this magnitude a driver coefficient counts as singular for the
# checks that divide by it.
EPS_DRIVER = 1e-8

# Error target of the ODE route at every sample, relative to 1 + |value|,
# and the most RK4 steps per sample interval it may take to reach it.
_ODE_TOL = 1e-10
_ODE_MAX_STEPS = 1024


@dataclass(frozen=True)
class EPConstants:
    """Integration constants of the closed-form trajectory.

    q2 shifts the running integral of lam; q3 in (-1, 1) sets the conserved
    combination kappa = sinh(g4) cosh(g3) = q3 / sqrt(1 - q3^2).
    """

    q2: float
    q3: float
    kappa: float = field(init=False)

    def __post_init__(self):
        if not abs(self.q3) < 1.0:
            raise ConstraintViolationError(
                f"q3 must satisfy |q3| < 1, got {self.q3}"
            )
        object.__setattr__(
            self, "kappa", self.q3 / np.sqrt(1.0 - self.q3**2)
        )

    def _splitting_primitive(self, u):
        """P(u) = -arctan[kappa tanh(u)], the splitting's primitive in u = q2 - L."""
        return -np.arctan(self.kappa * np.tanh(u))

    def _splitting_integral(self, lam, t):
        """Integral from 0 to t of the splitting lam sinh(g4) / cosh(g3) of h.

        P(q2 - L(t)) - P(q2), L the running integral of lam (L(0) = 0); the
        split drivers and the Hermitian-side invariant both use it.
        """
        primitive = self._splitting_primitive
        return primitive(self.q2 - lam.cumulative(t)) - primitive(self.q2)


def fit_ep_constants(gamma3_0, gamma4_0):
    """Constants (q2, q3) whose closed-form trajectory starts at the given point.

    Inverts the t = 0 closed forms: kappa is read off the conserved
    combination and q2 from the g3 branch.
    """
    kappa = np.sinh(gamma4_0) * np.cosh(gamma3_0)
    q3 = kappa / np.sqrt(1.0 + kappa**2)
    q2 = np.arcsinh(np.sinh(gamma3_0) * np.sqrt(1.0 - q3**2))
    return EPConstants(q2=float(q2), q3=float(q3))


def solve_gamma_ode(lam, gamma3_0, gamma4_0, times):
    """Integrate the Hermiticity constraint system on the given grid.

    Classical RK4 with the same number of steps in every sample interval,
    doubled from 2 until the Richardson estimate |y_2n - y_n| / 15 of the
    error of the finer run is at most 1e-10 (1 + |y|) at every sample; the
    finer run's (g3, g4), each shaped like times, is returned.  Raises
    IntegrationError, with the failure time in t_fail, where the driver is
    not finite, and where the state is not finite or the estimate still
    fails at 1024 steps per interval.
    """
    times = np.asarray(times, dtype=float)
    y0 = (float(gamma3_0), float(gamma4_0))
    with np.errstate(all="ignore"):
        coarse = _rk4_samples(lam, times, y0, 2)
        steps = 4
        while True:
            fine = _rk4_samples(lam, times, y0, steps)
            error = np.abs(fine - coarse) / 15.0
            # NaN (a run cut short) fails the comparison as well
            settled = np.all(error <= _ODE_TOL * (1.0 + np.abs(fine)), axis=0)
            if settled.all():
                return fine[0], fine[1]
            if steps >= _ODE_MAX_STEPS:
                t_fail = float(times[np.argmin(settled)])
                raise IntegrationError(
                    f"constraint integration failed at t = {t_fail}: state "
                    f"not finite, or error estimate above {_ODE_TOL:g}, at "
                    f"{steps} RK4 steps per sample interval",
                    t_fail=t_fail,
                )
            coarse, steps = fine, 2 * steps


def _rk4_samples(lam, times, y0, steps):
    """(g3, g4) at the samples by RK4 with `steps` equal steps per interval.

    lam is evaluated once, on every step's start, midpoint and end, and
    the steps run on Python floats.  The run stops at the first sample with
    a non-finite state, or where a rate overflows, and leaves that sample
    and the later ones NaN.  Call under np.errstate.
    """
    frac = np.arange(2 * steps) / (2 * steps)
    stage_times = np.append(
        (times[:-1, None] + np.diff(times)[:, None] * frac).ravel(), times[-1]
    )
    lam_stages = lam(stage_times)
    bad = np.flatnonzero(~np.isfinite(lam_stages))
    if bad.size:
        t_fail = float(stage_times[bad[0]])
        raise IntegrationError(
            f"constraint integration failed at t = {t_fail}: "
            f"driver value {lam_stages[bad[0]]}",
            t_fail=t_fail,
        )
    lam_stages = lam_stages.tolist()

    def rates(lam_value, g3, g4):
        # gamma_rates on Python floats: math costs a third of a numpy ufunc
        return -lam_value * math.cosh(g4), lam_value * math.tanh(g3) * math.sinh(g4)

    out = np.full((2, times.size), np.nan)
    out[:, 0] = y0
    g3, g4 = out[:, 0].tolist()
    step = 0
    try:
        for k, width in enumerate(np.diff(times).tolist(), start=1):
            h = width / steps
            for _ in range(steps):
                l0, lm, l1 = lam_stages[2 * step:2 * step + 3]
                a3, a4 = rates(l0, g3, g4)
                b3, b4 = rates(lm, g3 + 0.5 * h * a3, g4 + 0.5 * h * a4)
                c3, c4 = rates(lm, g3 + 0.5 * h * b3, g4 + 0.5 * h * b4)
                d3, d4 = rates(l1, g3 + h * c3, g4 + h * c4)
                g3 = g3 + h / 6.0 * (a3 + 2.0 * (b3 + c3) + d3)
                g4 = g4 + h / 6.0 * (a4 + 2.0 * (b4 + c4) + d4)
                step += 1
            if not (math.isfinite(g3) and math.isfinite(g4)):
                break
            out[:, k] = g3, g4
    except OverflowError:
        # math raises where numpy gives inf: a non-finite state all the same
        pass
    return out


def gamma_closed_form(lam, constants, t):
    """Closed-form (g3, g4) at time t (scalar or array).

    Canonical branch-safe evaluation:

        u  = q2 - integral of lam
        g3 = arcsinh( sinh(u) / sqrt(1 - q3^2) )
        g4 = arcsinh( kappa / cosh(g3) )

    The second line is smooth through q3 = 0 and keeps the conserved
    combination sinh(g4) cosh(g3) = kappa exact by construction.  The tests
    cross-check it against an algebraically equivalent arctanh form.
    """
    q3 = constants.q3
    u = constants.q2 - lam.cumulative(t)
    g3 = np.arcsinh(np.sinh(u) / np.sqrt(1.0 - q3**2))
    g4 = np.arcsinh(constants.kappa / np.cosh(g3))
    return g3, g4


def gamma_rates(lam_value, gamma3, gamma4):
    """Right-hand side of the constraint system at a point."""
    g3dot = -lam_value * np.cosh(gamma4)
    g4dot = lam_value * np.tanh(gamma3) * np.sinh(gamma4)
    return g3dot, g4dot


def chi_closed_form(lam, constants):
    """The scale function chi(t) = cosh(g3(t)) as a callable.

    chi = sqrt[(cosh(u)^2 - q3^2) / (1 - q3^2)] with u = q2 - cumulative(lam).
    """
    q3 = constants.q3

    def chi(t):
        u = constants.q2 - lam.cumulative(t)
        return np.sqrt((np.cosh(u) ** 2 - q3**2) / (1.0 - q3**2))

    return chi


def driver_value(profile, t):
    """profile(t) for scalar or array t.

    Raises SingularEvaluationError, naming the first such t, if
    |profile(t)| <= EPS_DRIVER or profile(t) is not finite anywhere: the
    checks that call this divide by the driver, and an array call fails as
    a whole.
    """
    value = profile(t)
    bad = np.flatnonzero(~(np.isfinite(value) & (np.abs(value) > EPS_DRIVER)))
    if bad.size:
        first, t_first = np.ravel(value)[bad[0]], np.ravel(t)[bad[0]]
        if not np.isfinite(first):
            raise SingularEvaluationError(f"driver value {first} at t = {t_first}")
        raise SingularEvaluationError(
            f"driver magnitude {abs(first):.2e} <= {EPS_DRIVER} at t = {t_first}"
        )
    return value


# The package's five-point weights, times 12 h ** order, on the nodes
# t + (j - c) h, j = 0..4: first derivatives with t at node c = 2, 0 and 4,
# then the central second derivative.  Summed left to right, node by node.
_FIVE_POINT = np.array([
    [1.0, -8.0, 0.0, 8.0, -1.0],
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [3.0, -16.0, 36.0, -48.0, 25.0],
    [-1.0, 16.0, -30.0, 16.0, -1.0],
])


def central_derivatives(fn, t, h):
    """fn(t) with its first two derivatives by 4th-order central differences.

    Five-point stencil t + k h, k = -2..2, evaluated by one call of fn on
    the (5, *t.shape) array of nodes, so fn must broadcast over array t;
    returns (value, first, second), each shaped like t.
    """
    t = np.asarray(t, dtype=float)
    nodes = t + np.arange(-2.0, 3.0).reshape((5,) + (1,) * t.ndim) * h
    stencil = np.broadcast_to(fn(nodes), nodes.shape)
    d1, d2 = (sum(w * s for w, s in zip(_FIVE_POINT[i], stencil)) for i in (0, 3))
    return stencil[2], d1 / (12 * h), d2 / (12 * h**2)


def first_derivative(fn, t, h, t_max=np.inf):
    """First derivative of fn at t by a 4th-order five-point difference.

    Central where the nodes t + k h, k = -2..2, lie in [0, t_max], else the
    one-sided row from the end they would leave (profiles refuse times
    outside their domain).  fn is called once per node on an array shaped
    like t; its result's trailing axes broadcast against t.
    """
    t = np.asarray(t, dtype=float)
    row = np.where(t - 2.0 * h < 0.0, 1, np.where(t + 2.0 * h <= t_max, 0, 2))
    weights = np.moveaxis(_FIVE_POINT[row], -1, 0)
    offsets = np.arange(5.0).reshape((5,) + (1,) * t.ndim) - np.choose(row, (2, 0, 4))
    return sum(w * fn(t + k * h) for w, k in zip(weights, offsets)) / (12 * h)


def ep_residual(scale, driver, t, step, sign, const):
    """Pointwise residual of an Ermakov-Pinney equation for the scale.

    |xdotdot - (ddot/d) xdot + sign d^2 x - const d^2 / x^3| for x = scale(t)
    and d = driver(t), with the derivatives of x by 4th-order central
    differences at `step`, at scalar or array t.  The map's scale chi =
    cosh(g3) takes (sign, const) = (-1, kappa^2) under lam; a mode's scale
    takes (+1, 1) under its driver.  Raises SingularEvaluationError if
    |driver(t)| <= EPS_DRIVER at any t, for the whole array.
    """
    d_t = driver_value(driver, t)
    x, d1, d2 = central_derivatives(scale, t, step)
    ddot = driver.derivative(t)
    res = d2 - (ddot / d_t) * d1 + sign * d_t**2 * x - const * d_t**2 / x**3
    return abs(res)


def nonhermitian_hamiltonian(a_value, lam_value):
    """H = a (K1 + K2) + i lam K3 at fixed coefficient values."""
    return AlgebraElement([a_value, a_value, 1.0j * lam_value, 0.0])


def hermitian_counterpart(a_value, lam_value, gamma3, gamma4):
    """The Hermitian image h = a (K1 + K2) + (lam/2)(sinh g4 / cosh g3)(K1 - K2)."""
    split = 0.5 * lam_value * np.sinh(gamma4) / np.cosh(gamma3)
    return AlgebraElement([a_value + split, a_value - split, 0.0, 0.0])


def energy_operator(a_value, lam_value, gamma3, gamma4):
    """The observable eta^{-1} h eta with real expectation values.

    Closed form: a (K1+K2) + (lam/4) sinh(2 g4) (K1-K2)
    - i lam sinh(g4)^2 K3 + i lam sinh(g4) tanh(g3) K4.
    """
    s4 = np.sinh(gamma4)
    split = 0.25 * lam_value * np.sinh(2.0 * gamma4)
    return AlgebraElement([
        a_value + split,
        a_value - split,
        -1.0j * lam_value * s4**2,
        1.0j * lam_value * s4 * np.tanh(gamma3),
    ])


def dyson_residual(a, lam, params, params_dot, t):
    """Coefficient-norm residual of the defining relation at time t.

    || eta H eta^{-1} + i etadot eta^{-1} - h || with H built from the
    profiles and h from the Hermitian counterpart closed form at the given
    parameters.  Small only when (params, params_dot) lie on the constraint
    manifold.  Parameters and velocities are (4, ...) stacks; array t takes
    them stacked to match.
    """
    a_t = a(t)
    lam_t = lam(t)
    big_h = nonhermitian_hamiltonian(a_t, lam_t)
    lhs = conjugate(params, big_h) + time_term(params, params_dot)
    h = hermitian_counterpart(a_t, lam_t, params[2], params[3])
    return (lhs - h).norm()


def scenario_params(constants, lam, t, q1=0.0):
    """Map parameters (q1, q1, g3, g4) at time t, closed form, shape (4, ...)."""
    g3, g4 = gamma_closed_form(lam, constants, t)
    return np.array(np.broadcast_arrays(q1, q1, g3, g4), dtype=float)


def scenario_rates(constants, lam, t):
    """Parameter velocities (g1dot, g2dot, g3dot, g4dot) at time t, shape (4, ...)."""
    g3, g4 = gamma_closed_form(lam, constants, t)
    g3dot, g4dot = gamma_rates(lam(t), g3, g4)
    return np.array(np.broadcast_arrays(0.0, 0.0, g3dot, g4dot))
