import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from ptdyson import (
    ModeSpec,
    Scenario,
    TimeProfile,
    ep_classical,
    ep_classical_rate,
    ep_oscillator_residual,
    ermakov_quantity,
    hermite,
    k1_expectation,
    pedrosa_mode,
    pedrosa_mode_xx,
    phase_integral,
    product_state,
)
from ptdyson import modes
from ptdyson.errors import (
    ConstraintViolationError,
    SingularEvaluationError,
    UnsupportedDegreeError,
)

DRIVER = TimeProfile.sinusoid(1.0, 0.2, 2.0)


def gauss_inner(f, g, lo=-12.0, hi=12.0, panels=6, order=32):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        ws = 0.5 * (b - a) * weights
        total = total + np.sum(ws * np.conj(f(xs)) * g(xs))
    return total


def test_hermite_low_orders():
    assert hermite(0, 1.7) == 1.0
    assert hermite(1, 2.0) == 4.0
    xs = np.linspace(-2.0, 2.0, 9)
    assert np.max(np.abs(hermite(2, xs) - (4 * xs**2 - 2))) < 1e-12
    assert np.max(np.abs(hermite(5, xs) - (32 * xs**5 - 160 * xs**3 + 120 * xs))) < 1e-10


def test_hermite_against_numpy():
    rng = np.random.default_rng(13)
    xs = rng.uniform(-3.0, 3.0, size=20)
    for n in (3, 7, 12, 25):
        coeff = np.zeros(n + 1)
        coeff[n] = 1.0
        ref = np.polynomial.hermite.hermval(xs, coeff)
        got = hermite(n, xs)
        assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))


def test_hermite_degree_guards():
    with pytest.raises(UnsupportedDegreeError):
        hermite(-1, 0.5)
    with pytest.raises(UnsupportedDegreeError):
        hermite(2.5, 0.5)
    with pytest.raises(UnsupportedDegreeError):
        hermite(61, 0.5)


def test_mode_spec_guards():
    with pytest.raises(ConstraintViolationError):
        ModeSpec(-1, DRIVER, 0.5)
    with pytest.raises(ConstraintViolationError):
        ModeSpec(1, DRIVER, 0.5, channel="x")


def test_scale_function_special_values():
    assert ep_classical(0.0, DRIVER, 2.7) == 1.0
    for ktilde in (0.5, 2.0):
        want = np.sqrt(ktilde + np.sqrt(1.0 + ktilde**2))
        assert abs(ep_classical(ktilde, DRIVER, 0.0) - want) < 1e-15


def test_scale_rate_matches_difference_quotient():
    h = 1e-6
    for ktilde in (0.5, 2.0):
        for t in (0.3, 1.4, 4.1):
            fd = (
                ep_classical(ktilde, DRIVER, t + h)
                - ep_classical(ktilde, DRIVER, t - h)
            ) / (2 * h)
            assert abs(ep_classical_rate(ktilde, DRIVER, t) - fd) < 1e-8


def test_scale_function_solves_auxiliary_equation():
    for ktilde in (0.5, 2.0):
        fn = lambda t: ep_classical(ktilde, DRIVER, t)
        for t in (0.3, 1.4, 4.1):
            assert ep_oscillator_residual(fn, DRIVER, t, fd_step=1e-3) < 1e-7


def test_auxiliary_equation_rejects_bystander():
    fake = lambda t: 1.0 + 0.1 * np.sin(t)
    assert ep_oscillator_residual(fake, DRIVER, 1.0) > 1e-3


def test_auxiliary_equation_guards_vanishing_driver():
    silent = TimeProfile.constant(0.0)
    with pytest.raises(SingularEvaluationError):
        ep_oscillator_residual(lambda t: 1.0, silent, 1.0)


def test_ermakov_quantity_on_closed_form():
    for ktilde in (0.0, 0.5, 2.0):
        want = 2.0 * np.sqrt(1.0 + ktilde**2)
        fn = lambda t: ep_classical(ktilde, DRIVER, t)
        rate = lambda t: ep_classical_rate(ktilde, DRIVER, t)
        for t in (0.2, 1.9, 6.3):
            assert abs(ermakov_quantity(fn, DRIVER, t, rate_fn=rate) - want) < 1e-12
            assert abs(ermakov_quantity(fn, DRIVER, t) - want) < 1e-9


def test_ermakov_quantity_on_numerical_solution():
    # conservation must hold for any solution of the auxiliary equation,
    # not only the closed-form scale; integrate one from generic data
    def rhs(t, y):
        d = DRIVER(t)
        ddot = DRIVER.derivative(t)
        return [y[1], (ddot / d) * y[1] - d**2 * y[0] + d**2 / y[0] ** 3]

    sol = solve_ivp(
        rhs, (0.0, 8.0), [1.3, 0.2], method="RK45",
        rtol=1e-11, atol=1e-11, dense_output=True,
    )
    assert sol.success
    fn = lambda t: float(sol.sol(t)[0])
    rate = lambda t: float(sol.sol(t)[1])
    ref = ermakov_quantity(fn, DRIVER, 0.3, rate_fn=rate)
    for t in (1.1, 3.7, 7.6):
        assert abs(ermakov_quantity(fn, DRIVER, t, rate_fn=rate) - ref) < 1e-8


def test_phase_integral_against_quadrature():
    for ktilde in (0.5, 2.0):
        def integrand(tau):
            return DRIVER(tau) / ep_classical(ktilde, DRIVER, tau) ** 2

        for t in (0.9, 4.2, 8.0):  # cumulative(8) > 2 pi, crosses branches
            ref, _ = quad(integrand, 0.0, t, limit=300)
            assert abs(phase_integral(ktilde, DRIVER, t) - ref) < 1e-9


def test_phase_integral_flat_scale():
    # ktilde = 0 pins the scale at one, the phase is the cumulative driver
    for t in (0.7, 5.5):
        assert abs(phase_integral(0.0, DRIVER, t) - DRIVER.cumulative(t)) < 1e-12


def test_static_ground_state():
    spec = ModeSpec(0, TimeProfile.constant(1.0), 0.0)
    xs = np.linspace(-3.0, 3.0, 13)
    t = 1.3
    got = pedrosa_mode(spec, xs, t)
    want = np.exp(-0.5j * t) * np.exp(-0.5 * xs**2) / np.pi**0.25
    assert np.max(np.abs(got - want)) < 1e-14


def test_modes_are_orthonormal():
    rng = np.random.default_rng(19)
    specs = [ModeSpec(n, DRIVER, 0.5) for n in range(5)]
    for t in rng.uniform(0.2, 9.0, size=5):
        for i, si in enumerate(specs):
            for sj in specs[i:]:
                val = gauss_inner(
                    lambda x: pedrosa_mode(si, x, float(t)),
                    lambda x: pedrosa_mode(sj, x, float(t)),
                )
                want = 1.0 if sj.n == si.n else 0.0
                assert abs(val - want) < 1e-8


def test_second_derivative_closed_form():
    spec = ModeSpec(3, DRIVER, 0.5)
    t, h = 1.1, 1e-4
    for x in (-1.7, -0.2, 0.9, 2.4):
        fd = (
            pedrosa_mode(spec, x + h, t)
            - 2.0 * pedrosa_mode(spec, x, t)
            + pedrosa_mode(spec, x - h, t)
        ) / h**2
        assert abs(pedrosa_mode_xx(spec, x, t) - fd) < 1e-5


def test_modes_take_the_running_integral_once(monkeypatch):
    # scale, width and phase all read the driver's running integral; one
    # evaluation per mode call serves all three
    spec = ModeSpec(2, DRIVER, 0.5)
    t = np.array([[0.4], [2.3]])
    x = np.linspace(-2.0, 2.0, 5)
    calls = []
    cumulative = TimeProfile.cumulative

    def counted(self, s):
        calls.append(s)
        return cumulative(self, s)

    monkeypatch.setattr(TimeProfile, "cumulative", counted)
    pedrosa_mode(spec, x, t)
    pedrosa_mode_xx(spec, x, t)
    assert len(calls) == 2


def test_mode_pair_equals_the_two_modes(monkeypatch):
    x = np.linspace(-3.0, 3.0, 7)
    for t in (1.1, np.array([[0.4], [2.3], [7.9]])):
        for n in range(4):
            spec = ModeSpec(n, DRIVER, 0.5)
            psi, psi_xx = modes._mode_pair_at(spec, x, modes._time_factors(spec, t))
            assert np.array_equal(psi, pedrosa_mode(spec, x, t))
            assert np.array_equal(psi_xx, pedrosa_mode_xx(spec, x, t))
    # one pass over the shared factors: one read of the running integral
    calls = []
    cumulative = TimeProfile.cumulative

    def counted(self, s):
        calls.append(s)
        return cumulative(self, s)

    monkeypatch.setattr(TimeProfile, "cumulative", counted)
    # and one Hermite recurrence serves the mode and its second derivative
    recurrences = []
    hermite_upto = modes._hermite_upto

    def counted_upto(n, xi):
        recurrences.append(n)
        return hermite_upto(n, xi)

    monkeypatch.setattr(modes, "_hermite_upto", counted_upto)
    spec = ModeSpec(2, DRIVER, 0.5)
    modes._mode_pair_at(spec, x, modes._time_factors(spec, 1.1))
    assert len(calls) == 1
    assert recurrences == [2]


def test_mode_guards_vanishing_driver():
    silent = TimeProfile.constant(0.0)
    spec = ModeSpec(0, silent, 0.5)
    with pytest.raises(SingularEvaluationError):
        pedrosa_mode(spec, 0.5, 1.0)
    with pytest.raises(SingularEvaluationError):
        pedrosa_mode_xx(spec, 0.5, 1.0)
    with pytest.raises(SingularEvaluationError):
        ermakov_quantity(lambda t: 1.0, silent, 1.0)


def test_oscillator_expectation_values():
    assert k1_expectation(ModeSpec(0, DRIVER, 0.0)) == 0.5
    assert k1_expectation(ModeSpec(2, DRIVER, 0.0)) == 2.5
    assert abs(k1_expectation(ModeSpec(1, DRIVER, 0.75)) - 1.875) < 1e-15


def test_product_state_factorizes_without_mixing():
    sc = Scenario(
        a=DRIVER,
        lam=TimeProfile.constant(0.0),
        q2=1.0,
        q3=0.4,
        ktilde_plus=0.5,
        ktilde_minus=0.3,
    )
    xs = np.linspace(-2.0, 2.0, 7)
    ys = np.linspace(-1.5, 1.5, 7)
    x_grid, y_grid = np.meshgrid(xs, ys, indexing="ij")
    t = 1.7
    joint = product_state(2, 1, sc, x_grid, y_grid, t)
    # with a silent mixing profile both split drivers reduce to the shared
    # base profile
    mode_x = pedrosa_mode(ModeSpec(2, DRIVER, 0.5), xs, t)
    mode_y = pedrosa_mode(ModeSpec(1, DRIVER, 0.3), ys, t)
    assert np.max(np.abs(joint - np.outer(mode_x, mode_y))) < 1e-12


def test_product_state_normalized():
    sc = Scenario(
        a=TimeProfile.sinusoid(1.0, 0.2, 2.0),
        lam=TimeProfile.sinusoid(0.5, 0.3, 1.0),
        q2=1.0,
        q3=0.4,
        ktilde_plus=0.5,
        ktilde_minus=0.5,
    )
    nodes, weights = np.polynomial.legendre.leggauss(48)
    lo, hi = -9.0, 9.0
    t = 2.3
    total = 0.0
    edges = np.linspace(lo, hi, 4)
    for ax, bx in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (ax + bx) + 0.5 * (bx - ax) * nodes
        wx = 0.5 * (bx - ax) * weights
        for ay, by in zip(edges[:-1], edges[1:]):
            ys = 0.5 * (ay + by) + 0.5 * (by - ay) * nodes
            wy = 0.5 * (by - ay) * weights
            x_grid, y_grid = np.meshgrid(xs, ys, indexing="ij")
            psi = product_state(1, 0, sc, x_grid, y_grid, t)
            total += np.einsum("i,j,ij->", wx, wy, np.abs(psi) ** 2)
    assert abs(total - 1.0) < 1e-6
