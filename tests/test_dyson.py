import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ptdyson import (
    EPConstants,
    TimeProfile,
    chi_closed_form,
    conjugate,
    dyson_residual,
    energy_operator,
    ep_residual,
    fit_ep_constants,
    gamma_closed_form,
    gamma_rates,
    group_matrix,
    hermitian_counterpart,
    nonhermitian_hamiltonian,
    scenario_params,
    scenario_rates,
    solve_gamma_ode,
    to_matrix,
)
from ptdyson.dyson import _rk4_samples, first_derivative
from ptdyson.errors import (
    ConstraintViolationError,
    IntegrationError,
    SingularEvaluationError,
)
from ptdyson.validation import default_scenario, sample_times

LAM = TimeProfile.sinusoid(0.5, 0.3, 1.0)
A = TimeProfile.sinusoid(1.0, 0.2, 2.0)


def gamma_closed_form_alt(lam, constants, t):
    """Alternative closed forms through arctanh, valid for |q3| > 0.

    g3 = arctanh[ tanh(u) / sqrt(1 - q3^2 sech(u)^2) ] and
    g4 = arccoth[ cosh(u) / q3 ] = arctanh[ q3 / cosh(u) ].  Only a
    cross-check of the canonical evaluation; both are singular or
    ill-conditioned where the canonical form is not.
    """
    q3 = constants.q3
    if abs(q3) < 1e-3:
        raise ConstraintViolationError(
            "alternative g4 form needs |q3| > 1e-3 (reciprocal of q3)"
        )
    u = constants.q2 - lam.cumulative(t)
    g3 = np.arctanh(np.tanh(u) / np.sqrt(1.0 - (q3 / np.cosh(u)) ** 2))
    g4 = np.arctanh(1.0 / ((1.0 / q3) * np.cosh(u)))
    return g3, g4


def test_constants_guard_and_conserved_combination():
    c = EPConstants(q2=1.0, q3=0.4)
    assert abs(c.kappa - 0.4 / np.sqrt(1.0 - 0.16)) < 1e-15
    with pytest.raises(ConstraintViolationError, match=r"^q3 must satisfy"):
        EPConstants(q2=0.0, q3=1.0)
    with pytest.raises(ConstraintViolationError, match=r"^q3 must satisfy"):
        EPConstants(q2=0.0, q3=-1.2)


def test_fit_constants_roundtrip():
    g3_0, g4_0 = 0.3, -0.25
    c = fit_ep_constants(g3_0, g4_0)
    g3, g4 = gamma_closed_form(LAM, c, 0.0)
    assert abs(g3 - g3_0) < 1e-12
    assert abs(g4 - g4_0) < 1e-12


def test_ode_constant_when_driver_vanishes():
    lam0 = TimeProfile.constant(0.0)
    times = np.linspace(0.0, 5.0, 40)
    g3, g4 = solve_gamma_ode(lam0, 0.7, -0.2, times)
    assert np.max(np.abs(g3 - 0.7)) < 1e-10
    assert np.max(np.abs(g4 + 0.2)) < 1e-10


def test_ode_decouples_when_gamma4_starts_at_zero():
    # g4 = 0 is a fixed line; g3 then falls at the running integral rate
    times = np.linspace(0.0, 6.0, 50)
    g3, g4 = solve_gamma_ode(LAM, 1.1, 0.0, times)
    assert np.max(np.abs(g4)) < 1e-10
    want = 1.1 - np.array([LAM.cumulative(t) for t in times])
    assert np.max(np.abs(g3 - want)) < 1e-8


@pytest.mark.parametrize("lam", [TimeProfile.constant(0.5), LAM])
def test_ode_matches_closed_form(lam):
    times = np.linspace(0.0, 8.0, 60)
    g3_0, g4_0 = 0.3, -0.25
    ode3, ode4 = solve_gamma_ode(lam, g3_0, g4_0, times)
    g3, g4 = gamma_closed_form(lam, fit_ep_constants(g3_0, g4_0), times)
    assert np.max(np.abs(ode3 - g3)) < 1e-6
    assert np.max(np.abs(ode4 - g4)) < 1e-6


def test_ode_returns_the_pair_shaped_like_times():
    times = np.linspace(0.0, 3.0, 17)
    out = solve_gamma_ode(LAM, 0.3, -0.25, times)
    assert isinstance(out, tuple) and len(out) == 2
    for g in out:
        assert isinstance(g, np.ndarray) and g.dtype == float
        assert g.shape == times.shape


@pytest.mark.parametrize(
    "lam, times",
    [
        (LAM, np.linspace(0.0, 8.0, 60)),
        # stiff: g4 decays like exp(-50 t), to about 1e-109 at t = 5
        (TimeProfile.constant(-50.0), np.linspace(0.0, 5.0, 11)),
    ],
    ids=["sinusoid", "stiff"],
)
def test_ode_matches_scipy(lam, times):
    g3_0, g4_0 = 0.3, -0.25
    ode3, ode4 = solve_gamma_ode(lam, g3_0, g4_0, times)
    ref = solve_ivp(
        lambda t, y: gamma_rates(lam(t), y[0], y[1]),
        (times[0], times[-1]),
        [g3_0, g4_0],
        method="RK45",
        rtol=1e-10,
        atol=1e-10,
        t_eval=times,
    )
    assert ref.success
    scale = 1.0 + np.abs(ref.y)
    assert np.max(np.abs(ode3 - ref.y[0]) / scale[0]) < 1e-8
    assert np.max(np.abs(ode4 - ref.y[1]) / scale[1]) < 1e-8


@pytest.mark.parametrize(
    "lam, t_fail",
    [
        # the driver itself overflows past t = 0.887; the first stage time
        # beyond is 0.9
        (TimeProfile.exponential(0.0, 1.0, 800.0), 0.9),
        # a finite driver so large that the state overflows at every step
        # count up to the cap, from the first sample on
        (TimeProfile.constant(1e300), 0.1),
    ],
    ids=["driver", "state"],
)
def test_ode_overflow_raises_with_failure_time(lam, t_fail):
    # the suite turns a RuntimeWarning into an error, so an overflow that
    # escaped the integrator would fail here as a warning
    with pytest.raises(IntegrationError, match=r"^constraint integration failed") as exc:
        solve_gamma_ode(lam, 0.3, -0.25, np.linspace(0.0, 1.0, 11))
    assert exc.value.t_fail == pytest.approx(t_fail)


def test_ode_route_converges_at_fourth_order():
    scenario = default_scenario()
    times = sample_times()
    consts = scenario.ep_constants()
    g3, g4 = gamma_closed_form(scenario.lam, consts, times)
    y0 = (g3[0], g4[0])
    errors = [
        np.max(np.abs(
            _rk4_samples(scenario.lam, times, y0, steps) - np.array([g3, g4])
        ))
        for steps in (1, 2, 4)
    ]
    # halving the step divides a 4th-order error by about 2^4
    assert errors[0] / errors[1] >= 2**3.5
    assert errors[1] / errors[2] >= 2**3.5


def rk4_with_gamma_rates(lam, times, y0, steps):
    # classical RK4 around the array formula, one sample interval at a time
    out = [y0]
    g3, g4 = y0
    for t0, width in zip(times[:-1], np.diff(times)):
        h = width / steps
        for i in range(steps):
            l0, lm, l1 = (lam(t0 + width * (2 * i + j) / (2 * steps)) for j in range(3))
            a3, a4 = gamma_rates(l0, g3, g4)
            b3, b4 = gamma_rates(lm, g3 + 0.5 * h * a3, g4 + 0.5 * h * a4)
            c3, c4 = gamma_rates(lm, g3 + 0.5 * h * b3, g4 + 0.5 * h * b4)
            d3, d4 = gamma_rates(l1, g3 + h * c3, g4 + h * c4)
            g3 = g3 + h / 6.0 * (a3 + 2.0 * (b3 + c3) + d3)
            g4 = g4 + h / 6.0 * (a4 + 2.0 * (b4 + c4) + d4)
        out.append((g3, g4))
    return np.array(out, dtype=float).T


@pytest.mark.parametrize("steps", [1, 2, 4])
def test_float_rk4_matches_an_rk4_around_gamma_rates(steps):
    scenario = default_scenario()
    times = sample_times()
    g3, g4 = gamma_closed_form(scenario.lam, scenario.ep_constants(), times)
    y0 = (float(g3[0]), float(g4[0]))
    got = _rk4_samples(scenario.lam, times, y0, steps)
    want = rk4_with_gamma_rates(scenario.lam, times, y0, steps)
    # relative to each parameter's scale: math and numpy may round the
    # hyperbolic functions one unit apart, and that carries along the run
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_conserved_combination_drift():
    times = np.linspace(0.0, 8.0, 60)
    g3, g4 = solve_gamma_ode(LAM, 0.4, 0.35, times)
    cons = np.sinh(g4) * np.cosh(g3)
    assert np.max(np.abs(cons - cons[0])) < 1e-8


def test_closed_form_at_zero_coupling_constant():
    # q3 = 0 collapses to g3 = q2 - running integral, g4 = 0
    c = EPConstants(q2=1.0, q3=0.0)
    for t in (0.0, 0.8, 3.3):
        g3, g4 = gamma_closed_form(LAM, c, t)
        assert abs(g3 - (1.0 - LAM.cumulative(t))) < 1e-14
        assert g4 == 0.0


def test_closed_form_satisfies_constraint_system():
    c = EPConstants(q2=1.0, q3=0.4)
    h = 1e-5
    for t in (0.3, 1.2, 2.9, 6.5):
        g3m, g4m = gamma_closed_form(LAM, c, t - h)
        g3p, g4p = gamma_closed_form(LAM, c, t + h)
        g3, g4 = gamma_closed_form(LAM, c, t)
        want3, want4 = gamma_rates(LAM(t), g3, g4)
        assert abs((g3p - g3m) / (2 * h) - want3) < 1e-7
        assert abs((g4p - g4m) / (2 * h) - want4) < 1e-7


def test_alternative_closed_form_agrees():
    c = EPConstants(q2=1.0, q3=0.4)
    for t in (0.0, 0.4, 1.0):
        g3, g4 = gamma_closed_form(LAM, c, t)
        a3, a4 = gamma_closed_form_alt(LAM, c, t)
        assert abs(g3 - a3) < 1e-9
        assert abs(g4 - a4) < 1e-9
    with pytest.raises(ConstraintViolationError):
        gamma_closed_form_alt(LAM, EPConstants(q2=1.0, q3=1e-4), 0.5)


def test_scale_function_is_cosh_of_angle():
    c = EPConstants(q2=1.0, q3=0.4)
    chi = chi_closed_form(LAM, c)
    for t in (0.0, 0.7, 2.5, 5.0):
        g3, _ = gamma_closed_form(LAM, c, t)
        assert abs(chi(t) - np.cosh(g3)) < 1e-12


def test_dissipative_equation_zero_coupling():
    c = EPConstants(q2=1.0, q3=0.0)
    chi = chi_closed_form(LAM, c)
    for t in (0.3, 1.1, 2.6):
        assert ep_residual(chi, LAM, t, 5e-3, -1.0, c.kappa**2) < 1e-8


def test_dissipative_equation_generic():
    c = EPConstants(q2=1.0, q3=0.4)
    chi = chi_closed_form(LAM, c)
    for t in (0.3, 1.1, 2.6):
        assert ep_residual(chi, LAM, t, 5e-3, -1.0, c.kappa**2) < 1e-8


def test_dissipative_equation_rejects_bystander():
    # a smooth positive function that solves nothing
    fake = lambda t: 1.0 + 0.3 * np.sin(2.0 * t)
    c = EPConstants(q2=1.0, q3=0.4)
    for t in (0.3, 1.1, 2.6):
        assert ep_residual(fake, LAM, t, 5e-3, -1.0, c.kappa**2) > 1e-3


def test_dissipative_equation_guards_vanishing_driver():
    c = EPConstants(q2=1.0, q3=0.4)
    chi = chi_closed_form(LAM, c)
    with pytest.raises(SingularEvaluationError):
        ep_residual(chi, TimeProfile.constant(0.0), 1.0, 5e-3, -1.0, c.kappa**2)


def test_first_derivative_is_exact_on_quartics_inside_the_domain():
    # every five-point row differentiates a quartic exactly; near either end
    # of [0, t_max] the one-sided rows keep all nodes inside it
    t_max, h = 1.0, 0.1
    t = np.array([0.0, 0.15, 0.5, 0.85, 1.0])
    calls = []

    def quartic(s):
        calls.append(s)
        assert np.all((s >= 0.0) & (s <= t_max))
        return np.array([s**4 - 2.0 * s**3, 3.0 * s + 1.0])

    got = first_derivative(quartic, t, h, t_max)
    want = np.array([4.0 * t**3 - 6.0 * t**2, np.full_like(t, 3.0)])
    assert np.max(np.abs(got - want)) < 1e-12
    assert len(calls) == 5
    # a scalar t gives a scalar, one-sided at 0
    assert abs(first_derivative(np.sin, 0.0, 1e-3) - 1.0) < 1e-11


def test_hermitian_counterpart_degenerate_cases():
    for elem in (
        hermitian_counterpart(1.3, 0.0, 0.8, -0.4),
        hermitian_counterpart(1.3, 0.7, 0.8, 0.0),
    ):
        assert np.max(np.abs(elem.vector - np.array([1.3, 1.3, 0, 0]))) < 1e-15
    generic = hermitian_counterpart(1.0, 0.5, 0.3, 0.2)
    assert (generic.vector.imag == 0).all()


def test_energy_operator_degenerate_cases():
    for elem in (
        energy_operator(1.3, 0.0, 0.8, -0.4),
        energy_operator(1.3, 0.7, 0.8, 0.0),
    ):
        assert np.max(np.abs(elem.vector - np.array([1.3, 1.3, 0, 0]))) < 1e-15


def test_energy_operator_is_conjugated_counterpart():
    # closed form must equal the matrix conjugation eta^-1 h eta for
    # arbitrary angles, not only on the constraint manifold
    rng = np.random.default_rng(41)
    for _ in range(10):
        a_v, lam_v = rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)
        g3, g4 = rng.normal(scale=0.8, size=2)
        params = np.array([0.0, 0.0, g3, g4])
        h = hermitian_counterpart(a_v, lam_v, g3, g4)
        m = np.linalg.inv(group_matrix(params)) @ to_matrix(h) @ group_matrix(params)
        # decode the 2x2 image: K1, K2 on the diagonal, K3 and K4 off it
        ref = np.array([
            m[0, 0], m[1, 1], m[0, 1] + m[1, 0], 1j * (m[0, 1] - m[1, 0])
        ])
        got = energy_operator(a_v, lam_v, g3, g4)
        assert np.max(np.abs(got.vector - ref)) < 1e-12


def test_residual_vanishes_for_static_map():
    lam0 = TimeProfile.constant(0.0)
    params = np.array([0.0, 0.0, 0.9, -0.3])
    # the coupling term is exactly absent; what remains is rounding in the
    # matrix sandwich
    assert dyson_residual(A, lam0, params, np.zeros(4), 1.7) < 1e-14


def test_residual_small_on_closed_form_trajectory():
    c = EPConstants(q2=1.0, q3=0.4)
    for t in (0.0, 0.7, 2.2, 5.9, 9.4):
        params = scenario_params(c, LAM, t)
        rates = scenario_rates(c, LAM, t)
        assert dyson_residual(A, LAM, params, rates, t) < 1e-8


def test_residual_detects_off_manifold_parameters():
    c = EPConstants(q2=1.0, q3=0.4)
    t = 1.3
    params = scenario_params(c, LAM, t)
    rates = scenario_rates(c, LAM, t)
    bad = np.array([0.0, 0.0, params[2] + 0.1, params[3]])
    assert dyson_residual(A, LAM, bad, rates, t) > 1e-3


def test_scenario_rates_match_difference_quotient():
    c = EPConstants(q2=1.0, q3=0.4)
    h = 1e-5
    for t in (0.4, 1.9, 7.2):
        plus = scenario_params(c, LAM, t + h)
        minus = scenario_params(c, LAM, t - h)
        fd = (plus - minus) / (2 * h)
        assert np.max(np.abs(scenario_rates(c, LAM, t) - fd)) < 1e-7


def test_first_angle_drops_out():
    # equal first two angles sit in the commutant, so the residual and the
    # Hermitian image cannot depend on them
    c = EPConstants(q2=1.0, q3=0.4)
    t = 2.1
    rates = scenario_rates(c, LAM, t)
    r0 = dyson_residual(A, LAM, scenario_params(c, LAM, t, q1=0.0), rates, t)
    r1 = dyson_residual(A, LAM, scenario_params(c, LAM, t, q1=0.7), rates, t)
    assert abs(r0 - r1) < 1e-12
    big_h = nonhermitian_hamiltonian(A(t), LAM(t))
    img0 = conjugate(scenario_params(c, LAM, t, q1=0.0), big_h)
    img1 = conjugate(scenario_params(c, LAM, t, q1=0.7), big_h)
    assert np.max(np.abs(img0.vector - img1.vector)) < 1e-12


SPLITTING_DRIVERS = [
    TimeProfile.constant(0.6),
    TimeProfile.polynomial([0.5, 0.1, -0.01]),
    TimeProfile.sinusoid(0.5, 0.3, 1.0, phase=0.4),
    TimeProfile.exponential(0.4, 0.2, -0.3),
    TimeProfile.tabulated([0.0, 1.0, 2.0, 3.0, 4.0], [0.5, 0.7, 0.6, 0.4, 0.55]),
]


@pytest.mark.parametrize("lam", SPLITTING_DRIVERS, ids=lambda p: p.kind)
def test_splitting_integral_is_the_primitive_difference_bit_for_bit(lam):
    # P(q2 - L(t)) - P(q2 - L(0)) with L(0) = +-0 on every kind, so
    # subtracting P(q2) itself leaves every bit in place
    t = np.linspace(0.0, 4.0, 41)
    for q2, q3 in ((1.0, 0.4), (-0.7, -0.55), (0.0, 0.2)):
        consts = EPConstants(q2=q2, q3=q3)

        def primitive(tau):
            return -np.arctan(consts.kappa * np.tanh(q2 - lam.cumulative(tau)))

        want = primitive(t) - primitive(0.0)
        assert consts._splitting_integral(lam, t).tobytes() == want.tobytes()
        scalar = consts._splitting_integral(lam, 2.5)
        assert np.float64(scalar).tobytes() == (primitive(2.5) - primitive(0.0)).tobytes()
