import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from ptdyson import TimeProfile
from ptdyson.errors import DomainError

QUAD_TOL = 1e-10


def test_constant_profile():
    p = TimeProfile.constant(0.5)
    assert p(3.0) == 0.5
    assert p.derivative(1.0) == 0.0
    assert p.cumulative(4.0) == 2.0


def test_sinusoid_at_zero():
    p = TimeProfile.sinusoid(0.5, 0.3, 1.0)
    assert p(0.0) == 0.5


def test_sinusoid_full_period_integral():
    omega = 1.7
    p = TimeProfile.sinusoid(0.0, 0.8, omega)
    assert abs(p.cumulative(2.0 * np.pi / omega)) < 1e-13


def test_polynomial_cumulative_vs_quadrature():
    p = TimeProfile.polynomial([0.3, -1.2, 0.7, 0.05])
    for t in (0.3, 1.0, 4.7):
        ref, _ = quad(p, 0.0, t)
        assert abs(p.cumulative(t) - ref) < QUAD_TOL


def test_exponential_profile_vs_quadrature():
    p = TimeProfile.exponential(0.2, 0.7, -0.4)
    assert abs(p(0.0) - 0.9) < 1e-15
    for t in (0.5, 2.0, 6.0):
        ref, _ = quad(p, 0.0, t)
        assert abs(p.cumulative(t) - ref) < QUAD_TOL


def test_tabulated_reproduces_nodes():
    times = [0.0, 0.5, 1.0, 2.0, 3.0]
    values = [1.0, 0.4, -0.2, 0.9, 1.3]
    p = TimeProfile.tabulated(times, values)
    for t, v in zip(times, values):
        assert abs(p(t) - v) < 1e-14
    assert p.t_max == 3.0


def test_tabulated_cumulative_vs_quadrature():
    # the spline is the profile, so its exact antiderivative must match
    # quadrature of the spline itself
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 4.0, 9)
    p = TimeProfile.tabulated(times, rng.normal(size=9))
    for t in (0.7, 2.2, 4.0):
        ref, _ = quad(p, 0.0, t, limit=400, epsabs=1e-12, epsrel=1e-12)
        assert abs(p.cumulative(t) - ref) < QUAD_TOL


@pytest.mark.parametrize(
    "profile",
    [
        TimeProfile.polynomial([0.1, 0.8, -0.3]),
        TimeProfile.sinusoid(1.0, 0.2, 2.0, phase=0.3),
        TimeProfile.exponential(0.0, 1.0, 0.25),
        TimeProfile.tabulated(
            np.linspace(0.0, 5.0, 11), np.sin(np.linspace(0.0, 5.0, 11))
        ),
    ],
)
def test_derivative_matches_difference_quotient(profile):
    h = 1e-6
    for t in (0.4, 1.3, 2.9):
        fd = (profile(t + h) - profile(t - h)) / (2.0 * h)
        assert abs(profile.derivative(t) - fd) < 1e-6 * max(1.0, abs(fd))


def test_cumulative_derivative_is_value():
    p = TimeProfile.sinusoid(0.5, 0.3, 1.0)
    h = 1e-6
    for t in (0.2, 1.7, 6.4):
        fd = (p.cumulative(t + h) - p.cumulative(t - h)) / (2.0 * h)
        assert abs(fd - p(t)) < 1e-8


def test_cumulative_additivity():
    p = TimeProfile.sinusoid(0.7, 0.4, 1.3, phase=0.1)
    t1, t2 = 0.8, 3.5
    ref, _ = quad(p, t1, t2)
    assert abs((p.cumulative(t2) - p.cumulative(t1)) - ref) < QUAD_TOL


def test_array_evaluation_broadcasts():
    p = TimeProfile.sinusoid(1.0, 0.2, 2.0)
    t = np.linspace(0.0, 3.0, 7)
    assert p(t).shape == t.shape
    assert np.allclose(p(t), [p(float(s)) for s in t])


def test_domain_violations():
    p = TimeProfile.sinusoid(1.0, 0.2, 2.0, t_max=5.0)
    with pytest.raises(DomainError):
        p(-0.1)
    with pytest.raises(DomainError):
        p.cumulative(5.5)
    with pytest.raises(DomainError):
        TimeProfile.constant(1.0, t_max=0.0)


@pytest.mark.parametrize(
    "t_max, edge, slack",
    [(5.0, 5.0, 5e-9), (np.inf, 0.0, -1e-9)],
    ids=["finite", "infinite"],
)
def test_domain_slack_edges(t_max, edge, slack):
    # the domain reaches past each edge by 1e-9 * max(1, t_max), or by 1e-9
    # when t_max is infinite; NaN and the empty array pass
    p = TimeProfile.sinusoid(1.0, 0.2, 2.0, t_max=t_max)
    inside, outside = edge + 0.5 * slack, edge + 2.0 * slack
    accepted = (inside, np.array([1.0, inside]), np.nan, np.array([np.nan, inside]))
    for t in accepted + (np.array([]),):
        p(t)
        p.cumulative(t)
    for t in (outside, np.array([1.0, outside]), np.array([np.nan, outside])):
        with pytest.raises(DomainError, match="outside profile domain"):
            p(t)
        with pytest.raises(DomainError, match="outside profile domain"):
            p.derivative(t)


def test_tabulated_construction_guards():
    with pytest.raises(DomainError):
        TimeProfile.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])  # too few
    with pytest.raises(DomainError):
        TimeProfile.tabulated([0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        TimeProfile.tabulated([0.5, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])


def test_from_config_all_kinds():
    records = [
        {"kind": "constant", "value": 0.4},
        {"kind": "polynomial", "coeffs": [1.0, -0.5]},
        {"kind": "sinusoid", "offset": 0.5, "amp": 0.3, "omega": 1.0},
        {"kind": "exponential", "offset": 0.1, "amp": 0.9, "rate": -0.2},
        {
            "kind": "tabulated",
            "times": [0.0, 1.0, 2.0, 3.0],
            "values": [0.0, 1.0, 0.0, -1.0],
        },
    ]
    for rec in records:
        p = TimeProfile.from_config(rec)
        assert p.kind == rec["kind"]
        assert np.isfinite(p(0.5))
        # scalar t gives a NumPy scalar, which is also a Python float
        for fn in (p, p.derivative, p.cumulative):
            assert isinstance(fn(0.5), np.float64)
    with pytest.raises(DomainError):
        TimeProfile.from_config({"kind": "sawtooth", "amp": 1.0})


@pytest.mark.parametrize(
    "record, field",
    [
        ({"kind": "constant", "value": "0.5"}, "value"),
        ({"kind": "constant", "value": True}, "value"),
        ({"kind": "constant", "value": float("nan")}, "value"),
        ({"kind": "constant"}, "value"),
        ({"kind": "polynomial", "coeffs": 1.0}, "coeffs"),
        ({"kind": "polynomial", "coeffs": []}, "coeffs"),
        ({"kind": "sinusoid", "offset": 1.0, "amp": 0.2, "omega": "2"}, "omega"),
        (
            {"kind": "sinusoid", "offset": 1, "amp": 0, "omega": 2, "phase": None},
            "phase",
        ),
        ({"kind": "exponential", "offset": 0.1, "amp": 0.9}, "rate"),
        (
            {"kind": "tabulated", "times": [0, 1, 2, 3], "values": [0, 1, "2", 3]},
            "values",
        ),
        ({"kind": "constant", "value": 0.4, "t_max": "5"}, "t_max"),
        ({"kind": "sawtooth", "amp": 1.0}, "kind"),
        ({"kind": "constant", "value": 0.4, "t_max": 0.0}, "t_max"),
        ({"kind": "tabulated", "times": [0, 1, 2], "values": [0, 1, 2]}, "times"),
        ({"kind": "tabulated", "times": [0, 2, 1, 3], "values": [0, 1, 2, 3]}, "times"),
        ({"kind": "tabulated", "times": [1, 2, 3, 4], "values": [0, 1, 2, 3]}, "times"),
        ({"kind": "tabulated", "times": [0, 1, 2, 3], "values": [0, 1, 2]}, "values"),
    ],
)
def test_from_config_names_the_malformed_field(record, field):
    with pytest.raises(DomainError, match=f"^{field} "):
        TimeProfile.from_config(record)


def test_from_config_ignores_keys_its_kind_does_not_read():
    # a record switched to another kind keeps the old kind's keys
    p = TimeProfile.from_config({"kind": "constant", "value": 0.4, "omega": "x"})
    assert p(1.0) == 0.4


# Each kind's formulas written out, (profile, value, derivative, integral
# from 0) on an array of times, and compared with ==, so a change of formula
# or of its order of floating-point operations shows.
POLY = np.polynomial.polynomial
T = np.linspace(0.0, 4.0, 37)
NODES = np.linspace(0.0, 4.0, 9)
NODE_VALUES = np.cos(1.3 * NODES) + 0.1 * NODES


def _sinusoid_formulas(offset, amp, omega, phase):
    value = offset + amp * np.sin(omega * T + phase)
    rate = amp * omega * np.cos(omega * T + phase)
    if omega == 0.0:
        integral = (offset + amp * np.sin(phase)) * T
    else:
        integral = offset * T - (amp / omega) * (
            np.cos(omega * T + phase) - np.cos(phase)
        )
    return TimeProfile.sinusoid(offset, amp, omega, phase), value, rate, integral


def _exponential_formulas(offset, amp, rate):
    value = offset + amp * np.exp(rate * T)
    slope = amp * rate * np.exp(rate * T)
    if rate == 0.0:
        integral = (offset + amp) * T
    else:
        integral = offset * T + (amp / rate) * (np.exp(rate * T) - 1.0)
    return TimeProfile.exponential(offset, amp, rate), value, slope, integral


COEFFS = [0.3, -1.2, 0.7, 0.05]
FORMULAS = {
    "constant": (
        TimeProfile.constant(0.7), np.full_like(T, 0.7), np.zeros_like(T), 0.7 * T
    ),
    "polynomial": (
        TimeProfile.polynomial(COEFFS),
        POLY.polyval(T, COEFFS),
        POLY.polyval(T, POLY.polyder(COEFFS)),
        POLY.polyval(T, POLY.polyint(COEFFS)),
    ),
    "sinusoid": _sinusoid_formulas(1.0, 0.3, 1.7, 0.3),
    "sinusoid-omega-0": _sinusoid_formulas(1.0, 0.2, 0.0, 0.3),
    "exponential": _exponential_formulas(0.2, 0.7, -0.4),
    "exponential-rate-0": _exponential_formulas(0.2, 0.7, 0.0),
}


@pytest.mark.parametrize("name", FORMULAS)
def test_each_kind_evaluates_its_formulas_exactly(name):
    profile, value, rate, integral = FORMULAS[name]
    assert profile.kind == name.split("-")[0]
    assert np.array_equal(profile(T), value)
    assert np.array_equal(profile.evaluate(T), value)
    assert np.array_equal(profile.derivative(T), rate)
    assert np.array_equal(profile.cumulative(T), integral)


# The tabulated kind against scipy's not-a-knot CubicSpline as an oracle,
# on the even NODES and on 64 uneven nodes.
UNEVEN = np.append(0.0, np.cumsum(np.random.default_rng(5).uniform(0.02, 0.5, 63)))
SPLINE_CASES = {
    "even": (NODES, NODE_VALUES),
    "uneven-64": (UNEVEN, np.cos(1.3 * UNEVEN) + 0.1 * UNEVEN),
}
SPLINE_TOL = 1e-13


@pytest.mark.parametrize("name", SPLINE_CASES)
def test_tabulated_matches_scipy_spline(name):
    times, values = SPLINE_CASES[name]
    profile = TimeProfile.tabulated(times, values)
    oracle = CubicSpline(times, values)
    t = np.linspace(0.0, times[-1], 1001)
    scale = np.max(np.abs(values))
    integral = oracle.antiderivative()
    for got, want in (
        (profile(t), oracle(t)),
        (profile.derivative(t), oracle.derivative()(t)),
        (profile.cumulative(t), integral(t) - integral(0.0)),
    ):
        assert np.max(np.abs(got - want)) <= SPLINE_TOL * scale
    assert profile.cumulative(0.0) == 0.0


@pytest.mark.parametrize("name", SPLINE_CASES)
def test_tabulated_reproduces_a_cubic(name):
    # a cubic satisfies every spline condition, so it is its own spline
    times, _ = SPLINE_CASES[name]
    cubic = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.05])
    profile = TimeProfile.tabulated(times, cubic(times))
    t = np.linspace(0.0, times[-1], 1001)
    for got, want in (
        (profile(t), cubic(t)),
        (profile.derivative(t), cubic.deriv()(t)),
        (profile.cumulative(t), cubic.integ()(t)),
    ):
        assert np.max(np.abs(got - want)) <= SPLINE_TOL * np.max(np.abs(want))
