import numpy as np
import pytest
from scipy.integrate import quad

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
