import numpy as np
import pytest
from scipy.integrate import quad

from ptdyson import (
    Scenario,
    TimeProfile,
    driver_diff_integral,
    energy_expectation,
    f_minus_profile,
    f_plus_profile,
    f_pm,
    gamma_closed_form,
    hermitian_counterpart,
    scenario_h,
    scenario_hamiltonian,
)
from ptdyson.errors import ConstraintViolationError


def default_scenario(**kw):
    base = dict(
        a=TimeProfile.sinusoid(1.0, 0.2, 2.0),
        lam=TimeProfile.sinusoid(0.5, 0.3, 1.0),
        q2=1.0,
        q3=0.4,
    )
    base.update(kw)
    return Scenario(**base)


def test_scenario_guards():
    with pytest.raises(ConstraintViolationError):
        default_scenario(q3=1.0)
    with pytest.raises(ConstraintViolationError, match=r"^n must be >= 0"):
        default_scenario(n=-1)


def test_drivers_collapse_without_mixing():
    flat = default_scenario(q3=0.0)
    for t in (0.0, 1.1, 4.2):
        fp, fm = f_pm(flat, t)
        assert fp == fm == flat.a(t)
    silent = default_scenario(lam=TimeProfile.constant(0.0))
    fp, fm = f_pm(silent, 2.0)
    assert fp == fm == silent.a(2.0)


def test_driver_sum_rule():
    sc = default_scenario()
    t = np.linspace(0.0, 9.5, 40)
    fp, fm = f_pm(sc, t)
    assert np.max(np.abs(fp + fm - 2.0 * sc.a(t))) < 1e-14


def test_driver_splitting_matches_hermitian_image():
    # (f_plus - f_minus)/2 must equal the K1-K2 splitting of the
    # counterpart evaluated on the closed-form trajectory
    sc = default_scenario()
    ep = sc.ep_constants()
    for t in (0.0, 0.8, 3.3, 7.6):
        fp, fm = f_pm(sc, t)
        g3, g4 = gamma_closed_form(sc.lam, ep, t)
        img = hermitian_counterpart(sc.a(t), sc.lam(t), g3, g4).vector
        assert abs(fp - img[0].real) < 1e-12
        assert abs(fm - img[1].real) < 1e-12
        elem = scenario_h(sc, t)
        assert np.max(np.abs(elem.vector - np.array([fp, fm, 0, 0]))) < 1e-15


def test_model_hamiltonian_coefficients():
    sc = default_scenario()
    t = 1.7
    got = scenario_hamiltonian(sc, t).vector
    want = np.array([sc.a(t), sc.a(t), 1j * sc.lam(t), 0.0])
    assert np.max(np.abs(got - want)) < 1e-15


def test_splitting_integral_against_quadrature():
    sc = default_scenario()

    def diff(tau):
        fp, fm = f_pm(sc, tau)
        return fp - fm

    for t in (0.9, 4.4, 9.7):
        ref, _ = quad(diff, 0.0, t, limit=200)
        assert abs(driver_diff_integral(sc, t) - ref) < 1e-8
    assert driver_diff_integral(sc, 0.0) == 0.0


def test_driver_half_profile_interface():
    sc = default_scenario()
    plus, minus = f_plus_profile(sc), f_minus_profile(sc)
    h = 1e-6
    for t in (0.4, 2.1, 6.6):
        fp, fm = f_pm(sc, t)
        assert plus(t) == fp and minus(t) == fm
        for half in (plus, minus):
            fd = (half(t + h) - half(t - h)) / (2 * h)
            assert abs(half.derivative(t) - fd) < 1e-7
            ref, _ = quad(half, 0.0, t, limit=200)
            assert abs(half.cumulative(t) - ref) < 1e-8
    bounded = default_scenario(lam=TimeProfile.sinusoid(0.5, 0.3, 1.0, t_max=4.0))
    for make, kind in ((f_plus_profile, "f_plus"), (f_minus_profile, "f_minus")):
        half = make(bounded)
        assert isinstance(half, TimeProfile) and half.kind == kind
        assert half.t_max == bounded.t_max() == 4.0


def test_energy_ground_state_flat_drive():
    sc = Scenario(
        a=TimeProfile.constant(1.0),
        lam=TimeProfile.constant(0.0),
        q2=1.0,
        q3=0.4,
    )
    for t in (0.0, 1.0, 7.3):
        assert energy_expectation(sc, t) == 1.0


def test_energy_excited_state_with_scale_constant():
    # (n, m) = (1, 0), scale constant 0.75 on the first channel, both
    # drivers pinned at one: 1.5 * 1.25 + 0.5 = 2.375
    sc = Scenario(
        a=TimeProfile.constant(1.0),
        lam=TimeProfile.constant(0.0),
        q2=1.0,
        q3=0.4,
        ktilde_plus=0.75,
        n=1,
        m=0,
    )
    assert abs(energy_expectation(sc, 2.0) - 2.375) < 1e-15


def test_energy_is_real_linear_combination():
    sc = default_scenario(n=2, m=1, ktilde_plus=0.5, ktilde_minus=1.0)
    t = np.linspace(0.0, 9.0, 25)
    fp, fm = f_pm(sc, t)
    want = fp * 2.5 * np.sqrt(1.25) + fm * 1.5 * np.sqrt(2.0)
    got = energy_expectation(sc, t)
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.all(np.isreal(got))


def test_time_horizon_tracks_profiles():
    sc = default_scenario(lam=TimeProfile.sinusoid(0.5, 0.3, 1.0, t_max=4.0))
    assert sc.t_max() == 4.0
