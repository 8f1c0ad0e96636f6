"""One code path for scalar and array time.

Every closed form that takes t accepts a scalar or an array: an array
gives the same numbers as stacking the scalar calls, and a scalar gives a
NumPy scalar.  The 2x2 layer underneath takes stacked coefficients and
parameters the same way, and so do the mode functions, the scale-equation
residuals, the mode quadrature and the number-basis residuals.
"""

import tracemalloc

import numpy as np
import pytest

from ptdyson import (
    AlgebraElement,
    EPConstants,
    ModeSpec,
    Scenario,
    TimeProfile,
    alpha_coeffs,
    beta_from_match,
    conjugate,
    FockBasis,
    SingularEvaluationError,
    chi_closed_form,
    conservation_residual,
    dyson_residual,
    dyson_residuals,
    energy_expectation,
    ep_classical,
    ep_classical_rate,
    ep_residual,
    ermakov_quantity,
    f_minus_profile,
    f_plus_profile,
    f_pm,
    invariant_coeffs_for,
    pedrosa_mode,
    product_state,
    quasi_hermiticity_residuals,
    scenario_hamiltonian,
    scenario_params,
    scenario_rates,
    similarity_residual,
    time_term,
    verify_dyson,
    verify_quasi_hermiticity,
)
from ptdyson.dyson import central_derivatives, driver_value
from ptdyson.modes import _mode_pair_at, _time_factors
from ptdyson.validation import (
    default_scenario,
    mode_k1_quadrature,
    tdse_residual_2d,
)

NODES = np.linspace(0.0, 10.0, 12)
SCENARIO = Scenario(
    a=TimeProfile.tabulated(NODES, 1.0 + 0.1 * np.sin(1.3 * NODES)),
    lam=TimeProfile.sinusoid(0.5, 0.3, 1.0, phase=0.4),
    q2=-0.7,
    q3=0.35,
    q1=0.2,
    ktilde_plus=0.6,
    ktilde_minus=0.3,
    n=2,
    m=1,
)
CONSTS = EPConstants(q2=SCENARIO.q2, q3=SCENARIO.q3)
COEFFS = invariant_coeffs_for(SCENARIO.q2, SCENARIO.q3)
TIMES = np.linspace(0.0, 10.0, 37)


def value_columns(t):
    lam = SCENARIO.lam
    params = scenario_params(CONSTS, lam, t, q1=SCENARIO.q1)
    f_plus, f_minus = f_pm(SCENARIO, t)
    return [
        params[2],
        params[3],
        *scenario_rates(CONSTS, lam, t),
        *beta_from_match(COEFFS, lam, t),
        f_plus,
        f_minus,
        energy_expectation(SCENARIO, t),
    ]


def residual(t):
    lam = SCENARIO.lam
    return dyson_residual(
        SCENARIO.a,
        lam,
        scenario_params(CONSTS, lam, t, q1=SCENARIO.q1),
        scenario_rates(CONSTS, lam, t),
        t,
    )


def test_array_t_matches_stacked_scalar_calls():
    per_sample = [value_columns(float(t)) for t in TIMES]
    for row in per_sample:
        assert all(isinstance(v, np.float64) for v in row)
    want = np.array(per_sample).T
    got = np.array([np.broadcast_to(c, TIMES.shape) for c in value_columns(TIMES)])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    scalar_residuals = [residual(float(t)) for t in TIMES]
    assert all(isinstance(r, np.float64) for r in scalar_residuals)
    stacked = residual(TIMES)
    assert stacked.shape == TIMES.shape
    np.testing.assert_allclose(stacked, scalar_residuals, rtol=0.0, atol=1e-20)


def test_invariant_residuals_stack_over_t():
    lam = SCENARIO.lam
    inner = TIMES[1:-1]  # room for the difference step inside the domain

    def element(t):
        return AlgebraElement(alpha_coeffs(COEFFS, lam, t))

    def hamiltonian(t):
        return scenario_hamiltonian(SCENARIO, t)

    stacked = conservation_residual(element, hamiltonian, inner)
    per_sample = [conservation_residual(element, hamiltonian, float(t)) for t in inner]
    np.testing.assert_allclose(stacked, per_sample, rtol=1e-14, atol=0.0)

    alpha = alpha_coeffs(COEFFS, lam, inner)
    beta = beta_from_match(COEFFS, lam, inner)
    stacked = similarity_residual(alpha, beta, scenario_params(CONSTS, lam, inner))
    per_sample = [
        similarity_residual(alpha[:, k], beta[:, k], scenario_params(CONSTS, lam, t))
        for k, t in enumerate(inner)
    ]
    assert stacked.shape == inner.shape
    np.testing.assert_allclose(stacked, per_sample, rtol=0.0, atol=1e-14)


def test_stacked_conjugate_and_time_term_match_per_sample():
    rng = np.random.default_rng(53)
    count = 9
    # scalar first pair broadcast against per-sample mixing angles
    g3, g4 = rng.normal(scale=0.8, size=(2, count))
    params = np.array(np.broadcast_arrays(0.3, 0.3, g3, g4))
    coeffs = rng.normal(size=(4, count)) + 1j * rng.normal(size=(4, count))
    rates = rng.normal(size=(4, count))
    image = conjugate(params, AlgebraElement(coeffs)).vector
    term = time_term(params, rates).vector
    assert image.shape == term.shape == (4, count)
    for k in range(count):
        one = np.array([0.3, 0.3, g3[k], g4[k]])
        want_image = conjugate(one, AlgebraElement(coeffs[:, k])).vector
        want_term = time_term(one, rates[:, k]).vector
        np.testing.assert_allclose(image[:, k], want_image, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(term[:, k], want_term, rtol=1e-14, atol=1e-14)


def test_scalar_mode_is_a_complex_scalar():
    spec = ModeSpec(2, f_plus_profile(SCENARIO), SCENARIO.ktilde_plus, "+")
    value = pedrosa_mode(spec, 0.4, 1.1)
    assert isinstance(value, np.complex128)
    assert value == pedrosa_mode(spec, np.array([0.4]), 1.1)[0]


# ---------------------------------------------------------------------------
# mode layer and the checks built on it

INNER = TIMES[1:-1]  # room for the finite-difference stencils inside the domain
SPECS = (
    ModeSpec(0, f_plus_profile(SCENARIO), SCENARIO.ktilde_plus, "+"),
    ModeSpec(3, f_minus_profile(SCENARIO), SCENARIO.ktilde_minus, "-"),
)


def stacked(fn, times):
    """fn called once per time, results stacked along a leading axis."""
    return np.array([fn(float(t)) for t in times])


def test_modes_broadcast_time_against_position():
    x = np.linspace(-4.0, 4.0, 23)
    def mode_xx(spec, x, t):
        return _mode_pair_at(spec, x, _time_factors(spec, t))[1]

    for mode in (pedrosa_mode, mode_xx):
        for spec in SPECS:
            got = mode(spec, x, INNER[:, None])
            assert got.shape == (INNER.size, x.size)
            want = stacked(lambda t: mode(spec, x, t), INNER)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_central_derivatives_take_array_t():
    chi = chi_closed_form(SCENARIO.lam, CONSTS)
    got = central_derivatives(chi, INNER, 1e-2)
    want = stacked(lambda t: central_derivatives(chi, t, 1e-2), INNER).T
    for g, w in zip(got, want):
        assert g.shape == INNER.shape
        np.testing.assert_allclose(g, w, rtol=1e-14, atol=0.0)


def test_scale_equation_residuals_take_array_t():
    lam = SCENARIO.lam
    chi = chi_closed_form(lam, CONSTS)
    spec = SPECS[0]

    def scale(t):
        return ep_classical(spec.ktilde, spec.driver, t)

    def rate(t):
        return ep_classical_rate(spec.ktilde, spec.driver, t)

    cases = (
        lambda t: ep_residual(chi, lam, t, 5e-3, -1.0, CONSTS.kappa**2),
        lambda t: ep_residual(scale, spec.driver, t, 1e-2, 1.0, 1.0),
        lambda t: ermakov_quantity(scale, rate, spec.driver, t),
    )
    for fn in cases:
        got = fn(INNER)
        assert got.shape == INNER.shape
        np.testing.assert_allclose(got, stacked(fn, INNER), rtol=1e-13, atol=1e-15)


def test_mode_quadrature_takes_array_t():
    times = np.array([0.3, 2.9, 7.4])
    for spec in SPECS:
        got = mode_k1_quadrature(spec, times)
        assert got.shape == times.shape
        want = stacked(lambda t: mode_k1_quadrature(spec, t), times)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_mode_quadrature_forms_the_time_factors_once(monkeypatch):
    # one quadrature reads the running integral once, on the times with a
    # trailing axis for the nodes
    calls = []
    cumulative = TimeProfile.cumulative

    def counted(self, s):
        calls.append((self, np.shape(s)))
        return cumulative(self, s)

    monkeypatch.setattr(TimeProfile, "cumulative", counted)
    times = np.array([0.3, 2.9, 7.4])
    for spec in SPECS:
        calls.clear()
        mode_k1_quadrature(spec, times)
        # the split drivers read the scenario's profiles in turn: count
        # only the reads of the mode's own driver
        own = [shape for profile, shape in calls if profile is spec.driver]
        assert own == [(3, 1)]


def test_driver_value_names_the_first_singular_time():
    # (t - 1)(t - 2): zeros at 1 and 2, both on the grid
    driver = TimeProfile.polynomial([2.0, -3.0, 1.0])
    times = np.array([0.5, 1.0, 1.5, 2.0])
    with pytest.raises(SingularEvaluationError, match=r"at t = 1\.0$"):
        driver_value(driver, times)
    with pytest.raises(SingularEvaluationError, match=r"at t = 1\.0$"):
        ep_residual(lambda t: 1.0 + 0.0 * t, driver, times, 1e-2, 1.0, 1.0)
    np.testing.assert_array_equal(driver_value(driver, times[::2]), [0.75, -0.25])
    # a driver that overflows, e^(800 t) = inf from t = 1 on, is refused as well
    steep = TimeProfile.exponential(0.0, 1.0, 800.0)
    with np.errstate(over="ignore"):
        with pytest.raises(SingularEvaluationError, match=r"^driver value inf at t = 1\.0$"):
            driver_value(steep, times)


def _tdse_residual_2d_on_meshgrid(scenario, t, grid_step, time_step, half_width):
    """Reference: the modes evaluated at every grid point, one time at a time."""
    n_pts = int(round(2.0 * half_width / grid_step))
    axis = -half_width + grid_step * np.arange(n_pts + 1)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    n, m = scenario.n, scenario.m
    psi = product_state(n, m, scenario, x, y, t)
    psi_p = product_state(n, m, scenario, x, y, t + time_step)
    psi_m = product_state(n, m, scenario, x, y, t - time_step)
    dpsi = (psi_p - psi_m) / (2.0 * time_step)
    inner = psi[1:-1, 1:-1]
    lap_x = (psi[2:, 1:-1] - 2.0 * inner + psi[:-2, 1:-1]) / grid_step**2
    lap_y = (psi[1:-1, 2:] - 2.0 * inner + psi[1:-1, :-2]) / grid_step**2
    f_plus, f_minus = f_pm(scenario, t)
    h_psi = f_plus * 0.5 * (-lap_x + x[1:-1, 1:-1] ** 2 * inner)
    h_psi += f_minus * 0.5 * (-lap_y + y[1:-1, 1:-1] ** 2 * inner)
    resid = 1.0j * dpsi[1:-1, 1:-1] - h_psi
    # sums of squares per row, then over rows
    resid_sq = np.sum(resid.real**2 + resid.imag**2, axis=1).sum()
    h_psi_sq = np.sum(h_psi.real**2 + h_psi.imag**2, axis=1).sum()
    return float(np.sqrt(resid_sq / h_psi_sq))


def test_tdse_residual_2d_matches_meshgrid_evaluation():
    # the separable form rounds in another order than the grid sums; the
    # algebra is the same, and the measured gap is about 1e-13
    for t in (0.7, 4.3):
        got = tdse_residual_2d(SCENARIO, t, grid_step=0.1)
        want = _tdse_residual_2d_on_meshgrid(SCENARIO, t, 0.1, 1e-3, 7.0)
        assert abs(got - want) <= 1e-12 * want


def test_tdse_residual_2d_holds_no_whole_grid_array():
    # one 561 x 561 complex array is 4.8 MiB; the separable form holds
    # only axis-length vectors
    scenario = default_scenario()
    tdse_residual_2d(scenario, 0.7, grid_step=0.025)  # warm caches and imports
    tracemalloc.start()
    try:
        tdse_residual_2d(scenario, 0.7, grid_step=0.025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_number_basis_residuals_per_time_match_single_time_calls():
    basis = FockBasis(6)
    times = np.array([0.0, 1.7, 5.2, 10.0])  # both one-sided stencils included
    pairs = (
        (dyson_residuals, verify_dyson),
        (quasi_hermiticity_residuals, verify_quasi_hermiticity),
    )
    for residuals, verify in pairs:
        got = residuals(SCENARIO, basis, times)
        assert got.shape == times.shape
        np.testing.assert_array_equal(
            got, [verify(SCENARIO, basis, [t]) for t in times]
        )
        assert verify(SCENARIO, basis, times) == np.max(got)
