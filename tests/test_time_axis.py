"""One code path for scalar and array time.

Every closed form that takes t accepts a scalar or an array: an array
gives the same numbers as stacking the scalar calls, and a scalar gives a
NumPy scalar.  The 2x2 layer underneath takes stacked coefficients and
parameters the same way.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from ptdyson import (
    AlgebraElement,
    DysonParams,
    EPConstants,
    ModeSpec,
    Scenario,
    TimeProfile,
    alpha_coeffs,
    beta_from_match,
    conjugate,
    conservation_residual,
    dyson_residual,
    energy_expectation,
    f_plus_profile,
    f_pm,
    invariant_coeffs_for,
    invariant_element,
    pedrosa_mode,
    scenario_hamiltonian,
    scenario_params,
    scenario_rates,
    similarity_residual,
    time_term,
)
from ptdyson.validation import panel_quadrature

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
        params.gamma3,
        params.gamma4,
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
        return invariant_element(COEFFS, lam, t)

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
    params = DysonParams(0.3, 0.3, g3, g4)
    coeffs = rng.normal(size=(4, count)) + 1j * rng.normal(size=(4, count))
    rates = rng.normal(size=(4, count))
    image = conjugate(params, AlgebraElement(coeffs)).vector
    term = time_term(params, rates).vector
    assert image.shape == term.shape == (4, count)
    for k in range(count):
        one = DysonParams(0.3, 0.3, g3[k], g4[k])
        want_image = conjugate(one, AlgebraElement(coeffs[:, k])).vector
        want_term = time_term(one, rates[:, k]).vector
        np.testing.assert_allclose(image[:, k], want_image, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(term[:, k], want_term, rtol=1e-14, atol=1e-14)


def test_scalar_mode_is_a_complex_scalar():
    spec = ModeSpec(2, f_plus_profile(SCENARIO), SCENARIO.ktilde_plus, "+")
    value = pedrosa_mode(spec, 0.4, 1.1)
    assert isinstance(value, np.complex128)
    assert value == pedrosa_mode(spec, np.array([0.4]), 1.1)[0]


def test_panel_quadrature_is_one_call_per_panel_set():
    shapes = []

    def fn(x):
        shapes.append(np.shape(x))
        return np.exp(1j * x) * np.cos(0.3 * x**2)

    lo, hi, panels, order = -2.0, 3.5, 7, 32
    got = panel_quadrature(fn, lo, hi, panels)
    assert shapes == [(panels, order)]
    nodes, weights = leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    want = sum(
        half * np.sum(weights * fn(left + half * (nodes + 1.0))) for left in edges[:-1]
    )
    assert abs(got - want) <= 1e-14 * abs(want)
