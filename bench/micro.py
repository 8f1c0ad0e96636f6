"""Warm per-call timings of ptdyson's public functions at a workload's inputs.

Runs untraced in its own process.  Each timing calls the function once to
warm it, sizes a batch to take at least BATCH_S, and reports the median of
BATCHES batches as time per call.  The thirteen validation criteria run once
each, after the other timings have warmed numpy and LAPACK.
"""

import statistics
import time

import numpy as np

from ptdyson import cli, validation
from ptdyson.algebra_u2 import conjugate, time_term
from ptdyson.dyson import (
    dyson_residual,
    gamma_closed_form,
    nonhermitian_hamiltonian,
    scenario_params,
    scenario_rates,
)
from ptdyson.energy import energy_expectation, f_plus_profile, f_pm
from ptdyson.fock_oracle import (
    FockBasis,
    build_eta,
    build_generators,
    metric_spectrum_report,
    verify_dyson,
    verify_quasi_hermiticity,
)
from ptdyson.invariants import beta_from_match, invariant_coeffs_for
from ptdyson.modes import ModeSpec, pedrosa_mode

BATCH_S = 0.01
BATCHES = 5
ARRAY_POINTS = 20000
MODE_POINTS = 32


def per_call_s(fn):
    fn()
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples)


def measure(cfg):
    """Metric name -> value for the workload described by `cfg`."""
    scenario = cli.build_scenario(cfg)
    consts = scenario.ep_constants()
    a, lam = scenario.a, scenario.lam
    times = cli.grid_times(cfg)
    t = float(times[len(times) // 3])
    t_array = np.linspace(times[0], times[-1], ARRAY_POINTS)
    params = scenario_params(consts, lam, t, q1=scenario.q1)
    rates = scenario_rates(consts, lam, t)
    big_h = nonhermitian_hamiltonian(float(a(t)), float(lam(t)))
    inv = cfg["invariant"]
    coeffs = invariant_coeffs_for(
        scenario.q2,
        scenario.q3,
        c1=float(inv["c1"]),
        c2_real=float(inv["c2_real"]),
        c3_real=float(inv["c3_real"]),
    )
    spec = ModeSpec(scenario.n, f_plus_profile(scenario), scenario.ktilde_plus, "+")
    x = np.linspace(-4.0, 4.0, MODE_POINTS)
    size, buffer = int(cfg["oracle"]["size"]), int(cfg["oracle"]["buffer"])
    basis = FockBasis(size)
    gens = build_generators(basis)

    us, ms = 1e6, 1e3
    out = {
        # both of the workload's profiles, per profile call
        "profiles.evaluate_us": us * per_call_s(lambda: (a(t), lam(t))) / 2,
        "profiles.cumulative_us": us
        * per_call_s(lambda: (a.cumulative(t), lam.cumulative(t)))
        / 2,
        "profiles.evaluate_array_us": us * per_call_s(lambda: (a(t_array), lam(t_array))) / 2,
        "dyson.gamma_closed_form_array_us": us
        * per_call_s(lambda: gamma_closed_form(lam, consts, t_array)),
        "dyson.scenario_params_us": us
        * per_call_s(lambda: scenario_params(consts, lam, t, q1=scenario.q1)),
        "dyson.dyson_residual_us": us
        * per_call_s(lambda: dyson_residual(a, lam, params, rates, t)),
        "algebra_u2.conjugate_us": us * per_call_s(lambda: conjugate(params, big_h)),
        "algebra_u2.time_term_us": us * per_call_s(lambda: time_term(params, rates)),
        "invariants.beta_from_match_us": us
        * per_call_s(lambda: beta_from_match(coeffs, lam, t)),
        "energy.f_pm_us": us * per_call_s(lambda: f_pm(scenario, t)),
        "energy.energy_expectation_us": us
        * per_call_s(lambda: energy_expectation(scenario, t)),
        "modes.pedrosa_mode_us": us * per_call_s(lambda: pedrosa_mode(spec, x, t)),
        "validation.mode_k1_quadrature_ms": ms
        * per_call_s(lambda: validation.mode_k1_quadrature(spec, t)),
        "fock_oracle.build_generators_ms": ms * per_call_s(lambda: build_generators(basis)),
        "fock_oracle.build_eta_ms": ms * per_call_s(lambda: build_eta(basis, gens, params)),
        "fock_oracle.verify_dyson_ms": ms
        * per_call_s(
            lambda: verify_dyson(scenario, basis, [t], gens=gens, buffer=buffer)
        ),
        "fock_oracle.verify_quasi_hermiticity_ms": ms
        * per_call_s(
            lambda: verify_quasi_hermiticity(scenario, basis, [t], gens=gens, buffer=buffer)
        ),
        "fock_oracle.metric_spectrum_report_ms": ms
        * per_call_s(lambda: metric_spectrum_report(basis, gens, params)),
        # computed from array sizes, not measured traffic
        "fock_oracle.generator_bytes": sum(g.nbytes for g in gens),
        "fock_oracle.eta_bytes": build_eta(basis, gens, params).nbytes,
    }
    # run_all's order is criterion order
    for number, check in enumerate(validation._CHECKS, start=1):
        start = time.perf_counter()
        check()
        out[f"validation.c{number:02d}_s"] = time.perf_counter() - start
    return out
