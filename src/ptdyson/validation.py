"""The property suite behind `ptdyson validate` and the acceptance tests.

Thirteen numbered checks, each measuring something concrete against a
pinned tolerance and reporting a single line.  Their inputs are one record
in the config schema, passed to run_all(record) or to each check; no check
reads module state.  Without one they take REFERENCE_CONFIG, whose
sections are the CLI's defaults for those keys: a(t) = 1 + 0.2 sin(2t),
lam(t) = 0.5 + 0.3 sin t, q2 = 1, q3 = 0.4, both mode constants 0.5, 200
samples on [0, 10], a number basis of size 12, and the `static` section's
two models, which criteria 07 and 13 read.

The checks deliberately cross independent routes: closed forms against
ODE integration, quadrature against algebra, 2x2 coefficient identities
against dense number-basis matrices.  Nothing here trusts a formula with
the same formula.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .algebra_u2 import (
    AlgebraElement,
    BASIS_MATRICES,
    basis_element,
    commutator,
    conjugate,
    group_matrix,
    to_matrix,
)
from .dyson import (
    _rk4_samples,
    chi_closed_form,
    dyson_residual,
    energy_operator,
    ep_residual,
    gamma_closed_form,
    scenario_params,
    scenario_rates,
    solve_gamma_ode,
)
from .energy import (
    Scenario,
    energy_expectation,
    f_pm,
    f_plus_profile,
    scenario_h,
    scenario_hamiltonian,
)
from .errors import ConstraintViolationError, ExceptionalPointError
from .fock_oracle import (
    FockBasis,
    _block_factors,
    _block_map,
    _spin_ladder,
    broken_spectrum_numeric,
    build_generators,
    element_matrix,
    invariant_eigen_flow,
    metric_spectrum_report,
    sort_along_line,
    verify_dyson,
)
from .invariants import (
    alpha_coeffs,
    beta_from_evolution,
    beta_from_match,
    conservation_residual,
    gamma_from_alpha,
    invariant_coeffs_for,
)
from .modes import (
    ModeSpec,
    _mode_pair_at,
    _time_factors,
    k1_expectation,
    pedrosa_mode,
    product_specs,
)
from .static_models import (
    BrokenRegime,
    XYModel,
    broken_spectrum,
    decouple_K,
    decouple_xy,
    static_eigenstate,
)

# The gate's inputs in the config schema; cli.DEFAULT_CONFIG holds these dicts
REFERENCE_CONFIG = {
    "scenario": {
        "a": {"kind": "sinusoid", "offset": 1.0, "amp": 0.2, "omega": 2.0},
        "lam": {"kind": "sinusoid", "offset": 0.5, "amp": 0.3, "omega": 1.0},
        "q1": 0.0,
        "q2": 1.0,
        "q3": 0.4,
        "ktilde_plus": 0.5,
        "ktilde_minus": 0.5,
        "n": 1,
        "m": 0,
    },
    "grid": {"t_start": 0.0, "t_end": 10.0, "samples": 200},
    "oracle": {"size": 12, "buffer": 2},
    "invariant": {"c1": 1.0, "c2_real": 0.5, "c3_real": 0.8},
    "static": {
        "xy": {
            "m": 1.0,
            "omega_x": 1.0,
            "omega_y": 1.7320508075688772,
            "coupling": 0.5,
            "n_max": 4,
            "m_max": 4,
        },
        "k": {"a": 1.0, "b": 1.0, "lam": 0.4, "n_max": 4},
    },
}

# Criteria 09 and 11 read inputs that were drawn once from numpy's generator
# and are stored here, so the gate loads no random-number module:
# default_rng(20240817).uniform(0.3, 9.7, 10) gives the sample times, and
# default_rng(20240818), with two standard_normal(10) calls, gives the real
# and the imaginary parts of the raw state.
_C09_TIMES = (
    5.4020466832164376, 2.67807233303254, 2.940760691263577, 2.885019073189172,
    7.852360583506165, 8.378522911199267, 9.698970764481343, 7.408442961175948,
    1.1478800614962765, 1.5617723741200913,
)
_C11_RAW_REAL = (
    0.6227898902857755, -0.7276147717224881, 1.3018007436197707,
    0.8821859507805818, -1.304428513030248, 1.5395337544086225,
    -0.5021920643334735, 0.8285044527889661, 0.37586884817857175,
    -0.44319301867506067,
)
_C11_RAW_IMAG = (
    -1.3966419817127107, -1.0625286245440482, 0.4288801206212602,
    0.18608323942673544, -0.4304596653731932, 1.753707619669798,
    -0.42128148326009623, 2.051989543002625, 1.5667317694738494,
    0.33642951197143545,
)


# ---------------------------------------------------------------------------
# reporting scaffolding


@dataclass(frozen=True)
class SubCheck:
    label: str
    detail: str
    ok: bool


def bounded(label, value, bound):
    """value strictly below bound."""
    return SubCheck(label, f"{value:.3e} < {bound:.1e}", bool(value < bound))


def exceeds(label, value, floor):
    """value strictly above floor."""
    return SubCheck(label, f"{value:.3e} > {floor:.1e}", bool(value > floor))


def within(label, value, lo, hi):
    """value inside a closed interval."""
    return SubCheck(
        label, f"{value:.3f} in [{lo:.2f}, {hi:.2f}]", bool(lo <= value <= hi)
    )


def holds(label, flag):
    return SubCheck(label, "yes" if flag else "NO", bool(flag))


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    subchecks: tuple

    @property
    def passed(self):
        return all(s.ok for s in self.subchecks)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        parts = " | ".join(f"{s.label}: {s.detail}" for s in self.subchecks)
        return f"criterion {self.number:02d} {status} {self.name}: {parts}"


def format_report(results):
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    verdict = "PASS" if n_pass == len(results) else "FAIL"
    lines.append(f"overall {verdict}: {n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared fixtures


def default_scenario(record=REFERENCE_CONFIG):
    return Scenario.from_config(record["scenario"])


def default_invariant_coeffs(record=REFERENCE_CONFIG):
    # paired with the record's scenario by construction
    sc = record["scenario"]
    return invariant_coeffs_for(sc["q2"], sc["q3"], **record["invariant"])


def sample_times(record=REFERENCE_CONFIG):
    g = record["grid"]
    return np.linspace(g["t_start"], g["t_end"], g["samples"])


def interior_times(margin, record=REFERENCE_CONFIG):
    g = record["grid"]
    return np.linspace(g["t_start"] + margin, g["t_end"] - margin, g["samples"])


def _max_abs(x):
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# mode quadrature


def mode_k1_quadrature(spec, t):
    """<mode| (p^2 + x^2)/2 |mode> by quadrature, norm divided out.

    Scalar or array t; an array gives one value per entry.  With x = kt y,
    conj(psi) psi and conj(psi) (-psi'' + x^2 psi)/2 are exp(-y^2) times
    polynomials of degree at most 2n + 2 in y, so Gauss-Hermite with n + 2
    nodes is exact for value and norm; the factor kt cancels in the ratio.
    """
    # once per call, and not at import: the eigensolver's first call grows
    # the memory of every process, also of those that never integrate
    y, weights = hermgauss(spec.n + 2)
    weights = weights * np.exp(y**2)  # the mode carries its own Gaussian
    # time on the leading axes, quadrature nodes on the last
    time_factors = _time_factors(spec, np.asarray(t, dtype=float)[..., None])
    x = time_factors[0] * y
    p, pxx = _mode_pair_at(spec, x, time_factors)
    value = np.sum(weights * np.conj(p) * 0.5 * (-pxx + x**2 * p), axis=-1)
    norm = np.sum(weights * np.conj(p) * p, axis=-1)
    return value / norm


# ---------------------------------------------------------------------------
# finite-difference Schrodinger residuals


def _outer_sum_norm(left, right):
    """Frobenius norm of sum_i outer(left[i], right[i]), from two thin QRs.

    With L = Q_L R_L and M = Q_R R_R for the stacked columns, the sum is
    Q_L R_L R_R^T Q_R^T, whose norm is that of the small R_L R_R^T.
    """
    r_left, r_right = (np.linalg.qr(np.transpose(v), mode="r") for v in (left, right))
    return float(np.linalg.norm(r_left @ r_right.T))


def _axis_terms(spec, driver, t, grid_step, half_width):
    """One mode on the grid over [-half_width, half_width], on its interior.

    Returns (psi, h psi, i dpsi/dt, mean of psi at t +- dt) with h =
    driver (p^2 + x^2)/2 by the second-order stencil and the time derivative
    by the central difference at step dt = 1e-3.
    """
    dt = 1e-3
    axis = -half_width + grid_step * np.arange(round(2.0 * half_width / grid_step) + 1)
    psi, psi_p, psi_m = (pedrosa_mode(spec, axis, s) for s in (t, t + dt, t - dt))
    inner, psi_p, psi_m = psi[1:-1], psi_p[1:-1], psi_m[1:-1]
    lap = (psi[2:] - 2.0 * inner + psi[:-2]) / grid_step**2
    h_psi = driver * 0.5 * (-lap + axis[1:-1] ** 2 * inner)
    return inner, h_psi, (0.5j / dt) * (psi_p - psi_m), 0.5 * (psi_p + psi_m)


def tdse_residual_1d(spec, t, grid_step=0.05):
    """Relative residual of i d/dt psi = driver (p^2 + x^2)/2 psi on [-10, 10].

    Second-order stencils in both directions; the spatial error dominates
    at the pinned steps, so halving grid_step should shrink the residual
    about fourfold.
    """
    driver = float(spec.driver(t))
    _, h_psi, i_dpsi, _ = _axis_terms(spec, driver, t, grid_step, 10.0)
    return float(np.linalg.norm(i_dpsi - h_psi) / np.linalg.norm(h_psi))


def tdse_residual_2d(scenario, t, grid_step=0.05):
    """Relative residual of the 2D product solution under the split drivers.

    The state is the outer product px (x) py of two mode factors on
    [-7, 7]^2, each evaluated once on the axis at t and t +- the time step.
    On the grid's interior, h psi = u (x) py + px (x) v, with u and v the
    1D stencils of each factor under its driver.  With d the difference and
    the bar the mean of a factor's values at t +- the time step, the time
    difference is dx (x) ybar + xbar (x) dy exactly.  So the residual is a
    sum of four outer products and h psi one of two; each norm comes from
    two thin QRs (_outer_sum_norm), and no grid-sized array is ever formed.
    """
    spec_x, spec_y = product_specs(scenario.n, scenario.m, scenario)
    f_plus, f_minus = f_pm(scenario, t)
    px, ux, dx, mx = _axis_terms(spec_x, f_plus, t, grid_step, 7.0)
    py, vy, dy, my = _axis_terms(spec_y, f_minus, t, grid_step, 7.0)
    resid = _outer_sum_norm((dx, mx, -ux, -px), (my, dy, py, vy))
    return resid / _outer_sum_norm((ux, px), (py, vy))


# ---------------------------------------------------------------------------
# the thirteen checks

_BRACKET_TABLE = {
    (1, 2): (0.0, 0.0, 0.0, 0.0),
    (1, 3): (0.0, 0.0, 0.0, 1.0j),
    (1, 4): (0.0, 0.0, -1.0j, 0.0),
    (2, 3): (0.0, 0.0, 0.0, -1.0j),
    (2, 4): (0.0, 0.0, 1.0j, 0.0),
    (3, 4): (0.5j, -0.5j, 0.0, 0.0),
}


def check_algebra_closure(record=REFERENCE_CONFIG):
    basis = FockBasis(record["oracle"]["size"])
    gens = build_generators(basis)
    worst_structure = worst_matrix = worst_fock = 0.0
    for (i, j), expected in _BRACKET_TABLE.items():
        expected = AlgebraElement(expected)
        got = commutator(basis_element(i), basis_element(j))
        worst_structure = max(
            worst_structure, _max_abs(got.vector - expected.vector)
        )
        mi, mj = BASIS_MATRICES[i - 1], BASIS_MATRICES[j - 1]
        worst_matrix = max(
            worst_matrix, _max_abs(mi @ mj - mj @ mi - to_matrix(expected))
        )
        # the same bracket on every block of the number basis
        for g, target in zip(gens, element_matrix(expected, gens)):
            gi, gj = g[i - 1], g[j - 1]
            worst_fock = max(worst_fock, _max_abs(gi @ gj - gj @ gi - target))
    return CheckResult(
        1,
        "algebra closure",
        (
            bounded("structure constants", worst_structure, 1e-14),
            bounded("2x2 image", worst_matrix, 1e-14),
            bounded("number-basis blocks", worst_fock, 1e-14),
        ),
    )


def check_dyson_relation(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    consts = scenario.ep_constants()
    times = sample_times(record)
    params = scenario_params(consts, scenario.lam, times, q1=scenario.q1)
    rates = scenario_rates(consts, scenario.lam, times)
    worst_analytic = _max_abs(
        dyson_residual(scenario.a, scenario.lam, params, rates, times)
    )
    oracle = record["oracle"]
    worst_fock = verify_dyson(
        scenario, FockBasis(oracle["size"]), times, buffer=oracle["buffer"]
    )
    return CheckResult(
        2,
        "dyson relation",
        (
            bounded("2x2 analytic-rate residual", worst_analytic, 1e-8),
            bounded("number-basis FD residual", worst_fock, 1e-6),
        ),
    )


def check_route_equivalence(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    consts = scenario.ep_constants()
    times = sample_times(record)
    g30, g40 = gamma_closed_form(scenario.lam, consts, times[0])
    ode3, ode4 = solve_gamma_ode(scenario.lam, g30, g40, times)
    g3, g4 = gamma_closed_form(scenario.lam, consts, times)
    d3 = _max_abs(ode3 - g3)
    d4 = _max_abs(ode4 - g4)
    # halving the RK4 step divides a 4th-order error by about 2^4
    exact = np.array([g3, g4])
    with np.errstate(all="ignore"):
        coarse, fine = (
            _max_abs(_rk4_samples(scenario.lam, times, (g30, g40), steps) - exact)
            for steps in (1, 2)
        )
    return CheckResult(
        3,
        "route equivalence",
        (
            bounded("first parameter, ODE vs closed form", d3, 1e-6),
            bounded("second parameter, ODE vs closed form", d4, 1e-6),
            exceeds("observed RK4 order", math.log2(coarse / fine), 3.5),
        ),
    )


def check_dissipative_scale(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    consts = scenario.ep_constants()
    chi = chi_closed_form(scenario.lam, consts)
    pts = interior_times(0.05, record)

    def residual(scale):
        # the dissipative form, at the step 5e-3 where rounding meets truncation
        return _max_abs(
            ep_residual(scale, scenario.lam, pts, 5e-3, -1.0, consts.kappa**2)
        )

    def chi_bad(t):
        return chi(t) * (1.0 + 0.01 * np.sin(3.0 * t))

    worst, control = residual(chi), residual(chi_bad)
    return CheckResult(
        4,
        "dissipative scale equation",
        (
            bounded("closed-form scale residual", worst, 1e-7),
            exceeds("perturbed-scale negative control", control, 1e-4),
        ),
    )


def check_invariant_conservation(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    coeffs = default_invariant_coeffs(record)

    def elem_broken(t):
        return AlgebraElement(alpha_coeffs(coeffs, scenario.lam, t))

    def ham_broken(t):
        return scenario_hamiltonian(scenario, t)

    def elem_herm(t):
        return AlgebraElement(beta_from_match(coeffs, scenario.lam, t))

    def ham_herm(t):
        return scenario_h(scenario, t)

    pts = interior_times(0.01, record)
    worst_broken = _max_abs(conservation_residual(elem_broken, ham_broken, pts))
    worst_herm = _max_abs(conservation_residual(elem_herm, ham_herm, pts))
    grid = record["grid"]
    times = np.linspace(grid["t_start"], grid["t_end"], 10)
    basis = FockBasis(record["oracle"]["size"])
    _, drift = invariant_eigen_flow(coeffs, scenario.lam, times, basis)
    return CheckResult(
        5,
        "invariant conservation",
        (
            bounded("non-Hermitian-frame residual", worst_broken, 1e-7),
            bounded("Hermitian-frame residual", worst_herm, 1e-7),
            bounded("number-basis eigenvalue drift", drift, 1e-8),
        ),
    )


def check_invariant_similarity(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    coeffs = default_invariant_coeffs(record)
    times = sample_times(record)
    alpha = alpha_coeffs(coeffs, scenario.lam, times)
    g3, g4 = gamma_from_alpha(alpha)
    params = np.array(np.broadcast_arrays(0.0, 0.0, g3, g4))
    image = conjugate(params, AlgebraElement(alpha)).vector
    beta = beta_from_match(coeffs, scenario.lam, times)
    worst_norm = _max_abs(np.linalg.norm(image - beta, axis=0))
    worst_imag = _max_abs(image.imag)
    evolved = beta_from_evolution(coeffs, scenario.lam, times)
    worst_routes = _max_abs(np.linalg.norm(evolved - beta, axis=0))
    return CheckResult(
        6,
        "invariant similarity",
        (
            bounded("mapped invariant vs Hermitian coefficients", worst_norm, 1e-9),
            bounded("imaginary leakage of the image", worst_imag, 1e-12),
            bounded(
                "Hermitian coefficients, evolution vs matching", worst_routes, 1e-12
            ),
        ),
    )


def check_broken_spectrum(record=REFERENCE_CONFIG):
    a, b, lam = (record["static"]["k"][key] for key in ("a", "b", "lam"))
    regime = decouple_K(a, b, lam)
    if not isinstance(regime, BrokenRegime):
        raise ConstraintViolationError(
            "static.k must lie in the broken regime |a - b| <= |lam|, lam != 0, "
            f"got a = {a}, b = {b}, lam = {lam}"
        )
    basis = FockBasis(record["oracle"]["size"])
    numeric = broken_spectrum_numeric(a, b, lam, basis)
    # every level n + m <= size, block k holding n + m = k by m = 0..k
    total, m = np.tril_indices(basis.size + 1)
    exact = broken_spectrum(regime.mean, regime.split, total - m, m)
    worst = worst_conj = 0.0
    for k, block in enumerate(numeric):
        closed = sort_along_line(exact[basis.block_slice(k)])
        worst = max(worst, _max_abs(block - closed))
        worst_conj = max(worst_conj, _max_abs(block - sort_along_line(np.conj(block))))
    return CheckResult(
        7,
        "broken spectrum",
        (
            bounded("number-basis vs closed form (all blocks)", worst, 1e-10),
            bounded("closure under conjugation", worst_conj, 1e-10),
        ),
    )


def check_eigenstate_orthonormality(record=REFERENCE_CONFIG):
    nodes, weights = hermgauss(24)
    states = [(n, m) for n in range(5) for m in range(5)]
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    bare = np.exp(0.5 * (x**2 + y**2))
    values = np.array(
        [static_eigenstate(n, m, x, y) * bare for n, m in states]
    )
    flat = values.reshape(len(states), -1)
    gram = (flat * np.outer(weights, weights).ravel()) @ flat.T
    worst = _max_abs(gram - np.eye(len(states)))
    return CheckResult(
        8,
        "eigenstate orthonormality",
        (bounded("Gauss-Hermite Gram defect (indices <= 4)", worst, 1e-8),),
    )


def check_mode_expectation_constancy(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    times = np.array(_C09_TIMES)
    driver = f_plus_profile(scenario)
    worst = 0.0
    for ktilde in (0.0, 0.5, 2.0):
        for n in range(4):
            spec = ModeSpec(n, driver, ktilde, "+")
            got = mode_k1_quadrature(spec, times)
            worst = max(worst, _max_abs(got - k1_expectation(spec)))
    return CheckResult(
        9,
        "mode expectation constancy",
        (bounded("quadrature vs closed constant", worst, 1e-7),),
    )


def check_schrodinger_residual(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    t_check = 0.7
    spec, _ = product_specs(scenario.n, scenario.m, scenario)
    r1 = tdse_residual_1d(spec, t_check)
    r1_half = tdse_residual_1d(spec, t_check, grid_step=0.025)
    ratio_1d = r1 / r1_half
    r2 = tdse_residual_2d(scenario, t_check)
    r2_half = tdse_residual_2d(scenario, t_check, grid_step=0.025)
    ratio_2d = r2 / r2_half
    return CheckResult(
        10,
        "schrodinger residual",
        (
            bounded("1D mode residual", r1, 1e-3),
            within("1D halving ratio", ratio_1d, 3.0, 5.0),
            bounded("2D product residual", r2, 1e-3),
            within("2D halving ratio", ratio_2d, 3.0, 5.0),
        ),
    )


def check_energy_reality(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    times = np.linspace(0.4, 9.6, 6)
    spec_x, spec_y = product_specs(scenario.n, scenario.m, scenario)
    f_plus, f_minus = f_pm(scenario, times)
    quad = f_plus * mode_k1_quadrature(spec_x, times)
    quad += f_minus * mode_k1_quadrature(spec_y, times)
    worst_imag = _max_abs(quad.imag)
    worst_diff = _max_abs(quad.real - energy_expectation(scenario, times))
    worst_frame = _fock_frame_equivalence(
        scenario, np.linspace(0.5, 9.5, 5), record["oracle"]["size"]
    )
    return CheckResult(
        11,
        "energy reality",
        (
            bounded("quadrature imaginary part", worst_imag, 1e-10),
            bounded("quadrature vs closed form", worst_diff, 1e-5),
            bounded("number-basis frame equivalence", worst_frame, 1e-8),
        ),
    )


def _fock_frame_equivalence(scenario, times, size):
    """max |<psi_h|h|psi_h> - <psi_H| rho Htilde |psi_H>| on low blocks.

    psi_h lives on blocks 0..3, so only those are built, once for all times.
    """
    basis = FockBasis(size)
    gens = build_generators(basis)[:4]
    raw = np.array(_C11_RAW_REAL) + 1j * np.array(_C11_RAW_IMAG)
    psi_h = raw / np.linalg.norm(raw)
    consts = scenario.ep_constants()
    params = scenario_params(consts, scenario.lam, times, q1=scenario.q1)
    f_plus, f_minus = (f[:, None, None] for f in f_pm(scenario, times))
    tilde = energy_operator(
        scenario.a(times), scenario.lam(times), params[2], params[3]
    )
    blocks = zip(gens, _block_factors(gens), element_matrix(tilde, gens))
    lhs = rhs = 0.0
    for k, (g, factors, tilde_mat) in enumerate(blocks):
        # one column per block; <u|v> sums over the last two axes per time
        psi = psi_h[basis.block_slice(k), None]
        h_psi = (f_plus * g[0] + f_minus * g[1]) @ psi
        lhs = lhs + np.sum(psi.conj() * h_psi, axis=(-2, -1))
        eta = _block_map(factors, params)
        psi_ref = _block_map(factors, params, inverse=True) @ psi
        # rho = eta^dag eta; grouping the quadratic form as
        # (eta psi)^dag (eta Htilde psi) keeps every intermediate at the
        # answer's scale, while forming rho @ Htilde squares the block
        # condition number and drowns the identity in rounding
        eta_psi, eta_tilde_psi = eta @ psi_ref, eta @ (tilde_mat @ psi_ref)
        rhs = rhs + np.sum(eta_psi.conj() * eta_tilde_psi, axis=(-2, -1))
    return _max_abs(lhs - rhs)


def check_metric_positivity(record=REFERENCE_CONFIG):
    scenario = default_scenario(record)
    size, buffer = record["oracle"]["size"], record["oracle"]["buffer"]
    basis = FockBasis(size)
    consts = scenario.ep_constants()
    times = sample_times(record)
    params = scenario_params(consts, scenario.lam, times, q1=scenario.q1)
    safe = build_generators(basis)[: size - buffer + 1]
    floors, observed = metric_spectrum_report(basis, safe, params)
    eta0 = np.exp(0.5 * params[:2].sum(0))[..., None, None]
    exact = _spin_ladder(eta0, eta0 * group_matrix(params), size)[1] ** 2
    ladder_gap = max(_max_abs(obs / exact[k] - 1.0) for k, obs in enumerate(observed))
    # block 0's floor is its exact value by construction; the rest must lie
    # below, up to rounding, for the floor is exact wherever g4 = 0 (q3 = 0).
    # On block k the floor's exponent sums terms of total size at most
    # S (k + 1), S = sum |g_i|, each rounded at most three times: exp and
    # the square make that a relative 6 S (k + 1) eps + 3 eps.  The ladder
    # minimum is the square of a k-fold product of steps rounded within
    # 3 eps: 8 k eps + eps.  With the ratio's own division, both stay
    # within 8 (k + 1)(1 + S) eps.
    ratios = np.array(floors[1:]) / exact[1:]
    k = np.arange(1, size + 1)[:, None]
    slack = 8.0 * np.finfo(float).eps * (k + 1) * (1.0 + np.abs(params).sum(0))
    floor_ratio = _max_abs(ratios)
    floor_min = float(np.min(floors))
    observed_min = float(np.min(observed))
    return CheckResult(
        12,
        "metric positivity",
        (
            exceeds("closed-form eigenvalue floor, all blocks", floor_min, 0.0),
            exceeds("observed block minimum (safe blocks)", observed_min, 0.0),
            bounded("observed vs spin-ladder minimum (safe blocks)", ladder_gap, 1e-9),
            # printed as a bound of 1, compared with the rounding slack above
            SubCheck(
                "closed-form floor / spin-ladder minimum (blocks 1..size)",
                f"{floor_ratio:.3e} < {1.0:.1e}",
                bool(np.all(ratios < 1.0 + slack)),
            ),
        ),
    )


def check_exceptional_point(record=REFERENCE_CONFIG):
    xy = record["static"]["xy"]
    mass, omega_x, omega_y = xy["m"], xy["omega_x"], xy["omega_y"]
    # the bound is recomputed here, not read from XYModel.ep_bound, which it checks
    bound = mass * abs(omega_y**2 - omega_x**2) / 2.0
    raised_at = []
    for coupling in (bound, -bound, bound * (1.0 + 1e-12), 2.0 * bound):
        try:
            decouple_xy(XYModel(mass, omega_x, omega_y, coupling))
            raised_at.append(False)
        except ExceptionalPointError as err:
            raised_at.append(err.bound == bound)
    worst = 0.0
    all_real = True
    for coupling in (0.2 * bound, 0.5 * bound, 0.9 * bound, 0.99 * bound):
        theta, wx, wy = decouple_xy(XYModel(mass, omega_x, omega_y, coupling))
        all_real = all_real and np.isfinite([theta, wx, wy]).all()
        matrix = np.array(
            [[mass * omega_x**2, 1j * coupling], [1j * coupling, mass * omega_y**2]]
        )
        eigs = np.linalg.eigvals(matrix)
        eigs = eigs[np.argsort(eigs.real)]
        worst = max(worst, _max_abs(eigs.imag))
        worst = max(
            worst,
            _max_abs(eigs.real - mass * np.sort([wx**2, wy**2])),
        )
    return CheckResult(
        13,
        "exceptional point",
        (
            holds("raises at and beyond the bound", all(raised_at)),
            holds("real frequencies strictly inside", all_real),
            bounded("classical-matrix oracle agreement", worst, 1e-12),
        ),
    )


_CHECKS = (
    check_algebra_closure,
    check_dyson_relation,
    check_route_equivalence,
    check_dissipative_scale,
    check_invariant_conservation,
    check_invariant_similarity,
    check_broken_spectrum,
    check_eigenstate_orthonormality,
    check_mode_expectation_constancy,
    check_schrodinger_residual,
    check_energy_reality,
    check_metric_positivity,
    check_exceptional_point,
)


def run_all(record=REFERENCE_CONFIG):
    """All thirteen checks on one record, in criterion order."""
    return [fn(record) for fn in _CHECKS]
