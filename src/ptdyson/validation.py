"""The property suite behind `ptdyson validate` and the acceptance tests.

Thirteen numbered checks, each measuring something concrete against a
pinned tolerance and reporting a single line.  The defaults pin the
reference configuration: a(t) = 1 + 0.2 sin(2t), lam(t) = 0.5 + 0.3 sin t,
q2 = 1, q3 = 0.4, both mode constants 0.5, two hundred samples on [0, 10].

The checks deliberately cross independent routes: closed forms against
ODE integration, quadrature against algebra, 2x2 coefficient identities
against dense number-basis matrices.  Nothing here trusts a formula with
the same formula.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .algebra_u2 import (
    AlgebraElement,
    BASIS_MATRICES,
    DysonParams,
    basis_element,
    commutator,
    conjugate,
    to_matrix,
)
from .dyson import (
    chi_closed_form,
    closed_form_trajectory,
    dyson_residual,
    energy_operator,
    ep_dissipative_residual,
    gamma_closed_form,
    scenario_params,
    scenario_rates,
    solve_gamma_ode,
)
from .energy import (
    Scenario,
    energy_expectation,
    f_minus_profile,
    f_pm,
    f_plus_profile,
    scenario_h,
    scenario_hamiltonian,
)
from .errors import ExceptionalPointError, IntegrationError
from .fock_oracle import (
    FockBasis,
    broken_spectrum_numeric,
    build_eta,
    build_eta_inverse,
    build_generators,
    element_matrix,
    invariant_eigen_flow,
    metric_spectrum_report,
    sort_along_line,
    verify_dyson,
    verify_quasi_hermiticity,
)
from .invariants import (
    alpha_coeffs,
    beta_from_match,
    conservation_residual,
    gamma_from_alpha,
    invariant_coeffs_for,
    invariant_element,
)
from .modes import ModeSpec, k1_expectation, pedrosa_mode, pedrosa_mode_xx, product_state
from .profiles import TimeProfile
from .static_models import XYModel, broken_spectrum, decouple_xy
from .static_models import static_eigenstate

SAMPLE_COUNT = 200
T_END = 10.0

_SEED = 20240817


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


def default_scenario(n=1, m=0):
    return Scenario(
        a=TimeProfile.sinusoid(1.0, 0.2, 2.0),
        lam=TimeProfile.sinusoid(0.5, 0.3, 1.0),
        q2=1.0,
        q3=0.4,
        ktilde_plus=0.5,
        ktilde_minus=0.5,
        n=n,
        m=m,
    )


def default_invariant_coeffs():
    # paired with the default scenario by construction
    return invariant_coeffs_for(1.0, 0.4)


def sample_times():
    return np.linspace(0.0, T_END, SAMPLE_COUNT)


def interior_times(margin):
    return np.linspace(margin, T_END - margin, SAMPLE_COUNT)


def _max_abs(x):
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# quadrature helpers


def panel_quadrature(fn, lo, hi, panels, order=32):
    """Composite Gauss-Legendre: `panels` equal panels of fixed order.

    fn is called once, on the (panels, order) array of all nodes.
    """
    nodes, weights = leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    x = edges[:-1, None] + half * (nodes + 1.0)
    return half * np.sum(weights * fn(x))


def refining_quadrature(fn, lo, hi, tol=1e-10, panels=8):
    """Panel count doubles until two consecutive answers agree to tol."""
    prev = panel_quadrature(fn, lo, hi, panels)
    for n in (2 * panels, 4 * panels, 8 * panels):
        cur = panel_quadrature(fn, lo, hi, n)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise IntegrationError(
        f"quadrature failed to settle to {tol:.1e} by {n} panels on "
        f"[{lo}, {hi}]"
    )


def mode_k1_quadrature(spec, t):
    """<mode| (p^2 + x^2)/2 |mode> by quadrature, norm divided out."""
    reach = 8.0 * math.sqrt(math.sqrt(1.0 + spec.ktilde**2) + abs(spec.ktilde))
    reach *= math.sqrt(spec.n + 1.0)

    def density(x):
        p = pedrosa_mode(spec, x, t)
        return np.conj(p) * p

    def integrand(x):
        p = pedrosa_mode(spec, x, t)
        pxx = pedrosa_mode_xx(spec, x, t)
        return np.conj(p) * 0.5 * (-pxx + x**2 * p)

    value = refining_quadrature(integrand, -reach, reach)
    norm = refining_quadrature(density, -reach, reach)
    return value / norm


# ---------------------------------------------------------------------------
# finite-difference Schrodinger residuals


def tdse_residual_1d(spec, t, grid_step=0.05, time_step=1e-3, half_width=10.0):
    """Relative residual of i d/dt psi = driver (p^2 + x^2)/2 psi on a grid.

    Second-order stencils in both directions; the spatial error dominates
    at the pinned steps, so halving grid_step should shrink the residual
    about fourfold.
    """
    n_pts = int(round(2.0 * half_width / grid_step))
    x = -half_width + grid_step * np.arange(n_pts + 1)
    psi = pedrosa_mode(spec, x, t)
    psi_p = pedrosa_mode(spec, x, t + time_step)
    psi_m = pedrosa_mode(spec, x, t - time_step)
    dpsi = (psi_p - psi_m) / (2.0 * time_step)
    lap = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / grid_step**2
    h_psi = float(spec.driver(t)) * 0.5 * (-lap + x[1:-1] ** 2 * psi[1:-1])
    resid = 1.0j * dpsi[1:-1] - h_psi
    return float(np.linalg.norm(resid) / np.linalg.norm(h_psi))


def tdse_residual_2d(scenario, t, grid_step=0.05, time_step=1e-3, half_width=7.0):
    """Relative residual of the 2D product solution under the split drivers."""
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
    return float(np.linalg.norm(resid) / np.linalg.norm(h_psi))


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


def check_algebra_closure():
    worst_structure = 0.0
    worst_matrix = 0.0
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
    basis = FockBasis(12)
    gens = build_generators(basis)
    worst_fock = 0.0
    for (i, j), expected in _BRACKET_TABLE.items():
        gi, gj = gens[i - 1], gens[j - 1]
        target = element_matrix(AlgebraElement(expected), basis, gens)
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


def check_dyson_relation():
    scenario = default_scenario()
    consts = scenario.ep_constants()
    times = sample_times()
    params = scenario_params(consts, scenario.lam, times)
    rates = scenario_rates(consts, scenario.lam, times)
    worst_analytic = _max_abs(
        dyson_residual(scenario.a, scenario.lam, params, rates, times)
    )
    basis = FockBasis(12)
    worst_fock = verify_dyson(scenario, basis, sample_times())
    return CheckResult(
        2,
        "dyson relation",
        (
            bounded("2x2 analytic-rate residual", worst_analytic, 1e-8),
            bounded("number-basis FD residual", worst_fock, 1e-6),
        ),
    )


def check_route_equivalence():
    scenario = default_scenario()
    consts = scenario.ep_constants()
    times = sample_times()
    g30, g40 = gamma_closed_form(scenario.lam, consts, 0.0)
    ode = solve_gamma_ode(scenario.lam, g30, g40, times)
    closed = closed_form_trajectory(scenario.lam, consts, times)
    d3 = _max_abs(ode.gamma3 - closed.gamma3)
    d4 = _max_abs(ode.gamma4 - closed.gamma4)
    return CheckResult(
        3,
        "route equivalence",
        (
            bounded("first parameter, ODE vs closed form", d3, 1e-6),
            bounded("second parameter, ODE vs closed form", d4, 1e-6),
        ),
    )


def check_dissipative_scale():
    scenario = default_scenario()
    consts = scenario.ep_constants()
    chi = chi_closed_form(scenario.lam, consts)
    pts = interior_times(0.05)
    worst = max(
        ep_dissipative_residual(chi, scenario.lam, consts.kappa, t, fd_step=5e-3)
        for t in pts
    )

    def chi_bad(t):
        return chi(t) * (1.0 + 0.01 * np.sin(3.0 * np.asarray(t)))

    control = max(
        ep_dissipative_residual(chi_bad, scenario.lam, consts.kappa, t, fd_step=5e-3)
        for t in pts
    )
    return CheckResult(
        4,
        "dissipative scale equation",
        (
            bounded("closed-form scale residual", worst, 1e-7),
            exceeds("perturbed-scale negative control", control, 1e-4),
        ),
    )


def check_invariant_conservation():
    scenario = default_scenario()
    coeffs = default_invariant_coeffs()

    def elem_broken(t):
        return invariant_element(coeffs, scenario.lam, t)

    def ham_broken(t):
        return scenario_hamiltonian(scenario, t)

    def elem_herm(t):
        return AlgebraElement(beta_from_match(coeffs, scenario.lam, t))

    def ham_herm(t):
        return scenario_h(scenario, t)

    pts = interior_times(0.01)
    worst_broken = _max_abs(conservation_residual(elem_broken, ham_broken, pts))
    worst_herm = _max_abs(conservation_residual(elem_herm, ham_herm, pts))
    basis = FockBasis(12)
    _, drift = invariant_eigen_flow(
        coeffs, scenario.lam, np.linspace(0.0, T_END, 10), basis
    )
    return CheckResult(
        5,
        "invariant conservation",
        (
            bounded("non-Hermitian-frame residual", worst_broken, 1e-7),
            bounded("Hermitian-frame residual", worst_herm, 1e-7),
            bounded("number-basis eigenvalue drift", drift, 1e-8),
        ),
    )


def check_invariant_similarity():
    scenario = default_scenario()
    coeffs = default_invariant_coeffs()
    times = sample_times()
    alpha = alpha_coeffs(coeffs, scenario.lam, times)
    # the angle recovery checks its inequalities per snapshot
    g3, g4 = np.transpose([gamma_from_alpha(snapshot) for snapshot in alpha.T])
    image = conjugate(DysonParams(0.0, 0.0, g3, g4), AlgebraElement(alpha)).vector
    beta = beta_from_match(coeffs, scenario.lam, times)
    worst_norm = _max_abs(np.linalg.norm(image - beta, axis=0))
    worst_imag = _max_abs(image.imag)
    return CheckResult(
        6,
        "invariant similarity",
        (
            bounded("mapped invariant vs Hermitian coefficients", worst_norm, 1e-9),
            bounded("imaginary leakage of the image", worst_imag, 1e-12),
        ),
    )


def check_broken_spectrum():
    a_value, lam_value = 1.0, 0.4
    basis = FockBasis(12)
    numeric = broken_spectrum_numeric(a_value, lam_value, basis)
    worst = 0.0
    worst_conj = 0.0
    for k in range(11):
        exact = sort_along_line(
            np.array(
                [broken_spectrum(a_value, lam_value, k - m, m) for m in range(k + 1)]
            )
        )
        worst = max(worst, _max_abs(numeric[k] - exact))
        conj_sorted = sort_along_line(np.conj(numeric[k]))
        worst_conj = max(worst_conj, _max_abs(numeric[k] - conj_sorted))
    return CheckResult(
        7,
        "broken spectrum",
        (
            bounded("number-basis vs closed form (totals <= 10)", worst, 1e-10),
            bounded("closure under conjugation", worst_conj, 1e-10),
        ),
    )


def check_eigenstate_orthonormality():
    nodes, weights = hermgauss(24)
    states = [(n, m) for n in range(5) for m in range(5)]
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    bare = np.exp(0.5 * (x**2 + y**2))
    values = np.array(
        [static_eigenstate(n, m, x, y) * bare for n, m in states]
    )
    gram = np.einsum("aij,bij,i,j->ab", values, values, weights, weights)
    worst = _max_abs(gram - np.eye(len(states)))
    return CheckResult(
        8,
        "eigenstate orthonormality",
        (bounded("Gauss-Hermite Gram defect (indices <= 4)", worst, 1e-8),),
    )


def check_mode_expectation_constancy():
    scenario = default_scenario()
    rng = np.random.default_rng(_SEED)
    times = rng.uniform(0.3, 9.7, size=10)
    driver = f_plus_profile(scenario)
    worst = 0.0
    for ktilde in (0.0, 0.5, 2.0):
        for n in range(4):
            spec = ModeSpec(n, driver, ktilde, "+")
            target = k1_expectation(spec)
            for t in times:
                got = mode_k1_quadrature(spec, float(t))
                worst = max(worst, abs(got - target))
    return CheckResult(
        9,
        "mode expectation constancy",
        (bounded("quadrature vs closed constant", worst, 1e-7),),
    )


def check_schrodinger_residual():
    scenario = default_scenario(n=1, m=0)
    t_check = 0.7
    spec = ModeSpec(1, f_plus_profile(scenario), scenario.ktilde_plus, "+")
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


def check_energy_reality():
    scenario = default_scenario(n=1, m=0)
    times = np.linspace(0.4, 9.6, 6)
    spec_x = ModeSpec(scenario.n, f_plus_profile(scenario), scenario.ktilde_plus, "+")
    spec_y = ModeSpec(scenario.m, f_minus_profile(scenario), scenario.ktilde_minus, "-")
    worst_imag = 0.0
    worst_diff = 0.0
    for t in times:
        t = float(t)
        f_plus, f_minus = f_pm(scenario, t)
        quad = f_plus * mode_k1_quadrature(spec_x, t)
        quad += f_minus * mode_k1_quadrature(spec_y, t)
        closed = energy_expectation(scenario, t)
        worst_imag = max(worst_imag, abs(quad.imag))
        worst_diff = max(worst_diff, abs(quad.real - closed))
    worst_frame = _fock_frame_equivalence(scenario, np.linspace(0.5, 9.5, 5))
    return CheckResult(
        11,
        "energy reality",
        (
            bounded("quadrature imaginary part", worst_imag, 1e-10),
            bounded("quadrature vs closed form", worst_diff, 1e-5),
            bounded("number-basis frame equivalence", worst_frame, 1e-8),
        ),
    )


def _fock_frame_equivalence(scenario, times):
    """max |<psi_h|h|psi_h> - <psi_H| rho Htilde |psi_H>| on low blocks."""
    basis = FockBasis(12)
    gens = build_generators(basis)
    consts = scenario.ep_constants()
    rng = np.random.default_rng(_SEED + 1)
    cutoff = basis.block_slice(3).stop
    psi_h = np.zeros(basis.dim, dtype=complex)
    raw = rng.standard_normal(cutoff) + 1j * rng.standard_normal(cutoff)
    psi_h[:cutoff] = raw / np.linalg.norm(raw)
    worst = 0.0
    for t in times:
        t = float(t)
        params = scenario_params(consts, scenario.lam, t)
        eta = build_eta(basis, gens, params)
        eta_inv = build_eta_inverse(basis, gens, params)
        f_plus, f_minus = f_pm(scenario, t)
        h_mat = f_plus * gens[0] + f_minus * gens[1]
        lhs = np.vdot(psi_h, h_mat @ psi_h)
        tilde = energy_operator(
            float(scenario.a(t)), float(scenario.lam(t)),
            params.gamma3, params.gamma4,
        )
        tilde_mat = element_matrix(tilde, basis, gens)
        psi_ref = eta_inv @ psi_h
        # rho = eta^dag eta; grouping the quadratic form as
        # (eta psi)^dag (eta Htilde psi) keeps every intermediate at the
        # answer's scale, while forming rho @ Htilde squares the block
        # condition number and drowns the identity in rounding
        rhs = np.vdot(eta @ psi_ref, eta @ (tilde_mat @ psi_ref))
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_metric_positivity():
    scenario = default_scenario()
    consts = scenario.ep_constants()
    size = 12
    buffer = 2
    basis = FockBasis(size)
    gens = build_generators(basis)
    floor_min = np.inf
    observed_min = np.inf
    for t in sample_times():
        params = scenario_params(consts, scenario.lam, float(t))
        floors, observed = metric_spectrum_report(basis, gens, params)
        floor_min = min(floor_min, min(floors))
        observed_min = min(observed_min, min(observed[: size - buffer + 1]))
    return CheckResult(
        12,
        "metric positivity",
        (
            exceeds("closed-form eigenvalue floor, all blocks", floor_min, 0.0),
            exceeds("observed block minimum (safe blocks)", observed_min, 0.0),
        ),
    )


def check_exceptional_point():
    mass, omega_x, omega_y = 1.0, 1.0, math.sqrt(3.0)
    bound = mass * (omega_y**2 - omega_x**2) / 2.0
    raised_at = []
    for coupling in (bound, -bound, bound * (1.0 + 1e-12), 2.0 * bound):
        try:
            decouple_xy(XYModel(mass, omega_x, omega_y, coupling))
            raised_at.append(False)
        except ExceptionalPointError as err:
            raised_at.append(err.bound == bound)
    worst = 0.0
    all_real = True
    for coupling in (0.2, 0.5, 0.9, 0.99):
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
            _max_abs(eigs.real - mass * np.array([wx**2, wy**2])),
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


def run_all():
    """All thirteen checks, in criterion order."""
    return [fn() for fn in _CHECKS]
