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

import functools
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
    _rk4_samples,
    chi_closed_form,
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
    f_pm,
    f_plus_profile,
    scenario_h,
    scenario_hamiltonian,
)
from .errors import ExceptionalPointError, IntegrationError
from .fock_oracle import (
    FockBasis,
    _block_factors,
    _block_map,
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
    beta_from_match,
    conservation_residual,
    gamma_from_alpha,
    invariant_coeffs_for,
    invariant_element,
)
from .modes import ModeSpec, k1_expectation, pedrosa_mode, pedrosa_mode_xx, product_specs
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


def default_scenario():
    return Scenario(
        a=TimeProfile.sinusoid(1.0, 0.2, 2.0),
        lam=TimeProfile.sinusoid(0.5, 0.3, 1.0),
        q2=1.0,
        q3=0.4,
        ktilde_plus=0.5,
        ktilde_minus=0.5,
        n=1,
        m=0,
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


@functools.cache
def _gauss_legendre():
    # once per process, and not at import: the eigensolver's first call
    # grows the memory of every process, also of those that never integrate
    return leggauss(32)


def panel_quadrature(fn, lo, hi, panels):
    """Composite Gauss-Legendre: `panels` equal panels of order 32.

    fn is called once, on the (panels, 32) array of all nodes, and may
    return leading axes of its own, (..., panels, 32): only the trailing
    two are summed, so the result has shape (...).
    """
    nodes, weights = _gauss_legendre()
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    x = edges[:-1, None] + half * (nodes + 1.0)
    return half * np.sum(weights * fn(x), axis=(-2, -1))


def refining_quadrature(fn, lo, hi, tol=1e-10, panels=8):
    """Panel count doubles until two consecutive answers agree to tol.

    Three doublings at most, to 8 * panels.  The rule applies per element
    of fn's leading axes (see panel_quadrature): each element keeps the
    first value that settles, as a call for that element alone would, and
    IntegrationError is raised if any element has not settled by then.
    """
    prev = panel_quadrature(fn, lo, hi, panels)
    value = np.zeros_like(prev)
    settled = np.zeros(np.shape(prev), dtype=bool)
    for n in (2 * panels, 4 * panels, 8 * panels):
        cur = panel_quadrature(fn, lo, hi, n)
        now = ~settled & (np.abs(cur - prev) <= tol * np.maximum(1.0, np.abs(cur)))
        value = np.where(now, cur, value)
        settled |= now
        if settled.all():
            return value[()]
        prev = cur
    raise IntegrationError(
        f"quadrature failed to settle to {tol:.1e} by {n} panels on "
        f"[{lo}, {hi}] at {np.count_nonzero(~settled)} of {settled.size} points"
    )


def mode_k1_quadrature(spec, t):
    """<mode| (p^2 + x^2)/2 |mode> by quadrature, norm divided out.

    Scalar or array t; an array gives one value per entry.  Value and norm
    of every time come from one refining quadrature, and each of them
    settles on its own.
    """
    reach = 8.0 * math.sqrt(math.sqrt(1.0 + spec.ktilde**2) + abs(spec.ktilde))
    reach *= math.sqrt(spec.n + 1.0)
    # time on the leading axes, quadrature nodes on the trailing two
    t = np.asarray(t, dtype=float)[..., None, None]

    def integrand(x):
        p = pedrosa_mode(spec, x, t)
        pxx = pedrosa_mode_xx(spec, x, t)
        return np.array([np.conj(p) * 0.5 * (-pxx + x**2 * p), np.conj(p) * p])

    value, norm = refining_quadrature(integrand, -reach, reach)
    return value / norm


# ---------------------------------------------------------------------------
# finite-difference Schrodinger residuals

# Grid rows per slab of the 2D residual: a slab holds a few (rows, points)
# complex arrays, never the whole grid.
_SLAB_ROWS = 16


def _row_sum_sq(z):
    """Sum of |z|^2 along each row."""
    return np.sum(z.real**2 + z.imag**2, axis=1)


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
    """Relative residual of the 2D product solution under the split drivers.

    The two mode factors are evaluated once on the axis at t and t +- the
    time step; the grid is then walked in slabs of _SLAB_ROWS rows, each
    slab forming its products, stencils and per-row sums of squares, so
    no whole-grid array is ever held.  The per-row sums do not depend on
    how rows are grouped, so neither does the result, to the bit.
    """
    n_pts = int(round(2.0 * half_width / grid_step))
    axis = -half_width + grid_step * np.arange(n_pts + 1)
    spec_x, spec_y = product_specs(scenario.n, scenario.m, scenario)
    times = (t, t + time_step, t - time_step)
    px, px_p, px_m = (pedrosa_mode(spec_x, axis, s) for s in times)
    py, py_p, py_m = (pedrosa_mode(spec_y, axis, s) for s in times)
    f_plus, f_minus = f_pm(scenario, t)
    resid_sq, h_psi_sq = np.empty(n_pts - 1), np.empty(n_pts - 1)
    for lo in range(1, n_pts, _SLAB_ROWS):
        rows = slice(lo, min(lo + _SLAB_ROWS, n_pts))
        psi = px[lo - 1 : rows.stop + 1, None] * py
        inner = psi[1:-1, 1:-1]
        lap_x = (psi[2:, 1:-1] - 2.0 * inner + psi[:-2, 1:-1]) / grid_step**2
        lap_y = (psi[1:-1, 2:] - 2.0 * inner + psi[1:-1, :-2]) / grid_step**2
        dpsi = px_p[rows, None] * py_p[1:-1] - px_m[rows, None] * py_m[1:-1]
        dpsi /= 2.0 * time_step
        h_psi = f_plus * 0.5 * (-lap_x + axis[rows, None] ** 2 * inner)
        h_psi += f_minus * 0.5 * (-lap_y + axis[1:-1] ** 2 * inner)
        out = slice(lo - 1, rows.stop - 1)
        resid_sq[out] = _row_sum_sq(1.0j * dpsi - h_psi)
        h_psi_sq[out] = _row_sum_sq(h_psi)
    return float(np.sqrt(resid_sq.sum() / h_psi_sq.sum()))


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
    basis = FockBasis(12)
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
        for g, target in zip(gens, element_matrix(expected, basis, gens)):
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
    worst_fock = verify_dyson(scenario, basis, times)
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


def check_dissipative_scale():
    scenario = default_scenario()
    consts = scenario.ep_constants()
    chi = chi_closed_form(scenario.lam, consts)
    pts = interior_times(0.05)
    worst = _max_abs(
        ep_dissipative_residual(chi, scenario.lam, consts.kappa, pts, fd_step=5e-3)
    )

    def chi_bad(t):
        return chi(t) * (1.0 + 0.01 * np.sin(3.0 * t))

    control = _max_abs(
        ep_dissipative_residual(chi_bad, scenario.lam, consts.kappa, pts, fd_step=5e-3)
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
    g3, g4 = gamma_from_alpha(alpha)
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
            got = mode_k1_quadrature(spec, times)
            worst = max(worst, _max_abs(got - k1_expectation(spec)))
    return CheckResult(
        9,
        "mode expectation constancy",
        (bounded("quadrature vs closed constant", worst, 1e-7),),
    )


def check_schrodinger_residual():
    scenario = default_scenario()
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
    scenario = default_scenario()
    times = np.linspace(0.4, 9.6, 6)
    spec_x, spec_y = product_specs(scenario.n, scenario.m, scenario)
    f_plus, f_minus = f_pm(scenario, times)
    quad = f_plus * mode_k1_quadrature(spec_x, times)
    quad += f_minus * mode_k1_quadrature(spec_y, times)
    worst_imag = _max_abs(quad.imag)
    worst_diff = _max_abs(quad.real - energy_expectation(scenario, times))
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
    """max |<psi_h|h|psi_h> - <psi_H| rho Htilde |psi_H>| on low blocks.

    psi_h lives on blocks 0..3, so only those are built, once for all times.
    """
    basis = FockBasis(12)
    gens = build_generators(basis)[:4]
    rng = np.random.default_rng(_SEED + 1)
    cutoff = basis.block_slice(3).stop
    raw = rng.standard_normal(cutoff) + 1j * rng.standard_normal(cutoff)
    psi_h = raw / np.linalg.norm(raw)
    params = scenario_params(scenario.ep_constants(), scenario.lam, times)
    f_plus, f_minus = (f[:, None, None] for f in f_pm(scenario, times))
    tilde = energy_operator(
        scenario.a(times), scenario.lam(times), params.gamma3, params.gamma4
    )
    blocks = zip(gens, _block_factors(gens), element_matrix(tilde, basis, gens))
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


def check_metric_positivity():
    scenario = default_scenario()
    size = 12
    buffer = 2
    basis = FockBasis(size)
    params = scenario_params(scenario.ep_constants(), scenario.lam, sample_times())
    floors, observed = metric_spectrum_report(basis, build_generators(basis), params)
    floor_min = float(np.min(floors))
    observed_min = float(np.min(observed[: size - buffer + 1]))
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
