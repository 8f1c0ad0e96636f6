"""Time-dependent Dyson maps for a coupled pair of non-Hermitian oscillators.

The package builds the similarity transformation that turns an explicitly
time-dependent non-Hermitian two-mode Hamiltonian into a Hermitian one,
carries invariants and wavefunctions across that map, and cross-checks every
closed form against independent numerical oracles (ODE integration,
finite differences, quadrature, and a truncated number-state realization).
"""

from .algebra_u2 import (
    BASIS_MATRICES,
    AlgebraElement,
    DysonParams,
    basis_element,
    commutator,
    conjugate,
    group_matrix,
    time_term,
    to_matrix,
)
from .dyson import (
    EPConstants,
    chi_closed_form,
    dyson_residual,
    energy_operator,
    ep_dissipative_residual,
    fit_ep_constants,
    gamma_closed_form,
    gamma_rates,
    hermitian_counterpart,
    nonhermitian_hamiltonian,
    scenario_params,
    scenario_rates,
    solve_gamma_ode,
)
from .energy import (
    Scenario,
    driver_diff_integral,
    energy_expectation,
    f_minus_profile,
    f_plus_profile,
    f_pm,
    scenario_h,
    scenario_hamiltonian,
)
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DomainError,
    ExceptionalPointError,
    IntegrationError,
    PtdysonError,
    SingularEvaluationError,
    UnsupportedDegreeError,
)
from .fock_oracle import (
    FockBasis,
    broken_spectrum_numeric,
    build_eta,
    build_generators,
    dyson_residuals,
    element_matrix,
    invariant_eigen_flow,
    metric_floor,
    metric_spectrum_report,
    quasi_hermiticity_residuals,
    sort_along_line,
    verify_dyson,
    verify_quasi_hermiticity,
)
from .invariants import (
    InvariantCoeffs,
    alpha_coeffs,
    b_diff_integral,
    beta_from_evolution,
    beta_from_match,
    conservation_residual,
    gamma_from_alpha,
    invariant_coeffs_for,
    invariant_element,
    similarity_residual,
)
from .modes import (
    ModeSpec,
    ep_classical,
    ep_classical_rate,
    ep_oscillator_residual,
    ermakov_quantity,
    hermite,
    k1_expectation,
    pedrosa_mode,
    pedrosa_mode_xx,
    phase_integral,
    product_state,
)
from .profiles import TimeProfile
from .static_models import (
    BrokenRegime,
    KModel,
    XYModel,
    broken_spectrum,
    decouple_K,
    decouple_xy,
    spectrum_xy,
    static_eigenstate,
)

__version__ = "0.1.0"
