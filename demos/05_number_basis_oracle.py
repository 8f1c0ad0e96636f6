"""Everything again, in a truncated number basis that trusts no closed form.

The four generators are built block by block from their ladder-operator
matrix elements alone.  The map, the metric, the broken spectrum and the
invariant flow are then re-measured as matrix facts and compared with the
analytic package surface.  A deliberately wrong metric is included to
show the probe actually bites.
"""

import numpy as np

from ptdyson import (
    FockBasis,
    Scenario,
    TimeProfile,
    broken_spectrum,
    broken_spectrum_numeric,
    build_generators,
    element_matrix,
    invariant_coeffs_for,
    invariant_eigen_flow,
    metric_spectrum_report,
    nonhermitian_hamiltonian,
    scenario_params,
    verify_dyson,
    verify_quasi_hermiticity,
)

scenario = Scenario(
    a=TimeProfile.sinusoid(1.0, 0.2, 2.0),
    lam=TimeProfile.sinusoid(0.5, 0.3, 1.0),
    q2=1.0,
    q3=0.4,
    ktilde_plus=0.5,
    ktilde_minus=0.5,
    n=1,
    m=0,
)
basis = FockBasis(10)
gens = build_generators(basis)
print(
    f"basis: {basis.size} quanta per mode, {len(gens)} blocks, "
    f"{sum(g.nbytes for g in gens)} bytes of generators"
)

times = [0.0, 1.3, 4.0, 8.5]
print(f"map relation residual:    {verify_dyson(scenario, basis, times, gens=gens):.3e}")
print(f"metric flow residual:     {verify_quasi_hermiticity(scenario, basis, times, gens=gens):.3e}")

# metric spectrum: certified floors against observed eigenvalues
params = scenario_params(scenario.ep_constants(), scenario.lam, 1.3)
floors, observed = metric_spectrum_report(basis, gens, params)
print(f"metric floors min:        {min(floors):.3e}")
print(f"metric observed min:      {min(observed):.3e}")

# negative control: pretending the metric is the identity leaves a
# defect that grows linearly with the block index
ham = element_matrix(nonhermitian_hamiltonian(1.0, 0.5), gens)
for k in (1, 4, 7):
    defect = ham[k].conj().T - ham[k]
    print(f"identity-metric defect, block {k}: {np.linalg.norm(defect, 2):.6f}"
          f"   (expected {0.5 * k:.6f})")

# broken spectrum, matrix route vs closed form; blocks come back sorted
# along their imaginary line already
per_block = broken_spectrum_numeric(1.0, 1.0, 0.4, basis)
worst = 0.0
for k, evals in enumerate(per_block[:6]):
    ref = np.array(
        [broken_spectrum(1.0, 0.4, n, k - n) for n in range(k + 1)], dtype=complex
    )
    worst = max(worst, np.max(np.abs(evals - ref)))
print(f"\nbroken spectrum, matrix vs closed form (blocks 0..5): {worst:.3e}")

# invariant eigenvalues must not drift along the flow
coeffs = invariant_coeffs_for(1.0, 0.4)
_, drift = invariant_eigen_flow(coeffs, scenario.lam, np.linspace(0.0, 10.0, 6), basis)
print(f"invariant eigenvalue drift over [0, 10]: {drift:.3e}")
