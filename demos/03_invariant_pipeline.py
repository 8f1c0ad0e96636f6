"""From one coefficient family to conserved quantities in both frames."""

from ptdyson import (
    AlgebraElement,
    TimeProfile,
    alpha_coeffs,
    beta_from_match,
    conservation_residual,
    gamma_from_alpha,
    hermitian_counterpart,
    invariant_coeffs_for,
    nonhermitian_hamiltonian,
    similarity_residual,
    scenario_params,
)

lam = TimeProfile.sinusoid(0.5, 0.3, 1.0)
a = TimeProfile.sinusoid(1.0, 0.2, 2.0)

coeffs = invariant_coeffs_for(1.0, 0.4)
print("coefficient family:", coeffs)
print("derived constants: c5..c8 =", coeffs.c5, coeffs.c6, coeffs.c7, coeffs.c8)

# non-Hermitian frame: the element built from the alpha flow is conserved
def inv_nh(t):
    return AlgebraElement(alpha_coeffs(coeffs, lam, t))

def ham_nh(t):
    return nonhermitian_hamiltonian(a(t), lam(t))

# Hermitian frame: real coefficients from the matching conditions
def inv_h(t):
    return AlgebraElement(beta_from_match(coeffs, lam, t))

def ham_h(t):
    params = scenario_params(coeffs.ep_constants(), lam, t)
    return hermitian_counterpart(a(t), lam(t), params[2], params[3])

print("\n t    conservation (non-Hermitian)   conservation (Hermitian)")
for t in (0.4, 2.1, 6.3):
    print(f"{t:4.1f}        {conservation_residual(inv_nh, ham_nh, t):.3e}"
          f"                  {conservation_residual(inv_h, ham_h, t):.3e}")

# the two frames are tied together by the same map that tames the
# Hamiltonian; similarity_residual measures exactly that
print("\n t    similarity residual    beta3^2 + beta4^2")
for t in (0.4, 2.1, 6.3):
    alpha = alpha_coeffs(coeffs, lam, t)
    beta = beta_from_match(coeffs, lam, t)
    params = scenario_params(coeffs.ep_constants(), lam, t)
    res = similarity_residual(alpha, beta, params)
    circle = beta[2] ** 2 + beta[3] ** 2
    print(f"{t:4.1f}       {res:.3e}           {circle:.12f}")
print(f"circle radius squared c7^2 = {coeffs.c7 ** 2:.12f}")

# the angles can also be read straight off the alpha flow
t = 2.1
g3, g4 = gamma_from_alpha(alpha_coeffs(coeffs, lam, t))
params = scenario_params(coeffs.ep_constants(), lam, t)
print(f"\nangles from alpha at t = {t}: ({g3:.10f}, {g4:.10f})")
print(f"angles from closed form:      ({params[2]:.10f}, {params[3]:.10f})")
