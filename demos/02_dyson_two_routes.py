"""Two independent routes to the time-dependent similarity map.

Route one integrates the coupled angle ODEs numerically.  Route two
evaluates the closed forms.  They have to agree along the whole window,
and the resulting map has to solve its defining relation: conjugating the
non-Hermitian generator and adding the time term lands on something
Hermitian.
"""

import numpy as np

from ptdyson import (
    TimeProfile,
    dyson_residual,
    fit_ep_constants,
    gamma_closed_form,
    hermitian_counterpart,
    scenario_params,
    scenario_rates,
    solve_gamma_ode,
)

lam = TimeProfile.sinusoid(0.5, 0.3, 1.0)
a = TimeProfile.sinusoid(1.0, 0.2, 2.0)
g3_0, g4_0 = 0.3, -0.25

# route one: integrate the angle ODEs
times = np.linspace(0.0, 10.0, 201)
ode3, ode4 = solve_gamma_ode(lam, g3_0, g4_0, times)

# route two: fit the two constants of motion, then evaluate closed forms
consts = fit_ep_constants(g3_0, g4_0)
print(f"fitted constants: {consts}")
ref3, ref4 = gamma_closed_form(lam, consts, times)

worst3 = np.max(np.abs(ode3 - ref3))
worst4 = np.max(np.abs(ode4 - ref4))
print(f"route disagreement over [0, 10]: gamma3 {worst3:.2e}, gamma4 {worst4:.2e}")

# the defining relation, sampled
print("\n t      gamma3    gamma4    residual   hermitian part")
for t in (0.0, 1.7, 4.2, 8.9):
    params = scenario_params(consts, lam, t)
    rates = scenario_rates(consts, lam, t)
    res = dyson_residual(a, lam, params, rates, t)
    herm = hermitian_counterpart(a(t), lam(t), params.gamma3, params.gamma4)
    f_plus, f_minus = herm.vector.real[:2]
    print(
        f"{t:4.1f}  {params.gamma3:+.5f}  {params.gamma4:+.5f}  {res:.2e}"
        f"   ({f_plus:.5f}, {f_minus:.5f})"
    )

g3, g4 = gamma_closed_form(lam, consts, 1.7)
print(f"\nclosed form at t = 1.7 agrees: ({g3:.6f}, {g4:.6f})")
print("the residual column is pure rounding; a wrong map would sit at O(1)")
