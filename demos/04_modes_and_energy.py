"""Wavefunctions on a time-dependent background and their real energies.

The two split drivers act as time-dependent frequencies for decoupled
1D channels.  Each channel carries a classical scale function with a
conserved Ermakov quantity, an exactly integrable phase, and explicit
normalized modes.  Expectation values assembled from them stay real for
every mode pair.
"""

import numpy as np

from ptdyson import (
    ModeSpec,
    Scenario,
    TimeProfile,
    energy_expectation,
    ep_classical,
    ep_classical_rate,
    ermakov_quantity,
    f_plus_profile,
    f_pm,
    k1_expectation,
    pedrosa_mode,
    phase_integral,
    product_state,
)


def trapezoid(y, x):
    """Trapezoid rule for the samples y at the nodes x, along y's last axis."""
    return 0.5 * np.sum((y[..., 1:] + y[..., :-1]) * np.diff(x), axis=-1)


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

# split drivers sum to twice the diagonal drive
for t in (0.0, 1.3):
    fp, fm = f_pm(scenario, t)
    print(f"t = {t}: f+ = {fp:.6f}, f- = {fm:.6f}, sum = {fp + fm:.6f}")

# Ermakov quantity: conserved along the scale function, value 2 sqrt(1 + kt^2)
driver = f_plus_profile(scenario)
fn = lambda t: ep_classical(0.5, driver, t)
rate = lambda t: ep_classical_rate(0.5, driver, t)
print("\nErmakov quantity (expected {:.12f}):".format(2.0 * np.sqrt(1.25)))
for t in (0.2, 1.1, 3.7, 7.9):
    print(f"  t = {t}: {ermakov_quantity(fn, rate, driver, t):.12f}")

# phase winds monotonically; closed form handles many periods
print("\naccumulated phase:", [round(phase_integral(0.5, driver, t), 4) for t in (1.0, 4.0, 8.0)])

# one normalized mode and its quadrature norm
spec = ModeSpec(n=1, driver=driver, ktilde=0.5)
x = np.linspace(-8.0, 8.0, 4001)
psi = pedrosa_mode(spec, x, 1.3)
norm = trapezoid(np.abs(psi) ** 2, x)
print(f"mode n=1 norm at t = 1.3: {norm:.10f}")
print(f"first-channel expectation ingredient: {k1_expectation(spec):.6f}")

# the 2D product state inherits both channels
xg, yg = np.meshgrid(np.linspace(-6, 6, 401), np.linspace(-6, 6, 401), indexing="ij")
joint = product_state(1, 0, scenario, xg, yg, 1.3)
norm2d = trapezoid(trapezoid(np.abs(joint) ** 2, yg[0]), xg[:, 0])
print(f"2D product norm at t = 1.3: {norm2d:.8f}")

# energies are real and stay O(1) over the window
print("\n t     energy")
for t in np.linspace(0.0, 10.0, 6):
    print(f"{t:4.1f}  {energy_expectation(scenario, float(t)):+.8f}")
