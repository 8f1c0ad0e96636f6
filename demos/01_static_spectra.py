"""Static limits: where real spectra survive and where they pair up.

Two frozen-in-time models bracket the behaviour of the full machinery.
The space-coupled pair (imaginary xy coupling) decouples into two real
oscillators as long as the coupling stays inside its exceptional-point
bound; past the bound there is no real rotation at all.  The algebraically
coupled pair never decouples for |lam| >= |a - b| and its levels come in
complex-conjugate pairs instead.
"""

import numpy as np

from ptdyson import (
    ExceptionalPointError,
    XYModel,
    broken_spectrum,
    decouple_K,
    decouple_xy,
    spectrum_xy,
)

# --- space-coupled pair, inside the bound -------------------------------

model = XYModel(m=1.0, omega_x=1.0, omega_y=np.sqrt(3.0), coupling=0.5)
bound = model.ep_bound()
print(f"space-coupled pair, exceptional point at |coupling| = {bound:.6f}")

theta, wx, wy = decouple_xy(model)
print(f"  coupling 0.5 decouples with theta = {theta:.6f}")
print(f"  effective frequencies: {wx:.6f}, {wy:.6f}")
for energy, n, m in spectrum_xy(wx, wy, 2, 2)[:5]:
    print(f"  level ({int(n)},{int(m)}): {energy:.6f}")

# --- and beyond it -------------------------------------------------------

for coupling in (0.9, 0.999, 1.001, 1.5):
    try:
        _, wx, wy = decouple_xy(XYModel(1.0, 1.0, np.sqrt(3.0), coupling))
        print(f"coupling {coupling}: real frequencies {wx:.4f}, {wy:.4f}")
    except ExceptionalPointError as err:
        print(f"coupling {coupling}: {err}")

# --- algebraic coupling: broken regime ----------------------------------

result = decouple_K(1.0, 1.0, 0.4)
print(f"\nalgebraic pair a = b = 1, lam = 0.4: {result}")
print("levels (n, m) -> a (n + m + 1) + i lam (n - m) / 2:")
for n in range(3):
    for m in range(3):
        e = broken_spectrum(result.mean, result.split, n, m)
        print(f"  ({n},{m}): {e.real:+.4f} {e.imag:+.4f}i")

# away from a = b the same model can decouple
theta, herm = decouple_K(1.0, 3.0, 1.0)
print(f"\na = 1, b = 3, lam = 1 decouples: theta = {theta:.6f}")
print(f"  hermitian coefficients: {np.round(herm.vector.real, 6)}")
