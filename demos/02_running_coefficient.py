"""
A log-periodically running coefficient and its trace
----------------------------------------------------

When the coefficient oscillates in ln(d), the vacuum stress picks up a trace
proportional to the running dC/dlnd.  Adding a thermal sector with spectral
dimension d_s != 3 contributes its own exact trace, and the combined trace
sources a scalar curvature through R = -8 pi G T.
"""

import math

import numpy as np

from castrace import (
    CoefficientModel,
    ricci_scalar,
    thermal_state,
    trace_report,
    vacuum_stress,
)

period = math.log(3.0)
model = CoefficientModel(
    c0=-0.01, period=period, harmonics=((0.1, 0.05),), ell_star=1.0
)
print(f"model: c0 = {model.c0}, period = ln 3, harmonics = {model.harmonics}\n")

print("One log-period of the running and the induced trace:")
print(f"{'d':>9}  {'C(d)':>12}  {'dC/dlnd':>12}  {'vacuum trace':>13}")
for d in np.geomspace(1.0, 3.0, 9):
    stress = vacuum_stress(model, d)
    print(
        f"{d:9.4f}  {model.value(d):12.6f}  {model.log_derivative(d):12.6f}  "
        f"{stress.trace:13.4e}"
    )

print("\nPeriodicity check: C(d) vs C(3d)")
for d in (0.7, 1.0, 1.9):
    print(f"  C({d}) = {model.value(d):.12f}   C({3*d}) = {model.value(3*d):.12f}")

thermal = thermal_state(u_th=2.0, v_s=1.0, d_s=1.365)  # gasket-like dimension
print(f"\nthermal sector: rho = {thermal.rho_th}, d_s = {thermal.d_s}")
print(f"  p_th = rho/d_s = {thermal.p_th:.6f}")
print(f"  thermal trace = rho (3/d_s - 1) = {thermal.trace:.6f}")

d = 1.4
total = trace_report(model, thermal, d).total_trace
print(f"\nat d = {d}:")
print(f"  vacuum trace  = {vacuum_stress(model, d).trace:+.6e}")
print(f"  thermal trace = {thermal.trace:+.6e}")
print(f"  total trace   = {total:+.6e}")
print(f"  R (G = 1)     = {ricci_scalar(total, 1.0):+.6e}")

rep = trace_report(model, thermal, d, g_newton=1.0)
print(f"\nfull report row: {rep}")
