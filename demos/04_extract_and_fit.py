"""
Extracting the effective coefficient and fitting its running
------------------------------------------------------------

C(d) = e(d) d^3 is extracted from a Cantor family whose governing gap equals
each probe separation, with the dimensionless coupling lambda * d held fixed.
Every member is a rescaled copy of one stack, so the family is scale-free by
construction: C is computed once, the extracted curve is flat at every level
with spread exactly 0, and its running and trace are exactly 0.  Any genuine
running would have to come from breaking that convention.  A synthetic log-periodic curve then shows the fixed-period
fit recovering amplitudes and predicting the trace.
"""

import math

import numpy as np

from castrace import (
    CoefficientModel,
    FitConfig,
    extract_coefficient,
    fit_log_periodic,
    period_scan,
    predicted_trace,
)

grid = np.geomspace(0.5, 2.0, 9)
print("Extraction with fixed dimensionless coupling (lambda_hat = 2);")
print("the family is scale-free, so C is flat by construction (spread exactly 0):")
for level in (0, 1, 2):
    res = extract_coefficient(level, 2.0, grid)
    c = np.asarray(res.c_values)
    print(
        f"  level {level}:  C = {c[0]:+.9e}   spread {np.ptp(c):.2e}   "
        f"max |trace| {np.max(np.abs(res.traces)):.2e}"
    )

print("\nGauge comparison at level 1 (which gap counts as 'the separation'):")
res_min = extract_coefficient(1, 2.0, grid, gauge="min")
res_outer = extract_coefficient(1, 2.0, grid, gauge="outer")
print(f"  min gap gauge:   C = {res_min.c_values[0]:+.9e}")
print(f"  outer gap gauge: C = {res_outer.c_values[0]:+.9e}")

period = math.log(3.0)
truth = CoefficientModel(c0=-0.01, period=period, harmonics=((0.1, 0.0), (0.0, 0.05)))
x = np.linspace(0.0, 2 * period, 96, endpoint=False)
c = np.array([truth.value(math.exp(xi)) for xi in x])

print("\nFitting a synthetic log-periodic curve (period fixed to ln 3):")
fit = fit_log_periodic(x, c, FitConfig(period=period, max_harmonics=2))
print(f"  c0 = {fit.model.c0:+.12f}   (truth {truth.c0})")
for k, (a, b) in enumerate(fit.model.harmonics, start=1):
    print(f"  harmonic {k}: a = {a:+.9f}, b = {b:+.9f}")
print(f"  residual rms = {fit.residual_rms:.3e}")

print("\nResidual versus harmonic cutoff (nested least squares):")
for k in range(4):
    rms = fit_log_periodic(x, c, FitConfig(period=period, max_harmonics=k)).residual_rms
    print(f"  K = {k}:  rms = {rms:.6e}")

print("\nPredicted trace from the fitted running:")
for d in (1.0, 1.5, 3.0):
    print(f"  d = {d:3.1f}:  trace = {predicted_trace(fit, d):+.6e}")

print("\nExploratory period scan (true period sits at ln 3 = 1.0986...):")
trials = np.linspace(0.6, 1.6, 11)
for p, rms in zip(trials, period_scan(x, c, trials, max_harmonics=2)):
    marker = "  <-- minimum" if abs(p - period) < 0.05 else ""
    print(f"  p = {p:.3f}:  rms = {rms:.3e}{marker}")
