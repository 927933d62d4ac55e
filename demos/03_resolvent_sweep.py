"""Sweep the imaginary frequency axis and fit the resolvent growth rate.

At each frequency beta the shifted static system is factorized once and the
operator norm of data -> solution is estimated by seeded Lanczos in the
energy metric (`iters` counts its operator applications). The growth of that norm in beta is what limits the decay rate
of the time-domain semigroup; the theoretical ceiling is beta^(11/2), and
the finite model stays far below it (the fitted slope is typically negative
once beta leaves the discrete spectrum).
"""

import tempfile
from pathlib import Path

import numpy as np

from mlfsi import MeshConfig, build_mesh, build_system
from mlfsi.resolvent import GROWTH_REFERENCE_EXPONENT, fit_growth, sweep, write_sweep_csv

mesh = build_mesh(MeshConfig(n=4))
system = build_system(mesh)

betas = np.logspace(0, np.log10(200), 25)
samples = sweep(betas, system, probe_seed=2)

print(f"{'beta':>8}  {'opnorm':>10}  {'iters':>5}  {'poincare':>9}  {'r_crux':>9}")
for s in samples[::4]:
    print(f"{s.beta:8.2f}  {s.opnorm:10.4g}  {s.iters:5d}  {s.poincare_ratio:9.3g}  {s.r_crux:9.3g}")

fit = fit_growth(samples)
print(f"\ngrowth fit over the top decade [{fit.beta_window[0]:.0f}, {fit.beta_window[1]:.0f}]: "
      f"slope {fit.slope:.3f} (theoretical ceiling {GROWTH_REFERENCE_EXPONENT})")

with tempfile.TemporaryDirectory() as tmp:
    write_sweep_csv(samples, Path(tmp) / "sweep.csv")
    lines = (Path(tmp) / "sweep.csv").read_text().splitlines()
print(f"sweep.csv: header {lines[0]}, {len(lines) - 1} rows")
