"""Manufactured-solution refinement study of the wave multiplier identities.

Both identities are exact statements about any field that vanishes on the
cube surface; evaluating them on the interpolant of a known smooth field
isolates the discretization error of each ingredient (element quadrature is
exact, so what remains is interpolation plus boundary flux recovery). The
radial identity pays for the recovered normal flux and is expected to
converge at least at order 1/2; the unit-divergence identity needs no
boundary terms and converges at least at order 1.
"""

from mlfsi import MeshConfig, build_mesh, build_system
from mlfsi.identities import manufactured_study

# Each level's mesh and system are built when the study reaches it.
levels = (build_system(build_mesh(MeshConfig(n=n))) for n in (4, 8, 16))
rows, orders = manufactured_study(levels, beta=2.0)

print(f"{'n':>4}  {'h':>8}  {'radial residual':>16}  {'unit-div residual':>18}")
for r in rows:
    print(f"{r['n']:4d}  {r['radial'].h:8.4f}  {r['radial'].residual:16.6g}  "
          f"{r['unit_div'].residual:18.6g}")

print(f"\nfitted orders (slope of log residual vs log h):")
print(f"  radial   : {orders['radial']:.2f}  (required >= 0.5)")
print(f"  unit-div : {orders['unit_div']:.2f}  (required >= 1.0)")
