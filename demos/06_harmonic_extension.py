"""The discrete harmonic extension and its interface flux map.

Boundary data on the cube surface extends into the solid through the
factorized interior stiffness; the flux map (extension followed by the
variational normal derivative) is the stiffness Schur complement: symmetric,
positive semidefinite, and annihilating exactly the constants. Fractional
surface norms come from the eigendecomposition of the surface operator pair,
which also gives the monitored boundedness constants of the extension.
"""

import numpy as np

from mlfsi import MeshConfig, build_mesh, build_system

mesh = build_mesh(MeshConfig(n=8))
system = build_system(mesh)
dmap = system.dirichlet_map
n_i = system.dof.n_i

g = np.ones(n_i)
print("extension of constant data is constant:",
      bool(np.allclose(dmap.extend(g), 1.0)))
print("its flux vanishes:", float(np.max(np.abs(dmap.neumann(g)))))

coords = system.mesh.vertices[system.dof.solid_all]
lin = coords[:, 0]
print("linear fields extend exactly:",
      bool(np.allclose(dmap.extend(lin[:n_i]), lin, atol=1e-12)))

rng = np.random.default_rng(0)
g1, g2 = rng.standard_normal(n_i), rng.standard_normal(n_i)
print(f"flux map symmetry: <Sg1,g2> = {g2 @ dmap.neumann(g1):.12f}, "
      f"<g1,Sg2> = {g1 @ dmap.neumann(g2):.12f}")

for k in range(3):
    g = rng.standard_normal(n_i)
    e = dmap.extend(g)
    inside = e.min() >= g.min() - 1e-12 and e.max() <= g.max() + 1e-12
    ratio = dmap.h1_ratio(g, system)
    print(f"random data {k}: maximum principle holds {inside}, "
          f"H1-vs-half-norm ratio {ratio:.3f}")
