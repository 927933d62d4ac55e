"""Numerical laboratory for a coupled heat / surface-wave / interior-wave system.

A heat field on a box-minus-cube fluid region drives, through shared
interface velocities, a membrane-like wave equation on the cube surface and
a wave equation inside the cube. The package assembles the coupled P1 system
on the kinematic split of its state, velocities before displacements
[u | w1 | h0 | w0], evolves it with an energy-exact midpoint integrator,
solves the shifted static systems along the imaginary frequency axis, and
monitors the dissipation, trace, and flux identities that control
the decay and resolvent-growth rates.

The top level holds the mesh and system entry points: `MeshConfig`,
`build_mesh`, `save_mesh`, `load_mesh`, `interface_area`, the region tags
`FLUID` and `SOLID`, `build_system` and `energy_norm`. Everything else is
imported from its module (`mlfsi.resolvent`, `mlfsi.evolution`, ...).
"""

from .assembly import build_system, energy_norm
from .geometry import FLUID, SOLID, MeshConfig, build_mesh, interface_area, load_mesh, save_mesh
