"""Numerical laboratory for a coupled heat / surface-wave / interior-wave system.

A heat field on a box-minus-cube fluid region drives, through shared
interface velocities, a membrane-like wave equation on the cube surface and
a wave equation inside the cube. The package assembles the coupled P1 system
on the kinematic split of its state, velocities before displacements
[u | w1 | h0 | w0], evolves it with an energy-exact midpoint integrator,
solves the shifted static systems along the imaginary frequency axis, and
monitors the dissipation, trace, and flux identities that control
the decay and resolvent-growth rates.
"""

from .assembly import (
    DofMap,
    KinematicSplit,
    State,
    SurfaceSpectral,
    SystemMatrices,
    build_dofmap,
    build_system,
    compose_first_order,
    energy_norm,
    fluid_gradient_norm,
)
from .config import RunConfig, default_config, format_config, load_config, parse_config
from .evolution import (
    DecayFit,
    EnergyTrace,
    fit_decay,
    make_stepper,
    prepare_smooth_data,
    simulate,
)
from .geometry import (
    FLUID,
    GAMMA_F,
    SOLID,
    Mesh,
    MeshConfig,
    MeshConfigError,
    build_mesh,
    interface_area,
    load_mesh,
    save_mesh,
)
from .identities import (
    DirichletMap,
    MultiplierReport,
    build_z,
    flux_chain_monitor,
    manufactured_study,
    multiplier_residual,
)
from .linalg import Factorization
from .resolvent import (
    GrowthFit,
    ResolventSample,
    dissipation_residual,
    fit_growth,
    solve_static,
    sweep,
)

__version__ = "0.1.0"
