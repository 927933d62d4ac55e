"""The four workloads: config text, CLI commands, work-phase entry, work units.

The seed reaches the program only through `--seed`, which sets
`sweep.probe_seed` and `simulate.seed`. The power-iteration start vector and
the step count do not depend on it, so every seed does the same work.
"""

from dataclasses import dataclass

SWEEP_CONFIG = """\
geometry.n = 16
sweep.beta_min = 1
sweep.beta_max = 200
sweep.points = 13
sweep.opnorm_tol = 1e-4
"""

EVOLVE_CONFIG = """\
geometry.n = 16
simulate.T = 20
simulate.tau = 0.01
simulate.initial = smooth
simulate.fit_window = 1 20
"""

REFINE_N = 32
REFINE_LEVELS = (8, 16, 24, 32)
REFINE_CONFIG = f"""\
geometry.n = {REFINE_N}
probe.manufactured = true
probe.refinements = {' '.join(map(str, REFINE_LEVELS))}
probe.beta = 2
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    commands: tuple        # CLI argv lists, before --config/--outdir/--seed
    entry: str             # module.function whose first call ends set-up
    units: int             # work units per round: frequencies, midpoint steps or tetrahedra


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", SWEEP_CONFIG, (("sweep", "--jobs", "1"),), "resolvent.sweep", 13),
        Workload("sweep-jobs2", SWEEP_CONFIG, (("sweep", "--jobs", "2"),), "resolvent.sweep", 13),
        Workload("evolve", EVOLVE_CONFIG, (("simulate",),), "evolution.simulate", 2000),
        Workload(
            "refine", REFINE_CONFIG, (("mesh",), ("probe",)), "geometry.build_mesh",
            6 * REFINE_N**3 + sum(6 * n**3 for n in REFINE_LEVELS),
        ),
    )
}
