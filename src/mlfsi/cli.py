"""Command-line front end: mesh, simulate, sweep, probe, all.

Every command is deterministic given (config, seed) and writes CSV/JSON
artifacts into the output directory. `main` creates that directory once,
and builds the mesh and then the system on first use, at most once per call:
`all` shares one of each between its steps, `probe` measures them at its
level n = geometry.n, and a command that needs neither builds neither. Exit
codes: 0 success, 2 configuration, validation or artifact-write error, 3
time-domain solver failure, 4 frequency-domain singularity or a
resolvent-norm estimate that did not converge.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

from . import evolution, geometry, resolvent
from .assembly import State, SystemMatrices, build_system
from .config import (
    ConfigError,
    DEFAULT_CONFIG_TEXT,
    RunConfig,
    load_config,
    with_overrides,
)
from .geometry import Mesh, build_mesh, save_mesh
from .identities import manufactured_study
from .linalg import SingularMatrixError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TIME_SOLVER = 3
EXIT_FREQ_SINGULAR = 4


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.output_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(path)!r}: {exc.strerror}") from exc
    return path


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_mesh(out: Path, mesh: Mesh):
    save_mesh(mesh, out / "mesh.txt")
    print(
        f"mesh: {mesh.vertices.shape[0]} vertices, {mesh.tets.shape[0]} tets "
        f"({int((mesh.tet_regions == geometry.SOLID).sum())} solid), "
        f"{mesh.tris.shape[0]} boundary triangles -> {out / 'mesh.txt'}"
    )


def cmd_simulate(cfg: RunConfig, out: Path, system: SystemMatrices):
    sc = cfg.simulate
    if sc.initial == "zero":
        x0 = State.zeros(system.dof)
    else:
        x0 = evolution.prepare_smooth_data(sc.seed, system)
    trace = evolution.simulate(x0, sc.T, sc.tau, system)
    trace.to_csv(out / "energy.csv")
    payload = {
        "window": list(sc.fit_window),
        "reference_exponent": evolution.DECAY_REFERENCE_EXPONENT,
        "max_balance_residual": trace.max_balance_residual(),
        "initial_energy": float(trace.E[0]),
    }
    if sc.initial == "zero":
        payload.update(fitted_exponent=0.0, amplitude=0.0, fit_residual=0.0, note="zero data")
    else:
        fit = evolution.fit_decay(trace, sc.fit_window)
        payload.update(
            fitted_exponent=fit.exponent, amplitude=fit.amplitude,
            fit_residual=fit.residual, samples=fit.n_samples,
        )
    _dump_json(payload, out / "decay.json")
    print(
        f"simulate: {len(trace.t) - 1} steps, fitted decay exponent "
        f"{payload['fitted_exponent']:.6g} (reference {evolution.DECAY_REFERENCE_EXPONENT:.6g}) "
        f"-> {out / 'energy.csv'}"
    )


def cmd_sweep(cfg: RunConfig, out: Path, system: SystemMatrices, jobs):
    sw = cfg.sweep
    samples = resolvent.sweep(
        sw.grid(), system, probe_seed=sw.probe_seed, opnorm_tol=sw.opnorm_tol, jobs=jobs,
    )
    resolvent.write_sweep_csv(samples, out / "sweep.csv")
    fit = resolvent.fit_growth(samples)
    _dump_json(asdict(fit), out / "growth.json")
    print(
        f"sweep: {len(samples)} frequencies in [{sw.beta_min:g}, {sw.beta_max:g}], "
        f"growth slope {fit.slope:.6g} (reference {resolvent.GROWTH_REFERENCE_EXPONENT}) "
        f"-> {out / 'sweep.csv'}"
    )


def cmd_probe(cfg: RunConfig, out: Path, system):
    pc = cfg.probe
    if not pc.manufactured:
        print("probe: manufactured study disabled in config; nothing to do")
        return

    # The level at geometry.n measures the run's system; each other level is built in turn.
    def level(n):
        return system() if n == cfg.geometry.n else build_system(build_mesh(replace(cfg.geometry, n=n)))
    rows, orders = manufactured_study(map(level, pc.refinements), beta=pc.beta)
    payload = {
        "beta": pc.beta,
        "refinements": [r["n"] for r in rows],
        "radial": [asdict(r["radial"]) for r in rows],
        "unit_div": [asdict(r["unit_div"]) for r in rows],
        "orders": orders,
    }
    _dump_json(payload, out / "probe.json")
    print(
        f"probe: residual orders radial {orders['radial']:.3g}, "
        f"unit-div {orders['unit_div']:.3g} -> {out / 'probe.json'}"
    )


# The steps that `all` runs, in order; every other command runs one of them.
PIPELINE = ("mesh", "simulate", "sweep", "probe")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlfsi",
        description="Coupled heat / surface-wave / interior-wave numerical laboratory",
        epilog="Config file keys with their defaults (simulate.initial is smooth or zero):\n\n"
        + DEFAULT_CONFIG_TEXT,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=[*PIPELINE, "all"])
    parser.add_argument("--config", help="path to a key-value config file")
    parser.add_argument("--outdir", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override for simulate and sweep probes")
    parser.add_argument("--jobs", type=int, default=1,
                        help="sweep threads counting the calling one, so 1 starts none; at most"
                        " one per CPU; each past the first holds one more shifted LU")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            cfg = load_config(args.config) if args.config else RunConfig()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = with_overrides(cfg, seed=args.seed, output_dir=args.outdir)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        out = _outdir(cfg)

        @cache
        def mesh():
            return build_mesh(cfg.geometry)

        @cache
        def system():
            return build_system(mesh())

        # Built per call to use the current cmd_* bindings; a failing step raises.
        steps = {"mesh": lambda: cmd_mesh(out, mesh()),
                 "simulate": lambda: cmd_simulate(cfg, out, system()),
                 "sweep": lambda: cmd_sweep(cfg, out, system(), jobs=args.jobs),
                 "probe": lambda: cmd_probe(cfg, out, system)}
        for name in PIPELINE if args.command == "all" else (args.command,):
            steps[name]()
        return EXIT_OK
    except ValueError as exc:  # ConfigError, MeshConfigError, InsufficientPointsError, ...
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an artifact that a step cannot write
        print(f"error: cannot write {exc.filename!r}: {exc.strerror}", file=_sys.stderr)
        return EXIT_CONFIG
    except (evolution.SolverFailure, SingularMatrixError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_TIME_SOLVER
    except (resolvent.FrequencySingularityError, resolvent.OpnormConvergenceError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_FREQ_SINGULAR


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
