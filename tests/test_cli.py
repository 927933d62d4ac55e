import inspect
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mlfsi
from mlfsi import evolution, linalg, resolvent
from mlfsi.cli import main
from mlfsi.config import (
    DEFAULT_CONFIG_TEXT,
    SCHEMA,
    ConfigError,
    ProbeConfig,
    RunConfig,
    SimulateConfig,
    SweepConfig,
    format_config,
    parse_config,
)
from mlfsi.evolution import MAX_STEPS
from mlfsi.geometry import MeshConfig, load_mesh
from mlfsi.identities import MAX_PROBE_BETA

SMALL_GEOMETRY = """
geometry.outer_lo = 0 0 0
geometry.outer_hi = 1 1 1
geometry.inner_lo = 0.25 0.25 0.25
geometry.inner_hi = 0.75 0.75 0.75
geometry.n = 4
"""

FAST_SIMULATE = SMALL_GEOMETRY + """
simulate.T = 2
simulate.tau = 0.01
simulate.fit_window = 0.5 2
simulate.seed = 1
"""

FAST_SWEEP = SMALL_GEOMETRY + """
sweep.beta_min = 1
sweep.beta_max = 10
sweep.points = 5
sweep.probe_seed = 2
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_default_config_parses_and_validates():
    cfg = parse_config(DEFAULT_CONFIG_TEXT)
    cfg.validate()
    assert cfg == RunConfig()
    assert cfg.sweep.points == 25
    assert cfg.simulate.fit_window == (1.0, 50.0)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("geometry.m = 3\n")


def test_parse_config_rejects_bad_window():
    with pytest.raises(ConfigError, match="fit window"):
        parse_config("simulate.fit_window = 10 200\nsimulate.T = 50\n")


def test_parse_config_rejects_beta_below_one():
    with pytest.raises(ConfigError, match="beta_min"):
        parse_config("sweep.beta_min = 0.5\n")


def test_parse_config_rejects_wrong_tuple_length():
    with pytest.raises(ConfigError, match=r"simulate\.fit_window: expected 2 values"):
        parse_config("simulate.fit_window = 1 20 50\n")


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def valid_configs(draw):
    """Configs that pass ``validate``: corners on grid planes at n and at every
    refinement (a multiple of n, where the cube is at least 2 cells wide),
    ordered windows (for smooth data, starting after t = 0 and at least 12
    steps long), at most MAX_STEPS / 2 time steps, and a strictly increasing
    sweep grid with at least 2 points in its top decade (fewer than 0.99
    decades between points): a range a few ulps wide can repeat a frequency;
    |probe.beta| at most MAX_PROBE_BETA."""
    n = draw(st.integers(1, 8))
    olo = tuple(draw(_floats(-10, 10)) for _ in range(3))
    steps = [sorted(draw(st.sets(st.integers(1, 12), min_size=3, max_size=3))) for _ in range(3)]
    ilo, ihi, ohi = (tuple(o + s[k] / n for o, s in zip(olo, steps)) for k in range(3))
    # A cube one cell wide at n has no interior vertex: its probe levels refine n.
    k_min = 1 if min(s[1] - s[0] for s in steps) >= 2 else 2
    T = draw(_floats(1e-3, 1e6))
    initial = draw(st.sampled_from(["smooth", "zero"]))
    tau_min = max(1e-6, 2 * T / MAX_STEPS)
    if initial == "smooth":
        tau = draw(_floats(tau_min, min(1.0, T / 30)))
        ta = draw(_floats(tau, T - 13 * tau))
        tb = draw(_floats(ta + 12 * tau, T))
    else:
        tau = draw(_floats(tau_min, 1))
        ta = draw(_floats(0, T, exclude_max=True))
        tb = draw(_floats(ta, T, exclude_min=True))
    beta_min = draw(_floats(1, 1e6))
    beta_max = draw(_floats(beta_min, 1e7, exclude_min=True))
    decades = math.log10(beta_max / beta_min)
    cfg = RunConfig(
        geometry=MeshConfig(olo, ohi, ilo, ihi, n),
        simulate=SimulateConfig(
            T=T, tau=tau, seed=draw(st.integers(0, 2**32)), fit_window=(ta, tb), initial=initial,
        ),
        sweep=SweepConfig(
            beta_min=beta_min, beta_max=beta_max,
            points=draw(st.integers(math.floor(decades / 0.99) + 2, 1000)),
            probe_seed=draw(st.integers(0, 2**32)),
            opnorm_tol=draw(_floats(0, 1, exclude_min=True)),
        ),
        probe=ProbeConfig(
            manufactured=draw(st.booleans()),
            refinements=tuple(n * k for k in draw(
                st.lists(st.integers(k_min, 8), min_size=2, max_size=5, unique=True))),
            beta=draw(_floats(-MAX_PROBE_BETA, MAX_PROBE_BETA)),
        ),
    )
    assume(np.all(np.diff(cfg.sweep.grid()) > 0))
    return cfg


def test_validate_bounds_the_step_count():
    def run(T, tau):
        return replace(RunConfig(), simulate=SimulateConfig(T=T, tau=tau, initial="zero"))

    run(MAX_STEPS * 0.5, 0.5).validate()
    for T, tau, steps in ((MAX_STEPS * 0.5 + 1, 0.5, r"1e\+08"), (1e12, 0.01, r"1e\+14")):
        with pytest.raises(ConfigError, match=rf"simulate.T / simulate.tau = {steps} steps, above"):
            run(T, tau).validate()


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_format_config_round_trips(cfg):
    cfg.validate()
    assert parse_config(format_config(cfg)) == cfg


def test_help_lists_every_schema_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in SCHEMA:
        assert re.search(rf"^{re.escape(key)} = ", out, re.M), key


def test_readme_defaults_block_parses_to_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"The defaults:\n\n```\n(.*?)```", readme, re.S).group(1)
    assert parse_config(block) == RunConfig()


def test_library_defaults_are_the_config_defaults():
    # The library's defaults are RunConfig()'s; the per-frequency functions take
    # their tolerances from their caller and have no default of their own.
    cfg = RunConfig()
    sweep = inspect.signature(resolvent.sweep).parameters
    assert sweep["probe_seed"].default == cfg.sweep.probe_seed
    assert sweep["opnorm_tol"].default == cfg.sweep.opnorm_tol
    # Every static solve checks its residual against the one SOLVE_TOL; no key or argument sets it.
    assert "solve_tol" not in SCHEMA
    assert "tol" not in inspect.signature(resolvent.solve_static).parameters
    # A sweep takes exactly the keywords cmd_sweep passes it: no switch that only tests set.
    assert {name for name, p in sweep.items() if p.kind is p.KEYWORD_ONLY} == {
        "probe_seed", "opnorm_tol", "jobs"}
    for fn, names in ((resolvent.sample_point, ("opnorm_tol",)),
                      (resolvent.resolvent_opnorm, ("tol",)),
                      (linalg.opnorm_from_normal, ("tol", "seed"))):
        params = inspect.signature(fn).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, (fn.__name__, name)
    # The norm estimate reads beta, M and the dimension off the factor, so no
    # argument can disagree with it.
    assert list(inspect.signature(resolvent.resolvent_opnorm).parameters) == ["shifted", "tol"]
    assert "dim" not in inspect.signature(linalg.opnorm_from_normal).parameters


def test_output_directory_comes_from_outdir_alone(tmp_path, monkeypatch):
    # No config key names it (a config that sets output_dir is rejected with
    # the other unknown keys below); without --outdir it is ./out.
    assert len(SCHEMA) == 18 and all("." in key for key in SCHEMA)
    monkeypatch.chdir(tmp_path)
    assert main(["mesh", "--config", write_config(tmp_path, SMALL_GEOMETRY)]) == 0
    assert load_mesh(tmp_path / "out" / "mesh.txt").vertices.shape[0] == 125


def test_cmd_mesh_writes_dump(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_GEOMETRY)
    code = main(["mesh", "--config", cfg, "--outdir", str(tmp_path / "out")])
    assert code == 0
    mesh = load_mesh(tmp_path / "out" / "mesh.txt")
    assert mesh.vertices.shape[0] == 125
    assert "125 vertices" in capsys.readouterr().out


def test_cmd_mesh_bad_alignment_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_GEOMETRY.replace("geometry.n = 4", "geometry.n = 3"))
    code = main(["mesh", "--config", cfg, "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "axis 0" in err


@pytest.mark.parametrize("module", ["mlfsi", "mlfsi.cli"])
def test_python_m_entry_runs_commands(tmp_path, module):
    env = {**os.environ, "PYTHONPATH": str(Path(mlfsi.__file__).parents[1])}

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("mesh", "--outdir", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert load_mesh(tmp_path / "out" / "mesh.txt").vertices.shape[0] == 125
    done = run("sweep", "--config", str(tmp_path / "missing.cfg"), "--outdir", str(tmp_path / "o2"))
    assert done.returncode == 2
    assert "cannot read config file" in done.stderr


def test_cmd_mesh_roundtrip_bytes(tmp_path):
    cfg = write_config(tmp_path, SMALL_GEOMETRY)
    assert main(["mesh", "--config", cfg, "--outdir", str(tmp_path / "o1")]) == 0
    assert main(["mesh", "--config", cfg, "--outdir", str(tmp_path / "o2")]) == 0
    b1 = (tmp_path / "o1" / "mesh.txt").read_bytes()
    b2 = (tmp_path / "o2" / "mesh.txt").read_bytes()
    assert b1 == b2


def test_cmd_simulate_zero_initial_data(tmp_path):
    cfg = write_config(tmp_path, FAST_SIMULATE + "simulate.initial = zero\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--outdir", str(out)]) == 0
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.all(data[:, 1:] == 0.0)
    payload = json.loads((out / "decay.json").read_text())
    assert payload == {"fitted_exponent": 0.0, "amplitude": 0.0, "fit_residual": 0.0,
                       "window": [0.5, 2.0], "reference_exponent": 2 / 11, "note": "zero data",
                       "max_balance_residual": 0.0, "initial_energy": 0.0}


def test_decay_json_keys_are_the_decay_fit_fields(tmp_path):
    cfg = write_config(tmp_path, FAST_SIMULATE)
    assert main(["simulate", "--config", cfg, "--outdir", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "decay.json").read_text())
    keys = {f.name for f in fields(evolution.DecayFit)}
    assert set(payload) == keys | {"max_balance_residual", "initial_energy"}
    assert payload["window"] == [0.5, 2.0] and payload["reference_exponent"] == 2 / 11


def test_cmd_simulate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, FAST_SIMULATE)
    assert main(["simulate", "--config", cfg, "--outdir", str(tmp_path / "o1")]) == 0
    assert main(["simulate", "--config", cfg, "--outdir", str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o1" / "energy.csv").read_bytes() == (tmp_path / "o2" / "energy.csv").read_bytes()
    assert (tmp_path / "o1" / "decay.json").read_bytes() == (tmp_path / "o2" / "decay.json").read_bytes()


def test_cmd_simulate_json_contains_reference(tmp_path):
    cfg = write_config(tmp_path, FAST_SIMULATE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--outdir", str(out)]) == 0
    payload = json.loads((out / "decay.json").read_text())
    assert payload["reference_exponent"] == pytest.approx(2.0 / 11.0)
    assert "fitted_exponent" in payload


def test_cmd_sweep_writes_csv_and_json(tmp_path):
    cfg = write_config(tmp_path, FAST_SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--outdir", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 6
    payload = json.loads((out / "growth.json").read_text())
    assert payload["reference_exponent"] == pytest.approx(5.5)
    assert payload["points"] >= 2


def test_cmd_sweep_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, FAST_SWEEP)
    assert main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "o1")]) == 0
    assert main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o1" / "sweep.csv").read_bytes() == (tmp_path / "o2" / "sweep.csv").read_bytes()


def test_cmd_sweep_one_point_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST_SWEEP.replace("sweep.points = 5", "sweep.points = 1"))
    code = main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "insufficient points" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("sweep.points = 3", "growth-fit window [20, 200] holds fewer than 2 of 3 frequencies"),
    ("probe.refinements = 4 6", "probe.refinements: n = 6: axis 0: inner_lo does not align"),
    ("probe.refinements = 4 0", "probe.refinements: n = 0: n must be a positive integer"),
    ("probe.refinements = 4 4", "probe.refinements repeats n = 4"),
    ("probe.refinements = 4", "probe.refinements needs at least 2 levels, got 1: the order fit needs two h"),
    ("geometry.inner_hi = 0.5 0.5 0.5\nprobe.refinements = 4 8",
     "probe.refinements: n = 4: axis 0: the cube spans one grid cell"),
    ("geometry.inner_lo = 0.25 0.5 0.25\nprobe.refinements = 8 4",
     "probe.refinements: n = 4: axis 1: the cube spans one grid cell"),
    ("simulate.seed = -1", "simulate.seed must be non-negative, got -1"),
    ("sweep.probe_seed = -2", "sweep.probe_seed must be non-negative, got -2"),
    ("geometry.n = 127", "n = 127 gives 2097152 vertices"),
    ("simulate.fit_window = 0 2", "simulate.fit_window: window must start at positive time"),
    ("simulate.fit_window = 1 1.05", "simulate.fit_window: window holds 6 samples; need at least 10"),
    ("simulate.T = inf\nsimulate.initial = zero", "simulate.T must be finite, got inf"),
    ("simulate.tau = nan", "simulate.tau must be finite, got nan"),
    ("sweep.beta_max = inf", "sweep.beta_max must be finite, got inf"),
    ("geometry.inner_hi = 0.75 nan 0.75", "geometry.inner_hi must be finite, got 0.75 nan 0.75"),
    ("simulate.T = 1e308\nsimulate.initial = zero",
     "simulate.T / simulate.tau = inf steps, above 100000000"),
    ("simulate.T = 1e308", "simulate.T / simulate.tau = inf steps, above 100000000"),
    ("geometry.n = 4\ngeometry.n = 8", "line 2: key 'geometry.n' repeats line 1"),
    ("sweep.points = 10000000000000", "sweep.points = 10000000000000, above 1000000"),
    ("sweep.opnorm_tol = 0", "sweep.opnorm_tol must be positive"),
    ("solve_tol = 1e-10", "line 1: unknown key 'solve_tol'"),
    ("output_dir = x", "line 1: unknown key 'output_dir'"),
    ("sweep.beta_min = 100\nsweep.beta_max = 100.00000000000003\nsweep.points = 3",
     "sweep grid on [100.0, 100.00000000000003] with 3 points is not strictly increasing"),
    ("sweep.beta_min = 1e119\nsweep.beta_max = 1e120\nsweep.points = 3",
     "sweep.beta_max = 1e+120, above 1e+08"),
    ("sweep.beta_min = 1e94\nsweep.beta_max = 1e95\nsweep.points = 3",
     "sweep.beta_max = 1e+95, above 1e+08"),
    ("probe.beta = 1e200", "|probe.beta| = 1e+200, above 1e+08"),
    ("probe.beta = -3e5", "|probe.beta| = 300000, above MAX_PROBE_BETA = 100000: rounding"),
    ("probe.beta = 1e8", "|probe.beta| = 1e+08, above MAX_PROBE_BETA = 100000: rounding"),
])
def test_cmd_all_rejects_config_before_any_artifact(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main(["all", "--config", cfg, "--outdir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "simulate.seed must be non-negative, got -1"),
    (["--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["--jobs", "-3"], "--jobs must be at least 1, got -3"),
])
def test_cmd_all_rejects_bad_flag_before_any_artifact(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["all", "--outdir", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("outdir", ["file", "file/sub"])
def test_outdir_that_cannot_be_created_exit_2(tmp_path, capsys, outdir):
    (tmp_path / "file").write_text("")
    out = tmp_path / outdir
    assert main(["mesh", "--config", write_config(tmp_path, SMALL_GEOMETRY),
                 "--outdir", str(out)]) == 2
    assert f"cannot create output directory {str(out)!r}" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == ""


def test_artifact_that_cannot_be_written_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "mesh.txt").mkdir(parents=True)
    assert main(["mesh", "--config", write_config(tmp_path, SMALL_GEOMETRY),
                 "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"cannot write {str(out / 'mesh.txt')!r}" in err
    assert "Traceback" not in err


def test_cmd_probe_residuals_decrease(tmp_path):
    cfg = write_config(tmp_path, SMALL_GEOMETRY + "probe.refinements = 4 8\n")
    out = tmp_path / "out"
    assert main(["probe", "--config", cfg, "--outdir", str(out)]) == 0
    payload = json.loads((out / "probe.json").read_text())
    for key in ("radial", "unit_div"):
        res = [row["residual"] for row in payload[key]]
        assert res[0] > res[1]


def test_cmd_probe_respects_toggle(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_GEOMETRY + "probe.manufactured = false\n")
    assert main(["probe", "--config", cfg, "--outdir", str(tmp_path / "out")]) == 0
    assert "disabled" in capsys.readouterr().out


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, FAST_SIMULATE)
    assert main(["simulate", "--config", cfg, "--outdir", str(tmp_path / "o1"), "--seed", "7"]) == 0
    assert main(["simulate", "--config", cfg, "--outdir", str(tmp_path / "o2"), "--seed", "8"]) == 0
    assert (tmp_path / "o1" / "energy.csv").read_bytes() != (tmp_path / "o2" / "energy.csv").read_bytes()


def test_unreadable_config_is_config_error(tmp_path, capsys):
    code = main(["mesh", "--config", str(tmp_path / "nope.cfg"), "--outdir", str(tmp_path)])
    assert code == 2


def test_cmd_all_produces_every_artifact(tmp_path):
    cfg = write_config(
        tmp_path,
        FAST_SWEEP
        + "simulate.T = 2\nsimulate.tau = 0.01\nsimulate.fit_window = 0.5 2\n"
        + "probe.refinements = 4 8\n",
    )
    out = tmp_path / "out"
    assert main(["all", "--config", cfg, "--outdir", str(out)]) == 0
    for name in ("mesh.txt", "energy.csv", "decay.json", "sweep.csv", "growth.json", "probe.json"):
        assert (out / name).exists(), name


def test_cmd_all_matches_the_commands_one_by_one(tmp_path):
    cfg = write_config(
        tmp_path,
        FAST_SWEEP
        + "simulate.T = 2\nsimulate.tau = 0.01\nsimulate.fit_window = 0.5 2\n"
        + "probe.refinements = 4 8\n",
    )
    assert main(["all", "--config", cfg, "--outdir", str(tmp_path / "all")]) == 0
    # Its sweep threads share the one system that its simulate step already used.
    assert main(["all", "--config", cfg, "--outdir", str(tmp_path / "jobs2"), "--jobs", "2"]) == 0
    for command in ("mesh", "simulate", "sweep", "probe"):
        assert main([command, "--config", cfg, "--outdir", str(tmp_path / "each")]) == 0
    names = sorted(p.name for p in (tmp_path / "each").iterdir())
    assert names == sorted(["mesh.txt", "energy.csv", "decay.json", "sweep.csv", "growth.json",
                            "probe.json"])
    for run in ("all", "jobs2"):
        assert sorted(p.name for p in (tmp_path / run).iterdir()) == names, run
        for name in names:
            assert (tmp_path / run / name).read_bytes() == (tmp_path / "each" / name).read_bytes(), \
                (run, name)


@pytest.mark.parametrize("command, builds", [
    # The steps share the mesh and the system: one fluid and one solid table
    # for the run, and the probe level at geometry.n = 4 reads the run's solid
    # and surface tables. The levels 8 and 16 build their own of each.
    ("all", {"build_mesh": 3, "build_system": 3, "_tet_kernel": 4, "_tri_kernel": 3}),
    ("mesh", {"build_mesh": 1}),
    ("probe", {"build_mesh": 3, "build_system": 3, "_tet_kernel": 3, "_tri_kernel": 3}),
])
def test_each_command_builds_its_pieces_once(tmp_path, monkeypatch, command, builds):
    import mlfsi.assembly as assembly
    import mlfsi.cli as cli

    calls = Counter()
    for module, name in ((cli, "build_mesh"), (cli, "build_system"),
                         (assembly, "_tet_kernel"), (assembly, "_tri_kernel")):
        def recording(*args, name=name, fn=getattr(module, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, recording)
    assert main([command, "--outdir", str(tmp_path / "out")]) == 0
    assert calls == builds


def test_cmd_sweep_jobs_flag_matches_serial(tmp_path):
    cfg = write_config(tmp_path, FAST_SWEEP)
    assert main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "o1")]) == 0
    assert main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "o2"), "--jobs", "2"]) == 0
    assert (tmp_path / "o1" / "sweep.csv").read_bytes() == (tmp_path / "o2" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("error", ["FrequencySingularityError", "OpnormConvergenceError"])
def test_cmd_sweep_jobs_failing_frequency_exit_4(tmp_path, capsys, monkeypatch, error):
    # A frequency that fails on a sweep thread exits as it does serially.
    import mlfsi.resolvent as resolvent

    sample_point = resolvent.sample_point

    def failing(beta, *args, **kwargs):
        if beta > 5:
            raise getattr(resolvent, error)(beta, "forced")
        return sample_point(beta, *args, **kwargs)

    monkeypatch.setattr(resolvent, "sample_point", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write_config(tmp_path, FAST_SWEEP)
    errors = []
    for jobs in ("1", "2"):
        assert main(["sweep", "--config", cfg, "--outdir", str(tmp_path / jobs), "--jobs", jobs]) == 4
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "beta = 5.62" in errors[0] and "forced" in errors[0]


def test_cmd_sweep_opnorm_no_convergence_exit_4(tmp_path, capsys, monkeypatch):
    import mlfsi.resolvent as resolvent
    from scipy.sparse.linalg import ArpackNoConvergence

    def never_converges(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.array([]), np.array([]))

    monkeypatch.setattr(resolvent, "opnorm_from_normal", never_converges)
    cfg = write_config(tmp_path, FAST_SWEEP)
    code = main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: resolvent norm at beta = 1.0 did not converge")
    assert len(err.strip().splitlines()) == 1
