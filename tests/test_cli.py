import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfsi.cli import main
from mlfsi.config import (
    SCHEMA,
    ConfigError,
    ProbeConfig,
    RunConfig,
    SimulateConfig,
    SweepConfig,
    default_config,
    format_config,
    parse_config,
)
from mlfsi.geometry import MeshConfig, load_mesh

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
    cfg = default_config()
    cfg.validate()
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
    refinement (a multiple of n), ordered windows, and a sweep grid with at
    least 2 points in its top decade (fewer than 0.99 decades between points)."""
    n = draw(st.integers(1, 8))
    olo = tuple(draw(_floats(-10, 10)) for _ in range(3))
    steps = [sorted(draw(st.sets(st.integers(1, 12), min_size=3, max_size=3))) for _ in range(3)]
    ilo, ihi, ohi = (tuple(o + s[k] / n for o, s in zip(olo, steps)) for k in range(3))
    T = draw(_floats(1e-3, 1e6))
    ta = draw(_floats(0, T, exclude_max=True))
    beta_min = draw(_floats(1, 1e6))
    beta_max = draw(_floats(beta_min, 1e7, exclude_min=True))
    decades = math.log10(beta_max / beta_min)
    return RunConfig(
        geometry=MeshConfig(olo, ohi, ilo, ihi, n),
        simulate=SimulateConfig(
            T=T, tau=draw(_floats(1e-6, 1)), seed=draw(st.integers(0, 2**32)),
            fit_window=(ta, draw(_floats(ta, T, exclude_min=True))),
            initial=draw(st.sampled_from(["smooth", "zero"])),
        ),
        sweep=SweepConfig(
            beta_min=beta_min, beta_max=beta_max,
            points=draw(st.integers(math.floor(decades / 0.99) + 2, 1000)),
            probe_seed=draw(st.integers(0, 2**32)),
            opnorm_tol=draw(_floats(0, 1, exclude_min=True)),
        ),
        probe=ProbeConfig(
            manufactured=draw(st.booleans()),
            refinements=tuple(n * k for k in draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))),
            beta=draw(_floats(-1e6, 1e6)),
        ),
        output_dir=draw(
            st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                                  exclude_characters="#"), max_size=20)
            .filter(lambda s: s == s.strip())
        ),
        solve_tol=draw(_floats(0, 1, exclude_min=True)),
    )


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
    assert payload["fitted_exponent"] == 0.0


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
    ("simulate.seed = -1", "simulate.seed must be non-negative, got -1"),
    ("sweep.probe_seed = -2", "sweep.probe_seed must be non-negative, got -2"),
    ("geometry.n = 127", "n = 127 gives 2097152 vertices"),
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
    for command in ("mesh", "simulate", "sweep", "probe"):
        assert main([command, "--config", cfg, "--outdir", str(tmp_path / "each")]) == 0
    names = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "each").iterdir())
    assert names == sorted(["mesh.txt", "energy.csv", "decay.json", "sweep.csv", "growth.json",
                            "probe.json"])
    for name in names:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "each" / name).read_bytes(), name


def test_cmd_sweep_jobs_flag_matches_serial(tmp_path):
    cfg = write_config(tmp_path, FAST_SWEEP)
    assert main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "o1")]) == 0
    assert main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "o2"), "--jobs", "2"]) == 0
    assert (tmp_path / "o1" / "sweep.csv").read_bytes() == (tmp_path / "o2" / "sweep.csv").read_bytes()


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
