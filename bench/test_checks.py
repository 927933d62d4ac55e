"""Each output check accepts the program's real output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py

Outputs come from the mlfsi CLI on small inputs, with BLAS pinned to one
thread as in the benchmark.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
from mlfsi.assembly import build_system  # noqa: E402
from mlfsi.geometry import MeshConfig, build_mesh  # noqa: E402

N = 8
SWEEP = dict(beta_min=1.0, beta_max=60.0, points=5)
EVOLVE = dict(T=2.0, tau=0.01, window=(0.5, 2.0))
LEVELS = (4, 8, 16)
CONFIG = f"""\
geometry.n = {N}
sweep.beta_min = {SWEEP['beta_min']}
sweep.beta_max = {SWEEP['beta_max']}
sweep.points = {SWEEP['points']}
simulate.T = {EVOLVE['T']}
simulate.tau = {EVOLVE['tau']}
simulate.fit_window = {EVOLVE['window'][0]} {EVOLVE['window'][1]}
probe.refinements = {' '.join(map(str, LEVELS))}
probe.beta = 2
"""
SEED = 7


def mlfsi(tmp, *argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from mlfsi.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    subprocess.run([sys.executable, "-c", code, str(SRC), *argv, "--config", str(tmp / "run.cfg"),
                    "--seed", str(SEED)], check=True, capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    (tmp / "run.cfg").write_text(CONFIG)
    for cmd, outdir in ((["sweep", "--jobs", "1"], "serial"), (["sweep", "--jobs", "2"], "jobs2"),
                        (["simulate"], "evolve"), (["mesh"], "refine"), (["probe"], "refine")):
        mlfsi(tmp, *cmd, "--outdir", str(tmp / outdir))
    return tmp


@pytest.fixture(scope="module")
def system():
    return build_system(build_mesh(MeshConfig(n=N)))


@pytest.fixture(scope="module")
def sigma(system):
    return checks.opnorm_reference(system.M, system.A, checks.log_grid(**SWEEP))


def corrupt_copy(src, tmp_path):
    dst = tmp_path / "corrupt"
    shutil.copytree(src, dst)
    return dst


def test_sweep_accepts_real_output(out, sigma):
    failed, problems = checks.check_sweep(out / "serial", sigma, **SWEEP)
    assert failed == [] and problems == []


def test_sweep_rejects_lowered_opnorm(out, sigma, tmp_path):
    d = corrupt_copy(out / "serial", tmp_path)
    lines = (d / "sweep.csv").read_text().splitlines()
    cols = lines[2].split(",")
    cols[1] = repr(float(cols[1]) * (1 - 1e-3))
    lines[2] = ",".join(cols)
    (d / "sweep.csv").write_text("\n".join(lines) + "\n")
    failed, _ = checks.check_sweep(d, sigma, **SWEEP)
    assert failed == [1]


def test_sweep_rejects_changed_growth_slope(out, sigma, tmp_path):
    d = corrupt_copy(out / "serial", tmp_path)
    growth = json.loads((d / "growth.json").read_text())
    growth["slope"] *= 1 + 1e-6
    (d / "growth.json").write_text(json.dumps(growth))
    _, problems = checks.check_sweep(d, sigma, **SWEEP)
    assert any("slope" in p for p in problems)


def test_jobs2_csv_matches_serial_and_rejects_flipped_byte(out, tmp_path):
    assert checks.check_same_bytes(out / "jobs2" / "sweep.csv", out / "serial" / "sweep.csv") == []
    d = corrupt_copy(out / "jobs2", tmp_path)
    data = bytearray((d / "sweep.csv").read_bytes())
    data[len(data) // 2] ^= 0x01
    (d / "sweep.csv").write_bytes(bytes(data))
    assert checks.check_same_bytes(d / "sweep.csv", out / "serial" / "sweep.csv")


def test_evolve_accepts_real_output(out, system):
    assert checks.check_evolve(out / "evolve", system, SEED, **EVOLVE) == []


@pytest.mark.parametrize("row", [10, 150])   # inside and beyond the re-stepped prefix
def test_evolve_rejects_raised_energy(out, system, tmp_path, row):
    d = corrupt_copy(out / "evolve", tmp_path)
    lines = (d / "energy.csv").read_text().splitlines()
    cols = lines[1 + row].split(",")
    cols[1] = repr(float(cols[1]) * (1 + 1e-6))
    lines[1 + row] = ",".join(cols)
    (d / "energy.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_evolve(d, system, SEED, **EVOLVE)


def test_refine_accepts_real_output(out):
    assert checks.check_mesh(out / "refine" / "mesh.txt", N) == []
    assert checks.check_probe(out / "refine" / "probe.json", LEVELS, 2.0) == []


def test_refine_rejects_moved_vertex(out, tmp_path):
    d = corrupt_copy(out / "refine", tmp_path)
    lines = (d / "mesh.txt").read_text().splitlines()
    row = lines.index(next(line for line in lines if line.startswith("vertices"))) + 1 + (N + 1) ** 3 // 2
    x, y, z = map(float, lines[row].split())
    lines[row] = f"{x + 0.1 / N!r} {y!r} {z!r}"
    (d / "mesh.txt").write_text("\n".join(lines) + "\n")
    assert checks.check_mesh(d / "mesh.txt", N)


def test_probe_rejects_error_that_grows(out, tmp_path):
    d = corrupt_copy(out / "refine", tmp_path)
    probe = json.loads((d / "probe.json").read_text())
    probe["radial"][-1]["lhs"] = 12 * math.pi**2 / 64 + 1.0
    (d / "probe.json").write_text(json.dumps(probe))
    assert checks.check_probe(d / "probe.json", LEVELS, 2.0)
