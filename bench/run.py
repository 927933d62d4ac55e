"""Run one benchmark workload of mlfsi and print its metrics as JSON.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from `src/`. Each
round launches a fresh interpreter (`child.py`) that runs the workload's CLI
commands with BLAS pinned to one thread. Rounds repeat until the next one
would overrun `--seconds` (at least two). Outputs
are checked after the timed rounds. The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics (medians
over rounds) with `--trace 0`, per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import os

# Before numpy loads here, and inherited by every child and --jobs worker.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
CHILD_TIMEOUT_S = 150.0
ROUNDS_MIN = 2

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("work_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mib", "MiB"))


class RoundFailed(RuntimeError):
    pass


def launch(rundir, tag, workload, seed, *, trace=False, commands=None):
    """One child interpreter; returns its timings and where its outputs are."""
    d = rundir / tag
    d.mkdir(parents=True)
    spec = {
        "src": str(SRC), "trace": trace, "worker_dir": str(d), "record": str(d / "record.json"),
        "entry": workload.entry,
        "commands": [[*cmd, "--config", str(rundir / "run.cfg"), "--outdir", str(d / "out"),
                      "--seed", str(seed)] for cmd in (commands or workload.commands)],
    }
    (d / "spec.json").write_text(json.dumps(spec))
    with open(d / "log.txt", "w") as log:
        launched = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(d / "spec.json")],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.perf_counter() - launched > CHILD_TIMEOUT_S:
                proc.kill()
                proc.wait()
                raise RoundFailed(f"{tag}: child ran past {CHILD_TIMEOUT_S} s")
            time.sleep(0.005)
    record_path = d / "record.json"
    if proc.returncode != 0 or not record_path.exists():
        raise RoundFailed(f"{tag}: child exited with {proc.returncode}; see {d / 'log.txt'}")
    rec = json.loads(record_path.read_text())
    if any(rec["codes"]):
        raise RoundFailed(f"{tag}: mlfsi exited with codes {rec['codes']}; see {d / 'log.txt'}")
    if rec["entry"] is None:
        raise RoundFailed(f"{tag}: {workload.entry} was never called")
    setup = rec["entry"] - launched
    wall = rec["end"] - launched
    out = {
        "dir": d / "out", "import_s": rec["import_s"], "wall_s": wall, "setup_s": setup,
        "work_per_s": workload.units / (wall - setup),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": (rec["self_maxrss_kib"] + rec["workers_maxrss_kib"]) / 1024.0,
    }
    if trace:
        out["layers"] = tracer.layer_metrics(rec["spans"] + tracer.read_worker_spans(d, len(rec["spans"])))
    return out


def timed_rounds(rundir, workload, seed, seconds, trace):
    """Rounds until the next would overrun `seconds`; traced runs alternate
    untraced and traced rounds and stop after a whole pair."""
    step = 2 if trace else 1
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(launch(rundir, f"round{len(rounds)}", workload, seed,
                             trace=bool(trace) and len(rounds) % 2 == 1))
        if len(rounds) >= ROUNDS_MIN and len(rounds) % step == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (1 + step / len(rounds)) > seconds:
                return rounds


# ---------------------------------------------------------------- checks

def system_for(n):
    from mlfsi.assembly import build_system
    from mlfsi.geometry import MeshConfig, build_mesh

    return build_system(build_mesh(MeshConfig(n=n)))


def opnorm_reference_for(recompute=False):
    """ARPACK norms for the sweep grid, from the cache when (M, A) are unchanged."""
    import checks

    sys.path.insert(0, str(SRC))
    from mlfsi.config import parse_config

    sw = parse_config(WORKLOADS["sweep"].config).sweep
    betas = checks.log_grid(sw.beta_min, sw.beta_max, sw.points)
    system = system_for(parse_config(WORKLOADS["sweep"].config).geometry.n)
    return checks.cached_opnorm_reference(WORK / "refs", system, betas, recompute=recompute), sw


OUTPUTS = {"sweep": ("sweep.csv", "growth.json"), "sweep-jobs2": ("sweep.csv", "growth.json"),
           "evolve": ("energy.csv", "decay.json"), "refine": ("mesh.txt", "probe.json")}


def check_outputs(rundir, workload, seed, rounds):
    """Returns (failed operations per round, operations per round, problems)."""
    import checks
    from mlfsi.config import parse_config

    cfg = parse_config(workload.config)
    first = rounds[0]["dir"]
    problems = []
    for r in rounds[1:]:
        for name in OUTPUTS[workload.name]:
            problems += checks.check_same_bytes(r["dir"] / name, first / name)

    if workload.name in ("sweep", "sweep-jobs2"):
        sigma, sw = opnorm_reference_for()
        failed, more = checks.check_sweep(first, sigma, sw.beta_min, sw.beta_max, sw.points)
        problems += more
        if workload.name == "sweep-jobs2":
            serial = launch(rundir, "serial", workload, seed, commands=WORKLOADS["sweep"].commands)
            for name in OUTPUTS["sweep"]:
                problems += checks.check_same_bytes(first / name, serial["dir"] / name)
        return len(failed), sw.points, problems
    if workload.name == "evolve":
        sc = cfg.simulate
        problems += checks.check_evolve(first, system_for(cfg.geometry.n), seed, sc.T, sc.tau, sc.fit_window)
        return 0, 1, problems
    problems += checks.check_mesh(first / "mesh.txt", cfg.geometry.n)
    problems += checks.check_probe(first / "probe.json", cfg.probe.refinements, cfg.probe.beta)
    return 0, 1, problems


# ---------------------------------------------------------------- run record

def steal_ticks():
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def blas_info():
    import ctypes
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
    return {"name": deps.get("name"), "version": deps.get("version"), "threads_in_effect": threads,
            "env": BLAS_ENV}


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mlfsi").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_record(args, workload):
    import numpy as np
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        **source_identity(),
        "configs": {w.name: {"config": w.config, "commands": w.commands} for w in WORKLOADS.values()},
    }


# ---------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mlfsi" / "cli.py").is_file():
        print(f"error: no mlfsi sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    rundir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    (rundir / "run.cfg").write_text(workload.config)

    steal_start = steal_ticks()
    try:
        rounds = timed_rounds(rundir, workload, args.seed, args.seconds, args.trace)
        failed, ops, problems = check_outputs(rundir, workload, args.seed, rounds)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not problems:    # a refine round leaves a 6 MB mesh; keep logs and records only
        for r in rounds:
            shutil.rmtree(r["dir"])

    plain = [r for r in rounds if "layers" not in r]
    if args.trace:
        traced = [r for r in rounds if "layers" in r]
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
                   for name, unit in tracer.LAYER_METRICS}
        metrics["cli.import_s"] = {"value": statistics.median(r["import_s"] for r in traced), "unit": "s"}
        metrics["bench.trace_overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain),
            "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END}

    record = run_record(args, workload)
    record.update(steal_ticks=steal_ticks() - steal_start,
                  rounds=[{k: v for k, v in r.items() if k != "dir"} for r in rounds],
                  problems=problems, failed_per_round=failed)
    (rundir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": ops * len(rounds),
                      "failed": failed * len(rounds), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
