"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from mlfsi.assembly import State, build_system, energy_norm
from mlfsi.cli import main
from mlfsi.evolution import fit_decay, make_stepper, prepare_smooth_data, simulate
from mlfsi.geometry import MeshConfig, build_mesh
from mlfsi.identities import manufactured_study
from mlfsi.linalg import loglog_fit
from mlfsi.resolvent import (
    dissipation_residual,
    probe_state,
    solve_static,
    sweep,
)

from conftest import TINY_CONFIG, level_systems
from oracles import trend_slope

DECAY_WINDOW = (1.0, 50.0)
SIM_T, SIM_TAU = 60.0, 0.01
DECAY_BOUND = 2.0 / 11.0 - 0.02
GROWTH_GRID = np.logspace(np.log10(20.0), np.log10(200.0), 25)
MONITOR_GRID = np.logspace(0.0, np.log10(200.0), 25)
PROBE_SEEDS = (2, 3)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def systems():
    return {n: build_system(build_mesh(MeshConfig(n=n))) for n in (4, 8)}


@pytest.fixture(scope="module")
def monitor_sweeps(systems):
    out = {}
    for n, sys in systems.items():
        for seed in PROBE_SEEDS:
            out[(n, seed)] = sweep(MONITOR_GRID, sys, probe_seed=seed)
    return out


@pytest.fixture(scope="module")
def growth_fits(systems):
    fits = {}
    for n, sys in systems.items():
        samples = sweep(GROWTH_GRID, sys, probe_seed=PROBE_SEEDS[0], opnorm_tol=1e-4)
        fits[n] = (samples, loglog_fit([s.beta for s in samples], [s.opnorm for s in samples])[0])
    return fits


def test_criterion_1_dissipation_identity(systems, rng):
    t0 = time.time()
    sys = systems[4]
    worst = 0.0
    betas = rng.uniform(1.0, 200.0, size=100)
    for k, beta in enumerate(betas):
        b = probe_state(sys, 1000 + k)
        x = solve_static(beta, b, sys)
        res = dissipation_residual(b, x, sys)
        worst = max(worst, res / energy_norm(b, sys) ** 2)
    ok = worst <= 1e-9
    report(1, ok, f"dissipation identity, 100 random (beta, b): worst residual "
                  f"{worst:.3e} <= 1e-9 ({time.time() - t0:.1f}s)")


def test_criterion_2_contraction_energy_balance(systems):
    t0 = time.time()
    sys = systems[4]
    rng = np.random.default_rng(42)
    x0 = State(sys.dof, rng.standard_normal(sys.dof.total))
    trace = simulate(x0, 100.0, 0.01, sys)          # 10^4 steps
    nondecreasing = int(np.sum(np.diff(trace.E) > 1e-13 * trace.E[0]))
    bal = trace.max_balance_residual() / trace.E[0]
    ok = nondecreasing == 0 and bal <= 1e-10
    report(2, ok, f"contraction over 10^4 steps: {nondecreasing} energy increases, "
                  f"max balance residual {bal:.3e} <= 1e-10 of E(0) ({time.time() - t0:.1f}s)")


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    sys = build_system(build_mesh(TINY_CONFIG))
    Md, Ad = sys.M.toarray(), sys.A.toarray()

    # Frequency domain against a dense solve.
    b = probe_state(sys, 5)
    beta = 2.0
    x = solve_static(beta, b, sys)
    xd = np.linalg.solve(1j * beta * Md - Ad, Md @ b.vec)
    rel = np.linalg.norm(x.vec - xd) / np.linalg.norm(xd)

    # Time domain against the dense matrix exponential, halving tau.
    T = 1.0
    x0 = prepare_smooth_data(7, sys).vec
    ref = scipy.linalg.expm(T * np.linalg.solve(Md, Ad)) @ x0
    errs = []
    for tau in (4e-3, 2e-3, 1e-3):
        xk = x0.copy()
        stepper = make_stepper(sys, tau)
        for _ in range(round(T / tau)):
            xk = stepper.cayley(xk)
        errs.append(np.linalg.norm(xk - ref))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
    ok = rel <= 1e-9 and all(abs(o - 2.0) <= 0.1 for o in orders)
    report(3, ok, f"n=2 oracle equivalence: resolvent vs dense {rel:.3e} <= 1e-9, "
                  f"time-step orders {[round(o, 3) for o in orders]} = 2.0 +- 0.1 "
                  f"({time.time() - t0:.1f}s)")


def test_criterion_4_resolvent_growth_bound(growth_fits):
    t0 = time.time()
    slopes = {n: growth_fits[n][1] for n in (4, 8)}
    ok = all(s <= 5.5 + 0.25 for s in slopes.values()) and (
        slopes[8] <= slopes[4] + 0.5
    )
    report(4, ok, f"growth slopes over [20,200]: n=4 {slopes[4]:.3f}, n=8 {slopes[8]:.3f}; "
                  f"both <= 5.75 and refinement increase {slopes[8] - slopes[4]:.3f} <= 0.5 "
                  f"({time.time() - t0:.1f}s)")


def test_criterion_5_decay_rate_bound(systems):
    t0 = time.time()
    exponents = {}
    for n, sys in systems.items():
        x0 = prepare_smooth_data(1, sys)
        trace = simulate(x0, SIM_T, SIM_TAU, sys)
        exponents[n] = fit_decay(trace, DECAY_WINDOW).fitted_exponent
    ok = all(p >= DECAY_BOUND for p in exponents.values())
    report(5, ok, f"decay exponents on [1,50]: n=4 {exponents[4]:.3f}, n=8 {exponents[8]:.3f}; "
                  f"both >= 2/11 - 0.02 = {DECAY_BOUND:.4f} ({time.time() - t0:.1f}s)")


def test_criterion_6_sharpened_poincare(monitor_sweeps):
    t0 = time.time()
    details = []
    ok = True
    for (n, seed), samples in monitor_sweeps.items():
        slope = trend_slope([s.beta for s in samples], [s.poincare_ratio for s in samples])
        details.append(f"n={n}/seed={seed}: {slope:.3f}")
        ok = ok and slope <= 0.05
    report(6, ok, "poincare ratio log-log trend slopes (<= 0.05): "
                  + ", ".join(details) + f" ({time.time() - t0:.1f}s)")


def test_criterion_7_z_boundary_vanishes(monitor_sweeps, growth_fits):
    t0 = time.time()
    worst = 0.0
    count = 0
    for samples in monitor_sweeps.values():
        for s in samples:
            worst = max(worst, s.z_boundary)
            count += 1
    for n in (4, 8):
        for s in growth_fits[n][0]:
            worst = max(worst, s.z_boundary)
            count += 1
    ok = worst <= 1e-12
    report(7, ok, f"z boundary trace over {count} sweep samples: worst relative residual "
                  f"{worst:.3e} <= 1e-12 ({time.time() - t0:.1f}s)")


def test_criterion_8_multiplier_identities():
    t0 = time.time()
    rows, orders = manufactured_study(level_systems((4, 8, 16)), beta=2.0)
    res_div = [r["unit_div"].residual for r in rows]
    res_rad = [r["radial"].residual for r in rows]
    monotone = res_div[0] > res_div[1] > res_div[2] and res_rad[0] > res_rad[1] > res_rad[2]
    ok = monotone and orders["unit_div"] >= 1.0 and orders["radial"] >= 0.5
    report(8, ok, f"manufactured multiplier orders over n in (4,8,16): unit-div "
                  f"{orders['unit_div']:.2f} >= 1.0, radial {orders['radial']:.2f} >= 0.5 "
                  f"({time.time() - t0:.1f}s)")


def test_criterion_9_monitored_inequality_chain(monitor_sweeps):
    t0 = time.time()
    ok = True
    details = []
    for (n, seed), samples in monitor_sweeps.items():
        betas = [s.beta for s in samples]
        finite = all(
            np.isfinite([s.r_crux, s.r_s3, s.r_I1]).all() for s in samples
        )
        slopes = {
            name: trend_slope(betas, [getattr(s, name) for s in samples])
            for name in ("r_crux", "r_s3", "r_I1")
        }
        ok = ok and finite and all(v <= 0.1 for v in slopes.values())
        details.append(
            f"n={n}/seed={seed}: crux {slopes['r_crux']:.2f}, s3 {slopes['r_s3']:.2f}, "
            f"I1 {slopes['r_I1']:.2f}"
        )
    report(9, ok, "flux chain trend slopes (<= 0.1), all samples finite: "
                  + "; ".join(details) + f" ({time.time() - t0:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "simulate.T = 2\nsimulate.tau = 0.01\nsimulate.fit_window = 0.5 2\n"
        "sweep.beta_min = 1\nsweep.beta_max = 10\nsweep.points = 5\n"
    )
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
        assert main(["sweep", "--config", str(cfg), "--outdir", str(out)]) == 0
        outs.append(out)
    same_sim = (outs[0] / "energy.csv").read_bytes() == (outs[1] / "energy.csv").read_bytes()
    same_sweep = (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
    ok = same_sim and same_sweep
    report(10, ok, f"seeded reruns byte-identical: simulate {same_sim}, sweep {same_sweep} "
                   f"({time.time() - t0:.1f}s)")
