import functools
import os
import subprocess
import threading
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import mlfsi.assembly as assembly
import mlfsi.identities as identities
import mlfsi.linalg as linalg
import mlfsi.resolvent as resolvent
from mlfsi.assembly import State, build_system, energy_norm
from mlfsi.geometry import GAMMA_TAGS, MeshConfig, build_mesh
from mlfsi.identities import flux_chain_monitor
from mlfsi.resolvent import (
    CSV_HEADER,
    FrequencySingularityError,
    InsufficientPointsError,
    OpnormConvergenceError,
    ResolventSample,
    ShiftedFactor,
    dissipation_residual,
    fit_growth,
    probe_state,
    resolvent_opnorm,
    sample_point,
    solve_static,
    sweep,
    write_sweep_csv,
)

from oracles import (arpack_resolvent_opnorm, dense_resolvent_opnorm, gram_opnorm, sweep_csv_row,
                     trend_slope)


def test_zero_data_gives_zero_solution(default_sys):
    b = State.zeros(default_sys.dof)
    x = solve_static(2.0, b, default_sys)
    assert np.all(x.vec == 0)


def test_resolvent_identity_recovery(default_sys, rng):
    sys = default_sys
    b = probe_state(sys, 4)
    for beta in (1.0, 7.5):
        x = solve_static(beta, b, sys)
        lhs = (1j * beta) * (sys.M @ x.vec) - sys.A @ x.vec
        rhs = sys.M @ b.vec.astype(complex)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_matches_dense_oracle(tiny_sys):
    b = probe_state(tiny_sys, 4)
    beta = 1.0
    x = solve_static(beta, b, tiny_sys)
    C = (1j * beta) * tiny_sys.M.toarray() - tiny_sys.A.toarray()
    xd = np.linalg.solve(C, tiny_sys.M.toarray() @ b.vec)
    assert np.linalg.norm(x.vec - xd) <= 1e-9 * np.linalg.norm(xd)


def test_kinematic_rows_exact(default_sys):
    sys = default_sys
    b = probe_state(sys, 5)
    for beta in (1.0, 10.0, 100.0):
        x = solve_static(beta, b, sys)
        scale = max(np.max(np.abs(x.trace_u)), np.max(np.abs(b.h0)))
        kin = 1j * beta * x.h0 - x.trace_u - b.h0
        assert np.max(np.abs(kin)) <= 1e-13 * scale
        # Interior displacement row holds to solver precision.
        n_i = sys.dof.n_i
        kin_w = 1j * beta * x.w0_full[n_i:] - x.w1_full[n_i:] - b.w0_full[n_i:]
        assert np.max(np.abs(kin_w)) <= 1e-10 * max(np.max(np.abs(x.w1_full[n_i:])), 1.0)


def test_kinematic_relation_per_face(default_sys):
    # The thin kinematic relation holds face by face, including vertices on
    # cube edges that belong to several face lists.
    sys = default_sys
    beta = 6.0
    b = probe_state(sys, 21)
    x = solve_static(beta, b, sys)
    resid = 1j * beta * x.h0 - x.trace_u - b.h0
    scale = max(np.max(np.abs(x.trace_u)), np.max(np.abs(b.h0)))
    for tag in GAMMA_TAGS:
        face_vertices = np.unique(sys.mesh.tris[sys.mesh.tri_tags == tag])
        local = np.searchsorted(sys.dof.interface, face_vertices)
        assert np.max(np.abs(resid[local])) <= 1e-13 * scale


def test_dissipation_identity_random_batch(default_sys, rng):
    sys = default_sys
    for beta in (1.0, 10.0, 100.0):
        shifted = ShiftedFactor(1j * beta, sys.kinematic)
        for k in range(34):
            b = probe_state(sys, 100 + k)
            x = solve_static(beta, b, sys, shifted=shifted)
            res = dissipation_residual(b, x, sys)
            assert res <= 1e-9 * energy_norm(b, sys) ** 2


def test_dissipation_zero_data(default_sys):
    b = State.zeros(default_sys.dof)
    x = solve_static(3.0, b, default_sys)
    assert dissipation_residual(b, x, default_sys) == 0.0


def test_dissipation_tiny_dense_cross_check(tiny_sys):
    sys = tiny_sys
    b = probe_state(sys, 6)
    beta = 2.0
    C = (1j * beta) * sys.M.toarray() - sys.A.toarray()
    xd = np.linalg.solve(C, sys.M.toarray() @ b.vec)
    grad_sq = np.vdot(xd[: sys.dof.n_u], sys.K_f.toarray() @ xd[: sys.dof.n_u]).real
    pairing = np.vdot(b.vec, sys.M.toarray() @ xd).real
    assert abs(grad_sq - pairing) <= 1e-12 * max(1.0, abs(pairing))


def test_poincare_ratio_zero_heat_component(default_sys):
    # Choose a target with u = 0 and manufacture the data that produces it.
    sys = default_sys
    beta = 4.0
    target = State.zeros(sys.dof)
    rng = np.random.default_rng(9)
    target.h0[:] = rng.standard_normal(sys.dof.n_i)
    target.w0_full[sys.dof.n_i:] = rng.standard_normal(sys.dof.n_s)
    bvec = np.linalg.solve(sys.M.toarray(), ((1j * beta) * sys.M - sys.A).toarray() @ target.vec)
    # The manufactured data is complex; the ratio formula only needs states.
    b = State(sys.dof, bvec)
    x = solve_static(beta, b, sys)
    assert np.max(np.abs(x.vec - target.vec)) <= 1e-8
    assert flux_chain_monitor(x, b, beta, sys)["poincare_ratio"] <= 1e-8


def test_poincare_spot_value_matches_dense(tiny_sys):
    sys = tiny_sys
    beta = 4.0
    b = probe_state(sys, 7)
    x = solve_static(beta, b, sys)
    got = flux_chain_monitor(x, b, beta, sys)["poincare_ratio"]
    C = (1j * beta) * sys.M.toarray() - sys.A.toarray()
    xd = np.linalg.solve(C, sys.M.toarray() @ b.vec)
    u = xd[: sys.dof.n_u]
    unorm = np.sqrt(np.vdot(u, sys.M_f.toarray() @ u).real)
    gnorm = np.sqrt(np.vdot(u, sys.K_f.toarray() @ u).real)
    bnorm = np.sqrt(np.vdot(b.vec, sys.M.toarray() @ b.vec).real)
    ref = np.sqrt(beta) * unorm / (gnorm + bnorm)
    assert got == pytest.approx(ref, rel=1e-9)


def test_poincare_requires_beta_at_least_one(default_sys):
    b = probe_state(default_sys, 3)
    x = solve_static(1.0, b, default_sys)
    with pytest.raises(ValueError):
        flux_chain_monitor(x, b, 0.5, default_sys)


def test_opnorm_diagonal_surrogate():
    # Normal operator with known spectrum: norm is max_k 1 / |i beta - lam_k|.
    lam = np.array([-0.5 + 2j, -0.1 + 5j, -2.0 - 1j, -0.05 + 9.5j])
    M = sp.eye(lam.size, format="csr")
    beta = 10.0
    f = spla.splu(sp.diags(1j * beta - lam).tocsc())
    val = gram_opnorm(
        ((lambda v: f.solve(v)), (lambda v: f.solve(v, trans="H"))), M, tol=1e-8
    ).sigma
    ref = np.max(1.0 / np.abs(1j * beta - lam))
    assert val == pytest.approx(ref, rel=1e-6)


def norm_estimate(beta, sys, tol):
    """`resolvent_opnorm` on a shifted factor of its own, as `sample_point` calls it."""
    return resolvent_opnorm(ShiftedFactor(1j * beta, sys.kinematic), tol)


def test_resolvent_norm_matches_dense_svd(tiny_sys):
    val = norm_estimate(2.0, tiny_sys, tol=1e-6)[0]
    ref = dense_resolvent_opnorm(2.0, tiny_sys)
    assert abs(val - ref) / ref < 1e-3


@pytest.fixture(scope="module")
def n16_sys():
    return build_system(build_mesh(MeshConfig(n=16)))


@pytest.mark.parametrize("k", [2, 3])
def test_resolvent_opnorm_within_tolerance_of_arpack_reference(n16_sys, k):
    # Points 2 and 3 of the 13-point log grid on [1, 200], where an early
    # stop once left the estimate 9e-4 and 1.3e-3 low at tol 1e-4.
    beta = 10 ** (np.log10(200) * k / 12)
    tol = 1e-4
    val, _ = norm_estimate(beta, n16_sys, tol=tol)
    ref = arpack_resolvent_opnorm(beta, n16_sys)
    assert ref * (1 - 3 * tol) <= val <= ref * (1 + 1e-9)


def test_resolvent_conjugation_symmetry(rich_sys):
    vp, _ = norm_estimate(3.0, rich_sys, tol=1e-6)
    vm, _ = norm_estimate(-3.0, rich_sys, tol=1e-6)
    assert abs(vp - vm) / vp < 1e-4


def test_resolvent_lipschitz_on_neighbors(tiny_sys):
    betas = [2.0, 2.05, 2.1]
    vals = [norm_estimate(b, tiny_sys, tol=1e-7)[0] for b in betas]
    for (b1, v1), (b2, v2) in zip(zip(betas, vals), zip(betas[1:], vals[1:])):
        bound = abs(b2 - b1) * v1 * v2 * (1 + 1e-3) + (v1 + v2) * 1e-6
        assert abs(v1 - v2) <= bound


def test_sweep_rejects_bad_grids(default_sys):
    with pytest.raises(InsufficientPointsError):
        fit_growth(sweep(np.array([2.0]), default_sys))
    with pytest.raises(ValueError):
        sweep(np.array([2.0, 1.5]), default_sys)
    with pytest.raises(ValueError):
        sweep(np.array([0.5, 2.0]), default_sys)


def test_fit_growth_synthetic_power_law():
    betas = np.logspace(0, 2, 20)
    samples = [
        ResolventSample(b, b**2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) for b in betas
    ]
    fit = fit_growth(samples)
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    assert fit.beta_window[0] >= betas[-1] / 10
    assert fit.points < len(betas)
    # The fit over every sample is the log-log fit itself.
    assert linalg.loglog_fit(betas, betas**2)[0] == pytest.approx(2.0, abs=1e-10)


def test_trend_slope_power_law():
    betas = np.logspace(0, 2, 15)
    assert trend_slope(betas, betas ** (-1.5)) == pytest.approx(-1.5, abs=1e-10)
    assert trend_slope(betas, np.zeros_like(betas)) == 0.0


def test_sample_point_and_csv(tmp_path, default_sys):
    betas = np.logspace(0, 1, 4)
    samples = sweep(betas, default_sys, probe_seed=2, opnorm_tol=1e-3)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(samples) + 1
    assert lines[1:] == [sweep_csv_row(s).rstrip("\n") for s in samples]
    first = lines[1].split(",")
    assert len(first) == len(CSV_HEADER.split(","))
    assert float(first[0]) == pytest.approx(betas[0])
    for s in samples:
        assert np.isfinite(s.opnorm) and s.iters > 0
        assert s.dissipation_residual <= 1e-9


def test_sample_point_releases_its_lu_before_the_monitor_pass(monkeypatch, default_sys):
    # The monitors read the solution, not the LU: no ShiftedFactor is alive
    # while flux_chain_monitor runs, so a sample never holds both.
    alive, created, seen = weakref.WeakSet(), [], []
    init = ShiftedFactor.__init__

    def registered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)
        created.append(1)

    def monitored(*args, **kwargs):
        seen.append(len(alive))
        return flux_chain_monitor(*args, **kwargs)

    monkeypatch.setattr(ShiftedFactor, "__init__", registered)
    monkeypatch.setattr(resolvent, "flux_chain_monitor", monitored)
    sample = sample_point(3.0, default_sys, probe_state(default_sys, 2), opnorm_tol=1e-3)
    assert (len(created), seen) == (1, [0])
    assert np.isfinite(sample.opnorm) and sample.r_crux > 0


def test_sample_point_raises_the_norm_error_before_a_monitor_error(monkeypatch, default_sys):
    # The norm estimate runs on the LU before the monitor pass, so at a
    # frequency where both fail its error (exit 4) is the one raised.
    def no_convergence(shifted, tol):
        raise OpnormConvergenceError(shifted.shift.imag, "forced")

    def monitors_fail(*args, **kwargs):
        raise ValueError("monitor pass reached")

    monkeypatch.setattr(resolvent, "resolvent_opnorm", no_convergence)
    monkeypatch.setattr(resolvent, "flux_chain_monitor", monitors_fail)
    with pytest.raises(OpnormConvergenceError, match="forced"):
        sample_point(3.0, default_sys, probe_state(default_sys, 2), opnorm_tol=1e-3)


def test_trace_ratio_bounded_across_sweep(default_sys):
    # The kinematic trace monitor saturates rather than growing: finite
    # everywhere, and no growth trend over the top decade.
    betas = np.logspace(0, np.log10(200), 25)
    samples = sweep(betas, default_sys, probe_seed=2)
    vals = np.array([s.trace_ratio for s in samples])
    assert np.all(np.isfinite(vals))
    bs = np.array([s.beta for s in samples])
    top = bs >= bs.max() / 10
    assert trend_slope(bs[top], vals[top]) <= 0.1


def test_sweep_jobs_deterministic(tmp_path, default_sys):
    betas = np.logspace(0, 1, 4)
    s1 = sweep(betas, default_sys, probe_seed=2, jobs=1)
    s2 = sweep(betas, default_sys, probe_seed=2, jobs=2)
    assert all(s.iters > 0 for s in s1 + s2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(s1, p1)
    write_sweep_csv(s2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_rejects_jobs_below_one_before_any_sample(monkeypatch, default_sys):
    def refuse(*args, **kwargs):
        raise AssertionError("a sample ran")

    monkeypatch.setattr(resolvent, "sample_point", refuse)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            sweep(np.logspace(0, 1, 4), default_sys, jobs=jobs)


@pytest.mark.parametrize("betas", [[np.nan], [1.0, np.inf], [np.nan, 2.0], [1.0, np.nan]])
def test_sweep_rejects_a_grid_that_is_not_finite_before_any_sample(monkeypatch, default_sys,
                                                                   betas):
    # Every comparison with NaN is false, so the order checks alone let NaN
    # through, and inf with it, into a singular shifted LU.
    def refuse(*args, **kwargs):
        raise AssertionError("a sample ran")

    monkeypatch.setattr(resolvent, "sample_point", refuse)
    with pytest.raises(ValueError, match="frequency grid must be finite"):
        sweep(betas, default_sys)


def test_sweep_rejects_a_grid_above_max_beta_before_any_sample(monkeypatch, default_sys):
    # Far above MAX_BETA the monitors' powers of beta overflow and ARPACK
    # gets a zero starting vector; the sweep refuses such a grid up front.
    def refuse(*args, **kwargs):
        raise AssertionError("a sample ran")

    monkeypatch.setattr(resolvent, "sample_point", refuse)
    with pytest.raises(ValueError, match="frequency grid exceeds MAX_BETA = 1e\\+08, got 1e\\+95"):
        sweep([1e94, 3e94, 1e95], default_sys)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("function", ["solve_static", "sample_point"])
def test_frequency_not_finite_and_nonzero_is_rejected_before_any_lu(monkeypatch, default_sys,
                                                                    function, beta):
    # The public per-frequency functions check no grid: the shift i beta
    # itself is checked, so nan and inf never reach SuperLU (where they read
    # as a singular matrix) and 0 never divides.
    b = probe_state(default_sys, 2)
    built = []
    init = linalg.Factorization.__init__

    def recorded(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.Factorization, "__init__", recorded)
    with pytest.raises(ValueError, match="shift must be finite and nonzero"):
        if function == "solve_static":
            solve_static(beta, b, default_sys)
        else:
            sample_point(beta, default_sys, b, opnorm_tol=resolvent.OPNORM_TOL)
    assert not built


def test_sweep_starts_one_thread_fewer_than_it_samples_on(monkeypatch, default_sys):
    # The calling thread samples its share: a one-job sweep starts no
    # thread, and a four-job sweep on 2 usable CPUs starts one.
    betas = np.logspace(0, 1, 4)
    serial = repr(sweep(betas, default_sys))
    start = threading.Thread.start

    def refuse(self):
        raise AssertionError("a one-job sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert repr(sweep(betas, default_sys, jobs=1)) == serial
    started = []

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert repr(sweep(betas, default_sys, jobs=4)) == serial
    assert len(started) == 1


def test_sweep_pool_is_bounded_by_usable_cpus(monkeypatch, default_sys):
    # A pool stand-in records its size and runs each task here when it is
    # submitted, so no thread starts however large jobs is.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn):
            done = Future()
            done.set_result(fn())
            return done

    monkeypatch.setattr(resolvent, "ThreadPoolExecutor", InlinePool)
    betas = np.logspace(0, 1, 4)
    samples = sweep(betas, default_sys)
    assert sizes == [1] and all(s.iters > 0 for s in samples)
    serial = repr(samples)
    for cpus in (3, 1, 64):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        assert repr(sweep(betas, default_sys, jobs=10**6)) == serial
    # Where the affinity set cannot be read, the machine's CPU count bounds it.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert repr(sweep(betas, default_sys, jobs=10**6)) == serial
    # jobs=1; 3 CPUs; 1 CPU; 64 CPUs, 4 grid points; cpu_count 2.
    assert sizes == [1, 3, 1, 4, 2]


def test_sweep_builds_dirichlet_map_once(monkeypatch):
    # A fresh system: the session fixtures may already hold the cached pieces.
    sys = build_system(build_mesh(MeshConfig()))
    M_G = sys.M_G
    built = []

    def count(cls, name, counts=lambda args: True):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if counts(args):
                built.append(name)

        monkeypatch.setattr(cls, "__init__", counted)

    count(identities.DirichletMap, "dirichlet map")
    count(assembly.SurfaceSpectral, "surface eigenbasis")
    count(linalg.Factorization, "M_G factorization", lambda args: args[0] is M_G)

    # One Dirichlet extension per monitor pass serves (z, load) and the
    # Neumann map.
    solve = linalg.Factorization.solve
    extensions = []

    def counted_solve(self, *args, **kwargs):
        dmap = vars(sys).get("dirichlet_map")      # the cached map, once built
        if dmap is not None and self is dmap.factor:
            extensions.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(linalg.Factorization, "solve", counted_solve)

    betas = np.logspace(0, 1, 4)
    sweep(betas, sys, probe_seed=2)
    sweep(betas, sys, probe_seed=3)
    b = probe_state(sys, 9)
    flux_chain_monitor(solve_static(3.0, b, sys), b, 3.0, sys)
    assert sorted(built) == ["M_G factorization", "dirichlet map", "surface eigenbasis"]
    assert sys.dirichlet_map.factor is not None
    monitor_passes = 2 * len(betas) + 1
    assert 0 < len(extensions) <= monitor_passes


def test_jobs_sweep_builds_eigenbasis_and_dirichlet_map_once(monkeypatch):
    # Each build records the thread that ran it: the calling thread builds
    # the pieces before the pool starts, and the sweep threads share them.
    # The ordered pattern of the shifted LUs is one of them.
    sys = build_system(build_mesh(MeshConfig()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    builds = []
    for cls, name in ((identities.DirichletMap, "dirichlet-map"),
                      (assembly.SurfaceSpectral, "surface-eigenbasis")):
        def logged(self, *args, init=cls.__init__, name=name, **kwargs):
            init(self, *args, **kwargs)
            builds.append((name, threading.current_thread()))

        monkeypatch.setattr(cls, "__init__", logged)

    def logged_pattern(self, build=assembly.KinematicSplit._pattern.func):
        builds.append(("shift-pattern", threading.current_thread()))
        return build(self)

    pattern = functools.cached_property(logged_pattern)
    pattern.__set_name__(assembly.KinematicSplit, "_pattern")
    monkeypatch.setattr(assembly.KinematicSplit, "_pattern", pattern)

    samples = sweep(np.logspace(0, 1, 4), sys, probe_seed=2, jobs=2)
    assert len(samples) == 4
    main = threading.main_thread()
    assert sorted(builds, key=lambda b: b[0]) == [("dirichlet-map", main), ("shift-pattern", main),
                                                  ("surface-eigenbasis", main)]


def test_jobs_sweep_threads_find_every_cached_piece_built(monkeypatch):
    # cached_property takes no lock on Python 3.12 and later, so a piece two
    # threads first read at once could be built twice. The first sample runs
    # in the calling thread and builds every piece the samples read: the
    # cached attributes of the system and its kinematic split stay the same
    # across every later sample, whichever thread runs it. The calling
    # thread holds its second sample until the pool thread has finished
    # one, so the pool thread surely samples.
    sys = build_system(build_mesh(MeshConfig()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sample = resolvent.sample_point
    main = threading.main_thread()
    pooled = threading.Event()
    seen = []

    def cached():
        return set(vars(sys)), set(vars(sys.kinematic))

    def recording(beta, *args, **kwargs):
        if seen and threading.current_thread() is main:
            assert pooled.wait(timeout=60)
        before = cached()
        result = sample(beta, *args, **kwargs)
        seen.append((beta, threading.current_thread(), before, cached()))
        if threading.current_thread() is not main:
            pooled.set()
        return result

    monkeypatch.setattr(resolvent, "sample_point", recording)
    betas = np.logspace(0, 1, 4)
    sweep(betas, sys, probe_seed=2, jobs=2)
    assert sorted(s[0] for s in seen) == list(betas)
    assert seen[0][:2] == (betas[0], main)
    assert {s[1] for s in seen[1:]} - {main}
    assert all(before == after == cached() for _, _, before, after in seen[1:])


def test_jobs_sweep_builds_a_new_cached_piece_once_in_the_calling_thread(monkeypatch):
    # A piece added to the system later needs no edit to the sweep: a
    # sample that reads it finds it built once, by the calling thread.
    sys = build_system(build_mesh(MeshConfig()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    builds = []

    def build(self):
        builds.append(threading.current_thread())
        time.sleep(0.05)                      # widen the window two threads could share
        return object()

    piece = functools.cached_property(build)
    piece.__set_name__(assembly.SystemMatrices, "new_piece")
    monkeypatch.setattr(assembly.SystemMatrices, "new_piece", piece, raising=False)
    sample = resolvent.sample_point

    def reading(beta, sys, *args, **kwargs):
        sys.new_piece
        return sample(beta, sys, *args, **kwargs)

    monkeypatch.setattr(resolvent, "sample_point", reading)
    samples = sweep(np.logspace(0, 1, 4), sys, probe_seed=2, jobs=2)
    assert len(samples) == 4
    assert builds == [threading.main_thread()]


@pytest.mark.parametrize("error", [FrequencySingularityError, OpnormConvergenceError])
def test_jobs_sweep_raises_the_serial_error(monkeypatch, default_sys, error):
    # Two frequencies fail; a jobs sweep raises the error of the first, as
    # the serial sweep does, with its class and beta intact. In the last
    # run the earlier failing sample waits until the later one has begun,
    # so the later error is raised first in time; the sweep must still
    # raise the earlier one.
    sample = resolvent.sample_point
    betas = np.logspace(0, 1, 5)
    later_raised = threading.Event()
    hold = False

    def failing(beta, *args, **kwargs):
        if beta == betas[3] and hold:
            assert later_raised.wait(timeout=60)
        if beta == betas[4]:
            later_raised.set()
        if beta > 5:
            raise error(beta, "forced")
        return sample(beta, *args, **kwargs)

    monkeypatch.setattr(resolvent, "sample_point", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    raised = []
    for jobs, hold in ((1, False), (2, False), (2, True)):
        later_raised.clear()
        with pytest.raises(error) as info:
            sweep(betas, default_sys, jobs=jobs)
        raised.append((str(info.value), info.value.beta))
    assert later_raised.is_set()
    assert raised[0] == raised[1] == raised[2]
    assert raised[0][1] == betas[3]


def test_jobs_sweep_starts_no_process(monkeypatch, default_sys):
    def refuse(*args, **kwargs):
        raise AssertionError("a jobs sweep started a process")

    betas = np.logspace(0, 1, 4)
    samples = sweep(betas, default_sys)
    assert all(s.iters > 0 for s in samples)
    serial = repr(samples)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert repr(sweep(betas, default_sys, jobs=2)) == serial


def test_singularity_detection():
    # A generator with a purely imaginary eigenvalue: shifted matrix singular.
    # M = I and A = [[0, -1], [1, 0]] (eigenvalues +-i) on x = (v, d).
    one = sp.eye(1, format="csr")
    split = assembly.KinematicSplit(one, sp.csr_matrix((1, 1)), one, coords=[[0.0, 0.0, 0.0]])
    assert np.array_equal(split.A.toarray(), [[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(FrequencySingularityError) as info:
        ShiftedFactor(1j, split)
    assert info.value.beta == 1.0
