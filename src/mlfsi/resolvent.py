"""Frequency-domain engine: shifted solves, operator norms, sweeps, growth fits.

For a real frequency beta the static system is (i beta M - A) x = M b. Its
kinematic rows are eliminated in closed form, so each frequency factors one
matrix on the velocity unknowns only (`ShiftedFactor`). The operator norm
of the map b -> x is measured with the energy Gram matrix M on both sides,
which is the operator norm on the discrete energy space; every sample of a
sweep carries it, since its growth in beta is the resolvent criterion the
decay rate rests on (Borichev-Tomilov), and `fit_growth` fits it. The exact
algebraic dissipation identity

    u^H K_f u = Re <b, x>_H

holds for every solve up to solver tolerance and is recorded per sample,
along with every value of the one monitor pass
(`identities.flux_chain_monitor`): the sharpened-Poincare, trace and flux
ratios and the flux-chain monitors. A sweep samples its first frequency in
the calling thread; that thread and jobs - 1 more then share out the rest
of the grid, so a one-job sweep starts no thread. The threads share the one
system and every factorization built from it; only the shifted LU of each
frequency is the thread's own, so memory grows by one such LU per extra
thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence

from .assembly import KinematicSplit, State, SystemMatrices, energy_norm
from .identities import flux_chain_monitor
from .linalg import Factorization, SingularMatrixError, loglog_fit, opnorm_from_normal

GROWTH_REFERENCE_EXPONENT = 11.0 / 2.0
# The defaults of `sweep`, and so of `config.RunConfig`.
PROBE_SEED = 2
OPNORM_TOL = 1e-4
# The largest relative residual `solve_static` accepts.
SOLVE_TOL = 1e-10
# The most frequencies `config.RunConfig.validate` lets a sweep take; each
# factors its own shifted LU.
MAX_POINTS = 10**6


class FrequencySingularityError(RuntimeError):
    """The shifted matrix is singular to tolerance: i*beta sits at (or numerically
    near) a discrete eigenvalue, which would contradict the expected spectrum."""

    def __init__(self, beta, detail):
        super().__init__(f"shifted system at beta = {beta} is singular: {detail}")
        self.beta = beta


class OpnormConvergenceError(RuntimeError):
    """The resolvent-norm estimate did not converge at this frequency."""

    def __init__(self, beta, detail):
        super().__init__(f"resolvent norm at beta = {beta} did not converge: {detail}")
        self.beta = beta


class InsufficientPointsError(ValueError):
    pass


@dataclass
class ResolventSample:
    beta: float
    opnorm: float
    dissipation_residual: float
    poincare_ratio: float
    trace_ratio: float
    flux_ratio: float
    iters: int
    r_crux: float
    r_s3: float
    r_I1: float
    dtn_norm: float
    z_boundary: float           # diagnostic only, not a CSV column


@dataclass
class GrowthFit:
    """The growth fit; its fields are the keys of ``growth.json``."""

    slope: float
    residual: float
    beta_window: tuple
    points: int
    reference_exponent: float = field(default=GROWTH_REFERENCE_EXPONENT, init=False)


# The sweep.csv columns, each a ResolventSample field, in file order.
CSV_COLUMNS = ("beta", "opnorm", "dissipation_residual", "poincare_ratio", "trace_ratio",
               "flux_ratio", "iters", "r_crux", "r_s3", "r_I1", "dtn_norm")
CSV_HEADER = ",".join(CSV_COLUMNS)


class ShiftedFactor:
    """The map T: b -> x with (s M - A) x = M b at a shift s, its
    M-adjoint, and the Cayley map of the pencil. A shift that is not finite
    and nonzero raises ValueError before any matrix is formed.

    The kinematic rows give the displacement unknowns in closed form,
    d = (E v + b_d) / s, so only the velocity unknowns v are factored
    (`assembly.KinematicSplit`):

        (s M_VV + K + Q / s) v = M_VV b_V - E^T P b_d / s.

    The LU is taken once, of the split's ordered matrix
    (`assembly.KinematicSplit.shifted`); at a real s it and every vector
    stay real.

    At s = i beta, T = R M is the resolvent map of frequency beta,
    R = (i beta M - A)^{-1}. At s = 2 / tau, `cayley`
    is one implicit midpoint step (`evolution.make_stepper`), one LU solve
    given the M x that `evolution.simulate` carries between steps. The M-adjoint
    T* = R_s^H M, R_s = (s M - A)^{-1}, solves with the conjugate transpose
    of the same LU, then d = (z_d - E y) / conj(s).
    """

    def __init__(self, s, split: KinematicSplit):
        if not (np.isfinite(s) and s != 0):
            raise ValueError(f"shift must be finite and nonzero, got {s}")
        self.shift = s
        self.split = split
        try:
            self.factor = Factorization(split.shifted(s), split.order, split.inverse)
        except SingularMatrixError as exc:
            if s.real == 0:
                raise FrequencySingularityError(s.imag, str(exc)) from exc
            raise

    def _velocity_rhs(self, Mb, s):
        # M b = [M_VV b_V | P b_d], and E^T P b_d is P b_d on the rows n_fi and up.
        split = self.split
        rhs = np.array(Mb[:split.n_v], dtype=np.result_type(Mb, s))
        rhs[split.n_fi:] -= Mb[split.n_v:] / s
        return rhs

    def solve(self, b, Mb=None):
        """x = R_s M b; ``Mb`` is M b when the caller already has it."""
        split, s = self.split, self.shift
        b = np.asarray(b, dtype=np.result_type(b, s))
        v = self.factor.solve(self._velocity_rhs(split.M @ b if Mb is None else Mb, s))
        return np.concatenate([v, (v[split.n_fi:] + b[split.n_v:]) / s])

    def solve_adjoint(self, z):
        """y = R_s^H M z, the M-adjoint of `solve`."""
        # At the shift -conj(s), the right-hand side of `solve` is the adjoint's.
        split, s = self.split, -self.shift.conjugate()
        z = np.asarray(z, dtype=np.result_type(z, s))
        v = self.factor.solve(self._velocity_rhs(split.M @ z, s), trans="H")
        return np.concatenate([v, (v[split.n_fi:] - z[split.n_v:]) / s])

    def cayley(self, x, Mx=None):
        """(s M - A)^{-1} (s M + A) x = 2 s T x - x; ``Mx`` as in `solve`."""
        return (2 * self.shift) * self.solve(x, Mx) - x


def solve_static(beta, b: State, sys: SystemMatrices,
                 shifted: ShiftedFactor | None = None) -> State:
    """Solve (i beta M - A) x = M b to relative residual <= SOLVE_TOL.

    The solve sets the thin kinematic row in closed form,
    h0 = (trace u + data trace) / (i beta), which `identities.build_z`
    cancels exactly in floating point; that is what makes the boundary trace
    of the homogenized field vanish identically. The residual
    i beta M x - A x - M b is verified on the solution.
    """
    if shifted is None:
        shifted = ShiftedFactor(1j * beta, sys.kinematic)
    rhs = sys.M @ b.vec.astype(np.complex128)
    xvec = shifted.solve(b.vec, Mb=rhs)
    x = State(sys.dof, xvec)
    nb = np.linalg.norm(rhs)
    if nb > 0:
        res = np.linalg.norm(shifted.shift * (sys.M @ xvec) - sys.A @ xvec - rhs) / nb
        if not np.isfinite(res) or res > SOLVE_TOL:
            raise FrequencySingularityError(beta, f"solve residual {res:g} exceeds {SOLVE_TOL:g}")
    return x


def dissipation_residual(b: State, x: State, sys: SystemMatrices) -> float:
    """|u^H K_f u - Re <b, x>_H|; an exact identity up to solver tolerance."""
    grad_sq = np.vdot(x.u, sys.K_f @ x.u).real
    pairing = np.vdot(b.vec, sys.M @ x.vec).real
    return float(abs(grad_sq - pairing))


def resolvent_opnorm(shifted: ShiftedFactor, tol):
    """Operator norm of b -> x in the energy metric; returns (value, applications).

    ``shifted`` is the factor at s = i beta, and its split holds the Gram
    matrix M. With R = (i beta M - A)^{-1} the map is T = R M, and its
    M-normal operator M^{-1} T^H M T = R^H M R M is `ShiftedFactor.solve`
    followed by `ShiftedFactor.solve_adjoint`: two solves on the velocity LU
    and no mass solve. ``applications`` counts how often it was applied.
    """

    def normal(v):
        return shifted.solve_adjoint(shifted.solve(v))

    try:
        info = opnorm_from_normal(normal, shifted.split.M, tol=tol, seed=0)
    except ArpackNoConvergence as exc:
        raise OpnormConvergenceError(shifted.shift.imag, str(exc)) from exc
    return info.sigma, info.iterations


def probe_state(sys: SystemMatrices, seed) -> State:
    """Seeded random probe data with unit energy norm."""
    b = State.random(sys.dof, seed)
    b.vec /= energy_norm(b, sys)
    return b


def sample_point(beta, sys: SystemMatrices, b: State, *, opnorm_tol) -> ResolventSample:
    """All per-frequency diagnostics for one beta and one probe vector.

    One shifted LU serves the static solve, the monitor pass and the
    resolvent-norm estimate, so ``opnorm`` is always the ARPACK estimate and
    ``iters`` (its normal-operator applications) at least 1.
    """
    shifted = ShiftedFactor(1j * beta, sys.kinematic)
    x = solve_static(beta, b, sys, shifted=shifted)
    diss = dissipation_residual(b, x, sys)
    monitors = flux_chain_monitor(x, b, beta, sys)
    opnorm, iters = resolvent_opnorm(shifted, tol=opnorm_tol)
    return ResolventSample(beta=float(beta), opnorm=opnorm,
                           dissipation_residual=diss / energy_norm(b, sys) ** 2,
                           iters=iters, **monitors)


def sweep(betas, sys: SystemMatrices, *, probe_seed=PROBE_SEED, opnorm_tol=OPNORM_TOL,
          jobs=1) -> list[ResolventSample]:
    """Diagnostics along a frequency grid, every `sample_point` value
    included; results ordered by the grid.

    The beta-independent pieces a sample reads are cached on the system, so
    the first sample, run in the calling thread, builds each of them once.
    The calling thread and up to jobs - 1 pool threads, min(jobs, grid
    points, usable CPUs) in all, then claim the rest of the grid point by
    point: jobs=1 starts no thread. The threads share the one system and its
    factorizations; each holds the shifted LU of the frequency it samples,
    so memory grows by one such LU per thread past the first. Results are
    kept in grid order, so output does not depend on jobs. A failing sample
    stops further claims, and the error raised is that of the lowest failing
    grid point, as in a serial sweep. SuperLU and ARPACK release the
    interpreter lock, so the threads' solves overlap; the BLAS thread count
    is whatever the caller's process set.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    betas = np.asarray(betas, dtype=float)
    if betas.size < 1:
        raise InsufficientPointsError("empty frequency grid")
    if not np.all(np.isfinite(betas)):
        raise ValueError("frequency grid must be finite")
    if np.any(np.diff(betas) <= 0):
        raise ValueError("frequency grid must be strictly increasing")
    if betas[0] < 1.0:
        raise ValueError("frequency grid must start at beta >= 1")
    b = probe_state(sys, probe_seed)
    grid = [float(bb) for bb in betas]
    # Every thread samples at once: take no more than the CPUs this process may use.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(grid), cpus or 1)
    # cached_property takes no lock: no thread starts before the first sample built its pieces.
    samples = [sample_point(grid[0], sys, b, opnorm_tol=opnorm_tol)] + [None] * (len(grid) - 1)
    claims = iter(range(1, len(grid)))
    failures = {}                 # grid index -> the error its sample raised
    lock = threading.Lock()

    def claim():
        with lock:
            return None if failures else next(claims, None)

    # Claims go in grid order and a claimed point runs to its end, so every
    # point below a failure is sampled: the lowest failure recorded is the one
    # a serial sweep meets first, and it is raised once every thread is done.
    def drain():
        for i in iter(claim, None):
            try:
                samples[i] = sample_point(grid[i], sys, b, opnorm_tol=opnorm_tol)
            except BaseException as exc:
                with lock:
                    failures[i] = exc

    with ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    if failures:
        raise failures[min(failures)]
    return samples


def in_top_decade(betas):
    """Mask of the frequencies in the top decade of a grid, the growth-fit window."""
    return betas >= betas.max() / 10.0


def fit_growth(samples) -> GrowthFit:
    """Log-log slope of the operator norm versus frequency.

    The fit uses only the top decade of the grid, where the growth regime
    is not contaminated by the order-one plateau at small beta.
    Every sample of a sweep carries a finite norm; fewer than 2 samples in
    the window raise `InsufficientPointsError`.
    """
    betas = np.array([s.beta for s in samples])
    opnorms = np.array([s.opnorm for s in samples])
    if betas.size:
        keep = in_top_decade(betas)
        betas, opnorms = betas[keep], opnorms[keep]
    if betas.size < 2:
        raise InsufficientPointsError(f"growth fit needs at least 2 samples in its window, "
                                      f"got {betas.size}")
    slope, _, residual = loglog_fit(betas, opnorms)
    return GrowthFit(
        slope=slope,
        residual=residual,
        beta_window=(float(betas.min()), float(betas.max())),
        points=betas.size,
    )


def write_sweep_csv(samples, path):
    rows = [[getattr(s, c) for c in CSV_COLUMNS] for s in samples]
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=CSV_HEADER, comments="")
