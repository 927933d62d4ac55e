"""Frequency-domain engine: shifted solves, operator norms, sweeps, growth fits.

For a real frequency beta the static system is (i beta M - A) x = M b. The
operator norm of the map b -> x is measured with the energy Gram matrix M on
both sides, which is the operator norm on the discrete energy space. The
exact algebraic dissipation identity

    u^H K_f u = Re <b, x>_H

holds for every solve up to solver tolerance and is recorded per sample,
along with every value of the one monitor pass
(`identities.flux_chain_monitor`): the sharpened-Poincare, trace and flux
ratios and the flux-chain monitors.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from .assembly import State, SystemMatrices, energy_norm
from .identities import flux_chain_monitor, interface_lift
from .linalg import Factorization, SingularMatrixError, loglog_fit, opnorm_from_normal

GROWTH_REFERENCE_EXPONENT = 11.0 / 2.0


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
    z_boundary: float = 0.0     # diagnostic only, not a CSV column


@dataclass
class GrowthFit:
    betas: np.ndarray
    slope: float
    residual: float
    window: tuple
    points: int

    def as_dict(self):
        return {
            "slope": self.slope,
            "residual": self.residual,
            "beta_window": [float(self.window[0]), float(self.window[1])],
            "points": self.points,
            "reference_exponent": GROWTH_REFERENCE_EXPONENT,
        }


# The sweep.csv columns, each a ResolventSample field, in file order.
CSV_COLUMNS = ("beta", "opnorm", "dissipation_residual", "poincare_ratio", "trace_ratio",
               "flux_ratio", "iters", "r_crux", "r_s3", "r_I1", "dtn_norm")
CSV_HEADER = ",".join(CSV_COLUMNS)


class ShiftedFactor:
    """Complex LU of (i beta M - A), shared by solves and the opnorm adjoint."""

    def __init__(self, beta, sys: SystemMatrices):
        self.beta = float(beta)
        shifted = (1j * self.beta) * sys.M.astype(np.complex128) - sys.A.astype(np.complex128)
        try:
            self.factor = Factorization(sp.csc_matrix(shifted))
        except SingularMatrixError as exc:
            raise FrequencySingularityError(beta, str(exc)) from exc
        self.matrix = self.factor.matrix

    def solve(self, rhs):
        return self.factor.solve(np.asarray(rhs, dtype=np.complex128))

    def solve_adjoint(self, rhs):
        return self.factor.solve(np.asarray(rhs, dtype=np.complex128), trans="H")


def solve_static(beta, b: State, sys: SystemMatrices,
                 shifted: ShiftedFactor | None = None, tol=1e-10) -> State:
    """Solve (i beta M - A) x = M b to relative residual <= tol.

    After the factorized solve, the thin kinematic row is substituted in
    closed form, h0 = (trace u + data trace) / (i beta), so that relation
    holds exactly in floating point (the residual is then re-verified on the
    substituted solution). This is what makes the boundary trace of the
    homogenized field cancel identically.
    """
    if shifted is None:
        shifted = ShiftedFactor(beta, sys)
    rhs = sys.M @ b.vec.astype(np.complex128)
    xvec = shifted.solve(rhs)
    x = State(sys.dof, xvec)
    xvec[sys.dof.slice_h0] = -interface_lift(x, b, beta)
    nb = np.linalg.norm(rhs)
    if nb > 0:
        res = np.linalg.norm(shifted.matrix @ xvec - rhs) / nb
        if not np.isfinite(res) or res > tol:
            raise FrequencySingularityError(beta, f"solve residual {res:g} exceeds {tol:g}")
    return x


def dissipation_residual(beta, b: State, x: State, sys: SystemMatrices) -> float:
    """|u^H K_f u - Re <b, x>_H|; an exact identity up to solver tolerance."""
    grad_sq = np.vdot(x.u, sys.K_f @ x.u).real
    pairing = np.vdot(b.vec, sys.M @ x.vec).real
    return float(abs(grad_sq - pairing))


def resolvent_opnorm(beta, sys: SystemMatrices, tol=1e-4,
                     shifted: ShiftedFactor | None = None, seed=0):
    """Operator norm of b -> x in the energy metric; returns (value, applications).

    With R = (i beta M - A)^{-1} the map is T = R M, and its M-normal
    operator M^{-1} T^H M T = R^H M R M costs two shifted solves and no mass
    solve. ``applications`` counts how often it was applied.
    """
    if shifted is None:
        shifted = ShiftedFactor(beta, sys)
    M = sys.M

    def normal(v):
        return shifted.solve_adjoint(M @ shifted.solve(M @ v))

    try:
        info = opnorm_from_normal(normal, M, sys.dof.total, tol=tol, seed=seed)
    except ArpackNoConvergence as exc:
        raise OpnormConvergenceError(beta, str(exc)) from exc
    return info.sigma, info.iterations


def probe_state(sys: SystemMatrices, seed) -> State:
    """Seeded random probe data with unit energy norm."""
    b = State.random(sys.dof, seed)
    b.vec /= energy_norm(b, sys)
    return b


def sample_point(beta, sys: SystemMatrices, b: State, *,
                 compute_opnorm=True, opnorm_tol=1e-4, solve_tol=1e-10) -> ResolventSample:
    """All per-frequency diagnostics for one beta and one probe vector."""
    shifted = ShiftedFactor(beta, sys)
    x = solve_static(beta, b, sys, shifted=shifted, tol=solve_tol)
    diss = dissipation_residual(beta, b, x, sys)
    monitors = flux_chain_monitor(x, b, beta, sys)
    if compute_opnorm:
        opnorm, iters = resolvent_opnorm(beta, sys, tol=opnorm_tol, shifted=shifted)
    else:
        opnorm, iters = float("nan"), 0
    return ResolventSample(beta=float(beta), opnorm=opnorm,
                           dissipation_residual=diss / energy_norm(b, sys) ** 2,
                           iters=iters, **monitors)


_worker_args = None     # (sys, b, options), set once per pool worker by _init_sweep_worker


def _init_sweep_worker(sys, b, options):
    global _worker_args
    _worker_args = (sys, b, options)


def _sweep_task(beta):
    sys, b, options = _worker_args
    return sample_point(beta, sys, b, **options)


def sweep(betas, sys: SystemMatrices, *, probe_seed=2, compute_opnorm=True,
          opnorm_tol=1e-4, solve_tol=1e-10, jobs=1) -> list[ResolventSample]:
    """Diagnostics along a frequency grid; results ordered by the grid.

    The beta-independent state (the Dirichlet map and the surface
    eigenbasis) is cached on the system, so it is built once per process.
    With jobs > 1 the system reaches each worker once, through the pool
    initializer; tasks carry only beta, and results are reassembled in grid
    order, so output does not depend on jobs.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.size < 1:
        raise InsufficientPointsError("empty frequency grid")
    if np.any(np.diff(betas) <= 0):
        raise ValueError("frequency grid must be strictly increasing")
    if betas[0] < 1.0:
        raise ValueError("frequency grid must start at beta >= 1")
    b = probe_state(sys, probe_seed)
    options = dict(compute_opnorm=compute_opnorm, opnorm_tol=opnorm_tol, solve_tol=solve_tol)
    grid = [float(bb) for bb in betas]
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(grid)), initializer=_init_sweep_worker,
            initargs=(sys, b, options),
        ) as pool:
            return list(pool.map(_sweep_task, grid))
    return [sample_point(bb, sys, b, **options) for bb in grid]


def in_top_decade(betas):
    """Mask of the frequencies in the top decade of a grid, the growth-fit window."""
    return betas >= betas.max() / 10.0


def fit_growth(samples, top_decade=True) -> GrowthFit:
    """Log-log slope of the operator norm versus frequency.

    By default the fit uses only the top decade of the grid, where the
    growth regime is not contaminated by the order-one plateau at small beta.
    """
    pts = [s for s in samples if np.isfinite(s.opnorm)]
    if len(pts) < 2:
        raise InsufficientPointsError(
            f"growth fit needs at least 2 finite samples, got {len(pts)}"
        )
    betas = np.array([s.beta for s in pts])
    if top_decade:
        keep = in_top_decade(betas)
        pts = [s for s, k in zip(pts, keep) if k]
        betas = betas[keep]
    if len(pts) < 2:
        raise InsufficientPointsError("top decade holds fewer than 2 samples")
    slope, _, residual = loglog_fit(betas, np.array([s.opnorm for s in pts]))
    return GrowthFit(
        betas=betas,
        slope=slope,
        residual=residual,
        window=(float(betas.min()), float(betas.max())),
        points=len(pts),
    )


def trend_slope(betas, values) -> float:
    """Least-squares slope of log(value) versus log(beta); 0 for all-zero data."""
    betas = np.asarray(betas, float)
    values = np.asarray(values, float)
    keep = values > 0
    if keep.sum() < 2:
        return 0.0
    return loglog_fit(betas[keep], values[keep])[0]


def write_sweep_csv(samples, path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in samples:
            fh.write(",".join(format(getattr(s, c), ".17g") for c in CSV_COLUMNS) + "\n")


def write_growth_json(fit: GrowthFit, path):
    with open(path, "w") as fh:
        json.dump(fit.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
