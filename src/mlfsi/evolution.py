"""Time-domain semigroup simulation with exact discrete energy accounting.

The integrator is the implicit midpoint rule, which adds no artificial
dissipation: for the linear system M x' = A x with quadratic energy
E = (1/2) x^T M x, one step satisfies exactly

    E(x+) - E(x) = -tau * u_m^T K_f u_m,   m = (x + x+) / 2,

so every joule lost is attributable to the fluid gradient term. The per-step
residual of this balance is recorded along the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import State, SystemMatrices, graph_norm
from .linalg import Factorization, SingularMatrixError, loglog_fit


class SolverFailure(RuntimeError):
    def __init__(self, message, step):
        super().__init__(f"{message} (step {step})")
        self.step = step


@dataclass
class EnergyTrace:
    """Per-sample records (t, E, dissipation, energy norm) plus balance audit."""

    t: np.ndarray
    E: np.ndarray
    dissipation: np.ndarray
    norm_H: np.ndarray
    balance_residual: np.ndarray   # length len(t) - 1, one per step

    def log_slope(self):
        """Instantaneous d log|x| / d log t, centered differences, 0 where undefined.

        The logs are ``math.log`` per sample: ``np.log`` differs from it in
        the last bit on a few inputs, and ``energy.csv`` keeps its bytes.
        """
        t, n = self.t, self.norm_H
        lt, ln = (np.array([math.log(v) if v > 0 else math.nan for v in a.tolist()]) for a in (t, n))
        out = np.zeros_like(t)
        np.divide(ln[2:] - ln[:-2], lt[2:] - lt[:-2], out=out[1:-1],
                  where=(t[:-2] > 0) & (n[:-2] > 0) & (n[2:] > 0))
        return out

    def max_balance_residual(self):
        return float(np.max(self.balance_residual)) if self.balance_residual.size else 0.0

    def to_csv(self, path):
        slope = self.log_slope()
        with open(path, "w") as fh:
            fh.write("t,E,dissipation,norm_H,log_slope\n")
            for i in range(len(self.t)):
                row = (self.t[i], self.E[i], self.dissipation[i], self.norm_H[i], slope[i])
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


@dataclass
class DecayFit:
    window: tuple
    exponent: float
    amplitude: float
    residual: float
    n_samples: int


class CNStepper:
    """One factorization of (M - tau/2 A), reused for every step."""

    def __init__(self, M, A, tau):
        if tau <= 0:
            raise ValueError("time step must be positive")
        self.tau = tau
        self.B_plus = (M + (tau / 2.0) * A).tocsr()
        self.factor = Factorization((M - (tau / 2.0) * A).tocsc())

    def step(self, xvec):
        return self.factor.solve(self.B_plus @ xvec)


def make_stepper(sys: SystemMatrices, tau) -> CNStepper:
    return CNStepper(sys.M, sys.A, tau)


def _dissipation(uvec, K_f):
    return float(np.vdot(uvec, K_f @ uvec).real)


def simulate(x0: State, T, tau, sys: SystemMatrices,
             stepper: CNStepper | None = None) -> EnergyTrace:
    """Evolve x0 over [0, T]; ceil(T/tau) + 1 samples with balance audit."""
    if T <= 0 or tau <= 0:
        raise ValueError("T and tau must be positive")
    if not np.all(np.isfinite(x0.vec)):
        raise ValueError("initial state is not finite")
    if stepper is None:
        stepper = make_stepper(sys, tau)

    nsteps = math.ceil(T / tau)
    n_fi, n_u = sys.dof.n_fi, sys.dof.n_u
    t = np.arange(nsteps + 1) * tau
    E = np.empty(nsteps + 1)
    D = np.empty(nsteps + 1)
    norm = np.empty(nsteps + 1)
    bal = np.empty(nsteps)

    x = x0.vec.astype(float).copy()
    Mx = sys.M @ x
    E[0] = 0.5 * float(x @ Mx)
    D[0] = _dissipation(x[:n_u], sys.K_f)
    norm[0] = math.sqrt(max(2.0 * E[0], 0.0))
    for k in range(nsteps):
        x_new = stepper.step(x)
        if not np.all(np.isfinite(x_new)):
            raise SolverFailure("non-finite state produced", step=k + 1)
        m_u = 0.5 * (x[:n_u] + x_new[:n_u])
        e_new = 0.5 * float(x_new @ (sys.M @ x_new))
        bal[k] = abs(e_new - E[k] + stepper.tau * _dissipation(m_u, sys.K_f))
        x = x_new
        E[k + 1] = e_new
        D[k + 1] = _dissipation(x[:n_u], sys.K_f)
        norm[k + 1] = math.sqrt(max(2.0 * e_new, 0.0))
    return EnergyTrace(t, E, D, norm, bal)


def prepare_smooth_data(seed, sys: SystemMatrices) -> State:
    """Seeded unit-graph-norm data obtained by smoothing a random vector.

    Solves A x0 = M r for seeded random r, then scales so that the graph
    norm of x0 is exactly one. Raises if the generator is singular: when the
    factorization fails, or when the solve misses A x0 = M r by a relative
    residual above 1e-10 (a few 1e-16 on the meshes here).
    """
    rng = np.random.default_rng(seed)
    rhs = sys.M @ rng.standard_normal(sys.dof.total)
    try:
        x = Factorization(sys.A.tocsc()).solve(rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"generator is singular on the discrete space: {exc}"
        ) from exc
    res = np.linalg.norm(sys.A @ x - rhs) / np.linalg.norm(rhs)
    if not res <= 1e-10:
        raise SingularMatrixError(
            f"generator is numerically singular (relative residual {res:.3g} of A x = M r)"
        )
    state = State(sys.dof, x)
    g = graph_norm(state, sys)
    state.vec /= g
    return state


def fit_decay(trace: EnergyTrace, window) -> DecayFit:
    """Least-squares decay exponent of log |x(t)|_H versus log t on a window.

    The fitted exponent p means |x| ~ amplitude * t^(-p) over the window.
    """
    ta, tb = window
    if ta <= 0:
        raise ValueError("window must start at positive time")
    mask = (trace.t >= ta) & (trace.t <= tb)
    if not np.any(mask):
        raise ValueError(f"window [{ta}, {tb}] lies outside the trace")
    tt = trace.t[mask]
    nn = trace.norm_H[mask]
    if tt.size < 10:
        raise ValueError(f"window holds {tt.size} samples; need at least 10")
    if np.any(nn <= 0):
        raise ValueError("trace is not positive on the window")
    slope, intercept, residual = loglog_fit(tt, nn)
    return DecayFit(
        window=(float(ta), float(tb)),
        exponent=float(-slope),
        amplitude=float(np.exp(intercept)),
        residual=residual,
        n_samples=int(tt.size),
    )


DECAY_REFERENCE_EXPONENT = 2.0 / 11.0
