"""Time-domain semigroup simulation with exact discrete energy accounting.

The integrator is the implicit midpoint rule, which adds no artificial
dissipation: for the linear system M x' = A x with quadratic energy
E = (1/2) x^T M x, one step satisfies exactly

    E(x+) - E(x) = -tau * u_m^T K_f u_m,   m = (x + x+) / 2,

so every joule lost is attributable to the fluid gradient term. The per-step
residual of this balance is recorded along the trace. A step is the Cayley
map (s M - A)^{-1} (s M + A) at the real shift s = 2 / tau, which
`resolvent.ShiftedFactor` applies with the same closed-form elimination and
velocity LU as the frequency-domain solves (`make_stepper`): one LU solve
and one sparse product per step, whose M x the next step reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import State, SystemMatrices, energy_norm
from .linalg import SingularMatrixError, loglog_fit
from .resolvent import GROWTH_REFERENCE_EXPONENT, SOLVE_TOL, ShiftedFactor

# Resolvent growth beta^(11/2) gives decay t^(-2/11) (Borichev-Tomilov).
DECAY_REFERENCE_EXPONENT = 1 / GROWTH_REFERENCE_EXPONENT
# The fewest trace samples a decay fit takes.
MIN_FIT_SAMPLES = 10
# The most steps a run takes; its four trace arrays then hold 3.0 GiB.
MAX_STEPS = 10**8


class SolverFailure(RuntimeError):
    def __init__(self, message, step):
        super().__init__(f"{message} (step {step})")
        self.step = step


@dataclass
class EnergyTrace:
    """Per-sample records (t, E, dissipation) plus balance audit."""

    t: np.ndarray
    E: np.ndarray
    dissipation: np.ndarray
    balance_residual: np.ndarray   # length len(t) - 1, one per step

    @property
    def norm_H(self):
        """The energy norm sqrt(2 E) per sample."""
        return np.sqrt(np.maximum(2.0 * self.E, 0.0))

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
        rows = np.column_stack([self.t, self.E, self.dissipation, self.norm_H, self.log_slope()])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",",
                   header="t,E,dissipation,norm_H,log_slope", comments="")


@dataclass
class DecayFit:
    """The decay fit; its fields are the keys of ``decay.json``."""

    fitted_exponent: float
    amplitude: float
    fit_residual: float
    samples: int
    window: tuple
    reference_exponent: float = field(default=DECAY_REFERENCE_EXPONENT, init=False)


def make_stepper(sys: SystemMatrices, tau) -> ShiftedFactor:
    """The midpoint step of length tau: `ShiftedFactor.cayley` at s = 2 / tau,
    (M - tau/2 A)^{-1} (M + tau/2 A) = (s M - A)^{-1} (s M + A)."""
    if not 0 < tau < math.inf:
        raise ValueError(f"time step must be positive and finite, got {tau}")
    return ShiftedFactor(2.0 / tau, sys.kinematic)


def _sample_times(first, last, tau):
    """The trace times k * tau, first <= k <= last, as `simulate` records them."""
    return np.arange(first, last + 1) * tau


def simulate(x0: State, T, tau, sys: SystemMatrices) -> EnergyTrace:
    """Evolve x0 over [0, T]; ceil(T/tau) + 1 samples with balance audit.

    Raises ValueError, before anything is allocated, when T or tau is not
    positive and finite, ceil(T/tau) exceeds MAX_STEPS or x0 is complex or
    not finite, and `SolverFailure` at the first step whose state or energy
    is not finite."""
    if not (0 < T < math.inf and 0 < tau < math.inf):
        raise ValueError(f"T and tau must be positive and finite, got T = {T}, tau = {tau}")
    if T / tau > MAX_STEPS:         # ceil(T / tau) > MAX_STEPS, T / tau = inf included
        raise ValueError(f"T / tau = {T / tau:g} steps, above MAX_STEPS = {MAX_STEPS}")
    if np.iscomplexobj(x0.vec):
        raise ValueError("initial state is complex; the midpoint step evolves real states")
    if not np.all(np.isfinite(x0.vec)):
        raise ValueError("initial state is not finite")
    stepper = make_stepper(sys, tau)

    nsteps = math.ceil(T / tau)
    n, n_u, K_f = sys.dof.total, sys.dof.n_u, sys.K_f
    # [M ; K_f on the u columns]: one product gives M x and K_f u, with K_f u_m their mean.
    stacked = sp.vstack([sys.M, sp.csr_matrix((K_f.data, K_f.indices, K_f.indptr), (n_u, n))])
    t = _sample_times(0, nsteps, tau)
    E = np.empty(nsteps + 1)
    D = np.empty(nsteps + 1)
    bal = np.empty(nsteps)

    x = x0.vec.astype(float)
    Mx, Ku = np.split(stacked @ x, [n])
    E[0] = 0.5 * float(x @ Mx)
    D[0] = float(x[:n_u] @ Ku)
    for k in range(nsteps):
        x_new = stepper.cayley(x, Mx)
        Mx, Ku_new = np.split(stacked @ x_new, [n])
        e_new = 0.5 * float(x_new @ Mx)
        # A non-finite entry of x_new makes its term of x_new @ Mx, and so
        # E, non-finite too: this one check also stops a finite state whose
        # energy has overflowed.
        if not math.isfinite(e_new):
            raise SolverFailure("non-finite state or energy", step=k + 1)
        m_u = 0.5 * (x[:n_u] + x_new[:n_u])
        bal[k] = abs(e_new - E[k] + tau * float(m_u @ (0.5 * (Ku + Ku_new))))
        x, Ku = x_new, Ku_new
        E[k + 1] = e_new
        D[k + 1] = float(x[:n_u] @ Ku)
    return EnergyTrace(t, E, D, bal)


def prepare_smooth_data(seed, sys: SystemMatrices) -> State:
    """Seeded unit-graph-norm data obtained by smoothing a random vector.

    Solves A x0 = M r for seeded random r on the kinematic split, then scales
    so that the graph norm |x0|_M + |M^{-1} A x0|_M = |x0|_M + |r|_M is one.
    Raises if the generator is singular: when a factorization fails, or when
    the solve misses A x0 = M r by a relative residual above
    `resolvent.SOLVE_TOL` (a few 1e-16 here).
    """
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(sys.dof.total)
    rhs = sys.M @ r
    try:
        x = sys.kinematic.solve_generator(r)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"generator is singular on the discrete space: {exc}"
        ) from exc
    res = np.linalg.norm(sys.A @ x - rhs) / np.linalg.norm(rhs)
    if not res <= SOLVE_TOL:
        raise SingularMatrixError(
            f"generator is numerically singular (relative residual {res:.3g} of A x = M r)"
        )
    state = State(sys.dof, x)
    # A x = M r, so M^{-1} A x = r: the graph norm needs no mass solve.
    state.vec /= energy_norm(state, sys) + energy_norm(State(sys.dof, r), sys)
    return state


def fit_decay(trace: EnergyTrace, window) -> DecayFit:
    """Least-squares decay exponent of log |x(t)|_H versus log t on a window.

    The fitted exponent p means |x| ~ amplitude * t^(-p) over the window.
    """
    mask = _fit_window_mask(trace.t, window)
    tt = trace.t[mask]
    nn = trace.norm_H[mask]
    if np.any(nn <= 0):
        raise ValueError("trace is not positive on the window")
    slope, intercept, residual = loglog_fit(tt, nn)
    return DecayFit(
        fitted_exponent=float(-slope),
        amplitude=float(np.exp(intercept)),
        fit_residual=residual,
        samples=int(tt.size),
        window=tuple(window),
    )


def _fit_window_mask(t, window):
    """Mask of the samples of ``t`` in ``window``; raises ValueError where
    `fit_decay` cannot fit on them."""
    ta, tb = window
    if ta <= 0:
        raise ValueError("window must start at positive time")
    mask = (t >= ta) & (t <= tb)
    count = np.count_nonzero(mask)
    if not count:
        raise ValueError(f"window [{ta}, {tb}] lies outside the trace")
    if count < MIN_FIT_SAMPLES:
        raise ValueError(f"window holds {count} samples; need at least {MIN_FIT_SAMPLES}")
    return mask


def check_fit_window(T, tau, window):
    """Raise ValueError if `fit_decay` would refuse ``window`` on the trace of
    `simulate` over [0, T] with step tau. A window's samples are consecutive
    and the first is within three steps of k = floor(ta / tau) - 1, so the
    MIN_FIT_SAMPLES + 3 times from there decide it however long the run."""
    first = max(0, math.floor(window[0] / tau) - 1)
    last = min(math.ceil(T / tau), first + MIN_FIT_SAMPLES + 2)
    _fit_window_mask(_sample_times(first, last, tau), window)
