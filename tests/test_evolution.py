import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import mlfsi.assembly as assembly
from mlfsi.assembly import (
    KinematicSplit,
    State,
    energy_norm,
)
from mlfsi.evolution import (
    MAX_STEPS,
    fit_decay,
    make_stepper,
    prepare_smooth_data,
    simulate,
    EnergyTrace,
)
from mlfsi.linalg import Factorization, SingularMatrixError
from mlfsi.resolvent import FrequencySingularityError, ShiftedFactor, probe_state, solve_static

from mutants import mutant
from oracles import log_slope_loop


def dense_flow(sys, t):
    Md = sys.M.toarray()
    Ad = sys.A.toarray()
    return scipy.linalg.expm(t * np.linalg.solve(Md, Ad))


def test_step_zero_state(default_sys):
    x = State.zeros(default_sys.dof)
    out = make_stepper(default_sys, 0.01).cayley(x.vec)
    assert np.all(out == 0)


def test_cayley_maps_a_complex_block_column_by_column(n8_sys, rng):
    # The real midpoint LU steps a complex (N, 2) block of states, each column
    # as its own step to rounding.
    stepper = make_stepper(n8_sys, 0.01)
    X = rng.standard_normal((n8_sys.dof.total, 2)) + 1j * rng.standard_normal((n8_sys.dof.total, 2))
    Y = stepper.cayley(X)
    assert Y.shape == X.shape
    for j in range(2):
        y = stepper.cayley(X[:, j])
        assert np.linalg.norm(Y[:, j] - y) <= 1e-13 * np.linalg.norm(y)


def test_scalar_model_closed_form():
    # 1x1 system M=1, A=-1: midpoint step is (1 - tau/2) / (1 + tau/2).
    M = sp.csr_matrix(np.array([[1.0]]))
    A = sp.csr_matrix(np.array([[-1.0]]))
    tau = 0.1
    split = KinematicSplit(M, -A, sp.csr_matrix((0, 0)), coords=[[0.0, 0.0, 0.0]])
    stepper = ShiftedFactor(2.0 / tau, split)
    x = np.array([2.0])
    out = stepper.cayley(x)
    assert out[0] == pytest.approx(2.0 * (1 - tau / 2) / (1 + tau / 2), rel=1e-14)


def test_singular_midpoint_matrix_raises_the_time_solver_error():
    # M = 1, K = -1: the generator has the eigenvalue +1, so s M - A vanishes
    # at s = 2 / tau = 1. That is a time-domain failure (exit 3), not a
    # frequency singularity (exit 4).
    one = sp.csr_matrix(np.array([[1.0]]))
    split = KinematicSplit(one, -one, sp.csr_matrix((0, 0)), coords=[[0.0, 0.0, 0.0]])
    with pytest.raises(SingularMatrixError) as info:
        make_stepper(SimpleNamespace(kinematic=split), 2.0)
    assert not isinstance(info.value, FrequencySingularityError)
    make_stepper(SimpleNamespace(kinematic=split), 1.0)


def test_one_step_local_order_three(tiny_sys):
    x0 = prepare_smooth_data(5, tiny_sys).vec
    errs = []
    for tau in (0.02, 0.01):
        flow = dense_flow(tiny_sys, tau)
        ref = flow @ x0
        got = make_stepper(tiny_sys, tau).cayley(x0)
        errs.append(np.linalg.norm(got - ref))
    ratio = errs[0] / errs[1]
    assert 6.0 < ratio < 10.0


def test_simulate_zero_data(default_sys):
    tr = simulate(State.zeros(default_sys.dof), 0.5, 0.01, default_sys)
    assert np.all(tr.E == 0) and np.all(tr.norm_H == 0)
    assert np.all(tr.balance_residual == 0)


def test_simulate_energy_nonincreasing(default_sys, rng):
    x0 = State(default_sys.dof, rng.standard_normal(default_sys.dof.total))
    tr = simulate(x0, 2.0, 0.005, default_sys)
    assert np.all(np.diff(tr.E) <= 1e-13 * tr.E[0])
    assert np.all(np.isfinite(tr.E))


def test_simulate_global_order_two(tiny_sys):
    T = 1.0
    x0 = prepare_smooth_data(7, tiny_sys).vec
    ref = dense_flow(tiny_sys, T) @ x0
    errs = []
    taus = (4e-3, 2e-3, 1e-3)
    for tau in taus:
        tr_x = x0.copy()
        stepper = make_stepper(tiny_sys, tau)
        for _ in range(round(T / tau)):
            tr_x = stepper.cayley(tr_x)
        errs.append(np.linalg.norm(tr_x - ref))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for order in orders:
        assert abs(order - 2.0) <= 0.1


def test_energy_balance_residual(default_sys, rng):
    x0 = State(default_sys.dof, rng.standard_normal(default_sys.dof.total))
    tr = simulate(x0, 10.0, 0.01, default_sys)
    assert tr.max_balance_residual() <= 1e-10 * tr.E[0]


def test_reversible_when_dissipation_removed(default_sys):
    # Harness: a system with the fluid stiffness zeroed; the midpoint rule
    # must then conserve energy to rounding over 1000 steps.
    sys = mutant(default_sys.mesh, K_f=sp.csr_matrix(default_sys.K_f.shape))
    stepper = ShiftedFactor(2.0 / 0.01, sys.kinematic)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(sys.dof.total)
    e0 = 0.5 * x @ (sys.M @ x)
    for _ in range(1000):
        x = stepper.cayley(x)
    e1 = 0.5 * x @ (sys.M @ x)
    assert abs(e1 - e0) <= 1e-10 * e0


def test_decay_exponent_not_decreasing_under_refinement(default_sys, n8_sys):
    # The mid-window decay exponent of smooth data meets the reference rate
    # at n=4, and the n=8 exponent is no smaller than the n=4 one. Only these
    # two meshes are compared: finer meshes fit smaller exponents (about
    # 1.79 at n=8 against 0.53 at n=24), so this is no claim that decay is
    # unchanged under refinement.
    exponents = {}
    for name, sys in (("n4", default_sys), ("n8", n8_sys)):
        x0 = prepare_smooth_data(1, sys)
        tr = simulate(x0, 60.0, 0.01, sys)
        exponents[name] = fit_decay(tr, (1.0, 50.0)).fitted_exponent
    assert exponents["n4"] >= 2.0 / 11.0
    assert exponents["n8"] >= exponents["n4"] - 1e-6


def test_prepare_smooth_data(default_sys, n8_sys):
    x1 = prepare_smooth_data(11, default_sys)
    x2 = prepare_smooth_data(11, default_sys)
    assert np.array_equal(x1.vec, x2.vec)
    x3 = prepare_smooth_data(12, default_sys)
    assert not np.array_equal(x1.vec, x3.vec)
    # Unit graph norm |x|_M + |M^{-1} A x|_M with a dense M^{-1} A, without
    # (n=4) and with (n=8) fluid-interior unknowns.
    assert default_sys.dof.n_fi == 0 < n8_sys.dof.n_fi
    for sys in (default_sys, n8_sys):
        x = prepare_smooth_data(11, sys).vec
        Md = sys.M.toarray()
        y = np.linalg.solve(Md, sys.A @ x)
        assert np.sqrt(x @ Md @ x) + np.sqrt(y @ Md @ y) == pytest.approx(1.0, abs=1e-10)
        assert energy_norm(State(sys.dof, x), sys) <= 1.0 + 1e-10


@pytest.mark.parametrize("name", ["default_sys", "n8_sys"])
def test_prepare_smooth_data_factors_only_K_ff_and_P(request, monkeypatch, name):
    # The graph norm takes M^{-1} A x = r from the solve: no M_VV LU, one
    # K_ff LU (empty when there is no fluid-interior unknown) and one P LU.
    sys = request.getfixturevalue(name)
    split = sys.kinematic
    sizes = []

    class Recording(Factorization):
        def __init__(self, A, order):
            sizes.append(A.shape[0])
            super().__init__(A, order)

    monkeypatch.setattr(assembly, "Factorization", Recording)
    prepare_smooth_data(11, sys)
    assert sizes == [split.n_fi, split.P.shape[0]]


def test_prepare_smooth_data_rejects_a_wrong_solve(monkeypatch, default_sys):
    # A factorization that returns a wrong vector without failing: the
    # residual check of A x = M r must catch it.
    solve = Factorization.solve
    monkeypatch.setattr(Factorization, "solve",
                        lambda self, b, trans="N": 1.5 * solve(self, b, trans))
    with pytest.raises(SingularMatrixError, match="relative residual"):
        prepare_smooth_data(11, default_sys)


@pytest.mark.parametrize("name", ["default_sys", "n8_sys"])
def test_prepare_smooth_data_matches_dense_solve(request, name):
    # The closed-form split solve against a dense solve of A x = M r, both
    # scaled to unit graph norm with a dense M^{-1} A.
    sys = request.getfixturevalue(name)
    Md, Ad = sys.M.toarray(), sys.A.toarray()
    x = np.linalg.solve(Ad, Md @ np.random.default_rng(11).standard_normal(sys.dof.total))
    y = np.linalg.solve(Md, Ad @ x)
    x /= np.sqrt(x @ Md @ x) + np.sqrt(y @ Md @ y)
    got = prepare_smooth_data(11, sys).vec
    assert np.linalg.norm(got - x) / np.linalg.norm(x) <= 1e-10


def test_prepare_smooth_data_rejects_a_singular_generator(n8_sys):
    # Without the fluid stiffness the fluid-interior velocities (n_fi > 0 at
    # n=8) span a kernel of A, and the K_ff factorization fails.
    sys = mutant(n8_sys.mesh, K_f=sp.csr_matrix(n8_sys.K_f.shape))
    with pytest.raises(SingularMatrixError, match="generator is singular"):
        prepare_smooth_data(11, sys)


def test_fit_decay_synthetic_power_law():
    t = np.linspace(0.5, 20, 400)
    norm = t ** (-0.5)
    tr = EnergyTrace(t, 0.5 * norm**2, np.zeros_like(t), np.zeros(len(t) - 1))
    fit = fit_decay(tr, (1.0, 15.0))
    assert fit.fitted_exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.fit_residual == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_constant_trace():
    t = np.linspace(0.5, 20, 200)
    norm = np.full_like(t, 3.0)
    tr = EnergyTrace(t, 0.5 * norm**2, np.zeros_like(t), np.zeros(len(t) - 1))
    fit = fit_decay(tr, (1.0, 15.0))
    assert fit.fitted_exponent == pytest.approx(0.0, abs=1e-14)


def test_fit_decay_window_errors():
    t = np.linspace(0.5, 2.0, 50)
    norm = np.ones_like(t)
    tr = EnergyTrace(t, 0.5 * norm**2, np.zeros_like(t), np.zeros(len(t) - 1))
    with pytest.raises(ValueError):
        fit_decay(tr, (5.0, 10.0))
    with pytest.raises(ValueError):
        fit_decay(tr, (0.0, 1.0))
    with pytest.raises(ValueError):
        fit_decay(tr, (1.0, 1.05))    # too few samples


def test_simulate_rejects_more_than_max_steps(tiny_sys, monkeypatch):
    # 1e12 steps: each trace array alone would need 7.28 TiB, so the step
    # count is checked before the stepper or any array is made.
    monkeypatch.setattr("mlfsi.evolution.make_stepper", None)
    with pytest.raises(ValueError, match=f"above MAX_STEPS = {MAX_STEPS}"):
        simulate(State.zeros(tiny_sys.dof), 1e9, 1e-3, tiny_sys)


@pytest.mark.parametrize("T, tau", [(math.nan, 0.01), (1.0, math.nan), (1.0, math.inf),
                                    (math.inf, 0.01), (1.0, -math.inf)])
def test_simulate_rejects_a_time_that_is_not_positive_and_finite(tiny_sys, monkeypatch, T, tau):
    # NaN fails every comparison, so it must be rejected by one that is
    # true only for good values, before the stepper is made.
    monkeypatch.setattr("mlfsi.evolution.make_stepper", None)
    with pytest.raises(ValueError, match="T and tau must be positive and finite"):
        simulate(State.zeros(tiny_sys.dof), T, tau, tiny_sys)


def test_simulate_rejects_a_complex_or_nonfinite_initial_state(default_sys, monkeypatch):
    # A resolvent solution is complex; casting it to the real state the
    # midpoint step evolves would drop its imaginary part (at n=4 and beta =
    # 3, E[0] read 0.013856 against 1/2 x^H M x = 0.022547).
    x0 = solve_static(3.0, probe_state(default_sys, 2), default_sys)
    nan = State(default_sys.dof, np.where(np.arange(default_sys.dof.total) == 5, np.nan, 0.0))
    monkeypatch.setattr("mlfsi.evolution.make_stepper", None)
    with pytest.raises(ValueError, match="initial state is complex"):
        simulate(x0, 0.1, 0.01, default_sys)
    with pytest.raises(ValueError, match="initial state is not finite"):
        simulate(nan, 0.1, 0.01, default_sys)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0])
def test_make_stepper_rejects_a_step_that_is_not_positive_and_finite(tiny_sys, monkeypatch, tau):
    monkeypatch.setattr("mlfsi.evolution.ShiftedFactor", None)
    with pytest.raises(ValueError, match="time step must be positive and finite"):
        make_stepper(tiny_sys, tau)


def assert_aborts_at_step_3(sys, rng, monkeypatch, index):
    """A step that returns NaN at ``index`` of the state on its third call
    stops `simulate` with the step number."""
    from mlfsi.evolution import SolverFailure

    calls = []

    def broken_step(self, x, Mx=None):
        calls.append(1)
        if len(calls) == 3:
            bad = x.copy()
            bad[index] = np.nan
            return bad
        return x

    monkeypatch.setattr(ShiftedFactor, "cayley", broken_step)
    x0 = State(sys.dof, rng.standard_normal(sys.dof.total))
    with pytest.raises(SolverFailure, match="step 3"):
        simulate(x0, 0.1, 0.01, sys)


def test_simulate_aborts_on_nonfinite_state(default_sys, rng, monkeypatch):
    assert_aborts_at_step_3(default_sys, rng, monkeypatch, 0)


def test_simulate_aborts_on_nonfinite_displacement(default_sys, rng, monkeypatch):
    # The NaN sits in the d block only, which the carried M x reads as P d.
    assert_aborts_at_step_3(default_sys, rng, monkeypatch, default_sys.dof.n_v)


def reference_trace(x0, T, tau, sys):
    """E, dissipation, norm_H and balance residual of `simulate`'s trace, from
    a loop that steps with `cayley(x)` and forms every product in full."""
    stepper, n_u = make_stepper(sys, tau), sys.dof.n_u

    def dissipation(u):
        return float(np.vdot(u, sys.K_f @ u).real)

    x = x0.copy()
    E, D, bal = [0.5 * float(x @ (sys.M @ x))], [dissipation(x[:n_u])], []
    for _ in range(math.ceil(T / tau)):
        x_new = stepper.cayley(x)
        e_new = 0.5 * float(x_new @ (sys.M @ x_new))
        bal.append(abs(e_new - E[-1] + tau * dissipation(0.5 * (x[:n_u] + x_new[:n_u]))))
        x = x_new
        E.append(e_new)
        D.append(dissipation(x[:n_u]))
    E = np.array(E)
    return E, np.array(D), np.sqrt(np.maximum(2.0 * E, 0.0)), np.array(bal)


@pytest.mark.parametrize("name", ["default_sys", "n8_sys"])
def test_simulate_matches_the_full_product_loop_bit_for_bit(request, name):
    # The carried M x and K_f u are the bits of the full products, so the
    # trace is; only the balance residual, which sums K_f u_m as the mean of
    # two products, may move, within the golden bound of 1e-14 times the energy.
    sys = request.getfixturevalue(name)
    x0 = prepare_smooth_data(1, sys)
    tr = simulate(x0, 1.0, 0.01, sys)
    E, D, norm, bal = reference_trace(x0.vec, 1.0, 0.01, sys)
    for got, want in ((tr.E, E), (tr.dissipation, D), (tr.norm_H, norm)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.max(np.abs(tr.balance_residual - bal)) <= 1e-14 * E[0]


def test_simulate_step_is_one_solve_and_one_product(default_sys, monkeypatch):
    # One stepper LU per run; per step one solve on it and one sparse
    # product, plus the product of x0.
    x0 = prepare_smooth_data(3, default_sys)
    stepper_factors, solves, products = [], [], []
    init, solve, matmul = ShiftedFactor.__init__, Factorization.solve, sp.csr_matrix.__matmul__

    def counted_init(self, *args):
        init(self, *args)
        stepper_factors.append(self.factor)

    def counted_solve(self, b, trans="N"):
        solves.append(self)
        return solve(self, b, trans)

    def counted_matmul(self, other):
        products.append(self.shape)
        return matmul(self, other)

    monkeypatch.setattr(ShiftedFactor, "__init__", counted_init)
    monkeypatch.setattr(Factorization, "solve", counted_solve)
    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted_matmul)
    tr = simulate(x0, 0.875, 0.125, default_sys)
    assert len(tr.t) - 1 == 7
    assert len(stepper_factors) == 1
    assert len(solves) == 7 and all(f is stepper_factors[0] for f in solves)
    assert len(products) == 8


def test_log_slope_matches_the_loop_bit_for_bit(default_sys):
    trace = simulate(prepare_smooth_data(1, default_sys), 60.0, 0.01, default_sys)
    zeroed = trace.E.copy()
    zeroed[[0, 5, 6, 100, 3001, len(zeroed) - 1]] = 0.0
    for E in (trace.E, zeroed):
        tr = EnergyTrace(trace.t, E, trace.dissipation, trace.balance_residual)
        slope = tr.log_slope()
        assert np.array_equal(slope.view(np.uint64),
                              log_slope_loop(trace.t, tr.norm_H).view(np.uint64))
        assert np.count_nonzero(slope) > len(slope) - 20


def test_trace_csv_schema(tmp_path, default_sys, rng):
    x0 = State(default_sys.dof, rng.standard_normal(default_sys.dof.total))
    tr = simulate(x0, 0.2, 0.01, default_sys)
    path = tmp_path / "energy.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,E,dissipation,norm_H,log_slope"
    assert len(lines) == len(tr.t) + 1
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and float(row[1]) == pytest.approx(tr.E[0])
