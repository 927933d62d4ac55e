import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from mlfsi.assembly import State, compose_first_order, energy_norm, graph_norm
import mlfsi.evolution as evolution
from mlfsi.evolution import (
    CNStepper,
    fit_decay,
    make_stepper,
    prepare_smooth_data,
    simulate,
    EnergyTrace,
)
from mlfsi.linalg import Factorization, SingularMatrixError

from oracles import log_slope_loop


def dense_flow(sys, t):
    Md = sys.M.toarray()
    Ad = sys.A.toarray()
    return scipy.linalg.expm(t * np.linalg.solve(Md, Ad))


def test_step_zero_state(default_sys):
    x = State.zeros(default_sys.dof)
    out = make_stepper(default_sys, 0.01).step(x.vec)
    assert np.all(out == 0)


def test_scalar_model_closed_form():
    # 1x1 system M=1, A=-1: midpoint step is (1 - tau/2) / (1 + tau/2).
    M = sp.csr_matrix(np.array([[1.0]]))
    A = sp.csr_matrix(np.array([[-1.0]]))
    tau = 0.1
    stepper = CNStepper(M, A, tau)
    x = np.array([2.0])
    out = stepper.step(x)
    assert out[0] == pytest.approx(2.0 * (1 - tau / 2) / (1 + tau / 2), rel=1e-14)


def test_one_step_local_order_three(tiny_sys):
    x0 = prepare_smooth_data(5, tiny_sys).vec
    errs = []
    for tau in (0.02, 0.01):
        flow = dense_flow(tiny_sys, tau)
        ref = flow @ x0
        got = make_stepper(tiny_sys, tau).step(x0)
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
            tr_x = stepper.step(tr_x)
        errs.append(np.linalg.norm(tr_x - ref))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for order in orders:
        assert abs(order - 2.0) <= 0.1


def test_energy_balance_residual(default_sys, rng):
    x0 = State(default_sys.dof, rng.standard_normal(default_sys.dof.total))
    tr = simulate(x0, 10.0, 0.01, default_sys)
    assert tr.max_balance_residual() <= 1e-10 * tr.E[0]


def test_reversible_when_dissipation_removed(default_sys):
    # Harness: rebuild the generator with the fluid stiffness zeroed; the
    # midpoint rule must then conserve energy to rounding over 1000 steps.
    sys = default_sys
    K0 = sp.csr_matrix(sys.K_f.shape)
    _, A0 = compose_first_order(sys.dof, sys.M_f, K0, sys.M_G, sys.K_G, sys.M_s, sys.K_s)
    stepper = CNStepper(sys.M, A0, 0.01)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(sys.dof.total)
    e0 = 0.5 * x @ (sys.M @ x)
    for _ in range(1000):
        x = stepper.step(x)
    e1 = 0.5 * x @ (sys.M @ x)
    assert abs(e1 - e0) <= 1e-10 * e0


def test_decay_exponent_not_decreasing_under_refinement(default_sys, n8_sys):
    # Mid-time-window decay of smooth data holds on both meshes and does not
    # degrade when the mesh is refined.
    exponents = {}
    for name, sys in (("n4", default_sys), ("n8", n8_sys)):
        x0 = prepare_smooth_data(1, sys)
        tr = simulate(x0, 60.0, 0.01, sys)
        exponents[name] = fit_decay(tr, (1.0, 50.0)).exponent
    assert exponents["n4"] >= 2.0 / 11.0
    assert exponents["n8"] >= exponents["n4"] - 1e-6


def test_prepare_smooth_data(default_sys):
    x1 = prepare_smooth_data(11, default_sys)
    x2 = prepare_smooth_data(11, default_sys)
    assert np.array_equal(x1.vec, x2.vec)
    assert graph_norm(x1, default_sys) == pytest.approx(1.0, abs=1e-10)
    assert energy_norm(x1, default_sys) <= 1.0 + 1e-10
    x3 = prepare_smooth_data(12, default_sys)
    assert not np.array_equal(x1.vec, x3.vec)


def test_prepare_smooth_data_rejects_a_wrong_solve(monkeypatch, default_sys):
    # A factorization that returns a wrong vector without failing: the
    # residual check of A x = M r must catch it.
    class WrongSolve(Factorization):
        def solve(self, b, trans="N"):
            return 1.5 * super().solve(b, trans=trans)

    monkeypatch.setattr(evolution, "Factorization", WrongSolve)
    with pytest.raises(SingularMatrixError, match="relative residual"):
        prepare_smooth_data(11, default_sys)


def test_fit_decay_synthetic_power_law():
    t = np.linspace(0.5, 20, 400)
    norm = t ** (-0.5)
    tr = EnergyTrace(t, 0.5 * norm**2, np.zeros_like(t), norm, np.zeros(len(t) - 1))
    fit = fit_decay(tr, (1.0, 15.0))
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_constant_trace():
    t = np.linspace(0.5, 20, 200)
    norm = np.full_like(t, 3.0)
    tr = EnergyTrace(t, 0.5 * norm**2, np.zeros_like(t), norm, np.zeros(len(t) - 1))
    fit = fit_decay(tr, (1.0, 15.0))
    assert fit.exponent == pytest.approx(0.0, abs=1e-14)


def test_fit_decay_window_errors():
    t = np.linspace(0.5, 2.0, 50)
    norm = np.ones_like(t)
    tr = EnergyTrace(t, 0.5 * norm**2, np.zeros_like(t), norm, np.zeros(len(t) - 1))
    with pytest.raises(ValueError):
        fit_decay(tr, (5.0, 10.0))
    with pytest.raises(ValueError):
        fit_decay(tr, (0.0, 1.0))
    with pytest.raises(ValueError):
        fit_decay(tr, (1.0, 1.05))    # too few samples


def test_simulate_aborts_on_nonfinite_state(default_sys, rng):
    from mlfsi.evolution import SolverFailure

    class BrokenStepper:
        tau = 0.01

        def __init__(self):
            self.calls = 0

        def step(self, x):
            self.calls += 1
            if self.calls == 3:
                bad = x.copy()
                bad[0] = np.nan
                return bad
            return x

    x0 = State(default_sys.dof, rng.standard_normal(default_sys.dof.total))
    with pytest.raises(SolverFailure, match="step 3"):
        simulate(x0, 0.1, 0.01, default_sys, stepper=BrokenStepper())


def test_log_slope_matches_the_loop_bit_for_bit(default_sys):
    trace = simulate(prepare_smooth_data(1, default_sys), 60.0, 0.01, default_sys)
    zeroed = trace.norm_H.copy()
    zeroed[[0, 5, 6, 100, 3001, len(zeroed) - 1]] = 0.0
    for norm in (trace.norm_H, zeroed):
        tr = EnergyTrace(trace.t, trace.E, trace.dissipation, norm, trace.balance_residual)
        slope = tr.log_slope()
        assert np.array_equal(slope.view(np.uint64), log_slope_loop(trace.t, norm).view(np.uint64))
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
