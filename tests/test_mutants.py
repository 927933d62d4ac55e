"""Rate gates against mutants.

A gate that passes on every system shows nothing. Each mutant here changes
the physics a gate rests on, through `mutants.mutant`. Where the gate can see
the change, it must fail on the mutant and still pass on the real system,
with the exact identities holding on both; where it cannot, the test pins
that blind spot.
"""

import numpy as np
import pytest

from mlfsi.evolution import SolverFailure, fit_decay, prepare_smooth_data, simulate
from mlfsi.resolvent import OPNORM_TOL, PROBE_SEED, SOLVE_TOL, probe_state, sample_point

from mutants import mutant
from test_acceptance import DECAY_BOUND, DECAY_WINDOW, SIM_T, SIM_TAU


def decay_run(sys):
    """Criterion 5's run: its fitted exponent and the energy trace."""
    trace = simulate(prepare_smooth_data(1, sys), SIM_T, SIM_TAU, sys)
    return fit_decay(trace, DECAY_WINDOW).exponent, trace


def test_decay_gate_fails_when_dissipation_is_weakened(default_sys):
    # K_f scaled by 1e-4 everywhere the system reads it: the n=4 decay
    # exponent drops from about 1.77 to about 0.02, below the gate.
    weak = mutant(default_sys.mesh, K_f=1e-4 * default_sys.K_f)
    exponent, trace = decay_run(weak)
    assert exponent < DECAY_BOUND
    assert trace.max_balance_residual() <= 1e-10 * trace.E[0]
    exponent, trace = decay_run(default_sys)
    assert exponent >= DECAY_BOUND
    assert trace.max_balance_residual() <= 1e-10 * trace.E[0]


def test_simulate_stops_where_the_energy_overflows(default_sys):
    # K_f negated: on criterion 5's data x^T M x overflows at step 393, while
    # the state stays finite until step 776. A run to T = 7.75 (775 steps)
    # must stop at the overflow, not return a trace that ends in nan.
    flip = mutant(default_sys.mesh, K_f=-default_sys.K_f)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverFailure, match=r"\(step 393\)"):
        simulate(prepare_smooth_data(1, flip), 7.75, SIM_TAU, flip)


def test_resolvent_norm_cannot_see_the_sign_of_the_dissipation(default_sys):
    # K_f negated feeds energy in: criterion 5's run overflows, and over
    # T = 2 the energy grows by about 1e154 while the midpoint balance holds
    # to rounding. Yet the mutant generator is -A^T, the M-adjoint of A
    # negated, so ||R(i beta)|| in the energy metric is unchanged, and so is
    # the growth gate (criterion 4) that fits it.
    flip = mutant(default_sys.mesh, K_f=-default_sys.K_f)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverFailure):
        decay_run(flip)
    trace = simulate(prepare_smooth_data(1, flip), 2.0, SIM_TAU, flip)
    assert trace.E[-1] > 1e100 * trace.E[0]
    assert trace.max_balance_residual() <= 1e-10 * trace.E.max()
    b = probe_state(default_sys, PROBE_SEED)
    real, flipped = (sample_point(10.0, sys, b, opnorm_tol=OPNORM_TOL, solve_tol=SOLVE_TOL).opnorm
                     for sys in (default_sys, flip))
    assert flipped == pytest.approx(real, rel=1e-10, abs=0)
