"""Rate gates against mutants that must fail them.

A gate that passes on every system shows nothing. Each mutant here weakens
the physics the gate rests on, through `mutants.mutant`, and the gate must
fail on it and still pass on the real system, with the exact identities
holding on both.
"""

from mlfsi.evolution import fit_decay, prepare_smooth_data, simulate

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
