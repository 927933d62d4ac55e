"""Rate gates against mutants.

A gate that passes on every system shows nothing. Each mutant here changes
the physics a gate rests on, through `mutants.mutant`. Where the gate can see
the change, it must fail on the mutant and still pass on the real system,
with the exact identities holding on both; where it cannot, the test pins
that blind spot.
"""

import numpy as np
import pytest

from mlfsi.assembly import build_system
from mlfsi.evolution import SolverFailure, fit_decay, prepare_smooth_data, simulate
from mlfsi.geometry import MeshConfig, build_mesh
from mlfsi.resolvent import OPNORM_TOL, PROBE_SEED, probe_state, sample_point, solve_static

from mutants import cut_coupling, mutant
from test_acceptance import DECAY_BOUND, DECAY_WINDOW, SIM_T, SIM_TAU
from test_assembly import CROSS_LEVEL_BOUND, cross_level_misfit


def decay_run(sys):
    """Criterion 5's run: its fitted exponent and the energy trace."""
    trace = simulate(prepare_smooth_data(1, sys), SIM_T, SIM_TAU, sys)
    return fit_decay(trace, DECAY_WINDOW).fitted_exponent, trace


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


def test_decay_gate_fails_when_the_thick_layer_is_cut_off(n8_sys):
    # The interface–interior blocks of K_s and M_s zeroed at n=8: the decay
    # exponent drops from about 1.79 to about 0.01, below the gate. At n=4
    # the same cut still passes (about 1.04).
    n_i = n8_sys.dof.n_i
    cut = mutant(n8_sys.mesh, K_s=cut_coupling(n8_sys.K_s, n_i),
                 M_s=cut_coupling(n8_sys.M_s, n_i))
    exponent, trace = decay_run(cut)
    assert exponent < DECAY_BOUND
    assert trace.max_balance_residual() <= 1e-10 * trace.E[0]
    exponent, trace = decay_run(n8_sys)
    assert exponent >= DECAY_BOUND
    assert trace.max_balance_residual() <= 1e-10 * trace.E[0]


def test_decay_gate_cannot_see_a_stiffness_only_cut(n8_sys):
    # Only K_s's interface–interior blocks zeroed: M_s still couples the
    # interior to the interface, and the n=8 exponent reads about 0.45,
    # which passes the gate.
    cut = mutant(n8_sys.mesh, K_s=cut_coupling(n8_sys.K_s, n8_sys.dof.n_i))
    exponent, trace = decay_run(cut)
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
    real, flipped = (sample_point(10.0, sys, b, opnorm_tol=OPNORM_TOL).opnorm
                     for sys in (default_sys, flip))
    assert flipped == pytest.approx(real, rel=1e-10, abs=0)


def test_dissipated_power_sees_the_sign_of_the_dissipation(default_sys):
    # Where the norm is blind, the signed dissipated power of the sweep's
    # probe is not: Re <b, x>_M = |grad u|^2 is positive on the real system
    # (about 2.2e-1, 4.1e-2 and 8.6e-5) and, since the mutant generator is
    # the M-adjoint of A negated, exactly its negative on the K_f -> -K_f one.
    flip = mutant(default_sys.mesh, K_f=-default_sys.K_f)
    b = probe_state(default_sys, PROBE_SEED)
    for beta in (1.0, 10.0, 100.0):
        real, flipped = (np.vdot(b.vec, sys.M @ solve_static(beta, b, sys).vec).real
                         for sys in (default_sys, flip))
        assert real > 0 > flipped
        assert flipped == pytest.approx(-real, rel=1e-10, abs=0)


def scaled_block_system(n, name, factor):
    """The system at n with block ``name`` multiplied by factor(n)."""
    mesh = build_mesh(MeshConfig(n=n))
    return mutant(mesh, **{name: factor(n) * getattr(build_system(mesh), name)})


@pytest.mark.parametrize("name, factor, composites", [
    pytest.param("M_G", lambda n: n / 4, {"M", "A"}, id="M_G-over-h"),
    pytest.param("K_f", lambda n: 1 / n, {"A"}, id="K_f-times-h"),
])
@pytest.mark.parametrize("coarse_n, fine_n", [(4, 8), (4, 12), (8, 16)])
def test_cross_level_identity_fails_on_an_inconsistent_block(name, factor, composites,
                                                             coarse_n, fine_n):
    # A block whose scale depends on the mesh (M_G / h, K_f h) is no
    # Galerkin discretization of one form: I^T X_fine I misses X_coarse by
    # the ratio of the two scales, far above the bound the real blocks meet.
    # So do the composites that read it: M and A read M_G (M_VV and, through
    # H1_G, P), and only A reads K_f.
    coarse, fine = (scaled_block_system(n, name, factor) for n in (coarse_n, fine_n))
    misfit = cross_level_misfit(coarse, fine)
    assert {k for k, v in misfit.items() if v > CROSS_LEVEL_BOUND} == {name, *composites}, misfit
