"""The kinematic split of (M, A): its blocks and pair against the
shared-trace composition, its exact structural identities, the
nested-dissection order of the velocity unknowns, and the shifted solves
on it, the midpoint step among them, against full-system scipy LUs and
dense eigenpairs."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import mlfsi.linalg as linalg
from mlfsi.assembly import State, build_system
from mlfsi.evolution import make_stepper
from mlfsi.geometry import MeshConfig, build_mesh
from mlfsi.linalg import DISSECTION_LEAF, Factorization, coordinate_bisection
from mlfsi.resolvent import ShiftedFactor

from conftest import NON_CUBIC_CONFIG
from mutants import cut_coupling, mutant
from oracles import (extracted_split, full_midpoint_steps, full_shifted_lu, ordered_shifted_matrix,
                     shared_trace_pair)

# A box that is not a cube, around an off-center brick.
BRICK_CONFIG = MeshConfig(
    outer_lo=(0.0, 0.0, 0.0), outer_hi=(2.0, 1.0, 1.5),
    inner_lo=(0.5, 0.25, 0.5), inner_hi=(1.5, 0.75, 1.0), n=4,
)


def rel_diff(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


# Imaginary shifts s = i beta are named by their frequency beta; 200.0 is
# 2 / tau at tau = 0.01, the midpoint shift.
@pytest.mark.parametrize("s", [1j, 13.5j, 200j, 3 - 5j, 200.0],
                         ids=["1.0", "13.5", "200.0", "3-5j", "real-200.0"])
def test_shifted_solves_match_full_system_lu(n8_sys, s):
    sys = n8_sys
    rng = np.random.default_rng(int(abs(s)))
    b, z = rng.standard_normal((2, sys.dof.total)) + 1j * rng.standard_normal((2, sys.dof.total))
    if np.isrealobj(s):
        b, z = b.real, z.real
    shifted = ShiftedFactor(s, sys.kinematic)
    lu = full_shifted_lu(s, sys)
    assert rel_diff(shifted.solve(b), lu.solve(sys.M @ b)) <= 1e-12
    assert rel_diff(shifted.solve_adjoint(z), lu.solve(sys.M @ z, trans="H")) <= 1e-12


def test_real_shift_keeps_real_arithmetic(n8_sys, monkeypatch):
    # At s = 2 / tau every solve, and so every midpoint step, is one real
    # triangular solve on float64 vectors.
    shifted = make_stepper(n8_sys, 0.01)
    assert shifted.factor.lu.L.dtype == np.float64
    calls = []

    def recording(b, trans="N"):
        calls.append(np.asarray(b).dtype)
        return Factorization.solve(shifted.factor, b, trans)

    monkeypatch.setattr(shifted.factor, "solve", recording)
    x = np.random.default_rng(6).standard_normal(n8_sys.dof.total)
    for apply in (shifted.solve, shifted.solve_adjoint, shifted.cayley):
        calls.clear()
        out = apply(x)
        assert out.dtype == np.float64
        assert calls == [np.float64]


def test_midpoint_steps_match_full_system_lu(n8_sys):
    sys = n8_sys
    tau = 0.01
    x0 = np.random.default_rng(4).standard_normal(sys.dof.total)
    stepper = make_stepper(sys, tau)
    x = x0
    for _ in range(50):
        x = stepper.cayley(x)
    assert rel_diff(x, full_midpoint_steps(sys, tau, x0, 50)) <= 1e-12


@pytest.fixture(scope="module")
def default_eigenpairs(default_sys):
    """Every eigenpair (lambda, v) of A v = lambda M v at n=4 (N = 54), dense."""
    lam, V = scipy.linalg.eig(default_sys.A.toarray(), default_sys.M.toarray())
    assert lam.size == 54 and np.all(np.isfinite(lam))
    return lam, V


def assert_cayley_eigenpairs(cayley, s, eigenpairs):
    """cayley(v) = ((s + lambda) / (s - lambda)) v for every eigenpair."""
    lam, V = eigenpairs
    for k in range(lam.size):
        want = (s + lam[k]) / (s - lam[k]) * V[:, k]
        assert rel_diff(cayley(V[:, k]), want) <= 1e-10, (s, lam[k])


def test_midpoint_step_is_the_cayley_map_on_eigenpairs(default_sys, default_eigenpairs):
    # The midpoint rule maps each mode by its Cayley factor: a stepper with
    # the wrong shift, sign or factor misses it on some eigenpair.
    for tau in (0.01, 0.1):
        assert_cayley_eigenpairs(make_stepper(default_sys, tau).cayley, 2.0 / tau, default_eigenpairs)


@pytest.mark.parametrize("s", [13.5j, 3 - 5j], ids=["13.5j", "3-5j"])
def test_shifted_cayley_on_eigenpairs(default_sys, default_eigenpairs, s):
    assert_cayley_eigenpairs(ShiftedFactor(s, default_sys.kinematic).cayley, s, default_eigenpairs)


MESHES = pytest.mark.parametrize("config", [MeshConfig(n=4), MeshConfig(n=8), BRICK_CONFIG],
                                 ids=["n4", "n8", "brick"])


def assert_same_bytes(got, want):
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


@MESHES
def test_split_matches_shared_trace_composition(config):
    sys = build_system(build_mesh(config))
    M, A = shared_trace_pair(sys.dof, sys.M_f, sys.K_f, sys.M_G, sys.K_G, sys.M_s, sys.K_s)
    assert_same_bytes(sys.M, M)
    assert_same_bytes(sys.A, A)
    blocks, mismatches = extracted_split(sys.dof, sys.M, sys.A)
    for name, block in blocks.items():
        assert_same_bytes(getattr(sys.kinematic, name), block)
    assert mismatches == dict.fromkeys(mismatches, 0)


@pytest.mark.parametrize("name", ["rich_sys", "n8_sys"])
def test_solid_blocks_share_the_state_order(name, request):
    # The solid blocks run [interface, solid interior] like d: P is K_s plus
    # H1_G on its leading block with no stored zero, A places P as it is,
    # and the full solid fields are views of the state.
    sys = request.getfixturevalue(name)
    split, n_i, n_fi, n_v = sys.kinematic, sys.dof.n_i, sys.dof.n_fi, sys.dof.n_v
    P, K_s = split.P, sys.K_s
    assert P.nnz and np.all(P.data != 0)
    assert (P[:n_i, :n_i] != K_s[:n_i, :n_i] + sys.H1_G).count_nonzero() == 0
    assert (P[:n_i, n_i:] != K_s[:n_i, n_i:]).count_nonzero() == 0
    assert (P[n_i:] != K_s[n_i:]).count_nonzero() == 0
    lower = sys.A[n_v:, :n_v]
    assert lower[:, :n_fi].nnz == 0
    assert_same_bytes(lower[:, n_fi:], P)
    x = State.random(sys.dof, 0)
    assert np.shares_memory(x.w0_full, x.vec) and np.shares_memory(x.w1_full, x.vec)


def test_split_without_dissipation_keeps_kinematic_identities(default_sys):
    sys = mutant(default_sys.mesh, K_f=sp.csr_matrix(default_sys.K_f.shape))
    split = sys.kinematic
    assert split.K.count_nonzero() == 0
    _, mismatches = extracted_split(sys.dof, split.M, split.A)
    assert mismatches == dict.fromkeys(mismatches, 0)


@MESHES
def test_dissection_order_separates_every_bisection(config):
    sys = build_system(build_mesh(config))
    split = sys.kinematic
    n_v = split.n_v
    assert n_v == sys.dof.n_u + sys.dof.n_s
    assert np.array_equal(np.sort(split.order), np.arange(n_v))
    assert not np.array_equal(split.order, np.arange(n_v))
    pattern = (abs(split.M_VV) + abs(split.K) + abs(split.Q)).tocsr()
    coords = sys.mesh.vertices[np.concatenate([sys.dof.fluid_free, sys.dof.solid_interior])]
    stack, bisections = [np.arange(n_v)], 0
    while stack:
        idx = stack.pop()
        parts = coordinate_bisection(coords, idx) if idx.size > DISSECTION_LEAF else None
        if parts is None:
            continue
        lower, upper, separator = parts
        assert lower.size and upper.size and separator.size
        assert pattern[lower][:, upper].count_nonzero() == 0
        bisections += 1
        stack += [lower, upper]
    assert bisections > 0


def test_reduced_shifted_fill_below_full_system_fill(n8_sys):
    # Deterministic guard on the elimination and the order: SuperLU's fill
    # does not depend on timing.
    reduced = ShiftedFactor(200j, n8_sys.kinematic).factor.lu.nnz
    full = full_shifted_lu(200j, n8_sys).nnz
    assert reduced <= 0.7 * full


def mass_coupling_cut(mesh):
    """The system of ``mesh`` with only M_s's interface–interior blocks cut:
    K_s keeps them, so Q = E^T P E has entries outside M_VV's pattern."""
    sys = build_system(mesh)
    return mutant(mesh, M_s=cut_coupling(sys.M_s, sys.dof.n_i))


@pytest.mark.parametrize("system", [
    pytest.param(lambda: build_system(build_mesh(MeshConfig(n=4))), id="n4"),
    pytest.param(lambda: build_system(build_mesh(MeshConfig(n=8))), id="n8"),
    pytest.param(lambda: build_system(build_mesh(MeshConfig(n=16))), id="n16"),
    pytest.param(lambda: build_system(build_mesh(NON_CUBIC_CONFIG)), id="non-cubic"),
    pytest.param(lambda: mass_coupling_cut(build_mesh(MeshConfig(n=8))), id="n8-M_s-cut"),
])
def test_shifted_lu_factors_the_bytes_of_the_sparse_sum(monkeypatch, system):
    # A shift writes s M_VV, K and Q / s into the split's cached ordered
    # pattern; SuperLU must get the pattern and bytes of scipy's sum, ordered,
    # at the midpoint shift 2 / tau (tau = 0.01) and at s = i beta. On the
    # cut system a pattern taken from M_VV alone would put Q's extra entries
    # in wrong slots.
    split = system().kinematic
    handed = []
    splu = linalg.spla.splu

    def recording(A, **kwargs):
        handed.append(A)
        return splu(A, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", recording)
    for s in (2.0 / 0.01, 1j, 30j, 200j):
        ShiftedFactor(s, split)
        assert_same_bytes(handed.pop(), ordered_shifted_matrix(s, split))
    assert handed == []


def test_shift_pattern_is_the_union_of_the_three_patterns(n8_sys):
    # M_VV's pattern holds K's and Q's on the real system, not on the cut one.
    for sys, extra in ((n8_sys, False), (mass_coupling_cut(n8_sys.mesh), True)):
        split = sys.kinematic
        union = (abs(split.M_VV) + abs(split.K) + abs(split.Q)).nnz
        assert split.shifted(1.0).indices.size == union
        assert (union > split.M_VV.nnz) == extra
