import numpy as np
import pytest
import scipy.linalg

from mlfsi.assembly import (
    State,
    assemble_surface,
    assemble_volume,
    build_dofmap,
    energy_norm,
    graph_norm,
)
from mlfsi.geometry import FLUID, GAMMA_F, GAMMA_TAGS, SOLID, Mesh, MeshConfig, build_mesh

from oracles import DenseWeakForm, dense_gram_extreme_eigs, tet_element_quadrature


def one_tet_mesh():
    vertices = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    tets = np.array([[0, 1, 2, 3]])
    return Mesh(
        vertices, tets, np.array([SOLID], dtype=np.int8),
        np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int8), np.empty((0, 3)),
    )


def test_mass_partition_of_unity(default_mesh):
    for region, vol in ((FLUID, 0.875), (SOLID, 0.125)):
        M, K = assemble_volume(default_mesh, region)
        ones = np.ones(default_mesh.vertices.shape[0])
        assert ones @ (M @ ones) == pytest.approx(vol, rel=1e-12)
        assert np.max(np.abs(K @ ones)) < 1e-13


def test_reference_tet_mass_pattern():
    mesh = one_tet_mesh()
    M, K = assemble_volume(mesh, SOLID)
    Md = M.toarray()
    vol = 1.0 / 6.0
    expected = (vol / 20.0) * (np.ones((4, 4)) + np.eye(4))
    assert np.allclose(Md, expected, atol=1e-15)
    me, ke = tet_element_quadrature(mesh.vertices)
    assert np.allclose(Md, me, atol=1e-15)
    assert np.allclose(K.toarray(), ke, atol=1e-14)


def test_empty_region_errors():
    mesh = one_tet_mesh()
    with pytest.raises(ValueError):
        assemble_volume(mesh, FLUID)


def test_surface_mass_total_area(default_mesh):
    Mg, Kg = assemble_surface(default_mesh)
    ones = np.ones(default_mesh.vertices.shape[0])
    assert ones @ (Mg @ ones) == pytest.approx(1.5, rel=1e-12)
    assert np.max(np.abs(Kg @ ones)) < 1e-13


def test_surface_spectrum_stabilizes_under_refinement():
    lams = {}
    for n in (8, 16):
        mesh = build_mesh(MeshConfig(n=n))
        dof = build_dofmap(mesh)
        Mg, Kg = assemble_surface(mesh)
        sel = dof.interface
        K = Kg[sel][:, sel].toarray()
        M = Mg[sel][:, sel].toarray()
        w = scipy.linalg.eigh(K, M, eigvals_only=True)
        assert w[0] == pytest.approx(0.0, abs=1e-10)
        lams[n] = w[1]
    assert abs(lams[16] - lams[8]) / lams[16] < 0.02


def test_dofmap_partitions(default_mesh):
    dof = build_dofmap(default_mesh)
    outer = np.unique(default_mesh.tris[default_mesh.tri_tags == GAMMA_F])
    # No unknown sits on the outer boundary.
    for arr in (dof.fluid_interior, dof.interface, dof.solid_interior):
        assert np.intersect1d(arr, outer).size == 0
    # Interface list is exactly the cube surface vertices.
    iface = np.unique(default_mesh.tris[default_mesh.tri_tags != GAMMA_F])
    assert np.array_equal(np.sort(dof.interface), iface)
    # Edge and corner vertices appear in every face list containing them.
    counts = {}
    for tag in GAMMA_TAGS:
        verts = np.unique(default_mesh.tris[default_mesh.tri_tags == tag])
        for v in verts:
            counts[v] = counts.get(v, 0) + 1
    assert set(counts) == set(iface.tolist())
    assert max(counts.values()) == 3      # cube corners
    assert sorted(set(counts.values())) == [1, 2, 3]


def test_dofmap_needs_interface(default_mesh):
    stripped = Mesh(
        default_mesh.vertices, default_mesh.tets, default_mesh.tet_regions,
        default_mesh.tris[default_mesh.tri_tags == GAMMA_F],
        default_mesh.tri_tags[default_mesh.tri_tags == GAMMA_F],
        default_mesh.tri_normals[default_mesh.tri_tags == GAMMA_F],
    )
    with pytest.raises(ValueError):
        build_dofmap(stripped)


def test_generator_dissipation_identity(default_sys, rng):
    sys = default_sys
    for _ in range(100):
        x = rng.standard_normal(sys.dof.total) + 1j * rng.standard_normal(sys.dof.total)
        lhs = np.vdot(x, sys.A @ x).real
        rhs = -np.vdot(x[: sys.dof.n_u], sys.K_f @ x[: sys.dof.n_u]).real
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_generator_zero_state(default_sys):
    z = np.zeros(default_sys.dof.total)
    assert np.all(default_sys.A @ z == 0)


def test_composite_matches_dense_weak_form_oracle(tiny_mesh, tiny_sys):
    oracle = DenseWeakForm(tiny_mesh, tiny_sys.dof)
    G = oracle.gram()
    A = oracle.generator()
    scale = np.max(np.abs(G))
    assert np.max(np.abs(tiny_sys.M.toarray() - G)) <= 1e-12 * scale
    scale_a = np.max(np.abs(A))
    assert np.max(np.abs(tiny_sys.A.toarray() - A)) <= 1e-12 * scale_a


def test_composite_matches_oracle_on_rich_mesh(rich_mesh, rich_sys, rng):
    oracle = DenseWeakForm(rich_mesh, rich_sys.dof)
    for _ in range(10):
        x = rng.standard_normal(rich_sys.dof.total)
        y = rng.standard_normal(rich_sys.dof.total)
        assert x @ (rich_sys.M @ y) == pytest.approx(
            oracle.energy_product(x, y).real, rel=1e-12, abs=1e-13
        )
        ax = rich_sys.A @ x
        ax_oracle = oracle.generator_rhs(x).real
        assert np.max(np.abs(ax - ax_oracle)) <= 1e-12 * max(np.max(np.abs(ax_oracle)), 1.0)


def test_energy_norm_examples(default_sys):
    sys = default_sys
    zero = State.zeros(sys.dof)
    assert energy_norm(zero, sys) == 0.0
    # Uniform displacement: only the surface mass term survives.
    c = 0.7
    x = State.zeros(sys.dof)
    x.vec[sys.dof.slice_h0] = c
    x.vec[sys.dof.slice_w0] = c
    assert energy_norm(x, sys) ** 2 == pytest.approx(1.5 * c * c, rel=1e-12)


def test_energy_norm_matches_dense_gram(default_sys, rng):
    sys = default_sys
    Gd = sys.M.toarray()
    for _ in range(5):
        x = State(sys.dof, rng.standard_normal(sys.dof.total))
        ref = np.sqrt(x.vec @ (Gd @ x.vec))
        assert energy_norm(x, sys) == pytest.approx(ref, rel=1e-12)


def test_graph_norm_examples(default_sys, rng):
    sys = default_sys
    assert graph_norm(State.zeros(sys.dof), sys) == 0.0
    Gd = sys.M.toarray()
    Ad = sys.A.toarray()
    x = State(sys.dof, rng.standard_normal(sys.dof.total))
    y = np.linalg.solve(Gd, Ad @ x.vec)
    ref = np.sqrt(x.vec @ (Gd @ x.vec)) + np.sqrt(y @ (Gd @ y))
    assert graph_norm(x, sys) == pytest.approx(ref, rel=1e-10)


def test_mass_symmetric_and_spd(default_sys, tiny_sys):
    for sys in (default_sys, tiny_sys):
        assert abs(sys.M - sys.M.T).max() == 0.0
        lo, hi = dense_gram_extreme_eigs(sys)
        assert lo > 0


def test_generator_skew_up_to_dissipation(default_sys, rng):
    # The symmetric part of A is exactly the fluid dissipation block:
    # x^H (A + A^T) y = -2 u_x^H K_f u_y for all complex pairs.
    sys = default_sys
    n_u = sys.dof.n_u
    At = sys.A.T.tocsr()
    for _ in range(20):
        x = rng.standard_normal(sys.dof.total) + 1j * rng.standard_normal(sys.dof.total)
        y = rng.standard_normal(sys.dof.total) + 1j * rng.standard_normal(sys.dof.total)
        lhs = np.vdot(x, sys.A @ y) + np.vdot(x, At @ y)
        rhs = -2.0 * np.vdot(x[:n_u], sys.K_f @ y[:n_u])
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_rigid_state_image(default_sys):
    # Uniform displacement state: the only force is the surface mass term
    # acting on the momentum row; kinematic and interior rows vanish.
    sys = default_sys
    c = 1.3
    x = State.zeros(sys.dof)
    x.vec[sys.dof.slice_h0] = c
    x.vec[sys.dof.slice_w0] = c
    ax = sys.A @ x.vec
    n_fi, n_u = sys.dof.n_fi, sys.dof.n_u
    expected_u = np.zeros(n_u)
    expected_u[n_fi:] = -c * (sys.M_G @ np.ones(sys.dof.n_i))
    assert np.allclose(ax[:n_u], expected_u, atol=1e-13)
    assert np.linalg.norm(ax[n_u:]) < 1e-13
    assert np.linalg.norm(expected_u) > 0


def test_state_views(default_sys, rng):
    sys = default_sys
    x = State(sys.dof, rng.standard_normal(sys.dof.total))
    assert np.array_equal(x.w0_full[: sys.dof.n_s], x.w0_int)
    assert np.array_equal(x.w0_full[sys.dof.n_s:], x.h0)
    assert np.array_equal(x.w1_full[sys.dof.n_s:], x.trace_u)
    assert x.u.size == sys.dof.n_u

