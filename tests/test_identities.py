import itertools
import weakref

import numpy as np
import pytest

import mlfsi.assembly as assembly
import mlfsi.identities as identities
from mlfsi.assembly import State, build_system
from mlfsi.geometry import SOLID, MeshConfig, build_mesh
from mlfsi.identities import (
    MONITORS,
    DirichletMap,
    build_z,
    flux_chain_monitor,
    interface_flux,
    manufactured_field,
    manufactured_study,
    multiplier_residual,
    recover_flux_nodal,
)
from mlfsi.resolvent import probe_state, solve_static

import oracles
from conftest import NON_CUBIC_CONFIG, level_systems
from oracles import solid_face_owner_loop
from test_assembly import _traced_peak_mib


def test_cubic_hat_table_is_the_exact_triangle_integral():
    # int lam_i lam_j lam_k per unit area: summed over k (sum_k lam_k = 1) it
    # is the mass table, it is symmetric in i, j, k, and it reads 1/60, 1/30
    # or 1/10 as i, j, k are distinct, two equal or all equal.
    table = identities._TRI_CUBIC
    assert abs(table.sum(axis=2) - assembly._TRI_MASS).max() <= 1e-15
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(table.transpose(perm), table)
    exact = {3: 1 / 60, 2: 1 / 30, 1: 1 / 10}      # by the count of distinct indices
    assert all(table[ijk] == exact[len(set(ijk))] for ijk in np.ndindex(table.shape))


def solid_tet_dihedral_angles(mesh):
    """All dihedral angles (radians) of the solid tets."""
    angles = []
    faces = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    for tet, reg in zip(mesh.tets, mesh.tet_regions):
        if reg != SOLID:
            continue
        p = mesh.vertices[tet]
        centroid = p.mean(axis=0)
        normals = []
        for f in faces:
            a, b, c = p[list(f)]
            n = np.cross(b - a, c - a)
            n /= np.linalg.norm(n)
            if np.dot(n, a - centroid) < 0:
                n = -n                      # outward
            normals.append(n)
        for i in range(4):
            for j in range(i + 1, 4):
                cosang = -np.dot(normals[i], normals[j])
                angles.append(np.arccos(np.clip(cosang, -1, 1)))
    return np.array(angles)


def test_mesh_angle_audit(default_mesh):
    # The hex split produces path tets whose dihedral angles never exceed 90
    # degrees, which is what licenses the discrete maximum principle below.
    angles = solid_tet_dihedral_angles(default_mesh)
    assert angles.size > 0
    assert np.max(angles) <= np.pi / 2 + 1e-12


def test_extend_constants(default_sys):
    dmap = DirichletMap(default_sys)
    g = np.ones(default_sys.dof.n_i)
    e = dmap.extend(g)
    assert np.allclose(e, 1.0, atol=1e-13)


def test_extend_reproduces_linear_fields(default_sys):
    sys = default_sys
    dmap = DirichletMap(sys)
    coords = sys.mesh.vertices[sys.dof.solid_all]
    for axis in range(3):
        lin = coords[:, axis].copy()
        g = lin[: sys.dof.n_i]
        e = dmap.extend(g)
        assert np.allclose(e, lin, atol=1e-12)


def test_extend_maximum_principle(default_sys, rng):
    dmap = DirichletMap(default_sys)
    for _ in range(20):
        g = rng.standard_normal(default_sys.dof.n_i)
        e = dmap.extend(g)
        assert e.min() >= g.min() - 1e-12
        assert e.max() <= g.max() + 1e-12


def test_neumann_constant_is_zero(default_sys):
    dmap = DirichletMap(default_sys)
    f = dmap.neumann(np.ones(default_sys.dof.n_i))
    assert np.max(np.abs(f)) < 1e-13


def test_neumann_symmetry(default_sys, rng):
    dmap = DirichletMap(default_sys)
    for _ in range(10):
        g1 = rng.standard_normal(default_sys.dof.n_i)
        g2 = rng.standard_normal(default_sys.dof.n_i)
        assert g2 @ dmap.neumann(g1) == pytest.approx(g1 @ dmap.neumann(g2), rel=1e-11, abs=1e-12)


def test_neumann_matches_dense_schur(default_sys):
    sys = default_sys
    dmap = DirichletMap(sys)
    n_i = sys.dof.n_i
    K = sys.K_s.toarray()
    schur = K[:n_i, :n_i] - K[:n_i, n_i:] @ np.linalg.solve(K[n_i:, n_i:], K[n_i:, :n_i])
    got = np.column_stack([dmap.neumann(col) for col in np.eye(n_i)])
    assert np.max(np.abs(got - schur)) <= 1e-12 * np.max(np.abs(schur))


def test_neumann_psd_kernel_constants(default_sys):
    sys = default_sys
    dmap = DirichletMap(sys)
    n_i = sys.dof.n_i
    S = np.column_stack([dmap.neumann(col) for col in np.eye(n_i)])
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    assert w[0] > -1e-12
    assert abs(w[0]) < 1e-12
    v0 = V[:, 0]
    assert np.allclose(v0, v0.mean(), atol=1e-8)
    assert w[1] > 1e-8


def test_empty_interior_extends_by_the_data(tiny_sys, rng):
    # The tiny mesh has no solid-interior vertex: the empty interior block
    # factors like any other, so E g = g and the flux is K_s g.
    assert tiny_sys.dof.n_s == 0
    dmap = DirichletMap(tiny_sys)
    g = rng.standard_normal(tiny_sys.dof.n_i)
    assert np.array_equal(dmap.extend(g), g)
    assert np.array_equal(dmap.neumann(g), tiny_sys.K_s @ g)


def test_h1_ratio_monitor(default_sys, rng):
    dmap = DirichletMap(default_sys)
    vals = [
        dmap.h1_ratio(rng.standard_normal(default_sys.dof.n_i), default_sys)
        for _ in range(5)
    ]
    assert all(np.isfinite(v) and v > 0 for v in vals)


def z_and_load(x, b, beta, sys):
    """`build_z` given the one Dirichlet extension, as `flux_chain_monitor` calls it."""
    return build_z(x, b, beta, sys, sys.dirichlet_map.extend(x.trace_u + b.h0))


def test_build_z_zero_data(default_sys):
    b = State.zeros(default_sys.dof)
    x = solve_static(3.0, b, default_sys)
    z, load = z_and_load(x, b, 3.0, default_sys)
    assert np.all(z == 0) and np.all(load == 0)


def test_build_z_boundary_vanishes(default_sys):
    sys = default_sys
    b = probe_state(sys, 17)
    x = solve_static(3.0, b, sys)
    z, _ = z_and_load(x, b, 3.0, sys)
    assert flux_chain_monitor(x, b, 3.0, sys)["z_boundary"] == 0.0
    assert np.max(np.abs(z[: sys.dof.n_i])) == 0.0


def test_build_z_requires_beta_at_least_one(default_sys):
    b = probe_state(default_sys, 17)
    x = solve_static(1.0, b, default_sys)
    with pytest.raises(ValueError):
        z_and_load(x, b, 0.25, default_sys)


def test_build_z_interior_matches_dense_composition(tiny_sys, rich_sys):
    for sys in (tiny_sys, rich_sys):
        if sys.dof.n_s == 0:
            continue
        beta = 3.0
        b = probe_state(sys, 8)
        x = solve_static(beta, b, sys)
        z, _ = z_and_load(x, b, beta, sys)
        n_i = sys.dof.n_i
        K = sys.K_s.toarray()
        g = x.trace_u + b.h0
        ext_int = -np.linalg.solve(K[n_i:, n_i:], K[n_i:, :n_i] @ g)
        ref = x.w0_full[n_i:] + (1j / beta) * ext_int
        assert np.max(np.abs(z[n_i:] - ref)) <= 1e-11 * max(np.max(np.abs(ref)), 1e-30)


def test_multiplier_zero_field(default_sys):
    z = np.zeros(default_sys.dof.n_s + default_sys.dof.n_i, dtype=complex)
    f = np.zeros_like(z)
    reports = multiplier_residual(z, f, 2.0, default_sys)
    assert sorted(reports) == ["radial", "unit_div"]
    for rep in reports.values():
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0


def test_manufactured_study_needs_two_levels():
    with pytest.raises(ValueError, match="the order fit needs at least 2 refinement levels, got 1"):
        manufactured_study(level_systems((4,)), beta=2.0)


def test_manufactured_study_needs_an_interior_vertex():
    # At n = 4 a cube one cell wide has no interior vertex: its field is sin(pi) rounding.
    levels = (MeshConfig(inner_hi=(0.5, 0.5, 0.5), n=n) for n in (4, 8))
    with pytest.raises(ValueError, match="level n = 4: the cube has no interior vertex"):
        manufactured_study((build_system(build_mesh(c)) for c in levels), beta=2.0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_blockwise_tet_gradients_match_one_whole_table_call():
    # n = 24 has 10368 solid tets: two full blocks and a shorter third.
    # Every output row is one tet's, so the blocks give one call's bits.
    sys = build_system(build_mesh(MeshConfig(n=24)))
    tet = sys.solid_table
    assert tet.local.shape[0] // identities._BLOCK_TETS == 2
    assert tet.local.shape[0] % identities._BLOCK_TETS
    rng = np.random.default_rng(0)
    n = sys.dof.n_i + sys.dof.n_s
    zv = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    grad_z, c_tet = identities._tet_gradients(tet, zv)
    ref_grad = np.einsum("tv,tvd->td", zv[tet.local], tet.grads)
    ref_c = np.einsum("tvd,td->tv", tet.coords, ref_grad.conj())
    assert np.array_equal(_bits(grad_z), _bits(ref_grad))
    assert np.array_equal(_bits(c_tet), _bits(ref_c))


def test_multiplier_residual_holds_no_whole_table_gathers():
    # Tables, owners and the M_G LU built by a first call, the n = 32 pass
    # gathers gradients and coordinates a block at a time and frees grad_z
    # before term_d. Measured 6.7 MiB; whole-table gathers read 8.3.
    sys = build_system(build_mesh(MeshConfig(n=32)))
    z, f = manufactured_field(sys.mesh, sys.dof, 2.0)
    multiplier_residual(z, f, 2.0, sys)
    assert _traced_peak_mib(lambda: multiplier_residual(z, f, 2.0, sys)) <= 7.6


def test_manufactured_residuals_converge():
    rows, orders = manufactured_study(level_systems((4, 8, 16)), beta=2.0)
    res_div = [r["unit_div"].residual for r in rows]
    res_rad = [r["radial"].residual for r in rows]
    assert res_div[0] > res_div[1] > res_div[2]
    assert res_rad[0] > res_rad[1] > res_rad[2]
    assert orders["unit_div"] >= 1.0
    assert orders["radial"] >= 0.5


def test_manufactured_study_never_assembles_fluid(monkeypatch):
    # Each element kernel runs once per refinement level: the tet kernel on
    # the solid tets only, the triangle kernel on the interface triangles.
    calls = []
    for name in ("_tet_kernel", "_tri_kernel"):
        def recording(vertices, simplices, name=name, kernel=getattr(assembly, name)):
            calls.append((name, simplices.shape[0]))
            return kernel(vertices, simplices)

        monkeypatch.setattr(assembly, name, recording)
    manufactured_study(level_systems((4, 8)), beta=2.0)
    expected = []
    for n in (4, 8):
        mesh = build_mesh(MeshConfig(n=n))
        expected += [("_tet_kernel", int(np.sum(mesh.tet_regions == SOLID))),
                     ("_tri_kernel", mesh.interface_tris().shape[0])]
    assert calls == expected


def test_manufactured_study_holds_one_level_at_a_time():
    # Each level's system is gone before the next level's mesh is built.
    refs, alive = [], []

    def mesh_of(n):
        mesh = build_mesh(MeshConfig(n=n))
        alive.append([ref() is not None for ref in refs])
        return mesh

    def system_of(mesh):
        sys = build_system(mesh)
        refs.append(weakref.ref(sys))
        return sys

    manufactured_study((system_of(mesh_of(n)) for n in (4, 8, 12)), beta=2.0)
    assert alive == [[], [False], [False, False]]


@pytest.mark.parametrize("config", [MeshConfig(n=4), MeshConfig(n=8), MeshConfig(n=12),
                                    NON_CUBIC_CONFIG], ids=["4", "8", "12", "non-cubic"])
def test_interface_tet_adjacency_matches_dict_loop(config):
    mesh = build_mesh(config)
    got = build_system(mesh).interface_owner
    assert np.array_equal(got, solid_face_owner_loop(mesh))


@pytest.mark.parametrize("tri", [[0, 1, 4], [1, 2, 3]], ids=["no-face", "shared-face"])
def test_face_owner_needs_exactly_one_tet(tri):
    # (0, 1, 4) bounds neither tet; (1, 2, 3) is the face both tets share,
    # as (0, 1, n_i + n_s - 1) is for solid tets 4 and 5 at n=4.
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    with pytest.raises(ValueError, match="exactly one"):
        assembly._face_owner(tets, np.array([tri]), 5)


def test_unit_div_identity_equals_weak_form_residual():
    # With unit divergence the identity reduces to the equation's weak form
    # tested with the field itself; recompute that residual through the
    # independent quadrature-assembled matrices and compare.
    from oracles import dense_volume_matrices

    mesh = build_mesh(MeshConfig(n=4))
    sys = build_system(mesh)
    beta = 2.0
    zv, fv = manufactured_field(mesh, sys.dof, beta)
    rep = multiplier_residual(zv, fv, beta, sys)["unit_div"]

    Md, Kd = dense_volume_matrices(mesh, SOLID)
    sel = sys.dof.solid_all
    Md, Kd = Md[np.ix_(sel, sel)], Kd[np.ix_(sel, sel)]
    weak = (zv @ (Kd @ zv) - beta**2 * zv @ (Md @ zv)) - zv @ (Md @ fv)
    assert rep.residual == pytest.approx(abs(weak), rel=1e-10)


def test_manufactured_field_vanishes_on_boundary():
    mesh = build_mesh(MeshConfig(n=4))
    sys = build_system(mesh)
    z, f = manufactured_field(mesh, sys.dof, 2.0)
    assert np.max(np.abs(z[: sys.dof.n_i])) < 1e-14
    assert f.shape == z.shape


def test_flux_chain_zero_data_degenerate(default_sys):
    b = State.zeros(default_sys.dof)
    x = solve_static(2.0, b, default_sys)
    rec = flux_chain_monitor(x, b, 2.0, default_sys)
    assert rec == dict.fromkeys(MONITORS, 0.0)


def test_flux_chain_requires_beta_at_least_one(default_sys):
    b = probe_state(default_sys, 2)
    x = solve_static(1.0, b, default_sys)
    with pytest.raises(ValueError):
        flux_chain_monitor(x, b, 0.5, default_sys)


def test_flux_chain_matches_dense_recomputation(rich_sys):
    sys = rich_sys
    beta = 3.0
    b = probe_state(sys, 9)
    x = solve_static(beta, b, sys)
    rec = flux_chain_monitor(x, b, beta, sys)

    # Dense recomputation of r_crux and r_s3 from scratch.
    n_i = sys.dof.n_i
    Ks, Ms = sys.K_s.toarray(), sys.M_s.toarray()
    Mg = sys.M_G.toarray()
    g = x.trace_u + b.h0
    ext = np.concatenate([g, -np.linalg.solve(Ks[n_i:, n_i:], Ks[n_i:, :n_i] @ g)])
    z = x.w0_full + (1j / beta) * ext
    z[:n_i] = x.h0 + (1j / beta) * g
    fz = -1j * beta * ext + b.w1_full + 1j * beta * b.w0_full
    r = Ks @ z - Ms @ (beta**2 * z + fz)
    lam = np.linalg.solve(Mg, -r[:n_i])
    flux_l2 = np.sqrt(np.vdot(lam, Mg @ lam).real)
    grad_u = np.sqrt(np.vdot(x.u, sys.K_f @ x.u).real)
    bnorm = np.sqrt(np.vdot(b.vec, sys.M @ b.vec).real)
    denom = beta**2.75 * grad_u + beta**3 * bnorm
    assert rec["r_crux"] == pytest.approx(flux_l2 / denom, rel=1e-9)
    zh1 = np.sqrt(np.vdot(z, (Ks + Ms) @ z).real)
    zb = beta * np.sqrt(np.vdot(z, Ms @ z).real)
    assert rec["r_s3"] == pytest.approx((zh1 + zb + flux_l2) / denom, rel=1e-9)
    assert np.isfinite(rec["r_I1"]) and rec["r_I1"] >= 0
    assert np.isfinite(rec["dtn_norm"]) and rec["dtn_norm"] > 0


def test_interface_flux_functional_of_linear_field(default_sys):
    # For w = x (harmonic, zero load, beta = 0) the nu-flux is +1 on the x-lo
    # face (nu = +e_x there), -1 on the x-hi face, 0 on the lateral faces.
    # The variational flux functional is exact: component i equals the hat
    # integral with that sign for vertices strictly inside a face, and the
    # closed-surface total cancels.
    sys = default_sys
    coords = sys.mesh.vertices[sys.dof.solid_all]
    w = coords[:, 0].astype(complex)
    f = interface_flux(w, np.zeros_like(w), 0.0, sys).real
    hat_integrals = np.asarray(sys.M_G @ np.ones(sys.dof.n_i))
    iface_coords = coords[: sys.dof.n_i]
    lo, hi = 0.25, 0.75
    on_lo = np.abs(iface_coords[:, 0] - lo) < 1e-12
    on_hi = np.abs(iface_coords[:, 0] - hi) < 1e-12
    edge = (
        (np.abs(iface_coords[:, 1] - lo) < 1e-12) | (np.abs(iface_coords[:, 1] - hi) < 1e-12)
        | (np.abs(iface_coords[:, 2] - lo) < 1e-12) | (np.abs(iface_coords[:, 2] - hi) < 1e-12)
    )
    assert np.allclose(f[on_lo & ~edge], hat_integrals[on_lo & ~edge], atol=1e-13)
    assert np.allclose(f[on_hi & ~edge], -hat_integrals[on_hi & ~edge], atol=1e-13)
    assert abs(f.sum()) < 1e-12
    # Nodal recovery is still well defined (globally coupled mass solve).
    lam = recover_flux_nodal(f, sys)
    assert np.all(np.isfinite(lam))


def test_z_equation_load_formula(default_sys):
    sys = default_sys
    beta = 2.0
    b = probe_state(sys, 10)
    x = solve_static(beta, b, sys)
    _, fz = z_and_load(x, b, beta, sys)
    g = x.trace_u + b.h0
    ref = -1j * beta * DirichletMap(sys).extend(g) + b.w1_full + 1j * beta * b.w0_full
    assert np.allclose(fz, ref)


@pytest.mark.parametrize("name", ["rich_sys", "default_sys"])
def test_monitor_matches_standalone_ratios_bitwise(name, request):
    # One pass shares |grad u| and |b|_H among the fluid-side ratios, and one
    # Dirichlet extension between z and the Neumann map; each value keeps
    # the bits of the function that once computed it alone.
    sys = request.getfixturevalue(name)
    b = probe_state(sys, 2)
    for beta in (1.0, 13.5, 200.0):
        x = solve_static(beta, b, sys)
        got = flux_chain_monitor(x, b, beta, sys)
        assert tuple(got) == MONITORS
        for key in ("poincare_ratio", "trace_ratio", "flux_ratio", "dtn_norm"):
            assert got[key] == getattr(oracles, key)(beta, b, x, sys), (key, beta)
