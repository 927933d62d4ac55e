import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import mlfsi.assembly as assembly
from mlfsi.assembly import (
    ElementTable,
    KinematicSplit,
    State,
    SurfaceSpectral,
    _tet_kernel,
    build_dofmap,
    build_system,
    energy_norm,
)
from mlfsi.geometry import FLUID, GAMMA_F, GAMMA_TAGS, SOLID, Mesh, MeshConfig, build_mesh
from mlfsi.resolvent import ShiftedFactor

from conftest import NON_CUBIC_CONFIG, RICH_CONFIG
from oracles import (
    DenseWeakForm,
    coo_scatter,
    dense_gram_extreme_eigs,
    element_table_per_element,
    max_solid_edge,
    ordered_shifted_matrix,
    prolongation,
    state_prolongation,
    tet_element_quadrature,
    tet_kernel_per_tet,
)


def one_tet_mesh():
    vertices = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    tets = np.array([[0, 1, 2, 3]])
    return Mesh(
        vertices, tets, np.array([SOLID], dtype=np.int8),
        np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int8), np.empty((0, 3)),
    )


def vertex_indexed(mesh, simplices):
    """Mass and stiffness of ``simplices`` indexed by mesh vertex: a table on every vertex."""
    table = ElementTable(mesh.vertices, simplices, np.arange(mesh.vertices.shape[0]))
    return table.M, table.K


def region_tets(mesh, region):
    return mesh.tets[mesh.tet_regions == region]


def test_mass_partition_of_unity(default_mesh):
    for region, vol in ((FLUID, 0.875), (SOLID, 0.125)):
        M, K = vertex_indexed(default_mesh, region_tets(default_mesh, region))
        ones = np.ones(default_mesh.vertices.shape[0])
        assert ones @ (M @ ones) == pytest.approx(vol, rel=1e-12)
        assert np.max(np.abs(K @ ones)) < 1e-13


def test_reference_tet_mass_pattern():
    mesh = one_tet_mesh()
    M, K = vertex_indexed(mesh, region_tets(mesh, SOLID))
    Md = M.toarray()
    vol = 1.0 / 6.0
    expected = (vol / 20.0) * (np.ones((4, 4)) + np.eye(4))
    assert np.allclose(Md, expected, atol=1e-15)
    me, ke = tet_element_quadrature(mesh.vertices)
    assert np.allclose(Md, me, atol=1e-15)
    assert np.allclose(K.toarray(), ke, atol=1e-14)


def _mesh_coords(config, region=None):
    mesh = build_mesh(config)
    tets = mesh.tets if region is None else region_tets(mesh, region)
    return mesh.vertices[tets]


def _signed_zero_pair():
    """Two tets whose edge matrices differ only in the sign of one zero."""
    p = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 2, 0], [0.0, 0, 4]])
    q = p.copy()
    q[1, 1] = -0.0
    return np.stack([p, q])


@pytest.mark.parametrize("coords, shapes", [
    (lambda: _mesh_coords(MeshConfig(n=24), SOLID), 162),
    (lambda: _mesh_coords(NON_CUBIC_CONFIG), 6),
    (lambda: np.random.default_rng(7).standard_normal((40, 4, 3)), 40),
    (_signed_zero_pair, 2),
], ids=["n24-solid", "non-cubic", "random", "signed-zero"])
def test_tet_kernel_matches_per_tet_lapack_bit_for_bit(coords, shapes):
    # The kernel factors once per distinct edge matrix, keyed on its bits,
    # and each tet reads the row of its shape.
    p = coords()
    edges = (p[:, 1:] - p[:, :1]).reshape(len(p), -1).view(np.uint64)
    assert len(np.unique(edges, axis=0)) == shapes
    vol, grads, shape = _tet_kernel(p.reshape(-1, 3), np.arange(p.shape[0] * 4).reshape(-1, 4))
    assert len(vol) == len(grads) == shapes
    want_vol, want_grads, _ = tet_kernel_per_tet(p)
    for got, want in ((vol[shape], want_vol), (grads[shape], want_grads)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _region_table_args(config, region):
    """ElementTable arguments of one region: its simplices and its block."""
    mesh = build_mesh(config)
    dof = build_dofmap(mesh)
    if region == "surface":
        return mesh.vertices, mesh.interface_tris(), dof.interface
    block = dof.solid_all if region == SOLID else dof.fluid_free
    return mesh.vertices, region_tets(mesh, region), block


def _same_bits(got, want):
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("config, region", [
    (MeshConfig(n=24), SOLID),
    (MeshConfig(n=24), FLUID),
    (MeshConfig(n=8), FLUID),
    (NON_CUBIC_CONFIG, SOLID),
    (NON_CUBIC_CONFIG, FLUID),
    (NON_CUBIC_CONFIG, "surface"),
], ids=["n24-solid", "n24-fluid", "n8-fluid", "non-cubic-solid", "non-cubic-fluid",
        "non-cubic-surface"])
def test_element_table_matches_per_element_oracle_bit_for_bit(config, region):
    # Mass and stiffness are formed once per shape and scattered through each
    # entry's index into the per-shape tables: the same bits as forming them
    # element by element. The n24 fluid tets have 1296 shapes and -1 entries.
    args = _region_table_args(config, region)
    table = ElementTable(*args)
    measure, grads, mass, M, K = element_table_per_element(*args)
    assert all(len(a) == table.shape.max() + 1 for a in (table.measure, table.grads, table.mass))
    for got, want in ((table.measure, measure), (table.grads, grads), (table.mass, mass)):
        assert _same_bits(got[table.shape], want)
    for got, want in ((table.M, M), (table.K, K)):
        assert all(_same_bits(getattr(got, a), getattr(want, a))
                   for a in ("data", "indices", "indptr"))


def _assert_scatter_matches_coo_tocsr(table):
    # One bucket-and-sort of the entry indices, then each slot's duplicates
    # added left to right: the indptr, indices and data bytes of scipy's
    # COO to CSR conversion of the per-element matrices.
    measure, grads = table.measure[table.shape], table.grads[table.shape]
    stiff = np.einsum("tid,tjd,t->tij", grads, grads, measure)
    want = coo_scatter(table.local, table.M.shape[0], (table.mass[table.shape], stiff))
    for got, ref in zip((table.M, table.K), want):
        assert all(_same_bits(getattr(got, a), getattr(ref, a))
                   for a in ("indptr", "indices", "data"))


@pytest.mark.parametrize("region", [SOLID, FLUID, "surface"], ids=["solid", "fluid", "surface"])
@pytest.mark.parametrize("config", [MeshConfig(n=4), MeshConfig(n=8), MeshConfig(n=16),
                                    NON_CUBIC_CONFIG], ids=["n4", "n8", "n16", "non-cubic"])
def test_element_table_scatter_matches_coo_tocsr_bytes(config, region):
    # The fluid tables drop the -1 entries of the outer boundary.
    _assert_scatter_matches_coo_tocsr(ElementTable(*_region_table_args(config, region)))


@pytest.mark.parametrize("drop_first", [False, True], ids=["all", "drop-first"])
@pytest.mark.parametrize("coords", [
    lambda: np.random.default_rng(7).standard_normal((40, 4, 3)), _signed_zero_pair,
], ids=["random", "signed-zero"])
def test_coordinate_table_scatter_matches_coo_tocsr_bytes(coords, drop_first):
    # One vertex per distinct coordinate triple, by its bytes: the signed-zero
    # pair shares three corners. Without vertex 0 the table drops -1 entries.
    p = coords()
    vertices, tets = np.unique(p.reshape(-1, 3).view(np.dtype((np.void, 24))).ravel(),
                               return_inverse=True)
    vertices = vertices.view(np.float64).reshape(-1, 3)
    block = np.arange(int(drop_first), len(vertices))
    _assert_scatter_matches_coo_tocsr(ElementTable(vertices, tets.reshape(-1, 4), block))


@pytest.mark.parametrize("config", [
    MeshConfig(n=4), MeshConfig(n=12), MeshConfig(n=24), NON_CUBIC_CONFIG, RICH_CONFIG,
], ids=["n4", "n12", "n24", "non-cubic", "rich"])
def test_mesh_h_is_the_longest_solid_edge_bit_for_bit(config):
    mesh = build_mesh(config)
    assert build_system(mesh).mesh_h == max_solid_edge(mesh)


def test_empty_region_errors():
    mesh = one_tet_mesh()
    with pytest.raises(ValueError):
        vertex_indexed(mesh, region_tets(mesh, FLUID))


def test_surface_mass_total_area(default_mesh):
    Mg, Kg = vertex_indexed(default_mesh, default_mesh.interface_tris())
    ones = np.ones(default_mesh.vertices.shape[0])
    assert ones @ (Mg @ ones) == pytest.approx(1.5, rel=1e-12)
    assert np.max(np.abs(Kg @ ones)) < 1e-13


def test_surface_spectrum_stabilizes_under_refinement():
    lams = {}
    for n in (8, 16):
        mesh = build_mesh(MeshConfig(n=n))
        dof = build_dofmap(mesh)
        Mg, Kg = vertex_indexed(mesh, mesh.interface_tris())
        sel = dof.interface
        K = Kg[sel][:, sel].toarray()
        M = Mg[sel][:, sel].toarray()
        w = scipy.linalg.eigh(K, M, eigvals_only=True)
        assert w[0] == pytest.approx(0.0, abs=1e-10)
        lams[n] = w[1]
    assert abs(lams[16] - lams[8]) / lams[16] < 0.02


# Each block with the DOF class that indexes it.
CROSS_LEVEL_BLOCKS = {"M_f": "fluid_free", "K_f": "fluid_free", "M_s": "solid_all",
                      "K_s": "solid_all", "M_G": "interface", "K_G": "interface"}
CROSS_LEVEL_BOUND = 1e-13


def cross_level_misfit(coarse, fine):
    """max |I^T X_fine I - X_coarse| / max |X_coarse| per block X, with I the
    prolongation of the block's DOF class from the coarse mesh to the fine,
    and for the composite M and A, with I the state prolongation."""
    prolongations = {name: prolongation(coarse.mesh, fine.mesh, getattr(coarse.dof, cls),
                                        getattr(fine.dof, cls))
                     for name, cls in CROSS_LEVEL_BLOCKS.items()}
    prolongations["M"] = prolongations["A"] = state_prolongation(coarse, fine)
    misfit = {}
    for name, I in prolongations.items():
        X = getattr(coarse, name)
        misfit[name] = abs(I.T @ getattr(fine, name) @ I - X).max() / abs(X).max()
    return misfit


@pytest.mark.parametrize("coarse_n, fine_n", [(4, 8), (4, 12), (8, 16)])
def test_blocks_are_galerkin_consistent_across_nested_meshes(coarse_n, fine_n):
    # A Kuhn mesh refined k times is a union of tets of the kn mesh, so its
    # P1 space is a subspace of the finer one and every Galerkin block, the
    # six and the composite M and A, restricts exactly: I^T X_kn I = X_n up
    # to rounding (a few 1e-16).
    coarse, fine = (build_system(build_mesh(MeshConfig(n=n))) for n in (coarse_n, fine_n))
    misfit = cross_level_misfit(coarse, fine)
    assert max(misfit.values()) <= CROSS_LEVEL_BOUND, misfit


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


@pytest.mark.parametrize("name", ["default_sys", "n8_sys"])
def test_blocks_are_canonical_csr(name, request):
    # Each block is scattered straight into block order: sorted indices, no
    # duplicate, so every csr sum over the blocks stays canonical too. Q and
    # E^T P are P placed, canonical as built: the ordered pattern of the
    # shifted matrices slots the entries of M_VV, K and Q as stored.
    sys = request.getfixturevalue(name)
    split = sys.kinematic
    blocks = {"M_f": sys.M_f, "K_f": sys.K_f, "M_s": sys.M_s, "K_s": sys.K_s,
              "M_G": sys.M_G, "K_G": sys.K_G, "M_VV": split.M_VV, "P": split.P, "K": split.K,
              "Q": split.Q, "EtP": split.EtP}
    assert [k for k, mat in blocks.items() if not mat.has_canonical_format] == []


def test_solid_table_is_kept_only_when_read(default_mesh):
    # The system pair reads the solid blocks from the solid table, which is
    # kept for the multiplier quadrature: one table per mesh.
    sys = build_system(default_mesh)
    sys.kinematic
    assert "solid_table" in vars(sys)
    assert sys.M_s is sys.solid_table.M and sys.K_s is sys.solid_table.K
    # The longest edge of a Kuhn tet is its cell's diagonal.
    assert sys.mesh_h == pytest.approx(np.sqrt(3) / 4, rel=1e-15)


def test_solid_tet_kernel_runs_once(default_mesh, monkeypatch):
    # The system pair and then the quadrature's table: one kernel pass per region.
    calls = []

    def recording(vertices, tets, kernel=assembly._tet_kernel):
        calls.append(tets.shape[0])
        return kernel(vertices, tets)

    monkeypatch.setattr(assembly, "_tet_kernel", recording)
    sys = build_system(default_mesh)
    sys.kinematic
    sys.solid_table
    regions = default_mesh.tet_regions
    assert calls == [int(np.sum(regions == FLUID)), int(np.sum(regions == SOLID))]


def _traced_peak_mib(build):
    """Peak of the memory traced while ``build()`` runs, in MiB. numpy reports
    each array buffer to tracemalloc, so for array work the peak is the same
    from run to run."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_dofmap_and_element_tables_hold_no_per_element_copies():
    # The DofMap marks region vertices one tets column at a time, and a table
    # keeps its values per shape and scatters from them: no per-element copy
    # of the tets, the coordinates, the mass or the stiffness. Measured 1.1,
    # 7.9 and 8.8 MiB; copying them read 6.9, 18.5 and 24.6.
    n16_mesh, n32_mesh = build_mesh(MeshConfig(n=16)), build_mesh(MeshConfig(n=32))
    n32_sys = build_system(n32_mesh)
    peaks = {"build_dofmap n=32": _traced_peak_mib(lambda: build_dofmap(n32_mesh)),
             "K_f n=16": _traced_peak_mib(lambda: build_system(n16_mesh).K_f),
             "solid_table n=32": _traced_peak_mib(lambda: n32_sys.solid_table)}
    bounds = {"build_dofmap n=32": 3.0, "K_f n=16": 12.0, "solid_table n=32": 18.0}
    assert {k: v for k, v in peaks.items() if v >= bounds[k]} == {}


def test_element_tables_scatter_from_one_sorted_pattern():
    # The table sorts one int32 pattern for both matrices, each gathers its
    # per-shape table in that order for scipy's sum_duplicates, and the
    # kernel reads its edge matrices off vertex columns. Measured 7.9, 8.8
    # and 2.9 MiB; one COO to CSR conversion per matrix over an (m, 4, 3)
    # coordinate gather read 9.8, 14.8 and 7.9.
    n16_mesh, n32_mesh = build_mesh(MeshConfig(n=16)), build_mesh(MeshConfig(n=32))
    n32_sys = build_system(n32_mesh)
    solid_tets = region_tets(n32_mesh, SOLID)
    peaks = {"K_f n=16": _traced_peak_mib(lambda: build_system(n16_mesh).K_f),
             "solid_table n=32": _traced_peak_mib(lambda: n32_sys.solid_table),
             "_tet_kernel n=32 solid": _traced_peak_mib(
                 lambda: _tet_kernel(n32_mesh.vertices, solid_tets))}
    bounds = {"K_f n=16": 9.0, "solid_table n=32": 10.0, "_tet_kernel n=32 solid": 5.0}
    assert {k: v for k, v in peaks.items() if v >= bounds[k]} == {}


def test_fluid_scatter_and_surface_pencil_hold_no_transient_copies():
    # The fluid scatter filters each array of its triples as it is formed,
    # never holding the full triples beside filtered copies, and sygvd
    # overwrites the pencil's dense copies in place. Measured 5.7 and 4.6 MiB at n=16; filtering full triples and
    # factoring fresh copies of the pencil read 7.9 and 6.9.
    mesh = build_mesh(MeshConfig(n=16))
    sys = build_system(mesh)
    H1_G, M_G = sys.H1_G, sys.M_G
    peaks = {"K_f n=16": _traced_peak_mib(lambda: build_system(mesh).K_f),
             "SurfaceSpectral n=16": _traced_peak_mib(lambda: SurfaceSpectral(H1_G, M_G))}
    bounds = {"K_f n=16": 6.5, "SurfaceSpectral n=16": 5.5}
    assert {k: v for k, v in peaks.items() if v >= bounds[k]} == {}


def test_surface_pencil_factored_in_place_has_the_bits_of_fresh_copies():
    sys = build_system(build_mesh(MeshConfig(n=16)))
    spectral = SurfaceSpectral(sys.H1_G, sys.M_G)
    omega, V = scipy.linalg.eigh(sys.H1_G.toarray(), sys.M_G.toarray())
    assert np.array_equal(spectral.weight, np.maximum(omega, 1e-14) ** 0.5)
    assert np.array_equal(spectral.V, V)


def assert_shifted_is_the_ordered_sum(split):
    """`KinematicSplit.shifted` has the bytes of scipy's ordered sum at a
    real, an imaginary and a complex shift."""
    for s in (200.0, 30j, 3 - 5j):
        got, want = split.shifted(s), ordered_shifted_matrix(s, split)
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), (s, attr)
    assert np.array_equal(split.order[split.inverse], np.arange(split.n_v))


@pytest.mark.parametrize("seed", range(4))
def test_shift_pattern_slots_every_entry_of_any_blocks(seed):
    # Splits of unsymmetric random blocks with empty rows and columns, in
    # the nested-dissection order of random points. A lone row of K, alone
    # in its split, puts one entry in every column, all on one row, so the
    # end of each column and the start of the next share a row index.
    rng = np.random.default_rng(seed)
    n_v, n_d = 40, 15
    coords = rng.random((n_v, 3))
    M_VV, K = (sp.random(n_v, n_v, density=d, format="csr", random_state=rng) for d in (0.3, 0.1))
    P = sp.random(n_d, n_d, density=0.2, format="csr", random_state=rng)
    split = KinematicSplit(M_VV, K, P, coords)
    assert not np.array_equal(split.order, np.arange(n_v))
    assert_shifted_is_the_ordered_sum(split)
    row = sp.csr_matrix((rng.random(n_v), (np.full(n_v, seed), np.arange(n_v))), shape=(n_v, n_v))
    assert_shifted_is_the_ordered_sum(
        KinematicSplit(sp.csr_matrix((n_v, n_v)), row, sp.csr_matrix((n_d, n_d)), coords))
    # scipy would sort an unsorted block in place on a later read, away from its slots.
    unsorted = sp.csr_matrix((row.data[::-1], row.indices[::-1], row.indptr), shape=(n_v, n_v))
    with pytest.raises(ValueError, match="canonical"):
        KinematicSplit(M_VV, unsorted, P, coords).shifted(1.0)


def test_shifted_factor_writes_into_the_cached_pattern():
    # With the split's ordered pattern built, a shifted LU writes s M_VV, K
    # and Q / s into it: no sparse sum, CSC copy, permuted copies or argsort
    # per shift. Measured 1.51 and 0.76 MiB at n=16; building the sum and
    # permuting it per shift read 3.67 and 2.25.
    split = build_system(build_mesh(MeshConfig(n=16))).kinematic
    split.shifted(1.0)
    peaks = {s: _traced_peak_mib(lambda: ShiftedFactor(s, split)) for s in (30j, 200.0)}
    bounds = {30j: 2.5, 200.0: 1.5}
    assert {s: v for s, v in peaks.items() if v >= bounds[s]} == {}


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


def test_generator_matches_dense_weak_form_oracle_on_rich_mesh(rich_mesh, rich_sys):
    # The tiny mesh has no fluid-interior and no solid-interior unknown.
    assert rich_sys.dof.n_fi > 0 and rich_sys.dof.n_s > 0
    A = DenseWeakForm(rich_mesh, rich_sys.dof).generator()
    assert np.max(np.abs(rich_sys.A.toarray() - A)) <= 1e-12 * np.max(np.abs(A))


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
    x.w0_full[:] = c
    assert energy_norm(x, sys) ** 2 == pytest.approx(1.5 * c * c, rel=1e-12)


def test_energy_norm_matches_dense_gram(default_sys, rng):
    sys = default_sys
    Gd = sys.M.toarray()
    for _ in range(5):
        x = State(sys.dof, rng.standard_normal(sys.dof.total))
        ref = np.sqrt(x.vec @ (Gd @ x.vec))
        assert energy_norm(x, sys) == pytest.approx(ref, rel=1e-12)


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
    x.w0_full[:] = c
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
    # The views tile the vector in split order: velocities, then displacements.
    n_i = sys.dof.n_i
    assert np.array_equal(np.concatenate([x.u, x.w1_full[n_i:], x.h0, x.w0_full[n_i:]]), x.vec)
    assert sys.kinematic.n_v == sys.dof.n_v == x.u.size + sys.dof.n_s
    assert np.array_equal(x.w0_full[:n_i], x.h0)
    assert np.array_equal(x.w1_full[:n_i], x.trace_u)
    assert x.u.size == sys.dof.n_u

