import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfsi.geometry import (
    FLUID,
    GAMMA_F,
    GAMMA_TAGS,
    SOLID,
    Mesh,
    MeshConfig,
    MeshConfigError,
    build_mesh,
    face_keys,
    interface_area,
    load_mesh,
    save_mesh,
)

from conftest import RICH_CONFIG, TINY_CONFIG
from oracles import extract_boundary_lexsort, mesh_text_rows


def test_default_counts(default_mesh):
    assert default_mesh.vertices.shape[0] == 125
    assert default_mesh.tets.shape[0] == 64 * 6
    assert int((default_mesh.tet_regions == SOLID).sum()) == 8 * 6
    assert int((default_mesh.tet_regions == FLUID).sum()) == 56 * 6


def test_default_volumes(default_mesh):
    assert default_mesh.region_volume(FLUID) == pytest.approx(0.875, rel=1e-12)
    assert default_mesh.region_volume(SOLID) == pytest.approx(0.125, rel=1e-12)


def test_misaligned_inner_cube_names_axis():
    with pytest.raises(MeshConfigError, match="axis 0"):
        build_mesh(MeshConfig(n=3))


def test_bad_ordering_rejected():
    with pytest.raises(MeshConfigError, match="axis 1"):
        MeshConfig(inner_lo=(0.25, 0.8, 0.25)).validate()


def test_positive_volumes(default_mesh, tiny_mesh):
    assert np.all(default_mesh.tet_volumes() > 0)
    assert np.all(tiny_mesh.tet_volumes() > 0)


def test_interface_area_default(default_mesh):
    assert interface_area(default_mesh) == pytest.approx(1.5, rel=1e-12)


def test_interface_area_side_04():
    mesh = build_mesh(MeshConfig(inner_lo=(0.3, 0.3, 0.3), inner_hi=(0.7, 0.7, 0.7), n=10))
    assert interface_area(mesh) == pytest.approx(0.96, rel=1e-12)


def test_interface_area_requires_interface(default_mesh):
    degenerate = Mesh(
        default_mesh.vertices,
        default_mesh.tets,
        default_mesh.tet_regions,
        default_mesh.tris[default_mesh.tri_tags == GAMMA_F],
        default_mesh.tri_tags[default_mesh.tri_tags == GAMMA_F],
        default_mesh.tri_normals[default_mesh.tri_tags == GAMMA_F],
    )
    with pytest.raises(ValueError):
        interface_area(degenerate)


def test_boundary_sets_disjoint(default_mesh):
    outer = set(map(tuple, np.sort(default_mesh.tris[default_mesh.tri_tags == GAMMA_F], axis=1)))
    inner = set(map(tuple, np.sort(default_mesh.tris[default_mesh.tri_tags != GAMMA_F], axis=1)))
    assert not outer & inner
    outer_verts = np.unique(default_mesh.tris[default_mesh.tri_tags == GAMMA_F])
    inner_verts = np.unique(default_mesh.tris[default_mesh.tri_tags != GAMMA_F])
    assert np.intersect1d(outer_verts, inner_verts).size == 0


def test_interface_tris_are_shared_fluid_solid_faces(default_mesh):
    mesh = default_mesh
    face_owner = {}
    local = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    for t, (tet, reg) in enumerate(zip(mesh.tets, mesh.tet_regions)):
        for lf in local:
            face_owner.setdefault(tuple(sorted(tet[lf])), []).append(reg)
    solid_boundary = {
        key for key, regs in face_owner.items()
        if len(regs) == 2 and regs[0] != regs[1]
    }
    tagged = set(map(tuple, np.sort(mesh.tris[mesh.tri_tags != GAMMA_F], axis=1)))
    assert tagged == solid_boundary


def test_interface_triangulates_cube_exactly(default_mesh):
    # All six tagged faces appear and their areas sum per face to 0.25.
    areas = default_mesh.tri_areas()
    for tag in range(1, 7):
        sel = default_mesh.tri_tags == tag
        assert np.any(sel)
        assert areas[sel].sum() == pytest.approx(0.25, rel=1e-12)


def test_interface_vertices_touch_both_regions(default_mesh):
    mesh = default_mesh
    iface = np.unique(mesh.tris[mesh.tri_tags != GAMMA_F])
    fluid_verts = set(np.unique(mesh.tets[mesh.tet_regions == FLUID]))
    solid_verts = set(np.unique(mesh.tets[mesh.tet_regions == SOLID]))
    for v in iface:
        assert v in fluid_verts and v in solid_verts


def test_normals_point_into_solid(default_mesh):
    mesh = default_mesh
    centroid_solid = np.array([0.5, 0.5, 0.5])
    sel = mesh.tri_tags != GAMMA_F
    centers = mesh.vertices[mesh.tris[sel]].mean(axis=1)
    dots = np.einsum("td,td->t", mesh.tri_normals[sel], centroid_solid - centers)
    assert np.all(dots > 0)
    # Outer normals point away from the box center.
    sel = mesh.tri_tags == GAMMA_F
    centers = mesh.vertices[mesh.tris[sel]].mean(axis=1)
    dots = np.einsum("td,td->t", mesh.tri_normals[sel], centroid_solid - centers)
    assert np.all(dots < 0)
    assert np.allclose(np.linalg.norm(mesh.tri_normals, axis=1), 1.0)


def test_refinement_scaling():
    m4 = build_mesh(MeshConfig(n=4))
    m8 = build_mesh(MeshConfig(n=8))
    assert m8.tets.shape[0] == 8 * m4.tets.shape[0]
    for tag in range(1, 7):
        c4 = int((m4.tri_tags == tag).sum())
        c8 = int((m8.tri_tags == tag).sum())
        assert c8 == 4 * c4
    assert int((m8.tri_tags == GAMMA_F).sum()) == 4 * int((m4.tri_tags == GAMMA_F).sum())


def test_roundtrip_bit_exact(tmp_path, default_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(default_mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, default_mesh.vertices)
    assert np.array_equal(back.tets, default_mesh.tets)
    assert np.array_equal(back.tet_regions, default_mesh.tet_regions)
    assert np.array_equal(back.tris, default_mesh.tris)
    assert np.array_equal(back.tri_tags, default_mesh.tri_tags)
    assert np.array_equal(back.tri_normals, default_mesh.tri_normals)
    assert back.config == default_mesh.config
    # Writing the loaded mesh again reproduces the file byte for byte.
    path2 = tmp_path / "mesh2.txt"
    save_mesh(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_tiny_config_valid():
    TINY_CONFIG.validate()
    mesh = build_mesh(TINY_CONFIG)
    assert mesh.vertices.shape[0] == 64
    assert mesh.region_volume(SOLID) == pytest.approx(0.125, rel=1e-12)


NON_CUBIC_CONFIG = MeshConfig(
    outer_lo=(0.0, -0.5, 0.25), outer_hi=(2.0, 1.0, 1.5),
    inner_lo=(0.5, 0.0, 0.5), inner_hi=(1.25, 0.75, 1.0), n=4,
)


@pytest.mark.parametrize("config", [TINY_CONFIG, RICH_CONFIG, MeshConfig(n=8), NON_CUBIC_CONFIG],
                         ids=["tiny", "rich", "n8", "non-cubic"])
def test_boundary_and_dump_match_references(tmp_path, config):
    mesh = build_mesh(config)
    tris, tags, normals = extract_boundary_lexsort(*config.grid_counts(), mesh.tets, mesh.tet_regions)
    assert np.array_equal(mesh.tris, tris)
    assert np.array_equal(mesh.tri_tags, tags) and mesh.tri_tags.dtype == tags.dtype
    assert np.array_equal(_bits(mesh.tri_normals), _bits(normals))
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    assert path.read_bytes() == mesh_text_rows(mesh).encode()


def test_face_keys_order_and_overflow():
    faces = np.array([[3, 1, 2], [2, 1, 3], [0, 4, 1], [4, 0, 2]])
    keys = face_keys(faces, 5)
    assert keys[0] == keys[1]
    assert np.array_equal(np.argsort(keys, kind="stable"),
                          np.lexsort(np.sort(faces, axis=1).T[::-1]))
    # (n + 1)**3 vertices on the unit box: n = 126 fits int64 keys, n = 127 does not.
    assert face_keys(faces, 127**3).dtype == np.int64
    with pytest.raises(ValueError):
        face_keys(faces, 128**3)


def test_mesh_config_rejects_grid_too_large_for_face_keys():
    # (n + 1)**3 vertices on the unit box, with a cube on the grid at either n.
    # validate only reads the config; neither mesh is built.
    def unit_box(n):
        return MeshConfig(inner_lo=(1 / n,) * 3, inner_hi=(1 - 1 / n,) * 3, n=n)

    unit_box(126).validate()
    with pytest.raises(MeshConfigError, match=r"n = 127 gives 2097152 vertices"):
        unit_box(127).validate()


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_triple = st.tuples(_finite, _finite, _finite)


@st.composite
def _meshes(draw):
    nv = draw(st.integers(1, 6))
    idx = st.integers(0, nv - 1)
    vertices = draw(st.lists(_triple, min_size=nv, max_size=nv))
    tets = draw(st.lists(st.tuples(idx, idx, idx, idx, st.sampled_from([FLUID, SOLID])), max_size=5))
    tris = draw(st.lists(
        st.tuples(idx, idx, idx, st.sampled_from([GAMMA_F, *GAMMA_TAGS]), *[_finite] * 3), max_size=5
    ))
    config = draw(st.none() | st.builds(MeshConfig, _triple, _triple, _triple, _triple, st.integers(1, 64)))
    tets = np.array(tets, dtype=np.int64).reshape(-1, 5)
    tris = np.array(tris, dtype=object).reshape(-1, 7)
    return Mesh(
        np.array(vertices, dtype=np.float64), tets[:, :4], tets[:, 4].astype(np.int8),
        tris[:, :3].astype(np.int64), tris[:, 3].astype(np.int8), tris[:, 4:].astype(np.float64),
        config=config,
    )


@settings(max_examples=60, deadline=None)
@given(_meshes())
def test_roundtrip_bit_exact_property(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.txt"
        save_mesh(mesh, path)
        assert path.read_text() == mesh_text_rows(mesh)
        back = load_mesh(path)
        assert np.array_equal(_bits(back.vertices), _bits(mesh.vertices))
        assert np.array_equal(back.tets, mesh.tets)
        assert np.array_equal(back.tet_regions, mesh.tet_regions)
        assert np.array_equal(back.tris, mesh.tris)
        assert np.array_equal(back.tri_tags, mesh.tri_tags)
        assert np.array_equal(_bits(back.tri_normals), _bits(mesh.tri_normals))
        assert (back.config is None) == (mesh.config is None)
        if mesh.config is not None:
            c, d = back.config, mesh.config
            assert c.n == d.n
            fields = ("outer_lo", "outer_hi", "inner_lo", "inner_hi")
            assert all(np.array_equal(_bits(getattr(c, f)), _bits(getattr(d, f))) for f in fields)


def _set_field(lines, header, row, col, value):
    """Overwrite one field of a block row; returns the row's 1-based line number."""
    i = header + 1 + row
    fields = lines[i].split()
    fields[col] = str(value)
    lines[i] = " ".join(fields)
    return i + 1


def _recount(lines, header, delta):
    tag, count = lines[header].split()
    lines[header] = f"{tag} {int(count) + delta}"


def _malform(lines, case):
    """Apply one malformation to a dump; returns the message load_mesh must raise."""
    hdr = {line.split()[0]: i for i, line in enumerate(lines)
           if line.split()[0] in ("vertices", "tets", "tris")}
    nv = int(lines[hdr["vertices"]].split()[1])
    if case == "negative-tet-index":
        return f"tets block, line {_set_field(lines, hdr['tets'], 3, 0, -1)}: vertex index outside"
    if case == "tet-index-past-the-vertices":
        return f"tets block, line {_set_field(lines, hdr['tets'], 5, 2, nv)}: vertex index outside"
    if case == "tri-index-past-the-vertices":
        return f"tris block, line {_set_field(lines, hdr['tris'], 2, 1, nv)}: vertex index outside"
    if case == "region-tag-2":
        return f"tets block, line {_set_field(lines, hdr['tets'], 7, 4, 2)}: region tag"
    if case == "triangle-tag-9":
        return f"tris block, line {_set_field(lines, hdr['tris'], 4, 3, 9)}: boundary tag"
    if case == "short-vertices-block":
        _recount(lines, hdr["vertices"], +1)
        return f"vertices block, line {hdr['tets'] + 1}: expected 3 fields, got 2"
    if case == "long-vertices-block":
        _recount(lines, hdr["vertices"], -1)
        return f"vertices block, line {hdr['tets']}: more rows than its count"
    if case == "short-tets-block":
        _recount(lines, hdr["tets"], +1)
        return f"tets block, line {hdr['tris'] + 1}: expected 5 fields, got 2"
    if case == "long-tets-block":
        _recount(lines, hdr["tets"], -1)
        return f"tets block, line {hdr['tris']}: more rows than its count"
    if case == "short-tris-block":
        _recount(lines, hdr["tris"], +1)
        return f"tris block, line {len(lines) + 1}: file ends after"
    if case == "long-tris-block":
        _recount(lines, hdr["tris"], -1)
        return f"tris block, line {len(lines)}: more rows than its count"
    if case == "non-integer-tet-index":
        return f"tets block, line {_set_field(lines, hdr['tets'], 3, 1, 1.5)}: invalid literal for int()"
    if case == "non-integer-region-tag":
        return f"tets block, line {_set_field(lines, hdr['tets'], 6, 4, 'x')}: invalid literal for int()"
    if case == "non-integer-tri-index":
        return f"tris block, line {_set_field(lines, hdr['tris'], 2, 0, 1.5)}: invalid literal for int()"
    if case == "non-integer-tri-tag":
        return f"tris block, line {_set_field(lines, hdr['tris'], 5, 3, '1e0')}: invalid literal for int()"
    if case == "non-float-vertex":
        return f"vertices block, line {_set_field(lines, hdr['vertices'], 4, 2, 'x')}: could not convert"
    if case == "non-float-tri-normal":
        return f"tris block, line {_set_field(lines, hdr['tris'], 3, 5, 'nul')}: could not convert"
    if case == "short-config-line":
        lines[1] = lines[1].rsplit(" ", 1)[0]
        return "config block, line 2: expected 13 fields, got 12"
    if case == "non-float-config-field":
        _set_field(lines, 0, 0, 3, "x")
        return "config block, line 2: could not convert"
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "negative-tet-index", "tet-index-past-the-vertices", "tri-index-past-the-vertices",
    "region-tag-2", "triangle-tag-9", "short-vertices-block", "long-vertices-block",
    "short-tets-block", "long-tets-block", "short-tris-block", "long-tris-block",
    "non-integer-tet-index", "non-integer-region-tag", "non-integer-tri-index",
    "non-integer-tri-tag", "non-float-vertex", "non-float-tri-normal", "short-config-line",
    "non-float-config-field",
])
def test_load_mesh_rejects_malformed_file(tmp_path, tiny_mesh, case):
    path = tmp_path / "mesh.txt"
    save_mesh(tiny_mesh, path)
    lines = path.read_text().splitlines()
    message = _malform(lines, case)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_mesh(path)
