import hashlib
import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfsi import geometry
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

from conftest import NON_CUBIC_CONFIG, RICH_CONFIG, TINY_CONFIG
from oracles import extract_boundary_lexsort, mesh_text_rows, tet_volumes_per_tet, tri_areas_cross
from test_assembly import _traced_peak_mib


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


@pytest.mark.parametrize("field", ["outer_lo", "outer_hi", "inner_lo", "inner_hi"])
def test_non_finite_coordinate_names_field_and_axis(field):
    for axis, value in enumerate((math.inf, -math.inf, math.nan)):
        coords = list(getattr(MeshConfig(), field))
        coords[axis] = value
        with pytest.raises(MeshConfigError, match=f"axis {axis}: {field} must be finite, got"):
            replace(MeshConfig(), **{field: tuple(coords)}).validate()


def test_non_finite_n_and_overflowing_extent_rejected():
    for n in (math.inf, math.nan):
        with pytest.raises(MeshConfigError, match="n must be a positive integer"):
            MeshConfig(n=n).validate()
    # Finite coordinates whose scaled extent n * (outer_hi - outer_lo) is inf.
    with pytest.raises(MeshConfigError, match=r"axis 0: n \* \(outer_hi - outer_lo\) overflows"):
        MeshConfig(outer_lo=(-1e308, 0, 0), outer_hi=(1e308, 1, 1)).validate()


def test_largest_valid_unit_box_has_int32_vertex_ids():
    # build_mesh stores vertex ids as int32, which the face-key cap of
    # validate makes safe: bisect for the largest n it accepts on the unit
    # box. validate only reads the config; no mesh is built.
    def accepts(n):
        try:
            MeshConfig(inner_lo=(1 / n,) * 3, inner_hi=(1 - 1 / n,) * 3, n=n).validate()
        except MeshConfigError:
            return False
        return True

    lo, hi = 3, 2**20
    assert accepts(lo) and not accepts(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    assert (lo + 1) ** 3 < 2**31


def test_build_mesh_holds_no_int64_connectivity():
    # Tets and tris are formed as int32 from the start. Measured 5.9 MiB;
    # forming them int64 read 9.4.
    assert _traced_peak_mib(lambda: build_mesh(MeshConfig(n=32))) <= 7.0


def test_positive_volumes(default_mesh, tiny_mesh):
    assert np.all(default_mesh.tet_volumes() > 0)
    assert np.all(tiny_mesh.tet_volumes() > 0)


@pytest.mark.parametrize("config", [MeshConfig(n=8), NON_CUBIC_CONFIG, RICH_CONFIG],
                         ids=["n8", "non-cubic", "rich"])
def test_volumes_and_areas_are_the_element_kernels_bit_for_bit(config):
    # The mesh reads the element kernels: a det per tet shape and the
    # triangle kernel's cross product give the per-element formulas' bits.
    mesh = build_mesh(config)
    for got, want in ((mesh.tet_volumes(), tet_volumes_per_tet(mesh)),
                      (mesh.tri_areas(), tri_areas_cross(mesh))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
    # A float n that validates (4.0) is written as the integer it equals.
    for mesh in (default_mesh, build_mesh(MeshConfig(n=4.0))):
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.tets, mesh.tets)
        assert np.array_equal(back.tet_regions, mesh.tet_regions)
        assert np.array_equal(back.tris, mesh.tris)
        assert np.array_equal(back.tri_tags, mesh.tri_tags)
        assert np.array_equal(back.tri_normals, mesh.tri_normals)
        assert back.config == mesh.config
        # Writing the loaded mesh again reproduces the file byte for byte.
        path2 = tmp_path / "mesh2.txt"
        save_mesh(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_tiny_config_valid():
    TINY_CONFIG.validate()
    mesh = build_mesh(TINY_CONFIG)
    assert mesh.vertices.shape[0] == 64
    assert mesh.region_volume(SOLID) == pytest.approx(0.125, rel=1e-12)


def _assert_boundary_matches_oracle(mesh):
    """The closed-form boundary equals the full face sort, which also asserts
    that no face has more than two tets, every lone face lies on the outer
    box and every fluid/solid face on the cube."""
    config = mesh.config
    tris, tags, normals = extract_boundary_lexsort(*config.grid_counts(), mesh.tets, mesh.tet_regions)
    assert np.array_equal(mesh.tris, tris)
    assert np.array_equal(mesh.tri_tags, tags) and mesh.tri_tags.dtype == tags.dtype
    assert np.array_equal(_bits(mesh.tri_normals), _bits(normals))


@pytest.mark.parametrize("config", [TINY_CONFIG, RICH_CONFIG, MeshConfig(n=8), NON_CUBIC_CONFIG,
                                    MeshConfig(n=16)],
                         ids=["tiny", "rich", "n8", "non-cubic", "n16"])
def test_boundary_and_dump_match_references(tmp_path, config):
    mesh = build_mesh(config)
    _assert_boundary_matches_oracle(mesh)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    assert path.read_bytes() == mesh_text_rows(mesh).encode()


@st.composite
def aligned_configs(draw):
    """Boxes of 3 to 9 cells per axis at n = 1..8, off the origin, with the
    cube at a random grid offset strictly inside."""
    n = draw(st.integers(1, 8))
    olo = np.array([draw(st.floats(-2, 2).filter(bool)) for _ in range(3)])
    cells = np.array([draw(st.integers(3, 9)) for _ in range(3)])
    lo = np.array([draw(st.integers(1, c - 2)) for c in cells])
    hi = np.array([draw(st.integers(a + 1, c - 1)) for a, c in zip(lo, cells)])
    return MeshConfig(*(tuple(olo + k / n) for k in (0, cells, lo, hi)), n=n)


@settings(max_examples=60, deadline=None)
@given(aligned_configs())
def test_closed_form_mesh_matches_face_sort_and_orientation(config):
    mesh = build_mesh(config)
    _assert_boundary_matches_oracle(mesh)
    # Every tet is a positively oriented path tet of volume h^3 / 6.
    h3 = (1.0 / config.n) ** 3
    assert np.allclose(6 * mesh.tet_volumes(), h3, rtol=1e-12, atol=0)


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
    # %.17g text equal to the oracle's pins the bit-exact round trip of every
    # float; load_mesh reads only dumps of build_mesh meshes.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.txt"
        save_mesh(mesh, path)
        assert path.read_text() == mesh_text_rows(mesh)


def _signed_zero_mesh(with_elements):
    """Vertex and normal columns holding -0.0 beside 0.0, and the smallest
    subnormal; with ``with_elements`` false, empty tets and tris blocks."""
    vertices = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 5e-324], [-5e-324, 0.0, -0.0]])
    tets = np.array([[0, 1, 2, 0], [2, 1, 0, 1]])[:2 * with_elements]
    tris = np.array([[0, 1, 2], [2, 0, 1]])[:2 * with_elements]
    normals = np.array([[0.0, -0.0, 1.0], [-0.0, 5e-324, -1.0]])[:2 * with_elements]
    return Mesh(vertices, tets, np.array([FLUID, SOLID], np.int8)[:len(tets)], tris,
                np.array([GAMMA_F, 3], np.int8)[:len(tris)], normals)


@pytest.mark.parametrize("with_elements", [True, False], ids=["elements", "empty"])
def test_dump_keeps_signed_zeros_and_subnormals(tmp_path, with_elements):
    # Formatting once per distinct value would merge -0.0 into 0.0: the
    # writer keys on bit patterns.
    mesh = _signed_zero_mesh(with_elements)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    text = path.read_text()
    assert text == mesh_text_rows(mesh)
    assert "\n-0 0 1\n0 -0 4.9406564584124654e-324\n" in text


def test_dump_writes_integers_as_percent_d(tmp_path):
    # Integer text is built digit column by digit column: spans that cross
    # zero and a power of ten, negatives with a sign, one-value spans.
    vertices = np.zeros((1, 3))
    tets = np.array([[-12, 0, 7, 100], [-1, 9, 10, 99], [-100, 1000, -7, 0]])
    mesh = Mesh(vertices, tets, np.array([FLUID, SOLID, SOLID], np.int8), np.array([[-105, 3, -9]]),
                np.array([-3], np.int8), np.zeros((1, 3)))
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    assert path.read_text() == mesh_text_rows(mesh)
    assert "\n-100 1000 -7 0 1\ntris 1\n-105 3 -9 -3 0 0 0\n" in path.read_text()


# sha256 of mesh.txt at four configs, pinned so its bytes rest on more than `mesh_text_rows`.
GOLDEN_MESH_SHA256 = json.loads((Path(__file__).parent / "golden" / "mesh_sha256.json").read_text())
GOLDEN_MESH_CONFIGS = {"n4": MeshConfig(n=4), "n8": MeshConfig(n=8), "non-cubic": NON_CUBIC_CONFIG,
                       "n32": MeshConfig(n=32)}


@pytest.mark.parametrize("name, chunk_rows", [
    pytest.param(name, chunk_rows, id=f"{name}-{label}")
    for name in GOLDEN_MESH_CONFIGS
    for chunk_rows, label in ((7, "7-row-chunks"), (None, "default-chunks"))
    if chunk_rows is None or name != "n32"
])
def test_dump_matches_golden_bytes(tmp_path, monkeypatch, name, chunk_rows):
    # 7-row chunks put seams inside every block of the small meshes; the
    # default chunks already split the tets block of the n=32 refine mesh.
    if chunk_rows is not None:
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk_rows)
    mesh = build_mesh(GOLDEN_MESH_CONFIGS[name])
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_MESH_SHA256[name]
    assert data == mesh_text_rows(mesh).encode()


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
    return header + 1


def _malform(lines, case):
    """Apply one malformation to a dump; returns the message load_mesh must raise."""
    hdr = {line.split()[0]: i for i, line in enumerate(lines)
           if line.split()[0] in ("vertices", "tets", "tris")}
    nv = int(lines[hdr["vertices"]].split()[1])
    dump = list(lines)

    def differs(block, number):
        """The message for a first difference at 1-based line ``number``."""
        read = repr(lines[number - 1] + "\n") if number <= len(lines) else "end of file"
        want = repr(dump[number - 1] + "\n")
        return f"{block} block, line {number}: read {read}, the config's mesh has {want}"

    if case == "negative-tet-index":
        return differs("tets", _set_field(lines, hdr["tets"], 3, 0, -1))
    if case == "tet-index-past-the-vertices":
        return differs("tets", _set_field(lines, hdr["tets"], 5, 2, nv))
    if case == "tri-index-past-the-vertices":
        return differs("tris", _set_field(lines, hdr["tris"], 2, 1, nv))
    if case == "region-tag-2":
        return differs("tets", _set_field(lines, hdr["tets"], 7, 4, 2))
    if case == "triangle-tag-9":
        return differs("tris", _set_field(lines, hdr["tris"], 4, 3, 9))
    if case in ("short-vertices-block", "long-vertices-block", "short-tets-block",
                "long-tets-block", "short-tris-block", "long-tris-block"):
        short, block = case.split("-")[:2]
        return differs(block, _recount(lines, hdr[block], +1 if short == "short" else -1))
    if case == "non-integer-tet-index":
        return differs("tets", _set_field(lines, hdr["tets"], 3, 1, 1.5))
    if case == "non-integer-region-tag":
        return differs("tets", _set_field(lines, hdr["tets"], 6, 4, "x"))
    if case == "non-integer-tri-index":
        return differs("tris", _set_field(lines, hdr["tris"], 2, 0, 1.5))
    if case == "non-integer-tri-tag":
        return differs("tris", _set_field(lines, hdr["tris"], 5, 3, "1e0"))
    if case == "non-float-vertex":
        return differs("vertices", _set_field(lines, hdr["vertices"], 4, 2, "x"))
    if case == "non-float-tri-normal":
        return differs("tris", _set_field(lines, hdr["tris"], 3, 5, "nul"))
    if case == "short-config-line":
        lines[1] = lines[1].rsplit(" ", 1)[0]
        return "config block, line 2: expected 13 fields, got 12"
    if case == "non-float-config-field":
        _set_field(lines, 0, 0, 3, "x")
        return "config block, line 2: could not convert"
    # Well-formed rows that the old field-by-field checks let through.
    if case == "swapped-tet-rows":
        first = hdr["tets"] + 1
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        return differs("tets", first + 1)
    if case == "moved-vertex":
        return differs("vertices", _set_field(lines, hdr["vertices"], 9, 1, 0.25))
    if case == "missing-config-line":
        del lines[1]
        return f"config block, line 2: expected 'config' and 13 fields, got '{dump[2]}'"
    if case == "file-ends-early":
        lines.pop()
        return differs("tris", len(dump))
    if case == "trailing-blank-line":
        lines.append("")
        return f"tris block, line {len(lines)}: read '\\n', the config's mesh has end of file"
    if case == "crlf-line-endings":
        lines[:] = [line + "\r" for line in lines]
        return "unsupported mesh file header: 'mlfsi-mesh 1\\r'"
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "negative-tet-index", "tet-index-past-the-vertices", "tri-index-past-the-vertices",
    "region-tag-2", "triangle-tag-9", "short-vertices-block", "long-vertices-block",
    "short-tets-block", "long-tets-block", "short-tris-block", "long-tris-block",
    "non-integer-tet-index", "non-integer-region-tag", "non-integer-tri-index",
    "non-integer-tri-tag", "non-float-vertex", "non-float-tri-normal", "short-config-line",
    "non-float-config-field", "swapped-tet-rows", "moved-vertex", "missing-config-line",
    "file-ends-early", "trailing-blank-line", "crlf-line-endings",
])
def test_load_mesh_rejects_malformed_file(tmp_path, tiny_mesh, case):
    path = tmp_path / "mesh.txt"
    save_mesh(tiny_mesh, path)
    lines = path.read_text().splitlines()
    message = _malform(lines, case)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_mesh(path)


@pytest.mark.parametrize("name", GOLDEN_MESH_CONFIGS)
def test_load_mesh_returns_the_built_mesh(tmp_path, name):
    mesh = build_mesh(GOLDEN_MESH_CONFIGS[name])
    save_mesh(mesh, tmp_path / "mesh.txt")
    back = load_mesh(tmp_path / "mesh.txt")
    assert back.config == mesh.config
    for field in ("vertices", "tets", "tet_regions", "tris", "tri_tags", "tri_normals"):
        a, b = getattr(back, field), getattr(mesh, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert (back.tets.dtype, back.tet_regions.dtype, back.tri_tags.dtype) == (np.int32, np.int8, np.int8)
    assert np.array_equal(_bits(back.vertices), _bits(mesh.vertices))
    assert np.array_equal(_bits(back.tri_normals), _bits(mesh.tri_normals))


@pytest.mark.parametrize("fields, message", [
    ({4: "inf"}, "axis 0: outer_hi must be finite, got inf"),
    ({9: "nan"}, "axis 2: inner_lo must be finite, got nan"),
    ({1: "-1e308", 4: "1e308"}, "axis 0: n * (outer_hi - outer_lo) overflows float64"),
], ids=["inf", "nan", "overflow"])
def test_load_mesh_names_a_non_finite_config_field(tmp_path, tiny_mesh, fields, message):
    path = tmp_path / "mesh.txt"
    save_mesh(tiny_mesh, path)
    lines = path.read_text().splitlines()
    for col, value in fields.items():
        _set_field(lines, 0, 0, col, value)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"config block, line 2: {message}")):
        load_mesh(path)


def test_load_mesh_checks_the_size_before_building(tmp_path, monkeypatch):
    # A config line whose mesh (n = 126 on the unit box, 12M tets) cannot fit
    # in a file of a few hundred bytes is rejected without a build.
    config = MeshConfig(inner_lo=(1 / 126,) * 3, inner_hi=(125 / 126,) * 3, n=126)
    empty = Mesh(np.zeros((0, 3)), np.zeros((0, 4), np.int64), np.zeros(0, np.int8),
                 np.zeros((0, 3), np.int64), np.zeros(0, np.int8), np.zeros((0, 3)), config=config)
    save_mesh(empty, tmp_path / "mesh.txt")

    def no_build(config):
        raise AssertionError("load_mesh built the mesh")

    monkeypatch.setattr(geometry, "build_mesh", no_build)
    with pytest.raises(ValueError, match=r"config block, line 2: its mesh has 12002256 tets"):
        load_mesh(tmp_path / "mesh.txt")
