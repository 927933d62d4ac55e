"""Structured tetrahedral meshes for a cube-in-box two-material geometry.

The fluid occupies an axis-aligned outer box minus a strictly interior
axis-aligned cube; the solid occupies the cube. Both regions are meshed
conformingly by splitting every grid hexahedron into 6 tetrahedra with the
same corner-to-corner diagonal pattern, so shared faces match across hexes
and across the fluid/solid interface. All tagging decisions are made in
integer grid-index space; floating point coordinates are never compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FLUID = 0
SOLID = 1

GAMMA_F = 0
# Interface face tags: 1 + 2*axis + (0 for the low face, 1 for the high face)
GAMMA_TAGS = (1, 2, 3, 4, 5, 6)

_MESH_FORMAT = "mlfsi-mesh"
_MESH_VERSION = 1

# The 6 tetrahedra of the corner-to-corner (Kuhn) split of a hex, as paths
# of axis steps from the low corner to the high corner.
_AXIS_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

# Local vertex triples of the 4 faces of a tet; face f omits vertex f.
TET_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


class MeshConfigError(ValueError):
    """Invalid mesh configuration (misalignment, ordering, bad cell count)."""


@dataclass(frozen=True)
class MeshConfig:
    """Axis-aligned outer box, strictly interior cube, and grid resolution.

    ``n`` is the number of grid cells per unit axis length; every box face
    and cube face must land exactly on a grid plane.
    """

    outer_lo: tuple[float, float, float] = (0.0, 0.0, 0.0)
    outer_hi: tuple[float, float, float] = (1.0, 1.0, 1.0)
    inner_lo: tuple[float, float, float] = (0.25, 0.25, 0.25)
    inner_hi: tuple[float, float, float] = (0.75, 0.75, 0.75)
    n: int = 4

    def validate(self):
        olo, ohi = np.asarray(self.outer_lo, float), np.asarray(self.outer_hi, float)
        ilo, ihi = np.asarray(self.inner_lo, float), np.asarray(self.inner_hi, float)
        if self.n < 1 or int(self.n) != self.n:
            raise MeshConfigError(f"n must be a positive integer, got {self.n!r}")
        for axis in range(3):
            if not (olo[axis] < ilo[axis] < ihi[axis] < ohi[axis]):
                raise MeshConfigError(
                    f"axis {axis}: need outer_lo < inner_lo < inner_hi < outer_hi, "
                    f"got {olo[axis]} {ilo[axis]} {ihi[axis]} {ohi[axis]}"
                )
        vertices = math.prod(int(cells) + 1 for cells in np.rint(self.n * (ohi - olo)))
        if vertices**3 > np.iinfo(np.int64).max:
            raise MeshConfigError(
                f"n = {self.n} gives {vertices} vertices; face keys need "
                f"vertices**3 to fit int64, so the grid is too large"
            )
        for name, val in (("outer_hi", ohi - olo), ("inner_lo", ilo - olo), ("inner_hi", ihi - olo)):
            scaled = self.n * val
            for axis in range(3):
                if abs(scaled[axis] - round(scaled[axis])) > 1e-9:
                    raise MeshConfigError(
                        f"axis {axis}: {name} does not align with the grid "
                        f"(n * offset = {scaled[axis]} is not an integer)"
                    )

    def grid_counts(self):
        """Cells per axis and the integer grid indices of the cube faces."""
        self.validate()
        olo = np.asarray(self.outer_lo, float)
        cells = np.rint(self.n * (np.asarray(self.outer_hi, float) - olo)).astype(int)
        ilo = np.rint(self.n * (np.asarray(self.inner_lo, float) - olo)).astype(int)
        ihi = np.rint(self.n * (np.asarray(self.inner_hi, float) - olo)).astype(int)
        return cells, ilo, ihi


@dataclass
class Mesh:
    """Conforming tet mesh with region tags and tagged boundary triangles.

    ``tri_normals[i]`` is the unit normal of boundary triangle ``i`` oriented
    outward from the fluid region (hence into the solid on interface faces).
    """

    vertices: np.ndarray          # (nv, 3) float64
    tets: np.ndarray              # (nt, 4) vertex indices
    tet_regions: np.ndarray       # (nt,) FLUID or SOLID
    tris: np.ndarray              # (nb, 3) vertex indices
    tri_tags: np.ndarray          # (nb,) GAMMA_F or 1..6
    tri_normals: np.ndarray       # (nb, 3) float64
    config: MeshConfig | None = field(default=None)

    def tet_volumes(self):
        p = self.vertices[self.tets]
        d = p[:, 1:] - p[:, :1]
        return np.linalg.det(d) / 6.0

    def region_volume(self, region):
        vols = self.tet_volumes()
        return float(vols[self.tet_regions == region].sum())

    def tri_areas(self):
        p = self.vertices[self.tris]
        cr = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return 0.5 * np.linalg.norm(cr, axis=1)

    def interface_tris(self):
        return self.tris[self.tri_tags != GAMMA_F]


def build_mesh(config: MeshConfig) -> Mesh:
    """Mesh the cube-in-box geometry; raises MeshConfigError on misalignment."""
    cells, ilo, ihi = config.grid_counts()
    h = 1.0 / config.n
    # Grid points and cells in C order: vertex id = ravel_multi_index(ijk, cells + 1).
    vertices = np.asarray(config.outer_lo, float) + np.indices(cells + 1).reshape(3, -1).T * h
    corner = np.indices(cells).reshape(3, -1).T          # low grid corner of each cell
    solid_cell = np.all((corner >= ilo) & (corner < ihi), axis=1)

    # Kuhn split: each tet is a monotone path of axis steps low corner -> high corner.
    tets = np.empty((corner.shape[0] * 6, 4), dtype=np.int64)
    regions = np.repeat(np.where(solid_cell, SOLID, FLUID), 6).astype(np.int8)
    for t, perm in enumerate(_AXIS_PERMS):
        offs = np.zeros((4, 3), dtype=np.int64)
        for step, axis in enumerate(perm):
            offs[step + 1:, axis] = 1
        for v in range(4):
            tets[t::6, v] = np.ravel_multi_index((corner + offs[v]).T, cells + 1)

    # Canonical positive orientation: a negative tet swaps its last two vertices.
    p = vertices[tets]
    det = np.linalg.det(p[:, 1:] - p[:, :1])
    if np.any(det == 0):
        raise AssertionError("degenerate tetrahedron produced by hex split")
    tets[det < 0, 2:] = tets[det < 0, :1:-1]

    tris, tags, normals = _extract_boundary(cells, ilo, ihi, tets, regions)
    return Mesh(vertices, tets, regions, tris, tags, normals, config=config)


def face_keys(faces, nv):
    """One int64 key per row of ``faces``, a vertex triple in any order.

    The key is the flat index of the sorted triple in an (nv, nv, nv) array,
    so keys sort like the sorted triples do, lexicographically. Raises
    ValueError when nv**3 overflows int64; `MeshConfig.validate` rejects
    such grids (n >= 127 on the unit box) before any mesh is built.
    """
    return np.ravel_multi_index(np.sort(faces, axis=-1).reshape(-1, 3).T, (nv,) * 3)


def _extract_boundary(cells, ilo, ihi, tets, regions):
    """Outer-box faces and fluid/solid shared faces, tagged and oriented."""
    faces = tets[:, TET_FACES].reshape(-1, 3)
    owner = np.repeat(np.arange(tets.shape[0]), 4)
    key = face_keys(faces, int(np.prod(cells + 1)))
    order = np.argsort(key, kind="stable")
    key, faces, owner = key[order], faces[order], owner[order]

    run_start = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    run_len = np.diff(np.append(run_start, key.size))
    if run_len.max() > 2:
        raise AssertionError("nonconforming mesh: face shared by more than two tets")
    single = run_start[run_len == 1]
    pair = run_start[run_len == 2]
    iface = pair[regions[owner[pair]] != regions[owner[pair + 1]]]

    # Lone faces lie on the outer box, with the normal out of the fluid;
    # fluid/solid pairs lie on the cube, tagged 1 + 2*axis + side, with the
    # normal into the solid. Every face must land on one of its group's planes.
    groups = (
        (faces[single], (np.zeros(3, int), cells), True,
         "boundary face off the outer box: mesh is not conforming"),
        (faces[iface], (ilo, ihi), False, "fluid/solid shared face off the cube surface"),
    )
    out_tris, out_tags, out_normals = [], [], []
    for group, planes, outer, message in groups:
        grid = np.unravel_index(group, cells + 1)
        placed = 0
        for axis in range(3):
            for side in (0, 1):
                on = np.all(grid[axis] == planes[side][axis], axis=1)
                count = int(on.sum())
                normals = np.zeros((count, 3))
                normals[:, axis] = (2 * side - 1) * (1.0 if outer else -1.0)
                out_tris.append(group[on])
                out_tags.append(np.full(count, GAMMA_F if outer else 1 + 2 * axis + side, np.int8))
                out_normals.append(normals)
                placed += count
        if placed != group.shape[0]:
            raise AssertionError(message)

    return tuple(np.concatenate(a) for a in (out_tris, out_tags, out_normals))


def interface_area(mesh: Mesh) -> float:
    """Total area of the fluid/solid interface triangles."""
    areas = mesh.tri_areas()[mesh.tri_tags != GAMMA_F]
    if not areas.size:
        raise ValueError("mesh has no interface triangles")
    return float(areas.sum())


def _block(tag, row, table):
    """Block ``tag``: its count line, then one ``row`` template per table row."""
    return f"{tag} {len(table)}\n" + (row * len(table)) % tuple(table.ravel().tolist())


def save_mesh(mesh: Mesh, path):
    """Versioned text dump; float columns round-trip bit-exactly."""
    text = [f"{_MESH_FORMAT} {_MESH_VERSION}\n"]
    if mesh.config is not None:
        c = mesh.config
        text.append(("config" + " %.17g" * 12 + " %s\n")
                    % (*c.outer_lo, *c.outer_hi, *c.inner_lo, *c.inner_hi, c.n))
    text.append(_block("vertices", "%.17g %.17g %.17g\n", mesh.vertices))
    text.append(_block("tets", "%d %d %d %d %d\n", np.column_stack([mesh.tets, mesh.tet_regions])))
    tris = np.column_stack([a.astype(object) for a in (mesh.tris, mesh.tri_tags, mesh.tri_normals)])
    text.append(_block("tris", "%d %d %d %d %.17g %.17g %.17g\n", tris))
    with open(path, "w") as fh:
        fh.write("".join(text))


def load_mesh(path) -> Mesh:
    """Read a ``save_mesh`` dump.

    Raises ValueError naming the block and the line of the first malformed
    entry: a config line or block row of the wrong shape, a field that does
    not parse as its number type, a block header that does not match, a
    block shorter or longer than its count, a vertex index out of range, or
    a region or boundary tag that the geometry does not define.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split() != [_MESH_FORMAT, str(_MESH_VERSION)]:
        raise ValueError(f"unsupported mesh file header: {lines[0] if lines else ''!r}")
    pos = 1
    config = None
    if pos < len(lines) and lines[pos].startswith("config "):
        parts = lines[pos].split()[1:]
        try:
            if len(parts) != 13:
                raise ValueError(f"expected 13 fields, got {len(parts)}")
            f = [float(x) for x in parts[:12]]
            config = MeshConfig(*(tuple(f[k:k + 3]) for k in (0, 3, 6, 9)), int(parts[12]))
        except ValueError as exc:
            raise ValueError(f"config block, line {pos + 1}: {exc}") from None
        pos += 1

    def read_block(tag, ncols, prev=None):
        """Rows of block ``tag`` as strings, and the 1-based line of its first.

        ``prev`` is the (tag, width) of the block before; a row of that width
        where this header belongs means that block is longer than its count.
        """
        nonlocal pos
        header = lines[pos].split() if pos < len(lines) else ["end of file"]
        if prev is not None and len(header) == prev[1]:
            raise ValueError(f"{prev[0]} block, line {pos + 1}: more rows than its count")
        if len(header) != 2 or header[0] != tag or not header[1].isdigit():
            raise ValueError(f"{tag} block, line {pos + 1}: expected '{tag} <count>', "
                             f"got {' '.join(header)!r}")
        count = int(header[1])
        first = pos + 2
        rows = [line.split() for line in lines[pos + 1:pos + 1 + count]]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError(f"{tag} block, line {first + i}: expected {ncols} fields, "
                                 f"got {len(row)}")
        if len(rows) < count:
            raise ValueError(f"{tag} block, line {first + len(rows)}: file ends after "
                             f"{len(rows)} of {count} rows")
        pos += 1 + count
        return np.array(rows, dtype=object).reshape(count, ncols), first

    def typed(raw, dtype, tag, first):
        """``raw`` as ``dtype``; a field that does not parse names its line."""
        try:
            return np.array(raw, dtype=dtype)
        except (ValueError, OverflowError):
            for i, row in enumerate(raw):
                try:
                    np.array(row, dtype=dtype)
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"{tag} block, line {first + i}: {exc}") from None
            raise

    def reject(bad, tag, first, what):
        rows = np.flatnonzero(bad)
        if rows.size:
            raise ValueError(f"{tag} block, line {first + rows[0]}: {what}")

    vraw, first = read_block("vertices", 3)
    vertices = typed(vraw, np.float64, "vertices", first)
    nv = vertices.shape[0]
    traw, first = read_block("tets", 5, prev=("vertices", 3))
    tets = typed(traw[:, :4], np.int64, "tets", first)
    regions = typed(traw[:, 4], np.int64, "tets", first)
    reject(np.any((tets < 0) | (tets >= nv), axis=1), "tets", first,
           f"vertex index outside [0, {nv})")
    reject(~np.isin(regions, (FLUID, SOLID)), "tets", first,
           f"region tag not in {{{FLUID}, {SOLID}}}")
    braw, first = read_block("tris", 7, prev=("tets", 5))
    tris = typed(braw[:, :3], np.int64, "tris", first)
    tags = typed(braw[:, 3], np.int64, "tris", first)
    normals = typed(braw[:, 4:], np.float64, "tris", first)
    reject(np.any((tris < 0) | (tris >= nv), axis=1), "tris", first,
           f"vertex index outside [0, {nv})")
    reject(~np.isin(tags, (GAMMA_F, *GAMMA_TAGS)), "tris", first,
           f"boundary tag not in {{{GAMMA_F}, {', '.join(map(str, GAMMA_TAGS))}}}")
    extra = [i for i in range(pos, len(lines)) if lines[i].strip()]
    if extra:
        raise ValueError(f"tris block, line {extra[0] + 1}: more rows than its count")
    return Mesh(vertices, tets, regions.astype(np.int8), tris, tags.astype(np.int8), normals,
                config=config)
