"""Structured tetrahedral meshes for a cube-in-box two-material geometry.

The fluid occupies an axis-aligned outer box minus a strictly interior
axis-aligned cube; the solid occupies the cube. Both regions are meshed
conformingly by splitting every grid hexahedron into 6 tetrahedra with the
same corner-to-corner diagonal pattern, so shared faces match across hexes
and across the fluid/solid interface. All tagging decisions are made in
integer grid-index space; floating point coordinates are never compared.

Two facts of this (Kuhn) split hold in closed form. The path tet of an axis
permutation p has vertices c, c + e_p0, c + e_p0 + e_p1, c + 1, so its signed
volume is sign(p) h^3 / 6, and the odd paths swap their last two vertices.
A cell's high face normal to an axis holds the faces (v1, v2, v3) of the 2
paths that step along the axis first; its low face, the faces (v0, v1, v2) of
the 2 that step along it last. So each boundary plane is read off its grid
squares without matching the faces of all tets.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

FLUID = 0
SOLID = 1

GAMMA_F = 0
# Interface face tags: 1 + 2*axis + (0 for the low face, 1 for the high face)
GAMMA_TAGS = (1, 2, 3, 4, 5, 6)

_HEADER = b"mlfsi-mesh 1\n"   # format name and version

# The most vertices `MeshConfig.validate` accepts, the largest count whose
# cube fits int64 (n = 126 on the unit box, not 127); far below 2**31, so
# every vertex id is int32.
MAX_VERTICES = 2**21 - 1

# The 6 tetrahedra of the corner-to-corner (Kuhn) split of a hex, as paths
# of axis steps from the low corner to the high corner.
_AXIS_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
# The odd permutations among them: their paths are negatively oriented.
_ODD_PERMS = (1, 2, 5)


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
        if not (math.isfinite(self.n) and self.n >= 1 and int(self.n) == self.n):
            raise MeshConfigError(f"n must be a positive integer, got {self.n!r}")
        for name, val in (("outer_lo", olo), ("outer_hi", ohi), ("inner_lo", ilo), ("inner_hi", ihi)):
            for axis in range(3):
                if not math.isfinite(val[axis]):
                    raise MeshConfigError(f"axis {axis}: {name} must be finite, got {val[axis]}")
        for axis in range(3):
            if not (olo[axis] < ilo[axis] < ihi[axis] < ohi[axis]):
                raise MeshConfigError(
                    f"axis {axis}: need outer_lo < inner_lo < inner_hi < outer_hi, "
                    f"got {olo[axis]} {ilo[axis]} {ihi[axis]} {ohi[axis]}"
                )
        with np.errstate(over="ignore"):
            cells = self.n * (ohi - olo)
        for axis in range(3):
            if not math.isfinite(cells[axis]):
                raise MeshConfigError(f"axis {axis}: n * (outer_hi - outer_lo) overflows float64")
        vertices = math.prod(int(c) + 1 for c in np.rint(cells))
        if vertices > MAX_VERTICES:
            raise MeshConfigError(f"n = {self.n} gives {vertices} vertices, "
                                  f"above MAX_VERTICES = {MAX_VERTICES}")
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
    `build_mesh` gives int32 ``tets`` and ``tris`` (`MeshConfig.validate`
    caps the vertex count at `MAX_VERTICES`) and int8 region and triangle tags.
    """

    vertices: np.ndarray          # (nv, 3) float64
    tets: np.ndarray              # (nt, 4) int32 vertex indices
    tet_regions: np.ndarray       # (nt,) int8, FLUID or SOLID
    tris: np.ndarray              # (nb, 3) int32 vertex indices
    tri_tags: np.ndarray          # (nb,) int8, GAMMA_F or 1..6
    tri_normals: np.ndarray       # (nb, 3) float64
    config: MeshConfig | None = field(default=None)

    def tet_volumes(self):
        vol, _, shape = _tet_kernel(self.vertices, self.tets)
        return vol[shape]

    def region_volume(self, region):
        vols = self.tet_volumes()
        return float(vols[self.tet_regions == region].sum())

    def tri_areas(self):
        return _tri_kernel(self.vertices, self.tris)[0]

    def interface_tris(self):
        return self.tris[self.tri_tags != GAMMA_F]


def _tet_kernel(vertices, tets):
    """Volumes and constant barycentric gradients of the affine tets
    ``vertices[tets]``, one row per distinct shape, and the int32 shape of
    each tet.

    The (m, 3, 3) edge matrices are differences of vertex gathers, one tet
    column at a time, so no (m, 4, 3) coordinate copy is made. Tets share a
    shape when their 9 entries have the same bytes (so -0.0 and 0.0
    differ), grouped by one `np.lexsort` over the entries' int64 view.
    LAPACK's det and inv run once per shape, and a tet's values are the row
    of its own: bit for bit as one call per tet. On the structured grid 6
    shapes serve all tets at dyadic n; at n=24 there are 162 among the solid
    tets and 1296 among all tets.
    """
    m = len(tets)
    d = np.empty((m, 3, 3))                      # edge matrix, rows v_a - v_0
    base = vertices[tets[:, 0]]
    for a in range(1, 4):
        np.subtract(vertices[tets[:, a]], base, out=d[:, a - 1])
    del base
    keys = d.reshape(m, 9).view(np.int64)
    order = np.lexsort(keys.T)
    new = np.zeros(m, bool)
    new[:1] = True
    for key in keys.T:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    shape = np.empty(m, np.int32)
    shape[order] = np.cumsum(new, dtype=np.int32) - 1
    d = d[order[new]]
    vol = np.linalg.det(d) / 6.0
    dinv = np.linalg.inv(d)                      # rows of dinv^T are grad(lambda_1..3)
    grads = np.empty((d.shape[0], 4, 3))
    grads[:, 1:, :] = np.transpose(dinv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return vol, grads, shape


def _tri_kernel(vertices, tris):
    """Areas and in-plane barycentric gradients of the flat triangles
    ``vertices[tris]`` embedded in 3D: one shape per triangle."""
    p0, p1, p2 = (vertices[tris[:, a]] for a in range(3))
    nrm = np.cross(p1 - p0, p2 - p0)
    area2 = np.linalg.norm(nrm, axis=1)          # = 2 * area
    nhat = nrm / area2[:, None]
    # In-plane gradients: grad(lambda_i) = nhat x (opposite edge) / (2 area)
    opp = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    grads = np.cross(nhat[:, None, :], opp) / area2[:, None, None]
    return 0.5 * area2, grads, np.arange(len(tris), dtype=np.int32)


def build_mesh(config: MeshConfig) -> Mesh:
    """Mesh the cube-in-box geometry; raises MeshConfigError on misalignment.

    Tet orientation and boundary triangles are the closed forms of the module
    docstring: no determinant, and no sort over the faces of all tets."""
    cells, ilo, ihi = config.grid_counts()
    h = 1.0 / config.n
    # Grid points and cells in C order: vertex id = ravel_multi_index(ijk, cells + 1).
    # `MeshConfig.validate` caps the vertex count at MAX_VERTICES, so every
    # index is int32 from the start: corners, strides, paths and tets.
    grid = np.indices(cells + 1, dtype=np.int32).reshape(3, -1).T
    vertices = np.asarray(config.outer_lo, float) + grid * h
    corner = np.indices(cells, dtype=np.int32).reshape(3, -1).T    # low grid corner of each cell
    solid_cell = np.all((corner >= ilo) & (corner < ihi), axis=1)

    # Kuhn split: each tet is a monotone path of axis steps low corner -> high corner.
    # Row t of ``paths`` offsets the vertices of path tet t from its cell's
    # low corner; for positive orientation an odd path swaps its last two.
    stride = np.array([(cells[1] + 1) * (cells[2] + 1), cells[2] + 1, 1], np.int32)
    paths = np.cumsum(np.c_[np.zeros(6, np.int32), stride[np.array(_AXIS_PERMS)]], axis=1,
                      dtype=np.int32)
    paths[_ODD_PERMS, 2:] = paths[_ODD_PERMS, :1:-1]
    tets = ((corner @ stride)[:, None, None] + paths).reshape(-1, 4)
    regions = np.repeat(np.where(solid_cell, np.int8(SOLID), np.int8(FLUID)), 6)

    # Outer-box faces, normal out of the fluid, then cube faces, normal into
    # the solid, tagged 1 + 2*axis + side. A group's box bounds both its
    # planes and the squares they hold.
    tris, tags, normals = [], [], []
    for outer, (lo, hi) in ((True, (np.zeros(3, int), cells)), (False, (ilo, ihi))):
        for axis in range(3):
            for side, plane in enumerate((lo[axis], hi[axis])):
                faces = _plane_faces(tets, cells, axis, plane, lo, hi)
                tris.append(faces)
                tags.append(np.full(len(faces), GAMMA_F if outer else 1 + 2 * axis + side, np.int8))
                normals.append(np.zeros((len(faces), 3)))
                normals[-1][:, axis] = (2 * side - 1) * (1.0 if outer else -1.0)
    tris, tags, normals = (np.concatenate(a) for a in (tris, tags, normals))
    return Mesh(vertices, tets, regions, tris, tags, normals, config=config)


def _plane_faces(tets, cells, axis, plane, lo, hi):
    """The 2 triangles per square lo <= index < hi of grid ``plane`` normal to
    ``axis``, each as its lowest-index owner tet stores it: the cell below the
    plane owns it, except on the plane at index 0. Faces are ordered by their
    vertex triples sorted ascending, compared lexicographically."""
    span = [range(a, b) for a, b in zip(lo, hi)]
    span[axis] = [max(plane - 1, 0)]
    cell = np.ravel_multi_index(np.meshgrid(*span, indexing="ij"), cells).ravel()
    faces = []
    for t, perm in enumerate(_AXIS_PERMS):
        if plane > 0 and perm[0] == axis:     # first step along axis: v1, v2, v3 on the plane
            faces.append(tets[6 * cell + t, 1:])
        elif plane == 0 and perm[2] == axis:  # last step along axis: v0, v1, v2 on the plane
            faces.append(tets[6 * cell + t][:, [0, 1, 3 if t in _ODD_PERMS else 2]])
    faces = np.concatenate(faces)
    return faces[np.lexsort(np.sort(faces, axis=1).T[::-1])]


def interface_area(mesh: Mesh) -> float:
    """Total area of the fluid/solid interface triangles."""
    areas = mesh.tri_areas()[mesh.tri_tags != GAMMA_F]
    if not areas.size:
        raise ValueError("mesh has no interface triangles")
    return float(areas.sum())


# Rows per write: bounds the writer's transient buffers, whatever the mesh size.
_CHUNK_ROWS = 1 << 16


def _text_table(a):
    """(table, index): ``table[index]`` is the text of each entry of ``a``,
    as NUL-padded bytes. Integers index one table over their span, whose
    text is ``%d``'s, built one column of decimal digits at a time and
    right-aligned after the NULs. Floats are formatted ``%.17g`` once per
    distinct bit pattern, not value, so that -0.0 and 0.0 keep their own text."""
    if a.dtype.kind == "f":
        bits, index = np.unique(np.ascontiguousarray(a, np.float64).view(np.uint64),
                                return_inverse=True)
        text = [b"%.17g" % x for x in bits.view(np.float64).tolist()]
        return np.array(text), index.reshape(a.shape)
    lo, hi = int(a.min()), int(a.max())
    width = max(len(str(lo)), len(str(hi)))          # the widest text in [lo, hi]
    values = np.arange(lo, hi + 1)
    rest = np.abs(values)
    text = np.zeros((values.size, width), np.uint8)
    for column in range(width - 1, -1, -1):          # least significant digit first
        text[:, column] = np.where((rest > 0) | (column == width - 1), rest % 10 + ord("0"), 0)
        rest //= 10
    negative = np.flatnonzero(values < 0)            # '-' in the NUL before the first digit
    text[negative, np.count_nonzero(text[negative] == 0, axis=1) - 1] = ord("-")
    return text.view(f"S{width}").ravel(), a if lo == 0 else a - lo


def _block(fh, tag, *parts):
    """Block ``tag``: its count line, then one line per row of the 2-D
    ``parts`` side by side, fields separated by single spaces.

    Each part formats through one `_text_table`. A record of NUL-padded
    fields and separators gathers ``_CHUNK_ROWS`` rows at a time from the
    tables; its bytes, NULs dropped, are the lines.
    """
    rows = len(parts[0])
    fh.write(b"%s %d\n" % (tag.encode(), rows))
    if not rows:
        return
    cells = [(table, index[:, k]) for table, index in map(_text_table, parts)
             for k in range(index.shape[1])]
    record = np.dtype([(f"{kind}{k}", f"S{size}") for k, (table, _) in enumerate(cells)
                       for kind, size in (("v", table.itemsize), ("s", 1))])
    buf = np.empty(min(rows, _CHUNK_ROWS), record)
    for k in range(len(cells)):
        buf[f"s{k}"] = b" " if k < len(cells) - 1 else b"\n"
    for start in range(0, rows, buf.size):
        chunk = buf[:rows - start]
        for k, (table, index) in enumerate(cells):
            chunk[f"v{k}"] = table[index[start:start + chunk.size]]
        fh.write(chunk.tobytes().translate(None, b"\0"))


def save_mesh(mesh: Mesh, path):
    """Versioned text dump; float columns round-trip bit-exactly."""
    with open(path, "wb") as fh:
        _write(fh, mesh)


def _write(fh, mesh):
    """Dump ``mesh`` to the binary file ``fh``. Every block formats each
    distinct number once into a text table and writes its rows as gathers
    from it, in fixed-size chunks (`_block`)."""
    fh.write(_HEADER)
    if mesh.config is not None:
        c = mesh.config
        fh.write((("config" + " %.17g" * 12 + " %d\n")
                  % (*c.outer_lo, *c.outer_hi, *c.inner_lo, *c.inner_hi, c.n)).encode())
    _block(fh, "vertices", mesh.vertices)
    _block(fh, "tets", mesh.tets, mesh.tet_regions[:, None])
    _block(fh, "tris", mesh.tris, mesh.tri_tags[:, None], mesh.tri_normals)


def load_mesh(path) -> Mesh:
    """Read a ``save_mesh`` dump of ``build_mesh(config)``: the file must equal,
    byte for byte, the dump of the mesh of its config line. Raises ValueError
    on an unknown header; on a config line that is missing, does not parse or
    validate, or whose mesh needs more bytes than the file holds (checked
    before building); and on the first line that differs, naming its block and
    1-based line and quoting what was read and what the config's mesh has."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, _, rest = data.partition(b"\n")
    if header + b"\n" != _HEADER:
        raise ValueError(f"unsupported mesh file header: {header.decode(errors='replace')!r}")
    line = rest.partition(b"\n")[0].decode(errors="replace")
    try:
        parts = line.split()
        if parts[:1] != ["config"]:
            raise ValueError(f"expected 'config' and 13 fields, got {line[:60]!r}")
        if len(parts) != 14:
            raise ValueError(f"expected 13 fields, got {len(parts) - 1}")
        f = [float(x) for x in parts[1:13]]
        config = MeshConfig(*(tuple(f[k:k + 3]) for k in (0, 3, 6, 9)), int(parts[13]))
        tets = 6 * math.prod(config.grid_counts()[0].tolist())
        if len(data) < 10 * tets:           # a tets row is at least "0 1 2 3 0\n"
            raise ValueError(f"its mesh has {tets} tets, at least {10 * tets} bytes, "
                             f"but the file holds {len(data)} bytes")
    except ValueError as exc:
        raise ValueError(f"config block, line 2: {exc}") from None
    mesh = build_mesh(config)
    buf = io.BytesIO()
    _write(buf, mesh)
    want = buf.getvalue()
    if data == want:
        return mesh
    n = min(len(data), len(want))
    differs = np.flatnonzero(np.frombuffer(data, np.uint8, n) != np.frombuffer(want, np.uint8, n))
    start = data.rfind(b"\n", 0, differs[0] if differs.size else n) + 1   # same in both
    number = data.count(b"\n", 0, start) + 1
    heads = np.cumsum([2, 1, 1 + len(mesh.vertices), 1 + len(mesh.tets)])
    block = ("config", "vertices", "tets", "tris")[np.searchsorted(heads, number, "right") - 1]
    raise ValueError(f"{block} block, line {number}: read {_quote(data, start)}, "
                     f"the config's mesh has {_quote(want, start)}")


def _quote(data, start):
    """The line of ``data`` at ``start``, line break included, quoted and cut
    to 60 characters; 'end of file' past the end."""
    text = data[start:start + 61].decode(errors="replace")
    text = text[:text.find("\n") + 1] or text
    return repr(text[:60] + "..." if len(text) > 60 else text) if text else "end of file"
