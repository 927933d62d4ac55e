"""Build the cube-in-box mesh family and inspect its structure.

The fluid fills an outer box minus a strictly interior cube; the solid fills
the cube. Every grid hex splits into 6 tets with one fixed diagonal pattern,
so the fluid and solid triangulations share the interface faces exactly.
"""

import tempfile
from pathlib import Path

import numpy as np

from mlfsi import FLUID, SOLID, MeshConfig, build_mesh, interface_area, load_mesh, save_mesh

for n in (4, 8):
    mesh = build_mesh(MeshConfig(n=n))
    print(f"n={n}: {mesh.vertices.shape[0]} vertices, {mesh.tets.shape[0]} tets "
          f"({int((mesh.tet_regions == SOLID).sum())} solid)")
    print(f"   fluid volume {mesh.region_volume(FLUID):.15f} (exact 0.875)")
    print(f"   solid volume {mesh.region_volume(SOLID):.15f} (exact 0.125)")
    print(f"   interface area {interface_area(mesh):.15f} (exact 1.5)")

mesh = build_mesh(MeshConfig(n=4))
with tempfile.TemporaryDirectory() as tmp:
    save_mesh(mesh, Path(tmp) / "mesh.txt")
    back = load_mesh(Path(tmp) / "mesh.txt")
print("round trip exact:", np.array_equal(back.vertices, mesh.vertices))

# Normals on the interface point from the fluid into the solid.
sel = mesh.tri_tags != 0
centers = mesh.vertices[mesh.tris[sel]].mean(axis=1)
dots = np.einsum("td,td->t", mesh.tri_normals[sel], 0.5 - centers)
print("all interface normals point into the solid:", bool(np.all(dots > 0)))
