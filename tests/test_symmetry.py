"""The mesh's symmetry group: every matrix commutes with the unknowns'
permutation under each map of the grid that sends the mesh to itself.

The candidate maps are the 6 axis permutations, each with and without central
inversion x -> lo + hi - x, acting on the integer grid indices of the
vertices. Single-axis reflections are not candidates: they do not preserve
the Kuhn split. The default geometry, a cube centred in a cubic box, keeps
all 12 (a group S3 x Z2). The matrices commute to rounding, not bit for bit.
"""

import itertools

import numpy as np
import pytest

from mlfsi.assembly import ElementTable, build_system
from mlfsi.geometry import FLUID, MeshConfig, build_mesh

from mutants import mutant

BLOCKS = ("M_f", "K_f", "M_s", "K_s", "M_G", "K_G", "M", "A")
COMMUTE_TOL = 1e-14
# The cube's three axis intervals differ, and none mirrors another through the box centre.
OFF_CENTRE_CONFIG = MeshConfig(inner_lo=(0.125, 0.25, 0.5), inner_hi=(0.375, 0.5, 0.75), n=8)


def grid_maps(mesh):
    """The candidate maps that send each tet to a tet of the same region, each
    as the array p that sends vertex v to vertex p[v]."""
    index = np.stack([np.unique(c, return_inverse=True)[1] for c in mesh.vertices.T], axis=1)
    size = index.max(axis=0) + 1
    vertex_at = np.full(size, -1)
    vertex_at[tuple(index.T)] = np.arange(len(index))
    assert np.all(vertex_at >= 0), "a grid point carries no vertex"

    def tet_set(tets):
        return np.unique(np.column_stack([np.sort(tets, axis=1), mesh.tet_regions]), axis=0)

    reference, maps = tet_set(mesh.tets), []
    for axes, invert in itertools.product(itertools.permutations(range(3)), (False, True)):
        if np.any(size[list(axes)] != size):
            continue
        image = index[:, axes]
        if invert:
            image = size - 1 - image
        p = vertex_at[tuple(image.T)]
        if np.array_equal(tet_set(p[mesh.tets]), reference):
            maps.append(p)
    return maps


def unknown_permutation(p, vertex_blocks):
    """perm with (P x)[i] = x[perm[i]] for a vector of consecutive blocks, the
    unknowns of block k on the mesh vertices ``vertex_blocks[k]``."""
    perm, offset = [], 0
    for block in vertex_blocks:
        position = np.full(p.size, -1)
        position[block] = np.arange(block.size)
        moved = position[p[block]]
        assert np.all(moved >= 0), "the map moves an unknown out of its block"
        perm.append(offset + moved)
        offset += block.size
    return np.concatenate(perm)


def worst_commutators(sys, maps):
    """max over ``maps`` of max|P X P^T - X| / max|X| for each of BLOCKS."""
    dof = sys.dof
    state = [dof.fluid_free, dof.solid_interior, dof.interface, dof.solid_interior]
    vertex_blocks = {"M_f": [dof.fluid_free], "K_f": [dof.fluid_free],
                     "M_s": [dof.solid_all], "K_s": [dof.solid_all],
                     "M_G": [dof.interface], "K_G": [dof.interface], "M": state, "A": state}
    worst = {}
    for name in BLOCKS:
        X = getattr(sys, name).tocsr()
        perms = (unknown_permutation(p, vertex_blocks[name]) for p in maps)
        worst[name] = max(abs(X[perm][:, perm] - X).max() / abs(X).max() for perm in perms)
    return worst


@pytest.mark.parametrize("n", [4, 8])
def test_every_matrix_commutes_with_the_mesh_symmetries(n):
    mesh = build_mesh(MeshConfig(n=n))
    maps = grid_maps(mesh)
    assert len(maps) == 12
    worst = worst_commutators(build_system(mesh), maps)
    assert {name: w for name, w in worst.items() if w > COMMUTE_TOL} == {}


def test_an_off_centre_cube_keeps_only_the_identity():
    maps = grid_maps(build_mesh(OFF_CENTRE_CONFIG))
    assert len(maps) == 1
    assert np.array_equal(maps[0], np.arange(maps[0].size))


def test_commutation_fails_when_one_octant_dissipates_twice(default_sys):
    # K_f doubled on the fluid tets of the octant at the box's lower corner:
    # K_f and A stop commuting, every other matrix still does.
    mesh = default_sys.mesh
    fluid = mesh.tets[mesh.tet_regions == FLUID]
    centre = (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0)) / 2
    octant = np.all(mesh.vertices[fluid].mean(axis=1) < centre, axis=1)
    extra = ElementTable(mesh.vertices, fluid[octant], default_sys.dof.fluid_free).K
    skewed = mutant(mesh, K_f=(default_sys.K_f + extra).tocsr())
    worst = worst_commutators(skewed, grid_maps(mesh))
    assert {name for name, w in worst.items() if w > COMMUTE_TOL} == {"K_f", "A"}
