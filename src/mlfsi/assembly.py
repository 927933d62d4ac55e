"""P1 finite element assembly of the coupled heat / surface-wave / interior-wave system.

State layout (one flat vector), velocities v = (u, w1) before displacements d = (h0, w0):

    x = [ u (fluid interior + interface) | w1 (solid interior) | h0 (interface) | w0 (solid interior) ]

The interface block of u doubles as the surface velocity and as the trace of
the interior-wave velocity; the interface block of the interior-wave
displacement is h0 itself. Each velocity thus pairs with its kinematic
displacement: u on the interface with h0, w1 with w0. Solid blocks are
indexed [interface, solid interior], so the interior-wave displacement is
d = x[n_v:] and its velocity x[n_fi:n_v], both in the order of M_s and K_s.
`SystemMatrices.kinematic` builds M and A from the blocks as that kinematic
split, so the kinematic constraints hold by construction and M equals the
Gram matrix of the energy inner product: the semi-discrete system
M x' = A x satisfies the exact algebraic dissipation identity
Re(x^H A x) = -u^H K_f u.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_tocsr

from .geometry import FLUID, GAMMA_F, SOLID, Mesh, _tet_kernel, _tri_kernel
from .linalg import Factorization, nested_dissection


# Exact P1 element mass per unit measure: (1 + delta_ij) / 20 on a tet,
# (1 + delta_ij) / 12 on a triangle.
_TET_MASS = (np.ones((4, 4)) + np.eye(4)) / 20.0
_TRI_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _csr_pattern(n, rows, cols, entry):
    """The (n, n) CSR pattern of int32 entries (rows, cols) as scipy builds it:
    ``indptr``, ``indices`` and ``entry`` in their order. `coo_tocsr` buckets
    by row and `sort_indices` sorts each row by column, moving an entry only
    within its row; duplicates stay, side by side."""
    indptr, indices, order = np.empty(n + 1, np.int32), np.empty_like(cols), np.empty_like(entry)
    coo_tocsr(n, n, entry.size, rows, cols, entry, indptr, indices, order)
    sp.csr_matrix((order, indices, indptr), shape=(n, n)).sort_indices()     # in place
    return indptr, indices, order


def _scatter(local, shape, n, mass, stiff):
    """The (n, n) CSR mass and stiffness of the (shapes, k, k) per-shape
    tables ``mass`` and ``stiff``, scattered through the block indices
    ``local`` (m, k) of m simplices of int32 ``shape``. Every entry touching
    a -1 of ``local`` is dropped.

    Entry (i, j) of simplex t is entry shape[t] * k^2 + i * k + j of a flat
    table. One mask ``keep`` of the m k^2 entries filters the row, column
    and entry arrays each as it is formed, so at most one unfiltered array
    is alive beside the kept ones. `_csr_pattern` orders the int32 entry
    indices once; each matrix gathers its table in that order and
    `sum_duplicates` sums it, so both have the bits of
    ``coo_matrix((table.ravel()[entry], (rows, cols))).tocsr()``.
    """
    k = local.shape[1]
    valid = local >= 0
    keep = (np.repeat(valid, k, axis=1) & np.tile(valid, (1, k))).ravel()
    rows = np.repeat(local, k, axis=1).ravel()[keep]
    cols = np.tile(local, (1, k)).ravel()[keep]
    entry = (shape[:, None] * np.int32(k * k) + np.arange(k * k, dtype=np.int32)).ravel()[keep]
    del valid, keep
    indptr, indices, order = _csr_pattern(n, rows, cols, entry)
    del rows, cols, entry
    M = sp.csr_matrix((mass.ravel()[order], indices.copy(), indptr.copy()), shape=(n, n))
    M.sum_duplicates()
    K = sp.csr_matrix((stiff.ravel()[order], indices, indptr), shape=(n, n))
    del order
    K.sum_duplicates()
    return M, K


class ElementTable:
    """The simplices of one region, mapped once to the indices of a block.

    ``block`` lists the mesh vertices of the block in block order; ``local``
    holds each simplex's block indices, -1 at a vertex outside the block (the
    outer boundary). The element kernel runs once, on every simplex, and
    returns its values per distinct shape: on the structured grid 6 tet
    shapes at dyadic n, 162 solid and 1296 over all tets at n=24. The table
    keeps only those per-shape values, one row per shape: ``measure``
    (volume or area), ``grads`` (barycentric gradients) and ``mass`` (exact
    P1 mass), with each simplex's int32 index ``shape`` into them and the
    region's ``simplices``, so ``grads[shape]`` is the per-element table.
    ``M`` and ``K`` are the mass and stiffness in block order as canonical
    CSR, every entry that touches a -1 dropped: `_scatter` buckets and sorts
    one pattern of entry indices once, gathers each flat per-shape table in
    its order and lets scipy's `sum_duplicates` sum it, so both have the
    bytes of `coo_matrix.tocsr()`. The pattern's row, column and entry
    arrays live only inside `_scatter`, which filters each as it is formed,
    so the fluid table never holds the full triples beside filtered copies.
    The kernels read the vertex columns of ``simplices`` directly, with no
    per-element coordinate gather.
    """

    def __init__(self, vertices, simplices, block):
        if simplices.shape[0] == 0:
            raise ValueError("region has no elements")
        self.vertices, self.simplices = vertices, simplices
        # int32 is scipy's index type at these sizes: the scatter copies no index array.
        to_block = np.full(vertices.shape[0], -1, dtype=np.int32)
        to_block[block] = np.arange(block.size)
        self.local = to_block[simplices]
        tets = simplices.shape[1] == 4
        kernel, unit_mass = (_tet_kernel, _TET_MASS) if tets else (_tri_kernel, _TRI_MASS)
        self.measure, self.grads, self.shape = kernel(vertices, simplices)
        self.mass = self.measure[:, None, None] * unit_mass
        stiff = np.einsum("tid,tjd,t->tij", self.grads, self.grads, self.measure)
        self.M, self.K = _scatter(self.local, self.shape, block.size, self.mass, stiff)


@dataclass(frozen=True)
class DofMap:
    """Vertex index partitions and the sizes of the flat state layout built on them.

    Interface vertices are exactly the vertices of the interface triangles.
    Outer-boundary vertices carry no unknown. Fluid blocks are indexed
    [fluid interior, interface] and solid blocks [interface, solid interior],
    the orders in which u and the solid displacement d sit in the state.
    The state's blocks have sizes n_fi + n_i = n_u, n_s, n_i, n_s; n_v ends
    the velocities and ``total`` is the length of the vector.
    """

    fluid_interior: np.ndarray
    interface: np.ndarray
    solid_interior: np.ndarray

    @property
    def n_fi(self):
        return self.fluid_interior.size

    @property
    def n_i(self):
        return self.interface.size

    @property
    def n_s(self):
        return self.solid_interior.size

    @property
    def n_u(self):
        return self.n_fi + self.n_i

    @property
    def n_v(self):
        return self.n_u + self.n_s

    @property
    def total(self):
        return self.n_v + self.n_i + self.n_s

    @property
    def fluid_free(self):
        return np.concatenate([self.fluid_interior, self.interface])

    @property
    def solid_all(self):
        return np.concatenate([self.interface, self.solid_interior])


def _marked(nv, simplices, selected=slice(None)):
    """Mask of the vertices of ``simplices[selected]``, marked one column at a
    time so the selected rows are never copied whole."""
    mask = np.zeros(nv, dtype=bool)
    for column in simplices.T:
        mask[column[selected]] = True
    return mask


def build_dofmap(mesh: Mesh) -> DofMap:
    iface_tris = mesh.interface_tris()
    if iface_tris.shape[0] == 0:
        raise ValueError("mesh has no fluid/solid interface")
    nv = mesh.vertices.shape[0]
    outer = _marked(nv, mesh.tris, mesh.tri_tags == GAMMA_F)
    interface = _marked(nv, iface_tris)
    if np.any(outer & interface):
        raise ValueError("outer boundary touches the interface; geometry invalid")

    fluid = mesh.tet_regions == FLUID
    fluid_interior = _marked(nv, mesh.tets, fluid) & ~outer & ~interface
    solid_interior = _marked(nv, mesh.tets, ~fluid) & ~interface
    return DofMap(np.flatnonzero(fluid_interior), np.flatnonzero(interface),
                  np.flatnonzero(solid_interior))


@dataclass
class State:
    """Flat coefficient vector plus views on its blocks, indexed by the DofMap sizes.

    ``u`` and its interface block ``trace_u``; ``w1_full`` and ``w0_full``, the
    interior-wave velocity and displacement in the solid order, whose
    interface blocks are ``trace_u`` and ``h0`` and whose interior blocks are
    their [n_i:] slices.
    """

    dof: DofMap
    vec: np.ndarray

    @classmethod
    def zeros(cls, dof):
        return cls(dof, np.zeros(dof.total))

    @classmethod
    def random(cls, dof, seed):
        return cls(dof, np.random.default_rng(seed).standard_normal(dof.total))

    @property
    def u(self):
        return self.vec[:self.dof.n_u]

    @property
    def h0(self):
        return self.vec[self.dof.n_v:self.dof.n_v + self.dof.n_i]

    @property
    def trace_u(self):
        return self.u[self.dof.n_fi:]

    @property
    def w0_full(self):
        return self.vec[self.dof.n_v:]

    @property
    def w1_full(self):
        return self.vec[self.dof.n_fi:self.dof.n_v]


def _placed(block, offset, n):
    """``block`` on the diagonal of an (n, n) zero matrix, from row and column ``offset``."""
    return sp.block_diag((sp.csr_matrix((offset, offset)), block,
                          sp.csr_matrix((n - offset - block.shape[0],) * 2)), format="csr")


class KinematicSplit:
    """M x' = A x on velocity unknowns v = x[:n_v] and kinematic displacement
    unknowns d = x[n_v:].

    The displacement rows read P d' = P E v, with P the SPD potential-energy
    Gram block and E v = v[n_fi:] (n_fi = n_v - |d|), both d and E v in the
    solid order [interface, solid interior]; the velocity rows read
    M_VV v' = -K v - E^T P d. `M` and `A` are diag(M_VV, P) and
    [[-K, -E^T P], [P E, 0]], with P E = (E^T P)^T. Its one shifted solve
    (`resolvent.ShiftedFactor`, the midpoint step among its uses) eliminates
    d in closed form and factors `shifted`, a matrix on v alone from M_VV,
    K and Q = E^T P E; ``EtP`` = E^T P is P below n_fi zero rows and Q is P
    on the diagonal from row and column n_fi, both placed, not multiplied.
    `solve_generator` applies A^{-1} M around LUs of K_ff = K[:n_fi, :n_fi]
    and P, each built per call and not kept. ``coords`` holds the vertex of
    each v unknown (d unknown j sits on that of v unknown n_fi + j); each LU
    takes the nested-dissection order of its unknowns' vertices, ``order``
    on v, with ``inverse`` its inverse permutation. The ordered pattern of
    M_VV, K and Q is the one shift-independent piece of the shifted LUs,
    built on first use and kept; a shift only writes values into it.
    """

    def __init__(self, M_VV, K, P, coords):
        self.M_VV, self.K, self.P = M_VV, K, P
        self.n_v, n_d = M_VV.shape[0], P.shape[0]
        self.n_fi = self.n_v - n_d
        self.EtP = sp.vstack([sp.csr_matrix((self.n_fi, n_d)), P], format="csr")
        self.Q = _placed(P, self.n_fi, self.n_v)
        self.coords = np.asarray(coords, dtype=float)
        self.order = nested_dissection(self.coords)
        self.inverse = np.argsort(self.order).astype(np.int32)
        self.inverse.flags.writeable = False

    def solve_generator(self, r):
        """x with A x = M r. The d rows give E v = r_d; the v rows then give
        v[:n_fi] from K_ff (an empty block when n_fi = 0) and P d from the
        rest. They serve one solve per seed, so the LUs are not kept."""
        n_fi, w = self.n_fi, self.M_VV @ r[:self.n_v]
        v = np.zeros_like(w)
        v[n_fi:] = r[self.n_v:]
        K_ff = Factorization(self.K[:n_fi, :n_fi], nested_dissection(self.coords[:n_fi]))
        v[:n_fi] = K_ff.solve(-(w + self.K @ v)[:n_fi])
        P = Factorization(self.P, nested_dissection(self.coords[n_fi:]))
        return np.concatenate([v, P.solve(-(w + self.K @ v)[n_fi:])])

    def shifted(self, s):
        """(s M_VV + K + Q / s)[order][:, order] as canonical CSC: s M_VV,
        then K added, then Q / s, written into the cached `_pattern` in the
        order of scipy's sparse sum, so it has that sum's bytes. An entry
        that sums to exactly zero, which scipy's sum would drop, stays stored."""
        indptr, indices, slots = self._pattern
        data = np.zeros(indices.size, np.result_type(self.M_VV.data, s))
        data[slots[0]] = self.M_VV.data * s
        data[slots[1]] += self.K.data
        data[slots[2]] += self.Q.data * (1.0 / s)
        return sp.csc_matrix((data, indices, indptr), shape=(self.n_v,) * 2)

    @cached_property
    def _pattern(self):
        """The canonical int32 CSC ``indptr`` and ``indices`` of the union of
        M_VV, K and Q in ``order``, and ``slots[b][e]``, the position there of
        stored entry e of block b. The CSC pattern is the CSR pattern of the
        transpose: `_csr_pattern` buckets every entry by its ordered column
        and sorts by row once, and the first entry at each position opens a
        slot. The blocks must be canonical CSR, else ValueError: scipy sorts
        a non-canonical matrix in place on many reads (``abs`` among them),
        away from its slots. The arrays are read-only; every shift shares them.
        """
        blocks = (self.M_VV, self.K, self.Q)
        if not all(b.has_canonical_format for b in blocks):
            raise ValueError("shifted matrix blocks must be canonical CSR")
        rows = np.concatenate([np.repeat(self.inverse, np.diff(b.indptr)) for b in blocks])
        cols = np.concatenate([self.inverse[b.indices] for b in blocks])
        entry = np.arange(rows.size, dtype=np.int32)
        indptr, indices, entry = _csr_pattern(self.n_v, cols, rows, entry)
        del rows, cols
        # An entry opens a slot unless it repeats the row of the one before it in its column.
        first = np.ones(indices.size, bool)
        first[1:] = indices[1:] != indices[:-1]
        first[indptr[:-1][np.diff(indptr) > 0]] = True
        count = np.cumsum(first, dtype=np.int32)
        slots = np.empty_like(entry)
        slots[entry] = count - 1
        indptr, indices = np.insert(count, 0, 0)[indptr], indices[first]
        for array in (slots, indptr, indices):
            array.flags.writeable = False
        return indptr, indices, np.split(slots, np.cumsum([b.indices.size for b in blocks[:-1]]))

    @cached_property
    def M(self):
        return sp.bmat([[self.M_VV, None], [None, self.P]], format="csr")

    @cached_property
    def A(self):
        return sp.bmat([[-self.K, -self.EtP], [self.EtP.T, None]], format="csr")


def _face_owner(tets, tris, nv):
    """Row of ``tets`` having each row of ``tris`` as a face, both indexing
    the same nv points.

    The triangle-by-tet product of the two int8 vertex incidences counts
    the vertices each pair shares; a 3 marks a tet holding the whole
    triangle. Raises ValueError unless each triangle has exactly one such
    tet, as a boundary face of the tets has.
    """
    def incidence(cells):
        return sp.csr_matrix((np.ones(cells.size, np.int8), cells.ravel(),
                              np.arange(0, cells.size + 1, cells.shape[1])), shape=(len(cells), nv))

    shared = (incidence(tris) @ incidence(tets).T.tocsr()).tocoo()
    tri, tet = shared.row[shared.data == 3], shared.col[shared.data == 3]
    if not np.array_equal(tri, np.arange(len(tris))):
        raise ValueError("an interface triangle is not a face of exactly one solid tetrahedron")
    return tet


class SystemMatrices:
    """The discretization of one mesh: blocks, the composite pair (M, A), and
    every frequency-independent piece derived from them.

    Only the DofMap is built up front. Each region's `ElementTable`, the
    blocks it scatters, the H1 Gram sums H1_G = K_G + M_G and
    H1_s = K_s + M_s, the kinematic split (which holds (M, A)) and each
    derived piece (the M_G LU, surface eigenbasis, Dirichlet map, interface
    owners) is built on first use, so a caller that needs only the solid
    side never assembles the fluid. Fluid matrices are indexed
    [fluid interior, interface], solid matrices [interface, solid interior],
    surface matrices by the interface. The solid and surface tables are kept,
    with the blocks they scatter, for the multiplier quadrature, so each
    element kernel runs once per region; they hold their values per shape
    and the quadrature gathers the per-element ones as it reads them. The
    fluid table, which nothing else reads, is dropped once its two blocks
    are scattered.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.dof = build_dofmap(mesh)

    @cached_property
    def _fluid(self):
        table = ElementTable(self.mesh.vertices, self.mesh.tets[self.mesh.tet_regions == FLUID],
                             self.dof.fluid_free)
        return table.M, table.K

    @cached_property
    def solid_table(self) -> ElementTable:
        return ElementTable(self.mesh.vertices, self.mesh.tets[self.mesh.tet_regions == SOLID],
                            self.dof.solid_all)

    @cached_property
    def mesh_h(self) -> float:
        """Longest edge of the solid tets, the h of the multiplier identities,
        as the longest `np.linalg.norm` of each of the 6 edges; each edge is
        the difference of two gathered vertex columns."""
        v, tets = self.mesh.vertices, self.solid_table.simplices
        return float(max(np.linalg.norm(v[tets[:, i]] - v[tets[:, j]], axis=1).max()
                         for i, j in itertools.combinations(range(4), 2)))

    @cached_property
    def surface_table(self) -> ElementTable:
        """All six cube faces share their edge and corner unknowns, which
        enforces displacement continuity and weak flux matching along edges."""
        return ElementTable(self.mesh.vertices, self.mesh.interface_tris(), self.dof.interface)

    @cached_property
    def interface_owner(self) -> np.ndarray:
        """Row of `solid_table` bounded by each row of `surface_table`, by
        `_face_owner`'s incidence product; the interface block leads the
        solid order, so both share local indices."""
        return _face_owner(self.solid_table.local, self.surface_table.local,
                           self.dof.n_i + self.dof.n_s)

    M_f = cached_property(lambda self: self._fluid[0])
    K_f = cached_property(lambda self: self._fluid[1])
    M_s = cached_property(lambda self: self.solid_table.M)
    K_s = cached_property(lambda self: self.solid_table.K)
    M_G = cached_property(lambda self: self.surface_table.M)
    K_G = cached_property(lambda self: self.surface_table.K)
    H1_G = cached_property(lambda self: (self.K_G + self.M_G).tocsr())
    H1_s = cached_property(lambda self: self.K_s + self.M_s)
    M = cached_property(lambda self: self.kinematic.M)
    A = cached_property(lambda self: self.kinematic.A)

    @cached_property
    def kinematic(self) -> KinematicSplit:
        """The first-order system of the blocks, as its kinematic split.

        The blocks are canonical CSR in block order, so every sum is too. On
        v = (u, w1), M_VV is M_f on u plus M_s + M_G on E v = v[n_fi:], and K
        is K_f on u; on d, P = K_s + H1_G, with H1_G on the leading interface
        block. The split orders v by the mesh vertex each unknown lives on.
        A block assigned on a fresh system before its first read (``sys.K_f
        = eps * K_f``) replaces the assembled one here and for every other
        reader: the Dirichlet map and the monitors. The multiplier
        quadrature reads `solid_table` and `surface_table` directly, not K_s
        or M_G.
        """
        dof = self.dof
        n_v, n_d = dof.n_v, dof.n_i + dof.n_s
        M_VV = (_placed(self.M_f, 0, n_v)
                + _placed(self.M_s + _placed(self.M_G, 0, n_d), dof.n_fi, n_v))
        K = _placed(self.K_f, 0, n_v)
        P = self.K_s + _placed(self.H1_G, 0, n_d)
        coords = self.mesh.vertices[np.concatenate([dof.fluid_free, dof.solid_interior])]
        return KinematicSplit(M_VV, K, P, coords)

    @cached_property
    def mass_g_factor(self) -> Factorization:
        return Factorization(self.M_G, nested_dissection(self.mesh.vertices[self.dof.interface]))

    @cached_property
    def surface_spectral(self) -> SurfaceSpectral:
        return SurfaceSpectral(self.H1_G, self.M_G)

    @cached_property
    def dirichlet_map(self):
        from .identities import DirichletMap     # identities builds on this module

        return DirichletMap(self)


def build_system(mesh: Mesh) -> SystemMatrices:
    """The discretization object of a mesh; its blocks assemble on first use."""
    return SystemMatrices(mesh)


def energy_norm(x: State, sys: SystemMatrices) -> float:
    """Norm of the energy inner product, sqrt(x^H M x)."""
    q = np.vdot(x.vec, sys.M @ x.vec).real
    return float(np.sqrt(max(q, 0.0)))


def fluid_gradient_norm(x: State, sys: SystemMatrices) -> float:
    """The dissipation seminorm |grad u| over the fluid region."""
    q = np.vdot(x.u, sys.K_f @ x.u).real
    return float(np.sqrt(max(q, 0.0)))


class SurfaceSpectral:
    """The surface H^{1/2} norm and its dual from the pencil (H1_G, M_G), H1_G = K_G + M_G.

    With generalized eigenpairs H1_G v_k = omega_k M_G v_k and the
    v_k M_G-orthonormal, a nodal surface function g has
    |g|_{1/2}^2 = sum_k omega_k^{1/2} |(V^T M_G g)_k|^2, and a load vector f
    (f_i = <F, phi_i>) has dual norm |F|_{-1/2}^2 = sum_k omega_k^{-1/2} |(V^T f)_k|^2.
    The dense pencil is factored in place: LAPACK's sygvd overwrites the
    Fortran-ordered dense copies of H1_G and M_G, V in the first, so no
    other dense copy is made, and the values are those of
    `scipy.linalg.eigh` on fresh copies.
    """

    def __init__(self, H1_G, M_G):
        omega, V = scipy.linalg.eigh(H1_G.toarray(order="F"), M_G.toarray(order="F"),
                                     overwrite_a=True, overwrite_b=True)
        omega = np.maximum(omega, 1e-14)
        self.weight, self.dual_weight = omega ** 0.5, omega ** -0.5
        self.V = V
        self.M_G = M_G

    def norm_function(self, g) -> float:
        c = self.V.T @ (self.M_G @ g)
        return float(np.sqrt((self.weight * np.abs(c) ** 2).sum()))

    def dual_norm(self, f) -> float:
        c = self.V.T @ f
        return float(np.sqrt((self.dual_weight * np.abs(c) ** 2).sum()))
