"""P1 finite element assembly of the coupled heat / surface-wave / interior-wave system.

State layout (one flat vector):

    x = [ u (fluid interior + interface) | h0 (interface) | w0 (solid interior) | w1 (solid interior) ]

The interface block of u doubles as the surface velocity and as the trace of
the interior-wave velocity; the interface block of the interior-wave
displacement is h0 itself. With that sharing, the kinematic constraints hold
by construction and the composite mass matrix M equals the Gram matrix of the
energy inner product, so the semi-discrete system M x' = A x satisfies the
exact algebraic dissipation identity Re(x^H A x) = -u^H K_f u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .geometry import FLUID, GAMMA_F, SOLID, TET_FACES, Mesh, face_keys
from .linalg import Factorization, nested_dissection


# Exact P1 element mass per unit measure: (1 + delta_ij) / 20 on a tet,
# (1 + delta_ij) / 12 on a triangle.
_TET_MASS = (np.ones((4, 4)) + np.eye(4)) / 20.0
_TRI_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _tet_kernel(p):
    """Volumes, constant barycentric gradients and exact P1 mass of affine
    tets with vertex coordinates p, (m, 4, 3)."""
    d = p[:, 1:] - p[:, :1]                      # (m, 3, 3) edge matrix
    vol = np.linalg.det(d) / 6.0
    dinv = np.linalg.inv(d)                      # rows of dinv^T are grad(lambda_1..3)
    grads = np.empty((p.shape[0], 4, 3))
    grads[:, 1:, :] = np.transpose(dinv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return vol, grads, vol[:, None, None] * _TET_MASS


def _tri_kernel(pts):
    """Areas, exact P1 mass and stiffness of flat triangles embedded in 3D."""
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    nrm = np.cross(e1, e2)
    area2 = np.linalg.norm(nrm, axis=1)          # = 2 * area
    nhat = nrm / area2[:, None]
    # In-plane gradients: grad(lambda_i) = nhat x (opposite edge) / (2 area)
    opp = np.stack([pts[:, 2] - pts[:, 1], pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 0]], axis=1)
    grads = np.cross(nhat[:, None, :], opp) / area2[:, None, None]
    area = 0.5 * area2
    ke = np.einsum("tid,tjd,t->tij", grads, grads, area)
    return area, area[:, None, None] * _TRI_MASS, ke


def _scatter(elems, nv, *element_matrices):
    """Global (nv, nv) CSR matrices from per-element matrices on ``elems``."""
    k = elems.shape[1]
    rows = np.repeat(elems, k, axis=1).ravel()
    cols = np.tile(elems, (1, k)).ravel()
    return tuple(
        sp.coo_matrix((e.ravel(), (rows, cols)), shape=(nv, nv)).tocsr() for e in element_matrices
    )


def assemble_volume(mesh: Mesh, region) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """P1 mass and stiffness over the tagged region, indexed by mesh vertex.

    Element integrals are exact: the mass matrix uses the closed form
    (V/20)(1 + delta_ij), the stiffness uses the constant barycentric
    gradients of the affine element.
    """
    keep = mesh.tet_regions == region
    if not np.any(keep):
        raise ValueError(f"region {region} has no tetrahedra")
    tets = mesh.tets[keep]
    vol, grads, me = _tet_kernel(mesh.vertices[tets])
    ke = np.einsum("tid,tjd,t->tij", grads, grads, vol)
    return _scatter(tets, mesh.vertices.shape[0], me, ke)


def assemble_surface(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """P1 mass and surface-Laplacian stiffness over the interface triangulation.

    All six cube faces assemble into shared vertex unknowns, which is what
    enforces displacement continuity and weak flux matching along face edges.
    Indexed by mesh vertex; rows away from the interface are zero.
    """
    tris = mesh.interface_tris()
    if tris.shape[0] == 0:
        raise ValueError("mesh has no interface triangles")
    _, me, ke = _tri_kernel(mesh.vertices[tris])
    return _scatter(tris, mesh.vertices.shape[0], me, ke)


@dataclass(frozen=True)
class DofMap:
    """Vertex index partitions and the flat state layout built on them.

    Interface vertices are exactly the vertices of the interface triangles.
    Outer-boundary vertices carry no unknown.
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
    def total(self):
        return self.n_u + self.n_i + 2 * self.n_s

    @property
    def fluid_free(self):
        return np.concatenate([self.fluid_interior, self.interface])

    @property
    def solid_all(self):
        return np.concatenate([self.solid_interior, self.interface])

    @property
    def slice_u(self):
        return slice(0, self.n_u)

    @property
    def slice_h0(self):
        return slice(self.n_u, self.n_u + self.n_i)

    @property
    def slice_w0(self):
        return slice(self.n_u + self.n_i, self.n_u + self.n_i + self.n_s)

    @property
    def slice_w1(self):
        return slice(self.n_u + self.n_i + self.n_s, self.total)


def build_dofmap(mesh: Mesh) -> DofMap:
    iface_tris = mesh.interface_tris()
    if iface_tris.shape[0] == 0:
        raise ValueError("mesh has no fluid/solid interface")
    outer = np.unique(mesh.tris[mesh.tri_tags == GAMMA_F])
    interface = np.unique(iface_tris)
    if np.intersect1d(outer, interface).size:
        raise ValueError("outer boundary touches the interface; geometry invalid")

    fluid_verts = np.unique(mesh.tets[mesh.tet_regions == FLUID])
    solid_verts = np.unique(mesh.tets[mesh.tet_regions != FLUID])
    fluid_interior = np.setdiff1d(fluid_verts, np.union1d(outer, interface))
    solid_interior = np.setdiff1d(solid_verts, interface)
    return DofMap(fluid_interior, interface, solid_interior)


@dataclass
class State:
    """Flat coefficient vector plus views on its blocks."""

    dof: DofMap
    vec: np.ndarray

    @classmethod
    def zeros(cls, dof, dtype=float):
        return cls(dof, np.zeros(dof.total, dtype=dtype))

    @classmethod
    def random(cls, dof, seed):
        return cls(dof, np.random.default_rng(seed).standard_normal(dof.total))

    @property
    def u(self):
        return self.vec[self.dof.slice_u]

    @property
    def h0(self):
        return self.vec[self.dof.slice_h0]

    @property
    def w0_int(self):
        return self.vec[self.dof.slice_w0]

    @property
    def w1_int(self):
        return self.vec[self.dof.slice_w1]

    @property
    def trace_u(self):
        return self.u[self.dof.n_fi:]

    @property
    def w0_full(self):
        return np.concatenate([self.w0_int, self.h0])

    @property
    def w1_full(self):
        return np.concatenate([self.w1_int, self.trace_u])

    def copy(self):
        return State(self.dof, self.vec.copy())


def _embed(block, row_off, col_off, shape):
    coo = sp.coo_matrix(block)
    return sp.coo_matrix(
        (coo.data, (coo.row + row_off, coo.col + col_off)), shape=shape
    )


def compose_first_order(dof: DofMap, M_f, K_f, M_G, K_G, M_s, K_s):
    """Composite (M, A) of the first-order system from the restricted blocks.

    M is the Gram matrix of the energy inner product on the shared-trace
    layout; the kinematic rows are premultiplied by the corresponding Gram
    blocks so they fit the same M x' = A x shape.
    """
    n_fi, n_i, n_s, n_u = dof.n_fi, dof.n_i, dof.n_s, dof.n_u
    s_int = slice(0, n_s)
    s_ifc = slice(n_s, n_s + n_i)

    Ms_II = M_s[s_int, s_int]
    Ms_GI, Ms_GG = M_s[s_ifc, s_int], M_s[s_ifc, s_ifc]
    Ks_II, Ks_IG = K_s[s_int, s_int], K_s[s_int, s_ifc]
    Ks_GI, Ks_GG = K_s[s_ifc, s_int], K_s[s_ifc, s_ifc]
    S_G = (K_G + M_G).tocsr()

    G_uu = (M_f + _embed(M_G + Ms_GG, n_fi, n_fi, (n_u, n_u))).tocsr()
    G_uw1 = _embed(Ms_GI, n_fi, 0, (n_u, n_s)).tocsr()
    G_h0h0 = (S_G + Ks_GG).tocsr()

    M = sp.bmat(
        [
            [G_uu, None, None, G_uw1],
            [None, G_h0h0, Ks_GI, None],
            [None, Ks_IG, Ks_II, None],
            [G_uw1.T, None, None, Ms_II],
        ],
        format="csr",
    )

    A = sp.bmat(
        [
            [-K_f, _embed(-G_h0h0, n_fi, 0, (n_u, n_i)), _embed(-Ks_GI, n_fi, 0, (n_u, n_s)), None],
            [_embed(G_h0h0, 0, n_fi, (n_i, n_u)), None, None, Ks_GI],
            [_embed(Ks_IG, 0, n_fi, (n_s, n_u)), None, None, Ks_II],
            [None, -Ks_IG, -Ks_II, None],
        ],
        format="csr",
    )
    return M, A


class KinematicSplit:
    """(M, A) split into kinematic displacement unknowns d and velocity unknowns v.

    The displacement rows of the first-order system read P d' = P E v, with
    P = M[d, d] the SPD potential-energy Gram block and E the selection
    (E v)_k = v[e[k]]; the velocity rows couple back through
    A[V, d] = -E^T P, with A[d, d] = 0 and M[V, d] = 0. The constructor
    checks these four identities exactly (bit for bit) and raises
    ``ValueError`` if one fails. Every shifted and midpoint solve then
    eliminates d in closed form and factors a matrix on v alone, built from

        M_VV = M[V, V],  K = -A[V, V],  EtP = E^T P,  Q = E^T P E.

    ``d`` lists the displacement positions in the state; v is the rest, in
    state order. ``order`` is the symmetric fill-reducing order of the v
    unknowns that every `Factorization` on them uses.
    """

    def __init__(self, M, A, d, e, order):
        M, A = sp.csr_matrix(M), sp.csr_matrix(A)
        self.d = np.asarray(d, dtype=np.int64)
        self.v = np.setdiff1d(np.arange(M.shape[0]), self.d)
        self.e = np.asarray(e, dtype=np.int64)
        d, v = self.d, self.v
        E = sp.csr_matrix((np.ones(d.size), (np.arange(d.size), self.e)), shape=(d.size, v.size))
        P = M[d][:, d]
        self.EtP = (E.T @ P).tocsr()
        identities = {
            "A[d, V] = P E": A[d][:, v] != P @ E,
            "A[V, d] = -E^T P": A[v][:, d] != -self.EtP,
            "A[d, d] = 0": A[d][:, d],
            "M[V, d] = M[d, V]^T = 0": abs(M[v][:, d]) + abs(M[d][:, v].T),
        }
        for name, mismatch in identities.items():
            if mismatch.count_nonzero():
                raise ValueError(f"the kinematic rows do not split: {name} fails")
        self.M_VV = M[v][:, v].tocsr()
        self.K = (-A[v][:, v]).tocsr()
        self.Q = (self.EtP @ E).tocsr()
        self.order = np.asarray(order, dtype=np.int64)


def kinematic_split(dof: DofMap, M, A, vertices) -> KinematicSplit:
    """The split of a pair (M, A) on the shared-trace layout of ``dof``.

    d = (h0, w0) and v = (u, w1); E maps u on the interface to h0 and w1 to
    w0. Each v unknown lives on its own mesh vertex (every vertex off the
    outer boundary), and the v unknowns are ordered by nested dissection of
    those vertices' coordinates.
    """
    d = np.arange(dof.n_u, dof.n_u + dof.n_i + dof.n_s)
    e = np.concatenate([dof.n_fi + np.arange(dof.n_i), dof.n_u + np.arange(dof.n_s)])
    order = nested_dissection(vertices[np.concatenate([dof.fluid_free, dof.solid_interior])])
    return KinematicSplit(M, A, d, e, order)


def _hat_triple_integrals():
    """int lam_i lam_j lam_k over a triangle per unit area, 2 a! b! c! / (a+b+c+2)!,
    where a, b, c count how often each vertex appears among (i, j, k)."""
    T = np.zeros((3, 3, 3))
    for i, j, k in np.ndindex(3, 3, 3):
        expo = np.bincount([i, j, k], minlength=3)
        num = np.prod([factorial(int(e)) for e in expo])
        T[i, j, k] = 2.0 * num / factorial(5)
    return T


class _SolidQuadrature:
    """Exact element integrals on the solid region for the multiplier identities.

    Solid tets carry local indices into the solid ordering [interior,
    interface]; interface triangles carry indices into the interface block
    and the index of the solid tet they bound.
    """

    tri_cubic = _hat_triple_integrals()

    def __init__(self, mesh: Mesh, dof: DofMap):
        to_local = np.full(mesh.vertices.shape[0], -1, dtype=np.int64)
        to_local[dof.solid_all] = np.arange(dof.solid_all.size)

        tets = mesh.tets[mesh.tet_regions == SOLID]
        self.tet_local = to_local[tets]
        self.tet_coords = mesh.vertices[tets]
        _, self.tet_grads, self.tet_mass = _tet_kernel(self.tet_coords)

        keep = mesh.tri_tags != GAMMA_F
        tris = mesh.tris[keep]
        self.tri_local = to_local[tris] - dof.n_s
        self.tri_coords = mesh.vertices[tris]
        self.tri_normals = mesh.tri_normals[keep]
        self.tri_area, self.tri_mass, _ = _tri_kernel(self.tri_coords)
        self.tri_tet = _face_owner(tets, tris, mesh.vertices.shape[0])


def _face_owner(tets, tris, nv):
    """Row of ``tets`` having each row of ``tris`` as a face.

    Faces and triangles are keyed by ``face_keys``; a sorted search over the
    keys of all 4 faces of every tet finds each owner.
    """
    face_key = face_keys(tets[:, TET_FACES], nv)
    tri_key = face_keys(tris, nv)
    order = np.argsort(face_key, kind="stable")
    pos = np.searchsorted(face_key, tri_key, sorter=order).clip(max=order.size - 1)
    owner = order[pos]
    if np.any(face_key[owner] != tri_key):
        raise ValueError("an interface triangle is not a face of any solid tetrahedron")
    return owner // 4


def _restricted(pair, idx):
    return tuple(mat[idx][:, idx].tocsr() for mat in pair)


class SystemMatrices:
    """The discretization of one mesh: blocks, the composite pair (M, A), and
    every frequency-independent piece derived from them.

    Only the DofMap is built up front. Each block, the pair and each derived
    piece (factorizations, the kinematic split with its nested-dissection
    order, surface eigenbasis, Dirichlet map, solid quadrature) is built on
    first use and then kept, so a caller that needs only the solid side
    never assembles the fluid. Blocks are restricted to their own index
    sets: fluid matrices to [fluid interior, interface], solid matrices to
    [solid interior, interface], surface matrices to the interface.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.dof = build_dofmap(mesh)

    @cached_property
    def _fluid(self):
        return _restricted(assemble_volume(self.mesh, FLUID), self.dof.fluid_free)

    @cached_property
    def _solid(self):
        return _restricted(assemble_volume(self.mesh, SOLID), self.dof.solid_all)

    @cached_property
    def _surface(self):
        return _restricted(assemble_surface(self.mesh), self.dof.interface)

    @cached_property
    def _first_order(self):
        return compose_first_order(
            self.dof, self.M_f, self.K_f, self.M_G, self.K_G, self.M_s, self.K_s
        )

    M_f = cached_property(lambda self: self._fluid[0])
    K_f = cached_property(lambda self: self._fluid[1])
    M_s = cached_property(lambda self: self._solid[0])
    K_s = cached_property(lambda self: self._solid[1])
    M_G = cached_property(lambda self: self._surface[0])
    K_G = cached_property(lambda self: self._surface[1])
    M = cached_property(lambda self: self._first_order[0])
    A = cached_property(lambda self: self._first_order[1])

    @cached_property
    def kinematic(self) -> KinematicSplit:
        return kinematic_split(self.dof, self.M, self.A, self.mesh.vertices)

    @cached_property
    def mass_factor(self) -> Factorization:
        return Factorization(self.M)

    @cached_property
    def mass_g_factor(self) -> Factorization:
        return Factorization(self.M_G)

    @cached_property
    def surface_spectral(self) -> SurfaceSpectral:
        return SurfaceSpectral(self.K_G, self.M_G)

    @cached_property
    def dirichlet_map(self):
        from .identities import DirichletMap     # identities builds on this module

        return DirichletMap(self)

    @cached_property
    def solid_quadrature(self) -> _SolidQuadrature:
        return _SolidQuadrature(self.mesh, self.dof)


def build_system(mesh: Mesh) -> SystemMatrices:
    """The discretization object of a mesh; its blocks assemble on first use."""
    return SystemMatrices(mesh)


def energy_norm(x: State, sys: SystemMatrices) -> float:
    """Norm of the energy inner product, sqrt(x^H M x)."""
    q = np.vdot(x.vec, sys.M @ x.vec).real
    return float(np.sqrt(max(q, 0.0)))


def graph_norm(x: State, sys: SystemMatrices) -> float:
    """Energy norm of x plus the energy norm of M^{-1} A x."""
    ax = sys.mass_factor.solve(sys.A @ x.vec)
    return energy_norm(x, sys) + energy_norm(State(sys.dof, ax), sys)


def fluid_gradient_norm(x: State, sys: SystemMatrices) -> float:
    """The dissipation seminorm |grad u| over the fluid region."""
    q = np.vdot(x.u, sys.K_f @ x.u).real
    return float(np.sqrt(max(q, 0.0)))


class SurfaceSpectral:
    """Fractional surface norms from the pencil (K_G + M_G, M_G).

    With generalized eigenpairs (K_G + M_G) v_k = omega_k M_G v_k and the
    v_k M_G-orthonormal, a nodal surface function g has
    |g|_s^2 = sum_k omega_k^s |(V^T M_G g)_k|^2, and a load vector f
    (f_i = <F, phi_i>) has dual norm |F|_{-s}^2 = sum_k omega_k^{-s} |(V^T f)_k|^2.
    """

    def __init__(self, K_G, M_G):
        S = (K_G + M_G).toarray()
        Md = M_G.toarray()
        omega, V = scipy.linalg.eigh(S, Md)
        self.omega = np.maximum(omega, 1e-14)
        self.V = V
        self.M_G = M_G

    def norm_function(self, g, s) -> float:
        c = self.V.T @ (self.M_G @ g)
        return float(np.sqrt((self.omega**s * np.abs(c) ** 2).sum()))

    def dual_norm(self, f, s) -> float:
        c = self.V.T @ f
        return float(np.sqrt((self.omega ** (-s) * np.abs(c) ** 2).sum()))

