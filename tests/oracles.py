"""Independent dense oracles used by the tests.

Everything here recomputes quantities through a different code path than the
package: element integrals by reference-element quadrature instead of closed
forms, the composite system by evaluating the weak form on basis states,
operator norms by dense factorizations, and the eigenvalues of a flat-layer
analog of the system by a complex root search (`slab_eigenvalue`). Oracle
values are never produced by the functions under test. The one exception,
`gram_opnorm`, is a driver, not an oracle: it builds the gram-normal
operator of a generic map so that the tests can run
`mlfsi.linalg.opnorm_from_normal` on it. The functions from
`shared_trace_pair` on are earlier versions of package code: the composition
of (M, A) on the state layout and the extraction of its kinematic split, loop
and lexsort kernels, the stand-alone ratio monitors that recomputed their
shared norms or solves, and the hand-written sweep.csv row. They are kept so the tests can
check that the current code gives the same arrays, bits and bytes.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import newton

from mlfsi.assembly import energy_norm, fluid_gradient_norm
from mlfsi.geometry import FLUID, GAMMA_F, SOLID
from mlfsi.identities import fluid_interface_flux
from mlfsi.linalg import loglog_fit, opnorm_from_normal

# Degree-2 exact quadrature on the reference tetrahedron (4 symmetric points).
_TA, _TB = 0.5854101966249685, 0.1381966011250105
TET_POINTS = np.array(
    [
        [_TA, _TB, _TB],
        [_TB, _TA, _TB],
        [_TB, _TB, _TA],
        [_TB, _TB, _TB],
    ]
)
TET_WEIGHTS = np.full(4, 0.25)

# Degree-2 exact quadrature on the reference triangle (edge midpoints).
TRI_POINTS = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
TRI_WEIGHTS = np.full(3, 1.0 / 3.0)


def tet_element_quadrature(coords):
    """Mass and stiffness of one tet via mapped reference quadrature."""
    v0 = coords[0]
    J = (coords[1:] - v0).T              # maps reference to physical
    detJ = np.linalg.det(J)
    vol = abs(detJ) / 6.0
    mass = np.zeros((4, 4))
    for w, q in zip(TET_WEIGHTS, TET_POINTS):
        lam = np.array([1.0 - q.sum(), q[0], q[1], q[2]])
        mass += w * np.outer(lam, lam)
    mass *= vol
    # P1 gradients: reference gradients pushed through J^{-T}.
    gref = np.array([[-1.0, -1.0, -1.0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    g = gref @ np.linalg.inv(J)
    stiff = vol * (g @ g.T)
    return mass, stiff


def tri_element_quadrature(coords):
    """Mass and surface stiffness of one flat triangle via 2D reference quadrature."""
    e1 = coords[1] - coords[0]
    e2 = coords[2] - coords[0]
    nrm = np.cross(e1, e2)
    area = 0.5 * np.linalg.norm(nrm)
    mass = np.zeros((3, 3))
    for w, q in zip(TRI_WEIGHTS, TRI_POINTS):
        lam = np.array([1.0 - q.sum(), q[0], q[1]])
        mass += w * np.outer(lam, lam)
    mass *= area
    # Orthonormal in-plane frame, then the standard 2D P1 gradient formula.
    t1 = e1 / np.linalg.norm(e1)
    t2 = e2 - (e2 @ t1) * t1
    t2 /= np.linalg.norm(t2)
    p2d = np.array([[0.0, 0.0], [e1 @ t1, e1 @ t2], [e2 @ t1, e2 @ t2]])
    mat = np.column_stack([np.ones(3), p2d])
    inv = np.linalg.inv(mat)
    g = inv[1:, :].T                     # rows: grad lambda_i in 2D
    stiff = area * (g @ g.T)
    return mass, stiff


def dense_volume_matrices(mesh, region):
    """Quadrature-assembled global mass/stiffness over one region (dense)."""
    nv = mesh.vertices.shape[0]
    M = np.zeros((nv, nv))
    K = np.zeros((nv, nv))
    for tet, reg in zip(mesh.tets, mesh.tet_regions):
        if reg != region:
            continue
        me, ke = tet_element_quadrature(mesh.vertices[tet])
        for a in range(4):
            for b in range(4):
                M[tet[a], tet[b]] += me[a, b]
                K[tet[a], tet[b]] += ke[a, b]
    return M, K


def dense_surface_matrices(mesh):
    nv = mesh.vertices.shape[0]
    M = np.zeros((nv, nv))
    K = np.zeros((nv, nv))
    for tri, tag in zip(mesh.tris, mesh.tri_tags):
        if tag == GAMMA_F:
            continue
        me, ke = tri_element_quadrature(mesh.vertices[tri])
        for a in range(3):
            for b in range(3):
                M[tri[a], tri[b]] += me[a, b]
                K[tri[a], tri[b]] += ke[a, b]
    return M, K


class DenseWeakForm:
    """Hand assembly of the composite (M, A) directly from the weak form.

    States are expanded into physical fields (heat field on all fluid
    vertices with zeros on the outer boundary, surface displacement,
    interior displacement and velocity with shared traces); the bilinear
    forms of the weak formulation are then evaluated field-wise on basis
    vectors. No block or index logic is shared with the package.
    """

    def __init__(self, mesh, dof):
        self.mesh = mesh
        self.dof = dof
        self.Mf, self.Kf = dense_volume_matrices(mesh, FLUID)
        self.Ms, self.Ks = dense_volume_matrices(mesh, SOLID)
        self.Mg, self.Kg = dense_surface_matrices(mesh)
        self.n = dof.total

    def fields(self, x):
        """Expand a flat state into full-vertex nodal fields (u, h, w0, w1)."""
        dof, nv = self.dof, self.mesh.vertices.shape[0]
        u = np.zeros(nv, dtype=complex)
        h = np.zeros(nv, dtype=complex)
        w0 = np.zeros(nv, dtype=complex)
        w1 = np.zeros(nv, dtype=complex)
        nfi, ni, ns = dof.n_fi, dof.n_i, dof.n_s
        u[dof.fluid_interior] = x[:nfi]
        u[dof.interface] = x[nfi:nfi + ni]
        w1[dof.solid_interior] = x[nfi + ni:nfi + ni + ns]
        w1[dof.interface] = u[dof.interface]
        h[dof.interface] = x[nfi + ni + ns:nfi + 2 * ni + ns]
        w0[dof.solid_interior] = x[nfi + 2 * ni + ns:]
        w0[dof.interface] = h[dof.interface]
        return u, h, w0, w1

    def energy_product(self, x, y):
        ux, hx, w0x, w1x = self.fields(x)
        uy, hy, w0y, w1y = self.fields(y)
        return (
            np.vdot(ux, self.Mf @ uy)
            + np.vdot(hx, (self.Kg + self.Mg) @ hy)
            + np.vdot(ux, self.Mg @ uy)
            + np.vdot(w0x, self.Ks @ w0y)
            + np.vdot(w1x, self.Ms @ w1y)
        )

    def gram(self):
        G = np.zeros((self.n, self.n))
        eye = np.eye(self.n)
        for j in range(self.n):
            for i in range(self.n):
                G[i, j] = self.energy_product(eye[i], eye[j]).real
        return G

    def generator_rhs(self, x):
        """A x, derived row-by-row from the weak form of the dynamics.

        Momentum rows (tested with coupled test functions) balance the
        stiffness forms; kinematic rows return the energy-product image of
        the velocity identities so the result matches M xdot = A x with M
        the energy Gram matrix.
        """
        dof = self.dof
        u, h, w0, w1 = self.fields(x)
        out = np.zeros(self.n, dtype=complex)
        nfi, ni, ns = dof.n_fi, dof.n_i, dof.n_s

        # Momentum: -( (grad u, grad phi) + (grad h, grad psi) + (h, psi)
        #             + (grad w0, grad chi) ) for the coupled test function
        # attached to each velocity unknown.
        force = -(self.Kf @ u + (self.Kg + self.Mg) @ h + self.Ks @ w0)
        out[:nfi] = force[dof.fluid_interior]
        out[nfi:nfi + ni] = force[dof.interface]
        solid_force = -(self.Ks @ w0)
        out[nfi + ni:nfi + ni + ns] = solid_force[dof.solid_interior]

        # Kinematics through the energy pairing: the h0 row carries the
        # surface-energy block of (h0dot = trace u), the w0 row the interior
        # stiffness block of (w0dot = w1).
        hdot = np.zeros_like(u)
        hdot[dof.interface] = u[dof.interface]
        w0dot = w1.copy()
        row_h = (self.Kg + self.Mg) @ hdot + self.Ks @ w0dot
        out[nfi + ni + ns:nfi + 2 * ni + ns] = row_h[dof.interface]
        row_w = self.Ks @ w0dot
        out[nfi + 2 * ni + ns:] = row_w[dof.solid_interior]
        return out

    def generator(self):
        A = np.zeros((self.n, self.n))
        eye = np.eye(self.n)
        for j in range(self.n):
            A[:, j] = self.generator_rhs(eye[j]).real
        return A


def prolongation(coarse_mesh, fine_mesh, coarse_idx, fine_idx):
    """P1 interpolation of the coarse hats of the vertices ``coarse_idx`` at
    the fine vertices ``fine_idx``: a sparse (fine_idx.size, coarse_idx.size)
    matrix I, so that a coarse P1 field c reads I c at those fine vertices.

    Both meshes are Kuhn splits of one box, the fine grid k times finer.
    Every vertex is located by its integer grid index, read off its
    coordinates, so neither mesh's vertex numbering is used. A fine vertex
    at coarse-grid position y lies in cell c = floor(y) (the last cell on
    the high side of the box) at local coordinates xi = y - c. Sorting xi
    descending, xi_p0 >= xi_p1 >= xi_p2, gives the path tet c, c + e_p0,
    c + e_p0 + e_p1, c + 1 that holds it, with barycentric weights 1 - xi_p0,
    xi_p0 - xi_p1, xi_p1 - xi_p2 and xi_p2; the hats of coarse vertices
    outside ``coarse_idx`` are dropped.
    """
    cc, fc = coarse_mesh.config, fine_mesh.config
    k = fc.n // cc.n
    assert fc.n == k * cc.n and (fc.outer_lo, fc.outer_hi) == (cc.outer_lo, cc.outer_hi)
    lo = np.asarray(cc.outer_lo, float)
    coarse_grid = np.rint((coarse_mesh.vertices - lo) * cc.n).astype(np.int64)
    cells = coarse_grid.max(axis=0)
    column = np.full(cells + 1, -1, dtype=np.int64)
    column[tuple(coarse_grid[coarse_idx].T)] = np.arange(len(coarse_idx))

    g = np.rint((fine_mesh.vertices[fine_idx] - lo) * fc.n).astype(np.int64)
    corner = np.minimum(g // k, cells - 1)
    xi = (g - k * corner) / k
    order = np.argsort(-xi, axis=1, kind="stable")
    xs = np.take_along_axis(xi, order, axis=1)
    weights = np.column_stack([1.0 - xs[:, 0], xs[:, 0] - xs[:, 1], xs[:, 1] - xs[:, 2], xs[:, 2]])
    # Path vertex j is the corner plus one step along each of the axes order[:, :j].
    steps = np.cumsum(np.eye(3, dtype=np.int64)[order], axis=1)
    path = corner[:, None, :] + np.concatenate([np.zeros_like(steps[:, :1]), steps], axis=1)
    cols = column[tuple(path.reshape(-1, 3).T)]
    rows = np.repeat(np.arange(len(g)), 4)
    keep = (cols >= 0) & (weights.ravel() != 0.0)
    return sp.csr_matrix((weights.ravel()[keep], (rows[keep], cols[keep])),
                         shape=(len(fine_idx), len(coarse_idx)))


def state_prolongation(coarse, fine):
    """P1 interpolation of the coarse state at the fine one: a sparse
    (fine.dof.total, coarse.dof.total) matrix I, from `prolongation` per DOF
    class, for the systems ``coarse`` and ``fine`` of two nested meshes.

    Fine u reads the coarse u through the ``fluid_free`` prolongation and
    fine h0 the coarse h0 through the ``interface`` one. A coarse interface
    hat is nonzero at fine solid-interior vertices, so fine w1 reads the
    coarse (trace u, w1) and fine w0 the coarse (h0, w0), both through the
    interior rows of the ``solid_all`` prolongation.
    """
    cd, fd = coarse.dof, fine.dof

    def interp(cls):
        return prolongation(coarse.mesh, fine.mesh, getattr(cd, cls), getattr(fd, cls))

    interior = interp("solid_all")[fd.n_i:]
    I = sp.lil_matrix((fd.total, cd.total))
    I[:fd.n_u, :cd.n_u] = interp("fluid_free")
    I[fd.n_u:fd.n_v, cd.n_fi:cd.n_v] = interior
    I[fd.n_v:fd.n_v + fd.n_i, cd.n_v:cd.n_v + cd.n_i] = interp("interface")
    I[fd.n_v + fd.n_i:, cd.n_v:] = interior
    return I.tocsr()


def dense_gram(sys):
    return sys.M.toarray()


def dense_generator(sys):
    return sys.A.toarray()


def dense_gram_extreme_eigs(sys):
    """Smallest and largest eigenvalues of the composite Gram matrix (dense)."""
    w = np.linalg.eigvalsh(dense_gram(sys))
    return float(w[0]), float(w[-1])


def dense_resolvent_opnorm(beta, sys):
    """Energy-metric norm of b -> x via Cholesky change of basis and SVD."""
    Md = dense_gram(sys)
    Ad = dense_generator(sys)
    T = np.linalg.solve(1j * beta * Md - Ad, Md)
    L = np.linalg.cholesky(Md)
    S = L.T @ T @ np.linalg.inv(L.T)
    return np.linalg.svd(S, compute_uv=False)[0]


def dense_gram_opnorm(T, G):
    """Largest singular value of a dense map in a dense SPD gram metric."""
    L = np.linalg.cholesky(G)
    S = L.T @ T @ np.linalg.inv(L.T)
    return np.linalg.svd(S, compute_uv=False)[0]


def slab_characteristic(lam, xi):
    """g(lam) = (lam^2 + xi^2 + lam mu coth mu) sinh kappa + kappa cosh kappa,
    mu^2 = lam + xi^2, kappa^2 = lam^2 + xi^2.

    Its zeros are the eigenvalues of the flat-layer analog (fluid in
    (-1, 0) in z, the thin layer at z = 0, the solid in (0, 1)) on its
    lateral sine mode of wavenumber xi. g is even in mu and odd in kappa, so
    the branch of either square root moves no zero.
    """
    mu = np.sqrt(lam + xi**2)
    kappa = np.sqrt(lam**2 + xi**2)
    return (lam**2 + xi**2 + lam * mu / np.tanh(mu)) * np.sinh(kappa) + kappa * np.cosh(kappa)


def slab_eigenvalue(xi, guess):
    """The zero of `slab_characteristic` at wavenumber xi reached from the
    complex start ``guess`` by scipy's secant iteration."""
    return complex(newton(slab_characteristic, complex(guess), args=(xi,), tol=1e-14, maxiter=200))


def _as_matvec_pair(apply):
    if isinstance(apply, tuple):
        return apply
    if hasattr(apply, "matvec") and hasattr(apply, "rmatvec"):
        return apply.matvec, apply.rmatvec
    if sp.issparse(apply) or isinstance(apply, np.ndarray):
        return (lambda v: apply @ v), (lambda v: apply.conj().T @ v)
    raise TypeError("apply must expose matvec/rmatvec or be a (matvec, rmatvec) pair")


def gram_opnorm(apply, gram, tol=1e-4, seed=0):
    """Largest singular value of ``apply`` in the gram norm on both sides.

    ``apply`` is a (matvec, rmatvec) pair, an object exposing both, or a
    matrix; rmatvec is the Euclidean adjoint. The normal operator is formed
    with scipy's ``splu`` of the gram matrix and handed to
    ``opnorm_from_normal``.
    """
    matvec, rmatvec = _as_matvec_pair(apply)
    lu = spla.splu(sp.csc_matrix(gram))

    def gram_solve(r):
        return lu.solve(np.ascontiguousarray(r.real)) + 1j * lu.solve(np.ascontiguousarray(r.imag))

    return opnorm_from_normal(
        lambda v: gram_solve(rmatvec(gram @ matvec(v))), gram, tol=tol, seed=seed
    )


def arpack_resolvent_opnorm(beta, sys):
    """Energy-metric norm of b -> x from scipy alone, at ARPACK tolerance 1e-12.

    The squared norm is the top eigenvalue of the pencil (M R^H M R M, M)
    with R = (i beta M - A)^{-1}, found by ``eigsh`` on ``splu`` factors in
    the generalized mode with a true mass solve; nothing of ``mlfsi.linalg``
    is used.
    """
    M = sp.csc_matrix(sys.M)
    n = M.shape[0]
    Mc = M.astype(np.complex128)
    mlu = spla.splu(M)
    minv = spla.LinearOperator(
        (n, n), dtype=np.complex128, matvec=lambda r: mlu.solve(r.real) + 1j * mlu.solve(r.imag)
    )
    lu = spla.splu(sp.csc_matrix(1j * beta * Mc - sys.A.astype(np.complex128)))
    op = spla.LinearOperator(
        (n, n), dtype=np.complex128,
        matvec=lambda v: Mc @ lu.solve(Mc @ lu.solve(Mc @ v), trans="H"),
    )
    top = spla.eigsh(op, k=2, M=Mc, Minv=minv, which="LA", tol=1e-12,
                     v0=np.ones(n, np.complex128), return_eigenvectors=False)
    return float(np.sqrt(top.max()))


def full_shifted_lu(s, sys):
    """scipy's LU of the full shifted matrix s M - A, displacement rows
    included: minimum degree on A^T + A in symmetric mode at SuperLU's
    default pivot threshold, the factorization before the kinematic
    elimination, real at a real s. Solve (s M - A) x = M b with
    ``lu.solve(M @ b)``."""
    C = s * sys.M - sys.A
    return spla.splu(sp.csc_matrix(C), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def ordered_shifted_matrix(s, split):
    """(s M_VV + K + Q / s)[order][:, order] of a kinematic split by scipy's
    sparse sum and fancy indexing, in the canonical CSC form SuperLU takes:
    the velocity matrix a shifted solve at s factors."""
    A = sp.csc_matrix(s * split.M_VV + split.K + split.Q * (1.0 / s))[split.order][:, split.order]
    A.sum_duplicates()
    return A


def full_midpoint_steps(sys, tau, x, steps):
    """``steps`` implicit midpoint steps of M x' = A x on the full state, each
    a solve with one scipy LU of M - tau/2 A."""
    lu = spla.splu(sp.csc_matrix(sys.M - (tau / 2.0) * sys.A))
    B = sp.csr_matrix(sys.M + (tau / 2.0) * sys.A)
    for _ in range(steps):
        x = lu.solve(B @ x)
    return x


def _embed(block, row_off, col_off, shape):
    coo = sp.coo_matrix(block)
    return sp.coo_matrix((coo.data, (coo.row + row_off, coo.col + col_off)), shape=shape)


def shared_trace_pair(dof, M_f, K_f, M_G, K_G, M_s, K_s):
    """Composite (M, A) of the first-order system, composed block by block
    on the shared-trace state layout with ``sp.bmat``; the kinematic rows are
    premultiplied by their Gram blocks to fit the M x' = A x shape."""
    n_fi, n_i, n_s, n_u = dof.n_fi, dof.n_i, dof.n_s, dof.n_u
    s_int = slice(n_i, n_i + n_s)
    s_ifc = slice(0, n_i)
    K_s = K_s.copy()
    K_s.eliminate_zeros()

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
            [G_uu, G_uw1, None, None],
            [G_uw1.T, Ms_II, None, None],
            [None, None, G_h0h0, Ks_GI],
            [None, None, Ks_IG, Ks_II],
        ],
        format="csr",
    )
    A = sp.bmat(
        [
            [-K_f, None, _embed(-G_h0h0, n_fi, 0, (n_u, n_i)), _embed(-Ks_GI, n_fi, 0, (n_u, n_s))],
            [None, None, -Ks_IG, -Ks_II],
            [_embed(G_h0h0, 0, n_fi, (n_i, n_u)), Ks_GI, None, None],
            [_embed(Ks_IG, 0, n_fi, (n_s, n_u)), Ks_II, None, None],
        ],
        format="csr",
    )
    return M, A


def extracted_split(dof, M, A):
    """The kinematic pieces of a shared-trace pair, by fancy indexing of M and
    A: d = (h0, w0), v = (u, w1), E the selection (E v)_k = v[e[k]] of u on
    the interface and w1 as a sparse matrix, P = M[d, d], and the dict of
    M_VV = M[V, V], K = -A[V, V], EtP = E^T P and Q = E^T P E (its indices
    sorted), plus the entry counts where the four kinematic identities fail."""
    M, A = sp.csr_matrix(M), sp.csr_matrix(A)
    v = np.arange(dof.n_v)
    d = np.arange(dof.n_v, dof.total)
    e = dof.n_fi + np.arange(dof.n_i + dof.n_s)
    E = sp.csr_matrix((np.ones(d.size), (np.arange(d.size), e)), shape=(d.size, v.size))
    P = M[d][:, d]
    EtP = (E.T @ P).tocsr()
    mismatches = {
        "A[d, V] = P E": (A[d][:, v] != P @ E).count_nonzero(),
        "A[V, d] = -E^T P": (A[v][:, d] != -EtP).count_nonzero(),
        "A[d, d] = 0": A[d][:, d].count_nonzero(),
        "M[V, d] = M[d, V]^T = 0": (abs(M[v][:, d]) + abs(M[d][:, v].T)).count_nonzero(),
    }
    blocks = {"M_VV": M[v][:, v].tocsr(), "K": (-A[v][:, v]).tocsr(), "EtP": EtP,
              "Q": (EtP @ E).tocsr().sorted_indices()}
    return blocks, mismatches


def tet_kernel_per_tet(p):
    """`geometry._tet_kernel` one tet at a time: a LAPACK det and inv per tet."""
    vol, grads = np.empty(len(p)), np.empty((len(p), 4, 3))
    for t, q in enumerate(p):
        d = q[1:] - q[:1]
        vol[t] = np.linalg.det(d) / 6.0
        grads[t, 1:] = np.linalg.inv(d).T
        grads[t, 0] = -grads[t, 1:].sum(axis=0)
    return vol, grads, vol[:, None, None] * ((np.ones((4, 4)) + np.eye(4)) / 20.0)


def tri_kernel_per_tri(p):
    """`geometry._tri_kernel` one triangle at a time, with its mass."""
    area, grads = np.empty(len(p)), np.empty((len(p), 3, 3))
    for t, q in enumerate(p):
        nrm = np.cross(q[1] - q[0], q[2] - q[0])
        area2 = math.sqrt(nrm[0] * nrm[0] + nrm[1] * nrm[1] + nrm[2] * nrm[2])
        for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            grads[t, i] = np.cross(nrm / area2, q[b] - q[a]) / area2
        area[t] = 0.5 * area2
    return area, grads, area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)


def element_table_per_element(vertices, simplices, block):
    """`assembly.ElementTable` with its values formed per element: the loop
    kernels above, one stiffness per element by one einsum over all of
    them, and the same COO to CSR scatter into block order. Returns the
    per-element measure, gradients and mass, and the block matrices M, K."""
    to_block = np.full(vertices.shape[0], -1, dtype=np.int32)
    to_block[block] = np.arange(block.size)
    local = to_block[simplices]
    k, n = simplices.shape[1], block.size
    kernel = tet_kernel_per_tet if k == 4 else tri_kernel_per_tri
    measure, grads, mass = kernel(vertices[simplices])
    stiff = np.einsum("tid,tjd,t->tij", grads, grads, measure)
    M, K = coo_scatter(local, n, (mass, stiff))
    return measure, grads, mass, M, K


def coo_scatter(local, n, element_matrices):
    """`assembly._scatter` as one COO to CSR conversion per matrix: each
    (m, k, k) array of per-element matrices through the block indices
    ``local`` (m, k) into an (n, n) matrix by `coo_matrix.tocsr`, which sums
    duplicates; every entry touching a -1 of ``local`` is dropped."""
    k = local.shape[1]
    rows = np.repeat(local, k, axis=1).ravel()
    cols = np.tile(local, (1, k)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return [sp.coo_matrix((e.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
            for e in element_matrices]


def tet_volumes_per_tet(mesh):
    """`Mesh.tet_volumes` over the full coordinate gather: a det per tet."""
    p = mesh.vertices[mesh.tets]
    return np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0


def tri_areas_cross(mesh):
    """`Mesh.tri_areas` over the full coordinate gather: half the norm of
    each triangle's edge cross product."""
    p = mesh.vertices[mesh.tris]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)


def max_solid_edge(mesh):
    """Longest edge of the solid tets: the norm of each of the 6 edges of
    every solid tet, then the max over all of them."""
    c = mesh.vertices[mesh.tets[mesh.tet_regions == SOLID]]
    edges = c[:, [0, 0, 0, 1, 1, 2]] - c[:, [1, 2, 3, 2, 3, 3]]
    return float(np.max(np.linalg.norm(edges, axis=2)))


def solid_face_owner_loop(mesh):
    """Index among the solid tets of the solid tet bounded by each interface
    triangle, by a dict over every face of every solid tet."""
    tets = mesh.tets[mesh.tet_regions == SOLID]
    face_of = {}
    for t, tet in enumerate(tets):
        for lf in ([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]):
            face_of[tuple(sorted(tet[lf]))] = t
    tris = mesh.tris[mesh.tri_tags != GAMMA_F]
    return np.array([face_of[tuple(sorted(tri))] for tri in tris], dtype=np.int64)


def extract_boundary_lexsort(cells, ilo, ihi, tets, regions):
    """Boundary triangles, tags and normals by a 3-key lexsort of the sorted
    face triples and one tagging pass per boundary group."""
    nx, ny, nz = cells
    local = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    faces = tets[:, local].reshape(-1, 3)
    owner = np.repeat(np.arange(tets.shape[0]), 4)
    key = np.sort(faces, axis=1)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    key, faces, owner = key[order], faces[order], owner[order]

    same = np.all(key[1:] == key[:-1], axis=1)
    run_start = np.flatnonzero(np.concatenate([[True], ~same]))
    run_len = np.diff(np.concatenate([run_start, [key.shape[0]]]))
    assert run_len.max() <= 2
    single = run_start[run_len == 1]
    pair = run_start[run_len == 2]
    iface = pair[regions[owner[pair]] != regions[owner[pair + 1]]]

    def index_triple(vids):
        k = vids % (nz + 1)
        rest = vids // (nz + 1)
        return rest // (ny + 1), rest % (ny + 1), k

    out_tris, out_tags, out_normals = [], [], []
    fi, fj, fk = index_triple(faces[single])
    for axis, (idx, count) in enumerate([(fi, nx), (fj, ny), (fk, nz)]):
        for side, plane in ((0, 0), (1, count)):
            on = np.all(idx == plane, axis=1)
            nvec = np.zeros(3)
            nvec[axis] = -1.0 if side == 0 else 1.0
            out_tris.append(faces[single][on])
            out_tags.append(np.zeros(int(on.sum()), dtype=np.int8))
            out_normals.append(np.tile(nvec, (int(on.sum()), 1)))
    assert sum(t.shape[0] for t in out_tris) == single.size

    gi, gj, gk = index_triple(faces[iface])
    n_iface = 0
    for axis, idx in enumerate([gi, gj, gk]):
        for side, plane in ((0, ilo[axis]), (1, ihi[axis])):
            on = np.all(idx == plane, axis=1)
            nvec = np.zeros(3)
            nvec[axis] = 1.0 if side == 0 else -1.0
            out_tris.append(faces[iface][on])
            out_tags.append(np.full(int(on.sum()), 1 + 2 * axis + side, dtype=np.int8))
            out_normals.append(np.tile(nvec, (int(on.sum()), 1)))
            n_iface += int(on.sum())
    assert n_iface == iface.size
    return (np.concatenate(out_tris), np.concatenate(out_tags), np.concatenate(out_normals))


def mesh_text_rows(mesh):
    """The ``mesh.txt`` text of a mesh, written row by row with one f-string
    per row and ``format(float(x), ".17g")`` per float."""
    def fmt(x):
        return format(float(x), ".17g")

    out = ["mlfsi-mesh 1\n"]
    if mesh.config is not None:
        c = mesh.config
        vals = [*c.outer_lo, *c.outer_hi, *c.inner_lo, *c.inner_hi]
        out.append("config " + " ".join(fmt(v) for v in vals) + f" {c.n}\n")
    out.append(f"vertices {mesh.vertices.shape[0]}\n")
    for v in mesh.vertices:
        out.append(f"{fmt(v[0])} {fmt(v[1])} {fmt(v[2])}\n")
    out.append(f"tets {mesh.tets.shape[0]}\n")
    for t, r in zip(mesh.tets, mesh.tet_regions):
        out.append(f"{t[0]} {t[1]} {t[2]} {t[3]} {int(r)}\n")
    out.append(f"tris {mesh.tris.shape[0]}\n")
    for t, g, nrm in zip(mesh.tris, mesh.tri_tags, mesh.tri_normals):
        out.append(f"{t[0]} {t[1]} {t[2]} {int(g)} {fmt(nrm[0])} {fmt(nrm[1])} {fmt(nrm[2])}\n")
    return "".join(out)


def log_slope_loop(t, n):
    """Centered d log n / d log t per sample by a Python loop over ``math.log``,
    0 where a neighbour is not positive."""
    out = np.zeros_like(t)
    for i in range(1, len(t) - 1):
        if t[i - 1] > 0 and n[i - 1] > 0 and n[i + 1] > 0:
            out[i] = (math.log(n[i + 1]) - math.log(n[i - 1])) / (
                math.log(t[i + 1]) - math.log(t[i - 1])
            )
    return out


def poincare_ratio(beta, b, x, sys):
    """|beta|^(1/2) |u| / (|grad u| + |b|_H), monitored for boundedness."""
    if abs(beta) < 1.0:
        raise ValueError(f"poincare ratio is monitored for |beta| >= 1, got {beta}")
    unorm = math.sqrt(max(np.vdot(x.u, sys.M_f @ x.u).real, 0.0))
    denom = fluid_gradient_norm(x, sys) + energy_norm(b, sys)
    return float(math.sqrt(abs(beta)) * unorm / denom) if denom > 0 else 0.0


def trace_ratio(beta, b, x, sys):
    """|beta h0|_{1/2,h} / (|grad u| + |b|_H), the kinematic trace monitor."""
    num = abs(beta) * sys.surface_spectral.norm_function(x.h0)
    denom = fluid_gradient_norm(x, sys) + energy_norm(b, sys)
    return float(num / denom) if denom > 0 else 0.0


def flux_ratio(beta, b, x, sys):
    """Variational heat flux in the dual half norm against its |beta|^(1/2) majorant."""
    fl = fluid_interface_flux(x, b, beta, sys)
    denom = math.sqrt(abs(beta)) * (fluid_gradient_norm(x, sys) + energy_norm(b, sys))
    return float(sys.surface_spectral.dual_norm(fl) / denom) if denom > 0 else 0.0


def dtn_norm(beta, b, x, sys):
    """Dirichlet-to-Neumann ratio |N g|_{-1/2,h} / |g|_{1/2,h} of g = trace u + h0,
    with the Neumann map solving its own Dirichlet extension of g."""
    g = x.trace_u + b.h0
    gn = sys.surface_spectral.norm_function(g)
    return sys.surface_spectral.dual_norm(sys.dirichlet_map.neumann(g)) / gn if gn > 0 else 0.0


def trend_slope(betas, values) -> float:
    """Least-squares slope of log(value) versus log(beta); 0 for all-zero data."""
    betas = np.asarray(betas, float)
    values = np.asarray(values, float)
    keep = values > 0
    if keep.sum() < 2:
        return 0.0
    return loglog_fit(betas[keep], values[keep])[0]


def sweep_csv_row(s):
    """One sweep.csv data row, written with `iters` as an int between two
    hand-listed runs of ``format(v, ".17g")`` floats."""
    row = [s.beta, s.opnorm, s.dissipation_residual, s.poincare_ratio, s.trace_ratio, s.flux_ratio]
    return (
        ",".join(format(v, ".17g") for v in row)
        + f",{s.iters},"
        + ",".join(format(v, ".17g") for v in (s.r_crux, s.r_s3, s.r_I1, s.dtn_norm))
        + "\n"
    )
