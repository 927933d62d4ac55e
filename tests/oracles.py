"""Independent dense oracles used by the tests.

Everything here recomputes quantities through a different code path than the
package: element integrals by reference-element quadrature instead of closed
forms, the composite system by evaluating the weak form on basis states, and
operator norms by dense factorizations. Oracle values are never produced by
the functions under test. The one exception, `gram_opnorm`, is a driver, not
an oracle: it builds the gram-normal operator of a generic map so that the
tests can run `mlfsi.linalg.opnorm_from_normal` on it. The functions from
`solid_face_owner_loop` on are earlier versions of package code: loop and
lexsort kernels, the stand-alone ratio monitors that recomputed their shared
norms, and the hand-written sweep.csv row. They are kept so the tests can
check that the current code gives the same arrays, bits and bytes.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mlfsi.assembly import energy_norm, fluid_gradient_norm
from mlfsi.geometry import FLUID, GAMMA_F, SOLID
from mlfsi.identities import fluid_interface_flux
from mlfsi.linalg import Factorization, opnorm_from_normal

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
        h[dof.interface] = x[nfi + ni:nfi + 2 * ni]
        w0[dof.solid_interior] = x[nfi + 2 * ni:nfi + 2 * ni + ns]
        w0[dof.interface] = h[dof.interface]
        w1[dof.solid_interior] = x[nfi + 2 * ni + ns:]
        w1[dof.interface] = u[dof.interface]
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
        out[nfi + 2 * ni + ns:] = solid_force[dof.solid_interior]

        # Kinematics through the energy pairing: the h0 row carries the
        # surface-energy block of (h0dot = trace u), the w0 row the interior
        # stiffness block of (w0dot = w1).
        hdot = np.zeros_like(u)
        hdot[dof.interface] = u[dof.interface]
        w0dot = w1.copy()
        row_h = (self.Kg + self.Mg) @ hdot + self.Ks @ w0dot
        out[nfi + ni:nfi + 2 * ni] = row_h[dof.interface]
        row_w = self.Ks @ w0dot
        out[nfi + 2 * ni:nfi + 2 * ni + ns] = row_w[dof.solid_interior]
        return out

    def generator(self):
        A = np.zeros((self.n, self.n))
        eye = np.eye(self.n)
        for j in range(self.n):
            A[:, j] = self.generator_rhs(eye[j]).real
        return A


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


def _as_matvec_pair(apply):
    if isinstance(apply, tuple):
        return apply
    if hasattr(apply, "matvec") and hasattr(apply, "rmatvec"):
        return apply.matvec, apply.rmatvec
    if sp.issparse(apply) or isinstance(apply, np.ndarray):
        return (lambda v: apply @ v), (lambda v: apply.conj().T @ v)
    raise TypeError("apply must expose matvec/rmatvec or be a (matvec, rmatvec) pair")


def gram_opnorm(apply, gram, dim, tol=1e-4, seed=0):
    """Largest singular value of ``apply`` in the gram norm on both sides.

    ``apply`` is a (matvec, rmatvec) pair, an object exposing both, or a
    matrix; rmatvec is the Euclidean adjoint. The normal operator is formed
    with a factorization of the gram matrix and handed to
    ``opnorm_from_normal``.
    """
    matvec, rmatvec = _as_matvec_pair(apply)
    gram_solve = Factorization(gram).solve
    return opnorm_from_normal(
        lambda v: gram_solve(rmatvec(gram @ matvec(v))), gram, dim, tol=tol, seed=seed
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
    num = abs(beta) * sys.surface_spectral.norm_function(x.h0, 0.5)
    denom = fluid_gradient_norm(x, sys) + energy_norm(b, sys)
    return float(num / denom) if denom > 0 else 0.0


def flux_ratio(beta, b, x, sys):
    """Variational heat flux in the dual half norm against its |beta|^(1/2) majorant."""
    fl = fluid_interface_flux(x, b, beta, sys)
    denom = math.sqrt(abs(beta)) * (fluid_gradient_norm(x, sys) + energy_norm(b, sys))
    return float(sys.surface_spectral.dual_norm(fl, 0.5) / denom) if denom > 0 else 0.0


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
