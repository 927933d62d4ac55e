"""Numerical probes of the static coupling identities on the solid region.

Provides the discrete harmonic (Dirichlet) extension and its flux map, the
homogenized interior field z built from a frequency-domain solution, exact
evaluation of the two wave multiplier identities, and the one pass that
computes every per-frequency monitor of a sweep. All normal derivatives are
recovered variationally (residual tested against interface hat functions),
which is the one flux notion for which the discrete Green identities hold
exactly.

Orientation convention: nu points from the fluid into the solid everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import DofMap, State, energy_norm, fluid_gradient_norm
from .geometry import GAMMA_F, Mesh
from .linalg import Factorization, loglog_fit, nested_dissection


# The largest |beta| `config.RunConfig.validate` lets the manufactured study
# take. The beta^2 M_s z terms of the identities cancel to their last bits as
# beta grows: at the refinement levels 8, 16, 24 and 32 the fitted radial order
# moves by 5e-6 at beta = 1e5 and by 1e-4 at 3e5, against beta = 2.
MAX_PROBE_BETA = 1e5


class DirichletMap:
    """Discrete harmonic extension from the interface into the solid.

    ``extend`` solves the interior stiffness equations exactly, so the
    extension agrees with boundary data at interface vertices and is
    discrete harmonic at every interior vertex. ``neumann`` returns the
    variational flux functional psi -> (grad E g, grad E psi), i.e. the
    stiffness Schur complement applied to g: symmetric positive
    semidefinite with the constants as kernel. The nu-oriented normal
    derivative of the extension is the negative of that functional.
    """

    def __init__(self, sys):
        dof = sys.dof
        n_i = self.n_i = dof.n_i
        K = sys.K_s.tocsr()
        self.K_GG, self.K_GI = K[:n_i, :n_i], K[:n_i, n_i:]
        self.K_IG = K[n_i:, :n_i]
        interior = sys.mesh.vertices[dof.solid_interior]
        self.factor = Factorization(K[n_i:, n_i:], nested_dissection(interior))

    def extend(self, g):
        g = np.asarray(g)
        return np.concatenate([g, -self.factor.solve(self.K_IG @ g)])

    def neumann(self, g, ext=None):
        """Flux functional of g; ``ext`` is ``extend(g)`` when already solved."""
        if ext is None:
            ext = self.extend(g)
        return self.K_GI @ ext[self.n_i:] + self.K_GG @ g

    def h1_ratio(self, g, sys) -> float:
        """Monitored boundedness constant |E g|_{H1} / |g|_{1/2,h}."""
        e = self.extend(g)
        h1 = np.sqrt(np.vdot(e, sys.H1_s @ e).real)
        gn = sys.surface_spectral.norm_function(g)
        return float(h1 / gn) if gn > 0 else 0.0


def build_z(x: State, b: State, beta, sys, ext) -> tuple[np.ndarray, np.ndarray]:
    """Nodal (z, load) on the solid ordering [interface, interior].

    z = w0 + (i/beta) E(trace u + trace of the data displacement) solves
    -beta^2 z - Delta z = load, with load = -i beta E(...) + w1 + i beta w0
    of the data; both come from ``ext``, the one Dirichlet extension E g of
    g = trace u + h0 of the data. The static solve sets
    h0 = (trace u + h0 of the data) / (i beta), which (i/beta) E g cancels
    exactly in floating point (E g is g itself on the interface), so the
    boundary trace must vanish to solver precision; this is asserted at
    1e-12 relative to the field's max magnitude.
    """
    if abs(beta) < 1.0:
        raise ValueError(f"z construction requires |beta| >= 1, got {beta}")
    z = x.w0_full + (1j / beta) * ext
    scale = float(np.max(np.abs(z)))
    bres = float(np.max(np.abs(z[:sys.dof.n_i])))
    if scale > 0 and bres > 1e-12 * scale:
        raise ValueError(
            f"boundary trace of z failed to vanish: {bres:.3g} vs scale {scale:.3g}"
        )
    return z, -1j * beta * ext + b.w1_full + 1j * beta * b.w0_full


def interface_flux(v_full, load_full, beta, sys) -> np.ndarray:
    """Variational nu-flux functional of v with -beta^2 v - Delta v = load.

    Component i is <dv/dnu, psi_i> for the interface hat psi_i, with nu into
    the solid.
    """
    v = np.asarray(v_full)
    load = np.asarray(load_full)
    r = sys.K_s @ v - sys.M_s @ (beta**2 * v + load)
    return -r[:sys.dof.n_i]


def fluid_interface_flux(x: State, b: State, beta, sys) -> np.ndarray:
    """Variational nu-flux functional of the heat field on the interface."""
    r = sys.K_f @ x.u + 1j * beta * (sys.M_f @ x.u) - sys.M_f @ b.u
    return r[sys.dof.n_fi:]


def recover_flux_nodal(flux_functional, sys) -> np.ndarray:
    """Nodal P1 representative of a flux functional: solve M_G lam = f."""
    return sys.mass_g_factor.solve(np.asarray(flux_functional))


@dataclass
class MultiplierReport:
    """One multiplier identity at one level; its fields are the keys of a
    ``probe.json`` row."""

    identity: str
    lhs: float
    rhs: float
    residual: float
    h: float
    flux_method: str = field(default="variational", init=False)
    quadrature: str = field(default="exact-p1-products", init=False)


# Exact int lam_i lam_j lam_k per unit triangle area,
# (1 + delta_ij + delta_jk + delta_ik + 2 delta_ijk) / 60: 1/60, 1/30 or 1/10
# as i, j, k are distinct, two equal or all equal.
_EYE = np.eye(3)
_TRI_CUBIC = (1 + _EYE[:, :, None] + _EYE[None] + _EYE[:, None]
              + 2 * np.einsum("ij,jk->ijk", _EYE, _EYE)) / 60.0


def _tet_gradients(tet, zv):
    """The gradient of the nodal field ``zv`` on each tet of ``tet``, and its
    conjugate's dot product with each vertex of the tet. Both are summed one
    vertex column at a time from the per-shape gradients, so no per-tet
    (m, 4, 3) table of gradients or coordinates is formed."""
    shape, local, simplices = tet.shape, tet.local, tet.simplices
    grad_z = np.zeros((local.shape[0], 3), complex)
    for v in range(4):
        grad_z += zv[local[:, v], None] * tet.grads[shape, v]
    c_tet, grad_conj = np.empty((local.shape[0], 4), complex), grad_z.conj()
    for v in range(4):
        c_tet[:, v] = np.einsum("td,td->t", tet.vertices[simplices[:, v]], grad_conj)
    return grad_z, c_tet


def multiplier_residual(z, f, beta, sys) -> dict[str, MultiplierReport]:
    """Both sides of the two wave multiplier identities for the nodal field z.

    Key "radial" holds the gradient identity with m(x) = x (Jacobian the
    identity), key "unit_div" the equipartition identity with div m = 1
    (m = x/3, so the grad-div correction drops); both share one K_s z and
    one M_s z. ``f`` is the nodal right-hand side of -beta^2 z - Delta z = f.

    The per-tet gradients of z and their products with the vertex
    coordinates are summed one vertex column at a time (`_tet_gradients`),
    with the bits of one whole-table einsum. The gradients are dropped
    before ``term_d``, whose whole-table gathers of the per-shape mass set
    this function's memory peak. ``term_d`` stays one einsum because it
    sums over all tets: split into blocks, it would add in another order
    and change the result's last bits. The surface triangles' vertex
    coordinates are gathered once, for ``term_a`` and ``term_b``.
    """
    tet, tri = sys.solid_table, sys.surface_table
    zv = np.asarray(z, dtype=complex)
    fv = np.asarray(f, dtype=complex)
    beta = float(beta)

    grad_sq = float(np.vdot(zv, sys.K_s @ zv).real)
    mass_sq = float(np.vdot(zv, sys.M_s @ zv).real)

    # div m = 1: the equation's weak form tested with z itself.
    div_lhs = grad_sq - beta**2 * mass_sq
    div_rhs = float(np.vdot(zv, sys.M_s @ fv).real)

    # m(x) = x: LHS is the gradient energy; RHS collects the boundary flux
    # terms (with nu into the solid), the div-m volume term, and the load term.
    grad_z, c_tet = _tet_gradients(tet, zv)
    g_adj = grad_z[sys.interface_owner]                # gradient on adjacent tet
    del grad_z
    term_d = np.einsum("tv,tvw,tw->", fv[tet.local], tet.mass[tet.shape], c_tet).real

    flux = interface_flux(zv, fv, beta, sys)
    lam = recover_flux_nodal(flux, sys)
    lam_tri = lam[tri.local]

    tri_coords = tri.vertices[tri.simplices]
    c_tri = np.einsum("tvd,td->tv", tri_coords, g_adj.conj())
    term_a = -np.einsum("tv,tvw,tw->", lam_tri, tri.mass[tri.shape], c_tri).real

    normals = sys.mesh.tri_normals[sys.mesh.tri_tags != GAMMA_F]
    s_tri = np.einsum("tvd,td->tv", tri_coords, normals)
    lam_sq = np.einsum("tv,vij,ti,tj->t", s_tri, _TRI_CUBIC, lam_tri.conj(), lam_tri)
    term_b = 0.5 * float((lam_sq.real * tri.measure[tri.shape]).sum())

    term_c = 1.5 * div_lhs

    rhs = float(term_a + term_b + term_c + term_d)
    return {"radial": MultiplierReport("radial", grad_sq, rhs, abs(grad_sq - rhs), sys.mesh_h),
            "unit_div": MultiplierReport("unit-div", div_lhs, div_rhs, abs(div_lhs - div_rhs),
                                         sys.mesh_h)}


# The keys of `flux_chain_monitor`, in `resolvent.ResolventSample` field order.
MONITORS = ("poincare_ratio", "trace_ratio", "flux_ratio",
            "r_crux", "r_s3", "r_I1", "dtn_norm", "z_boundary")


def flux_chain_monitor(x: State, b: State, beta, sys) -> dict[str, float]:
    """Every monitored value of one static solution, keyed by its sample field.

    The sharpened Poincare ratio, the kinematic trace and heat flux ratios,
    the interface flux chain (r_crux, r_s3, r_I1), the Dirichlet-to-Neumann
    ratio and the z boundary trace relative to max |z|. Each ratio divides a
    flux or energy quantity by the frequency-weighted majorant it is expected
    to stay below; the constants are unknown, so only boundedness across a
    sweep is meaningful, never a specific value. Zero data gives all zeros.
    """
    if abs(beta) < 1.0:
        raise ValueError(f"flux chain monitors require |beta| >= 1, got {beta}")
    bnorm = energy_norm(b, sys)
    if bnorm == 0.0:
        return dict.fromkeys(MONITORS, 0.0)

    ab = abs(beta)
    spectral = sys.surface_spectral
    grad_u = fluid_gradient_norm(x, sys)
    base = grad_u + bnorm       # |grad u| + |b|_H, shared by the fluid-side ratios
    unorm = math.sqrt(max(np.vdot(x.u, sys.M_f @ x.u).real, 0.0))
    heat_flux = spectral.dual_norm(fluid_interface_flux(x, b, beta, sys))

    g = x.trace_u + b.h0
    ext = sys.dirichlet_map.extend(g)
    z, fz = build_z(x, b, beta, sys, ext)
    flux_z = interface_flux(z, fz, beta, sys)
    lam = recover_flux_nodal(flux_z, sys)
    flux_l2 = float(np.sqrt(np.vdot(lam, sys.M_G @ lam).real))

    zh1 = float(np.sqrt(np.vdot(z, sys.H1_s @ z).real))
    zb = ab * float(np.sqrt(np.vdot(z, sys.M_s @ z).real))
    denom = ab ** 2.75 * grad_u + ab**3 * bnorm

    thin = float(np.vdot(x.h0, sys.H1_G @ x.h0).real)
    fw0 = 1j * beta * b.w0_full + b.w1_full
    flux_w0 = interface_flux(x.w0_full, fw0, beta, sys)
    pairing = abs(np.vdot(x.h0, flux_w0))
    denom_thin = pairing + grad_u**2 + bnorm**2

    gn = spectral.norm_function(g)
    dtn_norm = spectral.dual_norm(sys.dirichlet_map.neumann(g, ext)) / gn if gn > 0 else 0.0

    zmax = float(np.max(np.abs(z)))
    return {
        "poincare_ratio": math.sqrt(ab) * unorm / base,
        "trace_ratio": ab * spectral.norm_function(x.h0) / base,
        "flux_ratio": heat_flux / (math.sqrt(ab) * base),
        "r_crux": flux_l2 / denom,
        "r_s3": (zh1 + zb + flux_l2) / denom,
        "r_I1": thin / denom_thin,
        "dtn_norm": dtn_norm,
        "z_boundary": float(np.max(np.abs(z[:sys.dof.n_i]))) / zmax if zmax > 0 else 0.0,
    }


def manufactured_field(mesh: Mesh, dof: DofMap, beta) -> tuple[np.ndarray, np.ndarray]:
    """Product-sine field vanishing on the cube faces, with its wave load.

    Uses the fundamental sine mode per axis: a full period would interpolate
    to the zero field on the coarsest study mesh (every interior node sits on
    a sine zero), which degenerates the refinement study. Returns nodal
    (z, f) on the solid ordering [interface, interior] for
    -beta^2 z - Delta z = f.
    """
    if mesh.config is None:
        raise ValueError("manufactured field needs the mesh configuration for the cube bounds")
    a = np.asarray(mesh.config.inner_lo, float)
    bb = np.asarray(mesh.config.inner_hi, float)
    kappa = math.pi / (bb - a)
    coords = mesh.vertices[dof.solid_all]
    z = np.prod(np.sin(kappa * (coords - a)), axis=1)
    f = (float(np.sum(kappa**2)) - beta**2) * z
    return z, f


def manufactured_study(systems, beta):
    """Multiplier residuals of both identities over a refinement sequence.

    ``systems`` yields one system per level, each on a mesh that keeps its
    configuration; a generator builds each level only when it is measured.
    A level's system and fields are dropped once it is measured, so a
    generator's next mesh and system are built with only the caller's
    references to it left alive: one level at a time.
    Returns a list of per-resolution dicts and the fitted convergence orders
    (slope of log residual versus log h), which need at least two levels.
    A generator has no length, so fewer than two levels raise ``ValueError``
    only after every level given has been built and measured;
    ``config.RunConfig.validate`` rejects such a config before any build.
    """
    rows = []
    for sys in systems:
        if sys.dof.n_s == 0:
            raise ValueError(f"level n = {sys.mesh.config.n}: the cube has no interior vertex, "
                             "so the manufactured field is rounding noise")
        zv, fv = manufactured_field(sys.mesh, sys.dof, beta)
        rows.append({"n": sys.mesh.config.n, **multiplier_residual(zv, fv, beta, sys)})
        del sys, zv, fv     # before the next level is built
    if len(rows) < 2:
        raise ValueError(f"the order fit needs at least 2 refinement levels, got {len(rows)}")

    orders = {}
    for key in ("radial", "unit_div"):
        hs = np.array([r[key].h for r in rows])
        res = np.array([max(r[key].residual, 1e-300) for r in rows])
        orders[key] = loglog_fit(hs, res)[0]
    return rows, orders
