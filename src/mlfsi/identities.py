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
from dataclasses import dataclass

import numpy as np

from .assembly import DofMap, State, build_system, energy_norm, fluid_gradient_norm
from .geometry import Mesh, MeshConfig, build_mesh
from .linalg import Factorization, loglog_fit


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
        n_s = dof.n_s
        K = sys.K_s.tocsr()
        self.n_s, self.n_i = n_s, dof.n_i
        self.K_IG = K[:n_s, n_s:]
        self.K_GI = K[n_s:, :n_s]
        self.K_GG = K[n_s:, n_s:]
        self.factor = Factorization(K[:n_s, :n_s].tocsc()) if n_s else None

    def extend(self, g):
        g = np.asarray(g)
        if self.n_s == 0:
            return g.copy()
        interior = -self.factor.solve(self.K_IG @ g)
        return np.concatenate([interior, g])

    def neumann(self, g):
        e = self.extend(g)
        if self.n_s == 0:
            return self.K_GG @ g
        return self.K_GI @ e[: self.n_s] + self.K_GG @ g

    def h1_ratio(self, g, sys) -> float:
        """Monitored boundedness constant |E g|_{H1} / |g|_{1/2,h}."""
        e = self.extend(g)
        h1 = np.sqrt(np.vdot(e, (sys.K_s + sys.M_s) @ e).real)
        gn = sys.surface_spectral.norm_function(g, 0.5)
        return float(h1 / gn) if gn > 0 else 0.0


def interface_lift(x: State, b: State, beta) -> np.ndarray:
    """(i/beta) * (trace u + data displacement trace) on the interface.

    Shared between the static solve (which substitutes the thin kinematic row
    with exactly this expression) and the z construction (which adds it back),
    so the boundary cancellation is exact in floating point, not just in
    exact arithmetic.
    """
    return (1j / beta) * (x.trace_u + b.h0)


def build_z(x: State, b: State, beta, sys) -> tuple[np.ndarray, np.ndarray]:
    """Nodal (z, load) on the solid ordering [interior, interface].

    z = w0 + (i/beta) E(trace u + trace of the data displacement) solves
    -beta^2 z - Delta z = load, with load = -i beta E(...) + w1 + i beta w0
    of the data; both come from one Dirichlet extension. The kinematic rows
    of the static solve make the interface values cancel exactly, so the
    boundary trace must vanish to solver precision; this is asserted at
    1e-12 relative to the field's max magnitude.
    """
    if abs(beta) < 1.0:
        raise ValueError(f"z construction requires |beta| >= 1, got {beta}")
    n_s = sys.dof.n_s
    ext = sys.dirichlet_map.extend(x.trace_u + b.h0)
    z = x.w0_full.astype(complex)
    z[:n_s] += (1j / beta) * ext[:n_s]
    z[n_s:] += interface_lift(x, b, beta)
    scale = float(np.max(np.abs(z)))
    bres = float(np.max(np.abs(z[n_s:])))
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
    return -r[sys.dof.n_s:]


def fluid_interface_flux(x: State, b: State, beta, sys) -> np.ndarray:
    """Variational nu-flux functional of the heat field on the interface."""
    r = sys.K_f @ x.u + 1j * beta * (sys.M_f @ x.u) - sys.M_f @ b.u
    return r[sys.dof.n_fi:]


def recover_flux_nodal(flux_functional, sys) -> np.ndarray:
    """Nodal P1 representative of a flux functional: solve M_G lam = f."""
    return sys.mass_g_factor.solve(np.asarray(flux_functional))


@dataclass
class MultiplierReport:
    which: str
    lhs: float
    rhs: float
    residual: float
    h: float
    flux_method: str = "variational"
    quadrature: str = "exact-p1-products"

    def as_dict(self):
        return {
            "identity": self.which,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "h": self.h,
            "flux_method": self.flux_method,
            "quadrature": self.quadrature,
        }


def _mesh_h(sys) -> float:
    q = sys.solid_quadrature
    edges = q.tet_coords[:, [0, 0, 0, 1, 1, 2]] - q.tet_coords[:, [1, 2, 3, 2, 3, 3]]
    return float(np.max(np.linalg.norm(edges, axis=2)))


def multiplier_residual(z, f, beta, sys, which) -> MultiplierReport:
    """Evaluate both sides of a wave multiplier identity for the nodal field z.

    ``which`` is "radial" for the gradient identity with m(x) = x (Jacobian
    the identity), or "unit-div" for the equipartition identity with
    div m = 1 (m = x/3, so the grad-div correction drops). ``f`` is the
    nodal right-hand side of -beta^2 z - Delta z = f.
    """
    q = sys.solid_quadrature
    zv = np.asarray(z, dtype=complex)
    fv = np.asarray(f, dtype=complex)
    beta = float(beta)

    grad_sq = float(np.vdot(zv, sys.K_s @ zv).real)
    mass_sq = float(np.vdot(zv, sys.M_s @ zv).real)

    if which == "unit-div":
        lhs = grad_sq - beta**2 * mass_sq
        rhs = float(np.vdot(zv, sys.M_s @ fv).real)
        return MultiplierReport(which, lhs, rhs, abs(lhs - rhs), _mesh_h(sys))
    if which != "radial":
        raise ValueError(f"unknown identity {which!r}")

    # m(x) = x: LHS is the gradient energy; RHS collects the boundary flux
    # terms (with nu into the solid), the div-m volume term, and the load term.
    zt = zv[q.tet_local]
    grad_z = np.einsum("tv,tvd->td", zt, q.tet_grads)

    flux = interface_flux(zv, fv, beta, sys)
    lam = recover_flux_nodal(flux, sys)
    lam_tri = lam[q.tri_local]

    g_adj = grad_z[q.tri_tet]                          # gradient on adjacent tet
    c_tri = np.einsum("tvd,td->tv", q.tri_coords, g_adj.conj())
    term_a = -np.einsum("tv,tvw,tw->", lam_tri, q.tri_mass, c_tri).real

    s_tri = np.einsum("tvd,td->tv", q.tri_coords, q.tri_normals)
    lam_sq = np.einsum("tv,vij,ti,tj->t", s_tri, q.tri_cubic, lam_tri.conj(), lam_tri)
    term_b = 0.5 * float((lam_sq.real * q.tri_area).sum())

    term_c = 1.5 * (grad_sq - beta**2 * mass_sq)

    f_tet = fv[q.tet_local]
    c_tet = np.einsum("tvd,td->tv", q.tet_coords, grad_z.conj())
    term_d = np.einsum("tv,tvw,tw->", f_tet, q.tet_mass, c_tet).real

    lhs = grad_sq
    rhs = float(term_a + term_b + term_c + term_d)
    return MultiplierReport(which, lhs, rhs, abs(lhs - rhs), _mesh_h(sys))


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
    heat_flux = spectral.dual_norm(fluid_interface_flux(x, b, beta, sys), 0.5)

    z, fz = build_z(x, b, beta, sys)
    flux_z = interface_flux(z, fz, beta, sys)
    lam = recover_flux_nodal(flux_z, sys)
    flux_l2 = float(np.sqrt(np.vdot(lam, sys.M_G @ lam).real))

    zh1 = float(np.sqrt(np.vdot(z, (sys.K_s + sys.M_s) @ z).real))
    zb = ab * float(np.sqrt(np.vdot(z, sys.M_s @ z).real))
    denom = ab ** 2.75 * grad_u + ab**3 * bnorm

    thin = float(np.vdot(x.h0, (sys.K_G + sys.M_G) @ x.h0).real)
    fw0 = 1j * beta * b.w0_full + b.w1_full
    flux_w0 = interface_flux(x.w0_full, fw0, beta, sys)
    pairing = abs(np.vdot(x.h0, flux_w0))
    denom_thin = pairing + grad_u**2 + bnorm**2

    g = x.trace_u + b.h0
    gn = spectral.norm_function(g, 0.5)
    dtn_norm = spectral.dual_norm(sys.dirichlet_map.neumann(g), 0.5) / gn if gn > 0 else 0.0

    zmax = float(np.max(np.abs(z)))
    return {
        "poincare_ratio": math.sqrt(ab) * unorm / base,
        "trace_ratio": ab * spectral.norm_function(x.h0, 0.5) / base,
        "flux_ratio": heat_flux / (math.sqrt(ab) * base),
        "r_crux": flux_l2 / denom,
        "r_s3": (zh1 + zb + flux_l2) / denom,
        "r_I1": thin / denom_thin,
        "dtn_norm": dtn_norm,
        "z_boundary": float(np.max(np.abs(z[sys.dof.n_s:]))) / zmax if zmax > 0 else 0.0,
    }


def manufactured_field(mesh: Mesh, dof: DofMap, beta) -> tuple[np.ndarray, np.ndarray]:
    """Product-sine field vanishing on the cube faces, with its wave load.

    Uses the fundamental sine mode per axis: a full period would interpolate
    to the zero field on the coarsest study mesh (every interior node sits on
    a sine zero), which degenerates the refinement study. Returns nodal
    (z, f) on the solid ordering for -beta^2 z - Delta z = f.
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


def manufactured_study(ns, beta=2.0, base_config: MeshConfig | None = None):
    """Multiplier residuals of both identities over a refinement sequence.

    Returns a list of per-resolution dicts and the fitted convergence orders
    (slope of log residual versus log h).
    """
    if base_config is None:
        base_config = MeshConfig()
    rows = []
    for n in ns:
        config = MeshConfig(
            base_config.outer_lo, base_config.outer_hi,
            base_config.inner_lo, base_config.inner_hi, int(n),
        )
        mesh = build_mesh(config)
        sys = build_system(mesh)
        zv, fv = manufactured_field(mesh, sys.dof, beta)
        rep_rad = multiplier_residual(zv, fv, beta, sys, "radial")
        rep_div = multiplier_residual(zv, fv, beta, sys, "unit-div")
        rows.append({"n": int(n), "radial": rep_rad, "unit_div": rep_div})

    orders = {}
    for key in ("radial", "unit_div"):
        hs = np.array([r[key].h for r in rows])
        res = np.array([max(r[key].residual, 1e-300) for r in rows])
        orders[key] = loglog_fit(hs, res)[0] if len(rows) > 1 else float("nan")
    return rows, orders
