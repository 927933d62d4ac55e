"""Output checks, each against a computation made apart from the program or a
property the method must have. Every check returns a list of problems
(empty when the output passes); the sweep check also returns the rows whose
operator norm misses the reference.

The system matrices (M, A, K_f) come from `mlfsi.assembly`; everything
computed from them here uses scipy directly, never `mlfsi.linalg`,
`mlfsi.resolvent` or `mlfsi.evolution`.

The opnorm reference depends only on the inputs and takes ~15 s, so it is
cached under the work directory, keyed by a digest of (M, A) and the grid.
Recompute it with `python3 bench/checks.py --recompute-refs`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

OPNORM_TOL = 1e-4            # sweep.opnorm_tol of the sweep workloads
DISSIPATION_MAX = 1e-10
BALANCE_REL = 1e-12          # per-step energy balance, relative to E0
FIT_REL = 1e-9               # refits must match the written fits this closely


def log_grid(beta_min, beta_max, points):
    lo, hi = math.log10(beta_min), math.log10(beta_max)
    return [10 ** (lo + (hi - lo) * i / (points - 1)) for i in range(points)]


def line_fit(x, y):
    """Least-squares slope, intercept and rms residual, in closed form."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    intercept = my - slope * mx
    rms = math.sqrt(sum((b - intercept - slope * a) ** 2 for a, b in zip(x, y)) / n)
    return slope, intercept, rms


def _close(a, b, rel, floor=1e-14):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


# ---------------------------------------------------------------- sweep

def read_sweep_csv(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def matrix_digest(*mats):
    h = hashlib.sha256()
    for m in mats:
        m = sp.csr_matrix(m)
        for arr in (m.indptr, m.indices, m.data):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def opnorm_reference(M, A, betas):
    """Largest singular value of M^(1/2) (i beta M - A)^(-1) M^(1/2) per beta.

    It is the square root of the top eigenvalue of the pencil
    (M R^H M R M, M) with R = (i beta M - A)^(-1), found by ARPACK on
    scipy's own LU factors.
    """
    M = sp.csc_matrix(M)
    n = M.shape[0]
    Mc = M.astype(np.complex128)
    mlu = spla.splu(M)
    minv = spla.LinearOperator(
        (n, n), dtype=np.complex128, matvec=lambda r: mlu.solve(r.real) + 1j * mlu.solve(r.imag)
    )
    sigma = []
    for beta in betas:
        lu = spla.splu(sp.csc_matrix(1j * beta * Mc - A.astype(np.complex128)))

        def apply(v, lu=lu):
            return Mc @ lu.solve(Mc @ lu.solve(Mc @ v), trans="H")

        op = spla.LinearOperator((n, n), dtype=np.complex128, matvec=apply)
        top = spla.eigsh(op, k=2, M=Mc, Minv=minv, which="LA", tol=1e-12,
                         v0=np.ones(n, np.complex128), return_eigenvectors=False)
        sigma.append(float(np.sqrt(top.max())))
    return sigma


def cached_opnorm_reference(cache_dir, system, betas, recompute=False):
    key = {"matrices": matrix_digest(system.M, system.A), "betas": [repr(b) for b in betas]}
    path = Path(cache_dir) / "opnorm_reference.json"
    if not recompute and path.exists():
        cached = json.loads(path.read_text())
        if cached["key"] == key:
            return cached["sigma"]
    sigma = opnorm_reference(system.M, system.A, betas)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"key": key, "sigma": sigma}, indent=1))
    return sigma


def check_sweep(outdir, sigma_ref, beta_min, beta_max, points):
    """Returns (indices of rows whose opnorm misses the reference, problems)."""
    outdir = Path(outdir)
    rows = read_sweep_csv(outdir / "sweep.csv")
    problems = []
    if len(rows) != points:
        return [], [f"sweep.csv has {len(rows)} rows, expected {points}"]
    failed = []
    for i, (row, grid, ref) in enumerate(zip(rows, log_grid(beta_min, beta_max, points), sigma_ref)):
        if not _close(row["beta"], grid, 1e-13):
            problems.append(f"row {i}: beta {row['beta']!r} is not the log-grid point {grid!r}")
        if not ref * (1 - 3 * OPNORM_TOL) <= row["opnorm"] <= ref * (1 + 1e-9):
            failed.append(i)
        if not abs(row["dissipation_residual"]) <= DISSIPATION_MAX:
            problems.append(f"row {i}: dissipation residual {row['dissipation_residual']:g}")

    growth = json.loads((outdir / "growth.json").read_text())
    top = [r for r in rows if r["beta"] >= max(r["beta"] for r in rows) / 10.0]
    slope, _, rms = line_fit([math.log(r["beta"]) for r in top], [math.log(r["opnorm"]) for r in top])
    expect = {"slope": slope, "residual": rms, "points": len(top),
              "beta_window": [top[0]["beta"], top[-1]["beta"]], "reference_exponent": 5.5}
    if growth.keys() != expect.keys():
        problems.append(f"growth.json keys {sorted(growth)}")
    else:
        for k in ("slope", "residual"):
            if not _close(growth[k], expect[k], FIT_REL):
                problems.append(f"growth.json {k} {growth[k]!r}, refit gives {expect[k]!r}")
        for k in ("points", "beta_window", "reference_exponent"):
            if growth[k] != expect[k]:
                problems.append(f"growth.json {k} {growth[k]!r}, expected {expect[k]!r}")
    return failed, problems


def check_same_bytes(path, reference_path):
    a, b = Path(path).read_bytes(), Path(reference_path).read_bytes()
    if a == b:
        return []
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"{path} differs from {reference_path} at byte {at}"]


# ---------------------------------------------------------------- evolve

def check_evolve(outdir, system, seed, T, tau, window, steps_checked=50):
    outdir = Path(outdir)
    data = np.loadtxt(outdir / "energy.csv", delimiter=",", skiprows=1, ndmin=2)
    t, E, diss, norm = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
    problems = []
    nsteps = math.ceil(T / tau)
    if data.shape[0] != nsteps + 1 or not np.allclose(t, tau * np.arange(nsteps + 1), rtol=1e-12, atol=0):
        return [f"energy.csv time column is not 0, tau, ..., {T} ({data.shape[0]} rows)"]

    M = sp.csc_matrix(system.M)
    A = sp.csc_matrix(system.A)
    K_f = system.K_f
    n_u = K_f.shape[0]
    r = np.random.default_rng(seed).standard_normal(M.shape[0])
    x = spla.spsolve(A, M @ r)
    mlu = spla.splu(M)

    def energy_norm(v):
        return math.sqrt(float(v @ (M @ v)))

    x = x / (energy_norm(x) + energy_norm(mlu.solve(A @ x)))
    E0 = 0.5 * float(x @ (M @ x))
    if not _close(E[0], E0, 1e-9):
        problems.append(f"E[0] = {E[0]!r}, smooth data from the seed gives {E0!r}")

    lu = spla.splu(sp.csc_matrix(M - (tau / 2) * A))
    B = sp.csr_matrix(M + (tau / 2) * A)
    e_prev = E0
    for k in range(1, steps_checked + 1):
        x_new = lu.solve(B @ x)
        e_new = 0.5 * float(x_new @ (M @ x_new))
        m = 0.5 * (x[:n_u] + x_new[:n_u])
        balance = abs(e_new - e_prev + tau * float(m @ (K_f @ m)))
        if balance > BALANCE_REL * E0:
            problems.append(f"step {k}: energy balance residual {balance:g} > {BALANCE_REL:g} E0")
        if not _close(E[k], e_new, 1e-9):
            problems.append(f"E[{k}] = {E[k]!r}, own midpoint step gives {e_new!r}")
        x, e_prev = x_new, e_new

    rise = np.diff(E)
    if rise.max() > BALANCE_REL * E[0]:
        k = int(np.argmax(rise)) + 1
        problems.append(f"E rises at step {k} by {rise.max():g}")
    if diss.min() < 0:
        problems.append(f"negative dissipation {diss.min():g}")
    if not np.allclose(norm, np.sqrt(2 * E), rtol=1e-12, atol=0):
        problems.append("norm_H is not sqrt(2 E)")

    decay = json.loads((outdir / "decay.json").read_text())
    if decay["max_balance_residual"] > BALANCE_REL * E[0]:
        problems.append(f"max balance residual {decay['max_balance_residual']:g} > {BALANCE_REL:g} E0")
    ta, tb = window
    keep = (t >= ta) & (t <= tb)
    slope, intercept, rms = line_fit(np.log(t[keep]).tolist(), np.log(norm[keep]).tolist())
    expect = {"fitted_exponent": -slope, "amplitude": math.exp(intercept), "fit_residual": rms}
    for k, v in expect.items():
        if not _close(decay[k], v, FIT_REL):
            problems.append(f"decay.json {k} {decay[k]!r}, refit gives {v!r}")
    fixed = {"samples": int(keep.sum()), "window": [ta, tb], "reference_exponent": 2 / 11,
             "initial_energy": float(E[0])}
    for k, v in fixed.items():
        if decay[k] != v:
            problems.append(f"decay.json {k} {decay[k]!r}, expected {v!r}")
    return problems


# ---------------------------------------------------------------- refine

def read_mesh(path):
    """The mesh dump, parsed without mlfsi: vertices, tets, regions, tris, tags, normals."""
    lines = Path(path).read_text().splitlines()
    if lines[0] != "mlfsi-mesh 1":
        raise ValueError(f"bad header {lines[0]!r}")
    pos = 2 if lines[1].startswith("config ") else 1
    blocks = {}
    for name, cols in (("vertices", 3), ("tets", 5), ("tris", 7)):
        tag, count = lines[pos].split()
        if tag != name:
            raise ValueError(f"expected {name} block, got {lines[pos]!r}")
        count = int(count)
        flat = " ".join(lines[pos + 1: pos + 1 + count]).split()
        blocks[name] = np.array(flat, dtype=float).reshape(count, cols)
        pos += 1 + count
    tets, tris = blocks["tets"], blocks["tris"]
    return (blocks["vertices"], tets[:, :4].astype(np.int64), tets[:, 4].astype(int),
            tris[:, :3].astype(np.int64), tris[:, 3].astype(int), tris[:, 4:])


def check_mesh(path, n, lo=0.25, hi=0.75):
    """Counts, grid positions, volumes, areas and normals of the cube-in-box mesh."""
    vertices, tets, regions, tris, tags, normals = read_mesh(path)
    problems = []
    expect = {"vertices": (n + 1) ** 3, "tets": 6 * n**3, "solid tets": 6 * (n // 2) ** 3,
              "boundary triangles": 15 * n**2}
    got = {"vertices": len(vertices), "tets": len(tets), "solid tets": int((regions == 1).sum()),
           "boundary triangles": len(tris)}
    problems += [f"{k}: {got[k]}, expected {v}" for k, v in expect.items() if got[k] != v]
    if problems:
        return problems

    grid = vertices * n
    idx = np.rint(grid)
    if np.abs(grid - idx).max() > 1e-9 or len(np.unique(idx, axis=0)) != len(idx):
        problems.append("vertices are not the (n+1)^3 grid points")
    h = 1.0 / n
    p = vertices[tets]
    vol = np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    if np.abs(vol / (h**3 / 6) - 1).max() > 1e-9:
        problems.append(f"tet volumes span [{vol.min():g}, {vol.max():g}], all should be h^3/6")
    for region, want in ((0, 1 - (hi - lo) ** 3), (1, (hi - lo) ** 3)):
        if not _close(vol[regions == region].sum(), want, 1e-12):
            problems.append(f"region {region} volume {vol[regions == region].sum()!r}, expected {want}")
    centroid = p.mean(axis=1)
    inside = np.all((centroid > lo) & (centroid < hi), axis=1)
    if np.any(inside != (regions == 1)):
        problems.append("region tags disagree with the cube")

    q = vertices[tris]
    cross = np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
    area = 0.5 * np.linalg.norm(cross, axis=1)
    iface = tags != 0
    if not _close(area[iface].sum(), 6 * (hi - lo) ** 2, 1e-12):
        problems.append(f"interface area {area[iface].sum()!r}, expected {6 * (hi - lo) ** 2}")
    if np.abs(np.linalg.norm(normals, axis=1) - 1).max() > 1e-12:
        problems.append("boundary normals are not unit vectors")
    if np.abs(np.cross(normals, cross)).max() > 1e-12:
        problems.append("boundary normals are not normal to their triangles")
    return problems


def check_probe(path, levels, beta):
    """The multiplier-study lhs must converge to the exact integrals at every level."""
    probe = json.loads(Path(path).read_text())
    problems = []
    if probe["refinements"] != list(levels) or probe["beta"] != beta:
        return [f"probe.json refinements {probe['refinements']} beta {probe['beta']}"]
    grad_sq = 12 * math.pi**2 / 64          # int |grad z|^2 for the product-sine z on the cube
    exact = {"radial": grad_sq, "unit_div": grad_sq - beta**2 / 64}
    for key, want in exact.items():
        err = [abs(row["lhs"] - want) for row in probe[key]]
        if not all(b < a for a, b in zip(err, err[1:])):
            problems.append(f"{key} lhs errors {err} do not shrink at every refinement")
    return problems


def main():
    parser = argparse.ArgumentParser(description="Recompute the cached opnorm reference of the sweep workloads.")
    parser.add_argument("--recompute-refs", action="store_true", required=True)
    parser.parse_args()
    import run

    run.opnorm_reference_for(recompute=True)


if __name__ == "__main__":
    main()
