"""Sparse solve kernels, gram-weighted operator-norm estimation, and the
log-log fit behind every rate.

Direct SuperLU factorizations serve both the real SPD blocks and the complex
shifted systems at desk scale, each in a nested-dissection order of the grid
vertices its unknowns sit on; a factorization is immutable after
construction and can be shared across solves and across threads, since a
solve writes only to its own arrays. Operator norms in a gram
metric are estimated by ARPACK's implicitly restarted Lanczos on the
gram-normal operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Factorization hit an (almost) exactly singular pivot."""


class Factorization:
    """Reusable LU factorization of a sparse matrix (real or complex) in a given order.

    ``order`` is a symmetric permutation of the unknowns, such as a
    nested-dissection order from `nested_dissection`. SuperLU factors
    A[order][:, order] as given (``permc_spec="NATURAL"``) in symmetric mode
    with diagonal pivot threshold `ORDERED_PIVOT_THRESHOLD`, and `solve`
    permutes in and out. Given ``inverse``, the inverse permutation of
    ``order``, A is that ordered matrix already, as canonical CSC, and goes
    to SuperLU with no conversion or permutation (`assembly.ShiftPattern`
    builds such matrices).
    """

    def __init__(self, A, order, inverse=None):
        self.order = np.asarray(order, dtype=np.int64)
        if inverse is None:
            A = sp.csc_matrix(A)[self.order][:, self.order]
            inverse = np.argsort(self.order)
        self.real = A.dtype.kind != "c"
        self.inverse = inverse
        try:
            self.lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=ORDERED_PIVOT_THRESHOLD,
                                options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc

    def solve(self, b, trans="N"):
        """x with A x = b (A^T x = b, A^H x = b for trans "T", "H"); b is (N,) or (N, k)."""
        b = np.asarray(b)
        split = np.iscomplexobj(b) and self.real
        # A complex b on a real LU: its real and imaginary columns side by side, in one real solve.
        rhs = np.column_stack([b.real, b.imag]) if split else b
        x = self.lu.solve(rhs[self.order], trans=trans)[self.inverse]
        if not split:
            return x
        re, im = np.hsplit(x, 2)
        return (re + 1j * im).reshape(b.shape)


# Diagonal pivot threshold of every factorization. SuperLU's default
# 1.0 takes off-diagonal pivots on some shifted matrices, which adds fill;
# 0.01 keeps every diagonal pivot of the shifted and midpoint matrices, at
# residuals <= 1e-12. 0 is not safe on indefinite matrices: it leaves a
# relative residual of 0.7 on A.
ORDERED_PIVOT_THRESHOLD = 0.01

# Largest block of unknowns `nested_dissection` leaves unsplit.
DISSECTION_LEAF = 16


def coordinate_bisection(coords, idx):
    """Split the points ``idx`` of ``coords`` at the middle coordinate level.

    The axis is the one with the most distinct coordinate values; the
    separator holds the points on the middle value. On a structured grid,
    where an element links only the points of one cell, no element links the
    two halves. Returns (lower half, upper half, separator), or None when the
    points span fewer than three levels on every axis.
    """
    pts = coords[idx]
    levels = [np.unique(pts[:, k]) for k in range(pts.shape[1])]
    axis = max(range(len(levels)), key=lambda k: levels[k].size)
    if levels[axis].size < 3:
        return None
    cut = levels[axis][levels[axis].size // 2]
    x = pts[:, axis]
    return idx[x < cut], idx[x > cut], idx[x == cut]


def nested_dissection(coords):
    """Nested-dissection order of points by recursive coordinate bisection.

    Each half is ordered before its separator, so the separators come last
    and fill stays inside the blocks they close (George, SIAM J. Numer.
    Anal. 1973). ``coords`` is (n, dim); returns a permutation of range(n).
    """
    order = []

    def dissect(idx):
        parts = coordinate_bisection(coords, idx) if idx.size > DISSECTION_LEAF else None
        if parts is None:
            order.append(idx)
            return
        lower, upper, separator = parts
        dissect(lower)
        dissect(upper)
        order.append(separator)

    dissect(np.arange(len(coords)))
    return np.concatenate(order)


@dataclass
class OpnormInfo:
    sigma: float
    iterations: int     # applications of the normal operator


# Lanczos basis size (ARPACK's ncv) of the norm estimate. At n=16 the 13-point
# log grid on [1, 200] then takes 160 normal-operator applications in all.
LANCZOS_NCV = 6


def opnorm_from_normal(normal, gram, tol, seed) -> OpnormInfo:
    """Gram-metric norm of T from its normal operator N = G^{-1} T^H G T.

    N is self-adjoint and positive semidefinite in the G inner product, and
    its top eigenvalue is |T|_G^2. ARPACK's implicitly restarted Lanczos
    finds it from a seeded complex Gaussian start vector (``eigsh`` hands a
    complex operator to ARPACK's complex Arnoldi code, which on a
    self-adjoint operator is Lanczos with full reorthogonalization). A Ritz
    value never exceeds the top eigenvalue, so the estimate approaches the
    norm from below; ARPACK's eigenvalue tolerance is 1e-2 * tol. Raises
    ``ArpackNoConvergence`` if ARPACK gives up. Needs a gram matrix of
    dimension 3 or more.
    """
    dim = gram.shape[0]
    applications = 0

    def counted(v):
        nonlocal applications
        applications += 1
        return normal(v)

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    op = spla.LinearOperator((dim, dim), matvec=counted, dtype=np.complex128)
    # ARPACK's generalized mode iterates on Minv A; N already holds G^{-1}.
    identity = spla.LinearOperator((dim, dim), matvec=lambda v: v, dtype=np.complex128)
    lam = spla.eigsh(
        op, k=1, M=gram, Minv=identity, which="LA", v0=v0, ncv=min(LANCZOS_NCV, dim),
        tol=1e-2 * tol, rng=seed, return_eigenvectors=False,
    )
    return OpnormInfo(float(np.sqrt(max(lam.max(), 0.0))), applications)


def loglog_fit(x, y):
    """Least-squares line log y = slope * log x + intercept.

    Returns (slope, intercept, RMS residual); the residual is 0.0 for two
    points, where the line is exact.
    """
    coef, res = np.polyfit(np.log(x), np.log(y), 1, full=True)[:2]
    return float(coef[0]), float(coef[1]), float(np.sqrt(res[0] / len(x))) if res.size else 0.0
