"""Sparse solve kernels and gram-weighted operator-norm estimation.

Direct SuperLU factorizations serve both the real SPD and the complex
shifted systems at desk scale; a factorization is immutable after
construction and can be shared across solves. Operator norms in a gram
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


class NonSymmetricMatrixError(ValueError):
    pass


class NotSPDError(RuntimeError):
    def __init__(self, pivot_index, pivot_value):
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} has value {pivot_value:g}"
        )
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    factorization_reused: bool


class Factorization:
    """Reusable LU factorization of a sparse matrix (real or complex).

    A matrix with a zero-free diagonal (every shifted, stepper, mass and
    stiffness matrix here) is ordered by minimum degree on A^T + A in
    SuperLU's symmetric mode, which suits their symmetric pattern: less fill
    and faster solves. Any other matrix keeps the default COLAMD column
    ordering. Both keep SuperLU's default threshold pivoting.
    """

    def __init__(self, A):
        self.matrix = sp.csc_matrix(A)
        self.symmetric_mode = bool(np.all(self.matrix.diagonal() != 0))
        try:
            if self.symmetric_mode:
                self.lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                                    options={"SymmetricMode": True})
            else:
                self.lu = spla.splu(self.matrix)
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc

    def solve(self, b, trans="N"):
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.matrix.dtype.kind != "c":
            return self.lu.solve(np.ascontiguousarray(b.real), trans=trans) + 1j * self.lu.solve(
                np.ascontiguousarray(b.imag), trans=trans
            )
        return self.lu.solve(b, trans=trans)

    def u_pivots(self):
        return self.lu.U.diagonal()

    def __reduce__(self):
        # SuperLU handles cannot cross process boundaries; re-factorize there.
        return (Factorization, (self.matrix,))


def factorize(A) -> Factorization:
    return Factorization(A)


def _residual(A, x, b):
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return 0.0
    return float(np.linalg.norm(A @ x - b) / nb)


def check_symmetric(A, tol=1e-12):
    scale = max(abs(A.max()), abs(A.min()), 1.0)
    asym = abs((A - A.T)).max()
    if asym > tol * scale:
        raise NonSymmetricMatrixError(f"matrix asymmetry {asym:g} exceeds {tol:g} * scale")


def solve_spd(A, b, fact: Factorization | None = None, tol=1e-10):
    """Direct solve of a symmetric positive definite system.

    Returns (x, SolveReport). Symmetry is checked up front; a bad pivot or a
    residual above ``tol`` raises with the offending pivot.
    """
    reused = fact is not None
    if fact is None:
        check_symmetric(A)
        fact = Factorization(A)
    x = fact.solve(b)
    res = _residual(fact.matrix, x, b)
    if res > tol:
        piv = fact.u_pivots().real
        bad = int(np.argmin(piv))
        if piv[bad] <= 0:
            raise NotSPDError(bad, float(piv[bad]))
        raise SingularMatrixError(
            f"SPD solve residual {res:g} exceeds tolerance {tol:g}"
        )
    return x, SolveReport(0, res, reused)


def solve_complex(A, b, fact: Factorization | None = None, tol=1e-10):
    """Direct solve of a (complex) nonsingular system; returns (x, SolveReport)."""
    reused = fact is not None
    if fact is None:
        fact = Factorization(sp.csc_matrix(A, dtype=np.complex128))
    x = fact.solve(np.asarray(b, dtype=np.complex128))
    if not np.all(np.isfinite(x.view(np.float64))):
        raise SingularMatrixError("solution is not finite: matrix singular to working precision")
    res = _residual(fact.matrix, x, b)
    if res > tol:
        raise SingularMatrixError(
            f"complex solve residual {res:g} exceeds tolerance {tol:g}: "
            "matrix is singular to tolerance"
        )
    return x, SolveReport(0, res, reused)


@dataclass
class OpnormInfo:
    sigma: float
    iterations: int     # applications of the normal operator
    converged: bool


def _as_matvec_pair(apply):
    if isinstance(apply, tuple):
        return apply
    if hasattr(apply, "matvec") and hasattr(apply, "rmatvec"):
        return apply.matvec, apply.rmatvec
    if sp.issparse(apply) or isinstance(apply, np.ndarray):
        return (lambda v: apply @ v), (lambda v: apply.conj().T @ v)
    raise TypeError("apply must expose matvec/rmatvec or be a (matvec, rmatvec) pair")


# Lanczos basis size (ARPACK's ncv) of the norm estimate. At n=16 the 13-point
# log grid on [1, 200] then takes 166 normal-operator applications in all.
LANCZOS_NCV = 6


def opnorm_from_normal(normal, gram, dim, tol=1e-4, seed=0) -> OpnormInfo:
    """Gram-metric norm of T from its normal operator N = G^{-1} T^H G T.

    N is self-adjoint and positive semidefinite in the G inner product, and
    its top eigenvalue is |T|_G^2. ARPACK's implicitly restarted Lanczos
    finds it from a seeded complex Gaussian start vector (``eigsh`` hands a
    complex operator to ARPACK's complex Arnoldi code, which on a
    self-adjoint operator is Lanczos with full reorthogonalization). A Ritz
    value never exceeds the top eigenvalue, so the estimate approaches the
    norm from below; ARPACK's eigenvalue tolerance is 1e-2 * tol. Raises
    ``ArpackNoConvergence`` if ARPACK gives up. Needs dim >= 3.
    """
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
    return OpnormInfo(float(np.sqrt(max(lam.max(), 0.0))), applications, True)


def gram_opnorm(apply, gram, dim, tol=1e-4, seed=0) -> OpnormInfo:
    """Largest singular value of ``apply`` in the gram norm on both sides.

    ``apply`` is a (matvec, rmatvec) pair, an object exposing both, or a
    matrix; rmatvec is the Euclidean adjoint. The normal operator is formed
    with a factorization of the gram matrix; callers that know it in closed
    form call ``opnorm_from_normal`` directly.
    """
    matvec, rmatvec = _as_matvec_pair(apply)
    gram_solve = Factorization(gram).solve
    return opnorm_from_normal(
        lambda v: gram_solve(rmatvec(gram @ matvec(v))), gram, dim, tol=tol, seed=seed
    )


def generalized_opnorm(apply, gram, dim, tol=1e-4, **kwargs) -> float:
    """Operator norm of a linear map measured in the gram metric."""
    return gram_opnorm(apply, gram, dim, tol=tol, **kwargs).sigma


def smallest_singular_value(A, fact: Factorization | None = None,
                            tol=1e-3, max_iter=200, seed=0) -> float:
    """Estimate sigma_min(A) by power iteration on (A A^H)^{-1}."""
    if fact is None:
        fact = Factorization(A)
    rng = np.random.default_rng(seed)
    n = fact.matrix.shape[0]
    v = rng.standard_normal(n).astype(fact.matrix.dtype)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = fact.solve(fact.solve(v), trans="H")
        lam_new = float(np.linalg.norm(w))
        w /= lam_new
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        lam, v = lam_new, w
    return 1.0 / np.sqrt(lam)


def dump_coo(A, path):
    """Coordinate text dump: one `row col value` line per stored entry."""
    coo = sp.coo_matrix(A)
    with open(path, "w") as fh:
        fh.write(f"coo {coo.shape[0]} {coo.shape[1]} {coo.nnz} {coo.dtype.kind}\n")
        if coo.dtype.kind == "c":
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {v.real:.17g} {v.imag:.17g}\n")
        else:
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {v:.17g}\n")
