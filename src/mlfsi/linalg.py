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

    def __reduce__(self):
        # SuperLU handles cannot cross process boundaries; re-factorize there.
        return (Factorization, (self.matrix,))


@dataclass
class OpnormInfo:
    sigma: float
    iterations: int     # applications of the normal operator


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
    return OpnormInfo(float(np.sqrt(max(lam.max(), 0.0))), applications)
