import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

import mlfsi.assembly as assembly
from mlfsi.linalg import Factorization, SingularMatrixError, loglog_fit, nested_dissection

from oracles import dense_gram_opnorm, gram_opnorm, slab_characteristic, slab_eigenvalue


def random_spd(n, rng, scale=1.0):
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B @ B.T + scale * n * np.eye(n))


def natural(A):
    """The natural order of the unknowns of a square matrix."""
    return np.arange(A.shape[0])


def test_factorization_requires_an_order():
    with pytest.raises(TypeError):
        Factorization(sp.eye(3, format="csr"))


def test_solve_spd_identity(rng):
    b = rng.standard_normal(7)
    x = Factorization(sp.eye(7, format="csr"), np.arange(7)).solve(b)
    assert np.allclose(x, b)


def test_solve_spd_hand_2x2():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = np.array([1.0, 1.0])
    x = Factorization(A, natural(A)).solve(b)
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_solve_spd_matches_dense_oracle(rng):
    A = random_spd(50, rng)
    b = rng.standard_normal(50)
    x = Factorization(A, natural(A)).solve(b)
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-9


def test_solve_then_multiply_residual(rng):
    A = random_spd(40, rng)
    fact = Factorization(A.tocsc(), natural(A))
    for _ in range(100):
        b = rng.standard_normal(40)
        x = fact.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_solve_spd_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        Factorization(A, natural(A)).solve(np.array([1.0, 0.0]))


def test_solve_complex_i_identity():
    A = sp.csr_matrix(1j * np.eye(3))
    e1 = np.array([1.0, 0.0, 0.0])
    x = Factorization(A, natural(A)).solve(e1)
    assert np.allclose(x, -1j * e1)


def test_solve_complex_diagonal(rng):
    lam = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    beta = 3.0
    A = sp.diags(1j * beta - lam, format="csr")
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    x = Factorization(A, natural(A)).solve(b)
    assert np.allclose(x, b / (1j * beta - lam))


def test_solve_complex_assembled_matches_dense(tiny_sys, rng):
    beta = 1.0
    A = (1j * beta) * tiny_sys.M.astype(complex) - tiny_sys.A.astype(complex)
    b = rng.standard_normal(tiny_sys.dof.total) + 0j
    x = Factorization(sp.csr_matrix(A), natural(A)).solve(b)
    xd = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - xd) / np.linalg.norm(xd) < 1e-9


def test_solve_complex_singular_raises():
    A = sp.csr_matrix(np.array([[1.0 + 0j, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        Factorization(A, natural(A)).solve(np.array([1.0 + 0j, 0.0]))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("trans", ["N", "T", "H"])
def test_empty_matrix_solves_an_empty_rhs(dtype, trans):
    # A block with no unknowns (no solid-interior or fluid-interior vertex)
    # factors like any other and solves an empty right-hand side.
    A = sp.csr_matrix((0, 0))
    x = Factorization(A, nested_dissection(np.zeros((0, 3)))).solve(np.zeros(0, dtype), trans)
    assert x.shape == (0,) and x.dtype == dtype


def test_opnorm_identity(rng):
    G = random_spd(12, rng)
    eye = sp.eye(12, format="csr")
    val = gram_opnorm(eye, G, tol=1e-8).sigma
    assert val == pytest.approx(1.0, rel=1e-6)


def test_opnorm_scalar_multiple(rng):
    G = random_spd(9, rng)
    c = -2.5
    val = gram_opnorm(sp.csr_matrix(c * np.eye(9)), G, tol=1e-8).sigma
    assert val == pytest.approx(abs(c), rel=1e-6)


def test_opnorm_matches_dense_oracle(rng):
    n = 30
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = random_spd(n, rng)
    val = gram_opnorm(sp.csr_matrix(T), G, tol=1e-8).sigma
    ref = dense_gram_opnorm(T, G.toarray())
    assert abs(val - ref) / ref < 1e-6


def test_opnorm_invariant_under_gram_orthogonal_conjugation(rng):
    n = 16
    G = random_spd(n, rng).toarray()
    T = rng.standard_normal((n, n))
    # G-orthogonal W: W = L^{-T} Q with Q orthogonal satisfies W^T G W = I...
    # scale to preserve G itself: W^T G W = G needs W = L^{-T} Q L^T.
    L = np.linalg.cholesky(G)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W = np.linalg.solve(L.T, Q @ L.T)
    assert np.allclose(W.T @ G @ W, G)
    tol = 1e-7
    v1 = gram_opnorm(sp.csr_matrix(T), sp.csr_matrix(G), tol=tol).sigma
    v2 = gram_opnorm(
        sp.csr_matrix(np.linalg.solve(W, T @ W)), sp.csr_matrix(G), tol=tol
    ).sigma
    assert abs(v1 - v2) / v1 < 1e-5


def test_gram_opnorm_info_converged(rng):
    G = sp.eye(10, format="csr")
    T = sp.diags(np.arange(1.0, 11.0))
    info = gram_opnorm(T, G, tol=1e-8)
    assert info.sigma == pytest.approx(10.0, rel=1e-6)


def reduced_matrix(split, case):
    """The velocity matrix of a shifted solve or a midpoint step (tau = 0.01)."""
    return {
        "reduced-shifted-1": 1j * split.M_VV + split.K - 1j * split.Q,
        "reduced-shifted-200": 200j * split.M_VV + split.K - (1j / 200) * split.Q,
        "reduced-stepper": 200.0 * split.M_VV + split.K + (1 / 200.0) * split.Q,
    }[case]


def factored_block(sys, case):
    """A matrix the program factors and the mesh vertices of its unknowns."""
    split, dof = sys.kinematic, sys.dof
    n_fi, n_i = split.n_fi, dof.n_i
    v_vertices = np.concatenate([dof.fluid_free, dof.solid_interior])
    if case.startswith("reduced"):
        return reduced_matrix(split, case), v_vertices
    return {
        "K_ff": (split.K[:n_fi, :n_fi], dof.fluid_interior),
        "P": (split.P, dof.solid_all),
        "M_G": (sys.M_G, dof.interface),
        "Ks_II": (sys.K_s[n_i:, n_i:], dof.solid_interior),
    }[case]


def program_order(sys, case, monkeypatch):
    """The order in which the program factors the block of ``case``."""
    split = sys.kinematic
    if case in ("K_ff", "P"):
        # solve_generator factors K_ff, then P; neither is kept.
        orders = []

        class Recording(Factorization):
            def __init__(self, A, order):
                orders.append(np.asarray(order))
                super().__init__(A, order)

        monkeypatch.setattr(assembly, "Factorization", Recording)
        split.solve_generator(np.ones(sys.dof.total))
        return orders[case == "P"]
    if case == "M_G":
        return sys.mass_g_factor.order
    if case == "Ks_II":
        return sys.dirichlet_map.factor.order
    return split.order


@pytest.mark.parametrize("case", ["K_ff", "P", "M_G", "Ks_II",
                                  "reduced-shifted-1", "reduced-shifted-200", "reduced-stepper"])
def test_factorization_ordering_rule_and_residual(n8_sys, rng, monkeypatch, case):
    # Every LU is in the nested-dissection order of its own unknowns' vertices.
    mat, vertices = factored_block(n8_sys, case)
    order = nested_dissection(n8_sys.mesh.vertices[vertices])
    assert np.array_equal(program_order(n8_sys, case, monkeypatch), order)
    fact = Factorization(mat.tocsc(), order)
    b = rng.standard_normal(mat.shape[0]) + 1j * rng.standard_normal(mat.shape[0])
    if not np.iscomplexobj(mat.data):
        b = b.real
    x = fact.solve(b)
    assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) <= 1e-12


@pytest.mark.parametrize("trans", ["N", "T", "H"])
@pytest.mark.parametrize("piece", ["mass_g_factor", "dirichlet_map"])
def test_real_lu_solves_a_complex_rhs_as_two_real_solves(n8_sys, rng, piece, trans):
    # A real LU solves a complex right-hand side as one two-column solve;
    # every bit must match separate solves of its real and imaginary parts.
    fact = getattr(n8_sys, piece)
    fact = getattr(fact, "factor", fact)
    assert fact.real
    n = fact.order.size
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    two = fact.solve(b.real, trans) + 1j * fact.solve(b.imag, trans)
    x = fact.solve(b, trans=trans)
    assert x.dtype == two.dtype and x.shape == two.shape
    assert np.array_equal(x.view(np.uint64), two.view(np.uint64))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_real_lu_solves_a_complex_block_column_by_column(n8_sys, rng, k):
    # A complex (N, k) block on a real LU keeps its shape, and each column is
    # its own solve. SuperLU's block solve need not give a column the bits of
    # its single-column solve, so the match is to rounding.
    split = n8_sys.kinematic
    fact = Factorization(reduced_matrix(split, "reduced-stepper"), order=split.order)
    assert fact.real
    n = fact.order.size
    B = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    X = fact.solve(B)
    assert X.shape == (n, k) and X.dtype == np.complex128
    for j in range(k):
        x = fact.solve(B[:, j])
        assert np.linalg.norm(X[:, j] - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("case", ["reduced-shifted-200", "reduced-stepper"])
def test_shared_factorization_solves_alike_on_concurrent_threads(n8_sys, rng, case):
    # A jobs sweep shares the Dirichlet map's LU and the M_G LU across its
    # threads. More threads than cores solve on one complex or one real LU at
    # once, with a short switch interval, and each must give the serial bits.
    fact = Factorization(reduced_matrix(n8_sys.kinematic, case), order=n8_sys.kinematic.order)
    n = fact.order.size
    solves = [(rng.standard_normal(n) + 1j * rng.standard_normal(n), trans)
              for _ in range(2) for trans in ("N", "H")]
    serial = [fact.solve(b, trans=trans) for b, trans in solves]
    threads = 4
    barrier = threading.Barrier(threads)

    def run(_):
        barrier.wait(timeout=30)
        return [[fact.solve(b, trans=trans) for b, trans in solves] for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, range(threads), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == threads
    for rounds in results:
        for xs in rounds:
            for x, ref in zip(xs, serial, strict=True):
                assert np.array_equal(x, ref)


def test_loglog_fit_matches_polyfit():
    rng = np.random.default_rng(7)
    for size in (2, 3, 10, 50):
        for _ in range(50):
            x, y = rng.uniform(0.1, 100.0, (2, size))
            slope, intercept, rms = loglog_fit(x, y)
            assert [slope, intercept] == np.polyfit(np.log(x), np.log(y), 1).tolist()
            misfit = np.log(y) - (slope * np.log(x) + intercept)
            assert rms == pytest.approx(np.sqrt(np.mean(misfit**2)), abs=1e-12)
    assert loglog_fit([1.0, 10.0, 100.0], [2.0, 20.0, 200.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_loglog_fit_recovers_the_flat_layer_rate():
    # The flat-layer analog has a known rate. Its grazing modes (xi^2 = beta^2
    # - pi^2) have -Re lam ~ pi^2 / beta^3, so 1 / |Re lam| grows like beta^3;
    # its xi = 0 modes, near i k pi, grow only like beta^(3/2).
    def grazing(beta):
        xi = np.sqrt(beta**2 - np.pi**2)
        lam = slab_eigenvalue(xi, 1j * beta - np.pi**2 / beta**3)
        assert abs(slab_characteristic(lam, xi)) <= 1e-6
        return lam

    assert -grazing(10.0).real * 10.0**3 / np.pi**2 == pytest.approx(1.0325, abs=1e-4)
    betas = np.array([20.0, 40.0, 80.0, 160.0])
    slope = loglog_fit(betas, [1 / abs(grazing(b).real) for b in betas])[0]
    assert abs(slope - 3) <= 0.05

    # k pi in [75, 600]. A start at i beta instead can land on a far point
    # that is no zero, so each root starts at its own i k pi.
    roots = [slab_eigenvalue(0.0, 1j * k * np.pi) for k in np.rint(np.geomspace(24, 190, 8))]
    assert max(abs(slab_characteristic(lam, 0.0)) for lam in roots) <= 1e-6
    slope = loglog_fit([lam.imag for lam in roots], [1 / abs(lam.real) for lam in roots])[0]
    assert abs(slope - 1.5) <= 0.1
    # A fit that misses the grazing family must fail the alpha = 3 gate.
    assert abs(slope - 3) > 0.05
