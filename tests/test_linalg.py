import numpy as np
import pytest
import scipy.sparse as sp

from mlfsi.linalg import Factorization, SingularMatrixError, loglog_fit

from oracles import dense_gram_opnorm, gram_opnorm


def random_spd(n, rng, scale=1.0):
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B @ B.T + scale * n * np.eye(n))


def test_solve_spd_identity(rng):
    b = rng.standard_normal(7)
    x = Factorization(sp.eye(7, format="csr")).solve(b)
    assert np.allclose(x, b)


def test_solve_spd_hand_2x2():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = np.array([1.0, 1.0])
    x = Factorization(A).solve(b)
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_solve_spd_matches_dense_oracle(rng):
    A = random_spd(50, rng)
    b = rng.standard_normal(50)
    x = Factorization(A).solve(b)
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-9


def test_solve_then_multiply_residual(rng):
    A = random_spd(40, rng)
    fact = Factorization(A.tocsc())
    for _ in range(100):
        b = rng.standard_normal(40)
        x = fact.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_solve_spd_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        Factorization(A).solve(np.array([1.0, 0.0]))


def test_solve_complex_i_identity():
    A = sp.csr_matrix(1j * np.eye(3))
    e1 = np.array([1.0, 0.0, 0.0])
    x = Factorization(A).solve(e1)
    assert np.allclose(x, -1j * e1)


def test_solve_complex_diagonal(rng):
    lam = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    beta = 3.0
    A = sp.diags(1j * beta - lam, format="csr")
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    x = Factorization(A).solve(b)
    assert np.allclose(x, b / (1j * beta - lam))


def test_solve_complex_assembled_matches_dense(tiny_sys, rng):
    beta = 1.0
    A = (1j * beta) * tiny_sys.M.astype(complex) - tiny_sys.A.astype(complex)
    b = rng.standard_normal(tiny_sys.dof.total) + 0j
    x = Factorization(sp.csr_matrix(A)).solve(b)
    xd = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - xd) / np.linalg.norm(xd) < 1e-9


def test_solve_complex_singular_raises():
    A = sp.csr_matrix(np.array([[1.0 + 0j, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        Factorization(A).solve(np.array([1.0 + 0j, 0.0]))


def test_opnorm_identity(rng):
    G = random_spd(12, rng)
    eye = sp.eye(12, format="csr")
    val = gram_opnorm(eye, G, 12, tol=1e-8).sigma
    assert val == pytest.approx(1.0, rel=1e-6)


def test_opnorm_scalar_multiple(rng):
    G = random_spd(9, rng)
    c = -2.5
    val = gram_opnorm(sp.csr_matrix(c * np.eye(9)), G, 9, tol=1e-8).sigma
    assert val == pytest.approx(abs(c), rel=1e-6)


def test_opnorm_matches_dense_oracle(rng):
    n = 30
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = random_spd(n, rng)
    val = gram_opnorm(sp.csr_matrix(T), G, n, tol=1e-8).sigma
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
    v1 = gram_opnorm(sp.csr_matrix(T), sp.csr_matrix(G), n, tol=tol).sigma
    v2 = gram_opnorm(
        sp.csr_matrix(np.linalg.solve(W, T @ W)), sp.csr_matrix(G), n, tol=tol
    ).sigma
    assert abs(v1 - v2) / v1 < 1e-5


def test_gram_opnorm_info_converged(rng):
    G = sp.eye(10, format="csr")
    T = sp.diags(np.arange(1.0, 11.0))
    info = gram_opnorm(T, G, 10, tol=1e-8)
    assert info.sigma == pytest.approx(10.0, rel=1e-6)


@pytest.mark.parametrize("case", ["shifted-1", "shifted-200", "stepper", "mass", "generator"])
def test_factorization_ordering_rule_and_residual(n8_sys, rng, case):
    M, A = n8_sys.M, n8_sys.A
    mat = {
        "shifted-1": 1j * M.astype(complex) - A.astype(complex),
        "shifted-200": 200j * M.astype(complex) - A.astype(complex),
        "stepper": M - 0.005 * A,
        "mass": M,
        "generator": A,
    }[case]
    fact = Factorization(mat.tocsc())
    # Every matrix but the generator A has a zero-free diagonal.
    assert fact.symmetric_mode == (case != "generator")
    b = rng.standard_normal(mat.shape[0]) + 1j * rng.standard_normal(mat.shape[0])
    if not np.iscomplexobj(mat.data):
        b = b.real
    x = fact.solve(b)
    assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) <= 1e-12


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
