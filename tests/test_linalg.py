import warnings

import numpy as np
import pytest

from hankelx.hankel import HankelShape, hankel_matmat, hankel_rmatmat, reweight
from hankelx.linalg import (
    DegenerateGramError,
    hermitian_eig,
    inverse,
    truncated_svd,
)

from conftest import rand_complex, rel_err


def matmul_naive(A, B):
    m, k = A.shape
    k2, n = B.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.complex128)
    for i in range(m):
        for kk in range(k):
            for j in range(n):
                out[i, j] += A[i, kk] * B[kk, j]
    return out


def dense_operator(A):
    return (lambda V: A @ V), (lambda U: A.conj().T @ U)


def test_dense_product_identities(rng):
    A = rand_complex(rng, 4, 4)
    np.testing.assert_allclose(np.eye(4) @ A, A, atol=1e-15)
    B = rand_complex(rng, 4, 2)
    M = rand_complex(rng, 3, 4)
    np.testing.assert_allclose(
        (M @ B).conj().T, B.conj().T @ M.conj().T, atol=1e-14
    )
    assert rel_err(M @ B, matmul_naive(M, B)) <= 1e-13


def test_hermitian_eig_examples():
    w, Q = hermitian_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)
    w, _ = hermitian_eig(np.eye(5))
    np.testing.assert_allclose(w, np.ones(5), atol=1e-14)


def test_hermitian_eig_reconstruction(rng):
    A = rand_complex(rng, 8, 8)
    H = A + A.conj().T
    w, Q = hermitian_eig(H)
    assert np.all(np.diff(w) >= 0)
    assert rel_err(H @ Q, Q * w) <= 1e-10
    assert rel_err(Q.conj().T @ Q, np.eye(8)) <= 1e-12


def test_hermitian_eig_rejects_skew(rng):
    A = rand_complex(rng, 4, 4)
    with pytest.raises(ValueError):
        hermitian_eig(A + 2 * A.conj().T)


def test_inverse_examples(rng):
    np.testing.assert_allclose(inverse(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14)
    A = rand_complex(rng, 6, 6)
    H = A.conj().T @ A + np.eye(6)  # Hermitian positive definite
    assert rel_err(H @ inverse(H), np.eye(6)) <= 1e-10
    with pytest.raises(ValueError, match="not Hermitian"):
        inverse(A + 6 * np.eye(6))


def test_inverse_degenerate():
    H = np.diag([1.0, 1e-15])
    with pytest.raises(DegenerateGramError, match="degenerate factor Gram matrix"):
        inverse(H)
    bad = np.array([[1.0, 2.0], [0.5, 1.0]])  # singular, non-Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        inverse(bad)


def test_inverse_nonfinite_and_overflowing_gram_quietly():
    # a non-finite Gram is refused before any norm is taken, and a finite
    # one whose Frobenius norm overflows is inverted without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.diag([np.inf, 1.0, 1.0]), np.diag([np.nan, 1.0, 1.0])):
            with pytest.raises(DegenerateGramError, match="non-finite"):
                inverse(bad)
        H = 1e160 * np.diag([3.0, 2.0, 1.0])
        np.testing.assert_allclose(inverse(H), np.diag([1 / 3, 1 / 2, 1.0]) * 1e-160)


def test_residual_bounds_over_many_seeds():
    # eig / inverse residuals at their documented tolerances
    for seed in range(200):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 9))
        A = rand_complex(rng, r, r)
        H = A + A.conj().T
        w, Q = hermitian_eig(H)
        assert rel_err(H @ Q, Q * w) <= 1e-9

        W = A.conj().T @ A + np.eye(r)  # safely invertible
        assert rel_err(W @ inverse(W), np.eye(r)) <= 1e-8


def test_truncated_svd_rank_one_hankel():
    n = 63
    shape = HankelShape.square(n)
    x = np.exp(2j * np.pi * 0.2345 * np.arange(n))
    sig = reweight(x, shape)
    tsvd = truncated_svd(
        matvec=lambda V: hankel_matmat(sig, V),
        rmatvec=lambda U: hankel_rmatmat(sig, U),
        n1=shape.n1,
        n2=shape.n2,
        rank=2,
        seed=3,
    )
    z_norm = np.linalg.norm(sig.z)
    assert abs(tsvd.S[0] - z_norm) <= 1e-8 * z_norm
    assert tsvd.S[1] <= 1e-10 * z_norm
    assert rel_err(tsvd.U.conj().T @ tsvd.U, np.eye(2)) <= 1e-10
    assert rel_err(tsvd.V.conj().T @ tsvd.V, np.eye(2)) <= 1e-10


def test_truncated_svd_zero_operator():
    mv = lambda V: np.zeros((12, V.shape[1]), dtype=complex)
    rmv = lambda U: np.zeros((10, U.shape[1]), dtype=complex)
    tsvd = truncated_svd(mv, rmv, 12, 10, rank=3, oversample=4, seed=0)
    np.testing.assert_array_equal(tsvd.S, np.zeros(3))
    assert rel_err(tsvd.U.conj().T @ tsvd.U, np.eye(3)) <= 1e-10
    assert rel_err(tsvd.V.conj().T @ tsvd.V, np.eye(3)) <= 1e-10


def test_truncated_svd_matches_dense_oracle(rng):
    # a flat random spectrum is the hard case for subspace iteration; give it
    # enough power iterations to resolve the crossings
    A = rand_complex(rng, 40, 30)
    mv, rmv = dense_operator(A)
    tsvd = truncated_svd(mv, rmv, 40, 30, rank=5, power_iters=8, seed=11)
    s_ref = np.linalg.svd(A, compute_uv=False)[:5]
    assert np.max(np.abs(tsvd.S - s_ref) / s_ref) <= 1e-6


def test_truncated_svd_exact_rank_residual(rng):
    U0, _ = np.linalg.qr(rand_complex(rng, 30, 4))
    V0, _ = np.linalg.qr(rand_complex(rng, 25, 4))
    A = (U0 * [5.0, 2.0, 1.0, 0.5]) @ V0.conj().T
    mv, rmv = dense_operator(A)
    tsvd = truncated_svd(mv, rmv, 30, 25, rank=4, seed=5)
    approx = (tsvd.U * tsvd.S) @ tsvd.V.conj().T
    assert rel_err(approx, A) <= 1e-8


def test_truncated_svd_seed_deterministic(rng):
    A = rand_complex(rng, 20, 18)
    mv, rmv = dense_operator(A)
    a = truncated_svd(mv, rmv, 20, 18, rank=3, seed=42)
    b = truncated_svd(mv, rmv, 20, 18, rank=3, seed=42)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.U, b.U)
    np.testing.assert_array_equal(a.V, b.V)


def test_truncated_svd_width_guard():
    mv = lambda V: np.zeros((6, V.shape[1]), dtype=complex)
    rmv = lambda U: np.zeros((5, U.shape[1]), dtype=complex)
    with pytest.raises(ValueError):
        truncated_svd(mv, rmv, 6, 5, rank=3, oversample=10, seed=0)
