import warnings

import numpy as np
import pytest

from hankelx.hankel import HankelShape, hankel_matmat, hankel_rmatmat, reweight
from hankelx.linalg import DegenerateGramError, gram_inverse, truncated_svd
from hankelx.linalg import _hermitian_eigh, _inverse_from_eigh

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


def gram(A):
    return A.conj().T @ A


def test_inverse_examples(rng):
    np.testing.assert_allclose(gram_inverse(np.eye(3)), np.eye(3), atol=1e-14)
    D = np.diag([2.0, 4.0])
    np.testing.assert_allclose(gram_inverse(D), np.diag([0.5, 0.25]), atol=1e-14)
    A = rand_complex(rng, 9, 6)
    assert rel_err(gram(A) @ gram_inverse(gram(A)), np.eye(6)) <= 1e-10


def test_inverse_degenerate(rng):
    A = rand_complex(rng, 8, 3)
    A[:, 2] = A[:, 1]  # rank-collapsed factor
    with pytest.raises(DegenerateGramError, match="degenerate factor Gram matrix"):
        gram_inverse(gram(A))
    with pytest.raises(DegenerateGramError, match="zero or non-finite"):
        gram_inverse(np.zeros((3, 3), dtype=complex))


def test_stacked_eigh_gives_each_grams_own_inverse_bytes(rng):
    # the incoherence projection decomposes both factor Grams in one stacked
    # eigh, and the step inverts those; each must equal gram_inverse bit for bit
    for r in (1, 2, 5, 10):
        grams = [gram(rand_complex(rng, 40 + 7 * r, r)) for _ in range(2)]
        w, Q = _hermitian_eigh(np.stack(grams))
        for i, G in enumerate(grams):
            assert _inverse_from_eigh(w[i], Q[i]).tobytes() == gram_inverse(G).tobytes()
    with pytest.raises(DegenerateGramError, match="degenerate factor Gram matrix"):
        A = rand_complex(rng, 8, 3)
        A[:, 2] = A[:, 1]
        _inverse_from_eigh(*_hermitian_eigh(gram(A)))


def test_inverse_nonfinite_and_overflowing_gram_quietly():
    # a non-finite Gram is refused without a warning, and one with 1e160
    # entries is inverted without one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGramError, match="non-finite"):
            gram_inverse(np.diag([np.nan, 1.0, 1.0]).astype(complex))
        A = 1e80 * np.diag(np.sqrt([3.0, 2.0, 1.0])).astype(complex)
        np.testing.assert_allclose(gram_inverse(gram(A)), np.diag([1 / 3, 1 / 2, 1.0]) * 1e-160)
    # a factor with finite entries whose Gram overflows to inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        DegenerateGramError, match="non-finite"
    ):
        gram_inverse(gram(1e200 * np.ones((4, 3), dtype=complex)))


def test_residual_bounds_over_many_seeds():
    # the inverse Gram's residual at its documented tolerance
    for seed in range(200):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 9))
        A = np.vstack([rand_complex(rng, r, r), np.eye(r)])  # Gram B^H B + I, safely invertible
        assert rel_err(gram(A) @ gram_inverse(gram(A)), np.eye(r)) <= 1e-8


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
    # V's columns are unit where S is nonzero and zero where S is zero
    assert tsvd.S[1] == 0.0
    assert abs(np.linalg.norm(tsvd.V[:, 0]) - 1.0) <= 1e-10
    np.testing.assert_array_equal(tsvd.V[:, 1], 0)


def test_truncated_svd_zero_operator():
    mv = lambda V: np.zeros((12, V.shape[1]), dtype=complex)
    rmv = lambda U: np.zeros((10, U.shape[1]), dtype=complex)
    tsvd = truncated_svd(mv, rmv, 12, 10, rank=3, seed=0)
    np.testing.assert_array_equal(tsvd.S, np.zeros(3))
    assert rel_err(tsvd.U.conj().T @ tsvd.U, np.eye(3)) <= 1e-10
    np.testing.assert_array_equal(tsvd.V, np.zeros((10, 3)))  # zero where S is zero


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


@pytest.mark.parametrize("rank", [5, 4])
def test_truncated_svd_at_width_clamp(rng, rank):
    # at rank min(n1, n2) and one below, the block is min(n1, n2) wide, so the
    # oversampling left is 0 and 1
    U0, _ = np.linalg.qr(rand_complex(rng, 7, rank))
    V0, _ = np.linalg.qr(rand_complex(rng, 5, rank))
    A = (U0 * np.geomspace(4.0, 0.5, rank)) @ V0.conj().T
    mv, rmv = dense_operator(A)
    tsvd = truncated_svd(mv, rmv, 7, 5, rank=rank, seed=2)
    s_ref = np.linalg.svd(A, compute_uv=False)[:rank]
    assert np.max(np.abs(tsvd.S - s_ref) / s_ref) <= 1e-10
    assert rel_err((tsvd.U * tsvd.S) @ tsvd.V.conj().T, A) <= 1e-10
