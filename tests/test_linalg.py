import warnings

import numpy as np
import pytest

from hankelx.hankel import HankelShape, hankel_matmat, hankel_rmatmat, reweight
from hankelx.linalg import DegenerateGramError, truncated_svd
from hankelx.linalg import _hermitian_eigh, _inverse_from_eigh
from hankelx.recovery import Factors, spectral_init
from hankelx.sampling import WITHOUT_REPLACEMENT, sample_pattern
from hankelx.signals import condition_number, spectral_signal

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


def carried_inverses(A, B):
    """(A^H A)^{-1} and (B^H B)^{-1} from the eigendecomposition Factors(A, B) carries."""
    return _inverse_from_eigh(*Factors(A, B).eig)


def test_inverse_examples(rng):
    for inverse in carried_inverses(np.eye(3), np.eye(3)):
        np.testing.assert_allclose(inverse, np.eye(3), atol=1e-14)
    A = np.diag(np.sqrt([2.0, 4.0]))
    np.testing.assert_allclose(carried_inverses(A, A)[0], np.diag([0.5, 0.25]), atol=1e-14)
    A = rand_complex(rng, 9, 6)
    B = rand_complex(rng, 7, 6)
    inv_a, inv_b = carried_inverses(A, B)
    assert rel_err(gram(A) @ inv_a, np.eye(6)) <= 1e-10
    assert rel_err(gram(B) @ inv_b, np.eye(6)) <= 1e-10


def test_inverse_degenerate(rng):
    A = rand_complex(rng, 8, 3)
    A[:, 2] = A[:, 1]  # rank-collapsed factor
    with pytest.raises(DegenerateGramError, match="degenerate factor Gram matrix"):
        carried_inverses(rand_complex(rng, 6, 3), A)
    # a zero Gram on either side leaves nothing to invert
    assert Factors(np.zeros((4, 3)), rand_complex(rng, 5, 3)).eig is None
    assert Factors(rand_complex(rng, 4, 3), np.zeros((5, 3))).eig is None


def test_stacked_eigh_gives_each_grams_own_inverse_bytes(rng):
    # Factors decomposes both factor Grams in one stacked eigh, and the step
    # inverts those; each must equal a lone Gram's inverse bit for bit
    for r in (1, 2, 5, 10):
        factors = [rand_complex(rng, 40 + 7 * r, r) for _ in range(2)]
        for A, inverse in zip(factors, carried_inverses(*factors)):
            alone = _inverse_from_eigh(*_hermitian_eigh(gram(A)))
            assert inverse.tobytes() == alone.tobytes()
    with pytest.raises(DegenerateGramError, match="degenerate factor Gram matrix"):
        A = rand_complex(rng, 8, 3)
        A[:, 2] = A[:, 1]
        _inverse_from_eigh(*_hermitian_eigh(gram(A)))


def test_inverse_nonfinite_and_overflowing_gram_quietly():
    # a non-finite Gram is refused without a warning, and one with 1e160
    # entries is inverted without one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nan_factor = np.eye(3, dtype=complex)
        nan_factor[0, 0] = np.nan
        assert Factors(nan_factor, np.eye(3)).eig is None
        A = 1e80 * np.diag(np.sqrt([3.0, 2.0, 1.0])).astype(complex)
        for inverse in carried_inverses(A, A):
            np.testing.assert_allclose(inverse, np.diag([1 / 3, 1 / 2, 1.0]) * 1e-160)
    # a factor with finite entries whose Gram overflows to inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert Factors(1e200 * np.ones((4, 3), dtype=complex), np.eye(3)).eig is None


def test_residual_bounds_over_many_seeds():
    # the inverse Gram's residual at its documented tolerance
    for seed in range(200):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 9))
        A = np.vstack([rand_complex(rng, r, r), np.eye(r)])  # Gram B^H B + I, safely invertible
        inv_a, _ = carried_inverses(A, A)
        assert rel_err(gram(A) @ inv_a, np.eye(r)) <= 1e-8


@pytest.mark.parametrize("rank", [2.0, True, np.nan, "2"])
def test_non_integer_rank_rejected_where_it_enters(rank):
    # numpy refused a float or bool rank only deep inside, with a TypeError
    with pytest.raises(ValueError, match="rank must be an integer >= 1"):
        truncated_svd(lambda V: V, lambda U: U, 4, 4, rank)
    n = 31
    pattern = sample_pattern(n, n, WITHOUT_REPLACEMENT, seed=0)
    with pytest.raises(ValueError, match="rank must be an integer >= 1"):
        spectral_init(np.ones(n), pattern, HankelShape.square(n), rank, 0.0)
    # condition_number named its probe rank r + 1, not the rank it was given
    sig, _ = spectral_signal(64, 3, 2.0, seed=0)
    with pytest.raises(ValueError, match=rf"rank must be an integer >= 1, got {rank!r}$"):
        condition_number(sig, rank)
    with pytest.raises(ValueError, match="rank must be an integer >= 1"):
        spectral_signal(64, rank, 2.0, seed=0)
    tsvd = truncated_svd(lambda V: V, lambda U: U, 4, 4, np.int64(2))
    assert tsvd.S.shape == (2,)


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
