import time

import numpy as np
import pytest

from hankelx.hankel import (
    HankelShape,
    WeightedSignal,
    antidiagonal_counts,
    hankel_adjoint_dense,
    hankel_dense,
    hankel_matmat,
    hankel_matvec,
    hankel_rmatmat,
    lowrank_to_signal,
    reweight,
    unweight,
    _factor_products,
    _lowrank_spectra,
)

from conftest import rand_complex, rel_err

SQRT2 = np.sqrt(2.0)


def random_signal(rng, n, n1=None):
    shape = HankelShape.square(n) if n1 is None else HankelShape(n1, n - n1 + 1)
    return WeightedSignal(shape, rand_complex(rng, n))


def test_shape_identity_and_square_default():
    assert HankelShape(3, 5).n == 7
    for n in (1, 2, 5, 6, 101, 256):
        shape = HankelShape.square(n)
        assert shape.n == n
        assert shape.n1 == -(-(n + 1) // 2)
        assert abs(shape.n1 - shape.n2) <= 1
    with pytest.raises(ValueError):
        HankelShape(0, 3)


@pytest.mark.parametrize("build, message", [
    (lambda: HankelShape(True, 3), "n1 must be an integer >= 1, got True"),
    (lambda: HankelShape(3, 2.5), "n2 must be an integer >= 1, got 2.5"),
    (lambda: HankelShape(3.0, 3), "n1 must be an integer >= 1, got 3.0"),
    (lambda: HankelShape.square(5.0), "n must be an integer >= 1, got 5.0"),
    (lambda: HankelShape.square("5"), "n must be an integer >= 1, got '5'"),
])
def test_shape_refuses_non_integer_splits(build, message):
    # a bool split used to solve as 1 x n2, a fractional one to fail inside
    # numpy, and a string n to raise a TypeError from its range check
    with pytest.raises(ValueError, match=rf"^{message}$"):
        build()
    assert HankelShape(np.int64(3), np.int32(2)).n == 4


def test_antidiagonal_counts_examples():
    np.testing.assert_array_equal(antidiagonal_counts(HankelShape(3, 3)), [1, 2, 3, 2, 1])
    np.testing.assert_array_equal(antidiagonal_counts(HankelShape(2, 4)), [1, 2, 2, 2, 1])
    np.testing.assert_array_equal(antidiagonal_counts(HankelShape(1, 5)), [1, 1, 1, 1, 1])


def test_antidiagonal_counts_sum(rng):
    for _ in range(10):
        n1 = int(rng.integers(1, 40))
        n2 = int(rng.integers(1, 40))
        counts = antidiagonal_counts(HankelShape(n1, n2))
        assert counts.sum() == n1 * n2


def test_unweight_examples():
    sig = WeightedSignal(HankelShape(2, 2), np.array([1.0, 2 * SQRT2, 3.0]))
    np.testing.assert_allclose(unweight(sig), [1, 2, 3], atol=1e-15)
    zero = WeightedSignal(HankelShape(2, 2), np.zeros(3))
    np.testing.assert_array_equal(unweight(zero), np.zeros(3))


def test_reweight_examples():
    sig = reweight([1.0, 2.0, 3.0], HankelShape(2, 2))
    np.testing.assert_allclose(sig.z, [1, 2 * SQRT2, 3], atol=1e-15)
    e1 = np.zeros(3)
    e1[0] = 1.0
    np.testing.assert_allclose(reweight(e1, HankelShape(2, 2)).z, e1, atol=1e-15)
    with pytest.raises(ValueError):
        reweight([1.0, 2.0], HankelShape(2, 2))
    # an array of another shape is named by its shape, not by its size alone
    with pytest.raises(ValueError, match=r"^expected length 64, got \(8, 8\)$"):
        reweight(np.ones((8, 8)), HankelShape.square(64))
    with pytest.raises(ValueError, match=r"^signal of shape \(8, 8\) does not match shape n=64$"):
        WeightedSignal(HankelShape.square(64), np.ones((8, 8)))


def test_weight_roundtrips(rng):
    sig = random_signal(rng, 101)
    back = reweight(unweight(sig), sig.shape)
    assert np.max(np.abs(back.z - sig.z)) <= 1e-14 * np.max(np.abs(sig.z))
    x = rand_complex(rng, 101)
    np.testing.assert_allclose(unweight(reweight(x, sig.shape)), x, atol=1e-14)


def test_hankel_dense_examples():
    sig = WeightedSignal(HankelShape(2, 2), np.array([1.0, 2 * SQRT2, 3.0]))
    np.testing.assert_allclose(hankel_dense(sig), [[1, 2], [2, 3]], atol=1e-15)
    e1 = WeightedSignal(HankelShape(2, 2), np.array([1.0, 0, 0]))
    np.testing.assert_allclose(hankel_dense(e1), [[1, 0], [0, 0]], atol=1e-15)


def test_embedding_isometry(rng):
    for n in (7, 51, 64, 101, 201):
        sig = random_signal(rng, n)
        assert abs(np.linalg.norm(hankel_dense(sig)) - np.linalg.norm(sig.z)) <= (
            1e-12 * np.linalg.norm(sig.z)
        )


def test_dense_cap_guard():
    n = 6001
    sig = WeightedSignal(HankelShape(3000, n - 2999), np.zeros(n))
    with pytest.raises(ValueError):
        hankel_dense(sig)


def test_adjoint_dense_examples():
    z = hankel_adjoint_dense([[1.0, 2.0], [2.0, 3.0]], HankelShape(2, 2))
    np.testing.assert_allclose(z.z, [1, 2 * SQRT2, 3], atol=1e-15)
    with pytest.raises(ValueError):
        hankel_adjoint_dense(np.zeros((3, 2)), HankelShape(2, 2))


def test_adjoint_of_embedding_is_identity(rng):
    for n in (7, 51, 101):
        sig = random_signal(rng, n)
        back = hankel_adjoint_dense(hankel_dense(sig), sig.shape)
        assert np.max(np.abs(back.z - sig.z)) <= 1e-13


def test_embedding_adjoint_pairing(rng):
    for _ in range(5):
        n1 = int(rng.integers(2, 15))
        n2 = int(rng.integers(2, 15))
        shape = HankelShape(n1, n2)
        sig = WeightedSignal(shape, rand_complex(rng, shape.n))
        M = rand_complex(rng, n1, n2)
        lhs = np.vdot(M, hankel_dense(sig))
        rhs = np.vdot(hankel_adjoint_dense(M, shape).z, sig.z)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_lowrank_to_signal_examples():
    shape = HankelShape(2, 2)
    L = np.array([[1.0], [0.0]], dtype=complex)
    R = np.array([[1.0], [0.0]], dtype=complex)
    np.testing.assert_allclose(lowrank_to_signal(L, R, shape).z, [1, 0, 0], atol=1e-14)

    shape = HankelShape(3, 3)
    ones = np.ones((3, 1), dtype=complex)
    expected = [1, 2 / np.sqrt(2), 3 / np.sqrt(3), 2 / np.sqrt(2), 1]
    np.testing.assert_allclose(lowrank_to_signal(ones, ones, shape).z, expected, atol=1e-13)


def test_lowrank_to_signal_matches_dense(rng):
    shape = HankelShape.square(101)
    L = rand_complex(rng, shape.n1, 4)
    R = rand_complex(rng, shape.n2, 4)
    fast = lowrank_to_signal(L, R, shape)
    dense = hankel_adjoint_dense(L @ R.conj().T, shape)
    assert rel_err(fast.z, dense.z) <= 1e-11
    with pytest.raises(ValueError):
        lowrank_to_signal(L, rand_complex(rng, shape.n2, 3), shape)
    with pytest.raises(ValueError, match="nonzero column counts"):
        lowrank_to_signal(L[:, :0], R[:, :0], shape)


def test_matvec_examples(rng):
    sig = random_signal(rng, 101)
    e1 = np.zeros(sig.shape.n2)
    e1[0] = 1.0
    np.testing.assert_allclose(
        hankel_matvec(sig, e1), hankel_dense(sig)[:, 0], atol=1e-12
    )
    zero = WeightedSignal(sig.shape, np.zeros(sig.shape.n))
    np.testing.assert_array_equal(
        hankel_matvec(zero, np.ones(sig.shape.n2)), np.zeros(sig.shape.n1)
    )


def test_matvec_matches_dense(rng):
    sig = random_signal(rng, 101)
    v = rand_complex(rng, sig.shape.n2)
    assert rel_err(hankel_matvec(sig, v), hankel_dense(sig) @ v) <= 1e-11


def rmatvec(sig, u):
    return hankel_rmatmat(sig, np.asarray(u, dtype=complex)[:, None])[:, 0]


def test_rmatvec_examples(rng):
    sig = random_signal(rng, 61)
    e1 = np.zeros(sig.shape.n1)
    e1[0] = 1.0
    np.testing.assert_allclose(
        rmatvec(sig, e1), hankel_dense(sig)[0, :].conj(), atol=1e-12
    )
    zero = WeightedSignal(sig.shape, np.zeros(sig.shape.n))
    np.testing.assert_array_equal(
        rmatvec(zero, np.ones(sig.shape.n1)), np.zeros(sig.shape.n2)
    )


def test_matvec_rmatvec_adjoint_pairing(rng):
    sig = random_signal(rng, 101)
    u = rand_complex(rng, sig.shape.n1)
    v = rand_complex(rng, sig.shape.n2)
    lhs = np.vdot(u, hankel_matvec(sig, v))
    rhs = np.vdot(rmatvec(sig, u), v)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_matmat_basis_columns(rng):
    sig = random_signal(rng, 31)
    V = np.eye(sig.shape.n2, 3, dtype=complex)
    np.testing.assert_allclose(
        hankel_matmat(sig, V), hankel_dense(sig)[:, :3], atol=1e-12
    )
    zero = WeightedSignal(sig.shape, np.zeros(31))
    np.testing.assert_array_equal(hankel_matmat(zero, V), np.zeros((sig.shape.n1, 3)))


def test_fast_dense_equivalence_across_sizes(rng):
    # lengths on both sides of a power of two (n = 2^k leaves the transform no
    # slack) and the extreme row/column splits as well as the square one
    for n in (1, 2, 7, 64, 101, 127, 128, 129, 255):
        splits = {HankelShape.square(n).n1, 1, 2, n - 1, n}
        for n1 in sorted(n1 for n1 in splits if 1 <= n1 <= n):
            shape = HankelShape(n1, n - n1 + 1)
            sig = WeightedSignal(shape, rand_complex(rng, n))
            dense = hankel_dense(sig)
            for r in (1, 4):
                V = rand_complex(rng, shape.n2, r)
                U = rand_complex(rng, shape.n1, r)
                assert rel_err(hankel_matmat(sig, V), dense @ V) <= 1e-11, (shape, r)
                assert rel_err(hankel_rmatmat(sig, U), dense.conj().T @ U) <= 1e-11, (shape, r)
                L = rand_complex(rng, shape.n1, r)
                R = rand_complex(rng, shape.n2, r)
                z, spec = _lowrank_spectra(L, R, shape)
                assert rel_err(z.z, hankel_adjoint_dense(L @ R.conj().T, shape).z) <= 1e-11
                np.testing.assert_array_equal(lowrank_to_signal(L, R, shape).z, z.z)
                # the step's products, from the spectra the refresh keeps
                matmat, rmatmat, _ = _factor_products(sig, spec)
                assert rel_err(matmat, dense @ R) <= 1e-11, (shape, r)
                assert rel_err(rmatmat, dense.conj().T @ L) <= 1e-11, (shape, r)
            # a zero-width block gives a zero-width product
            assert hankel_matmat(sig, np.zeros((shape.n2, 0))).shape == (shape.n1, 0)
            assert hankel_rmatmat(sig, np.zeros((shape.n1, 0))).shape == (shape.n2, 0)


def test_dimension_mismatches(rng):
    sig = random_signal(rng, 21)
    with pytest.raises(ValueError):
        hankel_matvec(sig, np.zeros(sig.shape.n2 + 1))
    with pytest.raises(ValueError):
        rmatvec(sig, np.zeros(sig.shape.n1 + 2))
    with pytest.raises(ValueError):
        hankel_matmat(sig, np.zeros((sig.shape.n2 + 1, 2)))


def test_lowrank_to_signal_near_linear_cost(rng):
    def best_time(n, reps=5):
        shape = HankelShape.square(n)
        L = rand_complex(rng, shape.n1, 5)
        R = rand_complex(rng, shape.n2, 5)
        lowrank_to_signal(L, R, shape)  # warm up
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            lowrank_to_signal(L, R, shape)
            best = min(best, time.perf_counter() - t0)
        return best

    n = 1 << 14
    ratio = best_time(4 * n) / best_time(n)
    assert ratio <= 6.0, f"4x size cost ratio {ratio:.2f}"
