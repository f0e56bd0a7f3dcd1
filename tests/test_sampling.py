import re

import numpy as np
import pytest

from hankelx.hankel import HankelShape, antidiagonal_counts
from hankelx.recovery import _sparsify
from hankelx.sampling import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ObservationPattern,
    SparseEstimate,
    keep_count,
    project_obs,
    sample_pattern,
    top_k_threshold,
)

from conftest import rand_complex


def test_sample_pattern_full_without_replacement():
    pat = sample_pattern(5, 5, WITHOUT_REPLACEMENT, seed=0)
    np.testing.assert_array_equal(np.sort(pat.indices), np.arange(5))
    assert pat.rate == 1.0


def test_sample_pattern_deterministic():
    a = sample_pattern(1000, 300, WITHOUT_REPLACEMENT, seed=99)
    b = sample_pattern(1000, 300, WITHOUT_REPLACEMENT, seed=99)
    np.testing.assert_array_equal(a.indices, b.indices)
    c = sample_pattern(1000, 300, WITH_REPLACEMENT, seed=99)
    d = sample_pattern(1000, 300, WITH_REPLACEMENT, seed=99)
    np.testing.assert_array_equal(c.indices, d.indices)


def test_sample_pattern_guards():
    with pytest.raises(ValueError):
        sample_pattern(5, 6, WITHOUT_REPLACEMENT, seed=0)
    with pytest.raises(ValueError):
        sample_pattern(5, 0, WITHOUT_REPLACEMENT, seed=0)
    with pytest.raises(ValueError):
        sample_pattern(5, 3, "sometimes", seed=0)


@pytest.mark.parametrize("n, m, mode, message", [
    (10, "3", WITHOUT_REPLACEMENT, "m must be an integer >= 1, got '3'"),
    (10, 2.5, WITH_REPLACEMENT, "m must be an integer >= 1, got 2.5"),
    (10, True, WITH_REPLACEMENT, "m must be an integer >= 1, got True"),
    (10.5, 3, WITH_REPLACEMENT, "n must be an integer >= 1, got 10.5"),
    (0, 3, WITH_REPLACEMENT, "n must be an integer >= 1, got 0"),
    (10, 0, WITH_REPLACEMENT, "m must be >= 1, got 0"),
    (10, -4, WITHOUT_REPLACEMENT, "m must be >= 1, got -4"),
])
def test_sample_pattern_refuses_non_integer_sizes(n, m, mode, message):
    # a non-integer size used to raise a TypeError from a comparison or from
    # numpy, and n=0 numpy's own "high <= 0"; the integer rule names the
    # argument first, and an integer m below 1 keeps its range message
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        sample_pattern(n, m, mode, seed=0)
    assert sample_pattern(np.int64(10), np.int32(3), mode, seed=0).m == 3


def test_with_replacement_distinct_fraction():
    # expected distinct fraction 1 - (1 - 1/n)^n ~ 1 - 1/e
    n = 10_000
    fractions = [
        np.unique(sample_pattern(n, n, WITH_REPLACEMENT, seed=s).indices).size / n
        for s in range(50)
    ]
    target = 1.0 - np.exp(-1.0)
    assert np.max(np.abs(np.array(fractions) - target)) <= 0.02


def test_project_obs_identity_and_empty(rng):
    v = rand_complex(rng, 6)
    full = ObservationPattern(6, np.arange(6), WITHOUT_REPLACEMENT)
    np.testing.assert_array_equal(project_obs(v, full), v)
    empty = ObservationPattern(6, np.empty(0, dtype=np.int64), WITHOUT_REPLACEMENT)
    np.testing.assert_array_equal(project_obs(v, empty), np.zeros(6))


@pytest.mark.parametrize("indices", [[0.9, 1.1], [0.9, 0.2], [True, False], np.array([1.0, 2.0])])
def test_pattern_refuses_non_integer_indices(indices):
    # an int64 cast used to floor [0.9, 1.1] to [0, 1] and call [0.9, 0.2] repeated
    with pytest.raises(ValueError, match=r"^indices must be integers, got (float64|bool)$"):
        ObservationPattern(5, indices, WITHOUT_REPLACEMENT)


def test_pattern_keeps_integer_indices():
    for indices in ([0, 3], np.array([0, 3], dtype=np.uint8), np.array([0, 3], dtype=np.int64)):
        pat = ObservationPattern(5, indices, WITHOUT_REPLACEMENT)
        assert pat.indices.dtype == np.int64
        np.testing.assert_array_equal(pat.indices, [0, 3])
    same = np.array([1, 4], dtype=np.int64)
    assert ObservationPattern(5, same, WITHOUT_REPLACEMENT).indices is same


def test_project_obs_multiplicity():
    pat = ObservationPattern(3, np.array([2, 2]), WITH_REPLACEMENT)
    np.testing.assert_array_equal(
        project_obs(np.array([1.0, 1.0, 5.0]), pat), [0, 0, 10]
    )


def test_top_k_threshold_examples():
    est = top_k_threshold(np.array([3.0, -1.0, 5.0, 0.0, 2.0]), 2)
    np.testing.assert_array_equal(est.s, [3, 0, 5, 0, 0])
    np.testing.assert_array_equal(np.flatnonzero(est.s), [0, 2])

    zero = top_k_threshold(np.array([1.0, 2.0]), 0)
    np.testing.assert_array_equal(zero.s, [0, 0])
    assert np.flatnonzero(zero.s).size == 0


@pytest.mark.parametrize("k", [-1, 2.5, True])
def test_top_k_threshold_refuses_a_non_integer_count(k):
    # True kept one entry, and 2.5 failed inside numpy's partition
    with pytest.raises(ValueError, match=rf"k must be an integer >= 0, got {k!r}$"):
        top_k_threshold(np.array([3.0, -1.0, 5.0]), k)


def test_top_k_threshold_identity_when_k_large(rng):
    v = rand_complex(rng, 20)
    np.testing.assert_array_equal(top_k_threshold(v, 20).s, v)
    np.testing.assert_array_equal(top_k_threshold(v, 50).s, v)


def test_top_k_threshold_tie_toward_lower_index():
    est = top_k_threshold(np.array([1.0, -1.0, 1.0]), 2)
    np.testing.assert_array_equal(est.s, [1.0, -1.0, 0.0])


def _top_k_reference(v, k):
    """Full stable sort by (-magnitude, index); the selection oracle."""
    n = v.size
    out = np.zeros(n, dtype=np.complex128)
    order = np.lexsort((np.arange(n), -np.abs(v)))
    chosen = order[: min(k, n)]
    out[chosen] = v[chosen]
    return out


@pytest.mark.parametrize("trial", range(30))
def test_top_k_threshold_matches_sort_reference(trial):
    rng = np.random.default_rng(500 + trial)
    n = int(rng.integers(1, 60))
    # quantized magnitudes force plenty of boundary ties
    v = (rng.integers(0, 4, n) * np.exp(2j * np.pi * rng.integers(0, 4, n) / 4)).astype(
        complex
    )
    k = int(rng.integers(0, n + 2))
    np.testing.assert_array_equal(top_k_threshold(v, k).s, _top_k_reference(v, k))


def test_top_k_threshold_is_projection(rng):
    v = rand_complex(rng, 30)
    once = top_k_threshold(v, 7)
    twice = top_k_threshold(once.s, 7)
    np.testing.assert_array_equal(once.s, twice.s)
    assert np.linalg.norm(once.s) <= np.linalg.norm(v) + 1e-15
    kept = np.flatnonzero(once.s)
    np.testing.assert_array_equal(once.s[kept], v[kept])


def test_keep_count_clamps():
    assert keep_count(1.5, 0.1, 100, 1000) == 15
    assert keep_count(1.5, 0.0, 100, 1000) == 0
    assert keep_count(2.0, 0.9, 1000, 500) == 500


def test_sparse_estimate_guards():
    est = SparseEstimate(np.array([0.0, 2.0]))
    np.testing.assert_array_equal(np.flatnonzero(est.s), [1])
    est.s[0] = 3.0  # the support follows the values
    np.testing.assert_array_equal(np.flatnonzero(est.s), [0, 1])


@pytest.mark.parametrize("trial", range(100))
def test_sparsification_sup_bound(trial):
    # With at most alpha*m planted outliers and a keep budget of
    # ceil(gamma*alpha*m), gamma >= 1, the solver's outlier estimate s (ranked
    # by raw magnitude) satisfies, with W the unweighting,
    # sup |W P s_true - W s| <= 2 sup |W P (z_true - z)| deterministically.
    rng = np.random.default_rng(1000 + trial)
    n = 101
    shape = HankelShape.square(n)
    sqrt_counts = np.sqrt(antidiagonal_counts(shape).astype(float))
    m = int(rng.integers(n // 2, n + 1))
    pat = sample_pattern(n, m, WITHOUT_REPLACEMENT, seed=int(rng.integers(2**31)))
    alpha = float(rng.uniform(0.02, 0.2))
    gamma = float(rng.uniform(1.0, 2.0))
    n_out = int(np.floor(alpha * m))

    z_true = rand_complex(rng, n)
    z = z_true + 0.3 * rand_complex(rng, n)
    s_true = np.zeros(n, dtype=complex)
    if n_out:
        hit = rng.choice(pat.indices, size=n_out, replace=False)
        s_true[hit] = 10 * rand_complex(rng, n_out)
    f_obs = project_obs(z_true + s_true, pat)

    k = keep_count(gamma, alpha, m, n)
    s = _sparsify(f_obs - project_obs(z, pat), k, shape).s
    lhs = np.max(np.abs((project_obs(s_true, pat) - s) / sqrt_counts))
    rhs = 2.0 * np.max(np.abs(project_obs(z_true - z, pat) / sqrt_counts))
    assert lhs <= rhs + 1e-12 * rhs
