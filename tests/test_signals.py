import numpy as np
import pytest

from hankelx.hankel import HankelShape, hankel_dense, unweight
from hankelx.sampling import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    project_obs,
    sample_pattern,
)
from hankelx.signals import (
    OutlierSpec,
    condition_number,
    doa_signal,
    inject_outliers,
    spectral_signal,
)

from conftest import rel_err

# chi-square critical value for 19 degrees of freedom at p = 0.999
CHI2_CRIT_19_P999 = 43.8202


def dense_singular_values(sig):
    return np.linalg.svd(hankel_dense(sig), compute_uv=False)


def test_spectral_signal_rank_one():
    sig, model = spectral_signal(201, 1, 1.0, seed=0)
    s = dense_singular_values(sig)
    assert s[1] <= 1e-10 * s[0]
    assert abs(s[0] - np.linalg.norm(sig.z)) <= 1e-10 * s[0]
    np.testing.assert_array_equal(model.amplitudes, [1.0])


@pytest.mark.parametrize("seed", range(20))
def test_spectral_signal_exact_rank(seed):
    sig, model = spectral_signal(101, 5, 25.0, seed=seed)
    s = dense_singular_values(sig)
    assert s[5] <= 1e-10 * s[0]
    gaps = np.diff(np.sort(model.frequencies))
    wrap = 1 - np.sort(model.frequencies)[-1] + np.sort(model.frequencies)[0]
    assert min(gaps.min(initial=np.inf), wrap) >= 1.0 / 101


def test_spectral_signal_amplitudes_evenly_spaced():
    _, model = spectral_signal(64, 4, 10.0, seed=1)
    np.testing.assert_allclose(model.amplitudes, [0.1, 0.4, 0.7, 1.0], atol=1e-12)


def test_spectral_signal_deterministic():
    a, _ = spectral_signal(255, 3, 7.0, seed=5)
    b, _ = spectral_signal(255, 3, 7.0, seed=5)
    np.testing.assert_array_equal(a.z, b.z)


def test_spectral_signal_guards():
    with pytest.raises(ValueError):
        spectral_signal(11, 9, 2.0, seed=0)
    with pytest.raises(ValueError):
        spectral_signal(11, 2, 0.5, seed=0)
    for kappa in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa must be finite"):
            spectral_signal(11, 2, kappa, seed=0)
    with pytest.raises(ValueError, match="could not draw 32 frequencies"):
        spectral_signal(64, 32, 2.0, seed=0)


def test_non_finite_generator_input_rejected():
    with pytest.raises(ValueError, match="thetas and gains must be finite"):
        doa_signal(16, [87.0, float("nan")])
    with pytest.raises(ValueError, match="thetas and gains must be finite"):
        doa_signal(16, [87.0], gains=[complex("inf")])
    with pytest.raises(ValueError, match="magnitude_scale must be finite"):
        OutlierSpec(0.1, float("nan"))


@pytest.mark.parametrize("seed", range(50))
def test_spectral_pair_ratio_tracks_kappa(seed):
    sig, _ = spectral_signal(255, 2, 10.0, seed=seed)
    est = condition_number(sig, 2, seed=seed)
    assert 5.0 <= est.kappa <= 20.0


@pytest.mark.parametrize("seed", range(50))
def test_condition_number_flat_amplitudes(seed):
    sig, _ = spectral_signal(255, 5, 1.0, seed=seed)
    est = condition_number(sig, 5, seed=seed)
    assert 1.0 <= est.kappa <= 3.0


def test_condition_number_rank_one():
    sig, _ = spectral_signal(101, 1, 1.0, seed=4)
    est = condition_number(sig, 1, seed=0)
    assert abs(est.kappa - 1.0) <= 1e-9


def test_condition_number_rank_deficient():
    sig, _ = spectral_signal(101, 2, 3.0, seed=0)
    with pytest.raises(ValueError, match="rank-deficient"):
        condition_number(sig, 4, seed=0)


def test_doa_signal_single_broadside_source():
    sig = doa_signal(32, [0.0])
    np.testing.assert_allclose(unweight(sig), np.ones(32), atol=1e-14)


def test_doa_signal_cancellation():
    sig = doa_signal(64, [41.0, 41.0], gains=[1.0, -1.0])
    assert np.max(np.abs(sig.z)) <= 1e-14


def test_doa_reference_condition_number():
    # frozen against a dense SVD of the same construction: the unit-gain
    # snapshot at 87/87.1/87.3 degrees has sigma1/sigma3 = 5742.502
    sig = doa_signal(2**12, [87.0, 87.1, 87.3])
    est = condition_number(sig, 3, seed=0)
    assert abs(est.kappa - 5742.502) <= 0.01 * 5742.502
    assert est.rank_gap <= 1e-9


def test_inject_outliers_alpha_zero(rng):
    sig, _ = spectral_signal(101, 2, 2.0, seed=6)
    pat = sample_pattern(101, 70, WITHOUT_REPLACEMENT, seed=7)
    f, s = inject_outliers(sig, pat, OutlierSpec(0.0, 10.0, 8))
    np.testing.assert_array_equal(f, project_obs(sig.z, pat))
    assert np.flatnonzero(s.s).size == 0


def test_inject_outliers_counts_and_support():
    sig, _ = spectral_signal(101, 2, 2.0, seed=9)
    pat = sample_pattern(101, 50, WITHOUT_REPLACEMENT, seed=10)
    f, s = inject_outliers(sig, pat, OutlierSpec(0.13, 10.0, 11))
    expected = int(np.ceil(0.13 * 50))
    assert np.count_nonzero(project_obs(s.s, pat)) == expected
    assert set(np.flatnonzero(s.s)) <= set(pat.indices)

    f_all, s_all = inject_outliers(sig, pat, OutlierSpec(1.0, 10.0, 12))
    assert np.count_nonzero(s_all.s) == 50


def test_inject_outliers_plants_no_roundoff_extra():
    # 0.07 * 100 = 7.000000000000001, whose plain ceil planted 8 outliers
    sig, _ = spectral_signal(255, 3, 2.0, seed=16)
    pat = sample_pattern(255, 100, WITHOUT_REPLACEMENT, seed=17)
    _, s = inject_outliers(sig, pat, OutlierSpec(0.07, 10.0, 18))
    assert np.count_nonzero(s.s) == 7


def test_inject_outliers_refuses_more_than_the_distinct_observed():
    # with replacement, m = 100 draws over n = 31 see at most 31 distinct entries
    sig, _ = spectral_signal(31, 2, 2.0, seed=19)
    pat = sample_pattern(31, 100, WITH_REPLACEMENT, seed=20)
    distinct = np.unique(pat.indices).size
    with pytest.raises(ValueError, match=f"cannot corrupt 50 entries; only {distinct} observed"):
        inject_outliers(sig, pat, OutlierSpec(0.5, 10.0, 21))


def test_inject_outliers_deterministic():
    sig, _ = spectral_signal(101, 2, 2.0, seed=13)
    pat = sample_pattern(101, 50, WITHOUT_REPLACEMENT, seed=14)
    f1, s1 = inject_outliers(sig, pat, OutlierSpec(0.2, 10.0, 15))
    f2, s2 = inject_outliers(sig, pat, OutlierSpec(0.2, 10.0, 15))
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(s1.s, s2.s)


def test_inject_outliers_support_uniform():
    # goodness-of-fit of corrupted-index counts against uniform over the
    # pattern, 1e4 draws of 2 corruptions over 20 observed slots
    n, m = 40, 20
    sig, _ = spectral_signal(n, 2, 2.0, seed=16)
    pat = sample_pattern(n, m, WITHOUT_REPLACEMENT, seed=17)
    counts = np.zeros(n)
    draws = 10_000
    for s in range(draws):
        _, est = inject_outliers(sig, pat, OutlierSpec(0.1, 10.0, s))
        counts[np.flatnonzero(est.s)] += 1
    observed = counts[pat.indices]
    expected = draws * 2 / m
    chi2 = np.sum((observed - expected) ** 2 / expected)
    assert chi2 <= CHI2_CRIT_19_P999
