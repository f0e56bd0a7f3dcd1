import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hankelx import linalg, recovery
from hankelx.hankel import (
    HankelShape,
    WeightedSignal,
    antidiagonal_counts,
    hankel_dense,
    hankel_matmat,
    hankel_rmatmat,
    lowrank_to_signal,
)
from hankelx.recovery import (
    Factors,
    RecoveryConfig,
    hsnld_step,
    project_incoherence,
    run_hsnld,
    run_plain_gd,
    spectral_init,
)
from hankelx.hankel import _factor_products, _lowrank_spectra, _sqrt_counts
from hankelx.linalg import DegenerateGramError, _hermitian_eigh, _inverse_from_eigh
from hankelx.recovery import _default_gamma, _error_against, _plain_gd_step, _refresh
from hankelx.sampling import (
    WITHOUT_REPLACEMENT,
    keep_count,
    project_obs,
    sample_pattern,
    top_k_threshold,
)
from hankelx.signals import OutlierSpec, inject_outliers, spectral_signal

from conftest import approx_dist, rand_complex, rel_err, traced_peak


def truth_factors(sig, r):
    X = hankel_dense(sig)
    U, S, Vh = np.linalg.svd(X, full_matrices=False)
    L = U[:, :r] * np.sqrt(S[:r])
    R = Vh[:r].conj().T * np.sqrt(S[:r])
    return X, L, R, S[:r]


def make_instance(n, r, kappa, m, alpha, seed):
    sig, _ = spectral_signal(n, r, kappa, seed=seed)
    pattern = sample_pattern(n, m, WITHOUT_REPLACEMENT, seed=seed + 1)
    f_obs, s_true = inject_outliers(sig, pattern, OutlierSpec(alpha, 10.0, seed + 2))
    return sig, pattern, f_obs, s_true


def row_cross_norms(L, R):
    prod = L @ R.conj().T
    return max(
        np.linalg.norm(prod, axis=1).max(), np.linalg.norm(prod.conj().T, axis=1).max()
    )


def test_default_gamma_schedule():
    assert abs(_default_gamma(0) - 1.5) <= 1e-12
    assert _default_gamma(50) > 1.0
    assert _default_gamma(10) < _default_gamma(0)


def test_config_validation():
    # a config is checked when it is built, so no invalid one reaches a step
    with pytest.raises(ValueError, match="rank must be an integer >= 1, got 0"):
        RecoveryConfig(rank=0, alpha=0.1)
    for rank in (2.0, True, np.nan, "2"):
        with pytest.raises(ValueError, match="rank must be an integer"):
            RecoveryConfig(rank=rank, alpha=0.1)
    for max_iters in (2.5, np.nan, np.inf, True, -1, 10.0):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            RecoveryConfig(rank=1, alpha=0.1, max_iters=max_iters)
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match=rf"seed must be an integer >= 0, got {seed!r}$"):
            RecoveryConfig(rank=1, alpha=0.1, seed=seed)
    RecoveryConfig(rank=np.int64(2), alpha=0.1, max_iters=np.int32(0))
    for alpha in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="alpha must lie in"):
            RecoveryConfig(rank=1, alpha=alpha)
    with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\], got 1.5"):
        RecoveryConfig(rank=1, alpha=0.1, eta=1.5)
    for tol in (-1e-5, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol_residual"):
            RecoveryConfig(rank=1, alpha=0.1, tol_residual=tol)
    cfg = RecoveryConfig(rank=1, alpha=0.1, tol_residual=0.0)
    with pytest.raises(ValueError, match="eta must lie in"):
        replace(cfg, eta=3.0)


def test_pattern_of_another_length_is_refused_before_solving():
    # its mask used to index the observed vector deep in the solve: a bare IndexError
    sig, _ = spectral_signal(101, 2, 2.0, seed=31)
    pattern = sample_pattern(100, 80, WITHOUT_REPLACEMENT, seed=32)
    config = RecoveryConfig(rank=2, alpha=0.0)
    with pytest.raises(ValueError, match="pattern length 100 does not match signal length 101"):
        run_hsnld(sig.z, pattern, sig.shape, config)


@pytest.mark.parametrize("runner", [run_hsnld, run_plain_gd])
def test_zero_observation_solve_stops_at_once(runner):
    # a zero observed vector has residual 0 by definition; its estimated radius falls back to 1
    shape = HankelShape.square(64)
    pattern = sample_pattern(64, 40, WITHOUT_REPLACEMENT, seed=33)
    report = runner(np.zeros(64), pattern, shape, RecoveryConfig(rank=2, alpha=0.1))
    assert report.termination == "residual_tol"
    assert report.iterations == 0
    assert report.records[0].residual == 0.0
    assert report.incoherence_bound == 1.0


def test_fractional_max_iters_is_refused_before_solving():
    # iteration == 2.5 is never true: with no residual stop the solve never ended
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        RecoveryConfig(rank=2, alpha=0.0, max_iters=2.5, tol_residual=0.0)


@pytest.mark.parametrize("bound", [-1.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
def test_bad_radius_rejected_where_it_enters(rng, bound):
    # bound^2 would let -1.0 through as 1.0, and a NaN radius clipped nothing
    L = rand_complex(rng, 16, 2)
    R = rand_complex(rng, 15, 2)
    with pytest.raises(ValueError, match="bound must be finite and positive"):
        project_incoherence(L, R, bound)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, np.nan, -np.inf])
def test_spectral_init_rejects_bad_alpha(alpha):
    sig, pattern, f_obs, _ = make_instance(64, 2, 2.0, 50, 0.1, 177)
    with pytest.raises(ValueError, match="alpha must lie in"):
        spectral_init(f_obs, pattern, sig.shape, 2, alpha)


def test_project_incoherence_identity_within_bound(rng):
    L = rand_complex(rng, 12, 2)
    R = rand_complex(rng, 11, 2)
    big = 10 * row_cross_norms(L, R)
    out = project_incoherence(L, R, big)
    # an unclipped pair is the input arrays themselves, with their Grams handed on
    assert out.L is L and out.R is R
    assert out.clipped_rows == 0
    np.testing.assert_array_equal(out.grams[0], L.conj().T @ L)
    np.testing.assert_array_equal(out.grams[1], R.conj().T @ R)
    # a clipped side is a scaled copy and hands on its own Gram
    row_l = np.sqrt(np.einsum("ij,ij->i", L @ (R.conj().T @ R), L.conj()).real)
    row_r = np.sqrt(np.einsum("ij,ij->i", R @ (L.conj().T @ L), R.conj()).real)
    bound = 0.999 * row_l.max()
    L_in = L.copy()
    out = project_incoherence(L, R, bound)
    assert out.L is not L
    assert out.grams[0].tobytes() == (out.L.conj().T @ out.L).tobytes()
    np.testing.assert_array_equal(L, L_in)
    scale = np.where(row_l > bound, bound / row_l, 1.0)
    np.testing.assert_array_equal(out.L, scale[:, None] * L)
    # clipped_rows counts the rows over the bound on both sides
    for bound in (bound, np.median(row_l), np.median(np.concatenate([row_l, row_r]))):
        over = np.count_nonzero(row_l > bound) + np.count_nonzero(row_r > bound)
        assert over > 0
        assert project_incoherence(L, R, bound).clipped_rows == over


def test_project_incoherence_names_a_shape_mismatch():
    with pytest.raises(ValueError, match="factor shapes are inconsistent"):
        project_incoherence(np.ones((4, 2)), np.ones((3, 3)), 1.0)


def test_project_incoherence_scalar_case():
    # row norm of L against (R^H R)^{1/2} is 2, so the row shrinks onto the
    # radius: min(1, 1/2) * 2 = 1; symmetrically R against (L^H L)^{1/2}
    out = project_incoherence(np.array([[2.0]]), np.array([[1.0]]), 1.0)
    np.testing.assert_allclose(out.L, [[1.0]], atol=1e-14)
    np.testing.assert_allclose(out.R, [[0.5]], atol=1e-14)


def test_project_incoherence_enforces_bound(rng):
    for _ in range(10):
        L = 3 * rand_complex(rng, 15, 3)
        R = 2 * rand_complex(rng, 13, 3)
        bound = 0.4 * row_cross_norms(L, R)
        out = project_incoherence(L, R, bound)
        assert row_cross_norms(out.L, out.R) <= bound * (1 + 1e-12)


def test_project_incoherence_idempotent_on_image(rng):
    L = 3 * rand_complex(rng, 9, 2)
    R = rand_complex(rng, 8, 2)
    bound = 0.5 * row_cross_norms(L, R)
    once = project_incoherence(L, R, bound)
    # rows on or inside the radius are left alone when projected again with
    # the (smaller) projected Grams
    twice = project_incoherence(once.L, once.R, bound)
    np.testing.assert_array_equal(once.L, twice.L)
    np.testing.assert_array_equal(once.R, twice.R)


def test_project_incoherence_nonexpansive_near_truth():
    # shrinking rows never increases the alignment distance (checked through
    # the upper-bound diagnostic, which is exact at these small sizes)
    violations = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        sig, _ = spectral_signal(41, 2, 2.0, seed=seed)
        X, L_star, R_star, sigma = truth_factors(sig, 2)
        L = L_star + 0.05 * rand_complex(rng, *L_star.shape) * np.abs(L_star).mean()
        R = R_star + 0.05 * rand_complex(rng, *R_star.shape) * np.abs(R_star).mean()
        bound = 1.05 * np.linalg.norm(L_star @ R_star.conj().T, axis=1).max()
        before = approx_dist(Factors(L, R), L_star, R_star, sigma)
        out = project_incoherence(L, R, bound)
        after = approx_dist(out, L_star, R_star, sigma)
        if after > before * (1 + 1e-6):
            violations += 1
    assert violations == 0


def test_spectral_init_full_observation_exact():
    n, r = 101, 3
    sig, _ = spectral_signal(n, r, 5.0, seed=21)
    pattern = sample_pattern(n, n, WITHOUT_REPLACEMENT, seed=22)
    f_obs = project_obs(sig.z, pattern)
    init = spectral_init(f_obs, pattern, sig.shape, r, 0.0, seed=23)
    X = hankel_dense(sig)
    assert rel_err(init.factors.L @ init.factors.R.conj().T, X) <= 1e-6


def test_spectral_init_zero_input():
    n = 31
    pattern = sample_pattern(n, n, WITHOUT_REPLACEMENT, seed=0)
    init = spectral_init(np.zeros(n), pattern, HankelShape.square(n), 2, 0.1, seed=0)
    assert np.allclose(init.factors.L, 0)
    assert np.allclose(init.factors.R, 0)
    assert init.top_singular_value == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_spectral_init_lands_in_basin(seed):
    n, r = 125, 10
    sig, pattern, f_obs, _ = make_instance(n, r, 10.0, 100, 0.05, 1000 + 7 * seed)
    init = spectral_init(f_obs, pattern, sig.shape, r, 0.05, seed=seed)
    X = hankel_dense(sig)
    rel = rel_err(init.factors.L @ init.factors.R.conj().T, X)
    assert rel < 1.0


def test_spectral_init_rejects_offsupport_data():
    n = 21
    pattern = sample_pattern(n, 5, WITHOUT_REPLACEMENT, seed=1)
    bad = np.ones(n, dtype=complex)
    with pytest.raises(ValueError):
        spectral_init(bad, pattern, HankelShape.square(n), 1, 0.0, seed=0)


def _state_at(factors, f_obs, pattern, shape, config, bound=1e9):
    return _refresh(Factors(*factors), f_obs, pattern, shape, config, 0, bound)


def test_hsnld_step_fixed_point_at_truth():
    n, r = 101, 3
    sig, pattern, f_obs, s_true = make_instance(n, r, 5.0, n, 0.05, 31)
    X, L, R, _ = truth_factors(sig, r)
    config = RecoveryConfig(rank=r, alpha=0.05)
    state = _state_at((L, R), f_obs, pattern, sig.shape, config)
    np.testing.assert_allclose(state.s.s, s_true.s, atol=1e-9)
    stepped = hsnld_step(state, f_obs, pattern, sig.shape, config)
    drift = np.linalg.norm(stepped.factors.L @ stepped.factors.R.conj().T - X)
    assert drift <= 1e-10 * np.linalg.norm(X)


def test_hsnld_step_eta_zero_refreshes_only_outliers():
    n, r = 64, 2
    sig, pattern, f_obs, _ = make_instance(n, r, 2.0, 50, 0.1, 41)
    init = spectral_init(f_obs, pattern, sig.shape, r, 0.1, seed=0)
    config = RecoveryConfig(rank=r, alpha=0.1, eta=0.0)
    state = _state_at((init.factors.L, init.factors.R), f_obs, pattern, sig.shape, config)
    stepped = hsnld_step(state, f_obs, pattern, sig.shape, config)
    np.testing.assert_array_equal(stepped.factors.L, state.factors.L)
    np.testing.assert_array_equal(stepped.factors.R, state.factors.R)
    assert stepped.iteration == 1


def test_hsnld_step_contracts_inside_basin():
    # once the factor-product error is below 0.01 * sigma_r, every step
    # shrinks it by at least the guaranteed 1 - 0.6 * eta = 0.7
    n, r = 255, 5
    sig, pattern, f_obs, _ = make_instance(n, r, 100.0, n, 0.05, 51)
    X, _, _, sigma = truth_factors(sig, r)
    config = RecoveryConfig(rank=r, alpha=0.05, max_iters=60, tol_residual=0.0)
    init = spectral_init(f_obs, pattern, sig.shape, r, 0.05, seed=config.seed)
    state = _refresh(init.factors, f_obs, pattern, sig.shape, config, 0,
                     init.incoherence_bound)
    gate = 0.01 * sigma[-1]
    checked = 0
    prev = np.linalg.norm(state.factors.L @ state.factors.R.conj().T - X)
    for _ in range(60):
        state = hsnld_step(state, f_obs, pattern, sig.shape, config)
        cur = np.linalg.norm(state.factors.L @ state.factors.R.conj().T - X)
        if prev < gate and prev > 1e-11 * np.linalg.norm(X):
            assert cur <= 0.7 * prev
            checked += 1
        prev = cur
    assert checked >= 10


def _mid_solve_state(n, r, seed):
    sig, pattern, f_obs, _ = make_instance(n, r, 20.0, n // 2, 0.1, seed)
    config = RecoveryConfig(rank=r, alpha=0.1)
    init = spectral_init(f_obs, pattern, sig.shape, r, 0.1, seed=config.seed)
    state = _refresh(init.factors, f_obs, pattern, sig.shape, config, 0,
                     init.incoherence_bound)
    return sig.shape, pattern, f_obs, config, init.top_singular_value, state


def _reference_step(state, f_obs, pattern, shape, config, sigma1=None):
    """One step built from the public products; plain descent when sigma1 is given."""
    L, R = state.factors.L, state.factors.R
    direction = WeightedSignal(shape, state.gap / pattern.rate - state.z.z)
    grad_l = hankel_matmat(direction, R)
    grad_r = hankel_rmatmat(direction, L)
    if sigma1 is None:
        eta = config.eta
        new_l = (1.0 - eta) * L - eta * grad_l @ np.linalg.inv(R.conj().T @ R)
        new_r = (1.0 - eta) * R - eta * grad_r @ np.linalg.inv(L.conj().T @ L)
    else:
        step = config.eta / sigma1
        new_l = L - step * (grad_l + L @ (R.conj().T @ R))
        new_r = R - step * (grad_r + R @ (L.conj().T @ L))
    factors = project_incoherence(new_l, new_r, state.bound)
    return _refresh(factors, f_obs, pattern, shape, config, state.iteration + 1,
                    state.bound)


def test_steps_match_public_product_reference():
    # both steps form their products from the refresh's factor spectra; the
    # math must be the one the public hankel_matmat/hankel_rmatmat define
    shape, pattern, f_obs, config, sigma1, state = _mid_solve_state(255, 5, 181)
    plain = state
    for _ in range(3):
        want = _reference_step(state, f_obs, pattern, shape, config)
        state = hsnld_step(state, f_obs, pattern, shape, config)
        want_plain = _reference_step(plain, f_obs, pattern, shape, config, sigma1)
        plain = _plain_gd_step(plain, f_obs, pattern, shape, config, sigma1)
        for got, ref in ((state, want), (plain, want_plain)):
            assert rel_err(got.factors.L, ref.factors.L) <= 1e-12
            assert rel_err(got.factors.R, ref.factors.R) <= 1e-12
            assert rel_err(got.z.z, ref.z.z) <= 1e-12
            assert rel_err(got.gap, ref.gap) <= 1e-12


def _longhand_update(state, pattern, shape, config, sigma1=None):
    """The step's arithmetic written out: eta scales the gradients, each Gram is
    formed afresh and inverted from its own eigh; plain descent when sigma1 is given."""
    L, R = state.factors.L, state.factors.R
    direction = WeightedSignal(shape, state.gap / pattern.rate - state.z.z)
    grad_l, grad_r, _ = _factor_products(direction, state.spectra)
    gram_l, gram_r = L.conj().T @ L, R.conj().T @ R
    if sigma1 is not None:
        step = config.eta / sigma1
        grad_l += L @ gram_r
        grad_r += R @ gram_l
        return L - step * grad_l, R - step * grad_r
    eta = config.eta
    inv_gram_r, inv_gram_l = (_inverse_from_eigh(*_hermitian_eigh(G)) for G in (gram_r, gram_l))
    grad_l *= eta
    grad_r *= eta
    new_l = (1.0 - eta) * L
    new_l -= grad_l @ inv_gram_r
    new_r = (1.0 - eta) * R
    new_r -= grad_r @ inv_gram_l
    return new_l, new_r


def _exact_row_norms(A, gram):
    return np.sqrt(np.clip(np.einsum("ij,ij->i", A @ gram, A.conj()).real, 0.0, None))


def _longhand_projection(L, R, bound):
    """Every row norm computed exactly, both from the input Grams."""
    gram_l, gram_r = L.conj().T @ L, R.conj().T @ R
    out, clipped = [], 0
    for A, other in ((L, gram_r), (R, gram_l)):
        rows = _exact_row_norms(A, other)
        over = rows > bound
        clipped += int(np.count_nonzero(over))
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(np.where(over, bound / rows, 1.0)[:, None] * A if over.any() else A)
    return Factors(*out, clipped_rows=clipped)


def _longhand_step(state, f_obs, pattern, shape, config, sigma1=None):
    new_l, new_r = _longhand_update(state, pattern, shape, config, sigma1)
    factors = _longhand_projection(new_l, new_r, state.bound)
    return _refresh(factors, f_obs, pattern, shape, config, state.iteration + 1,
                    state.bound)


def _assert_same_bytes(got, want):
    assert got.factors.clipped_rows == want.factors.clipped_rows
    for name, array in _iterate_arrays(got).items():
        np.testing.assert_array_equal(array, _iterate_arrays(want)[name], err_msg=name)
        assert array.tobytes() == _iterate_arrays(want)[name].tobytes(), name


@pytest.mark.parametrize("n, r, seed", [(255, 5, 193), (4095, 6, 195)])
def test_steps_match_longhand_arithmetic_bitwise(monkeypatch, n, r, seed):
    # the steps fold eta into the r x r inverse, invert the eigendecomposition
    # the projection took, and compute exact row norms only when the screen
    # ||A_i||^2 lambda_max < bound^2 (1 - 1e-9) fails; at the default
    # eta = 0.5 none of that may change a bit
    exact_sides = []
    row_norms = recovery._gram_row_norms
    monkeypatch.setattr(recovery, "_gram_row_norms",
                        lambda A, gram: exact_sides.append(A.shape) or row_norms(A, gram))
    shape, pattern, f_obs, config, sigma1, state = _mid_solve_state(n, r, seed)
    assert config.eta == 0.5
    plain = state
    for _ in range(3):
        want = _longhand_step(state, f_obs, pattern, shape, config)
        state = hsnld_step(state, f_obs, pattern, shape, config)
        _assert_same_bytes(state, want)
        want = _longhand_step(plain, f_obs, pattern, shape, config, sigma1)
        plain = _plain_gd_step(plain, f_obs, pattern, shape, config, sigma1)
        _assert_same_bytes(plain, want)
    assert state.factors.eig is not None
    assert exact_sides == []  # these iterates sit well inside the ball

    # a radius within 1e-12 of the largest row norm of the next update: the
    # screen cannot clear that side, and the exact norms decide
    for step_sigma1, st in ((None, state), (sigma1, plain)):
        if step_sigma1 is None:
            step = lambda s: hsnld_step(s, f_obs, pattern, shape, config)
        else:
            step = lambda s: _plain_gd_step(s, f_obs, pattern, shape, config, step_sigma1)
        new_l, new_r = _longhand_update(st, pattern, shape, config, step_sigma1)
        gram_l, gram_r = new_l.conj().T @ new_l, new_r.conj().T @ new_r
        peak = max(_exact_row_norms(new_l, gram_r).max(), _exact_row_norms(new_r, gram_l).max())
        for rel, clips in ((1 + 1e-12, False), (1 - 1e-12, True)):
            near = replace(st, bound=peak * rel)
            want = _longhand_step(near, f_obs, pattern, shape, config, step_sigma1)
            got = step(near)
            assert (got.factors.clipped_rows > 0) == clips
            assert exact_sides
            exact_sides.clear()
            _assert_same_bytes(got, want)
        # one more step from the clipped state, whose Grams and inverses come
        # from the Factors the projection built for the clipped pair
        _assert_same_bytes(step(got), _longhand_step(got, f_obs, pattern, shape, config,
                                                     step_sigma1))
        exact_sides.clear()


def test_transform_budget(monkeypatch):
    # each step makes 4 transform calls over 4r + 2 rows: the 2r factor rows
    # and one inverse to map the factors back to a signal, then the direction
    # and the 2r rows for both products from the kept spectra.  Every call
    # runs along the last axis of a C-contiguous array.
    n, r = 255, 5
    shape, pattern, f_obs, config, sigma1, state = _mid_solve_state(n, r, 191)
    columns = []

    def counting(transform):
        def wrapped(a, *args, axis=-1, **kwargs):
            assert isinstance(a, np.ndarray) and a.flags.c_contiguous
            assert axis in (-1, a.ndim - 1)
            columns.append(a.size // a.shape[axis])
            return transform(a, *args, axis=axis, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "fft", counting(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
    hsnld_step(state, f_obs, pattern, shape, config)
    assert len(columns) == 4 and sum(columns) == 4 * r + 2
    columns.clear()
    _plain_gd_step(state, f_obs, pattern, shape, config, sigma1)
    assert len(columns) == 4 and sum(columns) == 4 * r + 2

    # spectral_init runs one power pass: range, one pass there and back, projection;
    # its products are those of the one Hankel SVD in linalg
    products = []
    for name in ("hankel_matmat", "hankel_rmatmat"):
        def product(sig, block, _name=name, _product=getattr(linalg, name)):
            products.append(_name)
            return _product(sig, block)
        monkeypatch.setattr(linalg, name, product)
    spectral_init(f_obs, pattern, shape, r, config.alpha)
    assert products == ["hankel_matmat", "hankel_rmatmat"] * 2


def _iterate_arrays(state):
    return {
        "L": state.factors.L, "R": state.factors.R, "spectra": state.spectra,
        "gap": state.gap, "z": state.z.z, "s": state.s.s,
    }


def test_steps_and_products_leave_inputs_unmodified():
    # the steps scale and subtract in their own product blocks, and the block
    # products transform in place in a block they allocate
    shape, pattern, f_obs, config, sigma1, state = _mid_solve_state(255, 5, 183)
    before = {k: v.copy() for k, v in _iterate_arrays(state).items()}
    hsnld_step(state, f_obs, pattern, shape, config)
    _plain_gd_step(state, f_obs, pattern, shape, config, sigma1)
    for name, array in _iterate_arrays(state).items():
        np.testing.assert_array_equal(array, before[name], err_msg=name)

    L, R = state.factors.L.copy(), state.factors.R.copy()
    hankel_matmat(state.z, R)
    hankel_rmatmat(state.z, L)
    np.testing.assert_array_equal(R, state.factors.R)
    np.testing.assert_array_equal(L, state.factors.L)


def test_carried_grams_change_no_bit():
    # a step reuses the Grams and the stacked eigendecomposition the
    # projection's Factors formed; each Gram formed afresh and inverted from
    # its own eigh, and a bare Factors of copied arrays, give the same bytes
    shape, pattern, f_obs, config, sigma1, state = _mid_solve_state(255, 5, 185)
    carried = state.factors
    for A, inverse in zip((carried.L, carried.R), _inverse_from_eigh(*carried.eig)):
        alone = _inverse_from_eigh(*_hermitian_eigh(A.conj().T @ A))
        assert inverse.tobytes() == alone.tobytes()
    bare = _refresh(Factors(carried.L.copy(), carried.R.copy()), f_obs,
                    pattern, shape, config, state.iteration, state.bound)
    for step in (
        lambda st: hsnld_step(st, f_obs, pattern, shape, config),
        lambda st: _plain_gd_step(st, f_obs, pattern, shape, config, sigma1),
    ):
        got, want = step(state), step(bare)
        for name, array in _iterate_arrays(got).items():
            np.testing.assert_array_equal(array, _iterate_arrays(want)[name], err_msg=name)


@pytest.mark.parametrize("n, r", [(125, 10), (4095, 5)])
def test_refresh_and_residual_match_public_longhand(n, r):
    # the refresh multiplies by the pattern's multiplicities in place of
    # project_obs, _lowrank_spectra no longer checks the factors, and the solve
    # takes its norms by np.linalg.norm's own formula: a longhand of public
    # functions gives the same bytes, at iterate 0 of a solve and at a later
    # iterate's gamma
    sig, pattern, f_obs, _ = make_instance(n, r, 20.0, n // 2, 0.1, 213)
    shape, config = sig.shape, RecoveryConfig(rank=r, alpha=0.1, max_iters=0)
    init = spectral_init(f_obs, pattern, shape, r, 0.1, seed=config.seed)
    weights = np.sqrt(antidiagonal_counts(shape).astype(np.float64))
    for iteration in (7, 0):  # iterate 0's gap is the solve's first residual
        got = _refresh(init.factors, f_obs, pattern, shape, config, iteration,
                       init.incoherence_bound)
        z = lowrank_to_signal(init.factors.L, init.factors.R, shape).z
        k = keep_count(_default_gamma(iteration), config.alpha, pattern.m, n)
        s = top_k_threshold((f_obs - project_obs(z, pattern)) / weights, k).s * weights
        gap = project_obs(z + s, pattern) - f_obs
        for name, array, want in (("z", got.z.z, z), ("s", got.s.s, s), ("gap", got.gap, gap)):
            assert array.tobytes() == want.tobytes(), name
    report = run_hsnld(f_obs, pattern, shape, config, ground_truth=sig.z)
    assert report.iterations == 0 and report.signal.z.tobytes() == z.tobytes()
    record = report.records[0]
    assert record.residual == float(np.linalg.norm(gap) / np.linalg.norm(f_obs))
    assert record.error == float(np.linalg.norm(z - sig.z) / np.linalg.norm(sig.z))


def _old_invertible_input(grams):
    """The rule Factors applied before it read the traces: every Gram finite and nonzero."""
    return bool(np.isfinite(grams).all() and np.any(grams, axis=(-2, -1)).all())


def test_factors_grams_and_degenerate_verdicts(rng):
    # Factors writes both Grams into one block and reads their traces; the
    # bytes are those of the stacked products, and eig is None exactly where
    # the finite-and-nonzero test on the whole stack said so
    for rows_l, rows_r, r in ((9, 7, 4), (40, 31, 1), (63, 63, 10)):
        L, R = rand_complex(rng, rows_l, r), rand_complex(rng, rows_r, r)
        stacked = np.stack((L.conj().T @ L, R.conj().T @ R))
        assert Factors(L, R).grams.tobytes() == stacked.tobytes()
    L, R = rand_complex(rng, 9, 4), rand_complex(rng, 7, 4)
    nan, inf, minus_inf, imag_inf = L.copy(), L.copy(), L.copy(), L.copy()
    nan[0, 0], inf[3, 1], minus_inf[8, 3] = np.nan, np.inf, -np.inf
    imag_inf[2, 2] = complex(0.0, np.inf)
    refused = {
        "zero": np.zeros_like(L), "nan": nan, "inf": inf, "-inf": minus_inf,
        "imag inf": imag_inf,
        "Gram overflows": 1e200 * L,
        "Gram underflows to 0": 1e-200 * L,
    }
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for name, bad in refused.items():
            for pair in ((bad, R), (L, bad)):
                factors = Factors(*pair)
                assert factors.eig is None, name
                assert not _old_invertible_input(factors.grams), name
    assert Factors(L, R).eig is not None and _old_invertible_input(Factors(L, R).grams)
    # the one difference, by design: every Gram entry finite (1e308) but their
    # trace past the float64 maximum, which no solvable iterate comes near
    huge = np.full((1, 4), 1e154, dtype=complex)
    with np.errstate(over="ignore"):
        factors = Factors(huge, R)
    assert factors.eig is None and _old_invertible_input(factors.grams)

    # a finite factor with a zero column (or one whose Gram column underflows)
    # keeps eig, and the step's inverse refuses it
    shape, pattern, f_obs, config, _, state = _mid_solve_state(125, 4, 215)
    for scale in (0.0, 1e-200):
        L = state.factors.L.copy()
        L[:, 1] *= scale
        factors = Factors(L, state.factors.R)
        assert factors.eig is not None and _old_invertible_input(factors.grams)
        with pytest.raises(DegenerateGramError, match="degenerate factor Gram matrix"):
            hsnld_step(replace(state, factors=factors), f_obs, pattern, shape, config)


def test_block_product_allocation_budget():
    # one (k, N) complex block, plus length-N vectors: the spectrum is
    # multiplied and transformed again where it was formed
    n, k = 4095, 15
    shape = HankelShape.square(n)
    rng = np.random.default_rng(187)
    sig = WeightedSignal(shape, rand_complex(rng, n))
    V = rand_complex(rng, shape.n2, k)
    block = k * 4096 * np.dtype(np.complex128).itemsize
    peak = traced_peak(lambda: hankel_matmat(sig, V))
    assert peak <= 1.5 * block, f"peak {peak / block:.2f} blocks"


def test_lowrank_spectra_allocation_budget():
    # the (2r, N) spectrum block plus a few length-N vectors: R's conjugate is
    # written straight into the block, only the padding is zeroed, and the
    # rank-one spectra are summed row by row rather than as an (r, N) product
    n, r = 4095, 5
    shape = HankelShape.square(n)
    rng = np.random.default_rng(189)
    L = rand_complex(rng, shape.n1, r)
    R = rand_complex(rng, shape.n2, r)
    block = 2 * r * 4096 * np.dtype(np.complex128).itemsize
    peak = traced_peak(lambda: _lowrank_spectra(L, R, shape))
    assert peak <= 1.35 * block, f"peak {peak / block:.2f} blocks"
    # the row-by-row sum has the bytes of the product block summed over axis 0
    for cols in (1, 2, r):
        z, spec = _lowrank_spectra(L[:, :cols], R[:, :cols], shape)
        summed = np.fft.ifft((spec[:cols] * spec[cols:]).sum(axis=0))[:n]
        assert z.z.tobytes() == (summed / _sqrt_counts(shape)).tobytes()


def test_spectral_init_allocation_budget():
    # the Gaussian block is dropped once its product exists, each product
    # (a view pinning its (width, N) spectrum block) right after its QR, and
    # each basis once its product exists: no more than two blocks at a time
    n, r = 4095, 5
    sig, pattern, f_obs, _ = make_instance(n, r, 20.0, n // 2, 0.1, 199)
    block = (r + max(10, 2 * r)) * 4096 * np.dtype(np.complex128).itemsize
    peak = traced_peak(lambda: spectral_init(f_obs, pattern, sig.shape, r, 0.1))
    assert peak <= 2.5 * block, f"peak {peak / block:.2f} blocks"


@pytest.mark.parametrize("solve", [run_hsnld, run_plain_gd])
def test_solve_allocation_budget(solve):
    # the init's peak, then per step the input iterate's spectra plus one
    # product block, which the refresh fills with the next iterate's spectra;
    # the init's result is not kept once the first iterate exists
    n, r = 4095, 5
    sig, pattern, f_obs, _ = make_instance(n, r, 20.0, n // 2, 0.1, 199)
    config = RecoveryConfig(rank=r, alpha=0.1, max_iters=4)
    assert solve(f_obs, pattern, sig.shape, config).iterations == config.max_iters
    block = 2 * r * 4096 * np.dtype(np.complex128).itemsize
    peak = traced_peak(lambda: solve(f_obs, pattern, sig.shape, config))
    assert peak <= 4.25 * block, f"peak {peak / block:.2f} blocks"


def test_step_block_handoff_does_not_alias():
    # a step's product block becomes the next iterate's spectra; stepping one
    # state twice gives the same bytes, each time in a block of its own
    shape, pattern, f_obs, config, sigma1, start = _mid_solve_state(255, 5, 197)
    for step in (
        lambda st: hsnld_step(st, f_obs, pattern, shape, config),
        lambda st: _plain_gd_step(st, f_obs, pattern, shape, config, sigma1),
    ):
        state = step(start)  # its spectra are a handed-off product block
        first, second = step(state), step(state)
        _assert_same_bytes(first, second)
        assert not np.shares_memory(first.spectra, second.spectra)
        for new in (first, second):
            assert not np.shares_memory(new.spectra, state.spectra)


def test_run_hsnld_clean_full_observation_fast():
    n, r = 255, 3
    sig, _ = spectral_signal(n, r, 1.0, seed=61)
    pattern = sample_pattern(n, n, WITHOUT_REPLACEMENT, seed=62)
    f_obs = project_obs(sig.z, pattern)
    config = RecoveryConfig(rank=r, alpha=0.0)
    report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    assert report.termination == "residual_tol"
    assert report.iterations <= 40
    # exact rank-r data with full observation initializes at the answer
    assert report.iterations <= 1


@pytest.mark.parametrize("seed", range(20))
def test_run_hsnld_monotone_residual_after_burn_in(seed):
    n, r = 101, 3
    sig, _ = spectral_signal(n, r, 3.0, seed=2000 + seed)
    pattern = sample_pattern(n, n, WITHOUT_REPLACEMENT, seed=3000 + seed)
    f_obs = project_obs(sig.z, pattern)
    config = RecoveryConfig(rank=r, alpha=0.0, max_iters=30, tol_residual=1e-12)
    report = run_hsnld(f_obs, pattern, sig.shape, config)
    res = np.array([rec.residual for rec in report.records])
    tail = res[3:]
    assert np.all(np.diff(tail) <= 1e-12 + 1e-6 * tail[:-1])


def test_run_hsnld_iterates_stay_incoherent_and_supported():
    n, r = 125, 4
    sig, pattern, f_obs, _ = make_instance(n, r, 10.0, 100, 0.1, 71)
    config = RecoveryConfig(rank=r, alpha=0.1, max_iters=25)
    init = spectral_init(f_obs, pattern, sig.shape, r, 0.1, seed=config.seed)
    state = _refresh(init.factors, f_obs, pattern, sig.shape, config, 0,
                     init.incoherence_bound)
    observed = set(pattern.indices)
    for _ in range(15):
        state = hsnld_step(state, f_obs, pattern, sig.shape, config)
        assert row_cross_norms(state.factors.L, state.factors.R) <= (
            init.incoherence_bound * (1 + 1e-10)
        )
        assert set(np.flatnonzero(state.s.s)) <= observed


def test_run_hsnld_partial_with_outliers_recovers():
    n, r = 255, 5
    sig, pattern, f_obs, _ = make_instance(n, r, 10.0, 180, 0.1, 81)
    config = RecoveryConfig(rank=r, alpha=0.1)
    report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    assert report.termination == "residual_tol"
    assert report.final_error <= 1e-3


def test_run_hsnld_trace_shape_and_determinism():
    n, r = 101, 2
    sig, pattern, f_obs, _ = make_instance(n, r, 2.0, 80, 0.05, 91)
    config = RecoveryConfig(rank=r, alpha=0.05, seed=5)
    a = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    b = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    assert len(a.records) == a.iterations + 1
    np.testing.assert_array_equal([rec.residual for rec in a.records],
                                  [rec.residual for rec in b.records])
    np.testing.assert_array_equal([rec.error for rec in a.records],
                                  [rec.error for rec in b.records])
    np.testing.assert_array_equal(a.signal.z, b.signal.z)


def test_run_hsnld_with_replacement_diagnostic_mode():
    n, r = 101, 2
    sig, _ = spectral_signal(n, r, 2.0, seed=151)
    pattern = sample_pattern(n, 3 * n, "with_replacement", seed=152)
    f_obs = project_obs(sig.z, pattern)
    config = RecoveryConfig(rank=r, alpha=0.0, max_iters=300)
    report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    assert report.termination == "residual_tol"
    assert report.final_error <= 1e-3


def test_spectral_init_removes_the_keep_count_budget(monkeypatch):
    # 0.07 * 100 = 7.000000000000001, whose plain ceil removed an eighth entry
    n, r, alpha, m = 255, 3, 0.07, 100
    sig, pattern, f_obs, _ = make_instance(n, r, 2.0, m, alpha, 163)
    budgets = []
    sparsify = recovery._sparsify

    def spy(residual, k, shape):
        budgets.append(k)
        return sparsify(residual, k, shape)

    monkeypatch.setattr(recovery, "_sparsify", spy)
    spectral_init(f_obs, pattern, sig.shape, r, alpha, seed=0)
    assert budgets == [keep_count(1.0, alpha, m, n)] == [7]


def test_refresh_ranks_outliers_by_raw_magnitude():
    # the iteration keeps the same entries spectral_init would: the top-k of
    # the unweighted residual, not of the weighted one
    n, r, alpha = 101, 3, 0.1
    sig, pattern, f_obs, _ = make_instance(n, r, 10.0, 80, alpha, 161)
    init = spectral_init(f_obs, pattern, sig.shape, r, alpha, seed=0)
    config = RecoveryConfig(rank=r, alpha=alpha)
    state = _refresh(init.factors, f_obs, pattern, sig.shape, config, 0,
                     init.incoherence_bound)
    z = lowrank_to_signal(init.factors.L, init.factors.R, sig.shape).z
    residual = f_obs - project_obs(z, pattern)
    k = keep_count(_default_gamma(0), alpha, pattern.m, n)
    sqrt_counts = np.sqrt(antidiagonal_counts(sig.shape).astype(float))
    raw = np.flatnonzero(top_k_threshold(residual / sqrt_counts, k).s)
    weighted = np.flatnonzero(top_k_threshold(residual, k).s)
    assert not np.array_equal(raw, weighted)  # the instance tells the rules apart
    np.testing.assert_array_equal(np.flatnonzero(state.s.s), raw)
    np.testing.assert_allclose(state.s.s[raw], residual[raw], rtol=1e-15)
    np.testing.assert_array_equal(state.gap, project_obs(z + state.s.s, pattern) - f_obs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_nonfinite_observations_rejected(bad):
    # 1e300 is finite, but the norm of the observations overflows
    n, r = 64, 2
    sig, pattern, f_obs, _ = make_instance(n, r, 2.0, 50, 0.0, 171)
    f_obs = f_obs.copy()
    f_obs[pattern.indices[0]] = bad
    config = RecoveryConfig(rank=r, alpha=0.0)
    for solve in (run_hsnld, run_plain_gd):
        with pytest.raises(ValueError, match="non-finite"):
            solve(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    with pytest.raises(ValueError, match="non-finite"):
        spectral_init(f_obs, pattern, sig.shape, r, 0.0)


def test_run_hsnld_ends_on_a_degenerate_gram():
    # asking for rank 2 on exactly rank-1 data collapses the second factor
    # column and the preconditioner refuses it: the solve stops there
    n = 64
    sig, _ = spectral_signal(n, 1, 1.0, seed=98)
    pattern = sample_pattern(n, n, WITHOUT_REPLACEMENT, seed=99)
    f_obs = project_obs(sig.z, pattern)
    config = RecoveryConfig(rank=2, alpha=0.0, max_iters=10, tol_residual=1e-16)
    # the inverse comes from the eigendecomposition the init's Factors
    # carries, and the eigenvalue ratio below 1e-12 refuses it
    init = spectral_init(f_obs, pattern, sig.shape, 2, 0.0, seed=config.seed)
    assert init.factors.eig is not None
    report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    assert report.termination == "degenerate_gram"
    assert report.iterations == 0
    # the report keeps the iterate it stopped at
    assert np.isfinite(report.final_error)
    assert report.records[0].residual > config.tol_residual


@pytest.mark.parametrize("scale", [0.0, 1e200])
def test_hsnld_step_refuses_a_zero_or_nonfinite_gram(monkeypatch, scale):
    # a zero Gram, or one that overflows to inf, carries no eigendecomposition
    shape, pattern, f_obs, config, sigma1, state = _mid_solve_state(255, 5, 197)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = Factors(np.full_like(state.factors.L, scale),
                          np.full_like(state.factors.R, scale))
    assert factors.eig is None
    # the refusal comes before the step forms its products
    formed = []
    monkeypatch.setattr(recovery, "_factor_products", lambda *args: formed.append(args))
    message = r"^degenerate factor Gram matrix \(zero or non-finite input\)$"
    with pytest.raises(DegenerateGramError, match=message):
        hsnld_step(replace(state, factors=factors), f_obs, pattern, shape, config)
    assert formed == []


@pytest.mark.parametrize("solve", [run_hsnld, run_plain_gd])
def test_overflowing_iterate_stops_diverged_quietly(monkeypatch, solve):
    # from the first step on, the low-rank estimate is scaled by 1e200: the
    # factors stay finite, so only the residual and error norms overflow
    sig, pattern, f_obs, _ = make_instance(125, 4, 10.0, 100, 0.1, 71)
    spectra_of, calls = recovery._lowrank_spectra, []

    def inflated(*args):
        z, spectra = spectra_of(*args)
        calls.append(None)
        return (WeightedSignal(z.shape, 1e200 * z.z) if len(calls) > 1 else z), spectra

    monkeypatch.setattr(recovery, "_lowrank_spectra", inflated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(f_obs, pattern, sig.shape, RecoveryConfig(rank=4, alpha=0.1),
                       ground_truth=sig.z)
    assert report.termination == "diverged"
    assert report.iterations == 1
    # HSNLD's bold candidate overflows too: it is rejected, and the redo is recorded
    assert report.redone_at == ((0,) if solve is run_hsnld else ())
    assert math.isfinite(report.records[0].residual)
    assert not (math.isfinite(report.records[-1].residual) or math.isfinite(report.final_error))


def _clipping_instance():
    # 30 samples of an n=125, r=10 signal: too few to recover it, and the
    # iterates press on the estimated incoherence ball
    sig, pattern, f_obs, _ = make_instance(125, 10, 10.0, 30, 0.0, 35)
    return sig, pattern, f_obs, RecoveryConfig(rank=10, alpha=0.0)


def test_run_hsnld_stops_on_estimated_ball_clipping():
    sig, pattern, f_obs, config = _clipping_instance()
    report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    assert report.termination == "clipped"
    assert report.iterations < config.max_iters // 10
    # the first bold step is redone, so the solve is the fixed-eta loop below
    assert report.redone_at == (0,)
    # the stop is at the first run of CLIP_STOP_ITERS clipped iterates, the
    # initialization's projection counting as iterate 0
    def step(st, cfg):
        return hsnld_step(st, f_obs, pattern, sig.shape, cfg)

    *_, clipped = _stepped_loop(
        f_obs, pattern, sig.shape, replace(config, max_iters=report.iterations), step)
    assert _clip_stops(clipped) == [report.iterations]


def test_run_plain_gd_matches_on_well_conditioned():
    n, r = 255, 3
    sig, pattern, f_obs, _ = make_instance(n, r, 1.0, n, 0.0, 101)
    config = RecoveryConfig(rank=r, alpha=0.0, max_iters=500)
    fast = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    slow = run_plain_gd(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    assert slow.termination == "residual_tol"
    assert slow.iterations <= 3 * max(fast.iterations, 10)


def test_run_plain_gd_eta_zero_makes_no_progress():
    n, r = 101, 2
    sig, pattern, f_obs, _ = make_instance(n, r, 2.0, 80, 0.0, 111)
    config = RecoveryConfig(rank=r, alpha=0.0, eta=0.0, max_iters=5)
    report = run_plain_gd(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    errs = np.array([rec.error for rec in report.records])
    np.testing.assert_allclose(errs, errs[0], rtol=1e-12)


def _stepped_loop(f_obs, pattern, shape, config, step, bold=None):
    """A solve run by hand for ``config.max_iters`` steps of ``step(state, config)``.

    With ``bold``, a step is first taken at that eta at iterate 0, at every
    iterate after a kept attempt, and 1, 2, 4, ... iterates after the first,
    second, third, ... rejected one, unless the one at iterate 0 was rejected.
    An attempt is kept if it halves the observed residual, else the step is
    redone at ``config.eta``.  Returns each iterate's residual, the last
    iterate, the iterates whose bold attempt was redone and those whose was
    kept, and whether each iterate's projection shrank a row.
    """
    init = spectral_init(f_obs, pattern, shape, config.rank, config.alpha, seed=config.seed)
    state = _refresh(init.factors, f_obs, pattern, shape, config, 0, init.incoherence_bound)
    denom = np.linalg.norm(f_obs)

    def residual(st):
        return float(np.linalg.norm(st.gap) / denom)

    residuals, redone, kept = [residual(state)], [], []
    clipped = [state.factors.clipped_rows > 0]
    try_at = 0 if bold else float("inf")
    while len(residuals) <= config.max_iters:
        k = state.iteration
        candidate = None
        if k >= try_at:
            candidate = step(state, replace(config, eta=bold))
            if residual(candidate) <= 0.5 * residual(state):
                kept.append(k)
            else:
                candidate = None
                redone.append(k)
                try_at = k + 2 ** (len(redone) - 1) if k else float("inf")
        state = step(state, config) if candidate is None else candidate
        residuals.append(residual(state))
        clipped.append(state.factors.clipped_rows > 0)
    return residuals, state, tuple(redone), tuple(kept), clipped


def _clip_stops(clipped):
    """The iterates that end a run of CLIP_STOP_ITERS iterates whose projection clipped."""
    window = recovery.CLIP_STOP_ITERS
    return [i for i in range(window - 1, len(clipped)) if all(clipped[i + 1 - window:i + 1])]


def _assert_report_is(report, residuals, state):
    assert [rec.residual for rec in report.records] == residuals
    assert report.signal.z.tobytes() == state.z.z.tobytes()
    assert report.factors.L.tobytes() == state.factors.L.tobytes()
    assert report.factors.R.tobytes() == state.factors.R.tobytes()


@pytest.mark.parametrize("n, r, kappa, m, alpha, seed, max_iters, redone_at, kept", [
    # kappa = 2000: kept at 0 and 1, redone at 2 and 3, kept again at 5 and 6
    # after the doubled wait, redone at 7 and, 4 iterates on, at 11
    pytest.param(255, 3, 2000.0, 200, 0.1, 22, 12, (2, 3, 7, 11), (0, 1, 5, 6),
                 id="kappa2000-kept-again"),
    # an n=125, r=10 phase-grid cell (m=106): kept at 0, 2 and 5 between
    # rejections, then redone after waits of 4 and 8
    pytest.param(125, 10, 10.0, 106, 0.0, 5, 20, (1, 3, 6, 10, 18), (0, 2, 5),
                 id="n125-kept-between"),
    # an n=125, r=10 phase-grid boundary cell (m=68, alpha=0.2): the first
    # attempt is redone and none follows
    pytest.param(125, 10, 10.0, 68, 0.2, 1, 20, (0,), (),
                 id="n125-boundary-cell"),
])
def test_run_hsnld_retries_the_bold_step_with_exponential_back_off(
    n, r, kappa, m, alpha, seed, max_iters, redone_at, kept
):
    # a bold step at min(1, 1.4 eta) is kept if it halves the observed
    # residual, else redone at eta from the same products; the next attempt
    # comes 1, 2, 4, ... iterates after each rejection, a wait that never
    # resets, and none after a rejection at iterate 0
    sig, pattern, f_obs, _ = make_instance(n, r, kappa, m, alpha, seed)
    config = RecoveryConfig(rank=r, alpha=alpha, max_iters=max_iters, tol_residual=0.0)
    report = run_hsnld(f_obs, pattern, sig.shape, config)
    assert report.iterations == config.max_iters
    assert report.redone_at == redone_at
    assert len(report.redone_at) <= math.floor(math.log2(config.max_iters)) + 1

    def step(st, cfg):
        return hsnld_step(st, f_obs, pattern, sig.shape, cfg)

    bold = min(1.0, 1.4 * config.eta)
    residuals, state, redone, kept_by_hand, _ = _stepped_loop(
        f_obs, pattern, sig.shape, config, step, bold)
    assert (redone, kept_by_hand) == (redone_at, kept)
    _assert_report_is(report, residuals, state)
    if not kept:  # the first attempt redone: the solve is the fixed-eta loop, byte for byte
        _assert_report_is(report, *_stepped_loop(f_obs, pattern, sig.shape, config, step)[:2])


def test_run_hsnld_stops_clipped_between_bold_attempts():
    # 30 samples again: the first bold step is kept and every later one
    # redone, and the solve stops at its first run of CLIP_STOP_ITERS clipped
    # iterates, as the loop of hsnld_step at the same steps does
    sig, pattern, f_obs, _ = make_instance(125, 10, 10.0, 30, 0.0, 60)
    config = RecoveryConfig(rank=10, alpha=0.0)
    report = run_hsnld(f_obs, pattern, sig.shape, config)
    assert report.termination == "clipped"
    assert report.redone_at == (1, 2, 4, 8, 16, 32, 64)

    def step(st, cfg):
        return hsnld_step(st, f_obs, pattern, sig.shape, cfg)

    residuals, state, redone, kept, clipped = _stepped_loop(
        f_obs, pattern, sig.shape, replace(config, max_iters=report.iterations), step,
        min(1.0, 1.4 * config.eta))
    assert (redone, kept) == (report.redone_at, (0,))
    _assert_report_is(report, residuals, state)
    assert _clip_stops(clipped) == [report.iterations]


def test_eta_zero_and_plain_gd_take_no_bold_step():
    # eta = 0 leaves the init's factors where they are, and the plain baseline
    # is its own step loop; both run at eta from iterate 0
    sig, pattern, f_obs, _ = make_instance(255, 3, 100.0, 200, 0.1, 1)
    config = RecoveryConfig(rank=3, alpha=0.1, max_iters=8, tol_residual=0.0)
    init = spectral_init(f_obs, pattern, sig.shape, 3, 0.1, seed=config.seed)
    still = run_hsnld(f_obs, pattern, sig.shape, replace(config, eta=0.0))
    assert still.iterations == config.max_iters and still.redone_at == ()
    assert still.factors.L.tobytes() == init.factors.L.tobytes()
    assert still.factors.R.tobytes() == init.factors.R.tobytes()

    def step(st, cfg):
        return _plain_gd_step(st, f_obs, pattern, sig.shape, cfg, init.top_singular_value)

    report = run_plain_gd(f_obs, pattern, sig.shape, config)
    assert report.redone_at == ()
    _assert_report_is(report, *_stepped_loop(f_obs, pattern, sig.shape, config, step)[:2])


def test_error_against_basics(rng):
    # the relative error every solve records against its ground truth
    z = rand_complex(rng, 40)
    error = _error_against(z, 40)
    assert error(z) == 0.0
    assert abs(error(np.zeros(40)) - 1.0) <= 1e-15
    assert abs(error(1.001 * z) - 1e-3) <= 1e-12
    # a truth that defines no relative error is refused, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.zeros(40), np.full(40, np.nan), np.full(40, np.inf), np.full(40, 1e300)):
            with pytest.raises(ValueError, match="ground truth norm must be finite and nonzero"):
                _error_against(bad, 40)
    # a truth of another length is refused where it enters, naming both lengths
    with pytest.raises(ValueError, match=r"expected length 40, got \(39,\)"):
        _error_against(rand_complex(rng, 39), 40)


def test_wrong_length_truth_refused_before_the_init(monkeypatch):
    n, r = 64, 2
    sig, pattern, f_obs, _ = make_instance(n, r, 2.0, 50, 0.0, 171)
    config = RecoveryConfig(rank=r, alpha=0.0)

    def init_never_called(*args, **kwargs):
        raise AssertionError("spectral_init ran on a refused input")

    monkeypatch.setattr(recovery, "spectral_init", init_never_called)
    for solve in (run_hsnld, run_plain_gd):
        for truth in (sig.z[:-1], np.append(sig.z, 0.0), sig.z.reshape(1, n)):
            with pytest.raises(ValueError, match=rf"ground truth: expected length {n}"):
                solve(f_obs, pattern, sig.shape, config, ground_truth=truth)


def test_approx_dist_zero_at_truth():
    sig, _ = spectral_signal(64, 3, 4.0, seed=121)
    _, L, R, sigma = truth_factors(sig, 3)
    assert approx_dist(Factors(L, R), L, R, sigma) <= 1e-10


def test_approx_dist_gauge_invariance(rng):
    sig, _ = spectral_signal(64, 3, 4.0, seed=122)
    _, L, R, sigma = truth_factors(sig, 3)
    A = rand_complex(rng, 3, 3) + 3 * np.eye(3)
    factors = Factors(L @ A, R @ np.linalg.inv(A).conj().T)
    assert approx_dist(factors, L, R, sigma) <= 1e-8 * np.sqrt(sigma[0])


def test_approx_dist_upper_bounds_product_error():
    # consistency with the product-error bound: near the truth,
    # |L R^H - X|_F <= sqrt(2) * (1 + 0.005) * dist whenever dist < 0.01 * sigma_r
    n, r = 255, 5
    sig, pattern, f_obs, _ = make_instance(n, r, 10.0, n, 0.05, 131)
    X, L_star, R_star, sigma = truth_factors(sig, r)
    config = RecoveryConfig(rank=r, alpha=0.05, max_iters=40)
    init = spectral_init(f_obs, pattern, sig.shape, r, 0.05, seed=config.seed)
    state = _refresh(init.factors, f_obs, pattern, sig.shape, config, 0,
                     init.incoherence_bound)
    checked = 0
    for _ in range(40):
        state = hsnld_step(state, f_obs, pattern, sig.shape, config)
        d = approx_dist(state.factors, L_star, R_star, sigma)
        if d < 0.01 * sigma[-1]:
            gap = np.linalg.norm(state.factors.L @ state.factors.R.conj().T - X)
            assert gap <= np.sqrt(2) * 1.005 * d * (1 + 1e-9)
            checked += 1
    assert checked >= 5
