"""Preconditioned factored descent for robust Hankel recovery.

The solver tracks a rank-r factor pair (L, R) of the embedded Hankel matrix
together with a sparse outlier estimate.  Each iteration: refresh the signal
estimate from the factors, hard-threshold the observed residual to re-detect
outliers (ranked by raw, unweighted magnitude, in initialization and in
iteration alike), then take a gradient step on each factor right-multiplied
by the inverse Gram matrix of the other factor (a Newton-like preconditioner
that makes progress per iteration independent of the conditioning of the
ground truth), and finally project rows back into the weak-incoherence ball.
An HSNLD step is first tried at min(1, 1.4 eta) and kept if it halves the observed
residual, else redone at eta and tried again after a wait that doubles each time,
unless the solve's first attempt failed.

A plain scaled-gradient baseline (same gradients, no Gram preconditioning,
step size divided by the top singular value from initialization) is provided
for iteration-count comparisons; it is indicative, not a faithful port of any
particular published method.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .hankel import HankelShape, WeightedSignal, _factor_products, _lowrank_spectra, _sqrt_counts
from .linalg import (
    DegenerateGramError,
    _check_fraction,
    _check_integer,
    _check_rank,
    _hankel_svd,
    _hermitian_eigh,
    _inverse_from_eigh,
    _invertible_input,
)
from .sampling import (
    ObservationPattern,
    SparseEstimate,
    keep_count,
    project_obs,
    top_k_threshold,
)

__all__ = [
    "Factors",
    "RecoveryConfig",
    "InitResult",
    "IterationRecord",
    "RecoveryReport",
    "project_incoherence",
    "spectral_init",
    "hsnld_step",
    "run_hsnld",
    "run_plain_gd",
]


# Inflation applied on top of the estimated incoherence radius.  The row-norm
# and top-singular-value estimates both come from the noisy initialization;
# with no slack the projection can clip the ground truth itself (observed on
# well-conditioned instances, where the truth sits exactly on the radius) and
# the iteration stalls.  Any factor >= 1 keeps the projection non-expansive.
AUTO_BOUND_SAFETY = 1.5

# A solve stops ("clipped") after this many consecutive iterates whose
# projection shrank a row.  A recoverable truth sits well inside the estimated
# ball: on the n=125, r=10 phase grid (480 trials at each of seeds
# 99173-99176, bold steps backed off) no success ever clipped, while 38-45 of
# about 138 failures did.  10 stopped 36, 35, 36 and 43 failures, lost no success
# and saved 15-19% of grid iterations against no stop; 50 saved 9-11%.
CLIP_STOP_ITERS = 10

# run_hsnld's bold step.  Against fixed eta = 0.5, solve_16k mean iterations
# 11.5 -> 8.2 (8.6 if one rejection fixes eta; bench seeds 21-22); c07's cells
# and doa's 37/40 kept.  Fixed 0.7 lost 51 c07 successes; keeping any decrease, a doa seed.
BOLD_STEP_SCALE = 1.4
BOLD_KEEP_RATIO = 0.5


@dataclass
class Factors:
    """Low-rank factor pair; the estimate of the embedded matrix is L @ R^H.

    ``grams`` is the stack (L^H L, R^H R), formed from these very arrays, and
    ``eig`` the stacked ``(w, Q)`` eigendecomposition of their Hermitian
    parts, or None when a Gram is zero or non-finite.  :func:`project_incoherence`
    screens rows with them and :func:`hsnld_step` inverts them, so neither
    forms them again.  Both are valid only while L and R stay unmodified.
    ``clipped_rows`` is the number of rows of L and R together that the
    projection shrank.
    """

    L: np.ndarray
    R: np.ndarray
    clipped_rows: int = 0
    grams: np.ndarray = field(init=False, repr=False)
    eig: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=np.complex128)
        self.R = np.asarray(self.R, dtype=np.complex128)
        if self.L.ndim != 2 or self.R.ndim != 2 or self.L.shape[1] != self.R.shape[1]:
            raise ValueError("factor shapes are inconsistent")
        self.grams = np.stack((self.L.conj().T @ self.L, self.R.conj().T @ self.R))
        self.eig = _hermitian_eigh(self.grams) if _invertible_input(self.grams) else None


def _default_gamma(k: int) -> float:
    """Sparsification overshoot schedule, decaying toward 1 from above."""
    return 1.05 + 0.45 * 0.95**k


@dataclass(frozen=True)
class RecoveryConfig:
    """All solver knobs; a bad one raises ValueError when built (``dataclasses.replace`` too)."""

    rank: int
    alpha: float
    eta: float = 0.5  # the step a rejected bold step is redone at (see run_hsnld)
    max_iters: int = 1000
    tol_residual: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        # a fractional or NaN max_iters is never reached, so the solve never stops
        for name, low in (("rank", 1), ("max_iters", 0), ("seed", 0)):
            _check_integer(name, getattr(self, name), low)
        _check_fraction("alpha", self.alpha)
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        # a NaN tolerance would never stop the solve, yet report no fault
        if not (math.isfinite(self.tol_residual) and self.tol_residual >= 0):
            raise ValueError(f"tol_residual must be finite and >= 0, got {self.tol_residual}")


@dataclass
class IterationRecord:
    residual: float
    error: float
    seconds: float


@dataclass
class RecoveryReport:
    """Per-iteration trace plus the final estimates."""

    records: list[IterationRecord]
    signal: WeightedSignal
    factors: Factors
    termination: str
    incoherence_bound: float
    redone_at: tuple[int, ...]  # iterates whose bold step was rejected and redone at eta

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    @property
    def final_error(self) -> float:
        return self.records[-1].error


def project_incoherence(L, R, bound: float) -> Factors:
    """Row-wise projection keeping both cross products inside the 2,inf ball.

    Rows of L are shrunk by min(1, bound / ||L_i (R^H R)^{1/2}||), and rows of
    R symmetrically with (L^H L)^{1/2}; both scalings use the input Gram
    matrices, not sequentially updated ones.  ``bound`` must be finite and
    positive.

    The input pair's :class:`Factors` carries both Grams and their
    eigendecomposition.  Since ||A_i G^{1/2}||^2 <= ||A_i||^2 lambda_max(G), a
    side whose largest row energy times the other Gram's top eigenvalue stays
    below bound^2 (1 - 1e-9) has no row to shrink, and its exact row norms
    sqrt(max(Re(A_i G A_i^H), 0)) are computed only when that screen fails.
    The margin covers their roundoff, so the result has the exact norms' bytes.

    With no row over the bound the result is that :class:`Factors`, holding
    the input arrays themselves (converted to complex128), not copies.
    Otherwise it is a new one, whose clipped sides are scaled copies.  The
    result's ``clipped_rows`` counts the rows shrunk on both sides; the
    solver's ``"clipped"`` stop reads it.
    """
    # squared norms meet bound^2: a negative radius would pass for its absolute
    # value, and a NaN one would clip nothing
    if not (math.isfinite(bound) and bound > 0):
        raise ValueError(f"bound must be finite and positive, got {bound}")
    factors = Factors(L, R)
    gram_l, gram_r = factors.grams
    # a zero or non-finite Gram fails the screen: every row norm is computed
    top_l, top_r = (math.nan, math.nan) if factors.eig is None else factors.eig[0][:, -1]
    new_l, clipped_l = _shrink_rows(factors.L, gram_r, top_r, bound)
    new_r, clipped_r = _shrink_rows(factors.R, gram_l, top_l, bound)
    if not clipped_l + clipped_r:
        return factors
    return Factors(new_l, new_r, clipped_l + clipped_r)


def _shrink_rows(A: np.ndarray, other_gram: np.ndarray, other_top: float, bound: float):
    """A with its rows over ``bound`` (in the other Gram's norm) scaled onto it, and their count."""
    # Python float products overflow quietly, and inf or nan fails the screen
    radius = float(bound)
    if _peak_row_energy(A) * float(other_top) < radius * radius * (1.0 - 1e-9):
        return A, 0
    rows = _gram_row_norms(A, other_gram)
    over = rows > bound
    clipped = int(np.count_nonzero(over))
    if not clipped:
        return A, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(over, bound / rows, 1.0)
    return scale[:, None] * A, clipped


def _peak_row_energy(A: np.ndarray) -> float:
    """max_i ||A_i||^2, summed over a float view of the real and imaginary parts."""
    parts = np.ascontiguousarray(A).view(np.float64)
    return float(np.einsum("ij,ij->i", parts, parts).max(initial=0.0))


def _gram_row_norms(A: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Row norms ||A_i gram^{1/2}|| of A, for a Hermitian PSD gram."""
    sq = np.einsum("ij,ij->i", A @ gram, A.conj()).real
    return np.sqrt(np.clip(sq, 0.0, None))


@dataclass
class InitResult:
    factors: Factors
    top_singular_value: float
    incoherence_bound: float


def _check_supported(f_obs: np.ndarray, pattern: ObservationPattern):
    if pattern.n != f_obs.size:
        raise ValueError(f"pattern length {pattern.n} does not match signal length {f_obs.size}")
    # an overflowing norm would make every relative residual read 0
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(f_obs)
    if not np.isfinite(norm):
        raise ValueError("observed vector has non-finite entries or an overflowing norm")
    if np.any(f_obs[pattern.multiplicities() == 0] != 0):
        raise ValueError("observed vector has nonzeros off the sampling pattern")


def _sparsify(residual: np.ndarray, k: int, shape: HankelShape) -> SparseEstimate:
    """Outlier estimate: the k entries of a weighted residual largest in raw magnitude.

    The one thresholding rule of the package, used by :func:`spectral_init`
    and by every iteration.  Entries are ranked after unweighting, the domain
    in which the sparsification sup-norm bound holds, and returned reweighted.
    """
    w = _sqrt_counts(shape)
    kept = top_k_threshold(residual / w, k)
    kept.s *= w
    return kept


def spectral_init(
    f_obs,
    pattern: ObservationPattern,
    shape: HankelShape,
    rank: int,
    alpha: float,
    seed: int = 0,
) -> InitResult:
    """One-shot initialization: clean, rescale, truncate, project.

    The largest ceil(alpha*m) observed entries (:func:`keep_count` at gamma 1;
    ranked by raw magnitude, see :func:`_sparsify`) are treated as outliers
    and removed, the remainder is scaled by 1/p to compensate for sampling,
    and the top-rank SVD of the resulting implicit Hankel matrix (the one
    Hankel SVD, :func:`linalg._hankel_svd`) seeds the factors.  The
    incoherence radius, which the paper sets from the unknown truth, is
    estimated as ``AUTO_BOUND_SAFETY`` times the leading singular vectors'
    largest row norm times the top singular value (1 if that is 0).
    """
    f_obs = np.asarray(f_obs, dtype=np.complex128)
    n1, n2, n = shape.n1, shape.n2, shape.n
    if f_obs.shape != (n,):
        raise ValueError(f"expected length {n}, got {f_obs.shape}")
    _check_rank(rank, n1, n2)
    _check_fraction("alpha", alpha)
    _check_supported(f_obs, pattern)

    s0 = _sparsify(f_obs, keep_count(1.0, alpha, pattern.m, n), shape)

    tsvd = _hankel_svd(WeightedSignal(shape, (f_obs - s0.s) / pattern.rate), rank, seed)
    sigma1 = float(tsvd.S[0])
    leverage = max(
        np.linalg.norm(tsvd.U, axis=1).max(),
        np.linalg.norm(tsvd.V, axis=1).max(),
    )
    bound = AUTO_BOUND_SAFETY * leverage * sigma1
    if bound <= 0:
        bound = 1.0
    sqrt_s = np.sqrt(tsvd.S)
    factors = project_incoherence(tsvd.U * sqrt_s, tsvd.V * sqrt_s, bound)
    return InitResult(factors, sigma1, bound)


@dataclass
class IterateState:
    """Factors, the estimates derived from them, and the observed gap P(z + s) - f_obs."""

    factors: Factors
    z: WeightedSignal
    s: SparseEstimate
    gap: np.ndarray
    iteration: int
    bound: float
    # (2r, N) spectrum of the rows of L^T over R^H, which the step only reads.
    # It is a spent block of the step (its products', or a bold candidate's
    # input iterate's), or new at iterate 0, and is freed with the iterate.
    spectra: np.ndarray


def _refresh(
    factors: Factors, f_obs, pattern, shape, config, iteration, bound, block=None
) -> IterateState:
    """Estimates for a factor pair; outliers are ranked by raw magnitude, as in init.

    The factor spectra are written into ``block``, a spent (2r, N) block of the
    step, when one is given, else into a new block."""
    z, spectra = _lowrank_spectra(factors.L, factors.R, shape, block)
    k = keep_count(_default_gamma(iteration), config.alpha, pattern.m, shape.n)
    s = _sparsify(f_obs - project_obs(z.z, pattern), k, shape)
    gap = project_obs(z.z + s.s, pattern) - f_obs
    return IterateState(factors, z, s, gap, iteration, bound, spectra)


def _descent_direction(state: IterateState, pattern) -> WeightedSignal:
    return WeightedSignal(state.z.shape, state.gap / pattern.rate - state.z.z)


def _stepper(state: IterateState, f_obs, pattern, shape, config):
    """``step(eta, into)``: the step from ``state`` at ``eta``, from products formed once,
    refreshed into block ``into``, else (the last step) into theirs.  Raises
    :class:`DegenerateGramError` on a zero, non-finite or singular Gram."""
    current = state.factors
    grad_l, grad_r, block = _factor_products(_descent_direction(state, pattern), state.spectra)
    if current.eig is None:
        raise DegenerateGramError("degenerate factor Gram matrix (zero or non-finite input)")
    inv_gram_l, inv_gram_r = _inverse_from_eigh(*current.eig)
    def step(eta: float, into: np.ndarray | None = None) -> IterateState:
        nonlocal grad_l, grad_r
        # (1 - eta) L - grad_l (eta inv_gram_r): eta scales the r x r inverse, not
        # the n x r gradient, and the bytes are those of (eta grad_l) inv_gram_r
        # whenever eta is a power of two, the default 0.5 included
        new_l = (1.0 - eta) * current.L
        new_l -= grad_l @ (eta * inv_gram_r)
        new_r = (1.0 - eta) * current.R
        new_r -= grad_r @ (eta * inv_gram_l)
        factors = project_incoherence(new_l, new_r, state.bound)
        if into is None:  # the products are read: free grad_l, a conjugated copy
            grad_l, grad_r, into = None, None, block
        return _refresh(factors, f_obs, pattern, shape, config, state.iteration + 1,
                        state.bound, into)

    return step


def hsnld_step(
    state: IterateState,
    f_obs,
    pattern: ObservationPattern,
    shape: HankelShape,
    config: RecoveryConfig,
) -> IterateState:
    """One preconditioned update of both factors (computed jointly, then projected).

    Raises :class:`DegenerateGramError` on a zero, non-finite or singular Gram.
    """
    return _stepper(state, f_obs, pattern, shape, config)(config.eta)


def _error_against(z_true, n: int):
    """Relative l2 error (that of the embeddings too) against a truth whose norm is taken once.

    A truth that is not a length-``n`` vector, or whose norm is zero, non-finite
    or overflowing, defines no error and is refused.
    """
    b = np.asarray(z_true, dtype=np.complex128)
    if b.shape != (n,):
        raise ValueError(f"ground truth: expected length {n}, got {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.linalg.norm(b)
    if not (np.isfinite(denom) and denom > 0):
        raise ValueError(f"ground truth norm must be finite and nonzero, got {denom}")

    def error(z_est) -> float:
        return float(np.linalg.norm(np.asarray(z_est, dtype=np.complex128) - b) / denom)

    return error


def _run(
    update: str,
    f_obs,
    pattern: ObservationPattern,
    shape: HankelShape,
    config: RecoveryConfig,
    ground_truth: np.ndarray | None = None,
) -> RecoveryReport:
    f_obs = np.asarray(f_obs, dtype=np.complex128)
    no_truth = ground_truth is None
    error_of = (lambda z: math.nan) if no_truth else _error_against(ground_truth, shape.n)
    start = time.perf_counter()
    init = spectral_init(f_obs, pattern, shape, config.rank, config.alpha, seed=config.seed)
    bound = init.incoherence_bound
    sigma1 = init.top_singular_value
    if update == "plaingd" and sigma1 <= 0:
        sigma1 = 1.0

    state = _refresh(init.factors, f_obs, pattern, shape, config, 0, bound)
    del init  # else it pins the init factors past the first step
    denom = np.linalg.norm(f_obs)
    records: list[IterationRecord] = []

    def residual_of(st: IterateState) -> float:
        if denom == 0:
            return 0.0
        return float(np.linalg.norm(st.gap) / denom)

    clipped_streak = 0
    termination = "max_iters"
    bold = update == "hsnld" and 0 < config.eta < 1
    bold_at, wait, redone_at = 0, 1, []  # the next bold attempt's iterate
    while True:
        # a diverging iterate's norms overflow; the non-finite stop below reports it
        with np.errstate(over="ignore"):
            res = residual_of(state)
            err = error_of(state.z.z)
        records.append(IterationRecord(res, err, time.perf_counter() - start))
        if res <= config.tol_residual:
            termination = "residual_tol"
            break
        if not np.isfinite(res):
            termination = "diverged"
            break
        if state.iteration == config.max_iters:
            break
        clipped_streak = clipped_streak + 1 if state.factors.clipped_rows else 0
        if clipped_streak == CLIP_STOP_ITERS:
            termination = "clipped"
            break
        if update == "hsnld":
            try:
                step = _stepper(state, f_obs, pattern, shape, config)
            except DegenerateGramError:
                termination = "degenerate_gram"
                break
            candidate = None
            if bold and state.iteration >= bold_at:  # reuse the iterate's block
                candidate = step(min(1.0, BOLD_STEP_SCALE * config.eta), state.spectra)
                with np.errstate(over="ignore"):
                    if not residual_of(candidate) <= BOLD_KEEP_RATIO * res:
                        # none after a rejection at iterate 0 (every doa seed, c08): retries
                        # there gave c08's timed iterates a second refresh and kept some
                        # failing phase-grid trials from their clipped stop
                        bold_at = state.iteration + wait if state.iteration else math.inf
                        candidate, wait = None, 2 * wait
                        redone_at.append(state.iteration)
            state = step(config.eta) if candidate is None else candidate
            del step  # and with it the product block
        else:
            state = _plain_gd_step(state, f_obs, pattern, shape, config, sigma1)
    return RecoveryReport(records, state.z, state.factors, termination, bound, tuple(redone_at))


def _plain_gd_step(state, f_obs, pattern, shape, config, sigma1) -> IterateState:
    """Same gradients without the Gram preconditioners; step scaled by 1/sigma1."""
    L, R = state.factors.L, state.factors.R
    step = config.eta / sigma1
    grad_l, grad_r, block = _factor_products(_descent_direction(state, pattern), state.spectra)
    gram_l, gram_r = state.factors.grams
    grad_l += L @ gram_r
    grad_r += R @ gram_l
    factors = project_incoherence(L - step * grad_l, R - step * grad_r, state.bound)
    del grad_l, grad_r  # read, as in hsnld_step: the product block takes the new spectra
    return _refresh(factors, f_obs, pattern, shape, config, state.iteration + 1, state.bound,
                    block)


def run_hsnld(
    f_obs,
    pattern: ObservationPattern,
    shape: HankelShape,
    config: RecoveryConfig,
    ground_truth=None,
) -> RecoveryReport:
    """Full solve: spectral initialization then preconditioned iterations.

    ``report.termination`` names the stop: ``"residual_tol"`` at the relative
    observed residual tolerance, ``"diverged"`` on a non-finite residual,
    ``"max_iters"`` at the iteration cap, ``"clipped"`` after
    ``CLIP_STOP_ITERS`` consecutive iterates (the initialization's counts as
    iterate 0) whose incoherence projection shrank a row, and
    ``"degenerate_gram"`` when the step from the last iterate cannot invert a
    factor Gram.  The radius is the initialization's estimate, and a
    recoverable truth sits well inside it, so an iterate pressed on it is off
    the truth.  The checks run in that order, so a converged iterate reports
    ``"residual_tol"``.  Each step right-multiplies a factor's gradient by the
    other factor's inverse Gram, scaled by min(1, ``BOLD_STEP_SCALE`` eta) and
    kept if it cuts the observed residual to ``BOLD_KEEP_RATIO`` of it or less,
    else redone at ``eta`` from the same products in its iteration's time and
    tried again 1, 2, 4, ... iterates later, a wait doubled by each rejection
    (``report.redone_at``: at most floor(log2 max_iters) + 1 iterates, none at
    eta 0 or 1).  A rejection at iterate 0 ends the attempts, so such a solve
    has the bytes of a fixed-``eta`` one.  The inverse comes from the eigendecomposition that the
    iterate's :class:`Factors` carries; a zero or non-finite Gram on either
    side, or one whose eigenvalues span a ratio below 1e-12, ends the solve
    with ``"degenerate_gram"`` and the records up to that iterate.  The
    projection computes exact row norms only for a factor that its eigenvalue
    screen cannot clear (see :func:`project_incoherence`).
    """
    return _run("hsnld", f_obs, pattern, shape, config, ground_truth)


def run_plain_gd(
    f_obs,
    pattern: ObservationPattern,
    shape: HankelShape,
    config: RecoveryConfig,
    ground_truth=None,
) -> RecoveryReport:
    """Unpreconditioned baseline with the same stopping rules; it inverts no Gram.

    The rules, ``"clipped"`` included, are those of :func:`run_hsnld`.
    """
    return _run("plaingd", f_obs, pattern, shape, config, ground_truth)
