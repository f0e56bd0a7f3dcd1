"""Observation patterns, the sampling projector, and hard thresholding."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hankel import _check_integer

__all__ = [
    "WITH_REPLACEMENT",
    "WITHOUT_REPLACEMENT",
    "ObservationPattern",
    "SparseEstimate",
    "sample_pattern",
    "project_obs",
    "top_k_threshold",
    "keep_count",
]

WITH_REPLACEMENT = "with_replacement"
WITHOUT_REPLACEMENT = "without_replacement"


@dataclass(frozen=True)
class ObservationPattern:
    """Sampled index multiset over [0, n) with its sampling mode."""

    n: int
    indices: np.ndarray
    mode: str

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if self.mode not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if idx.ndim != 1:
            raise ValueError("indices must be a 1-D array")
        if idx.size and idx.dtype.kind not in "iu":  # a cast would floor fractions
            raise ValueError(f"indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        object.__setattr__(self, "indices", idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("indices out of range")
        counts = np.bincount(idx, minlength=self.n)
        if self.mode == WITHOUT_REPLACEMENT and counts.max(initial=0) > 1:
            raise ValueError("without-replacement pattern has repeated indices")
        mult = counts.astype(np.float64)
        mult.setflags(write=False)
        object.__setattr__(self, "_mult", mult)

    @property
    def m(self) -> int:
        return int(self.indices.size)

    @property
    def rate(self) -> float:
        return self.indices.size / self.n

    def multiplicities(self) -> np.ndarray:
        """Per-coordinate sample counts (0/1 in without-replacement mode), read-only."""
        return self._mult


@dataclass
class SparseEstimate:
    """A sparse vector ``s``; its support, ``np.flatnonzero(s)``, is never stored."""

    s: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.complex128)


def sample_pattern(n: int, m: int, mode: str, seed: int) -> ObservationPattern:
    """Draw m uniform indices from [0, n) under the given mode, seeded."""
    _check_integer("n", n, 1)
    _check_integer("m", m, 1, f"m must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    if mode == WITH_REPLACEMENT:
        idx = rng.integers(0, n, size=m)
    elif mode == WITHOUT_REPLACEMENT:
        if m > n:
            raise ValueError(f"cannot draw {m} distinct indices from {n}")
        idx = rng.choice(n, size=m, replace=False)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return ObservationPattern(n=n, indices=np.sort(idx), mode=mode)


def project_obs(v, pattern: ObservationPattern) -> np.ndarray:
    """Sampling projector: zero off the pattern.

    Under with-replacement sampling each coordinate is scaled by its sample
    multiplicity; under without-replacement this is the plain 0/1 mask.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (pattern.n,):
        raise ValueError(f"expected length {pattern.n}, got {v.shape}")
    return pattern.multiplicities() * v


def top_k_threshold(v, k: int) -> SparseEstimate:
    """Keep the k largest-in-magnitude entries verbatim, zero the rest.

    Ties break toward the lower index, so the result is a deterministic
    function of (v, k).  Selection is a linear-time partition: everything
    strictly above the k-th magnitude is kept, and the remaining slots fill
    from the boundary ties in index order.
    """
    v = np.asarray(v, dtype=np.complex128)
    _check_integer("k", k, 0)
    n = v.size
    out = np.zeros(n, dtype=np.complex128)
    if k == 0:
        return SparseEstimate(out)
    if k >= n:
        out[:] = v
        return SparseEstimate(out)
    mag = np.abs(v)
    boundary = np.partition(mag, n - k)[n - k]
    chosen = mag > boundary
    need = k - int(np.count_nonzero(chosen))
    if need > 0:
        chosen[(mag == boundary).nonzero()[0][:need]] = True
    out[chosen] = v[chosen]
    return SparseEstimate(out)


def _ceil_count(x: float) -> int:
    """ceil(x), the one rounding rule for counts; its slack keeps 0.07 * 100 at 7, not 8."""
    return math.ceil(x - 1e-9)


def keep_count(gamma: float, alpha: float, m: int, n: int) -> int:
    """Outlier budget ceil(gamma * alpha * m), clamped to [0, n]; the package's one budget rule.

    Iteration k keeps gamma_k alpha m entries; the spectral initialization (gamma 1)
    removes alpha m and the generator (gamma 1, clamped at m) plants alpha m.  It rounds by
    :func:`_ceil_count`, as sample counts do; those skip the clamp, since p may exceed 1.
    """
    return int(min(max(_ceil_count(gamma * alpha * m), 0), n))

