"""Synthetic spectrally sparse signals, array snapshots, and outlier injection.

Signal files store the raw (unweighted) antidiagonal values so weights can be
recomputed on load: magic ``HNKZ``, u32 version=1, u64 n, u32 n1, then n
interleaved little-endian f64 (re, im) pairs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hankel import HankelShape, WeightedSignal, reweight, unweight
from .linalg import _check_fraction, _check_rank, _hankel_svd
from .sampling import ObservationPattern, SparseEstimate, keep_count, project_obs

__all__ = [
    "SpectralModel",
    "OutlierSpec",
    "ConditionEstimate",
    "spectral_signal",
    "doa_signal",
    "inject_outliers",
    "condition_number",
    "save_signal",
    "load_signal",
]

_MAGIC = b"HNKZ"
_VERSION = 1
_REJECTION_CAP = 10_000


@dataclass(frozen=True)
class SpectralModel:
    """The drawn tones of a :func:`spectral_signal`: its frequencies and amplitudes."""

    frequencies: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True)
class OutlierSpec:
    """Corruption recipe: fraction alpha in [0, 1] of observed entries, multiplier >= 0."""

    alpha: float
    magnitude_scale: float = 10.0
    seed: int = 0

    def __post_init__(self):
        _check_fraction("alpha", self.alpha)
        if not math.isfinite(self.magnitude_scale):
            raise ValueError(f"magnitude_scale must be finite, got {self.magnitude_scale}")
        if self.magnitude_scale < 0:
            raise ValueError(f"magnitude_scale must be >= 0, got {self.magnitude_scale}")


def _min_wraparound_gap(freqs: np.ndarray) -> float:
    if freqs.size < 2:
        return 1.0
    f = np.sort(freqs)
    gaps = np.diff(f)
    wrap = 1.0 - f[-1] + f[0]
    return float(min(gaps.min(), wrap))


def spectral_signal(
    n: int, r: int, kappa: float, seed: int
) -> tuple[WeightedSignal, SpectralModel]:
    """Exact rank-r signal with amplitudes evenly spaced over [1/kappa, 1].

    Frequencies are drawn uniformly on [0, 1) and redrawn until all pairwise
    wrap-around separations are at least 1/n, which keeps the embedded Hankel
    matrix at exact rank r; ValueError if 10,000 draws find no such set.
    Ill-conditioning comes from the amplitude spread.
    """
    shape = HankelShape.square(n)
    _check_rank(r, shape.n1, shape.n2)
    # an infinite kappa would give the weakest tone amplitude 0 and drop a rank
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    rng = np.random.default_rng(seed)
    for _ in range(_REJECTION_CAP):
        freqs = rng.uniform(0.0, 1.0, size=r)
        if _min_wraparound_gap(freqs) >= 1.0 / n:
            break
    else:
        raise ValueError(f"could not draw {r} frequencies 1/{n} apart for n={n}, r={r}")
    if r == 1:
        amps = np.array([1.0])
    else:
        amps = 1.0 / kappa + np.arange(r) * (1.0 - 1.0 / kappa) / (r - 1)
    t = np.arange(n)
    x = (amps[None, :] * np.exp(2j * np.pi * t[:, None] * freqs[None, :])).sum(axis=1)
    return reweight(x, shape), SpectralModel(freqs, amps)


def doa_signal(n: int, thetas_deg, gains=None) -> WeightedSignal:
    """Uniform-linear-array snapshot for far-field sources at the given angles.

    Sensor j (0-based) sees sum_i g_i * exp(-pi*1j*j*sin(theta_i)) under
    half-wavelength element spacing; angles are in degrees.
    """
    thetas = np.atleast_1d(np.asarray(thetas_deg, dtype=np.float64))
    if gains is None:
        gains = np.ones(thetas.size, dtype=np.complex128)
    gains = np.atleast_1d(np.asarray(gains, dtype=np.complex128))
    if thetas.size != gains.size or thetas.size < 1:
        raise ValueError("thetas and gains must have equal positive length")
    if not (np.isfinite(thetas).all() and np.isfinite(gains).all()):
        raise ValueError("thetas and gains must be finite")
    j = np.arange(n)
    phases = -1j * np.pi * np.outer(j, np.sin(np.deg2rad(thetas)))
    x = (np.exp(phases) * gains[None, :]).sum(axis=1)
    return reweight(x, HankelShape.square(n))


def inject_outliers(
    z_true: WeightedSignal, pattern: ObservationPattern, spec: OutlierSpec
) -> tuple[np.ndarray, SparseEstimate]:
    """Corrupt ceil(alpha*m) distinct observed entries (:func:`keep_count`) with uniform spikes.

    Real and imaginary parts are drawn uniformly over +-scale * mean(|Re|)
    and +-scale * mean(|Im|) of the clean signal.  Returns the observed vector
    f = P(z + s) and the planted sparse component.
    """
    n = z_true.shape.n
    if pattern.n != n:
        raise ValueError("pattern length does not match signal")
    rng = np.random.default_rng(spec.seed)
    m = pattern.m
    count = keep_count(1.0, spec.alpha, m, m)
    s = np.zeros(n, dtype=np.complex128)
    if count > 0:
        observed = np.flatnonzero(pattern.multiplicities())  # sorted distinct indices
        if count > observed.size:
            raise ValueError(
                f"cannot corrupt {count} entries; only {observed.size} observed"
            )
        hit = rng.choice(observed, size=count, replace=False)
        re_scale = spec.magnitude_scale * np.abs(z_true.z.real).mean()
        im_scale = spec.magnitude_scale * np.abs(z_true.z.imag).mean()
        s[hit] = rng.uniform(-re_scale, re_scale, size=count) + 1j * rng.uniform(
            -im_scale, im_scale, size=count
        )
    f_obs = project_obs(z_true.z + s, pattern)
    return f_obs, SparseEstimate(s)


@dataclass(frozen=True)
class ConditionEstimate:
    """sigma_1/sigma_r plus the rank-gap diagnostic sigma_{r+1}/sigma_1."""

    kappa: float
    rank_gap: float


def condition_number(sig: WeightedSignal, r: int, seed: int = 0) -> ConditionEstimate:
    """Condition number of the rank-r embedded Hankel matrix, off the one Hankel SVD's spectrum."""
    n1, n2 = sig.shape.n1, sig.shape.n2
    _check_rank(r, n1, n2)
    probe = r + 1 if r + 1 <= min(n1, n2) else r
    s = _hankel_svd(sig, probe, seed).S
    if s[r - 1] < 1e-14 * s[0]:
        raise ValueError(f"rank-deficient signal: sigma_{r} ~ {s[r - 1]:.3e}")
    gap = s[r] / s[0] if probe > r else float("nan")
    return ConditionEstimate(kappa=float(s[0] / s[r - 1]), rank_gap=float(gap))


def save_signal(path, sig: WeightedSignal) -> None:
    """Write the binary signal format (raw values; weights recomputed on load)."""
    x = unweight(sig)
    payload = np.empty(2 * x.size, dtype="<f8")
    payload[0::2] = x.real
    payload[1::2] = x.imag
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQI", _VERSION, x.size, sig.shape.n1))
        fh.write(payload.tobytes())


def load_signal(path) -> WeightedSignal:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if len(header := fh.read(16)) < 16:
            raise ValueError(f"{path}: truncated header")
        version, n, n1 = struct.unpack("<IQI", header)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        payload = np.frombuffer(fh.read(16 * n), dtype="<f8")
        trailing = fh.read(1)
    if payload.size != 2 * n:
        raise ValueError(f"{path}: truncated payload")
    if trailing:
        raise ValueError(f"{path}: trailing bytes after the payload")
    x = payload[0::2] + 1j * payload[1::2]
    return reweight(x, HankelShape(int(n1), int(n) - int(n1) + 1))

