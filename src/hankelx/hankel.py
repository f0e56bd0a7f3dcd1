"""Fast structured operators for the reweighted Hankel embedding.

An n1 x n2 Hankel matrix is constant along antidiagonals, so it carries only
n = n1 + n2 - 1 distinct values x_0..x_{n-1}.  We track the reweighted vector
z_a = sqrt(c_a) * x_a, where c_a counts the entries on antidiagonal a; then
||z||_2 equals the Frobenius norm of the matrix and the embedding
z -> Hankel(x) is an isometry whose adjoint composed with it is the identity.

The dense constructors exist for testing only.  Everything the solvers touch
(products with the embedded matrix, its adjoint, and the map from a factor
pair back to a vector) runs through FFTs of one length, N = next_pow_two(n),
and never materializes the n1 x n2 matrix.  Every product reads antidiagonal
indices i + t <= n - 1 < N, so a circular transform of that length never
wraps around.  Convention: numpy's unnormalized forward DFT, 1/N on the
inverse and on the second (forward) transform of a product.  Blocks are
transformed as C-contiguous (k, N) rows along the last axis, one call each.
A public block product (the spectral initialization's) holds one (k, N)
block: its spectrum is multiplied and transformed again in place.  Blocks are
written into their spectrum rows directly (conjugated there when the product
needs it), and only the zero padding is filled.

Per solver iteration this costs 4 transform calls over 4r + 2 rows: 2r + 1 to
map the factors to a vector, and 2r + 1 for the step's two products, which
reuse the factor spectra of that map and transform only the descent direction.

Block budget of a solve.  The spectral initialization's randomized SVD drops
each (width, N) block once it has been read, so it holds about two at a time.
A step holds two (2r, N) blocks: the iterate's factor spectra, which it only
reads, and its product block, which the refresh then fills with the next
iterate's factor spectra (a bold step fills the iterate's own, so the products
survive for a redo).  A traced solve at n=4095, r=5 (width 15) peaks at
3.8-4.0 (2r, N) blocks, 4.07 with bold steps (5.07 with new blocks).  New
spectra per step keep the first peak; the reuse is kept for per-step time
(7.9% in one paired solve_16k measurement, within noise in another).

Indexing is 0-based everywhere in this module's public API.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HankelShape",
    "WeightedSignal",
    "antidiagonal_counts",
    "unweight",
    "reweight",
    "hankel_dense",
    "hankel_adjoint_dense",
    "lowrank_to_signal",
    "hankel_matvec",
    "hankel_matmat",
    "hankel_rmatmat",
]

# dense constructors refuse anything larger than this many matrix entries
DENSE_ENTRY_CAP = 4_000_000


def _check_integer(name: str, value, low: int, below: str | None = None):
    """The package's one integer rule: an integer >= low; bools, floats and strings are refused
    before any comparison.  ``below``, when given, is the message for an integer under ``low``."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or value < low:
        raise ValueError(below if integer and below else
                         f"{name} must be an integer >= {low}, got {value!r}")


def _fft_length(n: int) -> int:
    """The one transform length, next_pow_two(n): the smallest power of two >= n."""
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class HankelShape:
    """Row/column split of a length-n signal into an n1 x n2 Hankel matrix."""

    n1: int
    n2: int

    def __post_init__(self):
        _check_integer("n1", self.n1, 1)
        _check_integer("n2", self.n2, 1)

    @property
    def n(self) -> int:
        return self.n1 + self.n2 - 1

    @classmethod
    def square(cls, n: int) -> "HankelShape":
        """Square-ish default split: n1 = ceil((n+1)/2)."""
        _check_integer("n", n, 1, "n must be positive")
        n1 = (n + 2) // 2
        return cls(n1, n - n1 + 1)


@dataclass
class WeightedSignal:
    """A length-n complex vector in the reweighted (sqrt-count scaled) domain."""

    shape: HankelShape
    z: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.complex128)
        if self.z.ndim != 1 or self.z.size != self.shape.n:
            raise ValueError(
                f"signal length {self.z.size} does not match shape n={self.shape.n}"
            )


def antidiagonal_counts(shape: HankelShape) -> np.ndarray:
    """Number of matrix entries on each antidiagonal a = 0..n-1."""
    n1, n2, n = shape.n1, shape.n2, shape.n
    a = np.arange(1, n + 1)
    return np.minimum.reduce([a, np.full(n, n1), np.full(n, n2), n + 1 - a])


@lru_cache(maxsize=32)
def _sqrt_counts(shape: HankelShape) -> np.ndarray:
    weights = np.sqrt(antidiagonal_counts(shape).astype(np.float64))
    weights.setflags(write=False)
    return weights


def unweight(sig: WeightedSignal) -> np.ndarray:
    """Raw antidiagonal values x_a = z_a / sqrt(c_a)."""
    return sig.z / _sqrt_counts(sig.shape)


def reweight(x, shape: HankelShape) -> WeightedSignal:
    """Inverse of :func:`unweight`: z_a = sqrt(c_a) * x_a."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size != shape.n:
        raise ValueError(f"expected length {shape.n}, got {x.size}")
    return WeightedSignal(shape, _sqrt_counts(shape) * x)


def _check_dense_cap(shape: HankelShape):
    if shape.n1 * shape.n2 > DENSE_ENTRY_CAP:
        raise ValueError(
            f"dense Hankel of {shape.n1}x{shape.n2} exceeds the test-only size cap"
        )


def hankel_dense(sig: WeightedSignal) -> np.ndarray:
    """Materialize the embedded Hankel matrix.  Testing only (size-capped)."""
    _check_dense_cap(sig.shape)
    x = unweight(sig)
    idx = np.add.outer(np.arange(sig.shape.n1), np.arange(sig.shape.n2))
    return x[idx]


def hankel_adjoint_dense(M, shape: HankelShape) -> WeightedSignal:
    """Adjoint of the embedding: rescaled antidiagonal sums.  Testing only."""
    _check_dense_cap(shape)
    M = np.asarray(M, dtype=np.complex128)
    if M.shape != (shape.n1, shape.n2):
        raise ValueError(f"expected {shape.n1}x{shape.n2} matrix, got {M.shape}")
    idx = np.add.outer(np.arange(shape.n1), np.arange(shape.n2))
    z = np.zeros(shape.n, dtype=np.complex128)
    np.add.at(z, idx.ravel(), M.ravel())
    return WeightedSignal(shape, z / _sqrt_counts(shape))


def _lowrank_spectra(L, R, shape: HankelShape, out: np.ndarray | None = None):
    """:func:`lowrank_to_signal` and the (2r, N) row spectrum of L^T over R^H,
    written into ``out`` (see :func:`_row_spectrum`) when one is given.  It checks
    nothing: :func:`lowrank_to_signal` checks its factors, and the solver's are its own."""
    r = L.shape[1]
    spec = _row_spectrum(_fft_length(shape.n), L, R, out)
    # sum over j of spec_j * spec_{r+j}, row by row: the bytes of the (r, N)
    # product summed over axis 0, in two length-N vectors instead of that block
    acc = spec[0] * spec[r]
    for j in range(1, r):
        acc += spec[j] * spec[r + j]
    z = np.fft.ifft(acc, out=acc)[: shape.n]
    return WeightedSignal(shape, z / _sqrt_counts(shape)), spec


def lowrank_to_signal(L, R, shape: HankelShape) -> WeightedSignal:
    """Apply the embedding adjoint to the outer product L @ R^H.

    Each rank-one term contributes one linear convolution of a column of L
    with the conjugated column of R.  Its n1 + n2 - 1 = n outputs fit the
    transform length, so one FFT over the 2r factor rows and one inverse, of
    length next_pow_two(n), replace forming the n1 x n2 product.  The factors
    are checked here, where they enter, and not by :func:`_lowrank_spectra`.
    """
    L = np.asarray(L, dtype=np.complex128)
    R = np.asarray(R, dtype=np.complex128)
    if L.ndim != 2 or R.ndim != 2 or L.shape[1] != R.shape[1] or L.shape[1] == 0:
        raise ValueError("factors must be 2-D with matching, nonzero column counts")
    if L.shape[0] != shape.n1 or R.shape[0] != shape.n2:
        raise ValueError(
            f"factor rows ({L.shape[0]}, {R.shape[0]}) do not match shape "
            f"({shape.n1}, {shape.n2})"
        )
    return _lowrank_spectra(L, R, shape)[0]


def hankel_matvec(sig: WeightedSignal, v) -> np.ndarray:
    """Product of the embedded Hankel matrix with a length-n2 vector."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (sig.shape.n2,):
        raise ValueError(f"expected length {sig.shape.n2}, got {v.shape}")
    return hankel_matmat(sig, v[:, None])[:, 0]


def _row_spectrum(
    size: int, A: np.ndarray, B: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """FFT of A's columns, then of conj(B)'s, zero-padded to ``size``, as the
    rows of one block.  Both are written straight into the rows, B conjugated
    on the way, and only the padding is zeroed: no conjugated copy of B and no
    fill of the whole block.  The block is ``out`` when given (a C-contiguous
    complex block of that shape, whose every entry is overwritten), else a
    new one.  B is conjugated one column per call.  A 2-D ``np.conjugate``
    allocates ufunc buffers past ``_lowrank_spectra``'s block budget at n=4095,
    and a copy of B.T negated through a float64 view takes a second pass over
    the rows: in paired runs (2-vCPU VM, one BLAS thread) an n=16383 step read
    slower with it in 19 of 30 pairs, and a 1000-iteration n=125 solve no
    faster (12 and 16 of 30)."""
    k = A.shape[1]
    rows = out
    if rows is None:
        rows = np.empty((k + (0 if B is None else B.shape[1]), size), dtype=np.complex128)
    rows[:k, : A.shape[0]] = A.T
    rows[:k, A.shape[0] :] = 0
    if B is not None:
        for j in range(B.shape[1]):
            np.conjugate(B[:, j], out=rows[k + j, : B.shape[0]])
        rows[k:, B.shape[0] :] = 0
    return np.fft.fft(rows, out=rows)


def _correlate(spec: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row j, entry m: sum_t conj(y_{m+t}) W_{t,j}, from spec = fft of W's columns.

    The one product kernel: spec is a (k, N) :func:`_row_spectrum` block, and
    the 1/N-scaled forward FFT of spec * conj(fft(y)) read at m is its inverse
    read at -m.  Callers keep m + t <= len(y) - 1 < N, so nothing wraps.  The
    product goes to ``out``: a fresh block by default, which the caller owns
    (the solver's step hands it on as the next iterate's spectra), or ``spec``
    itself when the caller owns that (a public block product, whose result is a
    view that keeps it alive).  The transform runs in place (NumPy >= 2.0); a
    fresh block cost 2-3x as much.
    """
    prod = np.multiply(spec, np.fft.fft(y, spec.shape[1]).conj(), out=out)
    return np.fft.fft(prod, norm="forward", out=prod)


def _factor_products(sig: WeightedSignal, spec: np.ndarray):
    """``hankel_matmat(sig, R)`` and ``hankel_rmatmat(sig, L)`` from the spectrum
    block of :func:`_lowrank_spectra`: 2 FFT calls over 2r + 1 rows for both.

    ``spec`` is only read.  The products go to a fresh (2r, N) block, which is
    returned third: the second product is a view of it, and the caller owns it
    and may overwrite it once that product has been read."""
    r = spec.shape[0] // 2
    out = _correlate(spec, unweight(sig))
    return out[r:, : sig.shape.n1].conj().T, out[:r, : sig.shape.n2].T, out


def _block_product(y: np.ndarray, W, rows: int) -> np.ndarray:
    """Entries m < ``rows`` of :func:`_correlate` for a block W of len(y) - rows + 1
    rows, as columns: 2k + 1 FFTs of length next_pow_two(len(y)) in 3 calls, all
    in the one (k, N) block that holds W's spectrum."""
    W = np.asarray(W, dtype=np.complex128)
    if W.ndim != 2 or W.shape[0] != y.size - rows + 1:
        raise ValueError(f"expected {y.size - rows + 1} rows, got {W.shape}")
    spec = _row_spectrum(_fft_length(y.size), W)
    return _correlate(spec, y, out=spec)[:, :rows].T


def hankel_matmat(sig: WeightedSignal, V) -> np.ndarray:
    """Hankel times an n2 x k block: column j is sum_t x_{i+t} V_{t,j}, the
    correlation of :func:`_correlate` run on the conjugated raw values."""
    return _block_product(unweight(sig).conj(), V, sig.shape.n1)


def hankel_rmatmat(sig: WeightedSignal, U) -> np.ndarray:
    """Conjugate-transposed Hankel times an n1 x k block: row t is
    sum_i conj(x_{i+t}) U_{i,j}, :func:`_correlate` run on the raw values."""
    return _block_product(unweight(sig), U, sig.shape.n2)
