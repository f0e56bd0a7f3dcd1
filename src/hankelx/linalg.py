"""Dense complex linear algebra at factor scale (r x r and n x r).

The eigendecomposition of a stack of factor Gram matrices and the inverses
taken from it, which precondition every HSNLD step, plus a randomized
truncated SVD driven by block matvec callables: the one Hankel SVD passes it
the FFT products, so the large dimension is only touched through those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hankel import WeightedSignal, _check_integer, hankel_matmat, hankel_rmatmat

__all__ = [
    "DegenerateGramError",
    "TruncatedSVD",
    "truncated_svd",
]


class DegenerateGramError(RuntimeError):
    """Raised when a factor Gram matrix is numerically singular (rank collapse)."""


def _check_rank(rank, n1: int, n2: int):
    """Refuse a rank that is not an integer in [1, min(n1, n2)]."""
    _check_integer("rank", rank, 1)
    if rank > min(n1, n2):
        raise ValueError(f"rank {rank} not in [1, {min(n1, n2)}]")


def _check_fraction(name: str, value):
    """Refuse a fraction outside [0, 1], NaN included; roundoff just above 1 passes."""
    if not 0.0 <= value < 1.0 + 1e-12:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _hermitian_eigh(G: np.ndarray):
    """``eigh`` of G's Hermitian part; a stack of matrices gives each one's own bytes."""
    # eigh reads one triangle; average both, since the product's roundoff may differ
    return np.linalg.eigh(0.5 * (G + G.conj().swapaxes(-1, -2)))


def _inverse_from_eigh(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """G^{-1} for G, or each G of a stack (each with its own bytes), from its eigh ``(w, Q)``.

    Refuses the whole stack if any G has an eigenvalue ratio below 1e-12."""
    wabs = np.abs(w)
    if (wabs < 1e-12 * wabs.max(axis=-1, keepdims=True)).any():
        raise DegenerateGramError("degenerate factor Gram matrix")
    return (Q * (1.0 / w)[..., None, :]) @ np.swapaxes(Q.conj(), -1, -2)


@dataclass
class TruncatedSVD:
    """Rank-r factorization U @ diag(S) @ V^H.

    U is orthonormal.  V's columns are orthonormal where S is nonzero and
    zero where S is zero.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def truncated_svd(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    n1: int,
    n2: int,
    rank: int,
    power_iters: int = 1,
    seed: int = 0,
) -> TruncatedSVD:
    """Randomized rank-r SVD of an implicit n1 x n2 operator.

    ``matvec`` and ``rmatvec`` must accept 2-D blocks: (n2, k) -> (n1, k) and
    (n1, k) -> (n2, k).  Subspace iteration starts from a complex Gaussian
    block of width rank + max(10, 2*rank), clamped to min(n1, n2) (so no
    oversampling at rank = min(n1, n2)), re-orthonormalizes with a thin QR
    after every half-step, and finishes with an eigendecomposition of the
    small projected Gram matrix.  Singular values at roundoff level relative
    to the largest are set to 0, and their V columns left zero.  Fully
    determined by ``seed``.

    One power pass by default: when the spectrum has a gap at ``rank``, as a
    rank-r signal plus sampling noise does, one pass finds the leading subspace
    (Halko, Martinsson and Tropp, SIAM Review 2011); more passes cost two
    block products each and save the solver no iterations.

    Memory: a product from ``matvec``/``rmatvec`` may be a view that pins a
    larger block (the FFT products' (width, N) spectrum block).  Each product
    is dropped as soon as its QR has read it, and each basis, the Gaussian
    block first, as soon as its product exists, so at most one such block and
    one basis are alive, besides the QR's own copy.  The last product, W, is
    kept until U and V are formed.
    """
    _check_rank(rank, n1, n2)
    width = min(rank + max(10, 2 * rank), min(n1, n2))
    rng = np.random.default_rng(seed)

    # the same bytes as a + 1j*b, with one complex allocation instead of two
    Q = np.empty((n2, width), dtype=np.complex128)
    Q.real = rng.standard_normal((n2, width))
    Q.imag = rng.standard_normal((n2, width))
    # Q is the current basis, at first the Gaussian block; see "Memory" above
    for product in (matvec,) + (rmatvec, matvec) * power_iters:
        Y = product(Q)
        del Q
        Q, _ = np.linalg.qr(Y)
        del Y

    W = rmatvec(Q)  # (n2, width); the projected matrix is W^H
    w, E = _hermitian_eigh(W.conj().T @ W)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    E = E[:, order]

    S = np.sqrt(w[:rank])
    U = Q @ E[:, :rank]
    V = np.zeros((n2, rank), dtype=np.complex128)
    tiny = max(n1, n2) * np.finfo(np.float64).eps * S[0]
    for j in range(rank):
        if S[j] > tiny:
            V[:, j] = (W @ E[:, j]) / S[j]
        else:
            S[j] = 0.0
    return TruncatedSVD(U=U, S=S, V=V)


def _hankel_svd(sig: WeightedSignal, rank: int, seed: int) -> TruncatedSVD:
    """:func:`truncated_svd` of the Hankel matrix ``sig`` embeds, through its FFT products."""
    return truncated_svd(
        lambda V: hankel_matmat(sig, V), lambda U: hankel_rmatmat(sig, U),
        sig.shape.n1, sig.shape.n2, rank, seed=seed,
    )
