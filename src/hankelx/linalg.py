"""Dense complex linear algebra at factor scale (r x r and n x r).

Thin, contract-checked fronts over LAPACK via numpy for the small dense
pieces, plus a randomized truncated SVD driven entirely by caller-supplied
block matvec callables so the large dimension is only ever touched through
fast operator products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DegenerateGramError",
    "TruncatedSVD",
    "hermitian_eig",
    "inverse",
    "truncated_svd",
]


class DegenerateGramError(RuntimeError):
    """Raised when a factor Gram matrix is numerically singular (rank collapse)."""


def _square(H, name="matrix") -> np.ndarray:
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"{name} must be square, got {H.shape}")
    return H


def hermitian_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix).  Inputs must
    be Hermitian to within 1e-10 relative Frobenius error; the residual skew
    part is symmetrized away before factorization.
    """
    H = _square(H, "H")
    with np.errstate(over="ignore"):  # a finite input's norm may overflow
        scale = np.linalg.norm(H)
        skew = np.linalg.norm(H - H.conj().T)
    if scale > 0 and skew > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian (skew {skew:.3e} vs {scale:.3e})")
    Hs = 0.5 * (H + H.conj().T)
    try:
        w, Q = np.linalg.eigh(Hs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Hermitian eigensolver did not converge: {exc}") from exc
    return w, Q


def inverse(H) -> np.ndarray:
    """Inverse of a small Hermitian matrix (a factor Gram), refusing rank collapse.

    Non-Hermitian input raises ``ValueError`` through :func:`hermitian_eig`; a
    zero, non-finite or numerically singular one raises :class:`DegenerateGramError`.
    """
    H = _square(H, "H")
    if not (np.isfinite(H).all() and np.any(H)):
        raise DegenerateGramError("degenerate factor Gram matrix (zero or non-finite input)")
    w, Q = hermitian_eig(H)
    wabs = np.abs(w)
    if wabs.min() < 1e-12 * wabs.max():
        raise DegenerateGramError("degenerate factor Gram matrix")
    return (Q * (1.0 / w)) @ Q.conj().T


@dataclass
class TruncatedSVD:
    """Rank-r factorization U @ diag(S) @ V^H with orthonormal U, V."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _complete_orthonormal(V: np.ndarray, cols: list[int], rng: np.random.Generator):
    """Fill the listed columns with unit vectors orthogonal to the others."""
    n = V.shape[0]
    for j in cols:
        for _ in range(50):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v -= V @ (V.conj().T @ v)
            v -= V @ (V.conj().T @ v)
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                V[:, j] = v / norm
                break
        else:
            raise RuntimeError("failed to complete an orthonormal basis")


def truncated_svd(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    n1: int,
    n2: int,
    rank: int,
    oversample: int | None = None,
    power_iters: int = 1,
    seed: int = 0,
) -> TruncatedSVD:
    """Randomized rank-r SVD of an implicit n1 x n2 operator.

    ``matvec`` and ``rmatvec`` must accept 2-D blocks: (n2, k) -> (n1, k) and
    (n1, k) -> (n2, k).  Subspace iteration starts from a complex Gaussian
    block of width rank + oversample (by default max(10, 2*rank), clamped so
    the width fits in min(n1, n2)), re-orthonormalizes with a thin QR after
    every half-step, and finishes with an eigendecomposition of the small
    projected Gram matrix.  Fully determined by ``seed``.

    One power pass by default: when the spectrum has a gap at ``rank``, as a
    rank-r signal plus sampling noise does, one pass finds the leading subspace
    (Halko, Martinsson and Tropp, SIAM Review 2011); more passes cost two
    block products each and save the solver no iterations.
    """
    if not 1 <= rank <= min(n1, n2):
        raise ValueError(f"rank {rank} not in [1, {min(n1, n2)}]")
    if oversample is None:
        oversample = min(max(10, 2 * rank), min(n1, n2) - rank)
    width = rank + oversample
    if width > min(n1, n2):
        raise ValueError(
            f"rank + oversample = {width} exceeds min(n1, n2) = {min(n1, n2)}"
        )
    rng = np.random.default_rng(seed)

    block = rng.standard_normal((n2, width)) + 1j * rng.standard_normal((n2, width))
    Q, _ = np.linalg.qr(matvec(block))
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(rmatvec(Q))
        Q, _ = np.linalg.qr(matvec(Z))

    W = rmatvec(Q)  # (n2, width); the projected matrix is W^H
    w, E = hermitian_eig(W.conj().T @ W)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    E = E[:, order]

    S = np.sqrt(w[:rank])
    U = Q @ E[:, :rank]
    V = np.zeros((n2, rank), dtype=np.complex128)
    tiny = max(n1, n2) * np.finfo(np.float64).eps * (S[0] if S.size else 0.0)
    missing = []
    for j in range(rank):
        if S[j] > tiny and S[j] > 0:
            V[:, j] = (W @ E[:, j]) / S[j]
        else:
            S[j] = 0.0
            missing.append(j)
    if missing:
        _complete_orthonormal(V, missing, rng)
    return TruncatedSVD(U=U, S=S, V=V)
