import math
import tracemalloc

import numpy as np
import pytest


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rel_err(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.linalg.norm(b)
    return np.linalg.norm(a - b) / (denom if denom else 1.0)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees during a second call of ``fn``; the
    first call warms up caches (FFT plans, weights) that a solve reuses."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _exact_alignment_objective(Q, L, R, L_star, R_star, col_scale) -> float:
    try:
        P = np.linalg.inv(Q).conj().T
    except np.linalg.LinAlgError:
        return float("inf")
    t1 = np.linalg.norm((L @ Q - L_star) * col_scale[None, :]) ** 2
    t2 = np.linalg.norm((R @ P - R_star) * col_scale[None, :]) ** 2
    return float(t1 + t2)


def approx_dist(
    factors,
    L_star,
    R_star,
    sigma_star,
    rounds: int = 50,
    tol: float = 1e-10,
) -> float:
    """Upper bound on the alignment-optimal weighted factor distance.

    The distance minimizes, over invertible alignments Q, the sum of weighted
    Frobenius gaps of (L Q, R Q^{-H}) to the reference pair.  We relax the two
    occurrences of Q into a coupled pair (Q, P), alternate per-column least
    squares on each, and evaluate the exact single-Q objective at every
    candidate, returning the square root of the best value seen.  Because the
    exact objective is evaluated at a feasible Q, the result always upper
    bounds the true infimum.
    """
    L = np.asarray(factors.L, dtype=np.complex128)
    R = np.asarray(factors.R, dtype=np.complex128)
    L_star = np.asarray(L_star, dtype=np.complex128)
    R_star = np.asarray(R_star, dtype=np.complex128)
    sigma = np.asarray(sigma_star, dtype=np.float64)
    r = L.shape[1]
    col_scale = np.sqrt(sigma)

    def lstsq(A, B):
        return np.linalg.lstsq(A, B, rcond=None)[0]

    Q = lstsq(L, L_star)
    P = lstsq(R, R_star)
    candidates = [Q]
    try:
        candidates.append(np.linalg.inv(P).conj().T)
    except np.linalg.LinAlgError:
        pass
    scored = [
        (c, _exact_alignment_objective(c, L, R, L_star, R_star, col_scale))
        for c in candidates
    ]
    scored = [sc for sc in scored if np.isfinite(sc[1])]
    if not scored:
        raise RuntimeError("singular alternation system")
    Q, best = min(scored, key=lambda sc: sc[1])
    P = np.linalg.inv(Q).conj().T

    gram_l = L.conj().T @ L
    gram_r = R.conj().T @ R
    target_l = L.conj().T @ L_star
    target_r = R.conj().T @ R_star
    rho = float(sigma.mean()) * max(
        np.linalg.norm(gram_l, 2), np.linalg.norm(gram_r, 2), 1e-300
    )
    for _ in range(rounds):
        coupling = rho * (P @ P.conj().T)
        new_q = np.empty_like(Q)
        for j in range(r):
            A = sigma[j] * gram_l + coupling
            new_q[:, j] = np.linalg.solve(A, sigma[j] * target_l[:, j] + rho * P[:, j])
        coupling = rho * (new_q @ new_q.conj().T)
        new_p = np.empty_like(P)
        for j in range(r):
            A = sigma[j] * gram_r + coupling
            new_p[:, j] = np.linalg.solve(
                A, sigma[j] * target_r[:, j] + rho * new_q[:, j]
            )
        Q, P = new_q, new_p
        val = _exact_alignment_objective(Q, L, R, L_star, R_star, col_scale)
        try:
            val_p = _exact_alignment_objective(
                np.linalg.inv(P).conj().T, L, R, L_star, R_star, col_scale
            )
        except np.linalg.LinAlgError:
            val_p = float("inf")
        current = min(val, val_p)
        if current < best:
            improved = best - current
            best = current
            if improved <= tol * max(best, 1e-300):
                break
        else:
            break
    return math.sqrt(best)
