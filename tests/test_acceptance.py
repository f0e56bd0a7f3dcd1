"""End-to-end acceptance gate.

One test per shipped criterion, each printing a single pass/fail line
(visible with ``pytest -s`` or in failure output).  Every tolerance and
runtime budget is pinned here; nothing is calibrated at run time.
"""

import json
import math
import time

import numpy as np
import pytest

from hankelx.cli import derive_seed, main as cli_main
from hankelx.hankel import (
    HankelShape,
    WeightedSignal,
    antidiagonal_counts,
    hankel_adjoint_dense,
    hankel_dense,
    hankel_matmat,
    hankel_matvec,
    lowrank_to_signal,
)
from hankelx.recovery import (
    RecoveryConfig,
    hsnld_step,
    run_hsnld,
    run_plain_gd,
    spectral_init,
    _refresh,
)
from hankelx.sampling import (
    WITHOUT_REPLACEMENT,
    keep_count,
    project_obs,
    sample_pattern,
    top_k_threshold,
)
from hankelx.signals import OutlierSpec, condition_number, doa_signal, inject_outliers, spectral_signal

from conftest import rand_complex

MASTER_SEED = 99173


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def _budget(num, name, elapsed, limit):
    assert elapsed < limit, f"criterion {num} ({name}) took {elapsed:.1f}s >= {limit}s"


def test_c01_operator_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER_SEED, "c1"))
    sizes = [7, 64, 101, 255, 1001]
    ok = True
    detail = ""
    for trial in range(200):
        n = sizes[trial % len(sizes)]
        n1 = int(rng.integers(1, n + 1))
        shape = HankelShape(n1, n - n1 + 1)
        sig = WeightedSignal(shape, rand_complex(rng, n))
        dense = hankel_dense(sig)
        back = hankel_adjoint_dense(dense, shape)
        if np.max(np.abs(back.z - sig.z)) > 1e-12 * np.max(np.abs(sig.z)):
            ok, detail = False, f"adjoint-of-embedding identity at trial {trial}"
            break
        fro = np.linalg.norm(dense)
        l2 = np.linalg.norm(sig.z)
        if abs(fro - l2) > 1e-12 * l2:
            ok, detail = False, f"isometry at trial {trial}"
            break
        M = rand_complex(rng, shape.n1, shape.n2)
        lhs = np.vdot(M, dense)
        rhs = np.vdot(hankel_adjoint_dense(M, shape).z, sig.z)
        if abs(lhs - rhs) > 1e-11 * max(abs(lhs), 1.0):
            ok, detail = False, f"adjoint pairing at trial {trial}"
            break
    elapsed = time.perf_counter() - start
    _report(1, "operator identities", ok, elapsed, detail)
    _budget(1, "operator identities", elapsed, 10.0)


def test_c02_fast_dense_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER_SEED, "c2"))
    ok = True
    detail = ""
    for trial in range(100):
        n = int(rng.integers(7, 256))
        shape = HankelShape.square(n)
        r = int(rng.integers(1, min(9, shape.n2 + 1)))
        sig = WeightedSignal(shape, rand_complex(rng, n))
        dense = hankel_dense(sig)
        L = rand_complex(rng, shape.n1, r)
        R = rand_complex(rng, shape.n2, r)
        v = rand_complex(rng, shape.n2)

        got = lowrank_to_signal(L, R, shape).z
        ref = hankel_adjoint_dense(L @ R.conj().T, shape).z
        if np.linalg.norm(got - ref) > 1e-11 * np.linalg.norm(ref):
            ok, detail = False, f"factor-pair adjoint at trial {trial}"
            break
        if np.linalg.norm(hankel_matvec(sig, v) - dense @ v) > 1e-11 * np.linalg.norm(dense @ v):
            ok, detail = False, f"matvec at trial {trial}"
            break
        got_mm = hankel_matmat(sig, R)
        if np.linalg.norm(got_mm - dense @ R) > 1e-11 * np.linalg.norm(dense @ R):
            ok, detail = False, f"matmat at trial {trial}"
            break
    elapsed = time.perf_counter() - start
    _report(2, "fast/dense oracle equivalence", ok, elapsed, detail)
    _budget(2, "fast/dense oracle equivalence", elapsed, 30.0)


def test_c03_condition_number_reproduction():
    start = time.perf_counter()
    sig = doa_signal(2**12, [87.0, 87.1, 87.3])
    est = condition_number(sig, 3, seed=0)
    ok = 1029.0 <= est.kappa <= 1137.0
    elapsed = time.perf_counter() - start
    _budget(3, "condition-number reproduction", elapsed, 5.0)
    _report(
        3,
        "condition-number reproduction",
        ok,
        elapsed,
        f"sigma1/sigma3 = {est.kappa:.1f}, required [1029, 1137]",
    )


def test_c04_doa_recovery(tmp_path):
    # the default scenario is the documented default invocation: seed 0,
    # 1.5% of 4096 sensors observed, 10% of observations corrupted
    start = time.perf_counter()
    code = cli_main(["doa", "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    ok = code == 0 and summary["success"] and 0 <= summary["iters"] <= 216
    elapsed = time.perf_counter() - start
    _report(
        4,
        "array-snapshot recovery",
        ok,
        elapsed,
        f"error tolerance reached at iteration {summary['iters']}",
    )
    _budget(4, "array-snapshot recovery", elapsed, 60.0)


def test_c05_linear_contraction():
    start = time.perf_counter()
    total = 0
    good = 0
    for trial in range(20):
        seed = derive_seed(MASTER_SEED, "c5", trial)
        sig, _ = spectral_signal(255, 5, 100.0, seed=derive_seed(seed, "signal"))
        pattern = sample_pattern(255, 255, WITHOUT_REPLACEMENT, seed=derive_seed(seed, "pattern"))
        f_obs, _ = inject_outliers(sig, pattern, OutlierSpec(0.05, 10.0, derive_seed(seed, "outliers")))
        config = RecoveryConfig(rank=5, alpha=0.05, eta=0.5, seed=derive_seed(seed, "solver"))
        X = hankel_dense(sig)
        scale = np.linalg.norm(X)
        init = spectral_init(f_obs, pattern, sig.shape, 5, 0.05, seed=config.seed)
        state = _refresh(init.factors, f_obs, pattern, sig.shape, config, 0,
                         init.incoherence_bound)
        prev = np.linalg.norm(state.factors.L @ state.factors.R.conj().T - X) / scale
        for _ in range(60):
            state = hsnld_step(state, f_obs, pattern, sig.shape, config)
            cur = np.linalg.norm(state.factors.L @ state.factors.R.conj().T - X) / scale
            if 1e-11 < prev < 1e-2:
                total += 1
                if cur <= 0.7 * prev:
                    good += 1
            prev = cur
    frac = good / total
    ok = frac >= 0.9
    elapsed = time.perf_counter() - start
    _report(
        5,
        "linear contraction",
        ok,
        elapsed,
        f"{good}/{total} post-gate steps contracted by 0.7 ({100 * frac:.1f}%)",
    )
    _budget(5, "linear contraction", elapsed, 60.0)


def test_c06_condition_number_independence():
    start = time.perf_counter()
    n, r, p, alpha = 2**14 - 1, 5, 0.8, 0.05
    m = math.ceil(p * n)

    def instance(kappa):
        seed = derive_seed(MASTER_SEED, "c6", kappa)
        sig, _ = spectral_signal(n, r, kappa, seed=derive_seed(seed, "signal"))
        pattern = sample_pattern(n, m, WITHOUT_REPLACEMENT, seed=derive_seed(seed, "pattern"))
        f_obs, _ = inject_outliers(sig, pattern, OutlierSpec(alpha, 10.0, derive_seed(seed, "outliers")))
        return sig, pattern, f_obs, derive_seed(seed, "solver")

    iters = {}
    converged = True
    for kappa in (1.0, 20.0, 2000.0):
        sig, pattern, f_obs, solver_seed = instance(kappa)
        config = RecoveryConfig(rank=r, alpha=alpha, seed=solver_seed)
        report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
        converged &= report.termination == "residual_tol"
        iters[kappa] = report.iterations

    sig, pattern, f_obs, solver_seed = instance(20.0)
    budget = 5 * iters[20.0] + 1
    config = RecoveryConfig(rank=r, alpha=alpha, max_iters=budget, seed=solver_seed)
    baseline = run_plain_gd(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    baseline_slow = baseline.termination != "residual_tol"

    ok = converged and iters[2000.0] <= 2 * iters[1.0] and baseline_slow
    elapsed = time.perf_counter() - start
    _report(
        6,
        "condition-number independence",
        ok,
        elapsed,
        f"iters kappa=1: {iters[1.0]}, kappa=2000: {iters[2000.0]}; "
        f"baseline not at tolerance after {budget} iterations: {baseline_slow}",
    )
    _budget(6, "condition-number independence", elapsed, 600.0)


@pytest.mark.slow
def test_c07_phase_transition_monotonicity(tmp_path):
    start = time.perf_counter()
    code = cli_main([
        "phase", "--out", str(tmp_path), "--seed", str(MASTER_SEED),
        "n=125", "r=10", "kappa=10",
        "m_values=30,49,68,87,106,125", "alpha_values=0,0.1,0.2,0.3",
        "trials=20",
    ])
    assert code == 0
    rows = (tmp_path / "phase.csv").read_text().splitlines()[1:]
    grid = {}
    for row in rows:
        m, alpha, successes, trials = row.split(",")
        grid[(float(m), float(alpha))] = int(successes)
    m_values = sorted({k[0] for k in grid})
    a_values = sorted({k[1] for k in grid})

    ok = grid[(125.0, 0.0)] == 20
    detail = f"anchor (m=125, alpha=0) = {grid[(125.0, 0.0)]}/20"
    for a in a_values:  # success non-decreasing in m per alpha row
        series = [grid[(m, a)] for m in m_values]
        drops = sum(1 for x, y in zip(series, series[1:]) if y < x)
        if drops > 1:
            ok, detail = False, f"non-monotone in m at alpha={a}: {series}"
    for m in m_values:  # success non-increasing in alpha per m column
        series = [grid[(m, a)] for a in a_values]
        rises = sum(1 for x, y in zip(series, series[1:]) if y > x)
        if rises > 1:
            ok, detail = False, f"non-monotone in alpha at m={m}: {series}"
    elapsed = time.perf_counter() - start
    _report(7, "phase-transition monotonicity", ok, elapsed, detail)
    _budget(7, "phase-transition monotonicity", elapsed, 900.0)


def test_c08_per_iteration_complexity():
    start = time.perf_counter()

    def median_iter_seconds(n):
        seed = derive_seed(MASTER_SEED, "c8", n)
        sig, _ = spectral_signal(n, 5, 10.0, seed=derive_seed(seed, "signal"))
        pattern = sample_pattern(n, n, WITHOUT_REPLACEMENT, seed=derive_seed(seed, "pattern"))
        f_obs = project_obs(sig.z, pattern)
        config = RecoveryConfig(rank=5, alpha=0.0, max_iters=12, tol_residual=0.0,
                                seed=derive_seed(seed, "solver"))
        report = run_hsnld(f_obs, pattern, sig.shape, config)
        return float(np.median(np.diff([rec.seconds for rec in report.records])))

    t14 = median_iter_seconds(2**14)
    t16 = median_iter_seconds(2**16)
    ratio = t16 / t14
    ok = ratio <= 6.0
    elapsed = time.perf_counter() - start
    _report(
        8,
        "per-iteration complexity",
        ok,
        elapsed,
        f"median iter: {t14 * 1e3:.1f} ms -> {t16 * 1e3:.1f} ms, ratio {ratio:.2f}",
    )
    _budget(8, "per-iteration complexity", elapsed, 300.0)


def test_c09_sparsification_bound():
    start = time.perf_counter()
    ok = True
    detail = ""
    for trial in range(100):
        rng = np.random.default_rng(derive_seed(MASTER_SEED, "c9", trial))
        n = 101
        shape = HankelShape.square(n)
        w = np.sqrt(antidiagonal_counts(shape).astype(float))
        m = int(rng.integers(n // 2, n + 1))
        pattern = sample_pattern(n, m, WITHOUT_REPLACEMENT, seed=int(rng.integers(2**31)))
        alpha = float(rng.uniform(0.02, 0.2))
        gamma = float(rng.uniform(1.0, 2.0))
        n_out = int(np.floor(alpha * m))

        z_true = rand_complex(rng, n)
        z = z_true + 0.3 * rand_complex(rng, n)
        s_true = np.zeros(n, dtype=complex)
        if n_out:
            hit = rng.choice(pattern.indices, size=n_out, replace=False)
            s_true[hit] = 10 * rand_complex(rng, n_out)
        f_obs = project_obs(z_true + s_true, pattern)

        raw = project_obs(f_obs - z, pattern) / w
        kept = top_k_threshold(raw, keep_count(gamma, alpha, m, n))
        s = kept.s * w
        lhs = np.max(np.abs((project_obs(s_true, pattern) - s) / w))
        rhs = 2.0 * np.max(np.abs(project_obs(z_true - z, pattern) / w))
        if lhs > rhs + 1e-12 * rhs:
            ok, detail = False, f"bound violated at trial {trial}: {lhs:.3e} > {rhs:.3e}"
            break
    elapsed = time.perf_counter() - start
    _report(9, "sparsification sup bound", ok, elapsed, detail)
    _budget(9, "sparsification sup bound", elapsed, 10.0)


def test_c10_threaded_determinism(tmp_path):
    start = time.perf_counter()
    args = [
        "phase", "--seed", str(MASTER_SEED), "n=125", "r=4", "kappa=5",
        "m_values=60,125", "alpha_values=0,0.1", "trials=4", "max_iters=300",
    ]
    out1 = tmp_path / "t1"
    out4 = tmp_path / "t4"
    assert cli_main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert cli_main(args + ["--out", str(out4), "--threads", "4"]) == 0
    b1 = (out1 / "phase.csv").read_bytes()
    b4 = (out4 / "phase.csv").read_bytes()
    ok = b1 == b4
    elapsed = time.perf_counter() - start
    _report(10, "threaded determinism", ok, elapsed, f"{len(b1)} bytes compared")
    _budget(10, "threaded determinism", elapsed, 120.0)
