"""The benchmark's workloads: inputs from the seed, one timed operation, checks.

Each workload drives hankelx from outside, through the names a user calls:
``hankelx.run_hsnld`` for the library solve and ``hankelx.cli.main`` for the
``phase`` experiment command.  An operation returns its wall time, one ``Solve`` per
solver run it contained, and the problem found by its output check (None when
the outputs are correct).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

# a recovery counts as a success at this relative error, as in the CLI
SUCCESS_ERROR_TOL = 1e-3


def derive(seed: int, *parts) -> int:
    """Stable 63-bit seed for one input, from the run seed and labels."""
    h = hashlib.blake2b(repr((seed,) + parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


@dataclass
class Solve:
    seconds: float
    iterations: int
    termination: str
    error: float
    success: bool
    iter_ms: list[float] = field(default_factory=list)


@dataclass
class OpResult:
    seconds: float
    solves: list[Solve]
    successes: int
    trials: int
    fingerprint: object = None
    problem: str | None = None


def _is_success(termination: str, error: float) -> bool:
    return termination == "residual_tol" and math.isfinite(error) and error <= SUCCESS_ERROR_TOL


def _solve_from_report(seconds: float, report) -> Solve:
    times = [rec.seconds for rec in report.records]
    return Solve(
        seconds=seconds,
        iterations=report.iterations,
        termination=report.termination,
        error=float(report.final_error),
        success=_is_success(report.termination, float(report.final_error)),
        iter_ms=[1000.0 * (b - a) for a, b in zip(times, times[1:])],
    )


class Solve16k:
    """run_hsnld to tol_residual=1e-5 on c06's instance family at n=16383."""

    name = "solve_16k"
    n, rank, p, alpha = 2**14 - 1, 5, 0.8, 0.05
    kappas = (1.0, 20.0, 2000.0)
    pool = 21  # instances generated in set-up, each solved twice a run
    grid_ops = len(kappas)  # one sweep over kappa
    ops_per_second = 42 / 36  # 42 solves: 14 sweeps, a p75 tail
    threads = 1

    def __init__(self, hx, seed: int, workdir: Path):
        self.hx = hx
        self.seed = seed
        self.instances = []

    def setup(self):
        hx = self.hx
        m = math.ceil(self.p * self.n)
        instances = []
        for k in range(self.pool):
            kappa = self.kappas[k % len(self.kappas)]
            base = derive(self.seed, self.name, k)
            sig, _ = hx.spectral_signal(self.n, self.rank, kappa, seed=derive(base, "signal"))
            pattern = hx.sample_pattern(
                self.n, m, hx.WITHOUT_REPLACEMENT, seed=derive(base, "pattern")
            )
            spec = hx.OutlierSpec(self.alpha, 10.0, seed=derive(base, "outliers"))
            f_obs, _ = hx.inject_outliers(sig, pattern, spec)
            instances.append((sig, pattern, f_obs, derive(base, "solver")))
        self.instances = instances

    def run(self, i: int) -> OpResult:
        hx = self.hx
        sig, pattern, f_obs, solver_seed = self.instances[i % len(self.instances)]
        config = hx.RecoveryConfig(
            rank=self.rank, alpha=self.alpha, tol_residual=1e-5, seed=solver_seed
        )
        start = time.perf_counter()
        try:
            report = hx.run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
        except Exception as exc:  # counted as a failed operation, never dropped
            return OpResult(time.perf_counter() - start, [], 0, 1, problem=repr(exc))
        seconds = time.perf_counter() - start
        solve = _solve_from_report(seconds, report)
        problem = None
        if solve.termination != "residual_tol":
            problem = f"termination {solve.termination}"
        elif not solve.error <= SUCCESS_ERROR_TOL:
            problem = f"error {solve.error:.3e} > {SUCCESS_ERROR_TOL}"
        return OpResult(
            seconds, [solve], int(solve.success), 1,
            fingerprint=(solve.iterations, solve.termination, solve.success), problem=problem,
        )


class _SolveLog:
    """Records every run_hsnld call the CLI makes while installed."""

    def __init__(self, module):
        self.module = module
        self.solves: list[Solve] = []

    def __enter__(self):
        original = self.original = self.module.run_hsnld
        solves = self.solves

        def logged(*args, **kwargs):
            start = time.perf_counter()
            try:
                report = original(*args, **kwargs)
            except Exception as exc:
                iteration = getattr(exc, "iteration", -1)
                name = "solver_error" if type(exc).__name__ == "SolverError" else "error"
                solves.append(Solve(time.perf_counter() - start, iteration, name,
                                    math.nan, False))
                raise
            solves.append(_solve_from_report(time.perf_counter() - start, report))
            return report

        self.module.run_hsnld = logged
        return self

    def __exit__(self, *exc):
        self.module.run_hsnld = self.original
        return False


class Phase125:
    """`hankelx phase` on a reduced c07 grid at n=125, CLI-default threads."""

    name = "phase_125"
    # Every cell has a settled outcome: the m=30 row never recovers (most
    # trials run to max_iters, some stop on a degenerate Gram), the other six
    # cells always converge.  Cells on the phase boundary, such as (68, 0.2)
    # or (49, 0), made grid time and the tail swing from seed to seed through
    # how many of their trials happened to stall.  With a third of the trials
    # failing, the median lies among converging trials and p75 among failing
    # ones, several trials away from the edge between the two.  The pool takes
    # tasks in grid order, so two trials per cell run side by side on two
    # threads and share the interpreter lock evenly, which steadies per-trial
    # wall time.
    m_values = (30, 87, 125)
    alpha_values = (0.0, 0.2, 0.3)
    trials = 2
    header = ["m", "alpha", "successes", "trials"]
    grid_ops = 1
    ops_per_second = 4 / 36  # 4 grids, 72 trials

    def __init__(self, hx, seed: int, workdir: Path):
        self.hx = hx
        self.seed = seed
        self.out_root = workdir / self.name
        self.threads = os.cpu_count() or 1

    def setup(self):
        self.out_root.mkdir(parents=True, exist_ok=True)

    def run(self, i: int) -> OpResult:
        out = self.out_root / str(i)
        argv = [
            "phase", "--out", str(out), "--seed", str(derive(self.seed, self.name, i)),
            "--threads", str(self.threads), "n=125", "r=10", "kappa=10",
            "m_values=" + ",".join(str(m) for m in self.m_values),
            "alpha_values=" + ",".join(str(a) for a in self.alpha_values),
            f"trials={self.trials}",
        ]
        with _SolveLog(self.hx.cli) as log:
            start = time.perf_counter()
            try:
                code = self.hx.cli.main(argv)
            except Exception as exc:
                code = repr(exc)
            seconds = time.perf_counter() - start
        try:
            return self._check(out, code, seconds, log.solves)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, code, seconds: float, solves: list[Solve]) -> OpResult:
        failed = OpResult(seconds, solves, 0, len(solves))
        if code != 0:
            failed.problem = f"exit {code}"
            return failed
        try:
            raw = (out / "phase.csv").read_bytes()
            rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
            grid = {(float(r[0]), float(r[1])): (int(r[2]), int(r[3])) for r in rows[1:]}
        except (OSError, ValueError, IndexError, UnicodeDecodeError) as exc:
            failed.problem = f"unreadable phase.csv: {exc!r}"
            return failed
        problem = _phase_problem(rows[0], grid, self)
        successes = sum(s for s, _ in grid.values())
        trials = sum(t for _, t in grid.values())
        outcomes = sorted((s.iterations, s.termination) for s in solves)
        return OpResult(
            seconds, solves, successes, trials,
            fingerprint=(raw, outcomes), problem=problem,
        )


def _phase_problem(header, grid, spec) -> str | None:
    """Output check for one phase grid: header, shape, anchor cell, c07's rule."""
    if header != spec.header:
        return f"phase.csv header {header}"
    cells = {(float(m), float(a)) for m in spec.m_values for a in spec.alpha_values}
    if set(grid) != cells or any(t != spec.trials for _, t in grid.values()):
        return f"phase.csv cells {sorted(grid.items())}"
    anchor = grid[(125.0, 0.0)][0]
    if anchor != spec.trials:
        return f"anchor (m=125, alpha=0) = {anchor}/{spec.trials}"
    m_values = sorted({k[0] for k in grid})
    a_values = sorted({k[1] for k in grid})
    # success may drop at most once along m and rise at most once along alpha
    for a in a_values:
        series = [grid[(m, a)][0] for m in m_values]
        if sum(1 for x, y in zip(series, series[1:]) if y < x) > 1:
            return f"non-monotone in m at alpha={a}: {series}"
    for m in m_values:
        series = [grid[(m, a)][0] for a in a_values]
        if sum(1 for x, y in zip(series, series[1:]) if y > x) > 1:
            return f"non-monotone in alpha at m={m}: {series}"
    return None


WORKLOADS = {cls.name: cls for cls in (Solve16k, Phase125)}
