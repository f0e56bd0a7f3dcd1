"""hankelx benchmark: one command for every workload, timed or traced.

    python3 perfbench/run.py --workload {solve_16k,phase_125}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` times, with tracing off, the fixed number of
operations that took about S seconds at the commit that defined the
benchmark, and prints the end-to-end metrics.  ``--trace 1`` runs half as
many operations with every public function of the package wrapped, replays
the same operations untraced, checks that both give the same outputs, and
prints the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The lines before it
record the environment and the sample behind each statistic; the same record
is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import stats
from layers import OP, layer_metrics, summarize_report
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# a run whose operations take this many times --seconds stops early, so a
# badly regressed commit still finishes well inside the per-run time limit
DEADLINE_FACTOR = 3.0
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import hankelx"
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "HANKELX_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "cli_threads": workload.threads,
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
    }


def operation_count(workload, seconds: float) -> int:
    """Operations one run measures: a fixed amount of work per --seconds.

    The count is set from the workload's operation rate at the commit that
    defined the benchmark, so every commit runs the same operations on the
    same inputs and the tail percentile (which depends on the sample size)
    stays the same; a faster commit finishes its run sooner.
    """
    ops = round(seconds * workload.ops_per_second)
    return max(workload.grid_ops, ops - ops % workload.grid_ops)


def run_ops(workload, count: int, deadline_s: float, tracer=None):
    """Run operations 0..count-1; stop early only past the deadline."""
    results = []
    start = time.perf_counter()
    for i in range(count):
        if tracer is None:
            results.append(workload.run(i))
        else:
            with tracer.span(OP):
                results.append(workload.run(i))
        if time.perf_counter() - start > deadline_s and len(results) >= workload.grid_ops:
            break
    return results


def timed_setup(workload) -> list[float]:
    """Set-up repeated: a fresh interpreter importing hankelx, then the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, wait() polls in sleeps of up to 50 ms, which
        # rounds the measured time up to that step
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], cwd=ROOT, check=True)
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def end_to_end(results, setup_times, workload, args) -> tuple[dict, dict]:
    solves = [s for r in results for s in r.solves]
    solve_s = [s.seconds for s in solves]
    iter_ms = [ms for s in solves for ms in s.iter_ms]
    good = [s.error for s in solves if s.success]
    errors = good or [s.error for s in solves if np.isfinite(s.error)]
    grids = [
        sum(r.seconds for r in results[k:k + workload.grid_ops])
        for k in range(0, len(results) - workload.grid_ops + 1, workload.grid_ops)
    ]
    tail_pct, tail_s = stats.tail(solve_s)
    failed = sum(1 for r in results if r.problem is not None)
    busy = sum(r.seconds for r in results)
    metrics = {
        "setup_s": (stats.median(setup_times), "s"),
        "solve_s_p50": (stats.median(solve_s), "s"),
        "solve_s_tail": (tail_s, "s"),
        "iter_ms_p50": (stats.median(iter_ms), "ms"),
        "iters_mean": (float(np.mean([s.iterations for s in solves])), "iters"),
        "err_p50": (stats.median(errors), "rel"),
        "success_frac": (sum(r.successes for r in results) / sum(r.trials for r in results),
                         "share"),
        "grid_s_p50": (stats.median(grids), "s"),
        "trials_per_s": (sum(r.trials for r in results) / busy, "1/s"),
        "ok_frac": (1.0 - failed / len(results), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "operations": len(results),
        "operations_planned": operation_count(workload, args.seconds),
        "solves": len(solves),
        "solve_s_tail_percentile": tail_pct,
        "iterations_timed": len(iter_ms),
        "grids": len(grids),
        "setup_s_samples": setup_times,
        "fail_frac": failed / len(results),
        "err_max": float(max(errors)),
    }
    return metrics, detail


def timed_run(workload, args):
    setup_times = timed_setup(workload)
    count = operation_count(workload, args.seconds)
    results = run_ops(workload, count, DEADLINE_FACTOR * args.seconds)
    metrics, detail = end_to_end(results, setup_times, workload, args)
    return results, metrics, detail


def traced_run(workload, args):
    tracer = Tracer()
    tracer.install(summarize={"recovery.run_hsnld": summarize_report})
    try:
        workload.setup()
        count = operation_count(workload, args.seconds / 2.0)
        traced = run_ops(workload, count, DEADLINE_FACTOR * args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    untraced = run_ops(workload, len(traced), math.inf)
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    metrics = layer_metrics(tracer.spans, workload.threads, traced_s, untraced_s)
    mismatches = [
        i for i, (a, b) in enumerate(zip(traced, untraced)) if a.fingerprint != b.fingerprint
    ]
    for i in mismatches:
        traced[i].problem = traced[i].problem or "traced and untraced outputs differ"
    detail = {
        "operations": len(traced),
        "spans": len(tracer.spans),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "mismatched_operations": mismatches,
    }
    return traced + untraced, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hankelx" / "__init__.py").is_file():
        print(f"perfbench: no hankelx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hankelx
    import hankelx.cli

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        workload = WORKLOADS[args.workload](hankelx, args.seed, Path(work))
        run = traced_run if args.trace else timed_run
        results, metrics, detail = run(workload, args)
    problems = [r.problem for r in results if r.problem is not None]
    record = {
        "env": environment(args, workload),
        "detail": {**detail, "problems": problems[:20]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("# env " + json.dumps(record["env"]))
    print("# detail " + json.dumps(record["detail"]))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": len(problems),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
