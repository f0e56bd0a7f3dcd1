"""Per-layer metrics computed from the traced run's spans.

Normalisers: a *solve* is one ``recovery.run_hsnld`` span, an *iteration* one
``recovery.hsnld_step`` span, an *operation* one ``bench.op`` span (a solve
or a ``phase`` grid).  Per-iteration FFT figures count only transforms made
inside an iteration, so they isolate the solver loop from spectral
initialisation.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from stats import self_time, union_length
from workloads import SUCCESS_ERROR_TOL

RUN = "recovery.run_hsnld"
STEP = "recovery.hsnld_step"
INIT = "recovery.spectral_init"
OP = "bench.op"

# metric prefix -> span name, for the per-call counters
COUNTED = {
    "hankel.matmat": "hankel.hankel_matmat",
    "hankel.rmatmat": "hankel.hankel_rmatmat",
    "hankel.lowrank_to_signal": "hankel.lowrank_to_signal",
    "linalg.inverse": "linalg.inverse",
    "linalg.psd_sqrt": "linalg.psd_sqrt",
    "sampling.top_k_threshold": "sampling.top_k_threshold",
    "sampling.project_obs": "sampling.project_obs",
}
SELF_TIMED = {
    "recovery.spectral_init": INIT,
    "linalg.truncated_svd": "linalg.truncated_svd",
    "recovery.hsnld_step": STEP,
    "recovery.project_incoherence": "recovery.project_incoherence",
}


def summarize_report(span, args, kwargs, report):
    """on_result hook for run_hsnld: keep (termination, iterations, error)."""
    span.info = (report.termination, report.iterations, float(report.final_error))


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(spans, threads: int, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    in_step = {}
    in_hankel = {}
    for span in spans:
        by_name[span.name].append(span)
        parent = span.parent
        if parent is not None:
            pid = id(parent)
            children[pid].append(span)
            in_step[id(span)] = parent.name == STEP or in_step.get(pid, False)
            in_hankel[id(span)] = parent.name.startswith("hankel.") or in_hankel.get(pid, False)

    def self_s(span):
        return self_time(span.start, span.end, [(c.start, c.end) for c in children[id(span)]])

    def dur(span):
        return span.end - span.start

    solves = by_name[RUN]
    n_solve = len(solves)
    n_iter = len(by_name[STEP])
    ops = by_name[OP]
    out = {}

    ffts = [s for name, group in by_name.items() if name.startswith("numpy.fft.")
            for s in group if in_step.get(id(s))]
    out["transforms.fft_calls_per_iter"] = (_ratio(len(ffts), n_iter), "calls/iter")
    out["transforms.fft_points_per_iter"] = (
        _ratio(sum(s.info[0] for s in ffts if s.info), n_iter), "points/iter")
    out["transforms.fft_ms"] = (_ratio(1000.0 * sum(dur(s) for s in ffts), n_iter), "ms/iter")

    for metric, name in COUNTED.items():
        group = by_name[name]
        out[f"{metric}.calls"] = (_ratio(len(group), n_solve), "calls/solve")
        out[f"{metric}.ms"] = (_ratio(1000.0 * sum(dur(s) for s in group), len(group)), "ms/call")
    out["hankel.bytes_per_iter_computed"] = (
        _ratio(sum(s.info[1] for s in ffts if s.info and in_hankel.get(id(s))), n_iter),
        "B/iter",
    )

    for metric, name in SELF_TIMED.items():
        group = by_name[name]
        out[f"{metric}.self_ms"] = (
            _ratio(1000.0 * sum(self_s(s) for s in group), len(group)), "ms/call")
    out["recovery.init_share"] = (
        _ratio(sum(dur(s) for s in by_name[INIT]), sum(dur(s) for s in solves)), "share")

    terminations = defaultdict(int)
    useful = total = 0
    for s in solves:
        if s.error is not None:
            kind = "solver_error" if s.error == "SolverError" else "error"
            iterations = s.info if isinstance(s.info, int) else 0
            ok = False
        else:
            kind, iterations, err = s.info
            ok = kind == "residual_tol" and err <= SUCCESS_ERROR_TOL
        terminations[kind] += 1
        total += iterations
        useful += iterations if ok else 0
    for kind in ("residual_tol", "max_iters", "solver_error"):
        out[f"recovery.terminations.{kind}"] = (_ratio(terminations[kind], n_solve), "share")
    out["recovery.useful_iter_frac"] = (_ratio(useful, total), "share")

    out["cli.trial_ms_p50"] = (
        1000.0 * float(np.median([dur(s) for s in solves])) if solves else 0.0, "ms")
    # pool_busy_frac and self_ms read only hankelx.cli spans, so they are 0 on
    # a workload that calls the library directly
    busy = capacity = 0.0
    for entry in (kid for op in ops for kid in children[id(op)] if kid.name.startswith("cli.")):
        per_thread = defaultdict(list)
        for kid in children[id(entry)]:
            per_thread[kid.thread].append((kid.start, kid.end))
        busy += sum(union_length(iv) for iv in per_thread.values())
        capacity += dur(entry) * threads
    out["cli.pool_busy_frac"] = (_ratio(busy, capacity), "share")
    cli_self = sum(self_s(s) for name, group in by_name.items()
                   if name.startswith("cli.") for s in group)
    out["cli.self_ms"] = (_ratio(1000.0 * cli_self, len(ops)), "ms/op")

    signal_spans = [s for name, group in by_name.items() if name.startswith("signals.")
                    for s in group
                    if s.parent is None or not s.parent.name.startswith("signals.")]
    instances = len(by_name["signals.spectral_signal"]) + len(by_name["signals.doa_signal"])
    out["signals.generate_ms"] = (
        _ratio(1000.0 * sum(dur(s) for s in signal_spans), instances), "ms/instance")

    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.overhead_frac"] = (_ratio(traced_s - untraced_s, untraced_s), "share")
    return out
