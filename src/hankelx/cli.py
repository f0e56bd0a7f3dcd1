"""Command-line experiment runner.

Usage::

    hankelx <gen|recover|converge|phase|doa> [--config FILE] [--seed U64]
            [--threads N] [--out DIR] [key=value overrides]

Every key, the global ``config``, ``seed``, ``threads`` and ``out`` included,
may be given as ``key=value``, ``--key value`` or ``--key=value``.  Each
parameter takes the first of: the command line, the JSON ``--config`` file,
the command's default.  The file cannot set ``config``, ``threads`` or ``out``;
unknown keys are rejected.  A key left out is worked out by the command.  A
run refuses a key it does not read (``gen kind=doa`` reads no ``r``, ``phase``
no ``alpha`` beside ``alpha_values``); any other value runs as given or exits
2.  Every output (CSV with LF endings and '.' decimal separators, JSON with a
stable key order) is a pure function of the seed and configuration: each grid
trial hashes its own seed from its cell's values and its trial index, and the
trials run in grid order on the calling thread.  ``--threads N`` is accepted
for compatibility and checked (N >= 1); it does not change how or what a
command computes.  ``phase`` and ``converge`` run their trials through one grid
runner, which writes ``trials.csv``, one named outcome per trial.  A summary's
``seconds`` is the solver's own clock, the one behind the trace's ``ms`` column.

Exit codes: 0 command completed and wrote its report, whatever the solve's
termination; 1 a failed solve (``LinAlgError`` or ``RuntimeError``) or an
``OSError``; 2 usage or configuration error, or any other ``ValueError``: the
library raises one only to refuse input, the solver's before its first
iterate.  ``main`` alone turns an exception into an exit code; on 1 or 2 no
report is written.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .hankel import WeightedSignal
from .recovery import RecoveryConfig, RecoveryReport, run_hsnld, run_plain_gd
from .sampling import WITHOUT_REPLACEMENT, ObservationPattern, _ceil_count, sample_pattern
from .signals import (
    OutlierSpec,
    doa_signal,
    inject_outliers,
    load_signal,
    save_signal,
    spectral_signal,
)

SUCCESS_ERROR_TOL = 1e-3
# the array scenario's source angles, in degrees, and its outlier scale
_DOA_THETAS = (87.0, 87.1, 87.3)
_DOA_MAGNITUDE_SCALE = 1.0
# a solve that fails; LinAlgError is numpy's one ValueError that is not a refusal of input
_SOLVE_FAILURES = (np.linalg.LinAlgError, RuntimeError)


class ConfigError(Exception):
    """Bad usage or configuration; maps to exit code 2."""


def _succeeded(termination: str, err: float) -> bool:
    """The one success rule; a nan ``err`` means no ground truth, and passes the error test."""
    return termination == "residual_tol" and not err > SUCCESS_ERROR_TOL


# ---------------------------------------------------------------------------
# parameter schemas
# ---------------------------------------------------------------------------


def _list_of(cast):
    """The one list reader: a JSON list's items, or a string's nonempty comma-split tokens, cast."""
    def parse(value):
        if isinstance(value, (list, tuple)):
            return [cast(v) for v in value]
        return [cast(tok) for tok in str(value).split(",") if tok != ""]
    return parse


# RecoveryConfig's keys and defaults, as _solver_config passes them on
_SOLVER_KEYS = {
    "eta": (float, RecoveryConfig.eta),
    "max_iters": (int, RecoveryConfig.max_iters),
    "tol_residual": (float, RecoveryConfig.tol_residual),
}
_GRID_KEYS = {**_SOLVER_KEYS, "magnitude_scale": (float, OutlierSpec.magnitude_scale)}

# a None default means "not given"; summary.json echoes every key in this order
_SCHEMAS = {
    "gen": {
        "kind": (str, None),
        "n": (int, None),
        "r": (int, None),
        "kappa": (float, None),
        "thetas": (_list_of(float), None),
        "gains": (_list_of(float), None),
        "m": (int, None),
        "p": (float, None),
        "alpha": (float, 0.0),
        "magnitude_scale": (float, None),
        "mode": (str, WITHOUT_REPLACEMENT),
    },
    "recover": {
        "input": (str, None),
        "r": (int, None),
        "alpha": (float, None),
        **_SOLVER_KEYS,
        "solver": (str, "hsnld"),
    },
    "converge": {
        "n": (int, 1023),
        "r": (int, 5),
        "kappas": (_list_of(float), None),
        "solvers": (_list_of(str), ["hsnld", "plaingd"]),
        "p": (float, 0.8),
        "alpha": (float, 0.05),
        "trials": (lambda value: _parse_int("trials", value, 1), 5),
        **_GRID_KEYS,
    },
    "phase": {
        "n": (int, 125),
        "r": (int, None),
        "kappa": (float, 10.0),
        "m": (int, None),
        "alpha": (float, None),
        "m_values": (_list_of(float), []),
        "alpha_values": (_list_of(float), []),
        "r_values": (_list_of(float), []),
        "trials": (lambda value: _parse_int("trials", value, 1), 20),
        **_GRID_KEYS,
    },
    # the DOA protocol terminates on true error, so the solver runs with a
    # much tighter residual tolerance and the error crossing is read off the
    # trace afterwards
    "doa": {
        "n": (int, 4096),
        "thetas": (_list_of(float), _DOA_THETAS),
        "r": (int, None),
        "p": (float, 0.015),
        "alpha": (float, 0.10),
        "magnitude_scale": (float, _DOA_MAGNITUDE_SCALE),
        "eta": _SOLVER_KEYS["eta"],
        "max_iters": (int, 216),
        "tol_residual": (float, 1e-8),
        "error_tol": (float, 1e-5),
    },
}


def _apply_schema(command: str, raw: dict) -> dict:
    schema = _SCHEMAS[command]
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
    params = {}
    for key, (caster, default) in schema.items():
        if key not in raw:
            params[key] = default
            continue
        try:
            params[key] = _parse_int(key, raw[key]) if caster is int else caster(raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return params


def _parse_overrides(tokens: list[str]) -> dict:
    """The one argv reader: ``key=value``, ``--key=value`` and ``--key value`` tokens."""
    raw = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if "=" in tok:
            key, _, value = tok.partition("=")
            key = key.lstrip("-")
            raw[key] = value
            i += 1
        elif tok.startswith("--"):
            if i + 1 >= len(tokens):
                raise ConfigError(f"flag {tok} is missing a value")
            raw[tok[2:]] = tokens[i + 1]
            i += 2
        else:
            raise ConfigError(f"cannot parse argument {tok!r}")
    return raw


def _parse_int(name: str, value, low: int | None = None) -> int:
    """The CLI's one integer rule: no bool or fraction, and at least ``low`` when given."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
    if low is not None and number < low:
        raise ConfigError(f"{name} must be >= {low}, got {number}")
    return number


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labeled parts."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows):
    """CSV with LF endings; csv writes each float by repr, so it reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_run(out: Path, report: RecoveryReport, config: dict, success: bool, **iters):
    """``summary.json`` and ``trace.csv`` of one solve.

    The summary's ``err`` is the final error, or null when it is not finite:
    unknown without ground truth, or overflowed by a diverging solve.  Its
    ``seconds`` is the solver's own clock at the last record, the clock of the
    trace's ``ms`` column.
    """
    err = report.final_error
    seconds = report.records[-1].seconds
    out.mkdir(parents=True, exist_ok=True)
    head = {"success": success, "err": err if math.isfinite(err) else None, **iters}
    _write_json(
        out / "summary.json",
        {**head, "seconds": seconds, "termination": report.termination, "config": config},
    )
    _write_csv(
        out / "trace.csv",
        ["iter", "residual", "err", "ms"],
        ([i, r.residual, r.error, r.seconds * 1000.0] for i, r in enumerate(report.records)),
    )


def _runner(solver: str):
    """The solver named ``solver``; read per call, so a patched ``run_hsnld`` is the one run."""
    if solver == "hsnld":
        return run_hsnld
    if solver == "plaingd":
        return run_plain_gd
    raise ConfigError(f"unknown solver {solver!r}; expected 'hsnld' or 'plaingd'")


def _observe(sig, m, mode, alpha, magnitude_scale, seed):
    """Sampling pattern, corrupted observations and planted outliers of ``sig``."""
    pattern = sample_pattern(sig.shape.n, m, mode, seed=derive_seed(seed, "pattern"))
    spec = OutlierSpec(alpha, magnitude_scale, seed=derive_seed(seed, "outliers"))
    f_obs, s_true = inject_outliers(sig, pattern, spec)
    return pattern, f_obs, s_true


def _sample_count(p: float, n: int) -> int:
    """Entries observed at sampling rate ``p`` of ``n``: ceil(p * n), as counts round."""
    if not math.isfinite(p):
        raise ConfigError(f"p must be finite, got {p}")
    return _ceil_count(p * n)


def _solver_config(params: dict, rank, alpha, seed) -> RecoveryConfig:
    """Checked solver settings for every command (bad ones exit 2); solver seed from ``seed``."""
    return RecoveryConfig(
        rank=rank,
        alpha=alpha,
        seed=derive_seed(seed, "solver"),
        **{key: params[key] for key in _SOLVER_KEYS},
    )


def _trial(params, trial_seed, runner, rank, kappa, m, alpha):
    """One synthetic solve built from ``trial_seed``, and its named outcome.

    Returns the report, or the failure the solve raised (``_SOLVE_FAILURES``),
    and (termination, iterations, err): the report's own, or ``error``, -1 and
    nan for a failed solve.  Bad instance or solver input raises ValueError.
    """
    sig, _ = spectral_signal(params["n"], rank, kappa, seed=derive_seed(trial_seed, "signal"))
    pattern, f_obs, _ = _observe(
        sig, m, WITHOUT_REPLACEMENT, alpha, params["magnitude_scale"], trial_seed
    )
    config = _solver_config(params, rank, alpha, trial_seed)
    try:
        report = runner(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    except _SOLVE_FAILURES as exc:
        return exc, ("error", -1, math.nan)
    return report, (report.termination, report.iterations, report.final_error)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(params: dict, seed: int, out: Path) -> int:
    kind = params["kind"]
    if kind not in ("spectral", "doa"):
        raise ConfigError("kind must be 'spectral' or 'doa'")
    # each kind reads its own signal keys, and a sample count from m or from p
    unread = ("thetas", "gains") if kind == "spectral" else ("r", "kappa")
    unread += ("p",) if params["m"] is not None else ()
    given = [key for key in unread if params[key] is not None]
    if given:
        raise ConfigError(f"gen kind={kind} does not read {', '.join(given)}")
    n = params["n"]
    if n is None or n < 2:
        raise ConfigError("n must be an integer >= 2")
    kappa = thetas = None
    if kind == "spectral":
        r, kappa = params["r"], 1.0 if params["kappa"] is None else params["kappa"]
        sig, _ = spectral_signal(n, r, kappa, seed=derive_seed(seed, "signal"))
    else:
        thetas = _DOA_THETAS if params["thetas"] is None else params["thetas"]
        sig = doa_signal(n, thetas, params["gains"])
        r = len(thetas)

    m, p, scale = params["m"], params["p"], params["magnitude_scale"]
    if m is None:  # with neither m nor p, every entry is observed
        m = n if p is None else _sample_count(p, n)
    if scale is None:
        scale = OutlierSpec.magnitude_scale if kind == "spectral" else _DOA_MAGNITUDE_SCALE
    alpha = params["alpha"]

    pattern, f_obs, s_true = _observe(sig, m, params["mode"], alpha, scale, seed)

    out.mkdir(parents=True, exist_ok=True)
    save_signal(out / "signal.hnkz", sig)
    save_signal(out / "observed.hnkz", WeightedSignal(sig.shape, f_obs))
    if alpha > 0:
        save_signal(out / "outliers.hnkz", WeightedSignal(sig.shape, s_true.s))
    _write_csv(out / "pattern.csv", ["index"], ([int(i)] for i in pattern.indices))
    _write_json(
        out / "meta.json",
        {
            "kind": kind,
            "n": n,
            "n1": sig.shape.n1,
            "r": r,
            "kappa": kappa,
            "thetas": thetas,
            "m": m,
            "p": m / n,
            "alpha": alpha,
            "magnitude_scale": scale,
            "mode": params["mode"],
            "seed": seed,
        },
    )
    return 0


def _load_instance_dir(path: Path):
    if not (path / "observed.hnkz").is_file() or not (path / "pattern.csv").is_file():
        raise ConfigError(f"input directory {path} is missing observed.hnkz or pattern.csv")
    observed = load_signal(path / "observed.hnkz")
    with open(path / "pattern.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    indices = np.array([_parse_int("pattern.csv index", r[0] if r else "") for r in rows], np.int64)
    if indices.size == 0:
        raise ConfigError(f"{path / 'pattern.csv'} lists no indices")
    meta = {}
    if (path / "meta.json").is_file():
        meta = json.loads((path / "meta.json").read_text())
        if not isinstance(meta, dict):
            raise ConfigError(f"{path / 'meta.json'} must hold a JSON object")
    mode = meta.get("mode", WITHOUT_REPLACEMENT)
    pattern = ObservationPattern(n=observed.shape.n, indices=indices, mode=mode)
    truth = load_signal(path / "signal.hnkz") if (path / "signal.hnkz").is_file() else None
    if truth is not None:
        if truth.shape.n != observed.shape.n:
            raise ConfigError(f"signal.hnkz length {truth.shape.n} != observed {observed.shape.n}")
        # each file's weights follow its own split, so another split is another vector
        if truth.shape != observed.shape:
            raise ConfigError(
                f"signal.hnkz split {truth.shape.n1}x{truth.shape.n2}"
                f" != observed {observed.shape.n1}x{observed.shape.n2}"
            )
    return observed, pattern, truth, meta


def cmd_recover(params: dict, seed: int, out: Path) -> int:
    if not params["input"]:
        raise ConfigError("recover needs input=DIR pointing at generated files")
    observed, pattern, truth, meta = _load_instance_dir(Path(params["input"]))
    # a key not given takes meta.json's value, through the command line's cast
    meta.setdefault("alpha", 0.0)
    rank, alpha = (
        _apply_schema("recover", {key: meta[key]})[key]
        if params[key] is None and key in meta else params[key]
        for key in ("r", "alpha")
    )
    if rank is None:
        raise ConfigError("rank r must be given (or present in meta.json)")
    runner = _runner(params["solver"])
    config = _solver_config(params, rank, alpha, seed)
    report = runner(
        observed.z,
        pattern,
        observed.shape,
        config,
        ground_truth=None if truth is None else truth.z,
    )
    _write_run(
        out, report, {**params, "rank": rank, "alpha": alpha, "seed": seed},
        success=_succeeded(report.termination, report.final_error),
        iters=report.iterations,
    )
    return 0


def _run_grid(params: dict, seed: int, out: Path, axes: list[str], jobs: list, summarize) -> list:
    """Every trial of every cell, in grid order, and ``trials.csv``, one outcome per trial.

    A job is a cell: its values on ``axes``, its seed label and ``_trial``'s arguments after
    the seed.  Trial t runs on ``derive_seed(seed, *label, t)``, so a cell's trials do not
    depend on the rest of the grid.  ``summarize(values, results)`` gets a cell's results once
    its last trial has run; only its summary is kept, and returned.  ``out`` is made last.
    """
    n = params["trials"]
    results = (_trial(params, derive_seed(seed, *label, t), *args)
               for _, label, args in jobs for t in range(n))
    summaries, trial_rows = [], []
    for values, _, _ in jobs:
        cell = [next(results) for _ in range(n)]
        trial_rows += ([*values, t, *outcome] for t, (_, outcome) in enumerate(cell))
        summaries.append(summarize(values, cell))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trials.csv", [*axes, "trial", "termination", "iterations", "err"], trial_rows)
    return summaries


def cmd_converge(params: dict, seed: int, out: Path) -> int:
    """``converge.csv``, each cell's mean trace, and ``trials.csv``, one outcome per trial.

    A cell with a solve that raised gets one ``error: <first failure>`` row instead.
    """
    for key in ("kappas", "solvers"):
        if not params[key]:
            raise ConfigError(f"converge needs a nonempty {key} list")
    m = _sample_count(params["p"], params["n"])
    # the label leaves the solver out, so every solver of a kappa sees the same instances
    jobs = [((kappa, solver), ("converge", kappa),
             (_runner(solver), params["r"], kappa, m, params["alpha"]))
            for kappa in params["kappas"] for solver in params["solvers"]]

    def trace_rows(values, cell):
        kappa, solver = values
        reports = [report for report, _ in cell]
        failed = [rep for rep in reports if isinstance(rep, Exception)]
        if failed:
            return [[solver, kappa, -1, "nan", "nan", "nan", f"error: {failed[0]}"]]
        rows = []
        for it in range(max(len(rep.records) for rep in reports)):
            recs = [rep.records[min(it, len(rep.records) - 1)] for rep in reports]
            means = [float(np.mean([getattr(rec, field) for rec in recs]))
                     for field in ("residual", "error", "seconds")]
            rows.append([solver, kappa, it, *means, "ok"])
        return rows

    cells = _run_grid(params, seed, out, ["kappa", "solver"], jobs, trace_rows)
    _write_csv(
        out / "converge.csv",
        ["solver", "kappa", "iter", "residual", "err", "seconds", "status"],
        [row for rows in cells for row in rows],
    )
    return 0


def _phase_axes(params: dict):
    """The two axes, as (name, values), and the fixed m, alpha and r: n, 0 and 10 if not given."""
    fixed = {"m": params["n"], "alpha": 0.0, "r": 10}
    axes = [(name, params[f"{name}_values"]) for name in fixed if params[f"{name}_values"]]
    if len(axes) != 2:
        raise ConfigError("phase needs exactly two of m_values/alpha_values/r_values")
    for name, values in axes:
        if params[name] is not None:
            raise ConfigError(f"phase does not read {name} when {name}_values is given")
        for v in values if name != "alpha" else ():
            _parse_int(f"{name}_values", v)
    fixed.update((name, params[name]) for name in fixed if params[name] is not None)
    return axes, fixed


def cmd_phase(params: dict, seed: int, out: Path) -> int:
    """``phase.csv``, successes per cell, and ``trials.csv``, one outcome per trial."""
    ((x_axis, x_values), (y_axis, y_values)), fixed = _phase_axes(params)
    runner = _runner("hsnld")
    jobs = []
    for x in x_values:
        for y in y_values:
            cell = {**fixed, x_axis: x, y_axis: y}
            args = (runner, int(cell["r"]), params["kappa"], int(cell["m"]), float(cell["alpha"]))
            jobs.append(((x, y), ("phase", x_axis, x, y_axis, y), args))
    rows = _run_grid(params, seed, out, [x_axis, y_axis], jobs, lambda values, cell: [
        *values, sum(_succeeded(term, err) for _, (term, _, err) in cell), params["trials"]])
    _write_csv(out / "phase.csv", [x_axis, y_axis, "successes", "trials"], rows)
    return 0


def cmd_doa(params: dict, seed: int, out: Path) -> int:
    error_tol = params["error_tol"]
    # as tol_residual; an infinite one succeeds at once, and neither inf nor NaN is JSON
    if not (math.isfinite(error_tol) and error_tol >= 0):
        raise ConfigError(f"error_tol must be finite and >= 0, got {error_tol}")
    n = params["n"]
    thetas = params["thetas"]
    rank = len(thetas) if params["r"] is None else params["r"]
    sig = doa_signal(n, thetas)
    m = _sample_count(params["p"], n)
    pattern, f_obs, _ = _observe(
        sig, m, WITHOUT_REPLACEMENT, params["alpha"], params["magnitude_scale"], seed
    )
    config = _solver_config(params, rank, params["alpha"], seed)
    report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    errors = np.array([rec.error for rec in report.records])
    hits = np.flatnonzero(errors <= error_tol)
    reached = int(hits[0]) if hits.size else -1
    _write_run(
        out, report, {**params, "rank": rank, "m": m, "seed": seed},
        success=bool(reached >= 0),
        iters=reached,
        iters_run=report.iterations,
    )
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "recover": cmd_recover,
    "converge": cmd_converge,
    "phase": cmd_phase,
    "doa": cmd_doa,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    command = argv.pop(0)
    if command not in _COMMANDS:
        print(f"unknown command {command!r}; expected one of {sorted(_COMMANDS)}", file=sys.stderr)
        return 2
    try:
        given = _parse_overrides(argv)
        config_file = given.pop("config", None)
        out = Path(given.pop("out", "."))
        # refused here, since every command creates out only after its work
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise ConfigError(f"out {out}: {existing} exists and is not a directory")
        # accepted and checked; trials always run on one thread
        _parse_int("threads", given.pop("threads", 1), 1)
        raw = {}
        if config_file:
            try:
                raw = json.loads(Path(config_file).read_text())
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config file: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config file {config_file} must hold a JSON object")
        raw.update(given)
        seed = _parse_int("seed", raw.pop("seed", 0), 0)
        if seed >= 2**64:
            raise ConfigError(f"seed must be < 2**64, got {seed}")
        params = _apply_schema(command, raw)
        return _COMMANDS[command](params, seed, out)
    except (*_SOLVE_FAILURES, OSError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

