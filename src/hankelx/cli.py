"""Command-line experiment runner.

Usage::

    hankelx <gen|recover|converge|phase|doa> [--config FILE] [--seed U64]
            [--threads N] [--out DIR] [key=value overrides]

Command parameters come from an optional JSON config file plus overrides
given either as ``key=value`` tokens or ``--key value`` pairs; overrides win.
Unknown keys are rejected.  Every output (CSV with LF endings and '.' decimal
separators, JSON with a stable key order) is a pure function of the seed and
configuration: grid trials derive per-cell seeds by hashing and run in order
on the calling thread.  ``--threads N`` is accepted for compatibility and
checked (N >= 1); it does not change how or what a command computes.

Exit codes: 0 command completed and wrote its report, 1 solver error,
2 usage/configuration error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .hankel import HankelShape, WeightedSignal
from .recovery import RecoveryConfig, RecoveryReport, run_hsnld, run_plain_gd
from .sampling import (
    WITHOUT_REPLACEMENT,
    WITH_REPLACEMENT,
    ObservationPattern,
    sample_pattern,
)
from .signals import (
    OutlierSpec,
    doa_signal,
    inject_outliers,
    load_signal,
    save_signal,
    spectral_signal,
)

SUCCESS_ERROR_TOL = 1e-3


class ConfigError(Exception):
    """Bad usage or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# parameter schemas
# ---------------------------------------------------------------------------


def _parse_float_list(text):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _parse_str_list(text):
    if isinstance(text, (list, tuple)):
        return [str(v) for v in text]
    return [tok for tok in str(text).split(",") if tok != ""]


def _parse_bound(text):
    if isinstance(text, str) and text == "auto":
        return "auto"
    return float(text)


_SCHEMAS = {
    "gen": {
        "kind": (str, None),
        "n": (int, None),
        "r": (int, 0),
        "kappa": (float, 1.0),
        "thetas": (_parse_float_list, [87.0, 87.1, 87.3]),
        "gains": (_parse_float_list, None),
        "m": (int, 0),
        "p": (float, 0.0),
        "alpha": (float, 0.0),
        "magnitude_scale": (float, -1.0),
        "mode": (str, WITHOUT_REPLACEMENT),
    },
    "recover": {
        "input": (str, None),
        "r": (int, 0),
        "alpha": (float, -1.0),
        "eta": (float, 0.5),
        "bound": (_parse_bound, "auto"),
        "max_iters": (int, 1000),
        "tol_residual": (float, 1e-5),
        "solver": (str, "hsnld"),
    },
    "converge": {
        "n": (int, 1023),
        "r": (int, 5),
        "kappas": (_parse_float_list, None),
        "solvers": (_parse_str_list, ["hsnld", "plaingd"]),
        "p": (float, 0.8),
        "alpha": (float, 0.05),
        "trials": (int, 5),
        "eta": (float, 0.5),
        "max_iters": (int, 1000),
        "tol_residual": (float, 1e-5),
        "magnitude_scale": (float, 10.0),
    },
    "phase": {
        "n": (int, 125),
        "r": (int, 10),
        "kappa": (float, 10.0),
        "m": (int, 0),
        "alpha": (float, 0.0),
        "m_values": (_parse_float_list, []),
        "alpha_values": (_parse_float_list, []),
        "r_values": (_parse_float_list, []),
        "trials": (int, 20),
        "eta": (float, 0.5),
        "max_iters": (int, 1000),
        "tol_residual": (float, 1e-5),
        "magnitude_scale": (float, 10.0),
    },
    # the DOA protocol terminates on true error, so the solver runs with a
    # much tighter residual tolerance and the error crossing is read off the
    # trace afterwards
    "doa": {
        "n": (int, 4096),
        "thetas": (_parse_float_list, [87.0, 87.1, 87.3]),
        "r": (int, 0),
        "p": (float, 0.015),
        "alpha": (float, 0.10),
        "magnitude_scale": (float, 1.0),
        "eta": (float, 0.5),
        "max_iters": (int, 216),
        "tol_residual": (float, 1e-8),
        "error_tol": (float, 1e-5),
    },
}


def _apply_schema(command: str, raw: dict) -> dict:
    schema = _SCHEMAS[command]
    params = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        caster = schema[key][0]
        try:
            params[key] = _parse_int(key, value) if caster is int else caster(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    for key, (_, default) in schema.items():
        params.setdefault(key, default)
    return params


def _parse_overrides(tokens: list[str]) -> dict:
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


def _parse_int(name: str, value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _trace_rows(report: RecoveryReport):
    for rec in report.records:
        yield [
            rec.iteration,
            _fmt(rec.residual),
            _fmt(rec.error),
            _fmt(rec.seconds * 1000.0),
        ]


def _observe(sig, m, mode, alpha, magnitude_scale, seed):
    """Sampling pattern, corrupted observations and planted outliers of ``sig``."""
    pattern = sample_pattern(sig.shape.n, m, mode, seed=derive_seed(seed, "pattern"))
    spec = OutlierSpec(alpha, magnitude_scale, seed=derive_seed(seed, "outliers"))
    f_obs, s_true = inject_outliers(sig, pattern, spec)
    return pattern, f_obs, s_true


def _make_instance(n, r, kappa, m, alpha, magnitude_scale, seed):
    """Deterministic synthetic instance (without-replacement sampling) from one seed."""
    sig, _ = spectral_signal(n, r, kappa, seed=derive_seed(seed, "signal"))
    return (sig, *_observe(sig, m, WITHOUT_REPLACEMENT, alpha, magnitude_scale, seed))


def _solver_config(params: dict, rank, alpha, seed, bound="auto") -> RecoveryConfig:
    """Solver settings shared by every command; the solver seed derives from ``seed``."""
    return RecoveryConfig(
        rank=rank,
        alpha=alpha,
        eta=params["eta"],
        incoherence_bound=bound,
        max_iters=params["max_iters"],
        tol_residual=params["tol_residual"],
        seed=derive_seed(seed, "solver"),
    )


def _trial_success(report: RecoveryReport) -> bool:
    return (
        report.termination == "residual_tol"
        and np.isfinite(report.final_error)
        and report.final_error <= SUCCESS_ERROR_TOL
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(params: dict, seed: int, out: Path) -> int:
    kind = params["kind"]
    if kind not in ("spectral", "doa"):
        raise ConfigError("kind must be 'spectral' or 'doa'")
    n = params["n"]
    if n is None or n < 2:
        raise ConfigError("n must be an integer >= 2")
    shape = HankelShape.square(n)
    if kind == "spectral":
        r = params["r"]
        if r < 1 or r > min(shape.n1, shape.n2):
            raise ConfigError(f"r must lie in [1, {min(shape.n1, shape.n2)}]")
        sig, model = spectral_signal(n, r, params["kappa"], seed=derive_seed(seed, "signal"))
    else:
        thetas = params["thetas"]
        gains = params["gains"]
        sig = doa_signal(n, thetas, gains)
        r = len(thetas)

    m = params["m"]
    if m <= 0:
        m = math.ceil(params["p"] * n) if params["p"] > 0 else n
    if params["mode"] not in (WITHOUT_REPLACEMENT, WITH_REPLACEMENT):
        raise ConfigError(f"unknown sampling mode {params['mode']!r}")
    alpha = params["alpha"]
    scale = params["magnitude_scale"]
    if scale < 0:
        scale = 10.0 if kind == "spectral" else 1.0

    pattern, f_obs, s_true = _observe(sig, m, params["mode"], alpha, scale, seed)

    out.mkdir(parents=True, exist_ok=True)
    save_signal(out / "signal.hnkz", sig)
    save_signal(out / "observed.hnkz", WeightedSignal(shape, f_obs))
    if alpha > 0:
        save_signal(out / "outliers.hnkz", WeightedSignal(shape, s_true.s))
    _write_csv(out / "pattern.csv", ["index"], ([int(i)] for i in pattern.indices))
    _write_json(
        out / "meta.json",
        {
            "kind": kind,
            "n": n,
            "n1": shape.n1,
            "r": r,
            "kappa": params["kappa"] if kind == "spectral" else None,
            "thetas": params["thetas"] if kind == "doa" else None,
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
        reader = csv.reader(fh)
        next(reader)
        indices = np.array([int(row[0]) for row in reader], dtype=np.int64)
    meta = {}
    if (path / "meta.json").is_file():
        meta = json.loads((path / "meta.json").read_text())
    mode = meta.get("mode", WITHOUT_REPLACEMENT)
    pattern = ObservationPattern(n=observed.shape.n, indices=indices, mode=mode)
    truth = None
    if (path / "signal.hnkz").is_file():
        truth = load_signal(path / "signal.hnkz")
    return observed, pattern, truth, meta


def cmd_recover(params: dict, seed: int, out: Path) -> int:
    if not params["input"]:
        raise ConfigError("recover needs input=DIR pointing at generated files")
    observed, pattern, truth, meta = _load_instance_dir(Path(params["input"]))
    rank = params["r"] or meta.get("r") or 0
    if rank < 1:
        raise ConfigError("rank r must be given (or present in meta.json)")
    alpha = params["alpha"]
    if alpha < 0:
        alpha = float(meta.get("alpha", 0.0))
    if params["solver"] not in ("hsnld", "plaingd"):
        raise ConfigError("solver must be 'hsnld' or 'plaingd'")
    config = _solver_config(params, rank, alpha, seed, bound=params["bound"])
    runner = run_hsnld if params["solver"] == "hsnld" else run_plain_gd
    start = time.perf_counter()
    report = runner(
        observed.z,
        pattern,
        observed.shape,
        config,
        ground_truth=None if truth is None else truth.z,
    )
    seconds = time.perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    success = _trial_success(report) if truth is not None else (
        report.termination == "residual_tol"
    )
    _write_json(
        out / "summary.json",
        {
            "success": bool(success),
            "err": None if truth is None else report.final_error,
            "iters": report.iterations,
            "seconds": seconds,
            "termination": report.termination,
            "config": {**params, "rank": rank, "alpha": alpha, "seed": seed},
        },
    )
    _write_csv(out / "trace.csv", ["iter", "residual", "err", "ms"], _trace_rows(report))
    return 0


def cmd_converge(params: dict, seed: int, out: Path) -> int:
    kappas = params["kappas"]
    if not kappas:
        raise ConfigError("converge needs a nonempty kappas list")
    solvers = params["solvers"]
    for solver in solvers:
        if solver not in ("hsnld", "plaingd"):
            raise ConfigError(f"unknown solver {solver!r}")
    n = params["n"]
    m = math.ceil(params["p"] * n)
    rows = []
    for kappa in kappas:
        for solver in solvers:
            runner = run_hsnld if solver == "hsnld" else run_plain_gd
            traces = []
            status = "ok"
            try:
                for t in range(params["trials"]):
                    cell_seed = derive_seed(seed, "converge", kappa, t)
                    sig, pattern, f_obs, _ = _make_instance(
                        n, params["r"], kappa, m, params["alpha"],
                        params["magnitude_scale"], cell_seed,
                    )
                    config = _solver_config(params, params["r"], params["alpha"], cell_seed)
                    traces.append(runner(f_obs, pattern, sig.shape, config, ground_truth=sig.z))
            except (RuntimeError, ValueError) as exc:
                status = f"error: {exc}"
                rows.append([solver, _fmt(kappa), -1, "nan", "nan", "nan", status])
                continue
            depth = max(len(rep.records) for rep in traces)
            for it in range(depth):
                res, errs, secs = [], [], []
                for rep in traces:
                    rec = rep.records[min(it, len(rep.records) - 1)]
                    res.append(rec.residual)
                    errs.append(rec.error)
                    secs.append(rec.seconds)
                rows.append(
                    [
                        solver,
                        _fmt(kappa),
                        it,
                        _fmt(float(np.mean(res))),
                        _fmt(float(np.mean(errs))),
                        _fmt(float(np.mean(secs))),
                        status,
                    ]
                )
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "converge.csv",
        ["solver", "kappa", "iter", "residual", "err", "seconds", "status"],
        rows,
    )
    return 0


def _phase_axes(params: dict):
    axes = []
    for name in ("m", "alpha", "r"):
        values = params[f"{name}_values"]
        if values:
            axes.append((name, values))
    if len(axes) != 2:
        raise ConfigError("phase needs exactly two of m_values/alpha_values/r_values")
    return axes


def _phase_trial(params, seed, x_axis, y_axis, x, y, trial):
    cell = {"m": params["m"] or params["n"], "alpha": params["alpha"], "r": params["r"]}
    cell[x_axis] = x
    cell[y_axis] = y
    n = params["n"]
    m = int(round(cell["m"]))
    rank = int(round(cell["r"]))
    alpha = float(cell["alpha"])
    trial_seed = derive_seed(seed, "phase", x_axis, x, y_axis, y, trial)
    try:
        sig, pattern, f_obs, _ = _make_instance(
            n, rank, params["kappa"], m, alpha, params["magnitude_scale"], trial_seed
        )
        config = _solver_config(params, rank, alpha, trial_seed)
        report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
        return _trial_success(report)
    except (ValueError, RuntimeError):
        return False


def cmd_phase(params: dict, seed: int, out: Path) -> int:
    (x_axis, x_values), (y_axis, y_values) = _phase_axes(params)
    trials = params["trials"]
    rows = []
    for x in x_values:
        for y in y_values:
            successes = sum(
                _phase_trial(params, seed, x_axis, y_axis, x, y, t) for t in range(trials)
            )
            rows.append([_fmt(float(x)), _fmt(float(y)), successes, trials])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "phase.csv", [x_axis, y_axis, "successes", "trials"], rows)
    return 0


def cmd_doa(params: dict, seed: int, out: Path) -> int:
    n = params["n"]
    thetas = params["thetas"]
    rank = params["r"] or len(thetas)
    sig = doa_signal(n, thetas)
    m = math.ceil(params["p"] * n)
    pattern, f_obs, _ = _observe(
        sig, m, WITHOUT_REPLACEMENT, params["alpha"], params["magnitude_scale"], seed
    )
    config = _solver_config(params, rank, params["alpha"], seed)
    start = time.perf_counter()
    report = run_hsnld(f_obs, pattern, sig.shape, config, ground_truth=sig.z)
    seconds = time.perf_counter() - start
    errors = report.errors()
    hits = np.flatnonzero(errors <= params["error_tol"])
    reached = int(hits[0]) if hits.size else -1
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "summary.json",
        {
            "success": bool(reached >= 0),
            "err": report.final_error,
            "iters": reached,
            "iters_run": report.iterations,
            "seconds": seconds,
            "termination": report.termination,
            "config": {**params, "rank": rank, "m": m, "seed": seed},
        },
    )
    _write_csv(out / "trace.csv", ["iter", "residual", "err", "ms"], _trace_rows(report))
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
        seed = 0
        out = Path(".")
        config_file = None
        rest = []
        i = 0
        while i < len(argv):
            tok = argv[i]
            if tok in ("--config", "--seed", "--threads", "--out"):
                if i + 1 >= len(argv):
                    raise ConfigError(f"flag {tok} is missing a value")
                value = argv[i + 1]
                if tok == "--config":
                    config_file = value
                elif tok == "--seed":
                    seed = _parse_int("seed", value)
                elif tok == "--threads":
                    # accepted and checked; trials always run on one thread
                    if _parse_int("threads", value) < 1:
                        raise ConfigError("threads must be >= 1")
                else:
                    out = Path(value)
                i += 2
            else:
                rest.append(tok)
                i += 1
        raw = {}
        if config_file:
            try:
                raw.update(json.loads(Path(config_file).read_text()))
            except FileNotFoundError as exc:
                raise ConfigError(f"config file not found: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config file: {exc}") from exc
        raw.update(_parse_overrides(rest))
        if "seed" in raw:
            seed = _parse_int("seed", raw.pop("seed"))
        params = _apply_schema(command, raw)
        return _COMMANDS[command](params, seed, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
