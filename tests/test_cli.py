import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hankelx
from hankelx import cli
from hankelx.cli import derive_seed, main
from hankelx.recovery import RecoveryConfig
from hankelx.signals import OutlierSpec, condition_number, load_signal


def run_cli(*args):
    return main(list(args))


def test_unknown_command_exit_2(capsys):
    assert run_cli("frobnicate") == 2


def test_unknown_key_exit_2(tmp_path, capsys):
    assert run_cli("gen", "kind=spectral", "n=64", "r=2", "bogus=1") == 2
    # the global keys come from the command line only
    cfg = tmp_path / "cfg.json"
    for key, value in (("out", str(tmp_path / "o")), ("threads", 2), ("config", str(cfg))):
        cfg.write_text(json.dumps({"kind": "spectral", "n": 64, "r": 2, key: value}))
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_gen_invalid_rank_exit_2(tmp_path, capsys):
    assert run_cli("gen", "--out", str(tmp_path), "kind=spectral", "n=64", "r=40") == 2


def test_gen_non_integer_seed_exit_2(tmp_path, capsys):
    args = ["gen", "--out", str(tmp_path), "kind=spectral", "n=64", "r=2"]
    assert run_cli(*args, "--seed", "x") == 2
    assert run_cli(*args, "seed=x") == 2
    assert "seed must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "meta.json").exists()


def test_gen_missing_config_file_exit_2(tmp_path, capsys):
    assert run_cli("gen", "--config", str(tmp_path / "nope.json")) == 2
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert run_cli("gen", "--config", str(cfg)) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_config_file_unreadable_exit_2(tmp_path, capsys):
    # a directory, and bytes that are not UTF-8
    binary = tmp_path / "cfg.json"
    binary.write_bytes(b'\xff\xfe{"n": 64}')
    out = tmp_path / "out"
    for cfg in (tmp_path, binary):
        assert run_cli("gen", "--config", str(cfg), "--out", str(out)) == 2
        assert "cannot read config file" in capsys.readouterr().err
    assert not out.exists()


def test_gen_spectral_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["gen", "--seed", "7", "kind=spectral", "n=255", "r=5", "kappa=10"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert (out1 / "signal.hnkz").read_bytes() == (out2 / "signal.hnkz").read_bytes()
    assert (out1 / "observed.hnkz").read_bytes() == (out2 / "observed.hnkz").read_bytes()
    assert (out1 / "pattern.csv").read_text() == (out2 / "pattern.csv").read_text()
    sig = load_signal(out1 / "signal.hnkz")
    assert sig.shape.n == 255
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["r"] == 5 and meta["m"] == 255


def test_gen_flag_and_kv_forms_agree(tmp_path):
    out1 = tmp_path / "flags"
    out2 = tmp_path / "kv"
    assert run_cli("gen", "--out", str(out1), "--seed", "3",
                   "--kind", "spectral", "--n", "64", "--r", "2") == 0
    assert run_cli("gen", "--out", str(out2), "--seed", "3",
                   "kind=spectral", "n=64", "r=2") == 0
    assert (out1 / "signal.hnkz").read_bytes() == (out2 / "signal.hnkz").read_bytes()


def test_gen_doa_file_condition_number(tmp_path):
    out = tmp_path / "doa"
    assert run_cli("gen", "--out", str(out), "kind=doa", "n=4096",
                   "thetas=87,87.1,87.3") == 0
    sig = load_signal(out / "signal.hnkz")
    est = condition_number(sig, 3, seed=0)
    assert abs(est.kappa - 5742.502) <= 0.01 * 5742.502


def test_recover_clean_instance(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "result"
    assert run_cli("gen", "--out", str(data), "--seed", "5",
                   "kind=spectral", "n=255", "r=3", "kappa=2") == 0
    assert run_cli("recover", "--out", str(out), f"input={data}") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["success"] is True
    assert summary["err"] <= 1e-5
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,residual,err,ms"
    assert len(trace) == summary["iters"] + 2


def test_recover_pathological_graceful(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "result"
    assert run_cli("gen", "--out", str(data), "--seed", "6", "kind=spectral",
                   "n=125", "r=10", "kappa=10", "m=40", "alpha=0.9") == 0
    assert run_cli("recover", "--out", str(out), f"input={data}", "max_iters=60") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["success"] is False


def test_recover_diverged_summary_is_strict_json(tmp_path, capsys, monkeypatch):
    # the real report, ended as a diverging solve ends: a non-finite last record
    solve = cli.run_hsnld

    def diverging(*args, **kwargs):
        report = solve(*args, **kwargs)
        report.records[-1] = replace(report.records[-1], residual=math.inf, error=math.nan)
        return replace(report, termination="diverged")

    monkeypatch.setattr(cli, "run_hsnld", diverging)
    data = tmp_path / "data"
    out = tmp_path / "result"
    assert run_cli("gen", "--out", str(data), "--seed", "7", "kind=spectral",
                   "n=255", "r=5", "kappa=10", "p=0.6", "alpha=0.1") == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("recover", "--out", str(out), "--seed", "2", f"input={data}") == 0
    assert capsys.readouterr().err == ""

    def strict(name):
        raise ValueError(f"non-standard JSON constant {name}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
    assert summary["termination"] == "diverged"
    assert summary["err"] is None and summary["success"] is False


def test_recover_bound_in_config_file_exit_2(tmp_path, capsys):
    # the incoherence radius is always estimated, from a file as from argv
    data = tmp_path / "gen"
    assert run_cli("gen", "--out", str(data), "kind=spectral", "n=64", "r=2") == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(data), "bound": 5.0}))
    assert run_cli("recover", "--config", str(cfg), "--out", str(tmp_path / "r")) == 2
    assert "unknown key 'bound' for command 'recover'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_recover_summary_is_independent_of_key_order(tmp_path):
    # the config is echoed in schema order, whatever order the keys came in
    data = tmp_path / "gen"
    assert run_cli("gen", "--out", str(data), "kind=spectral", "n=64", "r=2") == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "hsnld", "eta": 0.5}))
    summaries = set()
    for i, args in enumerate(([f"input={data}", "eta=0.5"], ["eta=0.5", f"input={data}"],
                              ["--config", str(cfg), f"input={data}"])):
        out = tmp_path / f"r{i}"
        assert run_cli("recover", "--out", str(out), *args) == 0
        summary = json.loads((out / "summary.json").read_text())
        del summary["seconds"]
        summaries.add(json.dumps(summary))
    assert len(summaries) == 1


def test_recover_missing_input_exit_2(tmp_path, capsys):
    assert run_cli("recover", f"input={tmp_path / 'absent'}") == 2
    data = tmp_path / "data"
    assert run_cli("gen", "--out", str(data), "kind=spectral", "n=64", "r=2") == 0
    (data / "pattern.csv").write_text("")
    assert run_cli("recover", "--out", str(tmp_path / "r"), f"input={data}") == 2
    assert "lists no indices" in capsys.readouterr().err


def _failing_hsnld(*args, **kwargs):
    raise RuntimeError("solver blew up")


def _singular_hsnld(*args, **kwargs):
    raise np.linalg.LinAlgError("solver blew up")


def _refusing_hsnld(*args, **kwargs):
    raise ValueError("input refused")


def test_recover_degenerate_gram_writes_report(tmp_path):
    data = tmp_path / "data"
    # rank-1 data solved at rank 2 collapses the factor Gram matrix at once
    assert run_cli("gen", "--out", str(data), "--seed", "8",
                   "kind=spectral", "n=64", "r=1") == 0
    out = tmp_path / "r"
    assert run_cli("recover", "--out", str(out), f"input={data}", "r=2", "tol_residual=0") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "degenerate_gram"
    assert summary["iters"] == 0
    assert summary["success"] is False
    assert len((out / "trace.csv").read_text().splitlines()) == 2


def test_recover_solver_error_exit_1(tmp_path, monkeypatch, capsys):
    # a failed solve exits 1 and writes no report
    data = tmp_path / "data"
    assert run_cli("gen", "--out", str(data), "--seed", "8",
                   "kind=spectral", "n=64", "r=1") == 0
    out = tmp_path / "r"
    for failing in (_failing_hsnld, _singular_hsnld):
        monkeypatch.setattr(cli, "run_hsnld", failing)
        assert run_cli("recover", "--out", str(out), f"input={data}", "r=1") == 1
        assert capsys.readouterr().err == "solver error: solver blew up\n"
        assert not out.exists()


def test_solver_refusal_exit_2(tmp_path, monkeypatch, capsys):
    # any other ValueError is refused input: exit 2, in a grid too, and no report
    data = tmp_path / "data"
    assert run_cli("gen", "--out", str(data), "kind=spectral", "n=64", "r=1") == 0
    monkeypatch.setattr(cli, "run_hsnld", _refusing_hsnld)
    out = tmp_path / "r"
    for args in (["recover", f"input={data}"],
                 ["phase", "n=64", "r=2", "m_values=64", "alpha_values=0", "trials=1"]):
        assert run_cli(args[0], "--out", str(out), *args[1:]) == 2
        assert capsys.readouterr().err == "error: input refused\n"
        assert not out.exists()


def test_converge_small_grid(tmp_path):
    out = tmp_path / "conv"
    assert run_cli("converge", "--out", str(out), "--seed", "4", "n=127", "r=2",
                   "kappas=1,5", "trials=2", "max_iters=200") == 0
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[0] == "solver,kappa,iter,residual,err,seconds,status"
    assert any(line.startswith("hsnld,1.0,0,") for line in lines[1:])
    assert any(line.startswith("plaingd,5.0,") for line in lines[1:])


def test_converge_solvers_share_each_kappas_instances(tmp_path):
    # both solvers start from the same instances, so their iterate-0 means agree per kappa
    out = tmp_path / "conv"
    assert run_cli("converge", "--out", str(out), "--seed", "4", "n=127", "r=2",
                   "kappas=1,5", "trials=2", "max_iters=200") == 0
    header, *rows = _read_rows(out / "converge.csv")
    start = {(row[0], row[1]): row[3:5] for row in rows if row[2] == "0"}
    assert header[3:5] == ["residual", "err"]
    assert sorted(start) == [(s, k) for s in ("hsnld", "plaingd") for k in ("1.0", "5.0")]
    for kappa in ("1.0", "5.0"):
        assert start["hsnld", kappa] == start["plaingd", kappa]


def test_converge_trials_csv_names_a_degenerate_gram(tmp_path):
    # at kappa 1e13 the first trial's factor Gram collapses before the cap
    out = tmp_path / "conv"
    assert run_cli("converge", "--out", str(out), "--seed", "0", "n=64", "r=2", "kappas=1e13",
                   "p=1", "trials=1", "tol_residual=0", "max_iters=50", "solvers=hsnld") == 0
    ((_, _, _, termination, iterations, err),) = _read_rows(out / "trials.csv")[1:]
    assert termination == "degenerate_gram"
    assert 0 < int(iterations) < 50 and float(err) < 1e-9
    # the collapsed cell writes its trace, up to the iterate it stopped at
    lines = (out / "converge.csv").read_text().splitlines()[1:]
    assert len(lines) == int(iterations) + 1
    assert all(line.endswith(",ok") for line in lines)
    assert lines[-1].split(",")[4] == err


def test_grid_trials_csv_names_an_error(tmp_path, monkeypatch):
    for failing in (_failing_hsnld, _singular_hsnld):
        _check_grid_names_an_error(tmp_path / failing.__name__, monkeypatch, failing)


def _check_grid_names_an_error(tmp_path, monkeypatch, failing):
    monkeypatch.setattr(cli, "run_hsnld", failing)
    args = ["converge", "--seed", "4", "n=64", "r=2", "kappas=1,2", "trials=2", "max_iters=50"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    header, *rows = _read_rows(out1 / "trials.csv")
    assert header == ["kappa", "solver", "trial", "termination", "iterations", "err"]
    # one row per trial, in cell order
    assert [row[:3] for row in rows] == [
        [k, s, str(t)] for k in ("1.0", "2.0") for s in ("hsnld", "plaingd") for t in range(2)
    ]
    for kappa, solver, _, termination, iterations, err in rows:
        if solver == "hsnld":
            assert [termination, iterations, err] == ["error", "-1", "nan"]
        else:
            assert termination != "error" and np.isfinite(float(err))
    # converge.csv keeps one error row per failed cell and the trace of the others
    lines = (out1 / "converge.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("hsnld,")] == [
        f"hsnld,{k},-1,nan,nan,nan,error: solver blew up" for k in ("1.0", "2.0")
    ]
    assert any(line.startswith("plaingd,2.0,0,") and line.endswith(",ok") for line in lines)
    # phase names the same outcome, and counts no success
    out = tmp_path / "phase"
    assert run_cli("phase", "--out", str(out), "n=64", "r=2", "m_values=64",
                   "alpha_values=0", "trials=1") == 0
    assert (out / "phase.csv").read_text().splitlines()[1] == "64.0,0.0,0,1"
    assert (out / "trials.csv").read_text().splitlines()[1] == "64.0,0.0,0,error,-1,nan"


def test_summary_seconds_is_the_trace_clock(tmp_path):
    data = tmp_path / "data"
    assert run_cli("gen", "--out", str(data), "--seed", "5",
                   "kind=spectral", "n=255", "r=3", "kappa=2") == 0
    for name, args in (("recover", [f"input={data}"]), ("doa", ["n=1024", "p=0.2"])):
        out = tmp_path / name
        assert run_cli(name, "--out", str(out), *args) == 0
        seconds = json.loads((out / "summary.json").read_text())["seconds"]
        last_ms = (out / "trace.csv").read_text().splitlines()[-1].split(",")[-1]
        assert seconds * 1000.0 == float(last_ms)


def test_converge_empty_kappas_exit_2(capsys):
    assert run_cli("converge", "kappas=") == 2


def test_config_file_lists(tmp_path, capsys):
    # a JSON list has each item cast, as a comma-separated string has its tokens
    cfg = tmp_path / "cfg.json"
    grid = {"n": 64, "r": 2, "trials": 1, "max_iters": 50}
    cfg.write_text(json.dumps({**grid, "kappas": [1, "2"], "solvers": ["hsnld"]}))
    assert run_cli("converge", "--config", str(cfg), "--out", str(tmp_path / "file")) == 0
    assert run_cli("converge", "--out", str(tmp_path / "line"), "kappas=1,2", "solvers=hsnld",
                   *(f"{key}={value}" for key, value in grid.items())) == 0
    trials = [(tmp_path / side / "trials.csv").read_bytes() for side in ("file", "line")]
    assert trials[0] == trials[1]
    assert len(trials[0].splitlines()) == 3

    cfg.write_text(json.dumps({"n": 256, "p": 0.5, "max_iters": 2, "thetas": [87, "87.1", 87.3]}))
    assert run_cli("doa", "--config", str(cfg), "--out", str(tmp_path / "doa")) == 0
    summary = json.loads((tmp_path / "doa" / "summary.json").read_text())
    assert summary["config"]["thetas"] == [87.0, 87.1, 87.3]
    # an empty item is refused, where the string form drops an empty token
    cfg.write_text(json.dumps({"thetas": [87, ""]}))
    assert run_cli("doa", "--config", str(cfg), "--out", str(tmp_path / "empty")) == 2
    assert "bad value for 'thetas'" in capsys.readouterr().err


def _text(content):
    return lambda path: path.write_text(content)


def _short_signal(path):
    hankelx.save_signal(path, hankelx.reweight(np.ones(10), hankelx.HankelShape.square(10)))


def _set_entries(index, value):
    """A file edit that sets entries of a saved signal."""
    def edit(path):
        sig = hankelx.load_signal(path)
        z = sig.z.copy()
        z[index] = value
        hankelx.save_signal(path, hankelx.WeightedSignal(sig.shape, z))
    return edit


def _resplit(n1):
    """A file edit that re-saves a signal's raw values at another Hankel split."""
    def edit(path):
        x = hankelx.unweight(hankelx.load_signal(path))
        hankelx.save_signal(path, hankelx.reweight(x, hankelx.HankelShape(n1, x.size - n1 + 1)))
    return edit


# input the library rejects while a command sets up, before any solve; a
# trailing dict rewrites files of the generated input directory first
@pytest.mark.parametrize("args, named", [
    (["gen", "kind=spectral", "n=64", "r=2", "m=100"], "cannot draw 100 distinct"),
    (["gen", "kind=spectral", "n=64", "r=2", "alpha=1.5"], "alpha must lie in [0, 1], got 1.5"),
    (["doa", "p=0"], "m must be >= 1, got 0"),
    (["phase", "n=64", "r=2", "m_values=40,100", "alpha_values=0", "trials=1"],
     "cannot draw 100 distinct"),
    (["phase", "n=64", "m_values=64", "r_values=2,40", "trials=1"], "rank 40 not in [1, 32]"),
    (["phase", "n=64", "r=2", "m_values=64", "alpha_values=0", "eta=2"],
     "eta must lie in [0, 1], got 2.0"),
    (["phase", "n=64", "r=2", "m_values=64", "alpha_values=0", "trials=0"],
     "trials must be >= 1, got 0"),
    (["converge", "n=64", "r=2", "kappas=1", "eta=2"], "eta must lie in [0, 1], got 2.0"),
    (["converge", "n=64", "r=2", "kappas=1", "trials=0"], "trials must be >= 1, got 0"),
    (["converge", "n=64", "r=2", "kappas=1", "solvers="],
     "converge needs a nonempty solvers list"),
    (["recover", "input={gen}", "r=100"], "rank 100 not in [1, 32]"),
    (["doa", "n=1"], "rank 3 not in [1, 1]"),
    (["recover", "input={gen}", "tol_residual=nan"], "tol_residual must be finite and >= 0"),
    # the incoherence radius is always estimated
    (["recover", "input={gen}", "bound=inf"], "unknown key 'bound' for command 'recover'"),
    (["recover", "input={gen}", {"pattern.csv": _text("index\n1\n\n2\n")}],
     "pattern.csv index must be an integer, got ''"),
    (["recover", "input={gen}", {"meta.json": _text("[2]")}], "meta.json must hold a JSON object"),
    (["recover", "input={gen}", {"meta.json": _text('{"r": 2.5}')}],
     "r must be an integer, got 2.5"),
    (["recover", "input={gen}", {"meta.json": _text('{"r": 2, "alpha": "high"}')}],
     "bad value for 'alpha'"),
    (["recover", "input={gen}", {"signal.hnkz": _short_signal}],
     "signal.hnkz length 10 != observed 64"),
    (["recover", "input={gen}", {"signal.hnkz": lambda p: p.write_bytes(p.read_bytes()[:12])}],
     "signal.hnkz: truncated header"),
    (["gen", "kind=spectral", "n=64", "r=2", "kappa=nan"], "kappa must be finite and >= 1, got nan"),
    (["gen", "kind=spectral", "n=64", "r=2", "kappa=inf"], "kappa must be finite and >= 1, got inf"),
    (["phase", "n=64", "r=2", "kappa=nan", "m_values=64", "alpha_values=0", "trials=1"],
     "kappa must be finite and >= 1, got nan"),
    (["converge", "n=64", "r=2", "kappas=nan", "trials=1"], "kappa must be finite and >= 1, got nan"),
    (["gen", "kind=spectral", "n=64", "r=2", "alpha=0.1", "magnitude_scale=inf"],
     "magnitude_scale must be finite, got inf"),
    (["gen", "kind=spectral", "n=64", "r=2", "alpha=0.1", "magnitude_scale=nan"],
     "magnitude_scale must be finite, got nan"),
    (["converge", "n=64", "r=2", "kappas=1", "trials=1", "magnitude_scale=inf"],
     "magnitude_scale must be finite, got inf"),
    (["doa", "n=64", "thetas=87,nan"], "thetas and gains must be finite"),
    (["gen", "kind=spectral", "n=64", "r=2", "p=nan"], "p must be finite, got nan"),
    (["converge", "n=64", "r=2", "kappas=1", "trials=1", "p=nan"], "p must be finite, got nan"),
    (["gen", "kind=spectral", "n=64", "r=32"], "could not draw 32 frequencies 1/64 apart"),
    # an explicit value is never read as "not given"
    (["gen", "kind=spectral", "n=100", "r=2", "m=0"], "m must be >= 1, got 0"),
    (["gen", "kind=spectral", "n=100", "r=2", "p=0"], "m must be >= 1, got 0"),
    (["gen", "kind=spectral", "n=100", "r=2", "p=-0.5"], "m must be >= 1, got -50"),
    (["gen", "kind=spectral", "n=100", "r=2", "alpha=0.1", "magnitude_scale=-1"],
     "magnitude_scale must be >= 0, got -1.0"),
    (["recover", "input={gen}", "alpha=-1"], "alpha must lie in [0, 1], got -1.0"),
    (["recover", "input={gen}", "r=-1"], "rank must be an integer >= 1, got -1"),
    (["doa", "n=256", "r=0"], "rank must be an integer >= 1, got 0"),
    (["phase", "n=64", "m=0", "alpha_values=0", "r_values=2", "trials=1"],
     "m must be >= 1, got 0"),
    (["phase", "n=64", "r=2", "m_values=30.5,40", "alpha_values=0", "trials=1"],
     "m_values must be an integer, got 30.5"),
    (["phase", "n=64", "m_values=64", "r_values=2.5", "trials=1"],
     "r_values must be an integer, got 2.5"),
    # a run accepts only the keys it reads
    (["gen", "kind=doa", "n=64", "r=5", "kappa=3"], "gen kind=doa does not read r, kappa"),
    (["gen", "kind=spectral", "n=64", "r=2", "thetas=1"], "gen kind=spectral does not read thetas"),
    (["gen", "kind=spectral", "n=100", "r=2", "m=50", "p=0.3"],
     "gen kind=spectral does not read p"),
    (["phase", "n=64", "alpha=0.9", "m_values=64", "alpha_values=0", "trials=1"],
     "phase does not read alpha when alpha_values is given"),
    (["phase", "n=64", "r=2", "m_values=64", "r_values=2", "trials=1"],
     "phase does not read r when r_values is given"),
    (["phase", "n=64", "m=40", "m_values=64", "alpha_values=0", "trials=1"],
     "phase does not read m when m_values is given"),
    # input the solver would refuse before its first iterate
    (["recover", "input={gen}", {"pattern.csv": _text("index\n0\n1\n2\n")}],
     "observed vector has nonzeros off the sampling pattern"),
    (["recover", "input={gen}", {"observed.hnkz": _set_entries(5, np.nan)}],
     "observed vector has non-finite entries"),
    (["recover", "input={gen}", {"signal.hnkz": _set_entries(slice(None), 0)}],
     "ground truth norm must be finite and nonzero, got 0.0"),
    (["recover", "input={gen}", {"signal.hnkz": _set_entries(5, np.nan)}],
     "ground truth norm must be finite and nonzero, got nan"),
    (["doa", "error_tol=nan"], "error_tol must be finite and >= 0, got nan"),
    (["doa", "error_tol=inf"], "error_tol must be finite and >= 0, got inf"),
    (["doa", "error_tol=-1"], "error_tol must be finite and >= 0, got -1.0"),
    # refusals of malformed input files and arguments
    (["recover", "input={gen}", {"pattern.csv": _text("index\n1\n1\n")}],
     "without-replacement pattern has repeated indices"),
    (["recover", "input={gen}", {"pattern.csv": _text("index\n64\n")}], "indices out of range"),
    (["recover", "input={gen}", {"meta.json": _text('{"r": 2, "mode": "bogus"}')}],
     "unknown sampling mode 'bogus'"),
    (["recover", "input={gen}", {"observed.hnkz": lambda p: p.write_bytes(p.read_bytes()[:100])}],
     "observed.hnkz: truncated payload"),
    (["recover", "input={gen}", {"observed.hnkz": lambda p: p.write_bytes(
        b"HNKZ\x02" + p.read_bytes()[5:])}], "observed.hnkz: unsupported version 2"),
    (["gen", "n=64"], "kind must be 'spectral' or 'doa'"),
    (["gen", "kind=spectral", "n=1"], "n must be an integer >= 2"),
    (["recover"], "recover needs input=DIR"),
    (["recover", "input={gen}", {"meta.json": _text("{}")}], "rank r must be given"),
    (["recover", "input={gen}", "solver=bogus"], "unknown solver 'bogus'"),
    (["doa", "thetas="], "thetas and gains must have equal positive length"),
    # this test module is not JSON
    (["gen", "--config", __file__], "bad config file"),
    (["gen", "kind=spectral", "n=64", "r=2", "--seed"], "flag --seed is missing a value"),
    (["gen", "frob"], "cannot parse argument 'frob'"),
    (["recover", "input={gen}", {"signal.hnkz": _resplit(20)}],
     "signal.hnkz split 20x45 != observed 33x32"),
    (["recover", "input={gen}", {"observed.hnkz": lambda p: p.write_bytes(
        p.read_bytes() + bytes(16))}], "observed.hnkz: trailing bytes after the payload"),
    (["gen", "kind=spectral", "n=64", "r=2", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["gen", "kind=spectral", "n=64", "r=2", f"seed={2**64}"],
     f"seed must be < 2**64, got {2**64}"),
], ids=["gen-m", "gen-alpha", "doa-p", "phase-m", "phase-r", "phase-eta", "phase-trials",
        "converge-eta", "converge-trials", "converge-solvers", "recover-r", "doa-n",
        "recover-tol-nan", "recover-bound-inf", "recover-pattern-blank-line",
        "recover-meta-not-object", "recover-meta-r", "recover-meta-alpha", "recover-truth-length",
        "recover-truth-truncated", "gen-kappa-nan", "gen-kappa-inf", "phase-kappa-nan",
        "converge-kappa-nan", "gen-scale-inf", "gen-scale-nan", "converge-scale-inf",
        "doa-theta-nan", "gen-p-nan", "converge-p-nan", "gen-unseparable",
        "gen-m-zero", "gen-p-zero", "gen-p-negative", "gen-scale-negative",
        "recover-alpha-negative", "recover-r-negative", "doa-r-zero", "phase-m-zero",
        "phase-m-values-fraction", "phase-r-values-fraction", "gen-doa-unread",
        "gen-spectral-unread", "gen-m-and-p", "phase-alpha-and-axis", "phase-r-and-axis",
        "phase-m-and-axis", "recover-off-pattern", "recover-observed-nan", "recover-truth-zero",
        "recover-truth-nan", "doa-error-tol-nan", "doa-error-tol-inf", "doa-error-tol-negative",
        "recover-pattern-repeated", "recover-pattern-out-of-range", "recover-meta-mode",
        "recover-observed-truncated", "recover-observed-version", "gen-no-kind", "gen-n-one",
        "recover-no-input", "recover-no-rank", "recover-solver", "doa-thetas-empty",
        "config-not-json", "flag-without-value", "bare-token", "recover-truth-split",
        "recover-observed-trailing", "seed-negative", "seed-too-large"])
def test_setup_rejection_exit_2(tmp_path, capsys, args, named):
    if "input={gen}" in args:
        data = tmp_path / "gen"
        assert run_cli("gen", "--out", str(data), "kind=spectral", "n=64", "r=2") == 0
        edits = args[-1] if isinstance(args[-1], dict) else {}
        for name, edit in edits.items():
            edit(data / name)
        args = [f"input={data}" if a == "input={gen}" else a for a in args if a is not edits]
    out = tmp_path / "out"
    # --out goes first, so a flag can end the arguments
    assert run_cli(args[0], "--out", str(out), *args[1:]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def _arg(value):
    return ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)


# tiny runs of each command; phase takes the two axes its tested key is not
_TINY = {
    "gen": ["kind=spectral", "n=64", "r=2"],
    "recover": [],
    "converge": ["n=64", "r=2", "kappas=1", "trials=1", "max_iters=50", "solvers=hsnld"],
    "phase": ["n=64", "trials=1", "max_iters=50"],
    "doa": ["n=1024", "p=0.2", "max_iters=20"],
}
# keys whose None default the command resolves to this value
_RESOLVED = [("gen", "kappa", 1.0), ("gen", "thetas", [87.0, 87.1, 87.3]),
             ("phase", "r", 10), ("phase", "alpha", 0.0)]
_DEFAULTS = [(command, key, default) for command, schema in cli._SCHEMAS.items()
             for key, (_, default) in schema.items() if default is not None] + _RESOLVED


@pytest.mark.parametrize("command, key, default", _DEFAULTS,
                         ids=[f"{c}-{k}" for c, k, _ in _DEFAULTS])
def test_explicit_default_runs(tmp_path, command, key, default):
    # a default given explicitly is a value like any other, never "not given"
    args = ["kind=doa", "n=64"] if key == "thetas" and command == "gen" else list(_TINY[command])
    if command == "recover":
        data = tmp_path / "gen"
        assert run_cli("gen", "--out", str(data), "kind=spectral", "n=64", "r=2") == 0
        args.append(f"input={data}")
    if command == "phase":
        axes = ["m_values=64", "alpha_values=0", "r_values=2"]
        args += [a for a in axes if a.split("=")[0] not in (key, f"{key}_values")][:2]
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), *args, f"{key}={_arg(default)}") == 0
    if (command, key, default) in _RESOLVED:
        # and a resolved default given is the same run as the key left out
        assert run_cli(command, "--out", str(tmp_path / "left_out"), *args) == 0
        for path in out.iterdir():
            assert path.read_bytes() == (tmp_path / "left_out" / path.name).read_bytes()


@pytest.mark.parametrize("args, m", [
    (["p=0.07"], 7),  # 0.07 * 100 is 7.000000000000001
    (["mode=with_replacement", "p=1.5"], 150),
])
def test_gen_sample_count(tmp_path, args, m):
    assert run_cli("gen", "--out", str(tmp_path), "kind=spectral", "n=100", "r=2", *args) == 0
    assert json.loads((tmp_path / "meta.json").read_text())["m"] == m


def test_out_that_is_not_a_directory_exit_2(tmp_path, capsys):
    # refused before the grid runs, and the file is left as it was
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "sub"):
        assert run_cli("phase", "--out", str(out), "n=64", "r=2", "m_values=64",
                       "alpha_values=0", "trials=1") == 2
        assert f"{taken} exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep"


def test_phase_single_cell(tmp_path):
    out = tmp_path / "phase"
    assert run_cli("phase", "--out", str(out), "--seed", "2", "n=64", "r=2",
                   "kappa=2", "m_values=64", "alpha_values=0", "trials=3") == 0
    lines = (out / "phase.csv").read_text().splitlines()
    assert lines[0] == "m,alpha,successes,trials"
    assert lines[1] == "64.0,0.0,3,3"
    assert len(lines) == 2


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_phase_trials_csv_adds_up_to_phase_csv(tmp_path):
    args = ["phase", "--seed", "3", "n=125", "r=10", "kappa=10", "m_values=30,125",
            "alpha_values=0,0.3", "trials=2", "max_iters=150"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    header, *rows = _read_rows(out1 / "trials.csv")
    assert header == ["m", "alpha", "trial", "termination", "iterations", "err"]
    # one row per trial, in grid order
    assert [row[:3] for row in rows] == [
        [m, a, str(t)] for m in ("30.0", "125.0") for a in ("0.0", "0.3") for t in range(2)
    ]
    assert {row[3] for row in rows} == {"clipped", "max_iters", "residual_tol"}
    successes = {}
    for m, a, _, termination, _, err in rows:
        won = termination == "residual_tol" and float(err) <= cli.SUCCESS_ERROR_TOL
        successes[m, a] = successes.get((m, a), 0) + won
    phase = _read_rows(out1 / "phase.csv")[1:]
    assert [[m, a, str(successes[m, a]), "2"] for m, a in successes] == phase


def test_phase_cell_trials_do_not_depend_on_the_rest_of_the_grid(tmp_path):
    # each trial's seed comes from its own cell and index, so a cell run alone gives its rows
    args = ["phase", "--seed", "7", "n=64", "r=2", "kappa=2", "alpha_values=0,0.1",
            "trials=2", "max_iters=150"]
    assert run_cli(*args, "m_values=40,64", "--out", str(tmp_path / "both")) == 0
    assert run_cli(*args, "m_values=64", "--out", str(tmp_path / "alone")) == 0
    both = [row for row in _read_rows(tmp_path / "both" / "trials.csv")[1:] if row[0] == "64.0"]
    alone = _read_rows(tmp_path / "alone" / "trials.csv")[1:]
    assert len(alone) == 4
    assert both == alone


def test_phase_names_a_degenerate_gram(tmp_path):
    # at kappa 1e13 the initialization's factor Gram already collapses; the
    # trial keeps the error of the iterate it stopped at
    out = tmp_path / "phase"
    assert run_cli("phase", "--out", str(out), "n=64", "r=2", "kappa=1e13", "m_values=64",
                   "alpha_values=0", "trials=1", "tol_residual=0", "max_iters=50") == 0
    assert (out / "phase.csv").read_text().splitlines()[1] == "64.0,0.0,0,1"
    (row,) = _read_rows(out / "trials.csv")[1:]
    assert row[:5] == ["64.0", "0.0", "0", "degenerate_gram", "0"]
    assert float(row[5]) < 1e-12


def test_phase_requires_two_axes(capsys):
    assert run_cli("phase", "m_values=10,20") == 2


def test_phase_thread_count_does_not_change_bytes(tmp_path):
    args = ["phase", "--seed", "9", "n=64", "r=2", "kappa=2",
            "m_values=40,64", "alpha_values=0,0.1", "trials=2", "max_iters=150"]
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert run_cli(*args, "--out", str(out1), "--threads", "1") == 0
    assert run_cli(*args, "--out", str(out2), "--threads", "3") == 0
    assert (out1 / "phase.csv").read_bytes() == (out2 / "phase.csv").read_bytes()
    # every global flag also takes the --key=value form
    out3 = tmp_path / "t3"
    assert run_cli(*args[:1], "--seed=9", *args[3:], f"--out={out3}", "--threads=2") == 0
    assert (out1 / "phase.csv").read_bytes() == (out3 / "phase.csv").read_bytes()
    assert run_cli(*args, "--out", str(tmp_path / "t0"), "--threads", "0") == 2
    for bad in (["--threads", "abc"], ["--seed", "x"], ["seed=x"]):
        assert run_cli(*args, "--out", str(tmp_path / "tx"), *bad) == 2


def test_doa_full_observation_variant(tmp_path):
    out = tmp_path / "doa"
    assert run_cli("doa", "--out", str(out), "--seed", "1", "p=1.0", "alpha=0",
                   "max_iters=40") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["success"] is True
    assert 0 <= summary["iters"] <= 40


def test_doa_rank_mismatch_fails_gracefully(tmp_path):
    # the snapshot model is rank 3; forcing a rank-1 solve must not recover
    out = tmp_path / "doa"
    assert run_cli("doa", "--out", str(out), "--seed", "1", "r=1",
                   "max_iters=60") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["success"] is False


def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "spectral", "n": 64, "r": 2, "seed": 11}))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("gen", "--config", str(cfg), "--out", str(out1)) == 0
    # override the config's n on the command line
    assert run_cli("gen", "--config", str(cfg), "--out", str(out2), "n=128") == 0
    assert load_signal(out1 / "signal.hnkz").shape.n == 64
    assert load_signal(out2 / "signal.hnkz").shape.n == 128
    # the command line's seed beats the file's, in either flag form
    out3 = tmp_path / "c"
    out4 = tmp_path / "d"
    assert run_cli("gen", "--config", str(cfg), "--out", str(out3), "--seed", "3") == 0
    assert run_cli("gen", f"--out={out4}", "--seed=3", "kind=spectral", "n=64", "r=2") == 0
    assert json.loads((out3 / "meta.json").read_text())["seed"] == 3
    assert (out3 / "signal.hnkz").read_bytes() == (out4 / "signal.hnkz").read_bytes()


@pytest.mark.parametrize("key, value", [
    ("n", 64.9), ("r", 2.5), ("r", True), ("seed", 7.5), ("seed", False), ("n", float("inf")),
])
def test_config_file_non_integer_exit_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "spectral", "n": 64, "r": 2, key: value}))
    assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "meta.json").exists()


def test_config_file_integral_float_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "spectral", "n": 64.0, "r": 2, "seed": 11.0}))
    assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path)) == 0
    assert load_signal(tmp_path / "signal.hnkz").shape.n == 64


def test_module_entry_point(tmp_path):
    # the child imports the same package the suite imports, installed or not
    src = str(Path(hankelx.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hankelx", "gen", "--out", str(tmp_path),
         "kind=spectral", "n=64", "r=2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "signal.hnkz").is_file()


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["-h"], 0), ([], 2)])
def test_usage_paths(capsys, argv, code):
    assert main(argv) == code
    assert "hankelx <gen|recover|converge|phase|doa>" in capsys.readouterr().out


def test_solver_defaults_come_from_the_library(tmp_path, monkeypatch):
    # a fresh copy of the CLI, built while the library states other defaults,
    # must take every one of them; the DOA protocol's own settings stay
    changed = {"eta": 0.25, "max_iters": 777, "tol_residual": 3e-6}
    for name, value in changed.items():
        monkeypatch.setattr(RecoveryConfig, name, value)
    monkeypatch.setattr(OutlierSpec, "magnitude_scale", 7.0)
    spec = importlib.util.spec_from_file_location("hankelx._cli_probe", cli.__file__)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)

    defaults = {command: {key: default for key, (_, default) in schema.items()}
                for command, schema in probe._SCHEMAS.items()}
    for command in ("recover", "converge", "phase", "doa"):
        assert defaults[command]["eta"] == 0.25
    for command in ("recover", "converge", "phase"):
        assert defaults[command]["max_iters"] == 777
        assert defaults[command]["tol_residual"] == 3e-6
    for command in ("converge", "phase"):
        assert defaults[command]["magnitude_scale"] == 7.0
    assert (defaults["doa"]["max_iters"], defaults["doa"]["tol_residual"]) == (216, 1e-8)

    config = probe._solver_config(probe._apply_schema("phase", {}), 2, 0.0, 0)
    assert (config.eta, config.max_iters, config.tol_residual) == (0.25, 777, 3e-6)
    for kind, scale in (("spectral", 7.0), ("doa", defaults["doa"]["magnitude_scale"])):
        out = tmp_path / kind
        args = ["kind=spectral", "r=2"] if kind == "spectral" else ["kind=doa"]
        assert probe.main(["gen", "--out", str(out), "n=64", "alpha=0.1", *args]) == 0
        assert json.loads((out / "meta.json").read_text())["magnitude_scale"] == scale


def test_derive_seed_stable():
    assert derive_seed(1, "phase", 0.1) == derive_seed(1, "phase", 0.1)
    assert derive_seed(1, "phase", 0.1) != derive_seed(2, "phase", 0.1)
