import ast
import inspect
import json
import re
import shlex
import types
from pathlib import Path

import numpy as np
import pytest

import hankelx
from hankelx import cli, hankel, linalg, recovery, sampling, signals
from hankelx.hankel import HankelShape, WeightedSignal, lowrank_to_signal
from hankelx.recovery import spectral_init
from hankelx.sampling import WITHOUT_REPLACEMENT, ObservationPattern, project_obs, sample_pattern
from hankelx.signals import OutlierSpec, inject_outliers, spectral_signal

MODULES = (hankel, linalg, recovery, sampling, signals)
ROOT = Path(__file__).parents[1]


def test_package_exports_exactly_the_module_lists():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(names) == len(set(names))  # one definition per name
    public = {
        name for name, value in vars(hankelx).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(hankelx, name) is getattr(mod, name)


def test_readme_quick_start_import_resolves():
    # the whole example, so a change to how its calls are made cannot leave it broken
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert namespace["report"].termination == "residual_tol"


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # README's gen and recover lines, run as written in a scratch directory
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Examples:\n+```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith(("hankelx gen ", "hankelx recover "))]
    assert len(lines) == 2
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    assert json.loads((tmp_path / "result" / "summary.json").read_text())["success"] is True


def test_cli_reruns_no_solver_rule():
    # the solver's input rules are its own; the CLI only maps what they raise to an exit code
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        if (node.module or "").rpartition(".")[2] in ("recovery", "linalg")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_grid_commands_share_one_trial_loop_and_one_trials_csv_writer():
    # phase and converge run every trial through _run_grid, the one writer of trials.csv
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    callers = [
        func.name
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_trial"
    ]
    assert callers == ["_run_grid"]
    names = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "trials.csv"]
    assert len(names) == 1


def test_solve_loop_enters_one_overflow_guard_and_defines_no_function():
    # one np.errstate around the whole loop, not one per iterate or bold attempt
    run = ast.parse(inspect.getsource(recovery._run)).body[0]
    guards = [node for node in ast.walk(run)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.errstate"]
    blocks = [node for node in ast.walk(run) if isinstance(node, ast.With)]
    loops = [node for node in ast.walk(run) if isinstance(node, ast.While)]
    assert len(guards) == len(blocks) == len(loops) == 1
    assert blocks[0].items[0].context_expr is guards[0]
    assert loops[0] in list(ast.walk(blocks[0]))
    assert [node for node in ast.walk(run) if isinstance(node, ast.FunctionDef)] == [run]


def test_every_public_function_serves_more_than_its_unit_tests():
    # a public function must be called in the package, or be used by the acceptance suite or README
    used = set()
    for path in Path(hankelx.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    shown = "".join(
        (ROOT / name).read_text(encoding="utf-8")
        for name in ("tests/test_acceptance.py", "README.md")
    )
    functions = [
        name for mod in MODULES for name in mod.__all__ if inspect.isfunction(getattr(mod, name))
    ]
    assert functions
    unused = [name for name in functions
              if name not in used and not re.search(rf"\b{name}\b", shown)]
    assert unused == []


@pytest.mark.parametrize("refused, message", [
    (lambda: HankelShape.square(0), "n must be positive"),
    (lambda: WeightedSignal(HankelShape(50, 50), np.zeros(98)),
     "signal length 98 does not match shape n=99"),
    (lambda: lowrank_to_signal(np.zeros((49, 2)), np.zeros((50, 2)), HankelShape(50, 50)),
     r"factor rows \(49, 50\) do not match shape \(50, 50\)"),
    (lambda: ObservationPattern(4, np.zeros((2, 2)), WITHOUT_REPLACEMENT),
     "indices must be a 1-D array"),
    (lambda: project_obs(np.zeros(98), sample_pattern(99, 10, WITHOUT_REPLACEMENT, seed=0)),
     r"expected length 99, got \(98,\)"),
    (lambda: inject_outliers(
        spectral_signal(99, 2, 2.0, seed=0)[0],
        sample_pattern(98, 10, WITHOUT_REPLACEMENT, seed=0), OutlierSpec(0.1)),
     "pattern length does not match signal"),
    (lambda: spectral_init(
        np.zeros(98), sample_pattern(99, 10, WITHOUT_REPLACEMENT, seed=0),
        HankelShape(50, 50), 2, 0.1),
     r"expected length 99, got \(98,\)"),
])
def test_input_refusal_messages(refused, message):
    # one case for each refusal that no other test reaches
    with pytest.raises(ValueError, match=rf"^{message}$"):
        refused()
