import ast
import json
import re
import shlex
import types
from pathlib import Path

import hankelx
from hankelx import cli, hankel, linalg, recovery, sampling, signals

MODULES = (hankel, linalg, recovery, sampling, signals)


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
