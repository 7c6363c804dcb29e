"""Guards on the package's public surface: no error type that nothing
raises, no export that does not resolve, a README example that runs and a
console script that points at the CLI."""

import ast
import contextlib
import importlib
import io
import re
import shlex
import tomllib
from pathlib import Path

import univalence as uv
from univalence import cli, errors

ROOT = Path(__file__).resolve().parents[1]


def test_every_error_type_is_raised_somewhere():
    constructed = set()
    for path in (ROOT / "src" / "univalence").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                constructed.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    declared = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.UnivalenceError)
        and value is not errors.UnivalenceError
    }
    assert declared and declared <= constructed, sorted(declared - constructed)


def test_every_export_resolves():
    assert len(set(uv.__all__)) == len(uv.__all__)
    for name in uv.__all__:
        assert getattr(uv, name) is not None, name


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue()


def test_readme_cli_examples_run():
    # each example line runs without a usage or evaluation error, and exits
    # with the code its comment names, where it names one
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    (block,) = [b for b in re.findall(r"```bash\n(.*?)```", section, re.S) if "univalence " in b]
    expected, checked = None, 0
    for line in block.splitlines():
        if line.startswith("#"):
            named_code = re.search(r"exit (?:code )?(\d)", line)
            expected = named_code and int(named_code[1])
        elif line.startswith("univalence "):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(shlex.split(line)[1:])
            assert code != 3, line
            if expected is not None:
                assert code == expected, line
                checked += 1
            expected = None
    assert checked == 4


def test_console_script_is_the_cli():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["univalence"].partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert main is cli.main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["catalog"]) == 0
