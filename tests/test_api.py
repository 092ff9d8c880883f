"""The public names of the package and the README's library example."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qtorus

SUBMODULES = ("series", "algebra", "qexp", "verifier", "words", "scripts", "catalog", "cli")


def test_package_names_resolve():
    missing = [name for name in qtorus.__all__ if not hasattr(qtorus, name)]
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_names_resolve(module):
    mod = importlib.import_module(f"qtorus.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    series_line, summary_line = capsys.readouterr().out.splitlines()
    assert series_line.startswith("-2*q^1 - 4*q^3 - 8*q^5 - ")
    assert series_line.endswith(" (mod q^14)")
    summary = ast.literal_eval(summary_line)
    assert summary["tuples"] == 6 and summary["minors"] == [2, 4]
