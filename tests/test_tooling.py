"""Source hygiene checks: unused imports, read from the code, and the
modules that importing the command line loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """Names a module imports and never uses.  A name listed in the module's
    ``__all__`` counts as used; ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "qtorus").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path)
    ]
    assert hits == []


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Iterable, Optional\n"
        "__all__ = ['Optional']\n"
        "def f(x: Iterable) -> None:\n"
        "    return None\n"
    )
    assert unused_imports(module) == [(2, "os"), (2, "system")]


def modules_loaded_by_cli_import(names: tuple[str, ...]) -> list[str]:
    """Which of `names` a fresh interpreter has loaded after ``import qtorus.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, qtorus.cli; print([m for m in {names!r} if m in sys.modules])",
        ],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


def test_cli_import_loads_no_rational_arithmetic():
    # the engine is integer-only, so importing the command line must not
    # pull in the standard library's fractions module
    assert modules_loaded_by_cli_import(("fractions",)) == []


def test_cli_import_loads_no_dataclasses():
    # every command pays for its imports: the records are written out by
    # hand, as dataclasses alone brings in inspect, ast, dis and tokenize
    assert modules_loaded_by_cli_import(("dataclasses", "inspect")) == []
