"""Source hygiene checks: unused imports and private helpers without a
caller, read from the code, and the modules that importing the command line
loads."""

import ast
import os
import re
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


def private_helpers_without_caller(files: list[Path]) -> list[str]:
    """Single-underscore module-level functions and methods of module-level
    classes whose name appears in none of `files` outside their own ``def``."""
    lines = {path: path.read_text().splitlines() for path in files}
    dead = []
    for path in files:
        tree = ast.parse("\n".join(lines[path]), str(path))
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        for node in defs:
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            word = re.compile(rf"\b{name}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(
                word.search(line)
                for other in files
                for i, line in enumerate(lines[other])
                if not (other == path and i in own)
            ):
                dead.append(f"{path.name}: {name}")
    return dead


def test_private_helpers_have_a_src_caller():
    # a private helper that only the tests call is dead code
    files = sorted((ROOT / "src" / "qtorus").glob("*.py"))
    assert len(files) > 5
    assert private_helpers_without_caller(files) == []


def test_scan_sees_a_private_helper_without_caller(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def _used(x):\n"
        "    return _used(x - 1) if x else 0\n"
        "def _dead():\n"
        "    return _used(2)\n"
        "class K:\n"
        "    def _method(self):\n"
        "        return 1\n"
        "    def __eq__(self, other):\n"
        "        return self._method() == 1\n"
        "    def _unused(self):\n"
        "        return None\n"
    )
    assert private_helpers_without_caller([module]) == ["m.py: _dead", "m.py: _unused"]


def public_names_without_caller(files: list[Path]) -> list[str]:
    """Public module-level functions and public methods of module-level
    classes whose name no ``ast.Name`` or ``ast.Attribute`` in `files`
    carries outside their own ``def``, as ``file: name`` or
    ``file: Class.name``."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    dead = []
    for path, tree in trees.items():
        defs = [(node, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [
                (node, f"{cls.name}.{node.name}")
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
            ]
        for node, label in defs:
            if node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(other == path and line in own for other, line in uses.get(node.name, ())):
                dead.append(f"{path.name}: {label}")
    return sorted(dead)


# public names that no code in src/ calls, kept as library API that README
# documents
DOCUMENTED_API = [
    "catalog.py: verify_identity",
    "scripts.py: bcomm_script",
    "verifier.py: TupleCertificate.particular",
    "verifier.py: coefficient_of",
    "words.py: render_script",
]


def test_public_names_have_a_src_caller_or_are_documented():
    # a public name nothing in src/ uses is either documented API or dead code
    files = [p for p in sorted((ROOT / "src" / "qtorus").glob("*.py")) if p.name != "__init__.py"]
    assert len(files) > 5
    assert public_names_without_caller(files) == DOCUMENTED_API
    readme = (ROOT / "README.md").read_text()
    for entry in DOCUMENTED_API:
        name = entry.split(": ")[1].split(".")[-1]
        assert re.search(rf"\b{name}\b", readme), entry


def test_scan_sees_a_public_name_without_caller(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def used(x):\n"
        "    return used(x - 1) if x else 0\n"
        "def dead():\n"
        "    return used(2)\n"
        "def _private():\n"
        "    return used\n"
        "class K:\n"
        "    @property\n"
        "    def called(self):\n"
        "        return 1\n"
        "    def __eq__(self, other):\n"
        "        return self.called == 1\n"
        "    def unused(self):\n"
        "        return self.unused\n"
        "    def orphan(self):\n"
        "        return None\n"
    )
    assert public_names_without_caller([module]) == ["m.py: K.orphan", "m.py: K.unused", "m.py: dead"]


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
