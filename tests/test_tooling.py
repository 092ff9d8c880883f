"""Source hygiene checks: unused imports and private helpers without a
caller, read from the code, README's lists of records and certificate
fields and of the ``verify`` flags against the code, the command line's
one place that catches errors, the modules that importing the command
line loads, and the planted faults of ``tools/mutate.py`` against the
code they plant into."""

import argparse
import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from qtorus.cli import _build_parser
from qtorus.verifier import ProductCertificate, TupleCertificate

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
    classes that nothing in `files` uses outside their own ``def``, as
    ``file: name`` or ``file: Class.name``.  A function is used by an
    ``ast.Name`` or an ``ast.Attribute`` that carries its name; a method
    only by an ``ast.Attribute``, so a local variable of the same name does
    not count as a call."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    names: dict[str, list[tuple[Path, int]]] = {}
    attrs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((path, node.lineno))
    dead = []
    for path, tree in trees.items():
        defs = [(node, node.name, True) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [
                (node, f"{cls.name}.{node.name}", False)
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
            ]
        for node, label, module_level in defs:
            if node.name.startswith("_"):
                continue
            uses = attrs.get(node.name, []) + (names.get(node.name, []) if module_level else [])
            own = range(node.lineno, node.end_lineno + 1)
            if all(other == path and line in own for other, line in uses):
                dead.append(f"{path.name}: {label}")
    return sorted(dead)


# public names that no code in src/ calls, kept as library API that README
# documents
DOCUMENTED_API = [
    "catalog.py: verify_identity",
    "scripts.py: bcomm_script",
    "series.py: LaurentSeries.coeffs",
    "verifier.py: TupleCertificate.min_valuation",
    "verifier.py: TupleCertificate.tuples",
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
        "    shadowed = 2\n"
        "    return used(shadowed)\n"
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
        "    def shadowed(self):\n"
        "        return None\n"
    )
    assert public_names_without_caller([module]) == [
        "m.py: K.orphan", "m.py: K.shadowed", "m.py: K.unused", "m.py: dead"
    ]


def record_classes(files: list[Path]) -> list[str]:
    """Public module-level classes of `files` that derive from ``Record``,
    directly or through another class of `files`."""
    bases: dict[str, set] = {}
    for path in files:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
    roots = {"Record"}
    records = set(roots)
    while grown := {name for name, base in bases.items() if base & records} - records:
        records |= grown
    return sorted(name for name in records - roots if not name.startswith("_"))


def readme_record_names(text: str) -> list[str]:
    """The classes README's value-records paragraph names: the backticked
    names of its sentence that begins "They are", without a module prefix."""
    paragraph = text.split("The package's records are value records", 1)[1].split("\n\n", 1)[0]
    sentence = re.search(r"They are\s(.*?)\.\s", paragraph, re.S).group(1)
    return sorted(re.findall(r"`(?:\w+\.)?(\w+)`", sentence))


def test_readme_names_every_record_class():
    # a record class added or removed must be added to or removed from the
    # README's list of value records
    files = sorted((ROOT / "src" / "qtorus").glob("*.py"))
    found = record_classes(files)
    assert len(found) > 5
    assert readme_record_names((ROOT / "README.md").read_text()) == found


def test_scan_sees_every_record_class(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from qtorus import errors\n"
        "from qtorus.errors import Record\n"
        "class Plain:\n"
        "    pass\n"
        "class Kept(Plain, Record):\n"
        "    pass\n"
        "class Later(Earlier):\n"
        "    pass\n"
        "class Earlier(errors.Record):\n"
        "    pass\n"
        "class _Hidden(Record):\n"
        "    pass\n"
        "class Child(_Hidden):\n"
        "    pass\n"
        "def f():\n"
        "    class Inner(Record):\n"
        "        pass\n"
    )
    assert record_classes([module]) == ["Child", "Earlier", "Kept", "Later"]
    readme = (
        "The package's records are value records: plain classes.  They are\n"
        "`Kept` and `m.Later`; `Earlier`.  Also `NotListed`.\n\n`Other`\n"
    )
    assert readme_record_names(readme) == ["Earlier", "Kept", "Later"]


def readme_certificate_fields(text: str, name: str) -> list[str]:
    """The backticked names, in order, that README's "Library use" section
    gives as the fields of the class `name`: the rest of the sentence after
    "`name`, ... of" or "`name`, ... fields"; empty when no sentence does."""
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    listing = re.search(rf"`{name}`,[^`.]*?\b(?:of|fields)\s(.*?)\.\s", section, re.S)
    return re.findall(r"`(\w+)`", listing.group(1)) if listing else []


def test_readme_lists_the_certificate_fields_in_order():
    # a certificate field added, removed, renamed or moved must be so in
    # README too
    readme = (ROOT / "README.md").read_text()
    assert readme_certificate_fields(readme, "TupleCertificate") == list(TupleCertificate._fields)
    assert readme_certificate_fields(readme, "ProductCertificate") == list(
        ProductCertificate._fields
    )


def test_scan_sees_the_certificate_fields():
    readme = (
        "`Outer`, a record of `u`.  \n## Library use\n\nEach is a `K`, a record\n"
        "of `a`, `b` and `c`.  Its `L` is one `M`, with the fields `y`, `x`,\n"
        "and `z`.  Then `K` again.\n\n## Next\n\n`N`, a record of `q`.  \n"
    )
    assert readme_certificate_fields(readme, "K") == ["a", "b", "c"]
    assert readme_certificate_fields(readme, "M") == ["y", "x", "z"]
    assert readme_certificate_fields(readme, "L") == []
    assert readme_certificate_fields(readme, "N") == []
    assert readme_certificate_fields(readme, "Outer") == []


def readme_verify_flags(text: str) -> tuple[list[str], dict[str, list[str]]]:
    """The distinct backticked flags, in order, of README's "Flags:"
    paragraph, and the choices a span such as `--format a|b` lists."""
    paragraph = text.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    spans = re.findall(r"`(--[\w-]+)(?: (\w+(?:\|\w+)+))?[^`]*`", paragraph)
    flags = list(dict.fromkeys(flag for flag, _ in spans))
    return flags, {flag: listed.split("|") for flag, listed in spans if listed}


def parser_verify_flags(parser: argparse.ArgumentParser) -> tuple[list[str], dict[str, list[str]]]:
    """The long option strings of the parser's ``verify`` subcommand, in
    order and without ``--help``, and the choices of those that have any."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [a for a in commands.choices["verify"]._actions if "--help" not in a.option_strings]
    flags = [s for a in actions for s in a.option_strings if s.startswith("--")]
    return flags, {a.option_strings[-1]: list(a.choices) for a in actions if a.choices}


def test_readme_lists_the_verify_flags_in_order():
    # a verify flag or format added, removed, renamed or moved must be so in
    # README's list of flags too
    flags, choices = readme_verify_flags((ROOT / "README.md").read_text())
    assert len(flags) > 5
    assert (flags, choices) == parser_verify_flags(_build_parser())


def test_scan_sees_the_verify_flags():
    readme = (
        "`--early`\n\nFlags: `--a` (or `--a \"\"`), `--b x|y`, `--a`,\n"
        "`--c-d`, `plain`.\n\n`--later`\n"
    )
    assert readme_verify_flags(readme) == (["--a", "--b", "--c-d"], {"--b": ["x", "y"]})
    parser = argparse.ArgumentParser()
    commands = parser.add_subparsers()
    verify = commands.add_parser("verify")
    verify.add_argument("-a", "--a")
    verify.add_argument("--b", choices=("x", "y"))
    verify.add_argument("--c-d", type=int)
    commands.add_parser("other").add_argument("--e")
    assert parser_verify_flags(parser) == (["--a", "--b", "--c-d"], {"--b": ["x", "y"]})


def handlers_outside(path: Path, function: str) -> list[int]:
    """Lines of the ``except`` clauses of a module that lie outside its
    module-level function `function`."""
    tree = ast.parse(path.read_text(), str(path))
    inside = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == function
        for node in ast.walk(top)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and id(node) not in inside
    ]


def test_cli_catches_only_in_main():
    # one error policy: a subcommand raises, and main alone turns a read,
    # write or kernel error into one error line and exit status 2
    assert handlers_outside(ROOT / "src" / "qtorus" / "cli.py", "main") == []


def test_scan_sees_a_handler_outside_main(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def _cmd():\n"
        "    try:\n"
        "        return 1\n"
        "    except OSError:\n"
        "        return 2\n"
        "class K:\n"
        "    def main(self):\n"
        "        try:\n"
        "            pass\n"
        "        except ValueError:\n"
        "            pass\n"
        "def main():\n"
        "    try:\n"
        "        return _cmd()\n"
        "    except (OSError, KeyError):\n"
        "        def inner():\n"
        "            try:\n"
        "                pass\n"
        "            except Exception:\n"
        "                pass\n"
        "        return 2\n"
    )
    assert handlers_outside(module, "main") == [4, 10]


def stale_faults(faults, root: Path) -> list[str]:
    """The descriptions of the entries of a ``tools/mutate.py``-style fault
    list whose snippet does not occur exactly once in its file under `root`."""
    return [
        why for path, snippet, _, why in faults if (root / path).read_text().count(snippet) != 1
    ]


def test_no_planted_fault_is_stale():
    # a stale entry plants nothing, so it would only show when the harness runs
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    assert mutate.FAULTS
    assert stale_faults(mutate.FAULTS, ROOT) == []
    # the harness deselects this test by name in its faulted runs
    assert mutate.STALE_CHECK == f"tests/test_tooling.py::{test_no_planted_fault_is_stale.__name__}"


def test_scan_sees_a_stale_fault(tmp_path):
    (tmp_path / "m.py").write_text("a = 1\nb = 1\n")
    faults = [
        ("m.py", "a = 1", "a = 2", "once"),
        ("m.py", "c = 1", "c = 2", "missing"),
        ("m.py", " = 1", " = 2", "twice"),
    ]
    assert stale_faults(faults, tmp_path) == ["missing", "twice"]


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
    # every command pays for its imports: the records build their
    # constructors without dataclasses, which alone brings in inspect, ast,
    # dis and tokenize
    assert modules_loaded_by_cli_import(("dataclasses", "inspect")) == []
