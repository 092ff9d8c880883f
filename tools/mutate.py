"""Planted faults that the test suite must catch.

Run from anywhere, with no options:

    python3 tools/mutate.py

Each entry of ``FAULTS`` names a file, a snippet of it, a replacement and
why the suite should notice.  For each entry the checkout, without
``.git``, is copied into a temporary directory (the suite reads
``README.md`` and ``perfbench/reference.json`` as well as ``src/`` and
``tests/``), the snippet is replaced there, and
``python -m pytest -x -q -p no:cacheprovider`` runs in the copy with
``PYTHONPATH=src``, one process at a time.  The fault must make the suite
fail.  The unchanged copy is run first, and must pass.

One line is printed per entry: ``killed``, ``SURVIVED`` (the suite passed
with the fault in place) or ``STALE`` (the snippet does not occur exactly
once, so the entry no longer describes the code).  The exit status is 1
if the unchanged suite fails or any entry survived or is stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAULTS = [
    (
        "src/qtorus/scripts.py",
        "for pos in range(len(word) - n + 1)",
        "for pos in range(len(word) - n)",
        "matcher skips the window that ends the word",
    ),
    (
        "src/qtorus/scripts.py",
        "4 if len(image) < n else 2 if len(image) == n else 1",
        "1 if len(image) < n else 2 if len(image) == n else 4",
        "walk weights for shorter and longer images swapped",
    ),
    (
        "src/qtorus/scripts.py",
        "<= length_cap",
        "< length_cap",
        "walk refuses images exactly as long as the cap",
    ),
    (
        "src/qtorus/verifier.py",
        "math.isqrt(2 * left - 2 + m * m)",
        "math.isqrt(2 * left + m * m)",
        "pair lemma admits b with 2b(b + |m|) equal to the budget left",
    ),
    (
        "src/qtorus/verifier.py",
        "sign = -1 if sum(target) % 2 else 1",
        "sign = 1",
        "truncated engine: c_k's sign flipped at odd k",
    ),
    (
        "src/qtorus/verifier.py",
        "num[e + qpow] = num.get(e + qpow, 0) + c",
        "num[e + qpow] = num.get(e + qpow, 0) + (-c if sum(ks) % 2 else c)",
        "exact engine: c_k's sign flipped at odd k",
    ),
    (
        "src/qtorus/errors.py",
        "return other.__class__ is self.__class__ and tuple.__eq__(self, other)",
        "return tuple.__eq__(self, other)",
        "Record.__eq__ without its class test: a record equals its plain tuple",
    ),
    (
        "src/qtorus/errors.py",
        "return other.__class__ is self.__class__ and tuple.__eq__(self, other)",
        "return tuple.__eq__(self, other) if other.__class__ is self.__class__ else NotImplemented",
        "Record.__eq__ returns NotImplemented for another class, so tuple's __eq__ answers",
    ),
    (
        "src/qtorus/errors.py",
        "    def __ne__(self, other: object) -> bool:\n"
        "        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)\n",
        "",
        "Record.__ne__ deleted: tuple's __ne__ ignores the class",
    ),
    (
        "src/qtorus/errors.py",
        "    __lt__ = __le__ = __gt__ = __ge__ = None\n",
        "",
        "records order as tuples",
    ),
    (
        "src/qtorus/errors.py",
        "    def __getnewargs__(self) -> tuple:\n"
        "        # copy and pickle rebuild a record through its constructor\n"
        "        return tuple(self)\n",
        "",
        "Record.__getnewargs__ deleted: copy and pickle cannot rebuild a record",
    ),
    (
        "src/qtorus/words.py",
        '    __slots__ = ()\n    _fields = ("kind", "site", "sign")',
        '    _fields = ("kind", "site", "sign")',
        "Letter without __slots__ = (): each letter gets a __dict__",
    ),
]


def _suite_passes(fault: tuple | None = None) -> bool | None:
    """Whether the suite passes on a copy of the checkout with `fault`, an
    entry of FAULTS, applied; None if its snippet does not occur exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        if fault:
            path, snippet, replacement, _ = fault
            text = (tree / path).read_text()
            if text.count(snippet) != 1:
                return None
            (tree / path).write_text(text.replace(snippet, replacement))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree,
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return run.returncode == 0


def main() -> int:
    if not _suite_passes():
        print("the unchanged suite fails", flush=True)
        return 1
    bad = 0
    for fault in FAULTS:
        passes = _suite_passes(fault)
        verdict = "STALE" if passes is None else "SURVIVED" if passes else "killed"
        bad += verdict != "killed"
        print(f"{verdict:8} {fault[0]}: {fault[3]}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
