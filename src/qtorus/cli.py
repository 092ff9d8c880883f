"""Command-line interface.

Three subcommands:

``qtorus verify``
    Run catalog items and emit one canonical JSON report per line followed
    by a summary line (``--format json`` for a single object, ``--format
    text`` for a plain-text rendering).  Every selected item's parameters,
    then the output, are checked before the first item runs.  Each report
    is written when its item finishes, so a run that fails later exits 2
    with the finished items' reports and no summary line (with ``--format
    json``, an unterminated document).  Exit status: 0 when every selected
    item passes, 1 when any item reports FAIL.

``qtorus list``
    Print the catalog with descriptions and default parameters.

``qtorus replay <file>``
    Parse a derivation-script file, re-apply every step, and report the
    outcome.  Exit status 0 when the replay succeeds, 1 when it does not.

Every subcommand writes to ``--output`` instead of stdout when given, and
exits 2 with one ``error:`` line on stderr when an input cannot be read or
parsed, a parameter is invalid, a certificate cannot be produced, or the
output (``--output`` or stdout) cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .catalog import SCHEMA_VERSION, _canonical, _plan, _run, identity_names, list_identities
from .errors import InvalidParams, KernelError
from .words import parse_script, render_word, replay

__all__ = ["main"]


@contextmanager
def _output(path: Optional[str]):
    """Yield the file `path` opened for writing, or stdout when `path` is
    None; stdout is flushed on leaving, so that a write its buffer held
    back fails inside the command too."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout
        sys.stdout.flush()


def _selected_names(raw: Optional[list[str]]) -> list[str]:
    """Catalog names selected by the `--identity` values, in catalog order;
    no `--identity` at all, or `all` among the values, selects everything."""
    if raw is None:
        return identity_names()
    chunks: list[str] = []
    for item in raw:
        chunks.extend(x.strip() for x in item.split(",") if x.strip())
    if not chunks:
        raise InvalidParams("--identity names no identity")
    names = identity_names()
    for name in chunks:
        if name != "all" and name not in names:
            raise InvalidParams(f"unknown identity {name!r}")
    if "all" in chunks:
        return names
    # catalog order regardless of request order
    return [name for name in names if name in chunks]


def _cmd_verify(args: argparse.Namespace) -> int:
    # every selected item's parameters, then the output, are checked
    # before the first item runs
    plans = [
        _plan(name, args.sites, None, args.window, args.precision, args.seed)
        for name in _selected_names(args.identity)
    ]
    layout = args.format
    with _output(args.output) as out:
        total = failed = 0
        while plans:  # write each report once its item has run, then drop both
            report = _run(plans.pop(0))
            if layout == "jsonl":
                out.write(_canonical(report.to_dict()) + "\n")
            elif layout == "json":
                out.write(("," if total else '{"reports":[') + _canonical(report.to_dict()))
            else:
                out.write(report.to_text() + "\n\n")
            total += 1
            failed += report.status != "PASS"
            del report
        passed, overall = total - failed, "PASS" if failed == 0 else "FAIL"
        if layout == "text":
            out.write(f"summary: total={total} passed={passed} failed={failed} {overall}\n")
        else:
            summary = _canonical({
                "schema_version": SCHEMA_VERSION,
                "summary": {"total": total, "passed": passed, "failed": failed, "status": overall},
            })
            # json closes the list its first report opened; "reports" sorts
            # before "schema_version" and "summary"
            out.write(summary + "\n" if layout == "jsonl" else "]," + summary[1:] + "\n")
    return 0 if failed == 0 else 1


def _cmd_list(args: argparse.Namespace) -> int:
    with _output(args.output) as out:
        out.write("\n".join(_canonical(entry) for entry in list_identities()) + "\n")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8-sig") as fh:
        script = parse_script(fh.read())
    result = replay(script)
    outcome = {
        "name": script.name,
        "ok": result.ok,
        "steps": len(script.steps),
        "steps_applied": result.steps_applied,
        "final": render_word(result.final),
        "error": result.error,
    }
    with _output(args.output) as out:
        out.write(_canonical(outcome) + "\n")
    return 0 if result.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtorus",
        description="exact verification of q-exponential identities on a chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify catalog identities")
    verify.add_argument(
        "--identity",
        action="append",
        metavar="NAME[,NAME...]",
        help="identities to verify (repeatable, comma-separated, or 'all')",
    )
    verify.add_argument("--sites", type=int, help="number of chain sites")
    verify.add_argument("--window", type=int, help="monomial window half-width")
    verify.add_argument("--precision", type=int, help="q-adic precision")
    verify.add_argument("--seed", type=int, help="seed for the rewrite walk")
    verify.add_argument("--output", help="write the report here instead of stdout")
    verify.add_argument(
        "--format",
        choices=("jsonl", "json", "text"),
        default="jsonl",
        help="report layout",
    )
    verify.set_defaults(func=_cmd_verify)

    lister = sub.add_parser("list", help="list catalog identities")
    lister.add_argument("--output", help="write the listing here instead of stdout")
    lister.set_defaults(func=_cmd_list)

    rep = sub.add_parser("replay", help="replay a derivation-script file")
    rep.add_argument("file", help="script file to replay")
    rep.add_argument("--output", help="write the outcome here instead of stdout")
    rep.set_defaults(func=_cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, KernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
