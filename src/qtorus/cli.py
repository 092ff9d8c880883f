"""Command-line interface.

Three subcommands:

``qtorus verify``
    Run catalog items and emit one canonical JSON report per line followed
    by a summary line (``--format json`` for a single object, ``--format
    text`` for a plain-text rendering).  Every selected item's parameters,
    then the ``--output`` file, are checked before the first item runs.
    Exit status: 0 when every selected item passes, 1 when any item reports
    FAIL, 2 on configuration or certificate errors.

``qtorus list``
    Print the catalog with descriptions and default parameters.

``qtorus replay <file>``
    Parse a derivation-script file, re-apply every step, and report the
    outcome.  Exit status 0 when the replay succeeds, 1 when it does not,
    2 when the file cannot be read as UTF-8 text or parsed.

Every subcommand writes to ``--output`` instead of stdout when given, and
exits 2 with an ``error:`` line when that file cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .catalog import SCHEMA_VERSION, _plan, _run, identity_names, list_identities
from .errors import InvalidParams, KernelError
from .words import parse_script, render_word, replay

__all__ = ["main"]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(text: str, output: Optional[str], status: int) -> int:
    """Write `text` to the file `output`, or to stdout when it is None, and
    return `status`; return 2 when the file cannot be written."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


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


def _verify_text(reports: list, failed: int, layout: str) -> str:
    """The reports and their summary in the `--format` layout."""
    passed = len(reports) - failed
    overall = "PASS" if failed == 0 else "FAIL"
    summary = {
        "schema_version": SCHEMA_VERSION,
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": failed,
            "status": overall,
        },
    }
    if layout == "jsonl":
        lines = [_canonical(r.to_dict()) for r in reports] + [_canonical(summary)]
        return "\n".join(lines) + "\n"
    if layout == "json":
        return _canonical({"reports": [r.to_dict() for r in reports], **summary}) + "\n"
    blocks = [r.to_text() for r in reports]
    blocks.append(
        f"summary: total={len(reports)} passed={passed} failed={failed} {overall}"
    )
    return "\n\n".join(blocks) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        # every selected item's parameters, then the output file, are
        # checked before the first item runs
        plans = [
            _plan(name, args.sites, None, args.window, args.precision, args.seed)
            for name in _selected_names(args.identity)
        ]
        out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
        try:
            reports = []
            while plans:  # drop each plan, and what it built, once it has run
                reports.append(_run(plans.pop(0)))
            failed = sum(r.status != "PASS" for r in reports)
            out.write(_verify_text(reports, failed, args.format))
        finally:
            if out is not sys.stdout:
                out.close()
    except (OSError, KernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if failed == 0 else 1


def _cmd_list(args: argparse.Namespace) -> int:
    lines = [_canonical(entry) for entry in list_identities()]
    return _emit("\n".join(lines) + "\n", args.output, 0)


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            script = parse_script(fh.read())
    except (OSError, UnicodeDecodeError, KernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = replay(script)
    out = {
        "name": script.name,
        "ok": result.ok,
        "steps": len(script.steps),
        "steps_applied": result.steps_applied,
        "final": render_word(result.final),
        "error": result.error,
    }
    return _emit(_canonical(out) + "\n", args.output, 0 if result.ok else 1)


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
