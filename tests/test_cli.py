"""Tests for the command-line front end."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qtorus
import qtorus.catalog as catalog
import qtorus.cli as cli
from qtorus.catalog import Report, identity_names, verify_identity
from qtorus.errors import NoCertificate
from qtorus.scripts import braid_script
from qtorus.words import render_script


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


def normalized(text):
    """Report lines with elapsed_ms zeroed, re-serialized canonically."""
    rows = []
    for row in parse_jsonl(text):
        if "elapsed_ms" in row:
            row["elapsed_ms"] = 0
        rows.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return rows


# ---------------------------------------------------------------- verify


def test_verify_two_items_jsonl(capsys):
    code, out, err = run_cli(
        ["verify", "--identity", "mult1,two_site_set", "--precision", "10"], capsys
    )
    assert code == 0 and err == ""
    rows = parse_jsonl(out)
    assert len(rows) == 3  # two reports plus the summary line
    assert rows[0]["identity"] == "mult1"
    assert rows[1]["identity"] == "two_site_set"
    assert rows[2] == {
        "schema_version": 1,
        "summary": {"total": 2, "passed": 2, "failed": 0, "status": "PASS"},
    }
    for row in rows[:2]:
        assert set(row) == {
            "schema_version",
            "identity",
            "params",
            "status",
            "per_monomial",
            "certificate_summary",
            "elapsed_ms",
        }
        # canonical serialization: sorted keys, no spaces
        line = out.splitlines()[rows.index(row)]
        assert line == json.dumps(row, sort_keys=True, separators=(",", ":"))


def test_verify_repeatable_flag_dedupes_and_orders(capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "--identity", "two_site_set",
            "--identity", "mult1,two_site_set",
            "--precision", "10",
        ],
        capsys,
    )
    assert code == 0
    rows = parse_jsonl(out)
    assert [r["identity"] for r in rows[:-1]] == ["mult1", "two_site_set"]


def test_verify_all_is_default_and_explicit(capsys, tmp_path):
    # 'all' resolves to the catalog in order; defaults run everything
    out_a = tmp_path / "a.jsonl"
    code = cli.main(
        ["verify", "--identity", "all", "--precision", "8", "--sites", "6",
         "--output", str(out_a)]
    )
    assert code == 0
    rows = parse_jsonl(out_a.read_text())
    assert [r["identity"] for r in rows[:-1]] == identity_names()
    assert rows[-1]["summary"]["total"] == len(identity_names())


def test_verify_spec_example_exits_zero(capsys, tmp_path):
    out_path = tmp_path / "full.jsonl"
    code = cli.main(
        ["verify", "--identity", "all", "--sites", "6", "--precision", "14",
         "--output", str(out_path)]
    )
    assert code == 0
    rows = parse_jsonl(out_path.read_text())
    assert rows[-1]["summary"]["status"] == "PASS"
    assert all(r["status"] == "PASS" for r in rows[:-1])


@pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
def test_verify_empty_selection_exits_two(capsys, value):
    # only an absent --identity (or 'all') selects the whole catalog
    code, out, err = run_cli(["verify", "--identity", value], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_verify_json_format_single_object(capsys):
    code, out, _ = run_cli(
        ["verify", "--identity", "mult1", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"reports", "schema_version", "summary"}
    assert doc["reports"][0]["identity"] == "mult1"
    assert doc["summary"]["status"] == "PASS"
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_verify_text_format(capsys):
    code, out, _ = run_cli(
        ["verify", "--identity", "pentagon,braid_script", "--window", "2", "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out.startswith("pentagon: PASS\n  params: N=2 W=2 K=2\n")
    assert "  monomials: 9/9 match\n    1: 1\n" in out
    assert "braid_script: PASS" in out
    assert "certificate: mode=replay scripts=" in out
    assert out.rstrip("\n").endswith("summary: total=2 passed=2 failed=0 PASS")


# sha256 of `verify --identity all --seed 3 --format text`, every
# "elapsed: <n> ms" line read as "elapsed: N ms"; it pins the text layout,
# including the order of each certificate summary's keys
TEXT_ALL_SEED3_SHA256 = (
    "e709853f00108346f1b3ab4fd4fd54117b51a5b08c7da2294824114c9da0922f"
)


def test_verify_text_format_pinned(capsys):
    code, out, _ = run_cli(
        ["verify", "--identity", "all", "--seed", "3", "--format", "text"], capsys
    )
    assert code == 0
    text = re.sub(r"elapsed: \d+ ms", "elapsed: N ms", out)
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_ALL_SEED3_SHA256


# sha256 of `verify --identity mult1,mult2,pentagon --window 8 --format
# text`, elapsed lines read as above; a matching row prints only its left side
TEXT_EXACT_W8_SHA256 = (
    "78489a4c001d2a4e79c5d2ef64719d0fc959cba8bce6685fba106a5b53559da3"
)


def test_verify_exact_text_format_pinned(capsys):
    code, out, _ = run_cli(
        ["verify", "--identity", "mult1,mult2,pentagon", "--window", "8", "--format", "text"],
        capsys,
    )
    assert code == 0
    text = re.sub(r"elapsed: \d+ ms", "elapsed: N ms", out)
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_EXACT_W8_SHA256


def test_report_text_marks_mismatches():
    report = verify_identity("mult1", window=2)
    row = dict(report.per_monomial[1], match=False, rhs="0")
    broken = Report(
        report.schema_version,
        report.identity,
        report.params,
        "FAIL",
        [report.per_monomial[0], row],
        report.certificate_summary,
        report.elapsed_ms,
    )
    text = broken.to_text()
    assert text.startswith("mult1: FAIL")
    assert "monomials: 1/2 match" in text
    assert f"    {row['target']}: MISMATCH lhs={row['lhs']} rhs=0" in text


def test_verify_output_file_leaves_stdout_empty(capsys, tmp_path):
    path = tmp_path / "r.jsonl"
    code, out, err = run_cli(
        ["verify", "--identity", "mult1", "--output", str(path)], capsys
    )
    assert code == 0 and out == "" and err == ""
    assert parse_jsonl(path.read_text())[-1]["summary"]["status"] == "PASS"


@pytest.mark.parametrize(
    "argv",
    [["verify", "--identity", "mult1"], ["list"], ["replay", "SCRIPT"]],
    ids=["verify", "list", "replay"],
)
def test_unwritable_output_exits_two(capsys, tmp_path, argv):
    script = tmp_path / "braid.txt"
    script.write_text(render_script(braid_script(1, 3)))
    argv = [str(script) if a == "SCRIPT" else a for a in argv]
    target = tmp_path / "no_such_dir" / "out.txt"
    code, out, err = run_cli([*argv, "--output", str(target)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not target.exists()


def _forbid_engine_work(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(catalog, "product_coefficients", engine)
    monkeypatch.setattr(catalog, "exact_window_map", engine)


def test_verify_checks_every_item_before_running_any(capsys, monkeypatch):
    # sigma_commute_script, the 13th item, has no distant pair on 4 sites:
    # the run stops there before the first item's engine is called
    _forbid_engine_work(monkeypatch)
    code, out, err = run_cli(
        ["verify", "--identity", "all", "--sites", "4", "--window", "8", "--precision", "64"],
        capsys,
    )
    assert (code, out, err) == (2, "", "error: sites too small for any distant pair\n")


def test_verify_opens_output_before_running_any_item(capsys, monkeypatch, tmp_path):
    _forbid_engine_work(monkeypatch)
    target = tmp_path / "no_such_dir" / "x.jsonl"
    code, out, err = run_cli(
        ["verify", "--identity", "all", "--sites", "32", "--window", "8",
         "--precision", "64", "--output", str(target)],
        capsys,
    )
    assert code == 2 and out == "" and err.startswith("error: [Errno 2] ")
    assert not target.exists()


def test_engine_error_after_output_opened_exits_two(capsys, monkeypatch, tmp_path):
    # a run that raises once the file is open leaves the file empty
    def engine(*args, **kwargs):
        raise NoCertificate("form not positive definite")

    monkeypatch.setattr(catalog, "product_coefficients", engine)
    target = tmp_path / "r.jsonl"
    code, out, err = run_cli(
        ["verify", "--identity", "seven_term", "--output", str(target)], capsys
    )
    assert (code, out, err) == (2, "", "error: form not positive definite\n")
    assert target.read_text() == ""


def test_verify_deterministic_across_runs(capsys):
    argv = ["verify", "--identity", "seven_term,rewrite_walk",
            "--precision", "10", "--seed", "5"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert normalized(out1) == normalized(out2)


def test_verify_forced_fail_exits_one(capsys, monkeypatch):
    def failing(plan):
        report = catalog._run(plan)
        return Report(
            report.schema_version,
            report.identity,
            report.params,
            "FAIL",
            report.per_monomial,
            report.certificate_summary,
            report.elapsed_ms,
        )

    monkeypatch.setattr(cli, "_run", failing)
    code, out, _ = run_cli(["verify", "--identity", "mult1"], capsys)
    assert code == 1
    rows = parse_jsonl(out)
    assert rows[-1]["summary"] == {
        "total": 1, "passed": 0, "failed": 1, "status": "FAIL"
    }


def test_verify_unknown_identity_exits_two(capsys):
    code, out, err = run_cli(["verify", "--identity", "octagon"], capsys)
    assert code == 2 and out == ""
    assert "octagon" in err


def test_verify_unknown_identity_next_to_all_exits_two(capsys):
    code, out, err = run_cli(["verify", "--identity", "all,octagon"], capsys)
    assert code == 2 and out == ""
    assert "unknown identity 'octagon'" in err


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--window", "0"], 2),
        (["--precision", "1"], 2),
        (["--window", "1", "--precision", "2"], 0),
    ],
    ids=["W0", "P1", "W1-P2"],
)
def test_verify_all_exits_two_only_below_the_probe_bound(capsys, argv, code):
    # every identity holds at these parameters, but the probe cannot refute
    # its printed variant below window 1 or precision 2
    got, out, err = run_cli(["verify", "--identity", "all", *argv], capsys)
    assert got == code
    if code == 2:
        assert out == ""
        assert err == (
            "error: lattice_family2_probe needs window >= 1 and precision >= 2 "
            "to refute the printed variant\n"
        )
    else:
        assert err == "" and parse_jsonl(out)[-1]["summary"]["status"] == "PASS"


def test_verify_bad_params_exit_two(capsys):
    code, _, err = run_cli(
        ["verify", "--identity", "seven_term", "--precision", "100"], capsys
    )
    assert code == 2 and "error" in err
    # the identity and its derivation both live on two sites
    for name in ("seven_term", "seven_term_script"):
        code, out, err = run_cli(["verify", "--identity", name, "--sites", "1"], capsys)
        assert (code, out, err) == (2, "", "error: needs at least two sites\n")


@pytest.mark.parametrize(
    "flag", [["--tolerance", "1e-6"], ["--jobs", "2"]], ids=["tolerance", "jobs"]
)
def test_verify_rejects_unknown_flag(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *flag])
    assert exc.value.code == 2


# ---------------------------------------------------------------- list


def test_list_outputs_catalog(capsys):
    code, out, err = run_cli(["list"], capsys)
    assert code == 0 and err == ""
    rows = parse_jsonl(out)
    assert [r["name"] for r in rows] == identity_names()
    assert all(set(r) == {"name", "description", "defaults"} for r in rows)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(qtorus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qtorus", "list"], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert [r["name"] for r in parse_jsonl(proc.stdout.decode())] == identity_names()


# ---------------------------------------------------------------- replay


def test_replay_script_file(capsys, tmp_path):
    path = tmp_path / "braid.txt"
    path.write_text(render_script(braid_script(1, 3)))
    code, out, err = run_cli(["replay", str(path)], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["name"] == "braid(1)"
    assert doc["steps"] == doc["steps_applied"] == 8
    assert doc["error"] is None


def test_replay_wrong_end_exits_one(capsys, tmp_path):
    text = render_script(braid_script(1, 3))
    lines = text.splitlines()
    end_idx = next(i for i, ln in enumerate(lines) if ln.startswith("end:"))
    lines[end_idx] = "end: s1+ s1-"
    path = tmp_path / "bad_end.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["replay", str(path)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["error"]


@pytest.mark.parametrize(
    "step",
    [
        "@0 nosuchrel fwd",
        "@0 comm0[m=1] fwd",
        "@0 comm0[n=x] fwd",
        "@0 comm0 fwd",
        "@0 comm0[n=1,zzz=7] fwd",
        "@0 comm0[n=1,n=2] fwd",
    ],
    ids=[
        "unknown_relation",
        "wrong_binding",
        "non_integer_binding",
        "no_binding",
        "extra_binding",
        "repeated_binding",
    ],
)
def test_replay_unparsable_file_exits_two(capsys, tmp_path, step):
    path = tmp_path / "junk.txt"
    path.write_text(f"script: x\nstart: s1+\n{step}\nend: s1+\n")
    code, out, err = run_cli(["replay", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("line", ["script: b", "start: s1- s1+", "end: s1+ s1-"])
def test_replay_repeated_header_line_exits_two(capsys, tmp_path, line):
    # without the check, the second start word replays to the end word
    # with ok: true and exit 0
    path = tmp_path / "twice.txt"
    path.write_text(f"script: a\nstart: s1+ s1-\n{line}\nend: s1- s1+\n")
    code, out, err = run_cli(["replay", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ") and "given twice" in err


def test_replay_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run_cli(["replay", str(tmp_path / "absent.txt")], capsys)
    assert code == 2 and err


def test_replay_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    # a UTF-16 byte-order mark cannot start UTF-8 text; without the check the
    # decode error escapes as a traceback, which reads as a failed replay
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe" + "script: a\nstart: s1+\nend: s1+\n".encode("utf-16-le"))
    code, out, err = run_cli(["replay", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ") and "utf-8" in err
