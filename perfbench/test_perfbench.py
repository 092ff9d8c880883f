"""Checks of the benchmark itself.

    python3 -m pytest perfbench

The correctness-gate tests are quick.  The count-stability test makes two
traced runs of every workload, about a minute in all.
"""

from __future__ import annotations

import time

import pytest

import run
import trace_child

EXPECTED = run.expected_items("cli_defaults")


@pytest.fixture(scope="module")
def defaults_output() -> run.Run:
    return run.qtorus(["verify", *run.WORKLOADS["cli_defaults"](3)], time.monotonic() + run.HARD_LIMIT_S)


def test_seed_output_passes_the_gate(defaults_output):
    assert run.check_verify(defaults_output.stdout, defaults_output.returncode, EXPECTED) == {}


def test_gate_catches_wrong_verdict_report_and_exit(defaults_output):
    lines = defaults_output.stdout.decode().splitlines()

    def check(kept_lines, returncode=0):
        return run.check_verify("\n".join(kept_lines).encode(), returncode, EXPECTED)

    flipped = [l.replace('"printed_status":"FAIL"', '"printed_status":"PASS"') for l in lines]
    assert check(flipped) == {"lattice_family2_probe": "probe verdicts differ from PASS/FAIL"}
    tampered = [l.replace('"W":3', '"W":4', 1) if '"mult1"' in l else l for l in lines]
    assert check(tampered) == {"mult1": "report differs from the reference"}
    missing = [l for l in lines if '"translations"' not in l]
    assert check(missing) == {"translations": "missing"}
    assert len(check(lines, returncode=1)) == len(EXPECTED)


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(trace_child, "TARGETS", (
        ("gone.function", "no_such_module", "function"),
        ("gone.method", "series", "NoSuchClass.method"),
    ))
    tracer = trace_child.Tracer()
    tracer.install()
    assert tracer.absent == ["gone.function", "gone.method"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_and_self_times_fit_the_wall(workload):
    counts = []
    for _ in range(2):
        traced, stats, meta = run.traced_run(workload, 0, time.monotonic() + run.HARD_LIMIT_S)
        assert run.check_verify(traced.stdout, traced.returncode, run.expected_items(workload)) == {}
        assert meta["absent"] == []
        self_ns = sum(entry["self_ns"] for entry in stats.values())
        assert 0 < self_ns <= traced.wall_s * 1e9
        counts.append(
            (meta["counts"], {name: entry["calls"] for name, entry in stats.items()})
        )
    assert counts[0] == counts[1]
