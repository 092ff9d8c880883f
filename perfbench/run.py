"""Benchmark of the ``qtorus verify`` command, run cold from the command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured command is a fresh interpreter, because a user of the command
line pays interpreter start-up, imports and empty module caches on every
call.  The program is imported from ``src/`` of the checkout that holds this
file; nothing is installed.

``--trace 0`` measures the end-to-end metrics:

* ``wall_s``: median wall seconds of the workload's verify process, from
  spawn to exit, over as many runs as fit in ``--seconds``;
* ``cpu_s``: median user+sys CPU seconds of that process, from its own
  rusage (``os.wait4``), never the all-children figure;
* ``peak_rss_mib``: median peak resident memory of that process;
* ``setup_s``: median wall seconds of a fresh ``qtorus list`` process, the
  fixed interpreter, import and argparse cost every command pays.

The three times are scaled to a reference host speed, measured next to each
timed process by ``calibrate()``; the unscaled medians go to stderr.

``--trace 1`` runs the workload once untraced and once under
``trace_child.py``, which wraps the public functions of each layer from
outside the program, and reports per-layer call counts and times.

Every run's output is checked against the known answers and the reference
reports in ``reference.json``; ``failed_share`` (failed catalog items over
attempted ones) is printed with the metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 1 when any item failed, and 2, with no
result printed, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
CLI = "import sys; from qtorus.cli import main; sys.exit(main(sys.argv[1:]))"

# Workloads: closed loop, one client, one command at a time.  Why each was
# chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "cli_defaults": lambda seed: ["--identity", "all", "--seed", str(seed)],
    "trunc_deep": lambda seed: ["--identity", "braid_alg", "--precision", "32", "--window", "3"],
    "trunc_wide": lambda seed: ["--identity", "sigma_alg", "--window", "3"],
    "exact_window": lambda seed: ["--identity", "mult1,mult2,pentagon", "--window", "8"],
}

SETUP_RUNS = 15
SETUP_BATCH = 5
# Other tenants of the host change its speed by up to about 1.7x for tens of
# seconds at a time, so raw times of the same program differ by more than any
# useful bound.  A fixed pure-Python loop is timed in this process before
# and after each timed child (or batch of short ones), and the child's times
# are scaled to the host speed at which that loop takes CAL_REF_S.
CAL_REF_S = 0.15
CAL_ROUNDS = 400
# Every process is killed this long after the benchmark started, so that the
# benchmark itself ends well within three minutes.
HARD_LIMIT_S = 170.0
MIB = 1024.0  # ru_maxrss is in KiB on Linux

# Spans of these wrapped functions give per-layer calls and times.
SPAN_METRICS = (
    ("verifier.coefficient_of", ("calls", "s", "self_s")),
    ("series.laurent_mul", ("calls", "s")),
    ("qexp.euler_coeff_truncated", ("calls", "s")),
    ("series.to_rational_q", ("calls", "s")),
    ("series.factored_add", ("calls", "s")),
    ("algebra.element_mul", ("calls", "s")),
    ("verifier.exact_window_map", ("calls", "self_s")),
    ("words.replay", ("calls", "s")),
    ("scripts.word_image", ("calls", "s")),
    ("catalog.verify_identity", ("self_s",)),
    ("cli.main", ("self_s",)),
)
# Exact counts read off wrapped results by trace_child.py.
COUNT_METRICS = (
    "verifier.kept_tuples",
    "verifier.max_kernel_rank",
    "verifier.exact_monomials",
    "qexp.euler_distinct_keys",
    "words.replay.steps",
)


class SetupError(Exception):
    """The program could not be run; the benchmark prints no result."""


class Run:
    """One finished child process: output, exit code and its own rusage."""

    def __init__(self, argv: list[str], deadline: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
        killer.start()
        try:
            self.stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mib = usage.ru_maxrss / MIB


def qtorus(args: list[str], deadline: float) -> Run:
    return Run([sys.executable, "-c", CLI, *args], deadline)


def calibrate() -> float:
    """Wall seconds, in this process, of a fixed loop of the verifier's two
    commonest operations: products of int-coefficient dicts (as in
    ``series._lmul``) and polynomial division with ``Fraction`` coefficients
    (as in ``series._pdiv_maybe``).  It uses nothing from ``src/``, so no
    change to the program can change it."""
    start = time.perf_counter()
    poly = {e: (e * 31) % 17 - 8 for e in range(40)}
    divisor = (Fraction(1), Fraction(-1), Fraction(1))
    for _ in range(CAL_ROUNDS):
        prod: dict[int, int] = {}
        for ea, ca in poly.items():
            for eb, cb in poly.items():
                prod[ea + eb] = prod.get(ea + eb, 0) + ca * cb
        rem = [Fraction(poly[e]) for e in range(12)]
        for top in range(len(rem) - 1, len(divisor) - 2, -1):
            quot = rem[top] / divisor[-1]
            for j, c in enumerate(divisor):
                rem[top - len(divisor) + 1 + j] -= quot * c
    return time.perf_counter() - start


def canonical_hash(report: dict) -> str:
    """SHA-256 of a report's canonical JSON without its ``elapsed_ms``."""
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def item_problems(report: dict | None, expected_hash: str | None) -> str | None:
    """Why one catalog item's report is wrong, or None when it is right."""
    if report is None:
        return "missing"
    if report.get("status") != "PASS":
        return f"status {report.get('status')}"
    if report["identity"] == "lattice_family2_probe":
        probe = report.get("certificate_summary", {}).get("probe", {})
        if (probe.get("corrected_status"), probe.get("printed_status")) != ("PASS", "FAIL"):
            return "probe verdicts differ from PASS/FAIL"
    if expected_hash is not None and canonical_hash(report) != expected_hash:
        return "report differs from the reference"
    return None


def check_verify(stdout: bytes, returncode: int, expected: dict[str, str | None]) -> dict[str, str]:
    """Map each failed item of one verify run to the reason it failed.

    ``expected`` maps each item the workload runs to its reference hash, or
    to None for an item whose bytes depend on the seed (only its verdict is
    checked).  A non-zero exit or a wrong summary line fails every item.
    """
    reports: dict[str, dict] = {}
    summary = None
    try:
        for line in stdout.decode().splitlines():
            obj = json.loads(line)
            if "summary" in obj:
                summary = obj["summary"]
            else:
                reports[obj["identity"]] = obj
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return {name: "unreadable output" for name in expected}
    want_summary = {"total": len(expected), "passed": len(expected), "failed": 0, "status": "PASS"}
    if returncode != 0 or summary != want_summary:
        why = f"exit {returncode}, summary {summary}"
        return {name: why for name in expected}
    failures = {}
    for name, digest in expected.items():
        why = item_problems(reports.get(name), digest)
        if why:
            failures[name] = why
    for name in reports.keys() - expected.keys():
        failures[name] = "not requested"
    return failures


def check_list(run: Run, names: list[str]) -> None:
    if run.returncode != 0:
        raise SetupError(f"`qtorus list` exited with {run.returncode}")
    try:
        listed = [json.loads(line)["name"] for line in run.stdout.decode().splitlines()]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise SetupError(f"`qtorus list` printed an unreadable catalog: {exc}") from None
    if listed != names:
        raise SetupError(f"`qtorus list` printed {listed}, expected {names}")


class Tally:
    """Catalog items attempted and failed over every verify run."""

    def __init__(self, expected: dict[str, str | None]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def add(self, run: Run) -> None:
        failures = check_verify(run.stdout, run.returncode, self.expected)
        self.attempted += len(self.expected)
        self.failed += len(failures)
        for name, why in sorted(failures.items()):
            print(f"FAILED {name}: {why}", file=sys.stderr)

    def share(self) -> float:
        return self.failed / self.attempted


def measure(workload: str, seed: int, seconds: int, names: list[str], tally: Tally) -> dict:
    """End-to-end metrics: medians over the runs that fit in ``seconds``,
    with every time scaled to the reference host speed (see CAL_REF_S)."""
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    cal = calibrate()

    def scale() -> float:
        """Reference speed over the speed seen around the last timed batch."""
        nonlocal cal
        before, cal = cal, calibrate()
        return CAL_REF_S / ((before + cal) / 2)

    setup, raw_setup = [], []
    for _ in range(SETUP_RUNS // SETUP_BATCH):
        batch = [qtorus(["list"], deadline) for _ in range(SETUP_BATCH)]
        for run in batch:
            check_list(run, names)
        factor = scale()
        setup.extend(run.wall_s * factor for run in batch)
        raw_setup.extend(run.wall_s for run in batch)
    verify_args = ["verify", *WORKLOADS[workload](seed)]
    wall, cpu, rss, raw_wall = [], [], [], []
    while True:
        run = qtorus(verify_args, deadline)
        factor = scale()
        tally.add(run)
        wall.append(run.wall_s * factor)
        cpu.append(run.cpu_s * factor)
        rss.append(run.peak_rss_mib)
        raw_wall.append(run.wall_s)
        if time.monotonic() + statistics.median(raw_wall) > t0 + seconds:
            break
    print(
        f"# {workload}: {len(wall)} verify runs, {len(setup)} list runs; unscaled medians: "
        f"wall {statistics.median(raw_wall):.4f} s, list {statistics.median(raw_setup):.4f} s",
        file=sys.stderr,
    )
    return {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def read_spans(out_dir: str) -> tuple[dict, dict]:
    """Per span name: calls, inclusive ns and self ns (inclusive minus the
    time covered by directly nested wrapped calls); plus the child's meta."""
    with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    cols = []
    with open(os.path.join(out_dir, "spans.bin"), "rb") as fh:
        for _ in range(4):
            col = array("q")
            col.fromfile(fh, n)
            cols.append(col)
    name, start, end, parent = cols
    child_ns = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_ns[parent[i]] += end[i] - start[i]
    stats = {s: {"calls": 0, "ns": 0, "self_ns": 0} for s in meta["names"]}
    for i in range(n):
        entry = stats[meta["names"][name[i]]]
        dur = end[i] - start[i]
        entry["calls"] += 1
        entry["ns"] += dur
        entry["self_ns"] += dur - child_ns[i]
    item_ns: dict[str, int] = {}
    for sid, item in meta["items"]:
        item_ns[item] = item_ns.get(item, 0) + end[sid] - start[sid]
    meta["item_ns"] = item_ns
    return stats, meta


def traced_run(workload: str, seed: int, deadline: float) -> tuple[Run, dict, dict]:
    """One verify run under trace_child.py: the run, span stats and meta."""
    argv = [sys.executable, str(HERE / "trace_child.py")]
    with tempfile.TemporaryDirectory(prefix=".trace-", dir=HERE) as out_dir:
        run = Run([*argv, out_dir, "verify", *WORKLOADS[workload](seed)], deadline)
        try:
            stats, meta = read_spans(out_dir)
        except OSError as exc:
            raise SetupError(f"the traced run (exit {run.returncode}) left no spans: {exc}") from None
    return run, stats, meta


def layer_metrics(stats: dict, meta: dict, names: list[str]) -> dict:
    """Per-layer metrics by name; a layer the program no longer has reads 0
    and is listed in ``meta["absent"]``."""
    out = {}
    for span, kinds in SPAN_METRICS:
        entry = stats.get(span, {"calls": 0, "ns": 0, "self_ns": 0})
        for kind in kinds:
            if kind == "calls":
                out[f"{span}.calls"] = (entry["calls"], "count")
            elif kind == "s":
                out[f"{span}.s"] = (entry["ns"] / 1e9, "s")
            else:
                out[f"{span}.self_s"] = (entry["self_ns"] / 1e9, "s")
    for key in COUNT_METRICS:
        out[key] = (meta["counts"].get(key, 0), "count")
    for item in names:
        out[f"catalog.item_s.{item}"] = (meta["item_ns"].get(item, 0) / 1e9, "s")
    return out


def trace(workload: str, seed: int, names: list[str], tally: Tally) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    plain = qtorus(["verify", *WORKLOADS[workload](seed)], deadline)
    tally.add(plain)
    run, stats, meta = traced_run(workload, seed, deadline)
    tally.add(run)
    if meta["absent"]:
        print(f"# absent layers (reported as 0): {', '.join(meta['absent'])}", file=sys.stderr)
    out = layer_metrics(stats, meta, names)
    out["cli.report_bytes"] = (len(plain.stdout), "bytes")
    out["trace.wall_s"] = (run.wall_s, "s")
    out["trace.overhead_s"] = (run.wall_s - plain.wall_s, "s")
    return out


def expected_items(workload: str) -> dict[str, str | None]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    names = list(expected_items("cli_defaults"))
    tally = Tally(expected_items(args.workload))
    try:
        # untimed warm-up: fails fast without the program, and leaves the
        # byte-code cache that an installed program would already have
        check_list(qtorus(["list"], time.monotonic() + HARD_LIMIT_S), names)
        if args.trace:
            metrics = trace(args.workload, args.seed, names, tally)
        else:
            metrics = measure(args.workload, args.seed, args.seconds, names, tally)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for key, (value, unit) in metrics.items():
        print(f"{args.workload}  {key} = {value} {unit}")
    print(f"{args.workload}  failed_share = {tally.share()} share "
          f"({tally.failed} of {tally.attempted} items)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
