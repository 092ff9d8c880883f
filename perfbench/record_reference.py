"""Record ``reference.json``: the canonical-report hashes that run.py checks.

    python3 perfbench/record_reference.py

Runs each workload once on the current checkout and stores, per workload and
catalog item, the SHA-256 of the item's canonical report without
``elapsed_ms``.  Items that take the seed are stored as null: only their
verdict is checked.  Record only from a commit whose reports are known to be
right; every later commit must reproduce these bytes.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from run import HARD_LIMIT_S, REFERENCE, WORKLOADS, canonical_hash, qtorus

SEEDED = {"rewrite_walk"}


def main() -> int:
    workloads = {}
    for workload, args in WORKLOADS.items():
        run = qtorus(["verify", *args(0)], time.monotonic() + HARD_LIMIT_S)
        if run.returncode != 0:
            print(f"error: {workload} exited with {run.returncode}", file=sys.stderr)
            return 1
        reports = [json.loads(line) for line in run.stdout.decode().splitlines()]
        workloads[workload] = {
            r["identity"]: None if r["identity"] in SEEDED else canonical_hash(r)
            for r in reports
            if "identity" in r
        }
    data = {"python": platform.python_version(), "workloads": workloads}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
