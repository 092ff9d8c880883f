"""Run one ``qtorus`` command with the public functions of each layer wrapped
in timing spans.

    python3 perfbench/trace_child.py OUT_DIR qtorus-argument...

The package is imported from ``PYTHONPATH`` as usual; nothing under ``src/``
changes.  Every call of a wrapped function records a span (name, start, end,
parent span) in memory.  When the command ends, the spans are written to
``OUT_DIR/spans.bin`` as four arrays of signed 64-bit integers (name index,
start ns, end ns, parent index or -1), and the name table, exact counts and
the layers that could not be found go to ``OUT_DIR/meta.json``.  The
command's own output and exit status pass through unchanged.

Spans assume one thread: run the command without ``--jobs``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array

# (span name, module, attribute) of each wrapped function.  A module-level
# function is replaced wherever a qtorus module bound it by name; a method is
# replaced on its class.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("catalog.verify_identity", "catalog", "verify_identity"),
    ("verifier.coefficient_of", "verifier", "coefficient_of"),
    ("verifier.exact_window_map", "verifier", "exact_window_map"),
    ("qexp.euler_coeff_truncated", "qexp", "euler_coeff_truncated"),
    ("series.laurent_mul", "series", "LaurentSeries.__mul__"),
    ("series.to_rational_q", "series", "FactoredRational.to_rational_q"),
    ("series.factored_add", "series", "FactoredRational.__add__"),
    ("algebra.element_mul", "algebra", "Element.__mul__"),
    ("words.replay", "words", "replay"),
    ("scripts.word_image", "scripts", "word_image"),
)


class Tracer:
    """In-memory span store plus the exact counts read off wrapped results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = [-1]
        self.counts = {
            "verifier.kept_tuples": 0,
            "verifier.max_kernel_rank": 0,
            "verifier.exact_monomials": 0,
            "words.replay.steps": 0,
        }
        self.euler_keys: set = set()
        self.item_spans: list[tuple[int, str]] = []
        self.absent: list[str] = []

    def wrap(self, span_name, fn, hook=None):
        nid = len(self.names)
        self.names.append(span_name)
        name, start, end, parent, stack, absent = (
            self.name, self.start, self.end, self.parent, self.stack, self.absent,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(sid, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the result changed shape: drop the count, keep the run
                    if span_name + " counts" not in absent:
                        absent.append(span_name + " counts")
            return result

        return traced

    # hooks: each reads one count off a call's arguments or result

    def _coefficient_of(self, sid, args, kwargs, result):
        cert = result[1]
        self.counts["verifier.kept_tuples"] += len(cert.tuples)
        if cert.kernel_rank > self.counts["verifier.max_kernel_rank"]:
            self.counts["verifier.max_kernel_rank"] = cert.kernel_rank

    def _exact_window_map(self, sid, args, kwargs, result):
        self.counts["verifier.exact_monomials"] += len(result[0])

    def _euler(self, sid, args, kwargs, result):
        self.euler_keys.add((args, tuple(sorted(kwargs.items()))))

    def _replay(self, sid, args, kwargs, result):
        self.counts["words.replay.steps"] += result.steps_applied

    def _verify_identity(self, sid, args, kwargs, result):
        self.item_spans.append((sid, args[0] if args else kwargs["name"]))

    def install(self):
        """Wrap every target that exists; record the missing ones as absent."""
        hooks = {
            "verifier.coefficient_of": self._coefficient_of,
            "verifier.exact_window_map": self._exact_window_map,
            "qexp.euler_coeff_truncated": self._euler,
            "words.replay": self._replay,
            "catalog.verify_identity": self._verify_identity,
        }
        modules = {}
        for _, mod_name, _ in TARGETS:
            try:
                modules[mod_name] = importlib.import_module(f"qtorus.{mod_name}")
            except ImportError:
                pass
        bound = [m for m in sys.modules.values()
                 if getattr(m, "__name__", "").split(".")[0] == "qtorus"]
        for span_name, mod_name, attr in TARGETS:
            owner = modules.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.absent.append(span_name)
                continue
            wrapper = self.wrap(span_name, fn, hooks.get(span_name))
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module in bound:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def dump(self, out_dir: str) -> None:
        with open(os.path.join(out_dir, "spans.bin"), "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)
        counts = dict(self.counts)
        counts["qexp.euler_distinct_keys"] = len(self.euler_keys)
        meta = {
            "names": self.names,
            "spans": len(self.name),
            "counts": counts,
            "items": self.item_spans,
            "absent": self.absent,
        }
        with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def main(argv: list[str]) -> int:
    out_dir, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("qtorus.cli")
    try:
        status = cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_dir)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
