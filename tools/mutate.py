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
fail.  The unchanged copy is run first, and must pass.  A faulted run
deselects ``STALE_CHECK``, which checks that every snippet occurs, since
the fault has just replaced its own.

Every run is bounded, so a fault that makes the suite loop or grow without
end still counts.  Each runs in its own session with an address-space cap
of ``MEMORY_CAP`` bytes (``RLIMIT_AS``, set in the child), so an allocation
past it raises ``MemoryError``.  A run that outlasts its time bound is
killed with its whole process group; so is anything a finished run left
running.  The unchanged run's bound is ``FIRST_TIMEOUT_S``; each faulted
run's is ``TIMEOUT_FACTOR`` times the unchanged run's wall time, and at
least ``TIMEOUT_FLOOR_S``.

One line is printed per entry: ``killed``, ``killed (timed out)``,
``killed (memory)`` (the suite failed, outlasted its bound, or failed with
a ``MemoryError``), ``SURVIVED`` (the suite passed with the fault in place)
or ``STALE`` (the snippet does not occur exactly once, so the entry no
longer describes the code).  The exit status is 1 if the unchanged suite
fails or exceeds a bound, or any entry survived or is stale.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the unchanged suite peaks at about 240 MiB resident
MEMORY_CAP = 2 << 30
FIRST_TIMEOUT_S = 1200
TIMEOUT_FACTOR = 5
TIMEOUT_FLOOR_S = 120
STALE_CHECK = "tests/test_tooling.py::test_no_planted_fault_is_stale"
# a run's outcome -> the line printed for a faulted run that had it
VERDICTS = {
    None: "STALE",
    "passed": "SURVIVED",
    "failed": "killed",
    "timed out": "killed (timed out)",
    "out of memory": "killed (memory)",
}

FAULTS = [
    # the rewrite layer: matcher, walk, search and relation list
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
        "src/qtorus/scripts.py",
        "_pattern_index(structural_relations(x.site for x in start))\n    word = tuple(start)",
        "_pattern_index(structural_relations(sorted({x.site for x in start})[:-1]))\n"
        "    word = tuple(start)",
        "walk indexes the relations one site short of its start's",
    ),
    (
        "src/qtorus/scripts.py",
        "if len(image := apply_step(word, step)) <= length_cap",
        "if len(image := apply_step(word, step)) <= length_cap or True",
        "walk without its length cap",
    ),
    (
        "src/qtorus/scripts.py",
        "if len(image) <= len(start) and image not in parent:",
        "if len(image) < len(start) and image not in parent:",
        "the search's cap one letter too low",
    ),
    (
        "src/qtorus/scripts.py",
        "word = frontier.popleft()",
        "word = frontier.pop()",
        "the search goes depth-first",
    ),
    (
        "src/qtorus/scripts.py",
        "    rels.extend(comm0(n) for n in sites)\n",
        "",
        "structural relations without the same-site swaps",
    ),
    (
        "src/qtorus/scripts.py",
        "if b - a >= 2:",
        "if b - a >= 1:",
        "far commutations listed from the neighbouring site",
    ),
    (
        "src/qtorus/scripts.py",
        "sites = sorted(set(sites))",
        "sites = sorted(set(sites))[:-1]",
        "structural relations drop their highest site",
    ),
    # letters, relations and rules
    (
        "src/qtorus/words.py",
        '    __slots__ = ()\n    _fields = ("kind", "site", "sign")',
        '    _fields = ("kind", "site", "sign")',
        "Letter without __slots__ = (): each letter gets a __dict__",
    ),
    (
        "src/qtorus/words.py",
        "*seven_term_words(S(n, 1), S(n, -1), S(n + 1, 1))",
        "seven_term_words(S(n, 1), S(n, -1), S(n + 1, 1))[0], "
        "seven_term_words(S(n, 1), S(n, -1), S(n + 1, 1))[1][::-1]",
        "rel1 with its right side reversed",
    ),
    (
        "src/qtorus/words.py",
        "*seven_term_words(S(n, -1), S(n, 1), S(n + 1, -1))",
        "seven_term_words(S(n, -1), S(n, 1), S(n + 1, -1))[0], "
        "seven_term_words(S(n, -1), S(n, 1), S(n + 1, -1))[1][::-1]",
        "rel2 with its right side reversed",
    ),
    (
        "src/qtorus/words.py",
        "*seven_term_words(S(n + 1, -1), S(n + 1, 1), S(n, 1))",
        "seven_term_words(S(n + 1, -1), S(n + 1, 1), S(n, 1))[0], "
        "seven_term_words(S(n + 1, -1), S(n + 1, 1), S(n, 1))[1][::-1]",
        "rel3 with its right side reversed",
    ),
    (
        "src/qtorus/words.py",
        "*seven_term_words(S(n + 1, 1), S(n + 1, -1), S(n, -1))",
        "seven_term_words(S(n + 1, 1), S(n + 1, -1), S(n, -1))[0], "
        "seven_term_words(S(n + 1, 1), S(n + 1, -1), S(n, -1))[1][::-1]",
        "rel4 with its right side reversed",
    ),
    (
        "src/qtorus/words.py",
        "        (S(n, -1), S(n, 1)),\n",
        "        (S(n, -1), S(n, -1)),\n",
        "comm0's right side s_n- s_n-",
    ),
    (
        "src/qtorus/words.py",
        "(S(b_site, b_sign), S(a_site, a_sign)),",
        "(S(b_site, -b_sign), S(a_site, a_sign)),",
        "far's right side with its first sign flipped",
    ),
    (
        "src/qtorus/words.py",
        "a + b - (b * a).scale(1),",
        "a + b - (b * a).scale(3),",
        "mult2_rule's merged argument with q^3 for q",
    ),
    (
        "src/qtorus/words.py",
        '        if site < 1:\n            raise InvalidParams("site must be >= 1")\n',
        "",
        "Letter accepts a site below 1",
    ),
    (
        "src/qtorus/words.py",
        "    if not (text.isascii() and text.isdigit()):\n        raise ValueError(text)\n",
        "",
        "script bindings read by int(), which takes signs, spaces and other digits",
    ),
    # the record base
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
        "src/qtorus/errors.py",
        "setattr(cls, name, property(itemgetter(i)))",
        "setattr(cls, name, property(itemgetter(len(names) - 1 - i)))",
        "record fields read in reverse order",
    ),
    (
        "src/qtorus/errors.py",
        "new.__defaults__ = tuple(",
        "new.__defaults__ = () and tuple(",
        "record constructors ignore _defaults",
    ),
    # exact elements
    (
        "src/qtorus/algebra.py",
        "{e + power: sign * c for e, c in coeff.items()}",
        "{e + power: c for e, c in coeff.items()}",
        "Element.scale ignores its sign",
    ),
    (
        "src/qtorus/algebra.py",
        "if coeff := {e: c for e, c in coeff.items() if c}:",
        "if coeff := dict(coeff):",
        "Element keeps zero entries and empty terms",
    ),
    (
        "src/qtorus/algebra.py",
        '        if sites < 1:\n            raise InvalidParams("need at least one site")\n',
        "",
        "Element accepts a chain of no sites",
    ),
    (
        "src/qtorus/algebra.py",
        'parts = [f"w{i}^{e}" for i, e in enumerate(exponents, 1) if e]',
        'parts = [f"w{i}" if e == 1 else f"w{i}^{e}" for i, e in enumerate(exponents, 1) if e]',
        "monomial labels print w1^1 as w1",
    ),
    # series and exact rationals
    (
        "src/qtorus/series.py",
        "{e: c for e, c in coeffs.items() if c and e < precision}",
        "{e: c for e, c in coeffs.items() if e < precision}",
        "LaurentSeries keeps zero coefficients",
    ),
    (
        "src/qtorus/series.py",
        "for d in sorted(den) if len(self.num) > 1 else ():",
        "for d in ():",
        "canonical form keeps the cyclotomic factors it shares with the numerator",
    ),
    (
        "src/qtorus/series.py",
        "return widen(self.num, other.den - self.den) == widen(other.num, self.den - other.den)",
        "return self.num == other.num",
        "FactoredRational equality compares the raw numerators",
    ),
    (
        "src/qtorus/series.py",
        "    return tuple(quot)\n",
        "    return tuple(quot) + (0,)\n",
        "exact division returns its quotient with a trailing zero",
    ),
    (
        "src/qtorus/series.py",
        "if any(k < 1 or v < 0 for k, v in d.items()):",
        "if False:",
        "FactoredRational accepts a cyclotomic index below 1",
    ),
    # Euler expansions
    (
        "src/qtorus/qexp.py",
        "divide_by_one_minus(dense[:], orders[-1])",
        "divide_by_one_minus(dense, orders[-1])",
        "Euler expansion aliases its parent instead of copying it",
    ),
    (
        "src/qtorus/qexp.py",
        "top = orders.index(orders[-1])",
        "top = len(orders) - 1",
        "Euler expansion lowers the last copy of the largest entry: an unsorted parent key",
    ),
    # both engines: checks, setup, settles, the walk, expansions and the pair split
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
        "src/qtorus/verifier.py",
        "qpow + k * k",
        "qpow + k",
        "exact engine: a leaf's q-power sums k, not k^2",
    ),
    (
        "src/qtorus/verifier.py",
        "max_order = max(max(ks) for _, _, ks in leaves)",
        "max_order = max(ks[0] for _, _, ks in leaves)",
        "exact engine: largest order read from each leaf's first order only",
    ),
    (
        "src/qtorus/verifier.py",
        '    if window < 0:\n        raise InvalidParams("window must be >= 0")\n    chosen',
        "    chosen",
        "window_targets accepts a negative window",
    ),
    (
        "src/qtorus/verifier.py",
        "        if not 1 <= s <= sites:\n",
        "        if False:\n",
        "window_targets accepts a support site off the chain",
    ),
    (
        "src/qtorus/verifier.py",
        '    if precision < 1:\n        raise InvalidParams("precision must be >= 1")\n',
        "",
        "truncated engine accepts a precision below 1",
    ),
    (
        "src/qtorus/verifier.py",
        "        if x.site > sites:\n",
        "        if False:\n",
        "truncated engine accepts a letter beyond the chain",
    ),
    (
        "src/qtorus/verifier.py",
        "if factors[idx + 1 : idx + 2] == (S(f.site, -f.sign),):",
        "if factors[idx + 1 : idx + 2] == (S(f.site, f.sign),):",
        "same-sign neighbours collapsed as an inverse pair",
    ),
    (
        "src/qtorus/verifier.py",
        "tuple(tuple(-scale * x for x in row[rank:]) for row in rows[:rank])",
        "tuple(tuple(scale * x for x in row[rank:]) for row in rows[:rank])",
        "walk centre map with its sign flipped",
    ),
    (
        "src/qtorus/verifier.py",
        "(s, t, h if s == t else 2 * h)",
        "(s, t, h)",
        "Schur complement's off-diagonal terms not doubled",
    ),
    (
        "src/qtorus/verifier.py",
        "return len(self.gram_restricted) + len(self.pairs)",
        "return len(self.gram_restricted)",
        "certificate's kernel rank without one per collapsed pair",
    ),
    (
        "src/qtorus/verifier.py",
        "return min((q for _, q in self.points), default=None)",
        "return max((q for _, q in self.points), default=None)",
        "certificate's minimum valuation is the largest",
    ),
    (
        "src/qtorus/verifier.py",
        "can_raise: set[int] = set(pairs)",
        "can_raise: set[int] = set()",
        "a side whose first unit is a pair is constrained",
    ),
    (
        "src/qtorus/verifier.py",
        "if coeff > 0 or j in pairs:",
        "if coeff > 0:",
        "pairs cannot raise their side",
    ),
    (
        "src/qtorus/verifier.py",
        "levels.append((j, first, coeff, first not in can_raise, j not in pairs))",
        "levels.append((j, first, coeff, True, j not in pairs))",
        "every walk level clamps",
    ),
    (
        "src/qtorus/verifier.py",
        "levels.append((j, first, coeff, first not in can_raise, j not in pairs))",
        "levels.append((j, first, coeff, False, j not in pairs))",
        "no walk level clamps",
    ),
    (
        "src/qtorus/verifier.py",
        "levels.append((j, first, coeff, first not in can_raise, j not in pairs))",
        "levels.append((j, first, coeff, first not in can_raise, True))",
        "pair levels clamped at 0",
    ),
    (
        "src/qtorus/verifier.py",
        "return tuple(levels), can_raise",
        "return tuple(levels), set(pairs)",
        "sides that a coordinate raises treated as one-sign",
    ),
    (
        "src/qtorus/verifier.py",
        "one_sign = [(i, e) for f, e, i in firsts if f not in raisers]",
        "one_sign = [(i, e) for f, e, i in firsts]",
        "every site settled as one-sign",
    ),
    (
        "src/qtorus/verifier.py",
        "one_sign = [(i, e) for f, e, i in firsts if f not in raisers]",
        "one_sign = []",
        "no site settled as one-sign: negative k reach the Euler expansions",
    ),
    (
        "src/qtorus/verifier.py",
        '        if headroom <= 0:\n            yield zero, TupleCertificate(shared, target, "qmin")',
        '        if headroom < 0:\n            yield zero, TupleCertificate(shared, target, "qmin")',
        "targets with qmin equal to P walked instead of settled",
    ),
    (
        "src/qtorus/verifier.py",
        "s = math.isqrt((budget - 1) // di)",
        "s = math.isqrt(budget // di)",
        "walk admits points with Q equal to the bound",
    ),
    (
        "src/qtorus/verifier.py",
        "y_lo = -((s - c2) // lam2)",
        "y_lo = -((s - c2) // lam2) + 1",
        "walk interval's low end one too high",
    ),
    (
        "src/qtorus/verifier.py",
        "y_hi = (c2 + s) // lam2",
        "y_hi = (c2 + s) // lam2 - 1",
        "walk interval's high end one too low",
    ),
    (
        "src/qtorus/verifier.py",
        "if y_lo < -part:\n                    y_lo = -part",
        "if y_lo < 1 - part:\n                    y_lo = 1 - part",
        "walk clamp one too tight on a raising coordinate",
    ),
    (
        "src/qtorus/verifier.py",
        "elif y_hi > part:\n                y_hi = part",
        "elif y_hi > part - 1:\n                y_hi = part - 1",
        "walk clamp one too tight on a lowering coordinate",
    ),
    (
        "src/qtorus/verifier.py",
        "        k[first] = part\n",
        "",
        "walk does not restore a side's running sum",
    ),
    (
        "src/qtorus/verifier.py",
        "if need > size or not expansions:",
        "if not expansions:",
        "Euler expansions never regrow for a negative valuation",
    ),
    (
        "src/qtorus/verifier.py",
        "need = (precision - min(0, min_val) + 1) // 2",
        "need = (precision + 1) // 2",
        "Euler expansions cut to P terms",
    ),
    (
        "src/qtorus/verifier.py",
        "expansions = {root: euler_expansion({}, (size - 1,) * len(pairs), size)}",
        "expansions[root] = euler_expansion({}, (size - 1,) * len(pairs), size)",
        "regrowth keeps the shorter expansions",
    ),
    (
        "src/qtorus/verifier.py",
        "euler_expansion({}, (size - 1,) * len(pairs), size)",
        "euler_expansion({}, (size - 2,) * len(pairs), size)",
        "pairs' root expansion one order short",
    ),
    (
        "src/qtorus/verifier.py",
        "        for k, qval in kept:\n            orders = tuple(sorted(pick(k) if pairs else k))\n",
        "        seen = set()\n"
        "        for k, qval in kept:\n"
        "            orders = tuple(sorted(pick(k) if pairs else k))\n"
        "            if (orders, qval) in seen:\n"
        "                continue\n"
        "            seen.add((orders, qval))\n",
        "term assembly skips a point whose (multiset, Q) was already added",
    ),
    (
        "src/qtorus/verifier.py",
        "orders = tuple(sorted(pick(k) if pairs else k))",
        "orders = tuple(pick(k) if pairs else k)",
        "unsorted multiset key",
    ),
    (
        "src/qtorus/verifier.py",
        "count = sum(len(_pair_range(ms[-1], left)) for left in lefts)",
        "count = sum(len(_pair_range(ms[-1], left)) + 1 for left in lefts)",
        "split count off by one",
    ),
    (
        "src/qtorus/verifier.py",
        "max(abs(m) + len(_pair_range(m, budget)) - 1 for m in ms)",
        "max(abs(m) + len(_pair_range(m, budget)) for m in ms)",
        "split's largest entry off by one",
    ),
    (
        "src/qtorus/verifier.py",
        "for left in lefts for b in _pair_range(m, left)]",
        "for left in lefts for b in _pair_range(m, left)[:-1]]",
        "split's first pairs' b range one short",
    ),
    (
        "src/qtorus/verifier.py",
        "(k + (b + max(m, 0), b + max(-m, 0)), left - 2 * b * (b + abs(m)))",
        "(k + (b + max(-m, 0), b + max(m, 0)), left - 2 * b * (b + abs(m)))",
        "a pair's members swapped when its tuples are listed",
    ),
    (
        "src/qtorus/verifier.py",
        "split = splits[key] = _split(key[0], precision - qval)",
        "split = splits[key] = _split(key[0], precision)",
        "split counted on the whole precision, not the budget left",
    ),
    (
        "src/qtorus/verifier.py",
        "key = nets(k), qval",
        "key = nets(k), 0",
        "split memo keyed without the valuation",
    ),
    (
        "src/qtorus/verifier.py",
        '    if window < 0:\n        raise InvalidParams("window must be >= 0")\n    sites',
        "    sites",
        "exact engine accepts a negative window",
    ),
    # the catalog: side classes, rows, plans and parameters
    (
        "src/qtorus/catalog.py",
        "sign = -1 if inverted else 1",
        "sign = 1",
        "side classes ignore inversion",
    ),
    (
        "src/qtorus/catalog.py",
        "step = radix**place",
        "step = radix ** (digits - 1 - place)",
        "mirror index keeps the digit order",
    ),
    (
        "src/qtorus/catalog.py",
        "((_image(word, lo, hi, inv, mir), supports[mir]), inv, mir)",
        "((_image(word, lo, hi, inv, mir), ()), inv, mir)",
        "side class keyed without its pair's support",
    ),
    (
        "src/qtorus/catalog.py",
        "((_image(word, lo, hi, inv, mir), supports[mir]), inv, mir)",
        "((_image(word, lo, hi, inv, mir), supports[0]), inv, mir)",
        "support image never mirrored",
    ),
    (
        "src/qtorus/catalog.py",
        "            if inverted != rep_inverted:\n                table = table[::-1]\n",
        "",
        "no inversion map between sides of a class",
    ),
    (
        "src/qtorus/catalog.py",
        "            if mirrored != rep_mirrored:\n",
        "            if False:\n",
        "no mirror map between sides of a class",
    ),
    (
        "src/qtorus/catalog.py",
        '"match": ltext == rtext}',
        '"match": ltext is rtext}',
        "rows compare texts by identity",
    ),
    (
        "src/qtorus/catalog.py",
        "                    fold_certificate(stats, cert)\n",
        "                    if cert.points:\n                        fold_certificate(stats, cert)\n",
        "only certificates with points folded into the summary",
    ),
    (
        "src/qtorus/catalog.py",
        "tuples, rank, index = cert.tuple_count,",
        "tuples, rank, index = len(cert.tuples),",
        "fold_certificate lists the tuples to count them",
    ),
    (
        "src/qtorus/catalog.py",
        "        blocks.append(\n",
        "        blocks.insert(\n            0,\n",
        "word-pair blocks returned in reverse order",
    ),
    (
        "src/qtorus/catalog.py",
        "    for label, lhs, rhs in pairs:\n",
        "    for label, lhs, rhs in pairs:\n"
        "        from .words import expand_composites\n"
        "        lhs, rhs = expand_composites(lhs), expand_composites(rhs)\n",
        "word comparison expands composite letters past the chain",
    ),
    (
        "src/qtorus/catalog.py",
        "(per, printed), _ = _compare_words(pairs, sites, window, precision)",
        "(printed, per), _ = _compare_words(pairs, sites, window, precision)",
        "probe's corrected and printed blocks swapped",
    ),
    (
        "src/qtorus/catalog.py",
        "for i, rows in zip(marks, blocks)",
        "for i, rows in zip(marks, blocks[1:] + blocks[:1])",
        "walk checkpoints read their neighbour's block",
    ),
    (
        "src/qtorus/catalog.py",
        'rels = [rel for rel in structural_relations(range(1, length + 1)) if rel.rid != "far"]',
        "rels = structural_relations(range(1, length + 1))",
        "chain items check the far commutations too",
    ),
    (
        "src/qtorus/catalog.py",
        '{"N": 2, "W": 3, "P": 20},',
        '{"N": 2, "W": 3, "p": 20},',
        "seven_term's precision default misspelt",
    ),
    (
        "src/qtorus/catalog.py",
        'for key in ("N", "n", "W", "P")',
        'for key in ("N", "W", "P")',
        "reports and listings drop n",
    ),
    (
        "src/qtorus/catalog.py",
        "        key: default if given[key] is None else given[key]\n"
        "        for key, default in item.defaults.items()\n",
        "        **item.defaults, **{key: v for key, v in given.items() if v is not None}\n",
        "every override reaches every item",
    ),
    # the command line
    (
        "src/qtorus/cli.py",
        "        yield sys.stdout\n        sys.stdout.flush()\n",
        "        yield sys.stdout\n",
        "stdout not flushed inside the command",
    ),
    (
        "src/qtorus/cli.py",
        "except (OSError, UnicodeDecodeError, KernelError) as exc:",
        "except KernelError as exc:",
        "main catches only the package's errors",
    ),
    (
        "src/qtorus/cli.py",
        "    with _output(args.output) as out:\n"
        "        total = failed = 0\n"
        "        for plan in plans:  # write each report once its item has run\n"
        "            report = _run(plan)\n",
        "    reports = [_run(plan) for plan in plans]\n"
        "    with _output(args.output) as out:\n"
        "        total = failed = 0\n"
        "        for report in reports:\n",
        "verify runs every item before it opens the output",
    ),
    (
        "src/qtorus/cli.py",
        'encoding="utf-8-sig"',
        'encoding="utf-8"',
        "replay reads a byte-order mark as part of the script",
    ),
    (
        "src/qtorus/cli.py",
        '    with open(args.file, "r", encoding="utf-8-sig") as fh:\n'
        "        script = parse_script(fh.read())\n",
        "    try:\n"
        '        with open(args.file, "r", encoding="utf-8-sig") as fh:\n'
        "            script = parse_script(fh.read())\n"
        "    except InvalidParams:\n"
        "        raise\n",
        "a second place that catches errors, in replay",
    ),
]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _run_suite(fault: tuple | None = None, timeout: float = FIRST_TIMEOUT_S) -> str | None:
    """The suite's outcome on a copy of the checkout with `fault`, an entry
    of FAULTS, applied: "passed", "failed", "timed out" or "out of memory";
    None if its snippet does not occur exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        if fault:
            path, snippet, replacement, _ = fault
            text = (tree / path).read_text()
            if text.count(snippet) != 1:
                return None
            (tree / path).write_text(text.replace(snippet, replacement))
            # the planted fault removes its own snippet, so this check would kill every fault
            command += ["--deselect", STALE_CHECK]
        run = subprocess.Popen(
            command,
            cwd=tree,
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
            preexec_fn=_cap_memory,
        )
        try:
            output, _ = run.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            output = None
        try:  # the whole group, or what the run left behind
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if output is None:
            run.communicate()
            return "timed out"
        if run.returncode == 0:
            return "passed"
        return "out of memory" if b"MemoryError" in output else "failed"


def main() -> int:
    start = time.monotonic()
    outcome = _run_suite()
    if outcome != "passed":
        print(f"the unchanged suite did not pass ({outcome})", flush=True)
        return 1
    timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * (time.monotonic() - start))
    bad = 0
    for fault in FAULTS:
        verdict = VERDICTS[_run_suite(fault, timeout)]
        bad += not verdict.startswith("killed")
        print(f"{verdict:18} {fault[0]}: {fault[3]}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
