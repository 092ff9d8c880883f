"""Catalog of verifiable identities and machine-readable reports.

Each catalog item names one identity (or one family of sub-checks run
together), carries its default parameters, and plans its own check: the
plan raises every parameter error the item can raise, builds what the item
compares, and names the evaluator of its engine mode that runs it:

* exact items compare window-restricted coefficient tables of products of
  q-exponentials with closed-form rational coefficients;
* truncated items compare certified coefficient extractions at a stated
  q-adic precision over a monomial window;
* the probe compares a corrected and a printed variant of one relation;
* replay items re-run stored derivation scripts step by step;
* the walk item drives a seeded random rewrite walk and checks that the
  algebra image of the word never changes.

Every truncated item, the probe and the walk among them, compares word
pairs through :func:`_compare_words`, which evaluates one side of each
symmetry class and reads every other side of the class through a map,
and folds the certificates it evaluates into the item's summary with
:func:`fold_certificate`.

:func:`verify_identity` resolves parameter overrides against the defaults,
plans the item, runs the plan, and returns a :class:`Report` whose
dictionary form is stable and canonically serializable.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Optional, Sequence

from .algebra import Element, monomial_label
from .errors import InvalidParams, Record
from .scripts import (
    braid_script,
    braid_translation_fwd,
    braid_translation_rev,
    random_walk,
    seven_term_script,
    sigma_commute_script,
    sigma_script1,
    sigma_script2,
    sigma_translation_fwd,
    sigma_translation_rev,
    structural_relations,
)
from .series import FactoredRational
from .verifier import TupleCertificate, exact_window_map, product_coefficients, window_targets
from .words import (
    ExpLetter, Relation, S, Word, mult1_rule, mult2_rule, pentagon_rule,
    rel1, rel4, replay,
)

__all__ = [
    "SCHEMA_VERSION",
    "MAX_SITES",
    "MAX_WINDOW",
    "MAX_PRECISION",
    "Report",
    "identity_names",
    "list_identities",
    "verify_identity",
]

SCHEMA_VERSION = 1
MAX_SITES = 32
MAX_WINDOW = 8
MAX_PRECISION = 64
_WALK_STEPS = 50
_WALK_LENGTH_CAP = 16


def _canonical(obj) -> str:
    """`obj` as canonical JSON: sorted keys and no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Report(Record):
    """Outcome of verifying one catalog item: a read-only value record,
    unhashable as it holds dicts."""

    __slots__ = ()
    _fields = (
        "schema_version", "identity", "params", "status", "per_monomial",
        "certificate_summary", "elapsed_ms",
    )

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self))

    def to_text(self) -> str:
        """Human-readable rendering of the same data as :meth:`to_dict`."""
        params = " ".join(
            f"{k}={v}" for k, v in self.params.items() if v is not None
        )
        lines = [f"{self.identity}: {self.status}", f"  params: {params}"]
        if self.per_monomial:
            matched = sum(1 for row in self.per_monomial if row["match"])
            lines.append(f"  monomials: {matched}/{len(self.per_monomial)} match")
            for row in self.per_monomial:
                if row["match"]:
                    lines.append(f"    {row['target']}: {row['lhs']}")
                else:
                    lines.append(
                        f"    {row['target']}: MISMATCH lhs={row['lhs']} rhs={row['rhs']}"
                    )
        rendered = []
        for k, v in self.certificate_summary.items():
            if isinstance(v, (dict, list)):
                rendered.append(f"{k}={_canonical(v)}")
            else:
                rendered.append(f"{k}={v}")
        if rendered:
            lines.append("  certificate: " + " ".join(rendered))
        lines.append(f"  elapsed: {self.elapsed_ms} ms")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _relation_label(rel: Relation) -> str:
    return f"{rel.rid}({','.join(v for _, v in rel.bindings)})"


def _row(label: str, lhs, rhs) -> dict:
    """One per-monomial report row: both coefficients and whether they agree.
    Equal values print alike, so a matching row renders only its left side."""
    text = str(lhs)
    match = lhs == rhs
    return {"target": label, "lhs": text, "rhs": text if match else str(rhs), "match": match}


def _image(word: Word, lo: int, hi: int, inverted: bool, mirrored: bool) -> tuple:
    """The (site, sign) sequence of the s-letters of `word` with every sign
    flipped if `inverted`, read backwards with each site n sent to lo + hi - n
    if `mirrored`, and translated so that the span lo..hi starts at site 1."""
    sign = -1 if inverted else 1
    if mirrored:
        return tuple((hi + 1 - x.site, sign * x.sign) for x in reversed(word))
    return tuple((x.site + 1 - lo, sign * x.sign) for x in word)


def _side_class(word: Word, support: Sequence[int]) -> tuple[tuple, bool, bool]:
    """The smallest of the four images of one side's s-letter `word` and of its
    pair's `support` under inversion and mirroring over that support,
    translated to site 1, and the (inverted, mirrored) flags that give it."""
    lo, hi = support[0], support[-1]
    supports = (
        tuple(s + 1 - lo for s in support),
        tuple(hi + 1 - s for s in reversed(support)),
    )
    return min(
        ((_image(word, lo, hi, inv, mir), supports[mir]), inv, mir)
        for inv in (False, True)
        for mir in (False, True)
    )


def _mirror_index(digits: int, radix: int) -> list[int]:
    """For each index of a box of `digits` base-`radix` digits, in box
    order, the index of the target with its digits reversed."""
    index = [0]
    for place in range(digits):
        step = radix**place
        index = [i + d for i in index for d in range(0, radix * step, step)]
    return index


def fold_certificate(stats: dict, cert: TupleCertificate) -> None:
    """Fold one certificate into the running maxima of a summary: tuples
    kept, the call's kernel rank and factor index (an absent key counts as
    0, and the keys are added in that order)."""
    tuples, rank, index = cert.tuple_count, cert.product.kernel_rank, cert.max_index
    if tuples > stats.setdefault("max_tuples", 0):
        stats["max_tuples"] = tuples
    if rank > stats.setdefault("max_kernel_rank", 0):
        stats["max_kernel_rank"] = rank
    if index > stats.setdefault("max_index", 0):
        stats["max_index"] = index


def _compare_words(
    pairs: Sequence[tuple[str, Word, Word]],
    sites: int,
    window: int,
    precision: int,
) -> tuple[list, dict]:
    """Compare the coefficients of labelled word pairs target by target over
    the box of the sites either word touches, returning one block of rows
    per pair, in pair order, and the summary.  The words are s-letter
    words, as the engine reads them; it rejects a composite letter.

    A term's valuation  Q(k) = sum k_l^2 - 2 sum eps_i eps_j k_i k_j,  over
    i < j with n_i = n_j + 1, keeps its value under three maps of a product
    and its targets: translating every site (the target moves with it),
    inverting every generator (eps_i eps_j is unchanged; T goes to -T), and
    reading the factors backwards with the sites mirrored in the support
    (k is reversed; T is reflected).  The denominator of a term depends only
    on the multiset of k and its sign only on sum k, so the image product
    has the same coefficient at the image target, and the same tuple
    count, kernel rank and largest index there.  So the sides fall into
    classes keyed by a side's smallest image together with the image of
    its pair's support.  Only the first side of a class is evaluated; its
    table is the rendered text of each target of its pair's box, in box
    order, and every later side of the class reads that table through the
    map between them: inversion negates every digit, so the table is read
    backwards, and mirroring reverses the digit order.  Later sides fold
    nothing new into the summary.

    The rows compare text: every series of one call has the same precision,
    and its text lists the sorted exponents, each with its signed
    coefficient, so equal text means equal series.

    The work per target is kept to its own: each support's box and its
    labels are built once per call and read by every pair on that support,
    and a series object is rendered once however many targets yield it
    (every settled target of a product call yields the engine's one zero).
    """
    blocks: list = []
    stats: dict = {}
    classes: dict = {}
    boxes: dict = {}
    for label, lhs, rhs in pairs:
        prefix = f"{label}: " if label else ""
        support = tuple(sorted({x.site for x in lhs + rhs})) or (1,)
        if support not in boxes:
            targets = window_targets(sites, support, window)
            boxes[support] = targets, [monomial_label(target) for target in targets]
        targets, labels = boxes[support]
        views = []
        for word in (lhs, rhs):
            key, inverted, mirrored = _side_class(word, support)
            if key not in classes:
                table = []
                last = text = None
                for _, series, cert in product_coefficients(word, sites, targets, precision):
                    if series is not last:
                        last, text = series, str(series)
                    table.append(text)
                    fold_certificate(stats, cert)
                classes[key] = (table, inverted, mirrored)
            table, rep_inverted, rep_mirrored = classes[key]
            if inverted != rep_inverted:
                table = table[::-1]
            if mirrored != rep_mirrored:
                table = [table[i] for i in _mirror_index(len(support), 2 * window + 1)]
            views.append(table)
        blocks.append(
            [
                {"target": prefix + monomial, "lhs": ltext, "rhs": rtext, "match": ltext == rtext}
                for monomial, ltext, rtext in zip(labels, *views)
            ]
        )
    return blocks, stats


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# evaluators: one per engine mode, each returning (status, rows, summary)
# ---------------------------------------------------------------------------


def _exact(
    lhs_args: Sequence[Element], rhs_args: Sequence[Element], window: int
) -> tuple[str, list, dict]:
    """Compare the exact coefficients of  E(lhs_1) E(lhs_2) ...  and
    E(rhs_1) ...  on the window; the summary gives the largest series order
    used."""
    lhs_map, k_lhs = exact_window_map(lhs_args, window)
    rhs_map, k_rhs = exact_window_map(rhs_args, window)
    zero = FactoredRational()
    per = [
        _row(monomial_label(target), lhs_map.get(target, zero), rhs_map.get(target, zero))
        for target in sorted(set(lhs_map) | set(rhs_map))
    ]
    summary = {"mode": "exact", "max_order": max(k_lhs, k_rhs), "window": window}
    return _status(all(row["match"] for row in per)), per, summary


def _truncated(head: dict, pairs, sites: int, window: int, precision: int):
    """Compare word pairs; `head` goes into the summary after its mode."""
    blocks, stats = _compare_words(pairs, sites, window, precision)
    per = [row for rows in blocks for row in rows]
    return _status(all(row["match"] for row in per)), per, {"mode": "truncated", **head, **stats}


def _probe(pairs, sites: int, window: int, precision: int):
    """Compare the corrected pair, then the printed one, each by its block.
    The probe passes when the corrected form verifies and the printed
    variant demonstrably does not; its rows are the corrected pair's."""
    (per, printed), _ = _compare_words(pairs, sites, window, precision)
    corrected_ok = all(row["match"] for row in per)
    # the first printed-side row that fails, reported without its match flag
    first_mismatch = next((row for row in printed if not row.pop("match")), None)
    printed_ok = first_mismatch is None
    summary = {
        "mode": "truncated",
        "probe": {
            "corrected_status": _status(corrected_ok),
            "printed_status": _status(printed_ok),
            "printed_first_mismatch": first_mismatch,
        },
    }
    return _status(corrected_ok and not printed_ok), per, summary


def _replay(scripts):
    details = []
    total = 0
    ok = True
    for script in scripts:
        res = replay(script)
        ok = ok and res.ok
        total += res.steps_applied
        entry = {"name": script.name, "steps": len(script.steps), "ok": res.ok}
        if res.error:
            entry["error"] = res.error
        details.append(entry)
    summary = {"mode": "replay", "scripts": details, "total_steps": total}
    return _status(ok), [], summary


def _walk(seed: int, trace: list, sites: int, window: int, precision: int):
    """Compare the walk's start word with its words at the checkpoints; each
    checkpoint matches when every row of its own pair's block does."""
    last = len(trace) - 1
    marks = sorted({min(i, last) for i in range(10, _WALK_STEPS + 1, 10)} | {last})
    pairs = [("", _WALK_START, trace[i]) for i in marks]
    blocks, _ = _compare_words(pairs, sites, window, precision)
    checkpoints = [
        {"step": i, "length": len(trace[i]), "match": all(row["match"] for row in rows)}
        for i, rows in zip(marks, blocks)
    ]
    ok = all(point["match"] for point in checkpoints)
    summary = {
        "mode": "walk",
        "seed": seed,
        "steps_taken": last,
        "final_length": len(trace[-1]),
        "checkpoints": checkpoints,
    }
    return _status(ok), [], summary


# ---------------------------------------------------------------------------
# plans: each checks one item's parameters and builds what it compares,
# returning its evaluator and the evaluator's arguments
# ---------------------------------------------------------------------------


def _two_sites(p: dict) -> None:
    if p["N"] < 2:
        raise InvalidParams("needs at least two sites")


def _plan_exact(name: str, p: dict):
    """Compare the two sides of the `words` rule `name` at u = w1 and v = w2;
    the rule checks its own q^2-commuting premise."""
    _two_sites(p)
    u, v = (ExpLetter(f"w{i}", Element.generator(p["N"], i)) for i in (1, 2))
    rel = {"mult1": mult1_rule, "mult2": mult2_rule, "pentagon": pentagon_rule}[name](u, v)
    return _exact, ([x.element for x in rel.lhs], [x.element for x in rel.rhs], p["W"])


def _words(p: dict, pairs, **head):
    """The truncated plan of labelled word pairs at the item's parameters."""
    return _truncated, (head, pairs, p["N"], p["W"], p["P"])


def _plan_seven_term(p: dict):
    _two_sites(p)
    # the four-factor vs three-factor identity is the first two-site relation
    rel = rel1(1)
    return _words(p, [("", rel.lhs, rel.rhs)])


def _plan_seven_term_script(p: dict):
    _two_sites(p)
    return _replay, ([seven_term_script()],)


def _chain_pairs(length: int) -> list[tuple[str, Word, Word]]:
    """:func:`structural_relations` of the first `length` sites without its
    far commutations, as labelled word pairs."""
    rels = [rel for rel in structural_relations(length) if rel.rid != "far"]
    return [(_relation_label(rel), rel.lhs, rel.rhs) for rel in rels]


def _plan_chain(p: dict, length: int):
    """Check the pairs of :func:`_chain_pairs` on p["N"] sites."""
    _two_sites(p)
    pairs = _chain_pairs(length)
    return _words(p, pairs, checks=len(pairs))


def _plan_probe(p: dict):
    n = p["n"]
    if n + 1 > p["N"]:
        raise InvalidParams("relation index exceeds the configured sites")
    # below these both variants agree on every target, at every n, as the
    # probe's words translate with n, so the probe could only fail
    if p["W"] < 1 or p["P"] < 2:
        raise InvalidParams(
            "lattice_family2_probe needs window >= 1 and precision >= 2 "
            "to refute the printed variant"
        )
    rel = rel4(n)
    printed_rhs = (S(n + 1, -1), S(n, -1), S(n, 1))
    pairs = [("", rel.lhs, rel.rhs), ("", rel.lhs, printed_rhs)]
    return _probe, (pairs, p["N"], p["W"], p["P"])


def _plan_braid_alg(p: dict):
    script = braid_script(p["n"], p["N"])
    return _words(p, [("", script.start, script.end)], script=script.name)


def _sigma_pairs(n: int, sites: int) -> list[tuple[str, Word, Word]]:
    """Both sides of the two c-letter relations at index n, named as scripts."""
    scripts = (sigma_script1(n, sites), sigma_script2(n, sites))
    return [(script.name, script.start, script.end) for script in scripts]


def _indexed_replay(script: Callable, low: int):
    """A plan that replays ``script(n, N)`` at the item's index n, or at
    every index from `low` up to N - 2 when none is given."""

    def plan(p: dict):
        indices = [p["n"]] if p["n"] is not None else range(low, p["N"] - 1)
        if not indices:
            raise InvalidParams("sites too small for any relation index")
        return _replay, ([script(n, p["N"]) for n in indices],)

    return plan


def _plan_sigma_commute(p: dict):
    n_sites = p["N"]
    pairs = [
        (m, n)
        for m in range(1, n_sites)
        for n in range(m + 3, n_sites)
    ]
    if not pairs:
        raise InvalidParams("sites too small for any distant pair")
    return _replay, ([sigma_commute_script(m, n, n_sites) for m, n in pairs],)


def _plan_translations(p: dict):
    max_n = p["N"]
    if max_n < 3:
        raise InvalidParams("needs indices up to at least 3")
    scripts = []
    for m in range(1, max_n - 1):
        for n in range(m + 2, min(m + 6, max_n) + 1):
            for k in range(m, n - 1):
                scripts.append(braid_translation_fwd(m, n, k))
                scripts.append(braid_translation_rev(m, n, k))
    for m in range(1, max_n - 2):
        for n in range(m + 3, min(m + 6, max_n) + 1):
            for k in range(m, n - 2):
                scripts.append(sigma_translation_fwd(m, n, k))
            for k in range(m + 1, n - 1):
                scripts.append(sigma_translation_rev(m, n, k))
    return _replay, (scripts,)


_WALK_START = tuple(
    S(site, sign) for site in (1, 2, 3) for sign in (1, -1)
)


def _plan_walk(p: dict):
    n_sites, seed = p["N"], p["seed"]
    if n_sites < 3:
        raise InvalidParams("walk words need at least three sites")
    trace, _ = random_walk(_WALK_START, _WALK_STEPS, random.Random(seed), _WALK_LENGTH_CAP)
    return _walk, (seed, trace, n_sites, p["W"], p["P"])


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


class CatalogItem(Record):
    __slots__ = ()
    _fields = ("name", "description", "defaults", "plan")


_ITEMS: list[CatalogItem] = [
    CatalogItem(
        "mult1",
        "E(u) E(v) = E(u+v) with exact rational coefficients on a window",
        {"N": 2, "W": 3},
        lambda p: _plan_exact("mult1", p),
    ),
    CatalogItem(
        "mult2",
        "E(v) E(u) = E(u+v-q v u) with exact rational coefficients",
        {"N": 2, "W": 3},
        lambda p: _plan_exact("mult2", p),
    ),
    CatalogItem(
        "pentagon",
        "E(v) E(u) = E(u) E(-q v u) E(v) with exact rational coefficients",
        {"N": 2, "W": 3},
        lambda p: _plan_exact("pentagon", p),
    ),
    CatalogItem(
        "seven_term",
        "four-factor vs three-factor identity for E(w2), E(w1^-1), E(w1)",
        {"N": 2, "W": 3, "P": 20},
        _plan_seven_term,
    ),
    CatalogItem(
        "two_site_set",
        "the six commutation identities on sites 1 and 2",
        {"N": 2, "W": 3, "P": 14},
        lambda p: _plan_chain(p, 2),
    ),
    CatalogItem(
        "lattice_set",
        "all nearest-neighbour and same-site identities on the chain",
        {"N": 6, "W": 2, "P": 14},
        lambda p: _plan_chain(p, p["N"]),
    ),
    CatalogItem(
        "lattice_family2_probe",
        "corrected vs printed right side of the fourth two-site identity",
        {"N": 2, "n": 1, "W": 2, "P": 14},
        _plan_probe,
    ),
    CatalogItem(
        "braid_alg",
        "hexagon words for b_n map to equal algebra elements",
        {"N": 3, "n": 1, "W": 2, "P": 10},
        _plan_braid_alg,
    ),
    CatalogItem(
        "sigma_alg",
        "both c-letter relation word pairs map to equal algebra elements",
        {"N": 4, "n": 2, "W": 2, "P": 10},
        lambda p: _words(p, _sigma_pairs(p["n"], p["N"])),
    ),
    CatalogItem(
        "braid_script",
        "replay the stored hexagon derivations",
        {"N": 6, "n": None},
        _indexed_replay(braid_script, 1),
    ),
    CatalogItem(
        "sigma_rel1_script",
        "replay the stored derivations of the first c-letter relation",
        {"N": 6, "n": None},
        _indexed_replay(sigma_script1, 2),
    ),
    CatalogItem(
        "sigma_rel2_script",
        "replay the stored derivations of the second c-letter relation",
        {"N": 6, "n": None},
        _indexed_replay(sigma_script2, 2),
    ),
    CatalogItem(
        "sigma_commute_script",
        "replay distant c-letter commutation derivations",
        {"N": 8},
        _plan_sigma_commute,
    ),
    CatalogItem(
        "seven_term_script",
        "replay the merge/split derivation of the seven-term identity",
        {"N": 2},
        _plan_seven_term_script,
    ),
    CatalogItem(
        "translations",
        "replay every letter-translation derivation with index span <= 6",
        {"N": 10},
        _plan_translations,
    ),
    CatalogItem(
        "rewrite_walk",
        "seeded rewrite walk preserves the algebra image of the word",
        {"N": 4, "W": 1, "P": 8, "seed": 0},
        _plan_walk,
    ),
]

_BY_NAME = {item.name: item for item in _ITEMS}


def identity_names() -> list[str]:
    return [item.name for item in _ITEMS]


def _shown(params: dict) -> dict:
    """The N, n, W and P of a report or listing, null where not read."""
    return {key: params.get(key) for key in ("N", "n", "W", "P")}


def list_identities() -> list[dict]:
    return [
        {"name": item.name, "description": item.description, "defaults": _shown(item.defaults)}
        for item in _ITEMS
    ]


def _resolve(item: CatalogItem, sites, n, window, precision, seed) -> dict:
    if sites is not None and not 1 <= sites <= MAX_SITES:
        raise InvalidParams(f"sites must lie in 1..{MAX_SITES}")
    if window is not None and not 0 <= window <= MAX_WINDOW:
        raise InvalidParams(f"window must lie in 0..{MAX_WINDOW}")
    if precision is not None and not 1 <= precision <= MAX_PRECISION:
        raise InvalidParams(f"precision must lie in 1..{MAX_PRECISION}")
    if n is not None and n < 1:
        raise InvalidParams("relation index must be >= 1")
    # an override reaches a parameter only when the item lists it
    given = {"N": sites, "n": n, "W": window, "P": precision, "seed": seed}
    return {
        key: default if given[key] is None else given[key]
        for key, default in item.defaults.items()
    }


def _plan(name: str, sites, n, window, precision, seed) -> tuple:
    """Resolve one item's parameters and build what it compares, raising any
    InvalidParams the item can raise before any engine work.  A plan is the
    item's name, its resolved parameters, its evaluator with the
    evaluator's arguments, and the seconds planning took."""
    start = time.perf_counter()
    item = _BY_NAME.get(name)
    if item is None:
        raise InvalidParams(f"unknown identity {name!r}")
    resolved = _resolve(item, sites, n, window, precision, seed)
    evaluate, args = item.plan(resolved)
    return name, resolved, evaluate, args, time.perf_counter() - start


def _run(plan: tuple) -> Report:
    """Evaluate a plan of :func:`_plan`; its time counts the planning too."""
    name, resolved, evaluate, args, planned = plan
    start = time.perf_counter()
    status, per_monomial, summary = evaluate(*args)
    elapsed_ms = int(round((planned + time.perf_counter() - start) * 1000))
    params = {**_shown(resolved), "K": summary.get("max_order")}
    return Report(SCHEMA_VERSION, name, params, status, per_monomial, summary, elapsed_ms)


def verify_identity(
    name: str,
    sites: Optional[int] = None,
    n: Optional[int] = None,
    window: Optional[int] = None,
    precision: Optional[int] = None,
    seed: Optional[int] = None,
) -> Report:
    """Verify one catalog item, applying any parameter overrides."""
    return _run(_plan(name, sites, n, window, precision, seed))
