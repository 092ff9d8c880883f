"""Catalog of verifiable identities and machine-readable reports.

Each catalog item names one identity (or one family of sub-checks run
together), carries its default parameters, and knows how to verify itself:

* exact items compare window-restricted coefficient tables of products of
  q-exponentials with closed-form rational coefficients;
* truncated items compare certified coefficient extractions at a stated
  q-adic precision over a monomial window;
* replay items re-run stored derivation scripts step by step;
* the walk item drives a seeded random rewrite walk and checks that the
  algebra image of the word never changes.

Every truncated item, the probe and the walk among them, compares word
pairs through :func:`_compare_words`, which evaluates one side of each
symmetry class and reads every other side of the class through a map.

:func:`verify_identity` resolves parameter overrides against the defaults,
runs the item, and returns a :class:`Report` whose dictionary form is stable
and canonically serializable.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Optional, Sequence

from .algebra import AlgebraConfig, Element, monomial_label
from .errors import FrozenRecord, InvalidParams
from .scripts import (
    braid_script,
    braid_translation_fwd,
    braid_translation_rev,
    fold_certificate,
    random_walk,
    seven_term_script,
    sigma_commute_script,
    sigma_script1,
    sigma_script2,
    sigma_translation_fwd,
    sigma_translation_rev,
    word_to_product,
)
from .series import FactoredRational, LaurentSeries
from .verifier import exact_window_map, product_coefficients, window_targets
from .words import Relation, S, Word, comm0, rel1, rel2, rel3, rel4, replay

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


class Report:
    """Outcome of verifying one catalog item: a mutable value record, so
    unhashable."""

    __slots__ = (
        "schema_version", "identity", "params", "status", "per_monomial",
        "certificate_summary", "elapsed_ms",
    )

    def __init__(
        self,
        schema_version: int,
        identity: str,
        params: dict,
        status: str,
        per_monomial: list,
        certificate_summary: dict,
        elapsed_ms: int,
    ) -> None:
        self.schema_version = schema_version
        self.identity = identity
        self.params = params
        self.status = status
        self.per_monomial = per_monomial
        self.certificate_summary = certificate_summary
        self.elapsed_ms = elapsed_ms

    def _values(self) -> tuple:
        return (
            self.schema_version, self.identity, self.params, self.status,
            self.per_monomial, self.certificate_summary, self.elapsed_ms,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Report(schema_version={self.schema_version!r}, identity={self.identity!r}, "
            f"params={self.params!r}, status={self.status!r}, "
            f"per_monomial={self.per_monomial!r}, "
            f"certificate_summary={self.certificate_summary!r}, elapsed_ms={self.elapsed_ms!r})"
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "per_monomial": self.per_monomial,
            "certificate_summary": self.certificate_summary,
            "elapsed_ms": self.elapsed_ms,
        }

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
                rendered.append(f"{k}={json.dumps(v, sort_keys=True, separators=(',', ':'))}")
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


def _image(factors, lo: int, hi: int, inverted: bool, mirrored: bool) -> tuple:
    """The (site, sign) sequence of `factors` with every sign flipped if
    `inverted`, read backwards with each site n sent to lo + hi - n if
    `mirrored`, and translated so that the span lo..hi starts at site 1."""
    sign = -1 if inverted else 1
    if mirrored:
        return tuple((hi + 1 - f.site, sign * f.exp) for f in reversed(factors))
    return tuple((f.site + 1 - lo, sign * f.exp) for f in factors)


def _side_class(factors, support: Sequence[int]) -> tuple[tuple, bool, bool]:
    """The smallest of the four images of one side's `factors` and of its
    pair's `support` under inversion and mirroring over that support,
    translated to site 1, and the (inverted, mirrored) flags that give it."""
    lo, hi = support[0], support[-1]
    supports = (
        tuple(s + 1 - lo for s in support),
        tuple(hi + 1 - s for s in reversed(support)),
    )
    return min(
        ((_image(factors, lo, hi, inv, mir), supports[mir]), inv, mir)
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


def _compare_words(
    pairs: Sequence[tuple[str, Word, Word]],
    sites: int,
    window: int,
    precision: int,
) -> tuple[bool, list, dict]:
    """Compare the coefficients of labelled word pairs target by target over
    the box of the sites either word touches.

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
    """
    per: list = []
    stats: dict = {}
    classes: dict = {}
    for label, lhs, rhs in pairs:
        prefix = f"{label}: " if label else ""
        lprod = word_to_product(lhs, sites)
        rprod = word_to_product(rhs, sites)
        support = sorted(lprod.support_sites() | rprod.support_sites()) or [1]
        targets = window_targets(lprod.config, support, window)
        views = []
        for prod in (lprod, rprod):
            key, inverted, mirrored = _side_class(prod.factors, support)
            if key not in classes:
                table = []
                for _, series, cert in product_coefficients(prod, targets, precision):
                    table.append(str(series))
                    fold_certificate(stats, cert)
                classes[key] = (table, inverted, mirrored)
            table, rep_inverted, rep_mirrored = classes[key]
            if inverted != rep_inverted:
                table = table[::-1]
            if mirrored != rep_mirrored:
                table = [table[i] for i in _mirror_index(len(support), 2 * window + 1)]
            views.append(table)
        for target, ltext, rtext in zip(targets, *views):
            per.append(
                {
                    "target": prefix + monomial_label(target),
                    "lhs": ltext,
                    "rhs": rtext,
                    "match": ltext == rtext,
                }
            )
    return all(row["match"] for row in per), per, stats


def _compare_exact(
    lhs_args: Sequence[Element], rhs_args: Sequence[Element], window: int
) -> tuple[list, int]:
    """Rows comparing the exact coefficients of  E(lhs_1) E(lhs_2) ...  and
    E(rhs_1) ...  on the window, and the largest series order used."""
    lhs_map, k_lhs = exact_window_map(lhs_args, window)
    rhs_map, k_rhs = exact_window_map(rhs_args, window)
    zero = FactoredRational.zero()
    per = [
        _row(monomial_label(target), lhs_map.get(target, zero), rhs_map.get(target, zero))
        for target in sorted(set(lhs_map) | set(rhs_map))
    ]
    return per, max(k_lhs, k_rhs)


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_exact(name: str, p: dict):
    n_sites, window = p["N"], p["W"]
    if n_sites < 2:
        raise InvalidParams("needs at least two sites")
    cfg = AlgebraConfig(n_sites)
    u = Element.generator(cfg, 1)
    v = Element.generator(cfg, 2)
    q_neg = LaurentSeries.monomial(1, -1)
    q_pos = LaurentSeries.monomial(1)
    if name == "mult1":
        lhs_args, rhs_args = [u, v], [u + v]
    elif name == "mult2":
        lhs_args, rhs_args = [v, u], [u + v - (v * u).scale(q_pos)]
    else:  # pentagon
        lhs_args, rhs_args = [v, u], [u, (v * u).scale(q_neg), v]
    per, max_order = _compare_exact(lhs_args, rhs_args, window)
    ok = all(row["match"] for row in per)
    summary = {"mode": "exact", "max_order": max_order, "window": window}
    return _status(ok), per, summary, max_order


def _run_seven_term(p: dict):
    if p["N"] < 2:
        raise InvalidParams("needs at least two sites")
    # the four-factor vs three-factor identity is the first two-site relation
    rel = rel1(1)
    ok, per, stats = _compare_words([("", rel.lhs, rel.rhs)], p["N"], p["W"], p["P"])
    summary = {"mode": "truncated", **stats}
    return _status(ok), per, summary, None


def _chain_pairs(length: int) -> list[tuple[str, Word, Word]]:
    """Every nearest-neighbour relation of the first `length` sites, then
    the same-site commutation of each of them, as labelled word pairs."""
    rels: list[Relation] = []
    for n in range(1, length):
        rels.extend((rel1(n), rel2(n), rel3(n), rel4(n)))
    rels.extend(comm0(n) for n in range(1, length + 1))
    return [(_relation_label(rel), rel.lhs, rel.rhs) for rel in rels]


def _run_chain_relations(p: dict, length: int):
    """Check the pairs of :func:`_chain_pairs` on p["N"] sites."""
    if p["N"] < 2:
        raise InvalidParams("needs at least two sites")
    pairs = _chain_pairs(length)
    ok, per, stats = _compare_words(pairs, p["N"], p["W"], p["P"])
    summary = {"mode": "truncated", "checks": len(pairs), **stats}
    return _status(ok), per, summary, None


def _run_family2_probe(p: dict):
    n_sites, n, window, precision = p["N"], p["n"], p["W"], p["P"]
    if n + 1 > n_sites:
        raise InvalidParams("relation index exceeds the configured sites")
    rel = rel4(n)
    printed_rhs = (S(n + 1, -1), S(n, -1), S(n, 1))
    pairs = [("", rel.lhs, rel.rhs), ("", rel.lhs, printed_rhs)]
    _, rows, _ = _compare_words(pairs, n_sites, window, precision)
    # both pairs span sites n and n + 1, so each has half of the rows
    per, printed = rows[: len(rows) // 2], rows[len(rows) // 2 :]
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
    # the probe passes when the corrected form verifies and the printed
    # variant demonstrably does not
    return _status(corrected_ok and not printed_ok), per, summary, None


def _run_braid_alg(p: dict):
    script = braid_script(p["n"], p["N"])
    pairs = [("", script.start, script.end)]
    ok, per, stats = _compare_words(pairs, p["N"], p["W"], p["P"])
    summary = {"mode": "truncated", "script": script.name, **stats}
    return _status(ok), per, summary, None


def _sigma_pairs(n: int, sites: int) -> list[tuple[str, Word, Word]]:
    """Both sides of the two c-letter relations at index n, labelled."""
    s1 = sigma_script1(n, sites)
    s2 = sigma_script2(n, sites)
    return [
        (f"sigma_rel1({n})", s1.start, s1.end),
        (f"sigma_rel2({n})", s2.start, s2.end),
    ]


def _run_sigma_alg(p: dict):
    pairs = _sigma_pairs(p["n"], p["N"])
    ok, per, stats = _compare_words(pairs, p["N"], p["W"], p["P"])
    summary = {"mode": "truncated", **stats}
    return _status(ok), per, summary, None


def _run_script_set(scripts) -> tuple[str, list, dict, None]:
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
    return _status(ok), [], summary, None


def _indexed_replay(script: Callable, low: int):
    """A runner that replays ``script(n, N)`` at the item's index n, or at
    every index from `low` up to N - 2 when none is given."""

    def run(p: dict):
        indices = [p["n"]] if p["n"] is not None else range(low, p["N"] - 1)
        if not indices:
            raise InvalidParams("sites too small for any relation index")
        return _run_script_set(script(n, p["N"]) for n in indices)

    return run


def _run_sigma_commute_scripts(p: dict):
    n_sites = p["N"]
    pairs = [
        (m, n)
        for m in range(1, n_sites)
        for n in range(m + 3, n_sites)
    ]
    if not pairs:
        raise InvalidParams("sites too small for any distant pair")
    return _run_script_set(sigma_commute_script(m, n, n_sites) for m, n in pairs)


def _run_seven_term_replay(p: dict):
    return _run_script_set([seven_term_script()])


def _run_translations(p: dict):
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
    return _run_script_set(scripts)


_WALK_START = tuple(
    S(site, sign) for site in (1, 2, 3) for sign in (1, -1)
)


def _run_rewrite_walk(p: dict):
    n_sites, window, precision, seed = p["N"], p["W"], p["P"], p["seed"]
    if n_sites < 3:
        raise InvalidParams("walk words need at least three sites")
    rng = random.Random(seed)
    trace, steps = random_walk(
        _WALK_START, n_sites, _WALK_STEPS, rng, _WALK_LENGTH_CAP
    )
    last = len(trace) - 1
    marks = sorted({min(i, last) for i in (10, 20, 30, 40, 50)} | {last})
    pairs = [("", _WALK_START, trace[i]) for i in marks]
    _, rows, _ = _compare_words(pairs, n_sites, window, precision)
    # every structural relation keeps the set of sites a word touches, so
    # every pair's box is that of sites 1..3 and has as many rows
    size = len(rows) // len(marks)
    checkpoints = []
    for j, i in enumerate(marks):
        match = all(row["match"] for row in rows[j * size : (j + 1) * size])
        checkpoints.append({"step": i, "length": len(trace[i]), "match": match})
    ok = all(point["match"] for point in checkpoints)
    summary = {
        "mode": "walk",
        "seed": seed,
        "steps_taken": len(steps),
        "final_length": len(trace[-1]),
        "checkpoints": checkpoints,
    }
    return _status(ok), [], summary, None


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


class CatalogItem(FrozenRecord):
    __slots__ = ("name", "description", "defaults", "runner", "uses_seed")

    def __init__(
        self,
        name: str,
        description: str,
        defaults: dict,
        runner: Callable[[dict], tuple[str, list, dict, Optional[int]]],
        uses_seed: bool = False,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "defaults", defaults)
        object.__setattr__(self, "runner", runner)
        object.__setattr__(self, "uses_seed", uses_seed)


_ITEMS: list[CatalogItem] = [
    CatalogItem(
        "mult1",
        "E(u) E(v) = E(u+v) with exact rational coefficients on a window",
        {"N": 2, "n": None, "W": 3, "P": None},
        lambda p: _run_exact("mult1", p),
    ),
    CatalogItem(
        "mult2",
        "E(v) E(u) = E(u+v-q v u) with exact rational coefficients",
        {"N": 2, "n": None, "W": 3, "P": None},
        lambda p: _run_exact("mult2", p),
    ),
    CatalogItem(
        "pentagon",
        "E(v) E(u) = E(u) E(-q v u) E(v) with exact rational coefficients",
        {"N": 2, "n": None, "W": 3, "P": None},
        lambda p: _run_exact("pentagon", p),
    ),
    CatalogItem(
        "seven_term",
        "four-factor vs three-factor identity for E(w2), E(w1^-1), E(w1)",
        {"N": 2, "n": None, "W": 3, "P": 20},
        _run_seven_term,
    ),
    CatalogItem(
        "two_site_set",
        "the six commutation identities on sites 1 and 2",
        {"N": 2, "n": None, "W": 3, "P": 14},
        lambda p: _run_chain_relations(p, 2),
    ),
    CatalogItem(
        "lattice_set",
        "all nearest-neighbour and same-site identities on the chain",
        {"N": 6, "n": None, "W": 2, "P": 14},
        lambda p: _run_chain_relations(p, p["N"]),
    ),
    CatalogItem(
        "lattice_family2_probe",
        "corrected vs printed right side of the fourth two-site identity",
        {"N": 2, "n": 1, "W": 2, "P": 14},
        _run_family2_probe,
    ),
    CatalogItem(
        "braid_alg",
        "hexagon words for b_n map to equal algebra elements",
        {"N": 3, "n": 1, "W": 2, "P": 10},
        _run_braid_alg,
    ),
    CatalogItem(
        "sigma_alg",
        "both c-letter relation word pairs map to equal algebra elements",
        {"N": 4, "n": 2, "W": 2, "P": 10},
        _run_sigma_alg,
    ),
    CatalogItem(
        "braid_script",
        "replay the stored hexagon derivations",
        {"N": 6, "n": None, "W": None, "P": None},
        _indexed_replay(braid_script, 1),
    ),
    CatalogItem(
        "sigma_rel1_script",
        "replay the stored derivations of the first c-letter relation",
        {"N": 6, "n": None, "W": None, "P": None},
        _indexed_replay(sigma_script1, 2),
    ),
    CatalogItem(
        "sigma_rel2_script",
        "replay the stored derivations of the second c-letter relation",
        {"N": 6, "n": None, "W": None, "P": None},
        _indexed_replay(sigma_script2, 2),
    ),
    CatalogItem(
        "sigma_commute_script",
        "replay distant c-letter commutation derivations",
        {"N": 8, "n": None, "W": None, "P": None},
        _run_sigma_commute_scripts,
    ),
    CatalogItem(
        "seven_term_script",
        "replay the merge/split derivation of the seven-term identity",
        {"N": 2, "n": None, "W": None, "P": None},
        _run_seven_term_replay,
    ),
    CatalogItem(
        "translations",
        "replay every letter-translation derivation with index span <= 6",
        {"N": 10, "n": None, "W": None, "P": None},
        _run_translations,
    ),
    CatalogItem(
        "rewrite_walk",
        "seeded rewrite walk preserves the algebra image of the word",
        {"N": 4, "n": None, "W": 1, "P": 8},
        _run_rewrite_walk,
        uses_seed=True,
    ),
]

_BY_NAME = {item.name: item for item in _ITEMS}


def identity_names() -> list[str]:
    return [item.name for item in _ITEMS]


def list_identities() -> list[dict]:
    return [
        {"name": item.name, "description": item.description, "defaults": item.defaults}
        for item in _ITEMS
    ]


def _resolve(item: CatalogItem, sites, n, window, precision, seed) -> dict:
    def pick(value, key):
        return value if value is not None else item.defaults.get(key)

    resolved = {
        "N": pick(sites, "N"),
        "n": n if n is not None else item.defaults.get("n"),
        "W": pick(window, "W"),
        "P": pick(precision, "P"),
        "seed": seed if seed is not None else 0,
    }
    if resolved["N"] is not None and not 1 <= resolved["N"] <= MAX_SITES:
        raise InvalidParams(f"sites must lie in 1..{MAX_SITES}")
    if resolved["W"] is not None and not 0 <= resolved["W"] <= MAX_WINDOW:
        raise InvalidParams(f"window must lie in 0..{MAX_WINDOW}")
    if resolved["P"] is not None and not 1 <= resolved["P"] <= MAX_PRECISION:
        raise InvalidParams(f"precision must lie in 1..{MAX_PRECISION}")
    if resolved["n"] is not None and resolved["n"] < 1:
        raise InvalidParams("relation index must be >= 1")
    return resolved


def verify_identity(
    name: str,
    sites: Optional[int] = None,
    n: Optional[int] = None,
    window: Optional[int] = None,
    precision: Optional[int] = None,
    seed: Optional[int] = None,
) -> Report:
    """Verify one catalog item, applying any parameter overrides."""
    item = _BY_NAME.get(name)
    if item is None:
        raise InvalidParams(f"unknown identity {name!r}")
    resolved = _resolve(item, sites, n, window, precision, seed)
    start = time.perf_counter()
    status, per_monomial, summary, max_order = item.runner(resolved)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    # exact items run without a q-adic cutoff: report P as absent
    reported_p = None if summary.get("mode") == "exact" else resolved["P"]
    params = {
        "N": resolved["N"],
        "n": resolved["n"],
        "W": resolved["W"],
        "P": reported_p,
        "K": max_order,
    }
    return Report(
        schema_version=SCHEMA_VERSION,
        identity=name,
        params=params,
        status=status,
        per_monomial=per_monomial,
        certificate_summary=summary,
        elapsed_ms=elapsed_ms,
    )
