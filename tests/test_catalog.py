"""Tests for the identity catalog and its report schema."""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from qtorus.catalog import (
    MAX_PRECISION,
    MAX_SITES,
    MAX_WINDOW,
    identity_names,
    list_identities,
    verify_identity,
)
from qtorus.algebra import Element, monomial_label
from qtorus.catalog import (  # internal, exercised below
    _BY_NAME,
    _WALK_LENGTH_CAP,
    _WALK_START,
    _WALK_STEPS,
    _chain_pairs,
    _compare_words,
    _exact,
    _row,
    _sigma_pairs,
)
from qtorus.errors import InvalidParams
from qtorus.scripts import _matching_steps, _pattern_index
from qtorus.scripts import braid_script, random_walk, structural_relations
from qtorus.series import FactoredRational, LaurentSeries
from qtorus.verifier import (
    TupleCertificate,
    coefficient_of,
    exact_window_map,
    product_coefficients,
    window_targets,
)
from qtorus.words import (
    DerivationScript,
    S,
    apply_step,
    expand_composites,
    parse_word,
    render_word,
)

import qtorus.catalog as catalog
from oracles import compare_words_unshared

# canonical-report hashes that the benchmark checks every run against
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

REPORT_KEYS = [
    "schema_version",
    "identity",
    "params",
    "status",
    "per_monomial",
    "certificate_summary",
    "elapsed_ms",
]

# (name, overrides) pairs chosen so the whole table runs quickly.
FAST_PARAMS = {
    "mult1": {"window": 2},
    "mult2": {"window": 2},
    "pentagon": {"window": 2},
    "seven_term": {"precision": 10},
    "two_site_set": {"precision": 10},
    "lattice_set": {"sites": 3, "precision": 10},
    "lattice_family2_probe": {"precision": 10},
    "braid_alg": {"precision": 8},
    "sigma_alg": {"precision": 8},
    "braid_script": {"sites": 4},
    "sigma_rel1_script": {"sites": 5},
    "sigma_rel2_script": {"sites": 5},
    "sigma_commute_script": {"sites": 5},
    "seven_term_script": {},
    "translations": {"sites": 6},
    "rewrite_walk": {"seed": 3},
}


def test_identity_names_match_listing():
    names = identity_names()
    assert names == [entry["name"] for entry in list_identities()]
    assert len(names) == len(set(names))
    assert set(FAST_PARAMS) == set(names)


def test_listing_entries_have_descriptions_and_defaults():
    for entry in list_identities():
        assert set(entry) == {"name", "description", "defaults"}
        assert entry["description"]
        assert set(entry["defaults"]) == {"N", "n", "W", "P"}


@pytest.mark.parametrize("name", sorted(FAST_PARAMS))
def test_report_schema_and_pass(name):
    report = verify_identity(name, **FAST_PARAMS[name])
    d = report.to_dict()
    assert list(d) == REPORT_KEYS
    assert d["schema_version"] == 1
    assert d["identity"] == name
    assert set(d["params"]) == {"N", "n", "W", "P", "K"}
    assert d["status"] == "PASS"
    assert isinstance(d["elapsed_ms"], int)
    for entry in d["per_monomial"]:
        assert set(entry) == {"target", "lhs", "rhs", "match"}
        assert entry["match"] is True


def test_exact_items_ignore_precision():
    report = verify_identity("mult1", window=2, precision=30)
    d = report.to_dict()
    assert d["params"]["P"] is None
    assert d["params"]["K"] == 4
    assert d["certificate_summary"]["mode"] == "exact"


@pytest.mark.parametrize("name", sorted(n for n, item in _BY_NAME.items() if item.defaults.get("P") is None))
def test_overrides_reach_only_the_parameters_an_item_reads(name):
    # a replay reads neither W nor P, and an exact item reads no P: the
    # flags leave those null, yet their range checks still apply
    report = verify_identity(name, window=2, precision=9)
    params, defaults = report.params, _BY_NAME[name].defaults
    assert params["P"] is None
    assert params["W"] == (None if defaults.get("W") is None else 2)
    if defaults.get("W") is None:
        assert report.certificate_summary["mode"] == "replay"
        assert report.to_text().splitlines()[1] == f"  params: N={params['N']}"
    with pytest.raises(InvalidParams, match="window"):
        verify_identity(name, window=MAX_WINDOW + 1)
    with pytest.raises(InvalidParams, match="precision"):
        verify_identity(name, precision=0)


@pytest.mark.parametrize(
    "name, overrides",
    [("mult1", {"n": 3, "window": 1}), ("translations", {"n": 2}), ("rewrite_walk", {"n": 5})],
)
def test_index_override_reaches_only_items_that_read_an_index(name, overrides):
    assert verify_identity(name, **overrides).params["n"] is None


class _Reads(dict):
    """A parameter dict that records the keys a plan reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", sorted(_BY_NAME))
def test_defaults_list_exactly_the_parameters_the_plan_reads(name):
    # an override reaches only a listed parameter, so a misspelt key would
    # silently stop one: the keys are the five names, each one read
    item = _BY_NAME[name]
    assert set(item.defaults) <= {"N", "n", "W", "P", "seed"}
    params = _Reads(item.defaults)
    item.plan(params)
    assert params.read == set(item.defaults)


def test_truncated_items_report_precision_not_order():
    d = verify_identity("seven_term", precision=8).to_dict()
    assert d["params"]["P"] == 8
    assert d["params"]["K"] is None
    assert d["certificate_summary"]["mode"] == "truncated"
    assert d["certificate_summary"]["max_tuples"] >= 1


def test_probe_reports_corrected_pass_and_printed_fail():
    d = verify_identity("lattice_family2_probe", precision=10).to_dict()
    assert d["status"] == "PASS"
    probe = d["certificate_summary"]["probe"]
    assert probe["corrected_status"] == "PASS"
    assert probe["printed_status"] == "FAIL"
    mismatch = probe["printed_first_mismatch"]
    assert set(mismatch) == {"target", "lhs", "rhs"}
    assert mismatch["lhs"] != mismatch["rhs"]
    # per-monomial rows describe the corrected variant, which matches
    assert d["per_monomial"] and all(e["match"] for e in d["per_monomial"])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_probe_decides_from_window_one_and_precision_two(n):
    # the smallest parameters at which the printed variant is refuted, at
    # every relation index: the probe's words translate with n
    d = verify_identity(
        "lattice_family2_probe", sites=n + 1, n=n, window=1, precision=2
    ).to_dict()
    assert d["status"] == "PASS"
    assert d["certificate_summary"]["probe"]["printed_status"] == "FAIL"


@pytest.mark.parametrize(
    "params",
    [{"window": 0}, {"precision": 1}],
    ids=["W0", "P1"],
)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_probe_rejects_parameters_too_small_to_decide_it(n, params):
    # below window 1 or precision 2 both variants agree on every target,
    # so the probe could only report FAIL on an identity that holds
    with pytest.raises(InvalidParams, match="window >= 1 and precision >= 2"):
        verify_identity("lattice_family2_probe", sites=n + 1, n=n, **params)


def test_probe_first_mismatch_is_pinned():
    # the printed variant's first failing row at the defaults: both sides
    # rendered, in canonical JSON
    d = verify_identity("lattice_family2_probe").to_dict()
    mismatch = d["certificate_summary"]["probe"]["printed_first_mismatch"]
    text = json.dumps(mismatch, sort_keys=True, separators=(",", ":"))
    want = "19d0946e42f252ffebaa619de7dcdc183f06a0f32fdf61f3ead3dc646362b222"
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_exact_mismatch_rows_render_both_sides():
    # E(u)E(v) against the reversed rule's right side E(u + v - q vu): false
    u, v = Element.generator(2, 1), Element.generator(2, 2)
    lhs_args, rhs_args = [u, v], [u + v - (v * u).scale(1)]
    _, per, _ = _exact(lhs_args, rhs_args, 3)
    lhs_map, _ = exact_window_map(lhs_args, 3)
    rhs_map, _ = exact_window_map(rhs_args, 3)
    zero = FactoredRational()
    labels = {monomial_label(t): t for t in set(lhs_map) | set(rhs_map)}
    assert any(not row["match"] for row in per) and any(row["match"] for row in per)
    for row in per:
        t = labels[row["target"]]
        assert row["lhs"] == str(lhs_map.get(t, zero))
        assert row["rhs"] == str(rhs_map.get(t, zero))
        assert row["match"] is (row["lhs"] == row["rhs"])


def test_matching_rows_print_equal_values_alike():
    pairs = [
        (LaurentSeries({0: 1, 2: -3}, 8), LaurentSeries({2: -3, 0: 1, 5: 0}, 8)),
        (LaurentSeries({-1: 2}, 6), LaurentSeries({-1: 2, 7: 1}, 6)),
        # 1/(q - 1) and (1 + q)/(q^2 - 1)
        (FactoredRational({0: 1}, Counter({1: 1})),
         FactoredRational({0: 1, 1: 1}, Counter({1: 1, 2: 1}))),
        (FactoredRational(), FactoredRational({}, Counter({3: 2}))),
    ]
    for lhs, rhs in pairs:
        assert lhs is not rhs
        row = _row("t", lhs, rhs)
        assert row == {"target": "t", "lhs": str(rhs), "rhs": str(rhs), "match": True}


def test_script_items_accept_index_override():
    d = verify_identity("braid_script", sites=6, n=3).to_dict()
    assert d["params"]["n"] == 3
    names = [s["name"] for s in d["certificate_summary"]["scripts"]]
    assert names == ["braid(3)"]
    assert d["per_monomial"] == []


def test_script_items_reject_too_small_chain():
    with pytest.raises(InvalidParams):
        verify_identity("braid_script", sites=2)
    with pytest.raises(InvalidParams):
        verify_identity("sigma_rel1_script", sites=3)
    with pytest.raises(InvalidParams):
        verify_identity("sigma_commute_script", sites=4)


def test_relation_index_below_one_is_refused():
    with pytest.raises(InvalidParams, match="relation index must be >= 1"):
        verify_identity("braid_script", n=0)


def test_replay_item_reports_a_failed_script(monkeypatch):
    # a script whose steps do not reach its claimed end word fails the item,
    # and its entry carries the replay's error
    good = catalog.seven_term_script()
    bad = DerivationScript(good.name, good.start, good.steps, good.start)
    monkeypatch.setattr(catalog, "seven_term_script", lambda: bad)
    report = verify_identity("seven_term_script")
    assert report.status == "FAIL"
    (entry,) = report.certificate_summary["scripts"]
    assert entry["ok"] is False and entry["error"].startswith("final word ")


@pytest.mark.parametrize(
    "name",
    ["mult1", "mult2", "pentagon", "seven_term", "two_site_set", "lattice_set", "seven_term_script"],
)
def test_two_site_items_reject_one_site(name):
    # each of these identities lives on two sites, so a one-site chain is
    # refused before anything runs
    with pytest.raises(InvalidParams, match="needs at least two sites"):
        verify_identity(name, sites=1)


def test_walk_is_seed_deterministic():
    a = verify_identity("rewrite_walk", seed=11).to_dict()
    b = verify_identity("rewrite_walk", seed=11).to_dict()
    a["elapsed_ms"] = b["elapsed_ms"] = 0
    assert a == b
    c = verify_identity("rewrite_walk", seed=12).to_dict()
    assert c["certificate_summary"]["seed"] == 12


_FAMILIES = ("comm0", "rel1", "rel2", "rel3", "rel4", "far")


@pytest.mark.parametrize(
    "start, cap, sites, size, pairs",
    [
        # the walk's own start: only comm0 ever applies, so the orbit is the
        # 2^3 swaps of its three adjacent inverse pairs
        (_WALK_START, _WALK_LENGTH_CAP, 4, 8, {("comm0", True), ("comm0", False)}),
        # a start that every family matches, each forward and reverse
        (
            parse_word("s1+ s2- s1- s3+ s2+ s3-"), 8, 4, 62,
            {(rid, forward) for rid in _FAMILIES for forward in (True, False)},
        ),
    ],
    ids=["walk_start", "all_families"],
)
def test_walk_start_orbit_is_checked_exhaustively(start, cap, sites, size, pairs):
    # every word reachable from the start under the length cap, by
    # breadth-first search over the matching steps on `sites` sites, agrees
    # with the start at the walk's default W and P; the (family, direction)
    # pairs the search applies are recorded
    defaults = _BY_NAME["rewrite_walk"].defaults
    assert sites == defaults["N"]
    window, precision = defaults["W"], defaults["P"]
    index = _pattern_index(structural_relations(sites))
    orbit, frontier, applied = {start}, [start], set()
    while frontier:
        word = frontier.pop(0)
        for step in _matching_steps(word, index):
            image = apply_step(word, step)
            if len(image) > cap:
                continue
            applied.add((step.relation.rid, step.forward))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    assert applied == pairs and len(orbit) == size
    words = [("", start, word) for word in sorted(orbit, key=render_word)]
    blocks, _ = _compare_words(words, sites, window, precision)
    assert len(blocks) == len(words)
    assert all(rows and all(row["match"] for row in rows) for rows in blocks)


def test_caps_are_enforced():
    with pytest.raises(InvalidParams):
        verify_identity("seven_term", sites=MAX_SITES + 1)
    with pytest.raises(InvalidParams):
        verify_identity("seven_term", window=MAX_WINDOW + 1)
    with pytest.raises(InvalidParams):
        verify_identity("seven_term", precision=MAX_PRECISION + 1)
    with pytest.raises(InvalidParams):
        verify_identity("seven_term", precision=0)
    with pytest.raises(InvalidParams):
        verify_identity("seven_term", sites=1)


def test_unknown_identity_rejected():
    with pytest.raises(InvalidParams):
        verify_identity("octagon")


def test_lattice_set_covers_all_interior_sites():
    d = verify_identity("lattice_set", sites=4, precision=8).to_dict()
    labels = {e["target"].split(":", 1)[0] for e in d["per_monomial"]}
    expected = {f"rel{k}({n})" for k in (1, 2, 3, 4) for n in (1, 2, 3)}
    expected |= {f"comm0({n})" for n in (1, 2, 3, 4)}
    assert labels == expected
    targets = {e["target"] for e in d["per_monomial"]}
    assert d["status"] == "PASS"
    assert len(targets) == len(d["per_monomial"])


def _report_hash(report) -> str:
    """SHA-256 of the report's canonical JSON without ``elapsed_ms``, hashed
    as ``perfbench/run.py::canonical_hash`` hashes it."""
    body = {k: v for k, v in report.to_dict().items() if k != "elapsed_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_match_benchmark_reference():
    workloads = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]
    defaults = {name: h for name, h in workloads["cli_defaults"].items() if h is not None}
    assert len(defaults) == 15  # every catalog item but the seeded rewrite_walk
    for name, want in defaults.items():
        assert _report_hash(verify_identity(name)) == want, name
    for name, want in workloads["exact_window"].items():
        assert _report_hash(verify_identity(name, window=8)) == want, name
    # the truncated engine's two benchmark workloads, at their parameters
    (name, want), = workloads["trunc_deep"].items()
    assert _report_hash(verify_identity(name, precision=32, window=3)) == want, name
    (name, want), = workloads["trunc_wide"].items()
    assert _report_hash(verify_identity(name, window=3)) == want, name


def test_sigma_alg_deep_report_is_pinned():
    # sigma_alg at P=24: a row of the heavy grid that no benchmark workload
    # pins, where each target keeps the most tuples
    want = "19dce4e9e8457fd187413a667f34d4d48313661267b050b709a17458bbcad6ba"
    assert _report_hash(verify_identity("sigma_alg", precision=24)) == want


@pytest.mark.parametrize(
    "name,params,want",
    [
        # most targets are settled by qmin >= P, with no walk
        ("sigma_alg", {"window": 5},
         "301ab41e637084bed02e9ff6923e9ea805aead604bd710ef51859684cea4c2f8"),
        # the documented window and precision limits: long Euler expansions
        ("braid_alg", {"window": 8, "precision": 64},
         "6e930b676ba947e61793a20d1ba6f825d7bad9a66e5a0802fb4800603e064dee"),
        # every documented limit at once: 156 word pairs, 312 sides in
        # three classes
        ("lattice_set", {"sites": 32, "window": 8, "precision": 64},
         "00ca5d45183d071e76a59620e01f4e9f4f4e6fc274e39bbaf4b1c7810e5bc76a"),
        # the window and precision limits where each comm0 side shares its
        # class with the other side
        ("two_site_set", {"window": 8, "precision": 64},
         "e1d88dda6e2f6f70292cd9ed699bdad5bd0a264f96a4704b327b1f4d78f754ee"),
        # seeds whose checkpoints repeat a word, among them the start word
        ("rewrite_walk", {"seed": 0},
         "27321de518d36be7febc1a1695329f4d2f579a10936cd316c27f1cde6f8a93b8"),
        ("rewrite_walk", {"seed": 7},
         "c6491394cb3d84592fd95870a3b2fc7e3268b7638f576c2512a7838cfbf1b462"),
    ],
    ids=["sigma_alg-W5", "braid_alg-W8-P64", "lattice_set-N32-W8-P64",
         "two_site_set-W8-P64", "rewrite_walk-seed0", "rewrite_walk-seed7"],
)
def test_heavy_grid_report_is_pinned(name, params, want):
    assert _report_hash(verify_identity(name, **params)) == want


@pytest.mark.parametrize(
    "name,pairs",
    [
        ("two_site_set", _chain_pairs(2)),
        ("lattice_set", _chain_pairs(6)),
        ("sigma_alg", _sigma_pairs(2, 4)),
    ],
    ids=["two_site_set", "lattice_set", "sigma_alg"],
)
def test_shared_rows_equal_rows_of_pairs_run_alone(name, pairs):
    # a pair whose sides read earlier sides' tables gets exactly the rows
    # it gets when it is evaluated by itself, at the item's defaults
    d = _BY_NAME[name].defaults
    args = (d["N"], d["W"], d["P"])
    blocks, stats = _compare_words(pairs, *args)
    assert len(blocks) == len(pairs)
    assert all(row["match"] for rows in blocks for row in rows)
    alone = []
    for pair, rows in zip(pairs, blocks):
        (block,), pair_stats = _compare_words([pair], *args)
        assert rows == block, pair[0]
        alone.append(pair_stats)
    assert stats == {k: max(s[k] for s in alone) for k in stats}


def test_corrupted_pair_is_evaluated_not_shared():
    # the second sigma_alg pair, the first's mirrored inverse, with one
    # sign of its right side flipped: that side shares no class, so it is
    # evaluated and the pair fails
    first, (label, lhs, rhs) = _sigma_pairs(2, 4)
    letters = expand_composites(rhs)
    bad = letters[:-1] + (S(letters[-1].site, -letters[-1].sign),)
    (kept, broken), _ = _compare_words([first, (label, lhs, bad)], 4, 2, 10)
    assert all(row["match"] for row in kept)
    assert any(not row["match"] for row in broken)
    assert all(row["target"].startswith(label) for row in broken)


def _count_evaluations(monkeypatch) -> list:
    """Patch the catalog's engine call to record each product it sets up."""
    made = []
    inner = catalog.product_coefficients

    def counting(word, sites, targets, precision):
        made.append(word)
        return inner(word, sites, targets, precision)

    monkeypatch.setattr(catalog, "product_coefficients", counting)
    return made


@pytest.mark.parametrize(
    "name,seed,calls",
    [
        ("two_site_set", None, 3),
        ("lattice_set", None, 3),
        ("sigma_alg", None, 2),
        ("braid_alg", None, 1),
        ("seven_term", None, 2),
        ("lattice_family2_probe", None, 3),
        ("rewrite_walk", 0, 2),
        ("rewrite_walk", 7, 3),
    ],
    ids=["two_site_set-3", "lattice_set-3", "sigma_alg-2", "braid_alg-1",
         "seven_term-2", "lattice_family2_probe-3", "rewrite_walk-2",
         "rewrite_walk-seed7-3"],
)
def test_one_evaluation_per_symmetry_class(monkeypatch, name, seed, calls):
    # one product_coefficients call per class of sides: 12, 52, 4, 2 and 2
    # when every side was evaluated, and 4, 4, 2, 2 and 2 while the classes
    # keyed both sides of a pair together; the probe's three words share
    # the left one, and at seed 0 one walk word is an image of another
    made = _count_evaluations(monkeypatch)
    assert verify_identity(name, seed=seed).status == "PASS"
    assert len(made) == calls


@pytest.mark.parametrize(
    "name,params,boxes",
    [
        # 2, 2, 6, 26, 2 and 5 while each pair built its own box
        ("sigma_alg", {}, 1),
        ("sigma_alg", {"window": 3}, 1),
        ("two_site_set", {}, 3),
        ("lattice_set", {}, 11),
        ("lattice_family2_probe", {}, 1),
        ("rewrite_walk", {"seed": 0}, 1),
    ],
    ids=["sigma_alg", "sigma_alg-W3", "two_site_set", "lattice_set",
         "lattice_family2_probe", "rewrite_walk"],
)
def test_one_box_per_support(monkeypatch, name, params, boxes):
    # every pair on one support reads the box and labels built for the
    # first: two_site_set's pairs span sites 1..2, 1 or 2, and lattice_set's
    # the five nearest-neighbour spans and the six single sites
    built = []
    inner = catalog.window_targets

    def counting(sites, support, window):
        built.append(tuple(support))
        return inner(sites, support, window)

    monkeypatch.setattr(catalog, "window_targets", counting)
    assert verify_identity(name, **params).status == "PASS"
    assert len(built) == boxes == len(set(built))


@pytest.mark.parametrize(
    "name,params",
    [
        ("seven_term", {}),
        ("two_site_set", {}),
        ("lattice_set", {}),
        ("braid_alg", {}),
        ("sigma_alg", {}),
        ("sigma_alg", {"window": 3}),
        ("braid_alg", {"precision": 32, "window": 3}),
        ("lattice_family2_probe", {}),
        ("lattice_family2_probe", {"window": 3, "precision": 20}),
        ("rewrite_walk", {"seed": 0}),
        ("rewrite_walk", {"seed": 7}),
    ],
    ids=["seven_term", "two_site_set", "lattice_set", "braid_alg", "sigma_alg",
         "sigma_alg-W3", "braid_alg-P32-W3", "lattice_family2_probe",
         "lattice_family2_probe-W3-P20", "rewrite_walk-seed0", "rewrite_walk-seed7"],
)
def test_compare_words_matches_unshared_reference(monkeypatch, name, params):
    # every call the item makes gives the rows and summary of the reference
    # that evaluates every side, summary keys in the same order
    calls = []

    def checked(pairs, sites, window, precision):
        got = _compare_words(pairs, sites, window, precision)
        want = compare_words_unshared(pairs, sites, window, precision)
        assert got == want
        assert list(got[1]) == list(want[1])
        calls.append(pairs)
        return got

    monkeypatch.setattr(catalog, "_compare_words", checked)
    assert verify_identity(name, **params).status == "PASS"
    assert calls


@pytest.mark.parametrize("sites", [4, 6])
def test_walk_words_touch_the_start_sites(sites):
    # every structural relation keeps the set of sites a word touches, so
    # every walk word lives on the start's sites 1..3; the walk judges each
    # checkpoint by its own pair's rows and does not rely on this
    for rel in structural_relations(sites):
        assert {x.site for x in rel.lhs} == {x.site for x in rel.rhs}, rel.rid
    for seed in range(20):
        trace, _ = random_walk(_WALK_START, _WALK_STEPS, random.Random(seed), _WALK_LENGTH_CAP)
        assert all({x.site for x in word} == {1, 2, 3} for word in trace), seed


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda letters: letters[:-1] + (S(letters[-1].site, -letters[-1].sign),),
        lambda letters: letters + (S(4, 1), S(4, -1)),
    ],
    ids=["last_sign_flipped", "site_4_appended"],
)
def test_walk_flags_only_the_checkpoint_whose_word_changed(monkeypatch, corrupt):
    # a walk word at step 30 with its last sign flipped, or with a site-4
    # pair appended (so its box is wider than the other checkpoints'), no
    # longer has the start word's image: its checkpoint alone fails, and so
    # does the item
    def corrupted(*args):
        trace, steps = random_walk(*args)
        trace[30] = corrupt(trace[30])
        return trace, steps

    monkeypatch.setattr(catalog, "random_walk", corrupted)
    d = verify_identity("rewrite_walk", seed=0).to_dict()
    assert d["status"] == "FAIL"
    points = d["certificate_summary"]["checkpoints"]
    assert [(p["step"], p["match"]) for p in points] == [
        (10, True), (20, True), (30, False), (40, True), (50, True)
    ]


def _random_word(rng, sites):
    """Up to 7 letters of both signs on the given sites, each site once at least."""
    letters = [S(site, rng.choice((1, -1))) for site in sites]
    letters += [S(rng.choice(sites), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))]
    rng.shuffle(letters)
    return tuple(letters)


def _word_image(rng, word, lo, hi, shift):
    """`word` inverted, mirrored over lo..hi or both (never neither), then
    every site moved by `shift`."""
    inverted, mirrored = rng.choice([(True, False), (False, True), (True, True)])
    sign = -1 if inverted else 1
    if mirrored:
        return tuple(S(lo + hi - x.site + shift, sign * x.sign) for x in reversed(word))
    return tuple(S(x.site + shift, sign * x.sign) for x in word)


def test_compare_words_matches_unshared_reference_on_random_pairs(monkeypatch):
    # seeded pairs on 2-4 of 6 sites, in an order that makes every kind of
    # sharing: a pair with two new sides, a pair whose right side is an
    # image of its left, a later pair that shares only one side, a pair
    # with a side narrower than the pair's support, and that side again in
    # a pair with a wider support, where it opens a class of its own
    rng = random.Random(20261019)
    made = _count_evaluations(monkeypatch)
    sites, precision = 6, 8
    for _ in range(40):
        width = rng.randint(2, 4)
        lo = rng.randint(1, sites + 1 - width)
        span = list(range(lo, lo + width))
        hi = span[-1]
        a, b = _random_word(rng, span), _random_word(rng, span)
        shift = rng.randint(1 - lo, sites - hi)
        moved = [site + shift for site in span]
        narrow = tuple(x for x in _random_word(rng, span) if x.site != hi) or (S(lo, 1),)
        wider = span + [hi + 1] if hi < sites else [lo - 1] + span
        pairs = [
            ("new", a, b),
            ("image", b, _word_image(rng, b, lo, hi, 0)),
            ("one", _word_image(rng, a, lo, hi, shift), _random_word(rng, moved)),
            ("narrow", _random_word(rng, span), narrow),
            ("wider", narrow, _random_word(rng, wider)),
        ]
        window = 2 if width < 4 else 1
        made.clear()
        got = _compare_words(pairs, sites, window, precision)
        want = compare_words_unshared(pairs, sites, window, precision)
        assert got == want, pairs
        assert list(got[1]) == list(want[1])
        # the image pair and the moved side are read, not evaluated
        assert len(made) <= 7


def test_compare_words_folds_each_rank_when_the_sides_touch_different_sites():
    # the left side lives on site 1 and the right on site 2, so the first
    # target of the shared box, and every target off a side's site, is
    # "outside" that side's product
    lhs, rhs = (S(1, 1), S(1, -1), S(1, 1)), (S(2, 1), S(2, 1))
    targets = window_targets(2, (1, 2), 1)
    for word in (lhs, rhs):
        reasons = [cert.reason for _, _, cert in product_coefficients(word, 2, targets, 6)]
        assert reasons[0] == "outside" and reasons.count("outside") == 6
    ranks = [coefficient_of(word, 2, (0, 0), 6)[1].product.kernel_rank for word in (lhs, rhs)]
    assert ranks == [2, 1]
    got = _compare_words([("", lhs, rhs)], 2, 1, 6)
    assert list(got[1]) == ["max_tuples", "max_kernel_rank", "max_index"]
    assert got[1]["max_kernel_rank"] == max(ranks)
    assert got == compare_words_unshared([("", lhs, rhs)], 2, 1, 6)


def test_compare_words_keeps_the_rank_of_a_call_without_points(monkeypatch):
    # with every certificate's points and counts dropped, each call's first
    # certificate still carries its kernel rank into the summary
    inner = catalog.product_coefficients

    def pointless(*args):
        for target, series, cert in inner(*args):
            yield target, series, TupleCertificate(
                cert.product, cert.exponents, cert.reason, (), 0, 0, cert.min_valuation
            )

    monkeypatch.setattr(catalog, "product_coefficients", pointless)
    rel = _chain_pairs(2)[0]
    _, stats = _compare_words([rel], 2, 1, 8)
    assert list(stats.items()) == [("max_tuples", 0), ("max_kernel_rank", 2), ("max_index", 0)]


def test_side_class_keys_the_image_of_the_support():
    # E(w4) in a pair on sites 1, 2, 3, 4, 6 and its mirror image E(w3) in
    # a pair on the same sites: the support is not its own mirror image, so
    # the two sides are in different classes; reversing the digits of the
    # box would read b's exponent at site 3 from site 3 of a's box, not 4
    pairs = [
        ("a", (S(4, 1),), (S(1, 1), S(2, 1), S(3, 1), S(6, -1))),
        ("b", (S(3, 1),), (S(1, -1), S(2, -1), S(4, -1), S(6, -1))),
    ]
    assert _compare_words(pairs, 6, 1, 6) == compare_words_unshared(pairs, 6, 1, 6)


def test_corrupted_braid_side_is_evaluated_not_shared(monkeypatch):
    # braid_alg's right word is its left word inverted and mirrored; with
    # one sign flipped it leaves the left side's class, so it is evaluated
    # and its rows fail
    script = braid_script(1, 3)
    letters = expand_composites(script.end)
    bad = letters[:-1] + (S(letters[-1].site, -letters[-1].sign),)
    pairs = [("", script.start, bad)]
    made = _count_evaluations(monkeypatch)
    (rows,), stats = _compare_words(pairs, 3, 2, 10)
    assert len(made) == 2
    assert any(not row["match"] for row in rows)
    assert ([rows], stats) == compare_words_unshared(pairs, 3, 2, 10)
