"""Acceptance suite.

Each criterion below is exercised at its stated parameters and prints a
single ``criterion N [...]: PASS|FAIL`` line (visible with ``pytest -s``),
then asserts.  The criteria:

1. exact product rules         E(u)E(v), E(v)E(u), and the three-factor
                               form agree with their right-hand sides for
                               every u^a v^b with 0 <= a, b <= 6
2. four-vs-three factor check  coefficient tables match mod q^20 on the
                               asymmetric window site1 in [-3,3], site2 in
                               [0,6], plus two pinned series values
3. commutation sets            the two-site set and the six-site lattice
                               set verify mod q^14 on window 2; the probe
                               item records corrected-PASS / printed-FAIL
4. derivation replays          every scripted derivation family replays
                               end to end
5. product/series agreement    the truncated engine's coefficients of
                               E(w^(+/-1)) at w^(+/-k), k <= 4, equal the
                               literal finite product, multiplied out in
                               exact arithmetic, mod q^16 at the depth the
                               threshold formula prescribes (and a
                               too-shallow depth fails)
6. certificate completeness    certified tuple sets equal an independent
                               blind enumeration filtered by a separately
                               computed valuation form, and the certified
                               braid comparison agrees with its replay
7. robustness                  1000 random monomial associativity checks,
                               a 50-step rewrite walk with stable image,
                               and byte-identical reports from two
                               sequential runs
"""

import json
import random
import sys

import qtorus.cli as cli
from qtorus.algebra import Element
from qtorus.catalog import verify_identity
from qtorus.series import LaurentSeries
from qtorus.verifier import product_coefficients, window_targets
from qtorus.words import S, comm0, rel1, rel2, rel3, rel4, replay
from qtorus.scripts import braid_script

from oracles import blind_buckets, blind_kept, finite_qexp


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    sys.stdout.flush()
    assert ok, f"criterion {num} ({label}) failed"


def _word(pairs) -> tuple:
    return tuple(S(s, e) for s, e in pairs)


SEVEN_LHS = ((2, 1), (1, -1), (1, 1), (2, 1))
SEVEN_RHS = ((1, -1), (2, 1), (1, 1))


# ------------------------------------------------------------ criterion 1


def test_criterion_1_exact_product_rules():
    ok = True
    # highest series order each side needs to cover u^6 v^6: 12 for the
    # two-factor rules, 6 for the three-factor form (its middle argument
    # is quadratic in the generators)
    for name, order in (("mult1", 12), ("mult2", 12), ("pentagon", 6)):
        d = verify_identity(name, window=6).to_dict()
        ok = ok and d["status"] == "PASS"
        ok = ok and len(d["per_monomial"]) == 49  # all 0<=a,b<=6
        ok = ok and d["params"]["K"] == order
        ok = ok and all(e["match"] for e in d["per_monomial"])
    _report(1, "exact product rules, exponents 0..6", ok)


# ------------------------------------------------------------ criterion 2


def test_criterion_2_four_vs_three_factor_window():
    lhs = _word(SEVEN_LHS)
    rhs = _word(SEVEN_RHS)
    # e_1 in -3..3 and e_2 in 0..6, cut from the symmetric box of half-width 6
    targets = [
        t for t in window_targets(2, (1, 2), 6) if abs(t[0]) <= 3 and t[1] >= 0
    ]
    ok = len(targets) == 49
    for target in targets:
        ls, _ = next(product_coefficients(lhs, 2, [target], 20))
        rs, _ = next(product_coefficients(rhs, 2, [target], 20))
        ok = ok and ls == rs
    # pinned low-order values on the identity and w2 monomials, both sides
    for side in (lhs, rhs):
        unit, _ = next(product_coefficients(side, 2, [(0, 0)], 6))
        w2, _ = next(product_coefficients(side, 2, [(0, 1)], 6))
        ok = ok and unit == LaurentSeries({0: 1, 2: 1, 4: 2}, 6)
        ok = ok and w2 == LaurentSeries({1: -2, 3: -4, 5: -8}, 6)
    _report(2, "four-vs-three factor table mod q^20", ok)


# ------------------------------------------------------------ criterion 3


def test_criterion_3_commutation_sets_and_probe():
    two = verify_identity("two_site_set", window=2, precision=14).to_dict()
    lattice = verify_identity(
        "lattice_set", sites=6, window=2, precision=14
    ).to_dict()
    probe = verify_identity("lattice_family2_probe", precision=14).to_dict()
    ok = two["status"] == "PASS" and lattice["status"] == "PASS"
    ok = ok and probe["status"] == "PASS"
    psum = probe["certificate_summary"]["probe"]
    ok = ok and psum["corrected_status"] == "PASS"
    ok = ok and psum["printed_status"] == "FAIL"
    ok = ok and psum["printed_first_mismatch"]["lhs"] != psum[
        "printed_first_mismatch"
    ]["rhs"]
    _report(3, "two-site and lattice sets mod q^14, probe recorded", ok)


# ------------------------------------------------------------ criterion 4


def test_criterion_4_all_replays():
    ok = True
    for name in (
        "braid_script",
        "sigma_rel1_script",
        "sigma_rel2_script",
        "sigma_commute_script",
        "seven_term_script",
        "translations",
    ):
        d = verify_identity(name).to_dict()
        ok = ok and d["status"] == "PASS"
        scripts = d["certificate_summary"]["scripts"]
        ok = ok and scripts and all(s["ok"] for s in scripts)
    _report(4, "derivation replays", ok)


# ------------------------------------------------------------ criterion 5


def test_criterion_5_product_vs_series():
    order, precision = 4, 16
    # the threshold depth: factor n first reaches the coefficient of x^k at
    # q^((k-1)^2 + 2n + 1)
    depth = max((precision - k * k + 1) // 2 + k for k in range(1, order + 1))
    ok = True
    for exp in (1, -1):
        x = Element.generator(1, 1, exp)
        series = [
            next(product_coefficients((S(1, exp),), 1, [(exp * k,)], precision))[0]
            for k in range(order + 1)
        ]

        def product(d):
            el = finite_qexp(x, d)
            return [
                LaurentSeries(el.terms.get((exp * k,), {}), precision)
                for k in range(order + 1)
            ]

        ok = ok and product(depth) == series and product(depth + 2) == series
        # a clearly insufficient depth must disagree
        ok = ok and product(3) != series
    _report(5, "product vs series mod q^16, orders <= 4", ok)


# ------------------------------------------------------------ criterion 6


def test_criterion_6_certificates_match_blind_search():
    precision, kmax = 12, 12
    words = [_word(SEVEN_LHS), _word(SEVEN_RHS)]
    for rel in (rel1(1), rel2(1), rel3(1), rel4(1), comm0(1), comm0(2)):
        words.append(rel.lhs)
        words.append(rel.rhs)
    ok = True
    for word in words:
        # one blind scan of the product's box serves all its targets
        buckets = blind_buckets(word, kmax)
        for target in window_targets(2, (1, 2), 2):
            _, cert = next(product_coefficients(word, 2, [target], precision))
            # independent enumeration: the blind search's hits for the
            # target, then a valuation filter computed by letter sorting
            # rather than by the certified quadratic form
            kept = blind_kept(word, buckets, target, precision)
            expected = {ks for ks, _ in kept}
            ok = ok and set(cert.tuples) == expected
            if expected:
                ok = ok and cert.min_valuation == min(q for _, q in kept)
    # the certified braid comparison agrees with the replay verdict
    alg = verify_identity("braid_alg", sites=3, window=2, precision=10)
    replayed = replay(braid_script(1, 3))
    ok = ok and (alg.status == "PASS") == replayed.ok
    _report(6, "certified tuples = blind search mod q^12", ok)


# ------------------------------------------------------------ criterion 7


def _normalized_lines(path):
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if "elapsed_ms" in row:
            row["elapsed_ms"] = 0
        rows.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return rows


def test_criterion_7_robustness(tmp_path):
    # (a) associativity of 1000 random monomial triples
    rng = random.Random(20260814)
    ok = True
    for _ in range(1000):
        sites = rng.randint(1, 4)
        a, b, c = (
            Element(
                sites,
                {tuple(rng.randint(-3, 3) for _ in range(sites)): {0: 1}},
            )
            for _ in range(3)
        )
        ok = ok and (a * b) * c == a * (b * c)

    # (b) 50-step rewrite walks keep the window image fixed
    for seed in (0, 1, 2):
        walk = verify_identity("rewrite_walk", seed=seed).to_dict()
        ok = ok and walk["status"] == "PASS"
        ok = ok and walk["certificate_summary"]["steps_taken"] == 50
        ok = ok and all(
            c["match"] for c in walk["certificate_summary"]["checkpoints"]
        )

    # (c) two sequential runs give byte-identical reports
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    argv = ["verify", "--identity", "seven_term,braid_alg,rewrite_walk",
            "--precision", "10", "--seed", "4"]
    code1 = cli.main(argv + ["--output", str(first)])
    code2 = cli.main(argv + ["--output", str(second)])
    ok = ok and code1 == 0 and code2 == 0
    ok = ok and _normalized_lines(first) == _normalized_lines(second)
    _report(7, "associativity, walk stability, run-to-run determinism", ok)
