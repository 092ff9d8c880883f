"""Derivation-script generators: replay validity, images, and walks."""

import random

import pytest

from qtorus.errors import InvalidParams
from qtorus.scripts import (
    _matching_steps,
    _pattern_index,
    bcomm_script,
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
from qtorus.catalog import _compare_words, fold_certificate
from qtorus.verifier import ProductCertificate, TupleCertificate
from qtorus.words import (
    B,
    C,
    ExpLetter,
    S,
    Step,
    apply_step,
    comm0,
    expand_composites,
    parse_script,
    parse_word,
    render_script,
    replay,
)

from oracles import compare_words_unshared, scan_applicable_steps


def _same_image(lhs, rhs, sites, window, precision):
    """Whether two factor words have equal coefficients on their box."""
    (rows,), _ = compare_words_unshared([("", lhs, rhs)], sites, window, precision)
    return all(row["match"] for row in rows)


class TestBraidScript:
    def test_replays_for_all_sites(self):
        for n in range(1, 5):
            res = replay(braid_script(n, 6))
            assert res.ok, res.error

    def test_endpoints_are_composite_expansions(self):
        script = braid_script(1, 2)
        assert script.start == parse_word("s1+ s1- s2+ s2- s1+ s1-")
        assert script.end == parse_word("s2+ s2- s1+ s1- s2+ s2-")

    def test_image_equality(self):
        script = braid_script(1, 2)
        assert _same_image(script.start, script.end, 2, 2, 10) is True

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParams):
            braid_script(2, 2)
        with pytest.raises(InvalidParams):
            braid_script(0, 3)

    def test_file_round_trip(self):
        script = braid_script(2, 6)
        text = render_script(script)
        assert render_script(parse_script(text)) == text
        assert replay(parse_script(text)).ok


class TestSigmaScripts:
    def test_replays(self):
        for n in range(2, 5):
            assert replay(sigma_script1(n, 6)).ok
            assert replay(sigma_script2(n, 6)).ok

    def test_endpoints(self):
        s1 = sigma_script1(2, 4)
        assert s1.start == expand_composites((C(3), C(1), C(2), C(3)))
        assert s1.end == expand_composites((C(1), C(3), C(2)))
        s2 = sigma_script2(2, 4)
        assert s2.start == expand_composites((C(1), C(2), C(3), C(1)))
        assert s2.end == expand_composites((C(2), C(1), C(3)))

    def test_image_equality(self):
        s1 = sigma_script1(2, 4)
        assert _same_image(s1.start, s1.end, 4, 1, 8) is True
        s2 = sigma_script2(2, 4)
        assert _same_image(s2.start, s2.end, 4, 1, 8) is True

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParams):
            sigma_script1(1, 6)
        with pytest.raises(InvalidParams):
            sigma_script2(4, 5)


class TestCommutationScripts:
    def test_sigma_commute_replays(self):
        for m, n in ((1, 4), (1, 5), (2, 5), (4, 1)):
            assert replay(sigma_commute_script(m, n, 8)).ok

    def test_sigma_commute_rejects_close(self):
        for m, n in ((1, 2), (1, 3), (3, 1), (2, 2)):
            with pytest.raises(InvalidParams):
                sigma_commute_script(m, n, 8)

    def test_bcomm_replays(self):
        for m, n in ((1, 3), (1, 4), (2, 4), (3, 1)):
            assert replay(bcomm_script(m, n, 6)).ok

    def test_bcomm_rejects_adjacent(self):
        with pytest.raises(InvalidParams):
            bcomm_script(2, 3, 6)

    @pytest.mark.parametrize(
        "build, args", [(sigma_commute_script, (1, 4, 4)), (bcomm_script, (1, 3, 2))]
    )
    def test_rejects_too_few_sites(self, build, args):
        # c_4 reaches site 5, and b_3 site 3
        with pytest.raises(InvalidParams, match="sites too small for the letters"):
            build(*args)

    def test_distance_two_letters_do_not_commute(self):
        # images of c1 c3 and c3 c1 differ, so no commutation relation is
        # admitted at distance two
        assert _same_image((C(1), C(3)), (C(3), C(1)), 4, 1, 8) is False


class TestSevenTermScript:
    def test_replays(self):
        res = replay(seven_term_script())
        assert res.ok, res.error
        assert res.steps_applied == 7

    def test_end_letters(self):
        script = seven_term_script()
        assert [x.label for x in script.end] == ["u^-1", "v", "u"]
        assert all(isinstance(x, ExpLetter) for x in script.start)

    def test_no_file_form(self):
        with pytest.raises(InvalidParams):
            render_script(seven_term_script())


class TestTranslations:
    def test_braid_fwd_all_small(self):
        for m in range(1, 4):
            for n in range(m + 2, m + 7):
                for k in range(m, n - 1):
                    res = replay(braid_translation_fwd(m, n, k))
                    assert res.ok, (m, n, k, res.error)

    def test_braid_rev_all_small(self):
        for m in range(1, 4):
            for n in range(m + 2, m + 7):
                for k in range(m, n - 1):
                    res = replay(braid_translation_rev(m, n, k))
                    assert res.ok, (m, n, k, res.error)

    def test_sigma_fwd_all_small(self):
        for m in range(1, 4):
            for n in range(m + 3, m + 7):
                for k in range(m, n - 2):
                    res = replay(sigma_translation_fwd(m, n, k))
                    assert res.ok, (m, n, k, res.error)

    def test_sigma_rev_all_small(self):
        for m in range(1, 4):
            for n in range(m + 3, m + 7):
                for k in range(m + 1, n - 1):
                    res = replay(sigma_translation_rev(m, n, k))
                    assert res.ok, (m, n, k, res.error)

    def test_braid_fwd_endpoints(self):
        script = braid_translation_fwd(1, 4, 2)
        assert script.start == (B(1), B(2), B(3), B(2))
        assert script.end == (B(3), B(1), B(2), B(3))

    def test_sigma_fwd_lodged_case(self):
        script = sigma_translation_fwd(1, 5, 1)
        assert script.start == (C(1), C(2), C(3), C(4), C(1))
        assert script.end == (C(2), C(1), C(3), C(4))

    def test_sigma_rev_endpoints(self):
        script = sigma_translation_rev(1, 5, 2)
        assert script.start == (C(4), C(3), C(2), C(1), C(3))
        assert script.end == (C(1), C(4), C(3), C(2), C(1))

    def test_range_validation(self):
        with pytest.raises(InvalidParams):
            braid_translation_fwd(1, 4, 3)  # k = n-1 out of range
        with pytest.raises(InvalidParams):
            braid_translation_rev(2, 3, 2)
        with pytest.raises(InvalidParams):
            sigma_translation_fwd(1, 4, 2)  # k = n-2 out of range
        with pytest.raises(InvalidParams):
            sigma_translation_rev(1, 5, 1)  # k = m out of range


class TestWordImages:
    def test_site_bound_enforced(self):
        # a word on a site beyond the chain has no box there, on either side
        for word in ((S(3, 1),), (B(3),)):
            with pytest.raises(InvalidParams):
                compare_words_unshared([("", (S(1, 1),), word)], 2, 1, 6)
            with pytest.raises(InvalidParams):
                _compare_words([("", word, (S(1, 1),))], 2, 1, 6)
        # the catalog compares s-letter words only: a composite letter, which
        # the oracle expands, reaches the engine as it is
        with pytest.raises(InvalidParams, match="not a factor letter"):
            _compare_words([("", (B(1),), (S(1, 1), S(1, -1)))], 2, 1, 6)

    def test_untouched_sites_not_enumerated(self):
        (rows,), _ = compare_words_unshared([("", (S(1, 1),), (S(1, 1),))], 4, 1, 6)
        # box over site 1 only: three targets
        assert [row["target"] for row in rows] == ["w1^-1", "1", "w1^1"]

    def test_composites_expand(self):
        assert _same_image((B(1),), (S(1, 1), S(1, -1)), 2, 1, 8) is True


class TestWalks:
    def test_applicable_steps_basics(self):
        rels = structural_relations(2)
        word = parse_word("s1+ s1-")
        steps = _matching_steps(word, _pattern_index(rels))
        assert Step(0, comm0(1), True) in steps
        assert all(st.position == 0 for st in steps)

    @pytest.mark.parametrize("sites", range(2, 7))
    def test_each_far_commutation_listed_once(self, sites):
        rels = structural_relations(sites)
        far_rels = [rel for rel in rels if rel.rid == "far"]
        # four sign choices per pair of sites two or more apart
        assert len(far_rels) == 4 * (sites - 1) * (sites - 2) // 2
        assert all(rel.lhs[0].site < rel.lhs[1].site for rel in far_rels)
        sides = {(rel.lhs, rel.rhs) for rel in rels}
        assert not any((rel.rhs, rel.lhs) in sides for rel in rels)

    @pytest.mark.parametrize("sites", [4, 6])
    def test_applicable_steps_matches_scan(self, sites):
        rels = structural_relations(sites)
        rng = random.Random(sites)
        letters = [S(n, e) for n in range(1, sites + 1) for e in (1, -1)] + [B(1)]
        index = _pattern_index(rels)
        for _ in range(200):
            word = tuple(rng.choice(letters) for _ in range(rng.randrange(13)))
            assert _matching_steps(word, index) == scan_applicable_steps(word, rels)

    def test_walk_deterministic_under_seed(self):
        start = expand_composites((B(1), B(2)))
        t1, s1 = random_walk(start, 3, 30, random.Random(7))
        t2, s2 = random_walk(start, 3, 30, random.Random(7))
        assert t1 == t2 and s1 == s2
        t3, _ = random_walk(start, 3, 30, random.Random(8))
        assert t3 != t1  # overwhelmingly likely under a different seed

    def test_walk_respects_length_cap(self):
        # capped at its own length, a start that a growing step matches
        start = parse_word("s1+ s2- s1- s3+ s2+ s3-")
        index = _pattern_index(structural_relations(4))
        assert any(len(apply_step(start, st)) > len(start) for st in _matching_steps(start, index))
        trace, _ = random_walk(start, 4, 60, random.Random(3), length_cap=len(start))
        assert all(len(w) <= len(start) for w in trace)

    def test_walk_stops_when_no_step_applies(self):
        start = parse_word("s1+ s1+")
        trace, steps = random_walk(start, 3, 10, random.Random(0))
        assert trace == [start] and steps == []

    def test_walk_preserves_image(self):
        start = expand_composites((B(1), B(2)))
        trace, _ = random_walk(start, 3, 12, random.Random(11))
        for word in trace[1:]:
            assert _same_image(start, word, 3, 1, 8) is True


def _record(rank, tuples, max_index):
    shared = ProductCertificate(("E(w1)",), 10, rank, (), (), ((0, 1, 0),))
    points = tuple((k, 1) for k in tuples)
    return TupleCertificate(
        shared, (1,), "walk", points, len(points), max_index, 1 if tuples else None
    )


class TestFoldCertificate:
    def test_each_maximum_comes_from_its_own_record(self):
        records = [
            _record(1, ((1,), (2,), (3,)), 1),
            _record(4, ((1,),), 2),
            _record(2, (), 9),
        ]
        stats = {}
        for cert in records:
            fold_certificate(stats, cert)
        assert list(stats.items()) == [("max_tuples", 3), ("max_kernel_rank", 4), ("max_index", 9)]

    def test_absent_keys_count_as_zero(self):
        stats = {"max_index": 5}
        fold_certificate(stats, _record(0, (), 0))
        assert list(stats.items()) == [("max_index", 5), ("max_tuples", 0), ("max_kernel_rank", 0)]
        fold_certificate(stats, _record(3, ((1,), (2,)), 4))
        assert stats == {"max_index": 5, "max_tuples": 2, "max_kernel_rank": 3}
