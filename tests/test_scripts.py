"""Derivation-script generators: replay validity, images, and walks."""

import hashlib
import random

import pytest

from qtorus import scripts
from qtorus.errors import InvalidParams
from qtorus.scripts import (
    _derive,
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
from qtorus.catalog import _WALK_STEPS, _chain_pairs, _compare_words, _side_class, fold_certificate
from qtorus.verifier import ProductCertificate, TupleCertificate
from qtorus.words import (
    B,
    C,
    RELATION_BUILDERS,
    DerivationScript,
    ExpLetter,
    Letter,
    S,
    Step,
    apply_step,
    comm0,
    expand_composites,
    far,
    parse_script,
    parse_word,
    rel1,
    rel2,
    rel3,
    rel4,
    render_script,
    render_word,
    replay,
)

from oracles import compare_words_unshared, derivation_within, scan_applicable_steps


def _same_image(lhs, rhs, sites, window, precision):
    """Whether two factor words have equal coefficients on their box."""
    (rows,), _ = compare_words_unshared([("", lhs, rhs)], sites, window, precision)
    return all(row["match"] for row in rows)


def _word_trace(script):
    """The script's name, each word its steps pass through from its start,
    and its end, one a line."""
    words = [script.start]
    for step in script.steps:
        words.append(apply_step(words[-1], step))
    lines = (script.name, *map(render_word, words), render_word(script.end))
    return "".join(f"{line}\n" for line in lines)


_PAIRS = [(m, n, 12) for m in range(1, 12) for n in range(1, 12)]
_INDICES = [(n, 12) for n in range(1, 12)]


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

    @pytest.mark.parametrize(
        "build, cases, text, digest",
        [
            (bcomm_script, _PAIRS, _word_trace, "fbf871df6aa6984a405c66f5d482015defb8ec9f9aa0ea76ed28f9467ac6c5b7"),
            (sigma_commute_script, _PAIRS, _word_trace, "9fcd2dc5b2b440a4abea318ffa708d4121ab9eb92c98ac5205f8f897cb017dbf"),
            (braid_script, _INDICES, render_script, "e8764a732b26a4e36cad6c4b1207dd94bd04e607060a1d4d9f8d78a9530bca5c"),
            (sigma_script1, _INDICES, render_script, "4ec03ebd65bf5f9806593b4994a94c42ea3577f352c4a23faa02bb306c4d1e38"),
            (sigma_script2, _INDICES, render_script, "c4905c2f241a11e206c70d2fe5a4added5efb611d14cf730f1468ad819bd543e"),
        ],
        ids=["bcomm", "sigma_commute", "braid", "sigma_rel1", "sigma_rel2"],
    )
    def test_scripts_are_pinned(self, build, cases, text, digest):
        # each script for every m, n in 1..11, or n in 1..11, on 12 sites,
        # or the error for letters too close or out of range.  The word
        # traces of bcomm and sigma_commute, and braid's whole scripts, are
        # as the generators gave them when each listed its steps by hand;
        # the search found the sigma scripts' steps in another order
        out = []
        for args in cases:
            try:
                out.append(text(build(*args)))
            except InvalidParams as exc:
                out.append(f"error: {exc}\n")
        assert hashlib.sha256("".join(out).encode()).hexdigest() == digest

    def test_distance_two_letters_do_not_commute(self):
        # images of c1 c3 and c3 c1 differ, so no commutation relation is
        # admitted at distance two
        assert _same_image((C(1), C(3)), (C(3), C(1)), 4, 1, 8) is False


class TestDerive:
    """The five lemma generators are :func:`_derive` calls; an oracle that
    shares no matcher with the engine checks that each script is shortest."""

    DERIVED = (braid_script, sigma_script1, sigma_script2, bcomm_script, sigma_commute_script)

    def test_generators_give_shortest_scripts(self):
        # over every relation of the chain, not only the start's sites, no
        # derivation one step shorter stays within the start's length
        built = set()
        checked = 0
        for build, args in _indexed_scripts():
            if build not in self.DERIVED:
                continue
            script, sites = build(*args), args[-1]
            chain = structural_relations(range(1, sites + 1))
            cap = len(script.start)
            assert replay(script).ok
            assert derivation_within(script.start, script.end, chain, cap, len(script.steps))
            assert not derivation_within(
                script.start, script.end, chain, cap, len(script.steps) - 1
            ), (build.__name__, args)
            built.add(build)
            checked += 1
        assert len(built) == 5 and checked == 210

    def test_raises_when_the_capped_words_run_out(self):
        # no step at all matches a word of two letters on two sites
        start, end = parse_word("s1+ s2+"), parse_word("s2+ s1+")
        with pytest.raises(InvalidParams, match="at most 2 letters"):
            _derive("swap", start, end)

    def test_braid_passes_through_words_as_long_as_its_start(self):
        # so a cap one letter lower than the start's length cannot give it
        for n in range(1, 5):
            script = braid_script(n, n + 1)
            words = [script.start]
            for step in script.steps:
                words.append(apply_step(words[-1], step))
            assert max(map(len, words[1:-1])) == len(script.start), n

    def test_an_eight_letter_start_on_four_sites_finishes(self):
        # 848 words of at most 8 letters are reachable from the start; the
        # search visits them all for an end on a fifth site, and reaches the
        # first two letters swapped in four far steps
        start = expand_composites((B(1), B(3), B(2), B(4)))
        with pytest.raises(InvalidParams, match="at most 8 letters"):
            _derive("unreachable", start, start[:-1] + (S(5, 1),))
        end = expand_composites((B(3), B(1), B(2), B(4)))
        script = _derive("swap", start, end)
        assert replay(script).ok and len(script.steps) == 4

    def test_start_is_its_own_end(self):
        word = parse_word("s1+ s2-")
        assert _derive("id", word, word) == DerivationScript("id", word, (), word)


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


# the mirror image over sites lo..hi flips every sign, sends site j to
# lo + hi - j and reads every word backwards; rel1 and rel4 are each
# other's images, as are rel2 and rel3
_MIRROR_PARTNER = {"rel1": rel4, "rel2": rel3, "rel3": rel2, "rel4": rel1}


def _mirror_word(word, total):
    """The mirror image of an s-letter word over sites lo..hi, with
    `total` = lo + hi."""
    return tuple(S(total - x.site, -x.sign) for x in reversed(word))


def _mirror_relation(relation, total):
    """The relation whose sides are the mirror images of `relation`'s."""
    if relation.rid == "far":
        a, b = relation.lhs
        return far(total - b.site, -b.sign, total - a.site, -a.sign)
    n = int(dict(relation.bindings)["n"])
    if relation.rid == "comm0":
        return comm0(total - n)
    return _MIRROR_PARTNER[relation.rid](total - 1 - n)


def _reversed_steps(start, steps, image):
    """`steps`, applied from the word `start`, read in reversed words: a
    step at position p of a word w, matching `pattern`, moves to
    len(w) - p - len(pattern), and `image(step)` gives its relation and
    direction there."""
    length, out = len(start), []
    for step in steps:
        relation, forward = image(step)
        pattern, replacement = step.relation.lhs, step.relation.rhs
        if not step.forward:
            pattern, replacement = replacement, pattern
        out.append(Step(length - step.position - len(pattern), relation, forward))
        length += len(replacement) - len(pattern)
    return tuple(out)


def _mirror_steps(start, steps, total):
    """The mirror images of `steps`, applied from `start`, over sites
    lo..hi with `total` = lo + hi; each relation's sides are checked to be
    the images of the original's."""

    def image(step):
        relation = _mirror_relation(step.relation, total)
        sides = (_mirror_word(step.relation.lhs, total), _mirror_word(step.relation.rhs, total))
        assert (relation.lhs, relation.rhs) == sides, step
        return relation, step.forward

    return _reversed_steps(start, steps, image)


def _inverse(steps):
    """The steps that undo `steps`: in reverse order, each reversed."""
    return tuple(Step(s.position, s.relation, not s.forward) for s in reversed(steps))


class TestMirrorDerivations:
    """Derivations that are mirror images of their partners: the braid
    script's second half undoes the image of its first, and the image of
    each sigma script's steps derives the other."""

    def test_mirror_of_a_relation_is_its_image(self):
        for total in range(3, 12):
            for n in range(1, total - 1):
                for build in (comm0, rel1, rel2, rel3, rel4):
                    relation = build(n)
                    image = _mirror_relation(relation, total)
                    assert image.lhs == _mirror_word(relation.lhs, total)
                    assert image.rhs == _mirror_word(relation.rhs, total)
        assert _mirror_relation(far(1, 1, 4, -1), 5) == far(1, 1, 4, -1)
        assert _mirror_relation(far(2, -1, 5, 1), 7) == far(2, -1, 5, 1)
        assert _mirror_relation(rel1(2), 7) == rel4(4)

    def test_sigma_script2_is_the_mirror_image_of_sigma_script1(self):
        # over sites n-1..n+2: the mirror image of each script's steps
        # rewrites the other's start to its end, in the same 8 steps
        checked = 0
        for sites in range(4, 14):
            for n in range(2, sites - 1):
                one, two = sigma_script1(n, sites), sigma_script2(n, sites)
                total = 2 * n + 1
                assert two.start == _mirror_word(one.start, total)
                assert two.end == _mirror_word(one.end, total)
                for a, b in ((one, two), (two, one)):
                    image = _mirror_steps(a.start, a.steps, total)
                    assert replay(DerivationScript(b.name, b.start, image, b.end)).ok, (n, sites)
                assert len(one.steps) == len(two.steps) == 8
                checked += 1
        assert checked == sum(sites - 3 for sites in range(4, 14))

    def test_braid_script_undoes_the_mirror_image_of_its_first_half(self):
        # over sites n..n+1 the start's image is the end, and steps 5-8 are
        # the inverse of the image of steps 1-4
        checked = 0
        for sites in range(2, 14):
            for n in range(1, sites):
                script = braid_script(n, sites)
                total = 2 * n + 1
                assert _mirror_word(script.start, total) == script.end
                first, second = script.steps[:4], script.steps[4:]
                assert second == _inverse(_mirror_steps(script.start, first, total)), n
                checked += 1
        assert checked == sum(sites - 1 for sites in range(2, 14))

    def test_braid_translation_rev_undoes_fwd_read_backwards(self):
        # read in reversed words, bcomm's sides swap, so its direction
        # flips, and artin's sides are palindromes, so its direction stays
        def reversed_step(step):
            forward = step.forward != (step.relation.rid == "bcomm")
            pattern = step.relation.lhs if step.forward else step.relation.rhs
            side = step.relation.lhs if forward else step.relation.rhs
            assert side == tuple(reversed(pattern)), step
            return step.relation, forward

        checked = 0
        for m in range(1, 6):
            for n in range(m + 2, m + 9):
                for k in range(m, n - 1):
                    fwd, rev = braid_translation_fwd(m, n, k), braid_translation_rev(m, n, k)
                    assert rev.start == tuple(reversed(fwd.end))
                    assert rev.end == tuple(reversed(fwd.start))
                    steps = _reversed_steps(fwd.start, fwd.steps, reversed_step)
                    assert rev.steps == _inverse(steps), (m, n, k)
                    checked += 1
        assert checked == 140


def _shifted(text, d):
    """A binding's index, with the sign it may carry, moved up by d."""
    digits = text.rstrip("+-")
    return str(int(digits) + d) + text[len(digits):]


def _translated(script, d):
    """`script` with every site moved up by d: each letter's site, each
    relation rebuilt from its moved bindings and the indices inside the
    name's parentheses; positions and directions are kept."""

    def word(w):
        return tuple(Letter(x.kind, x.site + d, x.sign) for x in w)

    steps = tuple(
        Step(
            step.position,
            RELATION_BUILDERS[step.relation.rid](
                {key: _shifted(value, d) for key, value in step.relation.bindings}
            ),
            step.forward,
        )
        for step in script.steps
    )
    head, _, args = script.name.partition("(")
    name = f"{head}({','.join(str(int(a) + d) for a in args.rstrip(')').split(','))})"
    return DerivationScript(name, word(script.start), steps, word(script.end))


def _indexed_scripts():
    """(generator, arguments) for every indexed generator over small
    chains, the sites last where a generator takes them."""
    for sites in range(2, 9):
        for n in range(1, sites):
            yield braid_script, (n, sites)
        for m in range(1, sites + 1):
            for n in range(1, sites + 1):
                if abs(m - n) >= 2:
                    yield bcomm_script, (m, n, sites)
                if abs(m - n) > 2 and max(m, n) < sites:
                    yield sigma_commute_script, (m, n, sites)
    for sites in range(4, 9):
        for n in range(2, sites - 1):
            yield sigma_script1, (n, sites)
            yield sigma_script2, (n, sites)
    for m in range(1, 4):
        for n in range(m + 2, m + 7):
            for k in range(m, n - 1):
                yield braid_translation_fwd, (m, n, k)
                yield braid_translation_rev, (m, n, k)
                if k <= n - 3:
                    yield sigma_translation_fwd, (m, n, k)
                if k > m:
                    yield sigma_translation_rev, (m, n, k)


class TestTranslatedDerivations:
    """Every indexed derivation translates: the script at indices moved
    up by d is the translate by d of the script at the indices."""

    def test_translate_moves_sites_bindings_and_name_indices(self):
        script = sigma_script1(2, 4)
        moved = _translated(script, 3)
        assert moved.name == "sigma_rel1(5)"
        assert moved.start == expand_composites((C(6), C(4), C(5), C(6)))
        assert moved.steps[0] == Step(5, comm0(6), True)
        assert _translated(braid_translation_fwd(1, 4, 2), 2).name == "braid_fwd(3,6,4)"

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_each_generator_translates(self, d):
        built = set()
        checked = 0
        for build, args in _indexed_scripts():
            moved = build(*(a + d for a in args))
            assert moved == _translated(build(*args), d), (build.__name__, args)
            assert replay(moved).ok
            built.add(build)
            checked += 1
        assert len(built) == 9 and checked == 360

    def test_chain_pairs_fall_into_the_same_three_classes_on_every_chain(self):
        # each relation of the chain is a translate of one on the first sites
        keys = []
        for sites in (3, 6, 12, 32):
            found = set()
            for _, lhs, rhs in _chain_pairs(sites):
                support = tuple(sorted({x.site for x in lhs + rhs}))
                found.update(_side_class(word, support)[0] for word in (lhs, rhs))
            keys.append(found)
        assert len(keys[0]) == 3
        assert all(found == keys[0] for found in keys)


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
        rels = structural_relations(range(1, 3))
        word = parse_word("s1+ s1-")
        steps = _matching_steps(word, _pattern_index(rels))
        assert Step(0, comm0(1), True) in steps
        assert all(st.position == 0 for st in steps)

    def test_applicable_steps_word_ends_in_a_side_prefix(self):
        # the word is a proper prefix of rel1(1)'s left side: no window of
        # that length fits in it, and the shorter sides still match
        rels = structural_relations(range(1, 5))
        word = parse_word("s2+ s1- s1+")
        assert tuple(rel1(1).lhs[:3]) == word and len(rel1(1).lhs) == 4
        assert _matching_steps(word, _pattern_index(rels)) == scan_applicable_steps(word, rels)

    @pytest.mark.parametrize("sites", range(2, 7))
    def test_each_far_commutation_listed_once(self, sites):
        rels = structural_relations(range(1, sites + 1))
        far_rels = [rel for rel in rels if rel.rid == "far"]
        # four sign choices per pair of sites two or more apart
        assert len(far_rels) == 4 * (sites - 1) * (sites - 2) // 2
        assert all(rel.lhs[0].site < rel.lhs[1].site for rel in far_rels)
        sides = {(rel.lhs, rel.rhs) for rel in rels}
        assert not any((rel.rhs, rel.lhs) in sides for rel in rels)

    @pytest.mark.parametrize("sites", [4, 6])
    def test_applicable_steps_matches_scan(self, sites):
        rels = structural_relations(range(1, sites + 1))
        rng = random.Random(sites)
        letters = [S(n, e) for n in range(1, sites + 1) for e in (1, -1)] + [B(1)]
        index = _pattern_index(rels)
        for _ in range(200):
            word = tuple(rng.choice(letters) for _ in range(rng.randrange(13)))
            assert _matching_steps(word, index) == scan_applicable_steps(word, rels)

    def test_walk_deterministic_under_seed(self):
        start = expand_composites((B(1), B(2)))
        t1, s1 = random_walk(start, 30, random.Random(7), 16)
        t2, s2 = random_walk(start, 30, random.Random(7), 16)
        assert t1 == t2 and s1 == s2
        t3, _ = random_walk(start, 30, random.Random(8), 16)
        assert t3 != t1  # overwhelmingly likely under a different seed

    def test_walk_respects_length_cap(self):
        # capped at its own length, a start that a growing step matches
        start = parse_word("s1+ s2- s1- s3+ s2+ s3-")
        index = _pattern_index(structural_relations(range(1, 5)))
        assert any(len(apply_step(start, st)) > len(start) for st in _matching_steps(start, index))
        trace, _ = random_walk(start, 60, random.Random(3), length_cap=len(start))
        assert all(len(w) <= len(start) for w in trace)

    def test_walk_reaches_words_as_long_as_its_cap(self):
        # capped at its own length, the walk still takes the steps whose
        # image is exactly that long
        start = parse_word("s1+ s2- s1- s3+ s2+ s3-")
        trace, _ = random_walk(start, 20, random.Random(3), length_cap=len(start))
        assert any(len(w) == len(start) for w in trace[1:])

    def test_walk_steps_are_pinned(self):
        # a fixed-seed walk's (family, direction) sequence: the weights 4, 2
        # and 1 for shorter, equal and longer images and the cap decide it
        start = parse_word("s1+ s2- s1- s3+ s2+ s3-")
        trace, steps = random_walk(start, 12, random.Random(1), 8)
        assert [(st.relation.rid, st.forward) for st in steps] == [
            ("rel2", False), ("comm0", True), ("comm0", False), ("rel2", True),
            ("rel3", False), ("rel3", True), ("far", True), ("far", False),
            ("rel2", False), ("rel2", True), ("far", True), ("far", False),
        ]
        assert [len(w) for w in trace] == [6, 7, 7, 7, 6, 7, 6, 6, 6, 7, 6, 6, 6]

    def test_walk_stops_when_no_step_applies(self):
        start = parse_word("s1+ s1+")
        trace, steps = random_walk(start, 10, random.Random(0), 16)
        assert trace == [start] and steps == []

    @pytest.mark.parametrize(
        "start, digest",
        [
            ("s1+ s1- s2+ s2- s3+ s3-", "0361fb883f20ba96fa638d05f4cd12b14f16f5935addb25492b5ce41ccdbeefc"),
            ("s1+ s2- s1- s3+ s2+ s3-", "3dbf58ac118a3b31c8955e1a642e529f8b876eae863f2526edf39c56983cd873"),
            ("s2+ s1- s1+ s3- s3+ s2-", "7aa2724c6c1d025f3f631061fe7ee9fe3d7d61571e76cdad96e02852b815ab4c"),
            ("s3+ s4- s3- s5+ s4+ s5-", "22e82e05fcf500ad019418f780e5ad1129e4d967a14777757c9e24c71e6a2775"),
        ],
        ids=["catalog_start", "orbit_start", "from_site_2", "sites_3_to_5"],
    )
    def test_walk_is_pinned_on_every_chain(self, monkeypatch, start, digest):
        # every trace word and step of the walks for seeds 0..9 and caps 8
        # and 16, as recorded when the walk indexed every relation of a
        # chain of the start's highest site, of 8 or of 32 sites (all three
        # gave this digest): indexing the start's sites gives it, and so does
        # indexing each of those whole chains
        def digest_of_walks():
            h = hashlib.sha256()
            for seed in range(10):
                for cap in (8, 16):
                    trace, steps = random_walk(word, _WALK_STEPS, random.Random(seed), cap)
                    lines = [*map(render_word, trace), *map(str, steps)]
                    h.update(("\n".join(lines) + "\n\n").encode())
            return h.hexdigest()

        word = parse_word(start)
        assert digest_of_walks() == digest
        chain = scripts.structural_relations
        for sites in (max(x.site for x in word), 8, 32):
            monkeypatch.setattr(
                scripts, "structural_relations", lambda _, n=sites: chain(range(1, n + 1))
            )
            assert digest_of_walks() == digest, sites

    def test_walk_preserves_image(self):
        start = expand_composites((B(1), B(2)))
        trace, _ = random_walk(start, 12, random.Random(11), 16)
        for word in trace[1:]:
            assert _same_image(start, word, 3, 1, 8) is True


def _record(rank, tuples, max_index):
    # a product whose restricted matrix, the identity, has kernel rank `rank`
    gram = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    shared = ProductCertificate(("E(w1)",), 10, gram, (1,) * rank, ((0, 1, 0),))
    points = tuple((k, 1) for k in tuples)
    return TupleCertificate(shared, (1,), "walk", points, len(points), max_index)


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
