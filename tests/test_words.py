"""Letters, relations, step application, replay, and the script file format."""

import copy
import pickle

import pytest

from qtorus.algebra import Element
from qtorus.errors import InvalidParams, InvalidStep, NoMatch
from qtorus.words import (
    B,
    C,
    DerivationScript,
    ExpLetter,
    Letter,
    S,
    Step,
    apply_step,
    bcomm,
    comm0,
    commute_rule,
    expand_composites,
    far,
    mult1_rule,
    mult2_rule,
    parse_script,
    parse_word,
    pentagon_rule,
    rel1,
    rel2,
    rel3,
    rel4,
    render_script,
    render_word,
    replay,
    scomm,
    sig1,
    sig2,
)

# make the letter shorthands available without the module prefix
from qtorus import words as W


class TestLetters:
    def test_render(self):
        assert str(S(2, 1)) == "s2+"
        assert str(S(11, -1)) == "s11-"
        assert str(B(3)) == "b3"
        assert str(C(4)) == "c4"

    def test_parse_round_trip(self):
        text = "s1+ s2- b3 c10 s4+"
        assert render_word(parse_word(text)) == text

    def test_parse_rejects_garbage(self):
        for bad in ("s2", "b3+", "c1-", "w2+", "s0+", "s-1+", ""):
            with pytest.raises(InvalidParams):
                parse_word(bad) if bad else W.parse_letter(bad)

    def test_letter_validation(self):
        with pytest.raises(InvalidParams):
            Letter("S", 1, 0)
        with pytest.raises(InvalidParams):
            Letter("B", 1, 1)
        with pytest.raises(InvalidParams):
            Letter("S", 0, 1)

    def test_factories_share_one_letter_per_argument_tuple(self):
        assert S(1, 1) is S(1, 1)
        assert B(3) is B(3) and C(3) is C(3)
        assert S(1, 1) is not S(1, -1) and B(3) is not C(3)
        # shared letters are still frozen values: copies are equal, not shared
        for letter in (S(1, 1), B(3), C(4)):
            assert copy.copy(letter) == copy.deepcopy(letter) == letter
            assert pickle.loads(pickle.dumps(letter)) == Letter(letter.kind, letter.site, letter.sign)
            with pytest.raises(AttributeError):
                letter.site = 2
        with pytest.raises(InvalidParams):
            S(0, 1)  # a rejected argument tuple is not cached
        with pytest.raises(InvalidParams):
            S(0, 1)

    def test_expand_composites(self):
        word = (B(2), C(3), S(1, 1))
        assert expand_composites(word) == (
            S(2, 1), S(2, -1), S(3, -1), S(4, 1), S(1, 1),
        )


class TestRelationFactories:
    def test_two_site_shapes(self):
        r = rel1(1)
        assert r.lhs == (S(2, 1), S(1, -1), S(1, 1), S(2, 1))
        assert r.rhs == (S(1, -1), S(2, 1), S(1, 1))
        assert rel2(1).lhs == (S(2, -1), S(1, 1), S(1, -1), S(2, -1))
        assert rel3(1).lhs == (S(1, 1), S(2, 1), S(2, -1), S(1, 1))
        assert rel4(1).lhs == (S(1, -1), S(2, -1), S(2, 1), S(1, -1))
        assert comm0(5).lhs == (S(5, 1), S(5, -1))

    def test_full_ids(self):
        assert rel1(3).full_id == "rel1[n=3]"
        assert far(3, 1, 1, -1).full_id == "far[a=3+,b=1-]"
        assert bcomm(1, 4).full_id == "bcomm[m=1,n=4]"

    def test_validation(self):
        with pytest.raises(InvalidParams):
            far(2, 1, 3, -1)
        with pytest.raises(InvalidParams):
            bcomm(2, 3)
        with pytest.raises(InvalidParams):
            sig1(1)
        with pytest.raises(InvalidParams):
            sig2(1)
        with pytest.raises(InvalidParams):
            scomm(1, 3)
        with pytest.raises(InvalidParams):
            rel1(0)

    @pytest.mark.parametrize(
        "factory, args, message",
        [
            (comm0, (0,), "site must be >= 1"),
            (rel1, (0,), "site must be >= 1"),
            (rel2, (0,), "site must be >= 1"),
            (rel3, (0,), "site must be >= 1"),
            (rel4, (-1,), "site must be >= 1"),
            (W.artin, (0,), "site must be >= 1"),
            (far, (0, 1, 3, -1), "site must be >= 1"),
            (far, (3, 1, -1, -1), "site must be >= 1"),
            (bcomm, (0, 3), "site must be >= 1"),
            (bcomm, (4, -2), "site must be >= 1"),
            (scomm, (-1, 4), "site must be >= 1"),
            (scomm, (5, 0), "site must be >= 1"),
            # site n-1 of a sigma relation is below 1 exactly when n < 2
            (sig1, (1,), "needs n >= 2"),
            (sig2, (1,), "needs n >= 2"),
        ],
    )
    def test_site_below_one(self, factory, args, message):
        # the letters a factory builds check their sites; each case's other
        # arguments are valid, so no other check can raise first
        with pytest.raises(InvalidParams, match=message):
            factory(*args)

    def test_sigma_shapes(self):
        assert sig1(2).lhs == (C(3), C(1), C(2), C(3))
        assert sig1(2).rhs == (C(1), C(3), C(2))
        assert sig2(2).lhs == (C(1), C(2), C(3), C(1))
        assert sig2(2).rhs == (C(2), C(1), C(3))


class TestStepApplication:
    def test_forward_and_reverse(self):
        word = parse_word("s1+ s1- s2+")
        out = apply_step(word, Step(0, comm0(1), True))
        assert render_word(out) == "s1- s1+ s2+"
        back = apply_step(out, Step(0, comm0(1), False))
        assert back == word

    def test_length_changing(self):
        word = rel1(1).lhs
        out = apply_step(word, Step(0, rel1(1), True))
        assert out == rel1(1).rhs
        assert apply_step(out, Step(0, rel1(1), False)) == word

    def test_no_match_wrong_pattern(self):
        word = parse_word("s1- s1+")
        with pytest.raises(NoMatch):
            apply_step(word, Step(0, comm0(1), True))

    def test_no_match_out_of_range(self):
        word = parse_word("s1+ s1-")
        with pytest.raises(NoMatch):
            apply_step(word, Step(1, comm0(1), True))
        with pytest.raises(NoMatch):
            apply_step(word, Step(-1, comm0(1), True))

    def test_interior_position(self):
        word = parse_word("s3+ s1+ s1- s3-")
        out = apply_step(word, Step(1, comm0(1), True))
        assert render_word(out) == "s3+ s1- s1+ s3-"


class TestReplay:
    def test_good_script(self):
        script = DerivationScript(
            "swap-twice",
            parse_word("s1+ s1-"),
            (Step(0, comm0(1), True), Step(0, comm0(1), False)),
            parse_word("s1+ s1-"),
        )
        res = replay(script)
        assert res.ok and res.steps_applied == 2
        assert res.final == parse_word("s1+ s1-") and res.error is None

    def test_bad_step_reports_index(self):
        script = DerivationScript(
            "broken",
            parse_word("s1+ s1-"),
            (Step(0, comm0(1), True), Step(0, comm0(1), True)),
            parse_word("s1+ s1-"),
        )
        res = replay(script)
        assert not res.ok and res.steps_applied == 1
        assert "expected" in res.error

    def test_wrong_end_detected(self):
        script = DerivationScript(
            "wrong-end",
            parse_word("s1+ s1-"),
            (Step(0, comm0(1), True),),
            parse_word("s1+ s1-"),
        )
        res = replay(script)
        assert not res.ok and "differs" in res.error


class TestScriptFiles:
    def test_round_trip_bit_exact(self):
        script = DerivationScript(
            "sample",
            parse_word("s2+ s1- s1+ s2+ s4-"),
            (
                Step(0, rel1(1), True),
                Step(2, far(1, 1, 4, -1), True),
                Step(3, far(1, 1, 4, -1), False),
            ),
            parse_word("s1- s2+ s1+ s4-"),
        )
        text = render_script(script)
        again = parse_script(text)
        assert render_script(again) == text
        assert again.start == script.start
        assert again.end == script.end
        assert again.steps == script.steps
        # the reconstructed script replays identically
        assert replay(again).ok == replay(script).ok

    def test_parse_rejects_unknown_relation(self):
        text = "script: x\nstart: s1+\n@0 nosuch[n=1] fwd\nend: s1+\n"
        with pytest.raises(InvalidParams):
            parse_script(text)

    @pytest.mark.parametrize(
        "step, message",
        [
            ("@0 far[a=1+,b=3] fwd", "cannot parse signed site '3'"),
            ("@0 comm0[n=1] sideways", "cannot parse script line"),
        ],
        ids=["signed_site", "script_line"],
    )
    def test_parse_rejects_an_unreadable_step(self, step, message):
        with pytest.raises(InvalidParams, match=message):
            parse_script(f"script: x\nstart: s1+ s3+\n{step}\nend: s3+ s1+\n")

    def test_parse_requires_header_lines(self):
        with pytest.raises(InvalidParams):
            parse_script("start: s1+\nend: s1+\n")

    @pytest.mark.parametrize(
        "text",
        [
            "script: a\nscript: b\nstart: s1+ s1-\nend: s1+ s1-\n",
            "script: a\nstart: s1+ s1-\nstart: s1- s1+\nend: s1- s1+\n",
            "script: a\nstart: s1+\nend: s1+\n@0 comm0[n=1] fwd\nend: s1+\n",
        ],
        ids=["script", "start", "end"],
    )
    def test_parse_rejects_a_repeated_header_line(self, text):
        # the last line would otherwise win silently: the second start word
        # replays to its end word and the first is dropped
        with pytest.raises(InvalidParams, match="given twice"):
            parse_script(text)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a comment\nscript: c\n\nstart: s1+ s1-\n"
            "@0 comm0[n=1] fwd\n# another\nend: s1- s1+\n"
        )
        script = parse_script(text)
        assert replay(script).ok

    def test_extended_letters_have_no_file_form(self):
        u = ExpLetter("u", Element.generator(1, 1))
        script = DerivationScript("x", (u,), (), (u,))
        with pytest.raises(InvalidParams):
            render_script(script)


class TestAlgebraPremiseRules:
    def setup_method(self):
        self.sites = 2
        self.u = Element.generator(self.sites, 1)
        self.v = Element.generator(self.sites, 2)

    def test_exp_letter_equality_ignores_label(self):
        a = ExpLetter("u", self.u)
        b = ExpLetter("other-name", self.u)
        c = ExpLetter("v", self.v)
        assert a == b and a != c

    def test_mult1_requires_weyl_pair(self):
        xu = ExpLetter("u", self.u)
        xv = ExpLetter("v", self.v)
        r = mult1_rule(xu, xv)
        assert r.lhs == (xu, xv)
        assert r.rhs[0].element == self.u + self.v
        with pytest.raises(InvalidStep):
            mult1_rule(xv, xu)  # v u = q^-2 u v, not q^2

    def test_mult2_merged_argument(self):
        xu = ExpLetter("u", self.u)
        xv = ExpLetter("v", self.v)
        r = mult2_rule(xu, xv)
        assert r.lhs == (xv, xu)
        expected = self.u + self.v - (self.v * self.u).scale(1)
        assert r.rhs[0].element == expected

    def test_pentagon_middle_letter(self):
        xu = ExpLetter("u", self.u)
        xv = ExpLetter("v", self.v)
        r = pentagon_rule(xu, xv)
        assert r.lhs == (xv, xu)
        middle = (self.v * self.u).scale(1, -1)
        assert [x.element for x in r.rhs] == [self.u, middle, self.v]

    def test_commute_rule_premise(self):
        a = ExpLetter("w1", Element.generator(3, 1))
        c = ExpLetter("w3", Element.generator(3, 3))
        r = commute_rule(a, c)
        assert r.lhs == (a, c) and r.rhs == (c, a)
        b = ExpLetter("w2", Element.generator(3, 2))
        with pytest.raises(InvalidStep):
            commute_rule(a, b)

    def test_rules_drive_rewrites(self):
        xu = ExpLetter("u", self.u)
        xv = ExpLetter("v", self.v)
        pent = pentagon_rule(xu, xv)
        word = (xv, xu)
        out = apply_step(word, Step(0, pent, True))
        assert len(out) == 3
        back = apply_step(out, Step(0, pent, False))
        assert back == word
