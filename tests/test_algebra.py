"""Normal-ordered products over the q-commuting chain."""

import random

import pytest

from qtorus.algebra import AlgebraConfig, Element, phase_exponent
from qtorus.errors import InvalidParams, PrecisionError
from qtorus.series import LaurentSeries

from oracles import phase_by_sorting

L = LaurentSeries


def mono(cfg, coeffs_by_site, coeff=None):
    vec = [0] * cfg.sites
    for site, exp in coeffs_by_site.items():
        vec[site - 1] = exp
    return Element(cfg, {tuple(vec): L.one() if coeff is None else coeff})


class TestPhaseForm:
    def test_adjacent_crossing(self):
        assert phase_exponent((0, 1), (1, 0)) == -2  # w2 * w1
        assert phase_exponent((1, 0), (0, 1)) == 0   # w1 * w2 already ordered
        assert phase_exponent((0, 1), (-1, 0)) == 2  # w2 * w1^-1

    def test_distance_two_is_free(self):
        assert phase_exponent((1, 0, 0), (0, 0, 1)) == 0
        assert phase_exponent((0, 0, 1), (1, 0, 0)) == 0

    def test_bilinearity(self):
        assert phase_exponent((0, 2), (3, 0)) == -12

    def test_against_letter_sorting_oracle(self):
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randint(2, 5)
            a = tuple(rng.randint(-3, 3) for _ in range(n))
            b = tuple(rng.randint(-3, 3) for _ in range(n))
            # letters: a's sites ascending then b's sites ascending
            word = [(i + 1, e) for i, e in enumerate(a) if e]
            word += [(i + 1, e) for i, e in enumerate(b) if e]
            totals, phase = phase_by_sorting(word)
            assert phase == phase_exponent(a, b)
            merged = tuple(x + y for x, y in zip(a, b))
            assert totals == {i + 1: e for i, e in enumerate(merged) if e}


class TestElementArithmetic:
    def setup_method(self):
        self.cfg = AlgebraConfig(3)

    def test_nearest_neighbour_rule(self):
        w1 = Element.generator(self.cfg, 1)
        w2 = Element.generator(self.cfg, 2)
        lhs = w2 * w1
        rhs = (w1 * w2).scale(L({-2: 1}))
        assert lhs == rhs

    def test_identity(self):
        one = Element.identity(self.cfg)
        x = mono(self.cfg, {1: 2, 3: -1}, L({0: 3, 1: -1}))
        assert one * x == x
        assert x * one == x

    def test_inverse_generator_cancels(self):
        w2 = Element.generator(self.cfg, 2)
        w2inv = Element.generator(self.cfg, 2, -1)
        assert w2 * w2inv == Element.identity(self.cfg)
        assert w2inv * w2 == Element.identity(self.cfg)

    def test_monomial_associativity_random(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 4)
            cfg = AlgebraConfig(n)
            vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]
            a, b, c = (Element(cfg, {v: L.one()}) for v in vecs)
            assert (a * b) * c == a * (b * c)

    def test_sum_collection_and_zero_drop(self):
        x = mono(self.cfg, {1: 1}, L({0: 1}))
        y = mono(self.cfg, {1: 1}, L({0: -1}))
        assert (x + y).is_zero()

    def test_mixed_precision_product(self):
        # a truncated coefficient is a result; element arithmetic refuses it
        x = mono(self.cfg, {1: 1}, L({0: 1}, 5))
        y = mono(self.cfg, {2: 1}, L({0: 1}))
        with pytest.raises(PrecisionError):
            x * y
        with pytest.raises(PrecisionError):
            y * x
        with pytest.raises(PrecisionError):
            x + x

    def test_fused_product_matches_pairwise_sum(self):
        # the product term by term: one shifted series product per pair
        def pairwise(x, y):
            out = {}
            for a, ca in x.terms.items():
                for b, cb in y.terms.items():
                    key = tuple(s + t for s, t in zip(a, b))
                    c = (ca * cb).shift(phase_exponent(a, b))
                    out[key] = out[key] + c if key in out else c
            return Element(x.config, out)

        def random_element(rng, cfg):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                vec = tuple(rng.randint(-2, 2) for _ in range(cfg.sites))
                terms[vec] = L({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})
            return Element(cfg, terms)

        rng = random.Random(31)
        for _ in range(200):
            cfg = AlgebraConfig(rng.randint(2, 3))
            x, y = random_element(rng, cfg), random_element(rng, cfg)
            assert x * y == pairwise(x, y)

    def test_chain_mismatch_rejected(self):
        with pytest.raises(InvalidParams):
            Element.identity(self.cfg) * Element.identity(AlgebraConfig(4))


class TestRendering:
    def test_str(self):
        cfg = AlgebraConfig(2)
        x = mono(cfg, {1: 1, 2: -1}, L({2: 1}, 6)) + mono(cfg, {}, L({0: 1}))
        assert str(x) == "(1) + (q^2 (mod q^6)) * w1^1*w2^-1"

    def test_zero(self):
        assert str(Element(AlgebraConfig(2), {})) == "0"
