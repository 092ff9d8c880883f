"""Normal-ordered products over the q-commuting chain."""

import random

import pytest

from qtorus.algebra import Element, phase_exponent
from qtorus.errors import InvalidParams

from oracles import phase_by_sorting


def mono(sites, coeffs_by_site, coeff=None):
    vec = [0] * sites
    for site, exp in coeffs_by_site.items():
        vec[site - 1] = exp
    return Element(sites, {tuple(vec): {0: 1} if coeff is None else coeff})


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
        self.sites = 3

    def test_nearest_neighbour_rule(self):
        w1 = Element.generator(self.sites, 1)
        w2 = Element.generator(self.sites, 2)
        lhs = w2 * w1
        rhs = (w1 * w2).scale(-2)
        assert lhs == rhs

    def test_identity(self):
        one = Element.identity(self.sites)
        x = mono(self.sites, {1: 2, 3: -1}, {0: 3, 1: -1})
        assert one * x == x
        assert x * one == x

    def test_inverse_generator_cancels(self):
        w2 = Element.generator(self.sites, 2)
        w2inv = Element.generator(self.sites, 2, -1)
        assert w2 * w2inv == Element.identity(self.sites)
        assert w2inv * w2 == Element.identity(self.sites)

    def test_monomial_associativity_random(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 4)
            vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]
            a, b, c = (Element(n, {v: {0: 1}}) for v in vecs)
            assert (a * b) * c == a * (b * c)

    def test_sum_collection_and_zero_drop(self):
        x = mono(self.sites, {1: 1}, {0: 1})
        y = mono(self.sites, {1: 1}, {0: -1})
        assert (x + y).is_zero()

    def test_fused_product_matches_pairwise_sum(self):
        # the product term by term: one schoolbook Laurent product per pair,
        # shifted by the pair's phase
        def pairwise(x, y):
            out = {}
            for a, ca in x.terms.items():
                for b, cb in y.terms.items():
                    c = out.setdefault(tuple(s + t for s, t in zip(a, b)), {})
                    for ea, xa in ca.items():
                        for eb, xb in cb.items():
                            e = ea + eb + phase_exponent(a, b)
                            c[e] = c.get(e, 0) + xa * xb
            return Element(x.sites, out)

        def random_element(rng, sites):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                vec = tuple(rng.randint(-2, 2) for _ in range(sites))
                terms[vec] = {rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
            return Element(sites, terms)

        rng = random.Random(31)
        for _ in range(200):
            sites = rng.randint(2, 3)
            x, y = random_element(rng, sites), random_element(rng, sites)
            assert x * y == pairwise(x, y)

    def test_chain_mismatch_rejected(self):
        with pytest.raises(InvalidParams):
            Element.identity(self.sites) * Element.identity(4)


class TestLaurentDictTerms:
    """Coefficients are plain dicts, q-exponent -> nonzero int."""

    def setup_method(self):
        self.sites = 2

    def pair(self):
        return (
            Element(self.sites, {(1, 0): {0: 1, 2: -1}}),
            Element(self.sites, {(1, 0): {1: 1}, (0, 1): {-1: 3}}),
        )

    def test_zero_entries_and_empty_terms_are_dropped(self):
        x = Element(self.sites, {(1, 0): {0: 2, 3: 0}, (0, 1): {1: 0, 2: 0}, (1, 1): {}})
        assert x.terms == {(1, 0): {0: 2}}
        assert Element(self.sites, {(0, 1): {4: 0}}).is_zero()

    def test_scale_by_signed_power_of_q(self):
        _, y = self.pair()
        assert y.scale(2).terms == {(1, 0): {3: 1}, (0, 1): {1: 3}}
        assert y.scale(-1, -1).terms == {(1, 0): {0: -1}, (0, 1): {-2: -3}}
        assert y.scale(0, -1) == -y
        assert y.scale(3).scale(-3) == y

    def test_difference_with_itself_is_zero(self):
        x, y = self.pair()
        assert (y - y).is_zero()
        assert (x + y) - y == x

    def test_no_aliasing(self):
        given = {0: 1, 2: -1}
        x = Element(self.sites, {(1, 0): given})
        given[0] = 7
        given[5] = 1
        assert x == self.pair()[0]

        a, b = self.pair()
        built = [a + b, b + a, a * b, b * a, a.scale(1, -1), b.scale(0)]
        for el in (a, b):
            for coeff in el.terms.values():
                coeff[0] = coeff.get(0, 0) + 11
        fa, fb = self.pair()
        assert built == [fa + fb, fb + fa, fa * fb, fb * fa, fa.scale(1, -1), fb.scale(0)]


class TestRendering:
    def test_str(self):
        sites = 2
        x = mono(sites, {1: 1, 2: -1}, {2: 1, 5: -3}) + mono(sites, {}, {0: 1})
        assert str(x) == "(1) + (q^2 - 3*q^5) * w1^1*w2^-1"

    def test_zero(self):
        assert str(Element(2, {})) == "0"
