"""Laurent series and rational-function coefficient arithmetic."""

import random
from collections import Counter

import pytest

from qtorus.series import (
    FactoredRational,
    LaurentSeries,
    cyclotomic,
    widen,
)
from qtorus.series import _expand_factors, _laurent_str, _pdiv_monic  # internal, exercised below

from oracles import _trim, coprime, naive_cyclotomic, naive_poly_mul, rational_equal


L = LaurentSeries


class TestLaurentBasics:
    def test_truncated_product(self):
        # a truncated series is a result: it has no product
        a = L({0: 1, 1: 1}, precision=8)
        b = L({0: 1, 1: -1}, precision=8)
        for x, y in ((a, b), (a, L({}, 8)), (L({}, 8), b)):
            with pytest.raises(TypeError):
                x * y

    def test_truncated_sum_and_negation_raise(self):
        a, b = L({0: 1}, 7), L({1: 2}, 7)
        for op in (lambda: a + b, lambda: b + a, lambda: a - b, lambda: -a):
            with pytest.raises(TypeError):
                op()

    def test_construction_drops_zero_and_out_of_range(self):
        s = L({0: 1, 3: 0, 9: 5}, precision=8)
        assert s.coeffs == {0: 1}
        assert s.precision == 8

    def test_precision_is_required(self):
        with pytest.raises(TypeError):
            L({0: 1})

    def test_equality_includes_precision(self):
        assert L({0: 1}, 5) != L({0: 1}, 6)
        assert L({0: 1}, 5) == L({0: 1}, 5)


class TestRendering:
    def test_signs_and_stars(self):
        s = L({1: -2, 3: -4, 5: -8}, 6)
        assert str(s) == "-2*q^1 - 4*q^3 - 8*q^5 (mod q^6)"

    def test_exact_has_no_mod_suffix(self):
        # exact Laurent polynomials are plain dicts, rendered bare
        assert _laurent_str({0: 1, 2: -1}) == "1 - q^2"

    def test_unit_coefficients_have_no_star(self):
        assert _laurent_str({-1: 1, 2: -1, 4: 3}) == "q^-1 - q^2 + 3*q^4"
        assert str(L({-1: 1, 2: -1, 4: 3}, 5)) == "q^-1 - q^2 + 3*q^4 (mod q^5)"

    def test_zero(self):
        assert _laurent_str({}) == "0"
        assert str(L({}, 5)) == "0 (mod q^5)"

    def test_constant(self):
        assert str(L({0: -7}, 3)) == "-7 (mod q^3)"


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(3) == (1, 1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(6) == (1, -1, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        # q^n - 1 = prod_{d | n} cyclotomic(d) fixes every cyclotomic(n) by
        # induction on n, however `cyclotomic` is built
        for n in range(1, 129):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = naive_poly_mul(prod, list(cyclotomic(d)))
            assert prod == [-1] + [0] * (n - 1) + [1], n

    def test_expand_factors_against_product_chain(self):
        rng = random.Random(17)
        for trial in range(60):
            factors = {d: rng.randint(1, 4) for d in rng.sample(range(2, 41), rng.randint(0, 4))}
            factors[1] = trial % 5  # odd and even powers of cyclotomic(1), and none
            key = tuple(sorted((d, m) for d, m in factors.items() if m))
            prod = [1]
            for d, m in key:
                for _ in range(m):
                    prod = naive_poly_mul(prod, list(cyclotomic(d)))
            assert list(_expand_factors(key)) == prod, key

    def test_widen_against_product_chain(self):
        # a Laurent numerator, negative exponents included, times a product
        # of cyclotomic polynomials, against multiplying them in one by one
        rng = random.Random(23)
        for trial in range(60):
            factors = {d: rng.randint(1, 3) for d in rng.sample(range(2, 31), rng.randint(0, 4))}
            factors[1] = trial % 3  # odd and even powers of cyclotomic(1), and none
            lo = rng.randint(-6, 3)
            num = {e: rng.randint(-3, 3) for e in range(lo, lo + rng.randint(0, 6))}
            want = [num.get(e, 0) for e in range(lo, lo + len(num))]
            for d, m in factors.items():
                for _ in range(m):
                    want = naive_poly_mul(want, naive_cyclotomic(d))
            got = widen(num, factors)
            assert got == {lo + i: c for i, c in enumerate(want) if c}, (num, factors)

    def test_one_minus_q2j_factorization(self):
        # 1 - q^(2j) = - prod_{d | 2j} cyclotomic_d(q)
        for j in (1, 2, 3, 5):
            prod = [1]
            for d in range(1, 2 * j + 1):
                if (2 * j) % d == 0:
                    prod = naive_poly_mul(prod, list(cyclotomic(d)))
            expect = [0] * (2 * j + 1)
            expect[0] = 1
            expect[2 * j] = -1
            assert [-c for c in prod] == expect


class TestRationalQ:
    """Canonical (numerator, denominator) pairs of rational functions of q."""

    def test_reduction(self):
        num, den = FactoredRational({0: -1, 2: 1}, Counter({1: 1})).canonical()
        assert num == (1, 1)  # (q^2-1)/(q-1) = q+1
        assert den == (1,)

    def test_denominator_sign_is_normalized(self):
        num, den = FactoredRational({0: -1}, Counter({1: 1})).canonical()  # 1/(1-q)
        assert den[-1] > 0
        assert (num, den) == ((-1,), (-1, 1))

    def test_str(self):
        # q/(cyc_1 cyc_2), 1 + q, and q^-2 + 1
        assert str(FactoredRational({1: 1}, Counter({1: 1, 2: 1}))) == "q^1/(-1 + q^2)"
        assert str(FactoredRational({0: 1, 1: 1})) == "1 + q^1"
        assert str(FactoredRational({-2: 1, 0: 1})) == "(1 + q^2)/(q^2)"


class TestFactoredRational:
    def test_matches_canonical_form(self):
        # q / (cyc_1 * cyc_2) = q/(q^2 - 1) = -q/(1-q^2)
        f = FactoredRational({1: 1}, Counter({1: 1, 2: 1}))
        assert f.canonical() == ((0, 1), (-1, 0, 1))

    def test_cancellation_produces_polynomial(self):
        # (q^2 - 1)/ (cyc_1 cyc_2) = 1
        f = FactoredRational({0: -1, 2: 1}, Counter({1: 1, 2: 1}))
        assert f.canonical() == ((1,), (1,))

    @pytest.mark.parametrize(
        "den", [{0: 1}, {-2: 1}, {1: -1}], ids=["index_0", "index_-2", "negative_multiplicity"]
    )
    def test_rejects_a_factor_that_is_no_cyclotomic_power(self, den):
        # cyclotomic(0) raises too: the denominator holds only indices >= 1
        with pytest.raises(ValueError):
            FactoredRational({0: 1}, Counter(den))

    def test_cyclotomic_index_below_one_is_refused(self):
        with pytest.raises(ValueError, match="cyclotomic index must be >= 1"):
            cyclotomic(0)

    def test_negative_exponents_move_to_denominator(self):
        f = FactoredRational({-2: 1, 0: 1}, None)  # q^-2 + 1
        assert f.canonical() == ((1, 0, 1), (0, 0, 1))

    def test_equality_by_cross_multiplication(self):
        a = FactoredRational({0: 1}, Counter({1: 1}))      # 1/(q-1)
        b = FactoredRational({0: 1, 1: 1}, Counter({1: 1, 2: 1}))  # (1+q)/(q^2-1)
        assert a == b
        assert not (a == FactoredRational({0: 1}, Counter({2: 1})))

    def test_random_sums_against_rational_q(self):
        # random values against their unreduced (numerator, denominator)
        # pairs, built with the oracle's own polynomial products
        rng = random.Random(3)
        for _ in range(100):
            num = {rng.randint(-3, 6): rng.randint(-5, 5) for _ in range(rng.randint(1, 6))}
            den = Counter({rng.choice([1, 2, 3, 4, 6]): rng.randint(0, 2) for _ in range(3)})
            shift = min(0, *num)
            ref_num = [num.get(e, 0) for e in range(shift, max(num) + 1)]
            ref_den = [0] * -shift + [1]
            for d, m in den.items():
                for _ in range(m):
                    ref_den = naive_poly_mul(ref_den, naive_cyclotomic(d))
            got = FactoredRational(num, den).canonical()
            assert rational_equal(got, (ref_num, ref_den))
            assert got[1][-1] == 1
            assert coprime(*got)
            if not any(num.values()):
                assert got == ((), (1,))


def _times_cyclotomic(num, d):
    """The Laurent dict `num` times cyclotomic(d), by the oracle's products."""
    if not num:
        return {}
    lo = min(num)
    dense = naive_poly_mul([num.get(e, 0) for e in range(lo, max(num) + 1)], naive_cyclotomic(d))
    return {e: c for e, c in enumerate(dense, lo) if c}


class TestFactoredEquality:
    """Division-free equality against the comparison of canonical forms."""

    @staticmethod
    def random_value(rng):
        num = {rng.randint(-4, 6): rng.randint(-3, 3) for _ in range(rng.randint(1, 5))}
        # cyclotomic(1) at every multiplicity 0..4, odd ones included
        den = Counter({rng.choice([1, 2, 3, 4, 5, 6, 8, 12]): rng.randint(0, 4) for _ in range(4)})
        # half the numerators carry denominator factors to cancel
        if rng.random() < 0.5:
            for d in rng.sample(sorted(den), rng.randint(0, len(den))):
                num = _times_cyclotomic(num, d)
        return FactoredRational(num, den)

    @staticmethod
    def check(a, b):
        want = a.canonical() == b.canonical()
        assert (a == b) is want
        assert (b == a) is want
        return want

    def test_random_pairs(self):
        rng = random.Random(29)
        zero = FactoredRational()
        seen_negative = seen_odd_phi1 = seen_cancel = False
        degree = lambda den: sum((len(cyclotomic(d)) - 1) * m for d, m in den.items())
        for _ in range(150):
            a = self.random_value(rng)
            seen_negative |= any(e < 0 for e in a.num)
            seen_odd_phi1 |= a.den[1] % 2 == 1
            seen_cancel |= len(a.canonical()[1]) - 1 < degree(a.den) + max(0, -min(a.num, default=0))
            # an independent value, and the same value over a larger denominator
            self.check(a, self.random_value(rng))
            d = rng.choice([1, 2, 3, 7, 10])
            same = FactoredRational(_times_cyclotomic(a.num, d), a.den + Counter({d: 1}))
            assert self.check(a, same)
            # zero on either side, written with and without a denominator
            for z in (zero, FactoredRational({}, Counter({1: 3, 2: 1}))):
                assert self.check(a, z) is a.is_zero()
                assert self.check(z, a) is a.is_zero()
            # the same denominator with one numerator coefficient moved
            if a.num:
                e = rng.choice(sorted(a.num))
                moved = FactoredRational({**a.num, e: a.num[e] + rng.choice([-1, 1])}, a.den)
                assert not self.check(a, moved)
                assert not self.check(same, moved)
        assert seen_negative and seen_odd_phi1 and seen_cancel


class TestMonicDivision:
    def test_random_exact_products(self):
        rng = random.Random(5)
        for _ in range(60):
            b = tuple(_trim([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + [1]))
            q = tuple(_trim([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))]))
            assert _pdiv_monic(tuple(naive_poly_mul(list(q), list(b))), b) == q

    def test_non_divisible(self):
        assert _pdiv_monic((1, 0, 1), (1, 1)) is None  # 1 + q^2 at q = -1 is 2
        assert _pdiv_monic((1,), (0, 1)) is None
        assert _pdiv_monic((1, 1), (1, 0, 1)) is None  # shorter than the divisor
        assert _pdiv_monic((), (1, 1)) == ()
