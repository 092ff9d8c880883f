"""Laurent series and rational-function coefficient arithmetic."""

import math
import random
from collections import Counter

import pytest

from qtorus.errors import PrecisionError
from qtorus.series import (
    FactoredRational,
    LaurentSeries,
    RationalQ,
    cyclotomic,
)
from qtorus.series import _pdiv_monic, _pmul, _ptrim  # internal, exercised below

from oracles import coprime, rational_add, rational_equal


L = LaurentSeries


class TestLaurentBasics:
    def test_exact_product_of_polynomials_is_exact(self):
        a = L({0: 1, 1: 1})   # 1 + q
        b = L({0: 1, 1: -1})  # 1 - q
        p = a * b
        assert p.precision is None
        assert p == L({0: 1, 2: -1})

    def test_truncated_product(self):
        a = L({0: 1, 1: 1}, precision=8)
        b = L({0: 1, 1: -1}, precision=8)
        assert a * b == L({0: 1, 2: -1}, precision=8)

    def test_construction_drops_zero_and_out_of_range(self):
        s = L({0: 1, 3: 0, 9: 5}, precision=8)
        assert s.coeffs == {0: 1}
        assert s.coefficient(3) == 0
        with pytest.raises(PrecisionError):
            s.coefficient(8)

    def test_addition_meets_precision(self):
        a = L({0: 1}, precision=5)
        b = L({1: 2}, precision=7)
        c = a + b
        assert c.precision == 5
        assert c.coeffs == {0: 1, 1: 2}

    def test_negative_valuation_lowers_product_precision(self):
        x = L({-2: 1})            # exact q^-2
        y = L({0: 1, 1: 1}, 6)    # known mod q^6
        p = x * y
        assert p.precision == 4
        assert p.coeffs == {-2: 1, -1: 1}

    def test_precision_loss_is_symmetric_in_the_product(self):
        x = L({-2: 1}, 5)
        y = L({-1: 3, 0: 1}, 7)
        assert (x * y).precision == (y * x).precision == min(5 - 1, 7 - 2)

    def test_shift(self):
        s = L({0: 1, 2: 1}, 6).shift(3)
        assert s.precision == 9
        assert s.coeffs == {3: 1, 5: 1}

    def test_valuation(self):
        assert L({}).valuation() == math.inf
        assert L({-3: 2, 5: 1}).valuation() == -3
        assert L({4: 1}, 9).valuation() == 4

    def test_equality_includes_precision(self):
        assert L({0: 1}, 5) != L({0: 1}, 6)
        assert L({0: 1}, 5) == L({0: 1}, 5)


class TestRendering:
    def test_signs_and_stars(self):
        s = L({1: -2, 3: -4, 5: -8}, 6)
        assert str(s) == "-2*q^1 - 4*q^3 - 8*q^5 (mod q^6)"

    def test_exact_has_no_mod_suffix(self):
        assert str(L({0: 1, 2: -1})) == "1 - q^2"

    def test_unit_coefficients_have_no_star(self):
        assert str(L({-1: 1, 2: -1, 4: 3})) == "q^-1 - q^2 + 3*q^4"

    def test_zero(self):
        assert str(L({})) == "0"
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
        for n in (1, 2, 3, 4, 6, 8, 12, 20):
            prod = (1,)
            d = 1
            while d <= n:
                if n % d == 0:
                    prod = _pmul(prod, cyclotomic(d))
                d += 1
            expect = tuple([-1] + [0] * (n - 1) + [1])
            assert prod == expect

    def test_one_minus_q2j_factorization(self):
        # 1 - q^(2j) = - prod_{d | 2j} cyclotomic_d(q)
        for j in (1, 2, 3, 5):
            prod = (1,)
            for d in range(1, 2 * j + 1):
                if (2 * j) % d == 0:
                    prod = _pmul(prod, cyclotomic(d))
            expect = [0] * (2 * j + 1)
            expect[0] = 1
            expect[2 * j] = -1
            assert tuple(-c for c in prod) == tuple(expect)


class TestRationalQ:
    def test_reduction(self):
        r = FactoredRational({0: -1, 2: 1}, Counter({1: 1})).to_rational_q()
        assert r.num == (1, 1)  # (q^2-1)/(q-1) = q+1
        assert r.den == (1,)

    def test_denominator_sign_is_normalized(self):
        r = FactoredRational({0: -1}, Counter({1: 1})).to_rational_q()  # 1/(1-q)
        assert r.den[-1] > 0
        assert r == RationalQ((-1,), (-1, 1))

    def test_zero(self):
        assert RationalQ((), (1, 2)).is_zero()
        assert RationalQ((0, 0), (5,)) == RationalQ.from_int(0)

    def test_arithmetic_matches_polynomial_identities(self):
        one_minus_q2 = FactoredRational({0: 1, 2: -1})
        r = FactoredRational({0: -1}, Counter({1: 1, 2: 1}))  # 1/(1-q^2)
        assert (r * one_minus_q2).to_rational_q() == RationalQ.from_int(1)
        s = r + FactoredRational({0: 1}, Counter({1: 1, 2: 1}))
        assert s.to_rational_q().is_zero()

    def test_str(self):
        assert str(RationalQ((0, 1), (-1, 0, 1))) == "q^1/(-1 + q^2)"
        assert str(RationalQ((1, 1))) == "1 + q^1"
        assert str(RationalQ((1, 0, 1), (0, 0, 1))) == "(1 + q^2)/(q^2)"


class TestFactoredRational:
    def test_matches_canonical_form(self):
        # q / (cyc_1 * cyc_2) = q/(q^2 - 1) = -q/(1-q^2)
        f = FactoredRational({1: 1}, Counter({1: 1, 2: 1}))
        assert f.to_rational_q() == RationalQ((0, 1), (-1, 0, 1))

    def test_add_with_shared_factors(self):
        f = FactoredRational({1: 1}, Counter({1: 1, 2: 1}))
        g = FactoredRational({0: 1}, Counter())
        h = f + g
        assert h.to_rational_q() == RationalQ((-1, 1, 1), (-1, 0, 1))

    def test_cancellation_produces_polynomial(self):
        # (q^2 - 1)/ (cyc_1 cyc_2) = 1
        f = FactoredRational({0: -1, 2: 1}, Counter({1: 1, 2: 1}))
        r = f.to_rational_q()
        assert r == RationalQ.from_int(1)

    def test_negative_exponents_move_to_denominator(self):
        f = FactoredRational({-2: 1, 0: 1}, None)  # q^-2 + 1
        assert f.to_rational_q() == RationalQ((1, 0, 1), (0, 0, 1))

    def test_equality_by_cross_multiplication(self):
        a = FactoredRational({0: 1}, Counter({1: 1}))      # 1/(q-1)
        b = FactoredRational({0: 1, 1: 1}, Counter({1: 1, 2: 1}))  # (1+q)/(q^2-1)
        assert a == b
        assert not (a == FactoredRational({0: 1}, Counter({2: 1})))

    def test_mul(self):
        a = FactoredRational({1: 1}, Counter({1: 1}))
        b = FactoredRational({1: -1}, Counter({2: 1}))
        p = a * b
        assert p.to_rational_q() == RationalQ((0, 0, -1), (-1, 0, 1))

    def test_random_sums_against_rational_q(self):
        rng = random.Random(3)
        for _ in range(30):
            terms = []
            for _ in range(rng.randint(2, 4)):
                num = {rng.randint(-3, 6): rng.randint(-5, 5) for _ in range(rng.randint(1, 3))}
                den = Counter({rng.choice([1, 2, 3, 4, 6]): rng.randint(0, 2) for _ in range(2)})
                terms.append(FactoredRational(num, den))
            total = FactoredRational.zero()
            ref = ([], [1])
            for t in terms:
                total = total + t
                r = t.to_rational_q()
                ref = rational_add(ref, (r.num, r.den))
            got = total.to_rational_q()
            assert rational_equal((got.num, got.den), ref)
            assert got.den[-1] == 1
            assert coprime(got.num, got.den)


class TestMonicDivision:
    def test_random_exact_products(self):
        rng = random.Random(5)
        for _ in range(60):
            b = _ptrim(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4))) + (1,))
            q = _ptrim(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 6))))
            assert _pdiv_monic(_pmul(q, b), b) == q

    def test_non_divisible(self):
        assert _pdiv_monic((1, 0, 1), (1, 1)) is None  # 1 + q^2 at q = -1 is 2
        assert _pdiv_monic((1,), (0, 1)) is None
        assert _pdiv_monic((1, 1), (1, 0, 1)) is None  # shorter than the divisor
        assert _pdiv_monic((), (1, 1)) == ()
