"""Coefficients and finite forms of the q-exponential."""

from collections import Counter

import pytest

from qtorus.algebra import AlgebraConfig, Element
from qtorus.qexp import (
    euler_coeff_exact,
    euler_coeff_factored,
    euler_coeff_truncated,
    euler_denominator_factors,
    qexp_product,
    qexp_series,
    stable_depth,
    stable_depth_for,
)
from qtorus.series import LaurentSeries, RationalQ, cyclotomic

from oracles import longdiv_expand, naive_poly_mul, rational_equal

L = LaurentSeries


class TestEulerCoefficients:
    def test_c0_and_c1(self):
        assert euler_coeff_exact(0) == RationalQ.from_int(1)
        # c_1 = -q/(1-q^2) = q/(q^2-1)
        assert euler_coeff_exact(1) == RationalQ((0, 1), (-1, 0, 1))

    def test_c1_series(self):
        assert euler_coeff_truncated(1, 8) == L({1: -1, 3: -1, 5: -1, 7: -1}, 8)

    def test_c2_series(self):
        assert euler_coeff_truncated(2, 10) == L({4: 1, 6: 1, 8: 2}, 10)

    def test_valuation_is_k_squared(self):
        for k in range(7):
            s = euler_coeff_truncated(k, k * k + 3)
            assert s.valuation() == k * k

    def test_leading_coefficient_sign(self):
        for k in range(1, 7):
            s = euler_coeff_truncated(k, k * k + 1)
            assert s.coefficient(k * k) == (-1) ** k

    def test_recurrence(self):
        # c_k * (1 - q^(2k)) = -q^(2k-1) * c_(k-1)
        for k in range(1, 8):
            ck, prev = euler_coeff_exact(k), euler_coeff_exact(k - 1)
            lhs = naive_poly_mul(list(ck.num), [1] + [0] * (2 * k - 1) + [-1])
            rhs = naive_poly_mul(list(prev.num), [0] * (2 * k - 1) + [-1])
            assert rational_equal((lhs, ck.den), (rhs, prev.den))

    def test_denominator_factors_expand_correctly(self):
        # the direct cyclotomic count must expand to
        # (-1)^k prod_{j<=k} (1 - q^(2j)) = prod_{j<=k} (q^(2j) - 1), and the
        # factored c_k must match the explicit rational build
        pochhammer, expanded, prev = [1], [1], Counter()
        for k in range(1, 41):
            pochhammer = naive_poly_mul(pochhammer, [-1] + [0] * (2 * k - 1) + [1])
            factors = euler_denominator_factors(k)
            assert not prev - factors, k
            for d, m in (factors - prev).items():
                for _ in range(m):
                    expanded = naive_poly_mul(expanded, list(cyclotomic(d)))
            assert expanded == pochhammer, k
            prev = factors
            if k <= 5:
                got = euler_coeff_factored(k).to_rational_q()
                assert got.den[-1] == 1
                assert rational_equal((got.num, got.den), ([0] * (k * k) + [1], pochhammer))
        # the result is the caller's own Counter
        mutated = euler_denominator_factors(40)
        mutated[1] += 1
        mutated[7] = 0
        mutated[99] = 2
        assert euler_denominator_factors(40) == prev

    def test_truncated_matches_long_division(self):
        for k in range(9):
            exact = euler_coeff_exact(k)
            num = {e: c for e, c in enumerate(exact.num) if c}
            den = {e: c for e, c in enumerate(exact.den) if c}
            for P in range(1, 66):
                want = L(longdiv_expand(num, den, P), P)
                assert euler_coeff_truncated(k, P) == want, (k, P)

    def test_nonpositive_precision_is_zero(self):
        for k in range(4):
            for P in (0, -1, -5):
                assert euler_coeff_truncated(k, P) == L({}, P)

    def test_factored_denominators_accumulate(self):
        f3 = euler_denominator_factors(3)
        f2 = euler_denominator_factors(2)
        for d in f2:
            assert f3[d] >= f2[d]
        assert sum(f3.values()) == sum(f2.values()) + len([d for d in range(1, 7) if 6 % d == 0])


class TestSeriesForm:
    def test_single_generator(self):
        cfg = AlgebraConfig(1)
        w = Element.generator(cfg, 1)
        e = qexp_series(w, 2, 8)
        assert e.coefficient((0,)) == L({0: 1}, 8)
        assert e.coefficient((1,)) == euler_coeff_truncated(1, 8)
        assert e.coefficient((2,)) == euler_coeff_truncated(2, 8)
        assert (3,) not in e.terms

    def test_inverse_generator(self):
        cfg = AlgebraConfig(1)
        winv = Element.generator(cfg, 1, -1)
        e = qexp_series(winv, 3, 10)
        assert e.coefficient((-2,)) == euler_coeff_truncated(2, 10)
        assert (2,) not in e.terms


class TestProductForm:
    def test_matches_series_on_generator(self):
        cfg = AlgebraConfig(1)
        for exp in (1, -1):
            x = Element.generator(cfg, 1, exp)
            prod = qexp_product(x, None, 12).restrict_window(5)
            ser = qexp_series(x, 5, 12)
            assert prod == ser

    def test_depth_boundary_is_sharp(self):
        # coefficient of x^1 mod q^8 needs exactly 4 factors
        cfg = AlgebraConfig(1)
        x = Element.generator(cfg, 1)
        deep = qexp_product(x, 4, 8).coefficient((1,))
        assert deep == L({1: -1, 3: -1, 5: -1, 7: -1}, 8)
        shallow = qexp_product(x, 3, 8).coefficient((1,))
        assert shallow == L({1: -1, 3: -1, 5: -1}, 8)
        assert shallow != deep

    def test_stable_depth_bound_is_safe(self):
        cfg = AlgebraConfig(1)
        x = Element.generator(cfg, 1)
        for P in (6, 9, 16):
            for K in (1, 2, 4):
                d = stable_depth(K, P)
                base = qexp_product(x, d, P).restrict_window(K)
                more = qexp_product(x, d + 3, P).restrict_window(K)
                assert base == more
                assert base == qexp_series(x, K, P)

    def test_scaled_argument(self):
        # argument with a q-power in its coefficient: the powers of
        # -q v u = -q^-1 (uv) have coefficient valuation -k^2, so the
        # default product depth is not enough and the argument-aware
        # depth must be used.
        cfg = AlgebraConfig(2)
        u = Element.generator(cfg, 1)
        v = Element.generator(cfg, 2)
        arg = (v * u).scale(L({1: -1}))
        P = 10
        depth = stable_depth_for(arg, 3, P)
        assert depth > stable_depth(3, P)  # deeper than the plain-generator bound
        prod = qexp_product(arg, depth, P).restrict_window(3)
        ser = qexp_series(arg, 3, P)
        assert prod == ser
        # coefficient of (uv)^k is 1 / prod_{j<=k} (1 - q^(2j)): the number
        # of partitions into parts <= k, in q^2 units
        assert ser.coefficient((2, 2)) == L({0: 1, 2: 1, 4: 2, 6: 2, 8: 3}, P)
        assert ser.coefficient((3, 3)) == L({0: 1, 2: 1, 4: 2, 6: 3, 8: 4}, P)
        # the default depth computes the literal finite product, which has
        # not yet frozen: it must disagree with the series somewhere
        shallow = qexp_product(arg, None, P).restrict_window(3)
        assert shallow != ser
