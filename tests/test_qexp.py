"""Coefficients of the q-exponential, its series form and its finite products."""

import random
from collections import Counter

import pytest

from qtorus.algebra import Element
from qtorus.qexp import divide_by_one_minus, euler_denominator_factors, euler_expansion
from qtorus.series import FactoredRational, LaurentSeries, cyclotomic
from qtorus.verifier import coefficient_of, exact_window_map
from qtorus.words import S

from oracles import (
    finite_qexp, longdiv_expand, naive_poly_mul, oracle_euler, rational_equal, series_of,
)

L = LaurentSeries


def exact_c(k):
    """c_k in canonical form, built as the exact engine builds it: q^(k^2)
    over the cyclotomic factors of its denominator."""
    return FactoredRational({k * k: 1}, euler_denominator_factors(k)).canonical()


def engine_c(k, precision, exp=1):
    """The truncated engine's coefficient of w^(exp*k) in E(w^exp)."""
    return coefficient_of((S(1, exp),), 1, (exp * k,), precision)[0]


def threshold_depth(order, precision):
    """Product depth after which the coefficients of x^0..x^order of a plain
    generator's finite product are frozen mod q^precision."""
    return max(1, max((precision - k * k + 1) // 2 + k for k in range(1, order + 1)))


def below(el, vec, precision):
    """Coefficient of monomial `vec` in the exact element `el`, mod q^precision."""
    return L(el.terms.get(vec, {}), precision)


class TestEulerCoefficients:
    def test_c0_and_c1(self):
        assert exact_c(0) == ((1,), (1,))
        # c_1 = -q/(1-q^2) = q/(q^2-1)
        assert exact_c(1) == ((0, 1), (-1, 0, 1))

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            euler_denominator_factors(-1)

    def test_expansion_refuses_negative_order_before_any_work(self):
        # unchecked, (-1,) lowers itself without end and (-1, 2) reads as (2,)
        for orders, size in (((-1,), 4), ((-1, 2), 5)):
            built = {}
            with pytest.raises(ValueError, match="order must be >= 0"):
                euler_expansion(built, orders, size)
            assert built == {}

    def test_c1_series(self):
        # c_1 / q mod q^8 in powers of q^2: one running-sum pass of 1/(1 - q^2)
        assert divide_by_one_minus([-1, 0, 0, 0], 1) == [-1, -1, -1, -1]
        assert engine_c(1, 8) == L({1: -1, 3: -1, 5: -1, 7: -1}, 8)

    def test_c2_series(self):
        # 1/(q^2;q^2)_2 in powers of q^2, built from (1,) and (0,) by one pass each
        built = {}
        assert euler_expansion(built, (2,), 3) == [1, 1, 2]
        assert built == {(0,): [1, 0, 0], (1,): [1, 1, 1], (2,): [1, 1, 2]}
        assert engine_c(2, 10) == L({4: 1, 6: 1, 8: 2}, 10)

    def test_valuation_is_k_squared(self):
        for k in range(7):
            s, cert = coefficient_of((S(1, 1),), 1, (k,), k * k + 3)
            assert min(s.coeffs) == cert.min_valuation == k * k

    def test_leading_coefficient_sign(self):
        for k in range(1, 7):
            s = engine_c(k, k * k + 1)
            assert s.coeffs[k * k] == (-1) ** k

    def test_recurrence(self):
        # c_k * (1 - q^(2k)) = -q^(2k-1) * c_(k-1)
        for k in range(1, 8):
            (ck_num, ck_den), (prev_num, prev_den) = exact_c(k), exact_c(k - 1)
            lhs = naive_poly_mul(list(ck_num), [1] + [0] * (2 * k - 1) + [-1])
            rhs = naive_poly_mul(list(prev_num), [0] * (2 * k - 1) + [-1])
            assert rational_equal((lhs, ck_den), (rhs, prev_den))

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
                got = exact_c(k)
                assert got[1][-1] == 1
                assert rational_equal(got, ([0] * (k * k) + [1], pochhammer))
        # the result is the caller's own Counter
        mutated = euler_denominator_factors(40)
        mutated[1] += 1
        mutated[7] = 0
        mutated[99] = 2
        assert euler_denominator_factors(40) == prev

    def test_truncated_matches_long_division(self):
        # the engine's partition counts, long division of the canonical exact
        # c_k, and long division of the defining quotient all agree
        for k in range(9):
            exact_num, exact_den = exact_c(k)
            num = {e: c for e, c in enumerate(exact_num) if c}
            den = {e: c for e, c in enumerate(exact_den) if c}
            for P in range(1, 66):
                want = longdiv_expand(num, den, P)
                assert want == oracle_euler(k, P), (k, P)
                assert engine_c(k, P) == L(want, P), (k, P)

    def test_nonpositive_precision_is_zero(self):
        assert divide_by_one_minus([], 3) == []
        assert euler_expansion({}, (0, 3), 0) == []

    def test_expansion_build_against_long_division(self):
        # random sorted multisets with ties and zeros, and the empty one,
        # against long division of prod_k (q^2;q^2)_k; one dict per length
        # is shared across draws, so parents built for one multiset serve
        # later ones, and every expansion stored in it is checked
        rng = random.Random(20261018)
        for size in (1, 5, 17):
            built = {}
            draws = [()] + [
                tuple(sorted(rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(rng.randint(1, 5))))
                for _ in range(40)
            ]
            assert any(len(set(d)) < len(d) for d in draws) and any(0 in d for d in draws)
            for orders in draws:
                assert euler_expansion(built, orders, size) is built[orders]
            for orders, got in built.items():
                den = [1]
                for k in orders:
                    for j in range(1, k + 1):
                        den = naive_poly_mul(den, [1] + [0] * (2 * j - 1) + [-1])
                want = longdiv_expand({0: 1}, dict(enumerate(den)), 2 * size)
                assert got == [want.get(2 * i, 0) for i in range(size)], orders
                assert not any(e % 2 for e in want), orders

    def test_factored_denominators_accumulate(self):
        f3 = euler_denominator_factors(3)
        f2 = euler_denominator_factors(2)
        for d in f2:
            assert f3[d] >= f2[d]
        assert sum(f3.values()) == sum(f2.values()) + len([d for d in range(1, 7) if 6 % d == 0])


class TestSeriesForm:
    def test_single_generator(self):
        # the exact engine on E(w) gives sum c_k w^k, term by term
        w = Element.generator(1, 1)
        table, order = exact_window_map([w], 3)
        assert sorted(table) == [(0,), (1,), (2,), (3,)] and order == 3
        for k in range(4):
            r = table[(k,)].canonical()
            assert r == exact_c(k)
            assert series_of(table[(k,)], 20).coeffs == oracle_euler(k, 20)

    def test_inverse_generator(self):
        # E(w^-1) = sum c_k w^-k: nothing lands on positive powers
        for k in range(4):
            assert engine_c(k, 10, exp=-1) == L(oracle_euler(k, 10), 10)
        for k in (1, 2):
            got, cert = coefficient_of((S(1, -1),), 1, (k,), 10)
            assert got.is_zero() and cert.tuples == ()


class TestProductForm:
    def test_matches_series_on_generator(self):
        P, order = 12, 5
        depth = threshold_depth(order, P)
        for exp in (1, -1):
            prod = finite_qexp(Element.generator(1, 1, exp), depth)
            for k in range(order + 1):
                assert below(prod, (exp * k,), P) == engine_c(k, P, exp), (exp, k)

    def test_depth_boundary_is_sharp(self):
        # coefficient of x^1 mod q^8 needs exactly 4 factors
        x = Element.generator(1, 1)
        deep = below(finite_qexp(x, 4), (1,), 8)
        assert deep == L({1: -1, 3: -1, 5: -1, 7: -1}, 8)
        shallow = below(finite_qexp(x, 3), (1,), 8)
        assert shallow == L({1: -1, 3: -1, 5: -1}, 8)
        assert shallow != deep

    def test_stable_depth_bound_is_safe(self):
        x = Element.generator(1, 1)
        for P in (6, 9, 16):
            for K in (1, 2, 4):
                d = threshold_depth(K, P)
                base, more = finite_qexp(x, d), finite_qexp(x, d + 3)
                for k in range(K + 1):
                    assert below(base, (k,), P) == below(more, (k,), P) == engine_c(k, P)

    def test_scaled_argument(self):
        # argument with a q-power in its coefficient: x = -q v u = -q^-1 (uv),
        # and x^k carries q^(-k^2), so factor n first reaches the coefficient
        # of x^k at q^((k-1)^2 + 2n + 1 - k^2) and the plain-generator depth
        # is not enough
        u = Element.generator(2, 1)
        v = Element.generator(2, 2)
        arg = (v * u).scale(1, -1)
        P, order = 10, 3
        series, _ = exact_window_map([arg], order)
        targets = [(k, k) for k in range(order + 1)]
        assert sorted(series) == targets

        def expand(vec):
            return series_of(series[vec], P)

        # coefficient of (uv)^k is 1 / prod_{j<=k} (1 - q^(2j)): the number
        # of partitions into parts <= k, in q^2 units
        assert expand((2, 2)) == L({0: 1, 2: 1, 4: 2, 6: 2, 8: 3}, P)
        assert expand((3, 3)) == L({0: 1, 2: 1, 4: 2, 6: 3, 8: 4}, P)
        # smallest depth d with (k-1)^2 + 2d + 1 - k^2 >= P for every k
        depth = max((P + k * k - (k - 1) ** 2) // 2 for k in range(1, order + 1))
        assert depth > threshold_depth(order, P)
        for d in (depth, depth + 2):
            prod = finite_qexp(arg, d)
            assert all(below(prod, t, P) == expand(t) for t in targets), d
        # the plain-generator depth gives a finite product that has not yet
        # frozen: it must disagree with the series somewhere
        shallow = finite_qexp(arg, threshold_depth(order, P))
        assert any(below(shallow, t, P) != expand(t) for t in targets)
