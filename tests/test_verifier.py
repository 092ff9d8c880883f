"""Certificate-backed truncated coefficients and the exact window engine."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qtorus.algebra import AlgebraConfig, Element
from qtorus.errors import InfiniteSupport, InvalidParams, NoCertificate
from qtorus.series import LaurentSeries, RationalQ
from qtorus.verifier import (
    FactorProduct,
    QExpFactor,
    coefficient_of,
    exact_window_map,
    window_targets,
)
from qtorus.verifier import _ldl, _scaled_form, _walk_sublevel

import qtorus.catalog as catalog
import qtorus.scripts as scripts
import qtorus.verifier as verifier
from oracles import (
    brute_force_tuples,
    finite_qexp,
    longdiv_expand,
    oracle_euler,
    phase_by_sorting,
)

L = LaurentSeries


def expand(frac, precision):
    """Series of an exact coefficient mod q^precision, by long division."""
    r = frac.to_rational_q()
    num = {e: c for e, c in enumerate(r.num) if c}
    den = {e: c for e, c in enumerate(r.den) if c}
    return L(longdiv_expand(num, den, precision), precision)


def ldl_of(rows):
    return _ldl([[Fraction(x) for x in row] for row in rows])


def product_of(cfg, letters):
    return FactorProduct(cfg, tuple(QExpFactor(site, exp) for site, exp in letters))


class TestSingleFactors:
    def test_one_factor_reproduces_series_coefficients(self):
        cfg = AlgebraConfig(1)
        prod = product_of(cfg, [(1, 1)])
        for k in range(4):
            got, cert = coefficient_of(prod, (k,), 10)
            assert got == L(oracle_euler(k, 10), 10)
            assert cert.tuples == ((k,),)
        got, cert = coefficient_of(prod, (-1,), 10)
        assert got == L({}, 10)
        assert cert.tuples == ()

    def test_inverse_factor(self):
        cfg = AlgebraConfig(1)
        prod = product_of(cfg, [(1, -1)])
        got, _ = coefficient_of(prod, (-2,), 12)
        assert got == L(oracle_euler(2, 12), 12)

    def test_empty_product_is_identity(self):
        cfg = AlgebraConfig(2)
        prod = FactorProduct(cfg, ())
        got, cert = coefficient_of(prod, (0, 0), 6)
        assert got == L({0: 1}, 6)
        got, cert = coefficient_of(prod, (1, 0), 6)
        assert got.is_zero() and not cert.feasible


class TestAgainstElementProducts:
    """Certificates against literal finite products multiplied out exactly.
    Every coefficient of E(w^+-1)'s finite product of depth d is frozen below
    q^(2d+1), and the phases here are nonnegative, so depth d is exact mod
    q^P once 2d + 1 >= P; depth d + 2 checks that it has frozen."""

    def test_same_site_square(self):
        # E(w) E(w) expanded two ways: certificates vs normal-ordered products
        cfg = AlgebraConfig(1)
        prod = product_of(cfg, [(1, 1), (1, 1)])
        for depth in (4, 6):
            el = finite_qexp(Element.generator(cfg, 1), depth)
            el = el * el
            for m in range(4):
                got, _ = coefficient_of(prod, (m,), 8)
                assert got == L(el.coefficient((m,)).coeffs, 8), (depth, m)

    def test_adjacent_sites_mixed(self):
        cfg = AlgebraConfig(2)
        prod = product_of(cfg, [(2, 1), (1, -1)])
        for depth in (3, 5):
            e2 = finite_qexp(Element.generator(cfg, 2), depth)
            e1 = finite_qexp(Element.generator(cfg, 1, -1), depth)
            el = e2 * e1
            for a in range(-2, 1):
                for b in range(0, 3):
                    got, _ = coefficient_of(prod, (a, b), 7)
                    assert got == L(el.coefficient((a, b)).coeffs, 7), (depth, a, b)


SEVEN_LHS = [(2, 1), (1, -1), (1, 1), (2, 1)]
SEVEN_RHS = [(1, -1), (2, 1), (1, 1)]


class TestSevenTermValues:
    def setup_method(self):
        self.cfg = AlgebraConfig(2)
        self.lhs = product_of(self.cfg, SEVEN_LHS)
        self.rhs = product_of(self.cfg, SEVEN_RHS)

    def test_constant_coefficient(self):
        want = L({0: 1, 2: 1, 4: 2}, 6)
        got_l, _ = coefficient_of(self.lhs, (0, 0), 6)
        got_r, _ = coefficient_of(self.rhs, (0, 0), 6)
        assert got_l == want and got_r == want

    def test_first_v_coefficient(self):
        want = L({1: -2, 3: -4, 5: -8}, 6)
        got_l, _ = coefficient_of(self.lhs, (0, 1), 6)
        got_r, _ = coefficient_of(self.rhs, (0, 1), 6)
        assert got_l == want and got_r == want
        assert str(want) == "-2*q^1 - 4*q^3 - 8*q^5 (mod q^6)"

    def test_certificate_contents(self):
        _, cert = coefficient_of(self.rhs, (0, 1), 6)
        assert cert.kernel_rank == 1
        assert cert.tuples == ((0, 1, 0), (1, 1, 1), (2, 1, 2))
        assert cert.max_index == 2
        assert cert.min_valuation == 1
        assert all(m > 0 for m in cert.minors)
        _, cert = coefficient_of(self.lhs, (0, 1), 6)
        assert cert.tuples == ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 1, 0))

    def test_full_window_equality(self):
        for target in window_targets(self.cfg, {1, 2}, 2):
            got_l, _ = coefficient_of(self.lhs, target, 10)
            got_r, _ = coefficient_of(self.rhs, target, 10)
            assert got_l == got_r, target

    def test_brute_force_tuple_sets(self):
        P = 8
        sites = [s for s, _ in SEVEN_LHS]
        signs = [e for _, e in SEVEN_LHS]
        for target in window_targets(self.cfg, {1, 2}, 2):
            _, cert = coefficient_of(self.lhs, target, P)
            tgt = {i + 1: e for i, e in enumerate(target) if e}
            blind = brute_force_tuples(signs, sites, tgt, 6)
            # blind search then the valuation filter Q < P
            keep = set()
            for ks in blind:
                phi = 0
                for i in range(len(ks)):
                    for j in range(i + 1, len(ks)):
                        if sites[i] == sites[j] + 1:
                            phi += -2 * signs[i] * signs[j] * ks[i] * ks[j]
                if sum(k * k for k in ks) + phi < P:
                    keep.add(ks)
            assert set(cert.tuples) == keep, target


class TestCertificateEdges:
    def test_uninvolved_site_must_be_zero(self):
        cfg = AlgebraConfig(3)
        prod = product_of(cfg, [(1, 1), (2, 1)])
        got, cert = coefficient_of(prod, (0, 0, 1), 8)
        assert got.is_zero() and not cert.feasible

    def test_indefinite_form_is_rejected(self):
        with pytest.raises(NoCertificate):
            ldl_of([[1, 2], [2, 1]])
        with pytest.raises(NoCertificate):
            ldl_of([[-1]])

    def test_sublevel_enumeration_matches_scan(self):
        # Q(y) = 2 y0^2 + 2 y0 y1 + 3 y1^2 - y0 + c, walked over y >= 0
        a = [[2, 1], [1, 3]]
        b = [-1, 0]
        form = _scaled_form(a)
        assert form.minors == (2, 5)

        def q(y0, y1):
            return 2 * y0 * y0 + 2 * y0 * y1 + 3 * y1 * y1 - y0

        for bound in (1, 5, 17):
            pts = sorted(_walk_sublevel(form, b, 0, bound))
            want = sorted(
                ((y0, y1), q(y0, y1))
                for y0 in range(0, 11)
                for y1 in range(0, 11)
                if q(y0, y1) < bound
            )
            assert pts == want

    def test_sublevel_walk_random_forms(self):
        # random positive definite A = B^T B + I of rank 1..3: A >= I, so every
        # y with Q(y) < bound has |y_i| < |b|_1 / 2 + sqrt(|b|_1^2 / 4 + bound - c)
        rng = random.Random(20261018)
        nonempty = 0
        for _ in range(60):
            r = rng.randint(1, 3)
            bmat = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            a = [
                [sum(row[i] * row[j] for row in bmat) + (i == j) for j in range(r)]
                for i in range(r)
            ]
            b = [rng.randint(-8, 8) for _ in range(r)]
            c = rng.randint(-6, 6)
            form = _scaled_form(a)

            def q(y):
                quad = sum(a[i][j] * y[i] * y[j] for i in range(r) for j in range(r))
                return quad + sum(bi * yi for bi, yi in zip(b, y)) + c

            # real minimum qmin = c - b^T A^-1 b / 4; A^-1 by Gauss-Jordan
            inv = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(r)]
                   for i, row in enumerate(a)]
            for col in range(r):
                piv = inv[col][col]
                inv[col] = [x / piv for x in inv[col]]
                for row in range(r):
                    if row != col and inv[row][col]:
                        f = inv[row][col]
                        inv[row] = [x - f * y for x, y in zip(inv[row], inv[col])]
            qmin = c - sum(
                b[i] * inv[i][r + j] * b[j] for i in range(r) for j in range(r)
            ) / 4
            floor_qmin = math.floor(qmin)
            assert _walk_sublevel(form, b, c, floor_qmin) == []
            assert _walk_sublevel(form, b, c, floor_qmin - rng.randint(1, 5)) == []
            for bound in (floor_qmin + 1, rng.randint(-5, 25)):
                b1 = sum(abs(x) for x in b)
                reach = int(b1 / 2 + math.sqrt(b1 * b1 / 4 + max(bound - c, 0))) + 1
                want = sorted(
                    (y, q(y)) for y in itertools.product(range(reach + 1), repeat=r)
                    if q(y) < bound
                )
                assert sorted(_walk_sublevel(form, b, c, bound)) == want, (a, b, c, bound)
                nonempty += bool(want)
        assert nonempty > 20

    def test_qpower_and_gamma(self):
        # E(-q^3 w) has x-coefficient  -q^3 * c_1
        cfg = AlgebraConfig(1)
        prod = FactorProduct(cfg, (QExpFactor(1, 1, gamma=-1, qpower=3),))
        got, _ = coefficient_of(prod, (1,), 10)
        assert got == L({e + 3: -c for e, c in oracle_euler(1, 7).items()}, 10)


def _oracle_truncated_mul(a, b, precision):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb < precision:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class TestCoefficientOracle:
    def test_random_products_against_blind_sum(self):
        # blind tuple search, valuation by letter sorting, and each term's
        # series by long division: nothing here shares the engine's code
        rng = random.Random(20261018)
        kmax = 6
        checked = nonzero = 0
        for _ in range(14):
            sites = rng.randint(2, 3)
            factors = tuple(
                QExpFactor(
                    rng.randint(1, sites),
                    rng.choice((1, -1)),
                    rng.choice((1, -1)),
                    rng.randint(-2, 3),
                )
                for _ in range(rng.randint(2, 5))
            )
            cfg = AlgebraConfig(sites)
            prod = FactorProduct(cfg, factors)
            precision = rng.randint(4, 24)
            support = sorted({f.site for f in factors})
            targets = window_targets(cfg, support, 2)
            for target in rng.sample(targets, min(3, len(targets))):
                got, cert = coefficient_of(prod, target, precision)
                tgt = {i + 1: e for i, e in enumerate(target) if e}
                blind = brute_force_tuples(
                    [f.exp for f in factors], [f.site for f in factors], tgt, kmax
                )
                want = {}
                kept = []
                for ks in blind:
                    _, phase = phase_by_sorting(
                        [(f.site, f.exp * k) for f, k in zip(factors, ks)]
                    )
                    shift = phase + sum(f.qpower * k for f, k in zip(factors, ks))
                    if sum(k * k for k in ks) + shift >= precision:
                        continue
                    kept.append(ks)
                    sign = 1
                    for f, k in zip(factors, ks):
                        sign *= f.gamma ** k
                    term = {shift: sign}
                    for k in ks:
                        term = _oracle_truncated_mul(
                            term, oracle_euler(k, precision - shift), precision
                        )
                    for e, c in term.items():
                        want[e] = want.get(e, 0) + c
                want = {e: c for e, c in want.items() if c}
                # the blind box must not be what stops the search
                assert all(max(ks) < kmax for ks in kept)
                assert list(cert.tuples) == sorted(kept), (factors, target)
                assert got.coeffs == want and got.precision == precision
                checked += 1
                nonzero += bool(want)
        assert checked >= 30 and nonzero >= 10


class TestPinnedCounts:
    def test_sigma_alg_kept_tuples(self, monkeypatch):
        # a deterministic work count: a pruning bug that drops tuples moves it
        kept = []
        inner = scripts.coefficient_of

        def counting(product, target, precision):
            got, cert = inner(product, target, precision)
            kept.append(len(cert.tuples))
            return got, cert

        monkeypatch.setattr(scripts, "coefficient_of", counting)
        assert catalog.verify_identity("sigma_alg").status == "PASS"
        assert sum(kept) == 5836

    def test_sigma_alg_walked_points(self, monkeypatch):
        # points the sublevel walk returns before the k >= 0 filter: pruning
        # inside the walk lowers this count and must leave kept tuples alone
        walked = []
        inner = verifier._walk_sublevel

        def counting(*args):
            points = inner(*args)
            walked.append(len(points))
            return points

        monkeypatch.setattr(verifier, "_walk_sublevel", counting)
        assert catalog.verify_identity("sigma_alg").status == "PASS"
        assert sum(walked) == 33828


U_V_WINDOW = 3


class TestExactEngine:
    def setup_method(self):
        self.cfg = AlgebraConfig(2)
        self.u = Element.generator(self.cfg, 1)
        self.v = Element.generator(self.cfg, 2)

    def test_product_rule_same_phase(self):
        # E(u) E(v) = E(u + v)   (u v = q^2 v u)
        lhs, _ = exact_window_map([self.u, self.v], U_V_WINDOW)
        rhs, _ = exact_window_map([self.u + self.v], U_V_WINDOW)
        targets = set(lhs) | set(rhs)
        for t in sorted(targets):
            a = lhs.get(t)
            b = rhs.get(t)
            assert a is not None and b is not None and a == b, t

    def test_product_rule_uv_value(self):
        lhs, _ = exact_window_map([self.u, self.v], U_V_WINDOW)
        got = lhs[(1, 1)].to_rational_q()
        assert got == RationalQ((0, 0, 1), (1, 0, -2, 0, 1))  # q^2/(1-q^2)^2

    def test_reversed_product_rule(self):
        # E(v) E(u) = E(u + v - q^-1 u v)
        z = self.u + self.v - (self.v * self.u).scale(L({1: 1}))
        lhs, _ = exact_window_map([self.v, self.u], U_V_WINDOW)
        rhs, _ = exact_window_map([z], U_V_WINDOW)
        for t in sorted(set(lhs) | set(rhs)):
            assert lhs.get(t, None) == rhs.get(t, None), t

    def test_reversed_uv_value(self):
        lhs, _ = exact_window_map([self.v, self.u], U_V_WINDOW)
        got = lhs[(1, 1)].to_rational_q()
        assert got == RationalQ((1,), (1, 0, -2, 0, 1))  # 1/(1-q^2)^2

    def test_three_factor_splitting(self):
        # E(v) E(u) = E(u) E(-q v u) E(v)
        m = (self.v * self.u).scale(L({1: -1}))
        lhs, _ = exact_window_map([self.v, self.u], U_V_WINDOW)
        rhs, _ = exact_window_map([self.u, m, self.v], U_V_WINDOW)
        for t in sorted(set(lhs) | set(rhs)):
            assert lhs.get(t, None) == rhs.get(t, None), t

    def test_cross_engine_agreement(self):
        exact, _ = exact_window_map([self.u, self.v], 2)
        prod = product_of(self.cfg, [(1, 1), (2, 1)])
        P = 9
        for t, frac in sorted(exact.items()):
            trunc, _ = coefficient_of(prod, t, P)
            assert trunc == expand(frac, P), t

    def test_negative_exponent_rejected(self):
        with pytest.raises(InfiniteSupport):
            exact_window_map([Element.generator(self.cfg, 1, -1)], 2)

    def test_truncated_coefficient_rejected(self):
        with pytest.raises(InvalidParams):
            exact_window_map([Element(self.cfg, {(1, 0): L({0: 1}, 5)})], 2)

    def test_max_order_reported(self):
        _, k = exact_window_map([self.u + self.v], 2)
        assert k == 4  # (u+v)^4 can still land inside the 2-window box


def _in_box(el, window):
    return Element(el.config, {v: c for v, c in el.terms.items() if max(v) <= window})


class TestRuleCrossRepresentation:
    """The exact-rational tables for the three product rules agree with a
    fully independent computation: the literal finite product of every
    factor, multiplied out exactly and cut to the window (all exponents are
    nonnegative and only grow, so cutting after each product is sound)."""

    def setup_method(self):
        self.cfg = AlgebraConfig(2)
        self.u = Element.generator(self.cfg, 1)
        self.v = Element.generator(self.cfg, 2)

    def _finite(self, args, depth, window):
        acc = Element.identity(self.cfg)
        for arg in args:
            acc = _in_box(acc * _in_box(finite_qexp(arg, depth), window), window)
        return acc

    @pytest.mark.parametrize("window,precision", [(2, 12)])
    def test_all_three_rules(self, window, precision):
        u, v = self.u, self.v
        vu_neg_q = (v * u).scale(L({1: -1}))
        z = u + v - (v * u).scale(L({1: 1}))
        rules = [
            ([u, v], [u + v]),
            ([v, u], [z]),
            ([v, u], [u, vu_neg_q, v]),
        ]
        # arguments with q^-1 phases need more factors than precision / 2;
        # the depth is certified by depth + 2 agreeing with it
        depth = precision // 2 + 2 * window
        targets = window_targets(self.cfg, (1, 2), {1: (0, window), 2: (0, window)})
        for lhs_args, rhs_args in rules:
            exact_lhs, _ = exact_window_map(lhs_args, window)
            exact_rhs, _ = exact_window_map(rhs_args, window)
            for d in (depth, depth + 2):
                fin_lhs = self._finite(lhs_args, d, window)
                fin_rhs = self._finite(rhs_args, d, window)
                for target in targets:
                    want = expand(exact_lhs[target], precision)
                    assert expand(exact_rhs[target], precision) == want
                    assert L(fin_lhs.coefficient(target).coeffs, precision) == want, (d, target)
                    assert L(fin_rhs.coefficient(target).coeffs, precision) == want, (d, target)


class TestScalingGrading:
    """Scaling the arguments of E(u)E(v) = E(u+v) by a central scalar grades
    the identity by total series order: with t a distant commuting generator
    standing in for the scalar, every surviving monomial has t-degree equal
    to its u-degree plus v-degree, and the graded coefficients equal the
    ungraded ones."""

    def test_mult1_grading(self):
        window = 4
        big = AlgebraConfig(4)
        tu = Element(big, {(1, 0, 0, 1): L.one()})
        tv = Element(big, {(0, 1, 0, 1): L.one()})
        lhs, _ = exact_window_map([tu, tv], window)
        rhs, _ = exact_window_map([tu + tv], window)
        assert lhs.keys() == rhs.keys()
        for vec, coeff in lhs.items():
            a, b, zero, t = vec
            assert zero == 0 and t == a + b  # homogeneous in the scalar
            assert coeff == rhs[vec], vec

        small = AlgebraConfig(2)
        flat, _ = exact_window_map(
            [Element.generator(small, 1), Element.generator(small, 2)], window
        )
        graded = {(a, b, 0, a + b): c for (a, b), c in flat.items() if a + b <= window}
        assert graded.keys() == lhs.keys()
        for vec, coeff in graded.items():
            assert lhs[vec] == coeff, vec


class TestSiteEmbedding:
    """A relation instance at interior site n of a longer chain has exactly
    the coefficient table of the same relation on the minimal two-site
    chain: untouched sites do not leak into the comparison."""

    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_four_site_reduction(self, shift):
        # E(w_{n+1}) E(w_n^-1) E(w_n) E(w_{n+1}) on sites (n, n+1) = (1+shift, 2+shift)
        small = AlgebraConfig(2)
        big = AlgebraConfig(4)
        base = [(2, 1), (1, -1), (1, 1), (2, 1)]
        small_prod = product_of(small, base)
        big_prod = product_of(big, [(s + shift, e) for s, e in base])
        precision = 10
        for target in window_targets(small, (1, 2), 2):
            a, b = target
            big_target = [0] * 4
            big_target[shift] = a
            big_target[shift + 1] = b
            got, got_cert = coefficient_of(big_prod, tuple(big_target), precision)
            want, want_cert = coefficient_of(small_prod, target, precision)
            assert got == want
            assert got_cert.tuples == want_cert.tuples
