"""Certificate-backed truncated coefficients and the exact window engine."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qtorus.algebra import Element, monomial_label, mul_terms
from qtorus.errors import InfiniteSupport, InvalidParams, NoCertificate
from qtorus.scripts import _sigma_sides, braid_script, sigma_script1, sigma_script2
from qtorus.series import LaurentSeries
from qtorus.verifier import (
    ProductCertificate,
    exact_window_map,
    product_coefficients,
    window_targets,
)
from qtorus.verifier import _scaled_form, _walk_levels, _walk_sublevel
from qtorus.words import B, C, ExpLetter, S, rel1, render_word

import qtorus.catalog as catalog
import qtorus.qexp as qexp
import qtorus.verifier as verifier
from oracles import (
    blind_buckets,
    blind_coefficient,
    blind_kept,
    blind_tuples_by_target,
    exact_window_map_by_elements,
    finite_qexp,
    longdiv_expand,
    minimiser,
    naive_poly_mul,
    oracle_euler,
    rational_equal,
    rational_solve,
    series_of,
    target_key,
    truncated_mul,
    valuation,
)

L = LaurentSeries


def word_of(letters):
    """The word of s-letters for a list of (site, sign) pairs."""
    return tuple(S(site, sign) for site, sign in letters)


def particular_of(cert):
    """The target's particular solution on the collapsed units, as
    ``cert.product.firsts`` lays it out: e * T_i at each site's first unit
    index f, 0 elsewhere."""
    vec = [0] * (len(cert.product.factors) - len(cert.product.pairs))
    for f, e, i in cert.product.firsts:
        vec[f] = e * cert.exponents[i]
    return tuple(vec)


def walk_y(a, b, c, bound, sides=()):
    """Sorted (y, Q(y)) over y >= 0 with  Q(y) = y^T a y + b^T y + c < bound
    and every side constraint  p + sum coeff * y_i >= 0  of `sides`, a list
    of ``(p, [(i, coeff), ...])``, from the engine's walk in its k layout:
    y_i is k[i], side s is k[r + s], and each coordinate outside `sides`
    gets a side of its own with p = 0 and coeff +1, which y_i >= 0 always
    meets.  The walk's centre lam*y* and headroom lam*(bound - qmin) come
    from the minimiser y* = -a^-1 b / 2 solved over the rationals, and must
    be integers.  Checks that each side's entry of k holds  p + sum coeff * y."""
    r = len(b)
    start = [0] * r
    side_of = {}
    for p, coords in sides:
        for i, coeff in coords:
            side_of[i] = (len(start), coeff)
        start.append(p)
    for i in range(r):
        if i not in side_of:
            side_of[i] = (len(start), 1)
            start.append(0)
    levels, _ = _walk_levels([(i, *side_of[i]) for i in range(r)])
    form = _scaled_form(a, r)
    y_star, qmin = minimiser(a, b, c)
    centre = [form.lam * y for y in y_star]
    headroom = form.lam * (bound - qmin)
    assert all(x.denominator == 1 for x in centre + [headroom])
    points = []
    walk = _walk_sublevel(form, levels, start, [int(x) for x in centre], int(headroom), bound)
    for k, value in walk:
        y = k[:r]
        sums = list(start)
        for i, (first, coeff) in side_of.items():
            sums[first] += coeff * y[i]
        assert list(k[r:]) == sums[r:], (k, start)
        points.append((y, value))
    return sorted(points)


class TestSingleFactors:
    def test_one_factor_reproduces_series_coefficients(self):
        word = word_of([(1, 1)])
        for k in range(4):
            got, cert = next(product_coefficients(word, 1, [(k,)], 10))
            assert got == L(oracle_euler(k, 10), 10)
            assert cert.tuples == ((k,),)
        got, cert = next(product_coefficients(word, 1, [(-1,)], 10))
        assert got == L({}, 10)
        assert cert.tuples == ()

    def test_inverse_factor(self):
        got, _ = next(product_coefficients(word_of([(1, -1)]), 1, [(-2,)], 12))
        assert got == L(oracle_euler(2, 12), 12)

    def test_empty_product_is_identity(self):
        got, cert = next(product_coefficients((), 2, [(0, 0)], 6))
        assert got == L({0: 1}, 6)
        got, cert = next(product_coefficients((), 2, [(1, 0)], 6))
        assert got.is_zero() and cert.reason == "outside"


class TestAgainstElementProducts:
    """Certificates against literal finite products multiplied out exactly.
    Every coefficient of E(w^+-1)'s finite product of depth d is frozen below
    q^(2d+1), and the phases here are nonnegative, so depth d is exact mod
    q^P once 2d + 1 >= P; depth d + 2 checks that it has frozen."""

    def test_same_site_square(self):
        # E(w) E(w) expanded two ways: certificates vs normal-ordered products
        sites = 1
        word = word_of([(1, 1), (1, 1)])
        for depth in (4, 6):
            el = finite_qexp(Element.generator(sites, 1), depth)
            el = el * el
            for m in range(4):
                got, _ = next(product_coefficients(word, 1, [(m,)], 8))
                assert got == L(el.terms.get((m,), {}), 8), (depth, m)

    def test_adjacent_sites_mixed(self):
        sites = 2
        word = word_of([(2, 1), (1, -1)])
        for depth in (3, 5):
            e2 = finite_qexp(Element.generator(sites, 2), depth)
            e1 = finite_qexp(Element.generator(sites, 1, -1), depth)
            el = e2 * e1
            for a in range(-2, 1):
                for b in range(0, 3):
                    got, _ = next(product_coefficients(word, 2, [(a, b)], 7))
                    assert got == L(el.terms.get((a, b), {}), 7), (depth, a, b)


SEVEN_LHS = [(2, 1), (1, -1), (1, 1), (2, 1)]
SEVEN_RHS = [(1, -1), (2, 1), (1, 1)]


class TestSevenTermValues:
    def setup_method(self):
        self.lhs = word_of(SEVEN_LHS)
        self.rhs = word_of(SEVEN_RHS)

    def test_constant_coefficient(self):
        want = L({0: 1, 2: 1, 4: 2}, 6)
        got_l, _ = next(product_coefficients(self.lhs, 2, [(0, 0)], 6))
        got_r, _ = next(product_coefficients(self.rhs, 2, [(0, 0)], 6))
        assert got_l == want and got_r == want

    def test_first_v_coefficient(self):
        want = L({1: -2, 3: -4, 5: -8}, 6)
        got_l, _ = next(product_coefficients(self.lhs, 2, [(0, 1)], 6))
        got_r, _ = next(product_coefficients(self.rhs, 2, [(0, 1)], 6))
        assert got_l == want and got_r == want
        assert str(want) == "-2*q^1 - 4*q^3 - 8*q^5 (mod q^6)"

    def test_certificate_contents(self):
        _, cert = next(product_coefficients(self.rhs, 2, [(0, 1)], 6))
        assert cert.product.kernel_rank == 1
        assert cert.tuples == ((0, 1, 0), (1, 1, 1), (2, 1, 2))
        assert cert.max_index == 2
        assert cert.min_valuation == 1
        assert all(m > 0 for m in cert.product.minors)
        _, cert = next(product_coefficients(self.lhs, 2, [(0, 1)], 6))
        assert cert.tuples == ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 1, 0))

    def test_full_window_equality(self):
        for target in window_targets(2, {1, 2}, 2):
            got_l, _ = next(product_coefficients(self.lhs, 2, [target], 10))
            got_r, _ = next(product_coefficients(self.rhs, 2, [target], 10))
            assert got_l == got_r, target

    def test_brute_force_tuple_sets(self):
        P = 8
        buckets = blind_buckets(self.lhs, 6)
        for target in window_targets(2, {1, 2}, 2):
            _, cert = next(product_coefficients(self.lhs, 2, [target], P))
            # blind search then the valuation filter Q < P, by letter sorting
            keep = {ks for ks, _ in blind_kept(self.lhs, buckets, target, P)}
            assert set(cert.tuples) == keep, target


class TestWordInput:
    """The engine reads a word of s-letters on a chain of `sites` sites and
    refuses anything else with InvalidParams, before any target."""

    @pytest.mark.parametrize(
        "word",
        [
            (S(1, 1), B(1)),
            (C(1), S(2, -1)),
            (ExpLetter("u", Element.generator(2, 1)),),
            (S(1, 1), S(3, -1)),
        ],
        ids=["b_letter", "c_letter", "exp_letter", "beyond_sites"],
    )
    def test_rejects_a_letter(self, word):
        with pytest.raises(InvalidParams):
            next(product_coefficients(word, 2, [(0, 0)], 6))
        with pytest.raises(InvalidParams):
            list(product_coefficients(word, 2, [], 6))

    @pytest.mark.parametrize("target", [(0,), (0, 0, 0)], ids=["short", "long"])
    def test_rejects_a_target_of_the_wrong_length(self, target):
        word = word_of([(1, 1), (2, -1)])
        with pytest.raises(InvalidParams):
            next(product_coefficients(word, 2, [target], 6))
        calls = product_coefficients(word, 2, [(0, 0), target], 6)
        next(calls)
        with pytest.raises(InvalidParams):
            next(calls)

    @pytest.mark.parametrize("support", [(0,), (3,), (1, 3)])
    def test_window_targets_rejects_a_site_off_the_chain(self, support):
        with pytest.raises(InvalidParams):
            window_targets(2, support, 1)

    def test_rejects_a_negative_window(self):
        with pytest.raises(InvalidParams, match="window"):
            window_targets(2, (1,), -1)
        with pytest.raises(InvalidParams, match="window"):
            exact_window_map([Element.generator(2, 1)], -1)

    @pytest.mark.parametrize("precision", [0, -3])
    def test_rejects_a_precision_below_one(self, precision):
        word = word_of([(1, 1), (1, -1)])
        with pytest.raises(InvalidParams, match="precision"):
            next(product_coefficients(word, 1, [(0,)], precision))
        with pytest.raises(InvalidParams, match="precision"):
            list(product_coefficients(word, 1, [], precision))


class TestCertificateEdges:
    def test_uninvolved_site_must_be_zero(self):
        got, cert = next(product_coefficients(word_of([(1, 1), (2, 1)]), 3, [(0, 0, 1)], 8))
        assert got.is_zero() and cert.reason == "outside"

    def test_indefinite_form_is_rejected(self):
        with pytest.raises(NoCertificate, match="leading minor 2 is -3"):
            _scaled_form([[1, 2], [2, 1]], 2)
        with pytest.raises(NoCertificate, match="leading minor 1 is -1"):
            _scaled_form([[-1]], 1)

    def test_product_with_a_singular_form_is_refused(self):
        # the collapsed form of s2- s1+ s1- s1+ s2- s1+ s2- s1- s1- s2- (one
        # pair, collapsed kernel rank 7) has a zero seventh leading minor:
        # the call raises before it yields any target
        word = word_of(
            [(2, -1), (1, 1), (1, -1), (1, 1), (2, -1), (1, 1), (2, -1), (1, -1), (1, -1), (2, -1)]
        )
        calls = product_coefficients(word, 2, window_targets(2, (1, 2), 1), 8)
        with pytest.raises(NoCertificate, match=r"leading minor 7 is 0\)"):
            next(calls)

    def test_sublevel_enumeration_matches_scan(self):
        # Q(y) = 2 y0^2 + 2 y0 y1 + 3 y1^2 - y0 + c, walked over y >= 0
        a = [[2, 1], [1, 3]]
        b = [-1, 0]
        assert _scaled_form(a, 2).minors == (2, 5)

        def q(y0, y1):
            return 2 * y0 * y0 + 2 * y0 * y1 + 3 * y1 * y1 - y0

        for bound in (1, 5, 17):
            pts = walk_y(a, b, 0, bound)
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

            def q(y):
                quad = sum(a[i][j] * y[i] * y[j] for i in range(r) for j in range(r))
                return quad + sum(bi * yi for bi, yi in zip(b, y)) + c

            # real minimum qmin = c - b^T A^-1 b / 4, with A^-1 b by Gauss-Jordan
            _, qmin = minimiser(a, b, c)
            floor_qmin = math.floor(qmin)
            assert walk_y(a, b, c, floor_qmin) == []
            assert walk_y(a, b, c, floor_qmin - rng.randint(1, 5)) == []
            for bound in (floor_qmin + 1, rng.randint(-5, 25)):
                b1 = sum(abs(x) for x in b)
                reach = int(b1 / 2 + math.sqrt(b1 * b1 / 4 + max(bound - c, 0))) + 1
                want = sorted(
                    (y, q(y)) for y in itertools.product(range(reach + 1), repeat=r)
                    if q(y) < bound
                )
                assert walk_y(a, b, c, bound) == want, (a, b, c, bound)
                nonempty += bool(want)
        assert nonempty > 20

    def test_sublevel_walk_side_constraints(self):
        # random positive definite A = B^T B + I of rank 1..3 and disjoint
        # side constraints p + sum coeff * y_i >= 0 with coeff = +-1, against
        # a scan of the box that applies them point by point
        rng = random.Random(20261019)
        cut = 0
        for _ in range(60):
            r = rng.randint(1, 3)
            bmat = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            a = [
                [sum(row[i] * row[j] for row in bmat) + (i == j) for j in range(r)]
                for i in range(r)
            ]
            b = [rng.randint(-8, 8) for _ in range(r)]
            c = rng.randint(-6, 6)
            coords = list(range(r))
            rng.shuffle(coords)
            sides = []
            while coords:
                take = rng.randint(1, len(coords))
                group, coords = coords[:take], coords[take:]
                sides.append((rng.randint(-3, 4), [(i, rng.choice((1, -1))) for i in group]))

            def q(y):
                quad = sum(a[i][j] * y[i] * y[j] for i in range(r) for j in range(r))
                return quad + sum(bi * yi for bi, yi in zip(b, y)) + c

            bound = rng.randint(1, 30)
            b1 = sum(abs(x) for x in b)
            reach = int(b1 / 2 + math.sqrt(b1 * b1 / 4 + max(bound - c, 0))) + 1
            inside = [
                (y, q(y)) for y in itertools.product(range(reach + 1), repeat=r)
                if q(y) < bound
            ]
            want = sorted(
                (y, v) for y, v in inside
                if all(p + sum(cf * y[i] for i, cf in group) >= 0 for p, group in sides)
            )
            assert walk_y(a, b, c, bound, sides) == want, (
                a, b, c, bound, sides,
            )
            cut += len(want) < len(inside)
        assert cut > 20


def _seeded_products(rng):
    """The oracle's random words of s-letters with their chain's site count,
    precision, a window-2 box of targets each and a sample of three of them,
    drawn from `rng` in turn."""
    for _ in range(14):
        sites = rng.randint(2, 3)
        word = tuple(
            S(rng.randint(1, sites), rng.choice((1, -1))) for _ in range(rng.randint(2, 5))
        )
        precision = rng.randint(4, 24)
        targets = window_targets(sites, sorted({f.site for f in word}), 2)
        yield word, sites, precision, targets, rng.sample(targets, min(3, len(targets)))


def _collapsed(factors):
    """The factors with each adjacent pair E(w^e) E(w^-e), taken greedily
    from the left, replaced by its first member: the collapsed product,
    whose index at a pair is the pair's net m."""
    units, i = [], 0
    while i < len(factors):
        f = factors[i]
        units.append(f)
        pair = i + 1 < len(factors) and factors[i + 1] == S(f.site, -f.sign)
        i += 2 if pair else 1
    return tuple(units)


def _fibre_minimum(factors, target):
    """(y*, qmin, p) for the fibre of `target`, as fractions, built without
    the engine's maps: the form by polarising the valuation that letter
    sorting gives; at each site, p = eps_first * T_s at its first factor
    index, and a kernel basis vector per other index j, 1 at j and
    -eps_first * eps_j at the first; then y* and qmin by the Fraction
    Gauss-Jordan solve."""
    n = len(factors)

    def form(u, v):
        both = [x + y for x, y in zip(u, v)]
        return Fraction(valuation(factors, both) - valuation(factors, u) - valuation(factors, v), 2)

    basis, particular = [], [0] * n
    for site in sorted({f.site for f in factors}):
        idxs = [i for i, f in enumerate(factors) if f.site == site]
        first = idxs[0]
        particular[first] = factors[first].sign * target[site - 1]
        for j in idxs[1:]:
            vec = [int(i == j) for i in range(n)]
            vec[first] = -factors[first].sign * factors[j].sign
            basis.append(vec)
    a = [[form(u, v) for v in basis] for u in basis]
    b = [2 * form(u, particular) for u in basis]
    return *minimiser(a, b, valuation(factors, particular)), particular


class TestCoefficientOracle:
    def test_random_products_against_blind_sum(self):
        rng = random.Random(20261018)
        checked = nonzero = 0
        for factors, sites, precision, _, sample in _seeded_products(rng):
            buckets = blind_buckets(factors, 6)
            for target in sample:
                got, cert = next(product_coefficients(factors, sites, [target], precision))
                kept, want = blind_coefficient(factors, buckets, target, precision, 6)
                assert list(cert.tuples) == kept, (factors, target)
                assert got.coeffs == want and got.precision == precision
                checked += 1
                nonzero += bool(want)
        assert checked >= 30 and nonzero >= 10

    def test_fibre_maps_give_lam_qmin(self, monkeypatch):
        # the per-product maps against the fibre minimum solved over the
        # rationals, on the seeded products, products of one factor per site
        # (kernel rank 0) and the empty product; a target with qmin >= P
        # must have no tuple in a blind search
        maps = []
        inner = verifier._scaled_form

        def capturing(full, rank):
            form = inner(full, rank)
            maps.append((form.lam, form.centre_map, form.h_terms))
            return form

        monkeypatch.setattr(verifier, "_scaled_form", capturing)
        cases = [case[:4] for case in _seeded_products(random.Random(20261018))]
        for sites, letters in ((2, [(1, 1), (2, -1)]), (3, [(2, -1), (1, 1), (3, 1)]), (2, [])):
            support = {site for site, _ in letters}
            cases.append((word_of(letters), sites, 6, window_targets(sites, support, 2)))
        settled = below = collapsed = 0
        for factors, sites, precision, targets in cases:
            units = _collapsed(factors)
            support = sorted({f.site for f in factors})
            maps.clear()
            certs = {
                cert.exponents: cert for _, cert in product_coefficients(factors, sites, targets, precision)
            }
            # one elimination per call, of the collapsed form
            assert len(maps) == 1
            (lam, centre_map, h_terms), = maps
            buckets = blind_buckets(factors, 6)
            for target in targets:
                # the maps against the collapsed product's fibre minimum
                y_star, qmin, particular = _fibre_minimum(units, target)
                assert list(particular_of(certs[target])) == particular
                pvec = [particular[[f.site for f in units].index(s)] for s in support]
                assert sum(h * pvec[s] * pvec[t] for s, t, h in h_terms) == lam * qmin
                centre = [sum(x * p for x, p in zip(row, pvec)) for row in centre_map]
                assert centre == [lam * y for y in y_star], target
                collapsed += len(units) < len(factors)
                if qmin < precision:
                    below += 1
                    continue
                assert not certs[target].tuples
                kept, want = blind_coefficient(factors, buckets, target, precision, 6)
                assert kept == [] and want == {}, (factors, target)
                settled += 1
        assert settled >= 50 and below >= 400 and collapsed >= 80

    @pytest.mark.parametrize(
        "sites,window,letters",
        [
            # site 3 is E(w3^-1) .. E(w3) E(w3^-1); sites 1 and 2 have one factor
            (3, 1, [(3, -1), (2, 1), (3, 1), (1, 1), (3, -1)]),
            # site 2's signs (+, +, -) clamp a level above its last coordinate
            (2, 2, [(2, 1), (1, -1), (2, 1), (1, 1), (2, -1)]),
            # site 1's factors share one sign; site 2 has one factor E(w2^-1)
            (2, 2, [(1, 1), (2, -1), (1, 1), (1, 1)]),
        ],
    )
    def test_many_factor_sites_against_blind_sum(self, monkeypatch, sites, window, letters):
        factors = word_of(letters)
        single = {s for s in range(1, sites + 1) if [f.site for f in factors].count(s) == 1}
        walks = []
        inner = verifier._walk_sublevel

        def counting(*args):
            walks.append(args)
            return inner(*args)

        monkeypatch.setattr(verifier, "_walk_sublevel", counting)
        precision = 10
        settled = nonzero = 0
        buckets = blind_buckets(factors, 5)
        for target in window_targets(sites, range(1, sites + 1), window):
            walks.clear()
            got, cert = next(product_coefficients(factors, sites, [target], precision))
            kept, want = blind_coefficient(factors, buckets, target, precision, 5)
            assert list(cert.tuples) == kept, target
            assert got.coeffs == want and got.precision == precision
            if any(f.sign * target[f.site - 1] < 0 for f in factors if f.site in single):
                # no tuple, known before any walk; still a feasible certificate
                assert cert.reason == "one_sign" and not cert.tuples and not walks
                settled += 1
            nonzero += bool(want)
        assert nonzero >= 5 and bool(settled) == bool(single)


def _seeded_pair_products(rng):
    """Words with adjacent inverse pairs, with their chain's site count and
    precision: first the
    three shapes the collapse must handle, then products of 0-2 random
    letters with 1-3 adjacent inverse pairs inserted at random places, at
    most 6 factors, drawn from `rng`."""
    shapes = [
        # a pair at site 1's first index, then a single factor there
        (2, [(1, 1), (1, -1), (2, 1), (1, 1)]),
        # site 1 holds only a pair; site 2's two factors are not adjacent
        (2, [(2, 1), (1, -1), (1, 1), (2, -1)]),
        # two pairs back to back on site 1
        (2, [(2, -1), (1, 1), (1, -1), (1, 1), (1, -1)]),
    ]
    for sites, letters in shapes:
        yield word_of(letters), sites, 10
    for _ in range(40):
        sites = rng.randint(1, 3)
        letters = [(rng.randint(1, sites), rng.choice((1, -1))) for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(1, 3)):
            if len(letters) > 4:
                break
            site, exp = rng.randint(1, sites), rng.choice((1, -1))
            at = rng.randint(0, len(letters))
            letters[at:at] = [(site, exp), (site, -exp)]
        yield word_of(letters), sites, rng.randint(4, 10)


class TestTripleProductCollapse:
    """The collapse of each adjacent pair E(w^e) E(w^-e) into one factor
    with a signed index, checked against the blind oracle."""

    def test_pair_coefficient_is_the_triple_product(self):
        # the coefficient of w^(e m) in E(w^e) E(w^-e), summed over the
        # blind box of (k_a, k_b) with c_k by long division (an entry above
        # 6 has valuation above 40), against (-1)^m q^(m^2) / (q^2;q^2)_inf,
        # whose factors (1 - q^2j) from j = 20 on start at q^40
        precision = 40
        den = [1]
        for j in range(1, 20):
            den = naive_poly_mul(den, [1] + [0] * (2 * j - 1) + [-1])
        inverse = longdiv_expand({0: 1}, {e: c for e, c in enumerate(den) if c}, precision)
        euler = {k: oracle_euler(k, precision) for k in range(9)}
        for eps in (1, -1):
            buckets = blind_tuples_by_target([eps, -eps], [1, 1], 8)
            for m in range(-6, 7):
                got = {}
                for ka, kb in buckets[target_key({1: eps * m})]:
                    term = truncated_mul(euler[ka], euler[kb], precision)
                    for e, c in term.items():
                        got[e] = got.get(e, 0) + c
                want = {
                    e + m * m: (-1) ** m * c for e, c in inverse.items() if e + m * m < precision
                }
                assert {e: c for e, c in got.items() if c} == want, (eps, m)

    def test_pair_range_against_its_definition(self):
        # the b a pair of net index m admits with `left` of the budget:
        # those whose extra valuation 2b(b + |m|) stays below it
        for m in range(-8, 9):
            for left in range(1, 201):
                want = [b for b in range(left) if 2 * b * (b + abs(m)) < left]
                assert list(verifier._pair_range(m, left)) == want, (m, left)

    def test_split_count_against_pair_entries(self):
        # the tuples over one collapsed point: each pair's entries
        # (k_a, k_b) with k_a - k_b = m, adding k_a^2 + k_b^2 - m^2 to the
        # valuation, scanned in a box; for every budget B the kept entries
        # (extra below B) and their largest entry against the engine's
        # closed count
        box = 12
        checked = 0
        for n, span in ((1, 6), (2, 3), (3, 2)):
            for ms in itertools.product(range(-span, span + 1), repeat=n):
                options = [
                    [(ka, ka - m) for ka in range(box) if 0 <= ka - m < box] for m in ms
                ]
                combos = []
                for combo in itertools.product(*options):
                    extra = sum(a * a + b * b - (a - b) ** 2 for a, b in combo)
                    combos.append((extra, max(max(pair) for pair in combo)))
                for budget in range(1, 65):
                    kept = [top for extra, top in combos if extra < budget]
                    assert max(kept) < box - 1
                    assert verifier._split(ms, budget) == (len(kept), max(kept)), (ms, budget)
                    checked += 1
        assert checked == 64 * (13 + 49 + 125)

    def test_random_products_with_pairs_against_blind_sum(self):
        rng = random.Random(20261021)
        products = with_pairs = targets_checked = walked = 0
        reasons = Counter()
        for factors, sites, precision in _seeded_pair_products(rng):
            targets = window_targets(sites, range(1, sites + 1), 2)
            try:
                got = list(product_coefficients(factors, sites, targets, precision))
            except NoCertificate:
                continue
            products += 1
            with_pairs += len(_collapsed(factors)) < len(factors)
            buckets = blind_buckets(factors, 5)
            for series, cert in got:
                target = cert.exponents
                kept, want = blind_coefficient(factors, buckets, target, precision, 5)
                assert series.coeffs == want and series.precision == precision
                assert cert.tuples == tuple(kept), (factors, target)
                assert cert.tuple_count == len(kept)
                assert cert.max_index == max((max(k) for k in kept), default=0)
                values = [valuation(factors, k) for k in kept]
                assert cert.min_valuation == min(values, default=None)
                assert cert.reason == _oracle_reason(factors, target, precision), target
                reasons[cert.reason, bool(kept)] += 1
                targets_checked += 1
                walked += bool(kept)
        assert products == with_pairs >= 40
        assert targets_checked >= 900 and walked >= 500
        # every reason, and walks that keep nothing
        assert set(reasons) == {
            ("outside", False), ("one_sign", False), ("qmin", False),
            ("walk", False), ("walk", True),
        }

    def test_product_with_a_singular_uncollapsed_form_is_certified(self):
        # the uncollapsed form of s1+ s1- s2+ s2+ s1+ s1+ s2+ s2+ has a zero
        # sixth leading minor, but on the orthant Q is at least its
        # collapsed form, which is positive definite: every coefficient of
        # the box against the blind sum
        word = word_of([(1, 1), (1, -1), (2, 1), (2, 1), (1, 1), (1, 1), (2, 1), (2, 1)])
        kmax, precision = 5, 8
        buckets = blind_buckets(word, kmax)
        got = list(product_coefficients(word, 2, window_targets(2, (1, 2), 2), precision))
        nonzero = top = 0
        for series, cert in got:
            target = cert.exponents
            kept, want = blind_coefficient(word, buckets, target, precision, kmax)
            assert series.coeffs == want and cert.tuples == tuple(kept), target
            assert cert.tuple_count == len(kept)
            nonzero += bool(want)
            top = max(top, cert.max_index)
        assert (len(got), nonzero, top) == (25, 15, 4) and top < kmax


def _oracle_reason(factors, target, precision):
    """The reason a certificate should give for `target`: a nonzero exponent
    off the product's sites, then e * T_s < 0 at a site whose factors all
    have sign e, then a fibre minimum of the collapsed product at least the
    precision, else a walk."""
    sites = {f.site for f in factors}
    if any(e and i + 1 not in sites for i, e in enumerate(target)):
        return "outside"
    for site in sites:
        signs = {f.sign for f in factors if f.site == site}
        if len(signs) == 1 and signs.pop() * target[site - 1] < 0:
            return "one_sign"
    return "qmin" if _fibre_minimum(_collapsed(factors), target)[1] >= precision else "walk"


class TestProductCoefficients:
    def test_window_matches_one_target_calls_with_one_setup(self, monkeypatch):
        # site 3 is outside the product, so the box mixes infeasible targets
        # with ones that keep tuples
        word = word_of([(2, 1), (1, -1), (1, 1), (2, 1)])
        targets = window_targets(3, (1, 2, 3), 1)
        want = [next(product_coefficients(word, 3, [t], 10)) for t in targets]
        setups = []
        inner = verifier._scaled_form

        def counting(full, rank):
            setups.append(full)
            return inner(full, rank)

        monkeypatch.setattr(verifier, "_scaled_form", counting)
        got = list(product_coefficients(word, 3, targets, 10))
        assert got == want
        # one elimination, of the collapsed form, though E(w1^-1) E(w1) is
        # an adjacent inverse pair
        assert len(setups) == 1
        certs = [cert for _, cert in got]
        assert any(c.reason == "outside" for c in certs) and any(c.tuples for c in certs)

    def test_each_reason_keeps_the_certificate_fields(self):
        # site 1 mixes signs and site 2 has one sign (+1 twice); site 3 is
        # outside the product
        word = word_of([(2, 1), (1, -1), (1, 1), (2, 1)])
        kept = ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 1, 0))
        # target: reason, particular on the units E(w2), E(w1^-1) (the
        # pair's net index) and E(w2), tuples, min_valuation
        cases = {
            (0, 1, 1): ("outside", (1, 0, 0), (), None),
            (0, -1, 0): ("one_sign", (-1, 0, 0), (), None),
            (-1, 2, 0): ("qmin", (2, 1, 0), (), None),
            (2, 0, 0): ("walk", (0, -2, 0), (), None),
            (0, 1, 0): ("walk", (1, 0, 0), kept, 1),
        }
        first = list(product_coefficients(word, 3, cases, 4))
        for target, (_, cert) in zip(cases, first, strict=True):
            reason, particular, tuples, min_valuation = cases[target]
            assert cert.reason == reason, target
            assert particular_of(cert) == particular and cert.tuples == tuples, target
            assert cert.min_valuation == min_valuation, target
            assert cert.exponents == target
        # whatever the reason, the product certificate describes the
        # product: its collapsed form on the units, whose unit 1 is a pair,
        # and the uncollapsed kernel rank
        assert first[0][1].product == ProductCertificate(
            ("E(w2)", "E(w1^-1)", "E(w1)", "E(w2)"), 4, ((2,),), (2,),
            ((1, -1, 0), (0, 1, 1)), (1,),
        )
        assert first[0][1].product.kernel_rank == 2
        # one shared product certificate per call, equal across calls
        second = list(product_coefficients(word, 3, cases, 4))
        assert len({id(cert.product) for _, cert in first}) == 1
        assert first[0][1].product == second[0][1].product
        assert first == second and hash(first[4][1]) == hash(second[4][1])
        with pytest.raises(AttributeError):
            first[4][1].tuples = ()


    @pytest.mark.parametrize(
        "letters",
        [
            # one factor per site: Q(k) = k1^2 + k2^2 + k3^2 - 2 k1 k2 - 2 k2 k3,
            # so k = (3, 3, 3) has valuation -9 and needs 13 terms at P = 4
            [(3, 1), (2, 1), (1, 1)],
            # site 1 splits its exponent over two factors: a walk of rank 1
            [(3, 1), (2, 1), (1, 1), (1, 1)],
        ],
    )
    def test_negative_valuations_grow_the_expansion(self, monkeypatch, letters):
        word = word_of(letters)
        precision = 4
        built = []
        inner = verifier.euler_expansion

        def recording(expansions, orders, size):
            before = set(expansions)
            dense = inner(expansions, orders, size)
            built.extend((key, len(expansions[key])) for key in expansions.keys() - before)
            return dense

        monkeypatch.setattr(verifier, "euler_expansion", recording)
        targets = window_targets(3, (1, 2, 3), 3)
        lowest = 0
        buckets = blind_buckets(word, 5)
        for got, cert in product_coefficients(word, 3, targets, precision):
            target = cert.exponents
            kept, want = blind_coefficient(word, buckets, target, precision, 5)
            assert list(cert.tuples) == kept, target
            assert got.coeffs == want and got.precision == precision, target
            if kept:
                lowest = min(lowest, cert.min_valuation)
        assert lowest <= -9
        # a multiset met again at a lower valuation than its expansion covers
        # is expanded again, longer; otherwise each is built once per call
        lengths = {}
        for orders, n in built:
            assert n > lengths.get(orders, 0), orders
            lengths[orders] = n
        assert len(built) > len(lengths)
        if len(letters) == 3:
            # expansions are in powers of q^2
            assert 2 * lengths[(3, 3, 3)] >= precision + 9


# sha256 of the distinct setup records of `_scaled_form`, one JSON list
# [minors, lam, di, li_cols, centre_map, h_terms] per line, sorted, over the
# products of every word pair the catalog compares at the defaults and of
# the probe and the seed-3 walk (12 distinct forms, each of its product's
# collapsed form); recorded as each call's last form while a product with
# an adjacent inverse pair was also set up uncollapsed, and that set as the
# uncollapsed forms of the products without a pair came from the Fraction
# LDL^T setup that the integer elimination replaced.  An unchanged lam keeps
# every integer of the walk.
SETUP_SHA256 = "aca3397e9550f8c4974f632141e6fb654817a56ea9fe6c51e90ead6fc5b8469e"


class TestScaledForm:
    def test_against_rational_oracle(self):
        # random positive definite A = X^T X + I of rank 0..8, bordered by an
        # integer B/2 and a symmetric C: the minors, lam, lam*D, lam*L and
        # the fibre maps against their definitions solved over the rationals
        def det(rows):
            return rational_solve(rows, [0] * len(rows))[0]

        rng = random.Random(20261020)
        grown = 0
        for r in range(9):
            for _ in range(8):
                width = rng.randint(0, 3)
                xmat = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
                a = [
                    [sum(row[i] * row[j] for row in xmat) + (i == j) for j in range(r)]
                    for i in range(r)
                ]
                half_b = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(r)]
                c = [[0] * width for _ in range(width)]
                for s in range(width):
                    for t in range(s, width):
                        c[s][t] = c[t][s] = rng.randint(-3, 3)
                full = [a[i] + half_b[i] for i in range(r)] + [
                    [row[s] for row in half_b] + c[s] for s in range(width)
                ]
                form = _scaled_form(full, r)
                # m_k, d_k = m_(k+1) / m_k, and L[j][k] as the leading k x k
                # block bordered by row j and column k over m_(k+1)
                minors = [int(det([row[:k] for row in a[:k]])) for k in range(1, r + 1)]
                d = [Fraction(m, below) for m, below in zip(minors, [1] + minors)]
                low = {
                    (j, k): det([row[: k + 1] for row in a[:k]] + [a[j][: k + 1]]) / minors[k]
                    for k in range(r)
                    for j in range(k + 1, r)
                }
                det_a = minors[-1] if minors else 1
                lam = 4 * det_a
                for x in d + list(low.values()):
                    lam = math.lcm(lam, x.denominator)
                assert form.minors == tuple(minors)
                assert form.lam == lam
                assert form.di == tuple(lam * x for x in d)
                assert form.li_cols == tuple(
                    tuple((j, lam * low[j, k]) for j in range(k + 1, r) if low[j, k])
                    for k in range(r)
                )
                grown += lam > 4 * det_a
                for _ in range(3):
                    p = [rng.randint(-4, 4) for _ in range(width)]
                    b = [2 * sum(x * y for x, y in zip(row, p)) for row in half_b]
                    y_star, qmin = minimiser(
                        a, b, sum(p[s] * c[s][t] * p[t] for s in range(width) for t in range(width))
                    )
                    centre = [sum(x * y for x, y in zip(row, p)) for row in form.centre_map]
                    assert centre == [lam * y for y in y_star]
                    assert sum(h * p[s] * p[t] for s, t, h in form.h_terms) == lam * qmin
        # on these forms the denominators of D and L raise lam above 4*det
        assert grown > 30

    def test_setup_data_is_pinned(self, monkeypatch):
        calls = []
        inner = verifier._scaled_form
        coefficients = verifier.product_coefficients

        def capturing(full, rank):
            form = inner(full, rank)
            calls[-1].append(
                json.dumps(
                    [
                        list(form.minors),
                        form.lam,
                        list(form.di),
                        [[list(pair) for pair in col] for col in form.li_cols],
                        [list(row) for row in form.centre_map],
                        [list(term) for term in form.h_terms],
                    ]
                )
            )
            return form

        def calling(word, sites, targets, precision):
            # each call's records: its one form's
            calls.append([])
            yield from coefficients(word, sites, targets, precision)

        monkeypatch.setattr(verifier, "_scaled_form", capturing)
        monkeypatch.setattr(catalog, "product_coefficients", calling)
        # the catalog sets up one side per symmetry class, so every side of
        # every word pair it compares is set up here directly (a form
        # depends on the product only, so no target is needed); the probe
        # and the walk set up each product they meet
        rel = rel1(1)
        braid = braid_script(1, 3)
        runs = [
            ([("", rel.lhs, rel.rhs)], 2),
            (catalog._chain_pairs(2), 2),
            (catalog._chain_pairs(6), 6),
            ([("", braid.start, braid.end)], 3),
            (_sigma_sides(2, 4), 4),
        ]
        for pairs, sites in runs:
            for _, lhs, rhs in pairs:
                for word in (lhs, rhs):
                    list(calling(word, sites, [], 10))
        for name in ("lattice_family2_probe", "rewrite_walk"):
            catalog.verify_identity(name, seed=3)
        assert all(len(records) == 1 for records in calls)
        lines = sorted({records[0] for records in calls})
        assert len(lines) == 12
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SETUP_SHA256


def _walks_and_certificates(monkeypatch, name, params):
    """The number of points of each sublevel walk and the certificate of
    each target of the catalog item `name`."""
    walked, certs = [], []
    walk = verifier._walk_sublevel
    coefficients = catalog.product_coefficients

    def counting_walk(*args):
        points = walk(*args)
        walked.append(len(points))
        return points

    def counting_coefficients(word, sites, targets, precision):
        for got, cert in coefficients(word, sites, targets, precision):
            certs.append(cert)
            yield got, cert

    monkeypatch.setattr(verifier, "_walk_sublevel", counting_walk)
    monkeypatch.setattr(catalog, "product_coefficients", counting_coefficients)
    assert catalog.verify_identity(name, **params).status == "PASS"
    return walked, certs


class TestPinnedCounts:
    def test_sigma_alg_kept_tuples(self, monkeypatch):
        # a deterministic work count: a pruning bug that drops tuples moves
        # it; read from the certificates' counts, as the catalog never
        # lists the tuples
        _, certs = _walks_and_certificates(monkeypatch, "sigma_alg", {})
        # the second pair is the first's mirrored inverse and is not
        # evaluated (5,836 when it was)
        assert sum(cert.tuple_count for cert in certs) == 2918

    def test_sigma_alg_walked_points(self, monkeypatch):
        # points the sublevel walk returns: it prunes k >= 0 on every index
        # but a collapsed pair's, so each one is a kept point (33,828 when
        # it filtered k_first after; 2,918, one per kept tuple, before
        # adjacent inverse pairs were collapsed)
        walked, _ = _walks_and_certificates(monkeypatch, "sigma_alg", {})
        assert sum(walked) == 1989

    @pytest.mark.parametrize(
        "name,params,tuples",
        [
            # 11,500 before sigma_alg's second pair shared the first's rows
            ("sigma_alg", {"window": 3}, 5750),
            ("braid_alg", {"precision": 32, "window": 3}, 5287),
        ],
    )
    def test_walked_points_are_kept_tuples(self, monkeypatch, name, params, tuples):
        # every walked point is kept, and the kept points split into the
        # uncollapsed tuples the walk found one by one before adjacent
        # inverse pairs were collapsed
        walked, certs = _walks_and_certificates(monkeypatch, name, params)
        assert sum(walked) == sum(len(cert.points) for cert in certs)
        assert sum(cert.tuple_count for cert in certs) == tuples

    @pytest.mark.parametrize(
        "name,params,points",
        [
            # 5,750 and 5,287, one point per kept tuple, before collapsing:
            # sigma_alg's 8-factor side has two adjacent inverse pairs and
            # braid_alg's evaluated side is three of them
            ("sigma_alg", {"window": 3}, 4239),
            ("braid_alg", {"precision": 32, "window": 3}, 355),
        ],
    )
    def test_walked_points_are_collapsed(self, monkeypatch, name, params, points):
        walked, _ = _walks_and_certificates(monkeypatch, name, params)
        assert sum(walked) == points

    @pytest.mark.parametrize(
        "name,params,passes",
        [
            ("sigma_alg", {"window": 3}, 326),
            ("braid_alg", {"precision": 32, "window": 3}, 45),
        ],
    )
    def test_running_sum_passes(self, monkeypatch, name, params, passes):
        # one pass per multiset of the singles' k expanded in a product
        # call, its parents included, as no catalog valuation is negative,
        # plus size - 1 passes per collapsed pair for the call's expansion
        # of 1/(q^2;q^2)_inf^pairs (437 and 198 before adjacent inverse
        # pairs were collapsed; 864 and 398 calls of the old whole-multiset
        # build, each of sum k passes over q-powers; 874 for sigma_alg while
        # both its pairs were evaluated)
        calls = []
        inner = qexp.divide_by_one_minus

        def counting(dense, part):
            calls.append(part)
            return inner(dense, part)

        monkeypatch.setattr(qexp, "divide_by_one_minus", counting)
        assert catalog.verify_identity(name, **params).status == "PASS"
        assert len(calls) == passes

    @pytest.mark.parametrize(
        "name,params,walks,empty",
        [
            # the ids keep the "walk" reasons counted while the uncollapsed
            # form settled targets: 442 and 1,264, of which 4 and 120 had a
            # collapsed fibre minimum at least P and were not walked
            pytest.param("sigma_alg", {}, 438, 22, id="params0-442"),
            pytest.param("sigma_alg", {"window": 3}, 1144, 286, id="params1-1264"),
            pytest.param("braid_alg", {"precision": 32, "window": 3}, 49, 0, id="braid_alg-P32-W3"),
        ],
    )
    def test_sigma_alg_walk_calls(self, monkeypatch, name, params, walks, empty):
        # targets with qmin(T) >= P, of the collapsed form, are settled
        # without a walk (900 and 3,136 walks when each target past the
        # one-sign test walked, 884 and 2,528 while both pairs were
        # evaluated), and each target with reason "walk" is walked once.
        # `empty` walks return no point: their fibre holds no lattice point
        # with Q < P although its real minimum lies below P
        walked, certs = _walks_and_certificates(monkeypatch, name, params)
        assert sum(cert.reason == "walk" for cert in certs) == len(walked) == walks
        assert walked.count(0) == empty

    def test_certificates_never_list_tuples_in_the_catalog(self, monkeypatch):
        # the catalog reads each certificate's count, so the lazy expansion
        # of the points into tuples never runs; reading `tuples` does
        def refuse(product, points):
            raise AssertionError("the catalog listed a certificate's tuples")

        monkeypatch.setattr(verifier, "_expand_points", refuse)
        assert catalog.verify_identity("braid_alg", precision=32, window=3).status == "PASS"
        _, cert = next(product_coefficients(word_of([(1, 1), (1, -1)]), 1, [(0,)], 4))
        with pytest.raises(AssertionError, match="listed"):
            cert.tuples


U_V_WINDOW = 3


class TestExactEngine:
    def setup_method(self):
        self.sites = 2
        self.u = Element.generator(self.sites, 1)
        self.v = Element.generator(self.sites, 2)

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
        got = lhs[(1, 1)].canonical()
        assert got == ((0, 0, 1), (1, 0, -2, 0, 1))  # q^2/(1-q^2)^2

    def test_reversed_product_rule(self):
        # E(v) E(u) = E(u + v - q^-1 u v)
        z = self.u + self.v - (self.v * self.u).scale(1)
        lhs, _ = exact_window_map([self.v, self.u], U_V_WINDOW)
        rhs, _ = exact_window_map([z], U_V_WINDOW)
        for t in sorted(set(lhs) | set(rhs)):
            assert lhs.get(t, None) == rhs.get(t, None), t

    def test_reversed_uv_value(self):
        lhs, _ = exact_window_map([self.v, self.u], U_V_WINDOW)
        got = lhs[(1, 1)].canonical()
        assert got == ((1,), (1, 0, -2, 0, 1))  # 1/(1-q^2)^2

    def test_three_factor_splitting(self):
        # E(v) E(u) = E(u) E(-q v u) E(v)
        m = (self.v * self.u).scale(1, -1)
        lhs, _ = exact_window_map([self.v, self.u], U_V_WINDOW)
        rhs, _ = exact_window_map([self.u, m, self.v], U_V_WINDOW)
        for t in sorted(set(lhs) | set(rhs)):
            assert lhs.get(t, None) == rhs.get(t, None), t

    def test_cross_engine_agreement(self):
        exact, _ = exact_window_map([self.u, self.v], 2)
        word = word_of([(1, 1), (2, 1)])
        P = 9
        for t, frac in sorted(exact.items()):
            trunc, _ = next(product_coefficients(word, 2, [t], P))
            assert trunc == series_of(frac, P), t

    def test_negative_exponent_rejected(self):
        with pytest.raises(InfiniteSupport):
            exact_window_map([Element.generator(self.sites, 1, -1)], 2)

    @pytest.mark.parametrize(
        "args, message",
        [
            ([], "need at least one factor"),
            ([Element.generator(2, 1), Element.generator(3, 1)], "different chains"),
            ([Element.generator(2, 1), Element(2, {})], "zero argument"),
        ],
        ids=["no_factor", "two_chains", "zero"],
    )
    def test_bad_arguments_are_refused(self, args, message):
        with pytest.raises(InvalidParams, match=message):
            exact_window_map(args, 2)

    def test_max_order_reported(self):
        _, k = exact_window_map([self.u + self.v], 2)
        assert k == 4  # (u+v)^4 can still land inside the 2-window box


class TestTwoEngines:
    """The truncated engine agrees mod q^P with the exact engine's rational
    coefficients expanded by long division, on every target of a window
    with all exponents in 0..W; a target the exact map omits has
    coefficient 0."""

    @staticmethod
    def _agree(word, sites, exact, window, precision):
        targets = window_targets(sites, range(1, sites + 1), window)
        targets = [t for t in targets if min(t) >= 0]
        nonzero = 0
        for got, cert in product_coefficients(word, sites, targets, precision):
            target = cert.exponents
            want = series_of(exact[target], precision) if target in exact else L({}, precision)
            assert got == want, (render_word(word), target)
            nonzero += not got.is_zero()
        return nonzero

    @pytest.mark.parametrize("sites", [2, 3])
    def test_random_positive_products(self, sites):
        rng = random.Random(20261019 + sites)
        nonzero = 0
        for _ in range(8):
            letters = [(rng.randint(1, sites), 1) for _ in range(rng.randint(1, 4))]
            exact, _ = exact_window_map([Element.generator(sites, s) for s, _ in letters], 3)
            nonzero += self._agree(word_of(letters), sites, exact, 3, 16)
        assert nonzero >= 40

    @pytest.mark.parametrize(
        "name,letters,nonzero",
        [
            # u^a v^b has valuation a^2 + b^2 in E(u) E(v), below 64 at 56
            # of the 81 targets, and (a - b)^2 in E(v) E(u), below 64 at 79
            ("mult1", [(1, 1), (2, 1)], 56),
            ("mult2", [(2, 1), (1, 1)], 79),
        ],
    )
    def test_catalog_product_rules(self, name, letters, nonzero):
        # the right side of each exact catalog rule, E(u+v) and
        # E(u+v-q v u), against the truncated product of its left side
        _, (_, rhs_args, window) = catalog._plan_exact(name, {"N": 2, "W": 8})
        exact, _ = exact_window_map(rhs_args, window)
        assert len(exact) == 81
        assert self._agree(word_of(letters), 2, exact, window, 64) == nonzero


def _catalog_argument_lists(sites):
    """The six argument lists of the catalog's exact items: both sides of
    mult1, mult2 and pentagon."""
    u, v = Element.generator(sites, 1), Element.generator(sites, 2)
    return [
        [u, v], [u + v],
        [v, u], [u + v - (v * u).scale(1)],
        [v, u], [u, (v * u).scale(1, -1), v],
    ]


def _random_argument_list(rng, sites):
    """1-3 polynomial arguments, each of 1-3 monomials with nonnegative
    exponents and positive degree, with Laurent-polynomial coefficients in q
    whose exponents may be negative."""
    args = []
    for _ in range(rng.randint(1, 3)):
        terms, size = {}, rng.randint(1, 3)
        while len(terms) < size:
            vec = tuple(rng.randint(0, 2) for _ in range(sites))
            if any(vec):
                coeff = {rng.randint(-3, 3): rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 2))}
                terms[vec] = coeff
        args.append(Element(sites, terms))
    return args


class TestExactEngineOracle:
    """The exact engine against its reference, which rebuilds every power on
    every branch with Element products, cuts each product to the window
    afterwards and sums each target's leaf terms with its own rational
    arithmetic: the same targets, equal values and the same largest order."""

    def check(self, args, window):
        got, got_k = exact_window_map(args, window)
        want, want_k = exact_window_map_by_elements(args, window)
        assert got.keys() == want.keys()
        for target, value in want.items():
            assert rational_equal(got[target].canonical(), value), target
        assert got_k == want_k

    def test_catalog_argument_lists(self):
        for args in _catalog_argument_lists(2):
            self.check(args, 8)

    def test_seeded_random_argument_lists(self):
        rng = random.Random(19)
        for _ in range(60):
            self.check(_random_argument_list(rng, rng.choice([2, 3])), rng.randint(0, 4))

    def test_a_window_product_cancels_a_whole_term(self):
        sites = 2
        u, v = Element.generator(sites, 1), Element.generator(sites, 2)
        x, y = u + v, u.scale(2, -1) + v
        # u * v + v * (-q^2 u) = (1 - q^2 q^-2) w1 w2: the term w1 w2 cancels
        product = mul_terms({(1, 0): {0: 1}, (0, 1): {0: 1}}, {(1, 0): {2: -1}, (0, 1): {0: 1}}, 2)
        assert (1, 1) not in product and (1, 1) not in (x * y).terms
        for window in range(4):
            self.check([x, y], window)
            self.check([y, x, y], window)


def _in_box(el, window):
    return Element(el.sites, {v: c for v, c in el.terms.items() if max(v) <= window})


class TestRuleCrossRepresentation:
    """The exact-rational tables for the three product rules agree with a
    fully independent computation: the literal finite product of every
    factor, multiplied out exactly and cut to the window (all exponents are
    nonnegative and only grow, so cutting after each product is sound)."""

    def setup_method(self):
        self.sites = 2
        self.u = Element.generator(self.sites, 1)
        self.v = Element.generator(self.sites, 2)

    def _finite(self, args, depth, window):
        acc = Element.identity(self.sites)
        for arg in args:
            acc = _in_box(acc * _in_box(finite_qexp(arg, depth), window), window)
        return acc

    @pytest.mark.parametrize("window,precision", [(2, 12)])
    def test_all_three_rules(self, window, precision):
        u, v = self.u, self.v
        vu_neg_q = (v * u).scale(1, -1)
        z = u + v - (v * u).scale(1)
        rules = [
            ([u, v], [u + v]),
            ([v, u], [z]),
            ([v, u], [u, vu_neg_q, v]),
        ]
        # arguments with q^-1 phases need more factors than precision / 2;
        # the depth is certified by depth + 2 agreeing with it
        depth = precision // 2 + 2 * window
        targets = [t for t in window_targets(2, (1, 2), window) if min(t) >= 0]
        for lhs_args, rhs_args in rules:
            exact_lhs, _ = exact_window_map(lhs_args, window)
            exact_rhs, _ = exact_window_map(rhs_args, window)
            for d in (depth, depth + 2):
                fin_lhs = self._finite(lhs_args, d, window)
                fin_rhs = self._finite(rhs_args, d, window)
                for target in targets:
                    want = series_of(exact_lhs[target], precision)
                    assert series_of(exact_rhs[target], precision) == want
                    assert L(fin_lhs.terms.get(target, {}), precision) == want, (d, target)
                    assert L(fin_rhs.terms.get(target, {}), precision) == want, (d, target)


class TestScalingGrading:
    """Scaling the arguments of E(u)E(v) = E(u+v) by a central scalar grades
    the identity by total series order: with t a distant commuting generator
    standing in for the scalar, every surviving monomial has t-degree equal
    to its u-degree plus v-degree, and the graded coefficients equal the
    ungraded ones."""

    def test_mult1_grading(self):
        window = 4
        tu = Element(4, {(1, 0, 0, 1): {0: 1}})
        tv = Element(4, {(0, 1, 0, 1): {0: 1}})
        lhs, _ = exact_window_map([tu, tv], window)
        rhs, _ = exact_window_map([tu + tv], window)
        assert lhs.keys() == rhs.keys()
        for vec, coeff in lhs.items():
            a, b, zero, t = vec
            assert zero == 0 and t == a + b  # homogeneous in the scalar
            assert coeff == rhs[vec], vec

        flat, _ = exact_window_map([Element.generator(2, 1), Element.generator(2, 2)], window)
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
        base = [(2, 1), (1, -1), (1, 1), (2, 1)]
        small_word = word_of(base)
        big_word = word_of([(s + shift, e) for s, e in base])
        precision = 10
        for target in window_targets(2, (1, 2), 2):
            a, b = target
            big_target = [0] * 4
            big_target[shift] = a
            big_target[shift + 1] = b
            got, got_cert = next(product_coefficients(big_word, 4, [tuple(big_target)], precision))
            want, want_cert = next(product_coefficients(small_word, 2, [target], precision))
            assert got == want
            assert got_cert.tuples == want_cert.tuples


def _random_letters(rng, sites):
    """Up to 7 factors of both signs on sites 1..`sites`."""
    return [(rng.randint(1, sites), rng.choice((1, -1))) for _ in range(rng.randint(1, 7))]


# how far the translation moves the sites of the symmetry tests
SHIFT = 2


def _symmetric_image(kind, letters, target, sites):
    """The image under `kind` of a product's letters and of one target
    vector, on a chain of sites + SHIFT sites whose box is sites 1..`sites`;
    the mirror reflects the box."""
    if kind == "translation":
        return [(s + SHIFT, e) for s, e in letters], (0,) * SHIFT + target[:sites]
    if kind == "inversion":
        return [(s, -e) for s, e in letters], tuple(-x for x in target)
    mirrored = [(sites + 1 - s, e) for s, e in reversed(letters)]
    return mirrored, tuple(reversed(target[:sites])) + target[sites:]


class TestSymmetries:
    """The three maps under which the catalog shares one pair's rows with
    another: translating the sites, inverting every generator, and reading
    the factors backwards with the sites mirrored.  Each sends a product and
    a target to a product and a target with the same coefficient and an
    equivalent certificate, on seeded random products of 2-4 sites."""

    @pytest.mark.parametrize("kind", ["translation", "inversion", "mirror"])
    def test_image_has_equal_coefficients(self, kind):
        rng = random.Random(20261018)
        precision, checked, walked = 10, 0, 0
        for _ in range(25):
            sites = rng.randint(2, 4)
            chain = sites + SHIFT
            letters = _random_letters(rng, sites)
            targets = window_targets(chain, range(1, sites + 1), 2 if sites < 4 else 1)
            images = [_symmetric_image(kind, letters, t, sites) for t in targets]
            word = word_of(letters)
            image = word_of(images[0][0])
            try:
                got = list(product_coefficients(word, chain, targets, precision))
            except NoCertificate:
                with pytest.raises(NoCertificate):
                    list(product_coefficients(image, chain, [], precision))
                continue
            want = product_coefficients(image, chain, [t for _, t in images], precision)
            for (series, cert), (image_series, image_cert) in zip(got, want):
                assert series == image_series, (letters, cert.exponents)
                assert cert.reason == image_cert.reason
                assert cert.min_valuation == image_cert.min_valuation
                assert cert.max_index == image_cert.max_index
                assert cert.product.kernel_rank == image_cert.product.kernel_rank
                tuples = cert.tuples
                if kind == "mirror":
                    tuples = tuple(sorted(tuple(reversed(k)) for k in tuples))
                assert tuples == image_cert.tuples
                checked += 1
                walked += bool(tuples)
        assert checked > 1000 and walked > 100

    def test_kept_tuples_have_the_targets_parity(self):
        # each kernel basis vector changes sum k by 0 or 2, so the sign
        # (-1)^(sum k) of every kept tuple is (-1)^(sum T)
        rng = random.Random(20261019)
        tuples = 0
        for _ in range(40):
            sites = rng.randint(1, 4)
            word = word_of(_random_letters(rng, sites))
            targets = window_targets(sites, range(1, sites + 1), 2)
            try:
                for _, cert in product_coefficients(word, sites, targets, 12):
                    for k in cert.tuples:
                        assert sum(k) % 2 == sum(cert.exponents) % 2, (word, k)
                        tuples += 1
            except NoCertificate:
                continue
        assert tuples > 1000


def _certificate_view(cert) -> tuple[list, dict]:
    """A certificate's fields as the pin below hashes them, in the layout
    it was pinned in: factors, target label, precision, feasibility, kernel
    rank, restricted matrix, minors, particular solution, tuples, largest
    index and minimum valuation, then a summary of them; an "outside"
    target reads rank 0 and an empty matrix, minors and solution."""
    product, feasible = cert.product, cert.reason != "outside"
    rank, gram, minors, particular = (
        (product.kernel_rank, product.gram_restricted, product.minors, particular_of(cert))
        if feasible
        else (0, (), (), ())
    )
    target = monomial_label(cert.exponents)
    fields = [
        product.factors, target, product.precision, feasible, rank, gram,
        minors, particular, cert.tuples, cert.max_index, cert.min_valuation,
    ]
    summary = {
        "target": target,
        "feasible": feasible,
        "kernel_rank": rank,
        "minors": list(minors),
        "tuples": cert.tuple_count,
        "max_index": cert.max_index,
        "min_valuation": cert.min_valuation,
    }
    return fields, summary


def _certificate_digest(runs) -> str:
    """sha256 over every certificate of the catalog products of `runs`, a
    list of ``(script pairs, sites, window, precision)``: each certificate's
    view from :func:`_certificate_view` as one JSON line."""
    digest = hashlib.sha256()
    for pairs, sites, window, precision in runs:
        for script in pairs:
            support = sorted({x.site for x in script.start + script.end})
            targets = window_targets(sites, support, window)
            for word in (script.start, script.end):
                for _, cert in product_coefficients(word, sites, targets, precision):
                    line = json.dumps(_certificate_view(cert), separators=(",", ":"))
                    digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_certificate_fields_are_pinned():
    # every target of the four products of sigma_alg W=3 and the two of
    # braid_alg P=32 W=3, hashed field by field so the pin does not depend
    # on how a certificate is stored; the matrix, minors and particular
    # solution are those of the collapsed units (83983bfd... while they
    # described the uncollapsed product, with the same tuples, ranks,
    # largest indices and minimum valuations)
    runs = [
        ([sigma_script1(2, 4), sigma_script2(2, 4)], 4, 3, 10),
        ([braid_script(1, 3)], 3, 3, 32),
    ]
    want = "9c4e12359bf7049b1ad9c58639c8ecd663a3f2c3d4d07a225813b769dfbe3033"
    assert _certificate_digest(runs) == want
