"""Independent reference implementations used only by the test suite.

Everything here is written in the most naive way possible (long division,
letter-by-letter sorting, nested-loop enumeration, literal finite products)
so that agreement with the package's optimized kernels is meaningful
evidence of correctness.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from typing import Sequence

from qtorus.algebra import Element, monomial_label
from qtorus.catalog import _row, fold_certificate
from qtorus.errors import InfiniteSupport, InvalidParams
from qtorus.qexp import euler_denominator_factors
from qtorus.series import LaurentSeries
from qtorus.verifier import product_coefficients, window_targets
from qtorus.words import Step, expand_composites


# ---------------------------------------------------------------------------
# series oracles
# ---------------------------------------------------------------------------


def longdiv_expand(num: dict[int, int], den: dict[int, int], precision: int) -> dict[int, int]:
    """Expand num/den as a Laurent series by explicit long division,
    returning coefficients for exponents below `precision`."""
    if not den:
        raise ZeroDivisionError
    v = min(den)
    lead = den[v]
    assert lead in (1, -1), "oracle only divides by units"
    rem = dict(num)
    out: dict[int, int] = {}
    # lowest possible exponent of the quotient
    e = (min(num) if num else 0) - v
    while e < precision:
        c = rem.get(e + v, 0) * lead
        if c:
            out[e] = c
            for de, dc in den.items():
                k = e + de
                nv = rem.get(k, 0) - c * dc
                if nv:
                    rem[k] = nv
                else:
                    rem.pop(k, None)
        e += 1
    return out


def series_of(frac, precision: int) -> LaurentSeries:
    """The series of the exact value `frac` mod q^precision, by long
    division of its canonical (numerator, denominator) pair."""
    num, den = ({e: c for e, c in enumerate(p) if c} for p in frac.canonical())
    return LaurentSeries(longdiv_expand(num, den, precision), precision)


def truncated_mul(a: dict[int, int], b: dict[int, int], precision: int) -> dict[int, int]:
    """The product of two Laurent polynomials below q^precision, term by term."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb < precision:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def oracle_euler(k: int, precision: int) -> dict[int, int]:
    """c_k = (-1)^k q^(k^2) / prod_{j<=k} (1 - q^(2j)) below q^precision, by
    long division."""
    den = [1]
    for j in range(1, k + 1):
        den = naive_poly_mul(den, [1] + [0] * (2 * j - 1) + [-1])
    return longdiv_expand(
        {k * k: (-1) ** k}, {e: c for e, c in enumerate(den) if c}, precision
    )


def naive_poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_cyclotomic(n: int) -> list[int]:
    """The n-th cyclotomic polynomial as a coefficient list, from
    q^n - 1 = prod_{d|n} cyclotomic(d): q^n - 1 divided by the product of
    the proper divisors' polynomials, by long division."""
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = naive_poly_mul(den, naive_cyclotomic(d))
    quot = longdiv_expand({0: -1, n: 1}, {e: c for e, c in enumerate(den) if c}, n + 1)
    return [quot.get(e, 0) for e in range(max(quot) + 1)]


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def rational_add(a, b) -> tuple[list[int], list[int]]:
    """Unreduced sum of two (numerator, denominator) coefficient pairs."""
    (an, ad), (bn, bd) = a, b
    x = naive_poly_mul(list(an), list(bd))
    y = naive_poly_mul(list(bn), list(ad))
    total = [0] * max(len(x), len(y))
    for i, c in enumerate(x):
        total[i] += c
    for i, c in enumerate(y):
        total[i] += c
    return _trim(total), naive_poly_mul(list(ad), list(bd))


def rational_equal(a, b) -> bool:
    """Equality of two (numerator, denominator) pairs by cross-multiplication."""
    (an, ad), (bn, bd) = a, b
    return naive_poly_mul(list(an), list(bd)) == naive_poly_mul(list(bn), list(ad))


def coprime(a, b) -> bool:
    """True when the integer polynomials a and b share no factor of positive
    degree: Euclid's algorithm over the rationals, by plain long division."""
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    while b:
        rem = a[:]
        while len(rem) >= len(b):
            c = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for j, bc in enumerate(b):
                rem[shift + j] -= c * bc
            rem.pop()
            _trim(rem)
        a, b = b, rem
    return len(a) == 1


# ---------------------------------------------------------------------------
# linear algebra oracle: Gauss-Jordan elimination over the rationals
# ---------------------------------------------------------------------------


def rational_solve(a, rhs) -> tuple[Fraction, list[Fraction] | None]:
    """(det a, x) with  a x = rhs  for a square integer matrix `a`, by
    Gauss-Jordan elimination in `Fraction`, swapping in the first nonzero
    pivot of each column; x is None when a is singular."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, rhs)]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det, [row[n] for row in rows]


def minimiser(a, b, c) -> tuple[list[Fraction], Fraction]:
    """(y*, qmin) of  Q(y) = y^T a y + b^T y + c  for a positive definite
    `a`, as fractions: y* = -a^-1 b / 2 by :func:`rational_solve`, and
    qmin = Q(y*) = c + b^T y* / 2."""
    y_star = [-x / 2 for x in rational_solve(a, b)[1]]
    return y_star, c + Fraction(sum(x * y for x, y in zip(b, y_star))) / 2


# ---------------------------------------------------------------------------
# algebra oracle: sort a word of single-site generators letter by letter
# ---------------------------------------------------------------------------


def phase_by_sorting(exponents: list[tuple[int, int]]) -> tuple[dict[int, int], int]:
    """Given a product of single-site powers w_{s1}^{e1} w_{s2}^{e2} ... ,
    push letters into ascending site order with adjacent swaps, tracking the
    accumulated q-power from  w_{n+1} w_n = q^{-2} w_n w_{n+1}  one unit
    exponent at a time.  Returns (site -> total exponent, phase exponent)."""
    letters: list[tuple[int, int]] = []  # (site, +-1) single steps
    for site, e in exponents:
        letters.extend([(site, 1 if e > 0 else -1)] * abs(e))
    phase = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (s1, d1), (s2, d2) = letters[i], letters[i + 1]
            if s1 > s2:
                if s1 == s2 + 1:
                    phase += -2 * d1 * d2
                elif s2 == s1 + 1:
                    phase += 2 * d1 * d2  # unreachable given s1 > s2, kept for clarity
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    totals: dict[int, int] = {}
    for s, d in letters:
        totals[s] = totals.get(s, 0) + d
    return {s: e for s, e in totals.items() if e}, phase


def valuation(factors, k) -> int:
    """The valuation Q(k) of the term k of the product of s-letters
    `factors`: sum k^2 plus the phase of sorting w_(n_l)^(eps_l k_l) into
    site order by :func:`phase_by_sorting`."""
    _, phase = phase_by_sorting([(f.site, f.sign * x) for f, x in zip(factors, k)])
    return sum(x * x for x in k) + phase


# ---------------------------------------------------------------------------
# verifier oracle: brute-force tuple enumeration with nested bounded loops
# ---------------------------------------------------------------------------


def blind_tuples_by_target(
    signs: list[int],
    sites: list[int],
    kmax: int,
) -> dict[tuple[tuple[int, int], ...], list[tuple[int, ...]]]:
    """Every tuple (k_1..k_L), 0 <= k_i <= kmax, bucketed by the exponent
    vector its signed site totals hit: the key lists the nonzero
    (site, total) pairs by site.  One blind scan of the box; no certificates."""
    buckets: dict[tuple[tuple[int, int], ...], list[tuple[int, ...]]] = {}
    for ks in iproduct(range(kmax + 1), repeat=len(signs)):
        totals: dict[int, int] = {}
        for k, s, site in zip(ks, signs, sites):
            totals[site] = totals.get(site, 0) + s * k
        buckets.setdefault(target_key(totals), []).append(ks)
    return buckets


def target_key(target: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The bucket key of :func:`blind_tuples_by_target` for a target given
    as site -> exponent."""
    return tuple(sorted((site, e) for site, e in target.items() if e))


def blind_buckets(factors, kmax: int):
    """One blind scan of the box 0 <= k_i <= kmax of the s-letters
    `factors`, bucketed by target, for :func:`blind_kept`."""
    return blind_tuples_by_target([f.sign for f in factors], [f.site for f in factors], kmax)


def blind_kept(factors, buckets, target, precision: int) -> list[tuple[tuple[int, ...], int]]:
    """Sorted (k, Q(k)) over the tuples of `target`'s bucket of `buckets`
    whose :func:`valuation` is below `precision`: the kept tuples, by blind
    search and letter sorting rather than the engine's valuation form."""
    hits = buckets.get(target_key({i + 1: e for i, e in enumerate(target)}), [])
    return sorted((k, q) for k in hits if (q := valuation(factors, k)) < precision)


def blind_coefficient(factors, buckets, target, precision: int, kmax: int):
    """Kept tuples and coefficient of `target` by :func:`blind_kept` on
    `buckets`, the scan of :func:`blind_buckets` with this `kmax`, and each
    term's series by long division: nothing here shares the engine's code."""
    kept = blind_kept(factors, buckets, target, precision)
    want: dict[int, int] = {}
    for ks, q in kept:
        phase = q - sum(k * k for k in ks)
        term = {phase: 1}
        for k in ks:
            term = truncated_mul(term, oracle_euler(k, precision - phase), precision)
        for e, c in term.items():
            want[e] = want.get(e, 0) + c
    # the blind box must not be what stops the search
    assert all(max(ks) < kmax for ks, _ in kept)
    return [ks for ks, _ in kept], {e: c for e, c in want.items() if c}


# ---------------------------------------------------------------------------
# q-exponential oracle: the literal finite product
# ---------------------------------------------------------------------------


def finite_qexp(x: Element, depth: int) -> Element:
    """prod_{n<depth} (1 - x q^(2n+1)), factors multiplied left to right in
    exact Element arithmetic.  It agrees with E(x) only below the power of q
    that the first omitted factor can reach, so callers compare low-order
    terms and certify a depth by checking that depth + 2 agrees with it."""
    one = Element.identity(x.sites)
    acc = one
    for n in range(depth):
        acc = acc * (one - x.scale(2 * n + 1))
    return acc


# ---------------------------------------------------------------------------
# rewrite oracle: every relation side tried at every position
# ---------------------------------------------------------------------------


def scan_applicable_steps(word, relations) -> list[Step]:
    """Every (position, relation, direction) whose pattern matches the word,
    by slicing the word at every position for every relation side."""
    word = tuple(word)
    out: list[Step] = []
    for rel in relations:
        for forward in (True, False):
            pattern = rel.lhs if forward else rel.rhs
            span = len(pattern)
            for pos in range(len(word) - span + 1):
                if word[pos : pos + span] == tuple(pattern):
                    out.append(Step(pos, rel, forward))
    return out


# ---------------------------------------------------------------------------
# catalog oracle: every side of every word pair evaluated
# ---------------------------------------------------------------------------


def compare_words_unshared(pairs, sites: int, window: int, precision: int):
    """``(blocks, summary)`` of labelled word pairs as the catalog reports
    them, one block of rows per pair, with both sides of every pair
    evaluated over the box of the sites either side touches, rows built
    from the two series, and every certificate folded into the summary: no
    side borrows another's rows."""
    blocks: list = []
    stats: dict = {}
    for label, lhs, rhs in pairs:
        prefix = f"{label}: " if label else ""
        lhs, rhs = expand_composites(lhs), expand_composites(rhs)
        support = sorted({x.site for x in lhs + rhs}) or [1]
        targets = window_targets(sites, support, window)
        left = list(product_coefficients(lhs, sites, targets, precision))
        right = list(product_coefficients(rhs, sites, targets, precision))
        rows = []
        for target, (_, ls, lc), (_, rs, rc) in zip(targets, left, right):
            rows.append(_row(prefix + monomial_label(target), ls, rs))
            fold_certificate(stats, lc)
            fold_certificate(stats, rc)
        blocks.append(rows)
    return blocks, stats


# ---------------------------------------------------------------------------
# exact-engine oracle: Element products on every branch, one rational_add a term
# ---------------------------------------------------------------------------


def exact_window_map_by_elements(
    args: Sequence[Element],
    window: int,
) -> tuple[dict[tuple[int, ...], tuple[list[int], list[int]]], int]:
    """The exact engine's coefficients of  E(x_1) ... E(x_L)  on the window
    of exponent vectors with every component in 0..window, from the series
    directly: a depth-first walk over the orders (k_1, .., k_L) that
    rebuilds every power of the later factors on every branch with
    :class:`Element` products, and cuts each product to the window
    afterwards.  Each leaf term is a dense (numerator, denominator)
    pair, its denominator multiplied out from :func:`naive_cyclotomic`, and
    a target's terms are summed by :func:`rational_add`, unreduced.
    Returns (target -> (numerator, denominator), largest series order that
    contributed); targets whose sum vanishes are left out.
    """
    if not args:
        raise InvalidParams("need at least one factor")
    sites = args[0].sites
    for x in args:
        if x.sites != sites:
            raise InvalidParams("factors live on different chains")
        if x.is_zero():
            raise InvalidParams("zero argument")
        for vec in x.terms:
            if any(e < 0 for e in vec) or not any(vec):
                raise InfiniteSupport(
                    "exact expansion needs arguments whose monomials have "
                    "nonnegative exponents and positive total degree"
                )

    def in_window(el: Element) -> Element:
        kept = {
            v: c for v, c in el.terms.items() if all(e <= window for e in v)
        }
        return Element(sites, kept)

    pruned_args = [in_window(x) for x in args]
    out: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    max_order = 0
    k_cap = sites * window + 1  # total degree of any window target

    def leaf(partial: Element, qpow: int, den: Counter) -> None:
        dense_den = [1]
        for d, m in den.items():
            for _ in range(m):
                dense_den = naive_poly_mul(dense_den, naive_cyclotomic(d))
        for vec, coeff in partial.terms.items():
            # a negative power of q moves to the denominator
            lo = min(0, min(coeff) + qpow)
            num = [coeff.get(e - qpow, 0) for e in range(lo, max(coeff) + qpow + 1)]
            contrib = (num, [0] * -lo + dense_den)
            prev = out.get(vec)
            out[vec] = contrib if prev is None else rational_add(prev, contrib)

    def descend(i: int, partial: Element, qpow: int, den: Counter, kmax: int) -> None:
        nonlocal max_order
        if i == len(pruned_args):
            if kmax > max_order:
                max_order = kmax
            leaf(partial, qpow, den)
            return
        x = pruned_args[i]
        power = Element.identity(sites)
        k = 0
        while True:
            branch = in_window(partial * power)
            if k > 0 and branch.is_zero():
                break
            if not branch.is_zero():
                descend(
                    i + 1,
                    branch,
                    qpow + k * k,
                    den + euler_denominator_factors(k),
                    max(kmax, k),
                )
            k += 1
            if k > k_cap:
                break
            power = in_window(power * x)
            if power.is_zero():
                break
        return

    descend(0, Element.identity(sites), 0, Counter(), 0)
    return {v: f for v, f in out.items() if f[0]}, max_order
