"""Coefficient extraction for ordered products of q-exponentials.

A *factor product* is an ordered product  E(x_1) E(x_2) ... E(x_L)  where each
argument x_l = w_(n_l)^(eps_l), eps_l = +-1, is a single generator or inverse
generator.  The truncated engine reads it as a word of the rewriting layer's
s-letters (:mod:`qtorus.words`), s_n+ for E(w_n) and s_n- for E(w_n^-1), on a
chain of a given number of sites.  Expanding every factor through its series
form and normal-ordering gives, for each exponent vector T,

    coefficient(T) = sum over k in Z_{>=0}^L with  sum_l k_l eps_l e_(n_l) = T
                     of  q^(Phi(k)) prod_l c_(k_l),

where Phi(k) collects the reordering phases.  Because c_k has valuation
exactly k^2, the term for k has valuation

    Q(k) = sum_l k_l^2 + Phi(k),

an integer quadratic form.  Working mod q^P therefore needs exactly the
tuples in the sublevel set  {k >= 0, on the fiber, Q(k) < P}.

The fiber is a translate of an integer lattice (one linear constraint per
site, all coefficients +-1, so a basis of the kernel lattice can be written
down directly).  Restricting Q to that lattice gives an integer symmetric
matrix; its positive definiteness -- checked exactly by its leading
principal minors, which are recorded -- certifies that the sublevel set is
finite, and an exact ellipsoid walk enumerates it.  Every reported
coefficient comes with a :class:`TupleCertificate`: a short record of its
target, why the target has the tuples it has, the enumerated tuples and
their minimum valuation, over one :class:`ProductCertificate` per call that
holds what every target shares, the factors, the restricted matrix and its
minors.

:func:`product_coefficients` takes a product and a list of targets and sets
up everything that depends only on the product once: it collapses the
adjacent inverse pairs (below), and builds the kernel basis of the units
and, from one fraction-free elimination of their valuation form (Bareiss,
Math. Comp. 22, 1968), in integers throughout, the leading minors and the
LDL^T data of the restricted matrix, scaled by one common integer lam so that
every step of the walk is integer arithmetic, and two integer maps of the
particular solution's entries, one to the walk's centre and one to
lam * qmin, where qmin is the real minimum of the form on the target's
fibre (a Schur complement).  A target with qmin >= P has no tuple and is
settled without a walk.  One target's coefficient is the first yield of a
call on that one target.
Each kernel basis vector is +1 at exactly one unit index where the
particular solution is 0, so the walk coordinates are entries of k itself
and the walk stays in the nonnegative orthant but for the pairs' entries.
The other entries, one per site at its first unit index, are
k_first = p_first + sum +-y  over that
site's coordinates; the walk clamps each level's interval (one integer
square root, as in Fincke-Pohst enumeration) by these linear side
constraints, so it enforces k >= 0 on every index and each point it
returns is a kept tuple.  Its level layout is built once per product, and
it keeps k in place as it descends, so each leaf is the tuple itself,
returned with its value of the form: the tuple's valuation Q(k).  The k at
a site whose factors share one sign e sum to e*T_s, so a target with
e*T_s < 0 there has no tuple and is settled before any walk; for a
single-factor site, which has no walk coordinate, that is the whole
constraint.  A target settled before any walk pays only the sums that
decide it: its series is the call's one zero, and its certificate holds
only the target and its reason.  A kept tuple contributes
(-1)^(sum k) q^(Q(k)) / prod_l (q^2;q^2)_(k_l),  and every kept tuple of
target T has sum k of the parity of sum T, so the sign is applied once
per target.  The expansion of that denominator counts partitions; it is built
once per call for each multiset of k, from its parent multiset by one
running-sum pass (:func:`qexp.euler_expansion`), covering P - min(0, Q)
terms since Q(k) can be negative, and all are rebuilt longer only when a
later target needs more.  Each kept point then adds its multiset's
expansion shifted by its valuation, so no series is multiplied, and the
sums below P are the coefficient.

Adjacent inverse pairs are collapsed.  By the Jacobi triple product
(Gasper and Rahman, Basic Hypergeometric Series, 2nd ed., 2004, sec. 1.6),
E(z) E(z^-1) = sum_(m in Z) (-1)^m q^(m^2) z^m / (q^2;q^2)_inf, and the
phase of a pair E(w^e) E(w^-e) with any other factor is its first
member's times its net index m = k_a - k_b.  So each such pair, taken
greedily from the left, is one unit with index m in Z: m^2 on the
diagonal of the form, no k >= 0 clamp in the walk, and a factor
1/(q^2;q^2)_inf in its terms, grown with the rest from one expansion of
1/(q^2;q^2)_inf^pairs per call.  The units' form is the product's one
form: its one elimination certifies it, settles the targets with
qmin >= P and drives the walk, and the certificate's matrix, minors,
particular-solution layout and pairs index the units.  The pair lemma
completes the certificate: with b = min(k_a, k_b) >= 0,
k_a^2 + k_b^2 = m^2 + 2b(b + |m|), so the uncollapsed valuation is the
collapsed one plus sum 2 b_i (b_i + |m_i|) >= 0, and a point of budget
B = P - Q splits into the b-vectors with sum 2 b_i (b_i + |m_i|) < B,
which gives the tuple count and the largest index; the tuples themselves
are listed only when read.  So the uncollapsed form need not be positive
definite.  The kernel rank reported is the uncollapsed one: the units'
rank plus one per pair.

A second engine handles products of E(x) for *arbitrary* polynomial
arguments x (sums of monomials with all site exponents >= 0) exactly, with
coefficients as rational functions of q, compared without division over a
common denominator: exponent vectors only grow under multiplication, so a
degree window bounds the series orders that can contribute, and no
truncation is ever introduced.  Each argument x is multiplied in once per
series order, a partial product times x^k being the one for k - 1 times x,
and every product skips the term pairs that leave the window.  A target's
terms are summed as integers per multiset of k, which fixes their
denominator, and the classes are brought to one denominator per target,
smallest multiset first, by :func:`~qtorus.series.widen`: a numerator
times the cached expansion of the cyclotomic factors its denominator
lacks.  Each coefficient is a :class:`~qtorus.series.FactoredRational`.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product as iproduct
from operator import itemgetter, mul
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import Element, mul_terms
from .errors import InfiniteSupport, InvalidParams, NoCertificate, Record
from .qexp import euler_denominator_factors, euler_expansion
from .series import FactoredRational, LaurentSeries, widen
from .words import Letter, S

__all__ = [
    "ProductCertificate",
    "TupleCertificate",
    "product_coefficients",
    "window_targets",
    "exact_window_map",
]


# ---------------------------------------------------------------------------
# target boxes
# ---------------------------------------------------------------------------


def window_targets(
    sites: int,
    support: Iterable[int],
    window: int,
) -> list[tuple[int, ...]]:
    """All exponent vectors on a chain of `sites` sites that are supported on
    the sites of `support`, with every exponent in -window..window, sorted."""
    if window < 0:
        raise InvalidParams("window must be >= 0")
    chosen = set(support)
    for s in chosen:
        if not 1 <= s <= sites:
            raise InvalidParams(f"site {s} outside 1..{sites}")
    # one range per site, each sorted, so the product runs in sorted order
    span = range(-window, window + 1)
    return list(iproduct(*(span if s in chosen else (0,) for s in range(1, sites + 1))))


# ---------------------------------------------------------------------------
# integer data of the valuation form
# ---------------------------------------------------------------------------


class _ScaledForm(Record):
    """Integer data of a valuation form  Q = y^T A y + b^T y + c,  with
    b = B p  and  c = p^T C p,  for :func:`_walk_sublevel` and the targets'
    fibres: A is positive definite on the walk coordinates y, and p fixes a
    fibre.

    With LDL^T = A, `minors` are A's leading principal minors and `lam` is
    the lcm of 4*det A and every denominator in L and D, so the scaled
    pivots `di` = lam*d_i and subdiagonal entries lam*L[j][i] are integers,
    and so is everything the walk derives from them; `li_cols[i]` lists the
    nonzero ones of column i as pairs (j, lam*L[j][i]).  The minimiser y* of
    Q on a fibre has  lam*y* = M p,  the walk's centre, with M the rows of
    `centre_map`, and the minimum qmin has  lam*qmin = p^T H p,  a Schur
    complement of the form on the whole lattice; `h_terms` lists H's
    nonzero terms (s, t, h) over s <= t, with h doubled off the diagonal.
    """

    __slots__ = ()
    _fields = ("minors", "lam", "di", "li_cols", "centre_map", "h_terms")


def _scaled_form(full: Sequence[Sequence[int]], rank: int) -> _ScaledForm:
    """Certify the leading `rank` x `rank` block A of the integer symmetric
    matrix  `full` = [[A, B/2], [B^T/2, C]]  positive definite (raises
    NoCertificate otherwise) and give the integer data of its form.

    One fraction-free Gauss-Jordan elimination on A's columns (Bareiss,
    Math. Comp. 22, 1968) gives all of it.  Step k turns every other row
    into  (pivot * row - row[k] * row_k) // previous pivot,  an exact
    division.  Its pivot is the leading minor m_(k+1), so d_k = m_(k+1)/m_k,
    and just before it the entries of column k below the pivot are the
    numerators of L over m_(k+1).  After the last step, with det = det A,
    the top rows hold adj(A) B/2 to the right of det*I, and the rows below
    hold det*(C - (B/2)^T A^-1 B/2); so M = -(lam/det) adj(A) B/2 and H is
    lam/det times the latter.
    """
    rows = [list(row) for row in full]
    minors: list[int] = []
    lnum = []
    prev = 1
    for k in range(rank):
        piv = rows[k][k]
        if piv <= 0:
            raise NoCertificate(
                "restricted quadratic form is not positive definite "
                f"(leading minor {k + 1} is {piv})"
            )
        lnum.append([(j, rows[j][k]) for j in range(k + 1, rank) if rows[j][k]])
        top = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        minors.append(piv)
        prev = piv
    # lam clears 4*det and the reduced denominators of every d_k and L entry
    steps = list(zip(minors, [1, *minors], lnum))
    lam = 4 * prev
    for piv, below, col in steps:
        lam = math.lcm(
            lam, below // math.gcd(piv, below), *(piv // math.gcd(x, piv) for _, x in col)
        )
    scale = lam // prev
    width = len(rows) - rank
    return _ScaledForm(
        tuple(minors),
        lam,
        tuple(lam * piv // below for piv, below, _ in steps),
        tuple(tuple((j, lam * x // piv) for j, x in col) for piv, _, col in steps),
        tuple(tuple(-scale * x for x in row[rank:]) for row in rows[:rank]),
        tuple(
            (s, t, h if s == t else 2 * h)
            for s in range(width)
            for t in range(s, width)
            if (h := scale * rows[rank + s][rank + t])
        ),
    )


def _walk_levels(
    basis: Sequence[tuple[int, int, int]],
    pairs: Iterable[int] = (),
) -> tuple[tuple[tuple[int, int, int, bool, bool], ...], set[int]]:
    """The walk's level layout for walk coordinates ``(j, first, coeff)``,
    listed from coordinate 0 up: each level's unit index j, its side's
    first index, its coefficient there, whether it clamps and whether
    y_i >= 0; and the first indices of the sides some coordinate can raise.
    The indices in `pairs` are collapsed pairs, whose entry is any integer.

    Coordinate i is y_i = k_j, and its side constraint reads
    k_first = p_first + sum coeff * y >= 0  over the coordinates sharing that
    first index, unless that first index is a pair.  The walk fixes
    coordinates last to first, so a level clamps when no coordinate below
    it on the same side can raise the sum (all their coeffs are -1 and none
    is a pair); then  partial + coeff * y_i >= 0  is necessary there, and at
    a side's lowest coordinate it is exact.
    """
    pairs = set(pairs)
    # a side whose first index is a pair has no constraint to clamp
    can_raise: set[int] = set(pairs)
    levels = []
    for j, first, coeff in basis:
        levels.append((j, first, coeff, first not in can_raise, j not in pairs))
        if coeff > 0 or j in pairs:
            can_raise.add(first)
    return tuple(levels), can_raise


def _walk_sublevel(
    form: _ScaledForm,
    levels: Sequence[tuple[int, int, int, bool, bool]],
    start: Sequence[int],
    centre: Sequence[int],
    headroom: int,
    bound: int,
) -> list[tuple[tuple[int, ...], int]]:
    """Tuples k >= 0 of the fiber through `start` with
    Q(y) = y^T A y + b^T y + c < bound, each paired with its value Q(y).

    `levels` is the layout from :func:`_walk_levels`; `start` is 0 at every
    level's j and holds p_first at every first index.  The walk keeps k in
    place as it descends: y_i goes into k[j] and each side's running sum
    into k[first], so a leaf is the tuple itself and every side constraint
    k_first >= 0 holds there.

    The real minimiser is y* = -A^-1 b / 2 with value qmin, and the LDL^T
    data writes the form as  qmin + sum_i d_i (y_i - center_i)^2.  The caller
    passes `centre` = lam*y* and `headroom` = lam*(bound - qmin), both
    integers.  With Z_j = lam*y_j - centre_j, the scaled center
    C2 = lam^2 * center and offset U = lam^2 * (y_i - center), a level admits
    y_i when  DI * U^2 < budget,  with DI = lam*d_i and budgets scaled by
    lam^5; that is  |U| <= s = isqrt((budget - 1) // DI),  one interval of
    integers around the center, clamped to [lo, hi]: lo >= 0 unless the
    level is a collapsed pair, and a clamping level also keeps k_first >= 0.
    The budget left at a leaf is exactly  lam^5 * (bound - Q(y)),  so it
    gives Q(y) for free.
    """
    if headroom <= 0:
        return []
    lam, di_scaled, li_cols = form.lam, form.di, form.li_cols
    r = len(di_scaled)
    if not r:
        return [(tuple(start), bound - headroom // lam)]
    lam2 = lam * lam
    lam5 = lam2 * lam2 * lam

    points: list[tuple[tuple[int, ...], int]] = []
    k = list(start)
    zed = [0] * r

    def descend(i: int, budget: int) -> None:
        c2 = lam * centre[i]
        for m, lim in li_cols[i]:
            c2 -= lim * zed[m]
        di = di_scaled[i]
        j, first, coeff, clamps, floor = levels[i]
        part = k[first]
        s = math.isqrt((budget - 1) // di)
        y_lo = -((s - c2) // lam2)
        y_hi = (c2 + s) // lam2
        if floor and y_lo < 0:
            y_lo = 0
        if clamps:
            if coeff > 0:
                if y_lo < -part:
                    y_lo = -part
            elif y_hi > part:
                y_hi = part
        u = y_lo * lam2 - c2
        for y_i in range(y_lo, y_hi + 1):
            used = di * u * u
            k[j] = y_i
            k[first] = part + coeff * y_i
            if i:
                zed[i] = lam * y_i - centre[i]
                descend(i - 1, budget - used)
            else:
                points.append((tuple(k), bound - (budget - used) // lam5))
            u += lam2
        k[first] = part

    descend(r - 1, headroom * lam2 * lam2)
    return points


# ---------------------------------------------------------------------------
# tuple certificates for truncated coefficients
# ---------------------------------------------------------------------------


class ProductCertificate(Record):
    """What every target's certificate from one :func:`product_coefficients`
    call shares: the product's factors, the precision, and the restricted
    form of the valuation Q of its units, the factors with each adjacent
    inverse pair collapsed into one unit whose index is the pair's net m.

    `gram_restricted` is the matrix of Q on the kernel lattice of the
    units' exponent constraints; `minors` are its leading principal
    minors, all positive, which proves Q is positive definite there, so
    each sublevel set Q < precision is finite, and by the pair lemma (see
    :func:`_split`) so is the set of uncollapsed tuples over it.
    `firsts` lists, for each site of the product in order, its first unit
    index f, that unit's sign e and the site's position i in a target
    vector: a target's particular solution is e * target[i] at each f and
    0 elsewhere.  `pairs` lists the unit index of each collapsed pair.
    `kernel_rank`, read from these, is the rank of the uncollapsed kernel
    lattice: the units' rank plus one per pair, whose two entries are one
    kernel direction more than its net index.
    """

    __slots__ = ()
    _fields = ("factors", "precision", "gram_restricted", "minors", "firsts", "pairs")
    _defaults = {"pairs": ()}

    @property
    def kernel_rank(self) -> int:
        return len(self.gram_restricted) + len(self.pairs)


def _pair_range(m: int, left: int) -> range:
    """The b >= 0 with 2b(b + |m|) < `left` (>= 1), those a pair of net index
    m admits: b <= (isqrt(2 left - 2 + m^2) - |m|) // 2."""
    return range((math.isqrt(2 * left - 2 + m * m) - abs(m)) // 2 + 1)


def _split(ms: Sequence[int], budget: int) -> tuple[int, int]:
    """Number and largest entry of the uncollapsed tuples over one collapsed
    point whose pairs have net indices `ms`, with `budget` = P - Q(point).

    A pair with net m is (b + |m|, b) or (b, b + |m|) for a b >= 0, and
    k_a^2 + k_b^2 = m^2 + 2b(b + |m|), so the kept b-vectors are those with
    sum 2 b_i (b_i + |m_i|) < budget.  The first pairs' b, from
    :func:`_pair_range`, are listed with the budget each leaves, and the
    last pair's counted; each pair's largest entry is |m| + its largest b.
    """
    lefts = [budget]
    for m in map(abs, ms[:-1]):
        lefts = [left - 2 * b * (b + m) for left in lefts for b in _pair_range(m, left)]
    count = sum(len(_pair_range(ms[-1], left)) for left in lefts)
    return count, max(abs(m) + len(_pair_range(m, budget)) - 1 for m in ms)


def _expand_points(
    product: ProductCertificate, points: Iterable[tuple[tuple[int, ...], int]]
) -> tuple[tuple[int, ...], ...]:
    """The sorted uncollapsed tuples over collapsed `points`, pairs of a
    point and its valuation Q: each pair's net m splits over :func:`_pair_range`."""
    out = []
    for point, qval in points:
        partial = [((), product.precision - qval)]
        for u, m in enumerate(point):
            partial = [
                (k + (b + max(m, 0), b + max(-m, 0)), left - 2 * b * (b + abs(m)))
                for k, left in partial
                for b in _pair_range(m, left)
            ] if u in product.pairs else [(k + (m,), left) for k, left in partial]
        out.extend(k for k, _ in partial)
    return tuple(sorted(out))


class TupleCertificate(Record):
    """Why the reported coefficient of one target is complete mod
    q^precision: an immutable record over its call's shared `product`
    certificate.

    `exponents` is the target vector and `reason` says how its tuples were
    found: ``"outside"`` (a nonzero exponent on a site the product does not
    touch, so the target is infeasible), ``"one_sign"`` (e * T_s < 0 at a
    site whose factors all have sign e), ``"qmin"`` (the fibre minimum of Q
    is at least the precision) or ``"walk"`` (the sublevel walk enumerated
    `points`, possibly none).  The first three leave no tuple.  `points`
    are the walk's points, each with its valuation, in the walk's order:
    a point is a tuple k, except that each collapsed pair of the product
    has one entry, its net index, and `min_valuation` is the least
    valuation among them, None without one.  `tuple_count` and
    `max_index` describe the uncollapsed tuples, counted without listing
    them, and `tuples` lists them, sorted, only when read.  What every
    target of the call shares -- the factors, the precision, the kernel rank, the restricted
    matrix and its minors -- is read from `product`, and the target's
    particular solution is laid out by ``product.firsts``.
    """

    __slots__ = ()
    _fields = ("product", "exponents", "reason", "points", "tuple_count", "max_index")
    _defaults = {"points": (), "tuple_count": 0, "max_index": 0}

    @property
    def min_valuation(self) -> Optional[int]:
        return min((q for _, q in self.points), default=None)

    @property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        return _expand_points(self.product, self.points)


def _lattice(factors: Sequence[Letter]) -> tuple[tuple, tuple, list[list[int]]]:
    """The kernel basis, first-index layout and bordered valuation form of
    a word of s-letters, a product's units, for :func:`product_coefficients`."""
    L = len(factors)
    by_site: dict[int, list[int]] = {}
    for idx, f in enumerate(factors):
        by_site.setdefault(f.site, []).append(idx)

    # kernel lattice basis of the per-site exponent constraints: vector i is
    # +1 at a non-first index j of its site and `coeff` at the site's first
    # index, so walk coordinate y_i is k_j itself
    basis = tuple(
        (j, idxs[0], -factors[idxs[0]].sign * factors[j].sign)
        for _, idxs in sorted(by_site.items())
        for j in idxs[1:]
    )

    # valuation form Q(k) = k^T G k  on Z^L: sum k^2, plus the reordering
    # phase -2 eps_i eps_j k_i k_j of w_(n+1)^(eps_i) placed left of w_n^(eps_j)
    gram = [[int(i == j) for j in range(L)] for i in range(L)]
    for i, left in enumerate(factors):
        for j in range(i + 1, L):
            if left.site == factors[j].site + 1:
                gram[i][j] = gram[j][i] = -left.sign * factors[j].sign

    # the particular solution is e * T_s at the first index of each site s
    # (e the sign there) and 0 elsewhere; with p those entries, k is
    # sum y_i (e_j + coeff * e_first) + sum p_s e_first(s), and `full` is
    # the valuation form G on these vectors: the restricted form A on the
    # walk coordinates, bordered by the blocks that give the walk's linear
    # term b = B p and its constant term c = p^T C p
    firsts = tuple(
        (idxs[0], factors[idxs[0]].sign, site - 1) for site, idxs in sorted(by_site.items())
    )
    vecs = [((j, 1), (f, c)) for j, f, c in basis] + [((g, 1),) for g, _, _ in firsts]
    full = [[sum(a * b * gram[x][y] for x, a in u for y, b in v) for v in vecs] for u in vecs]
    return basis, firsts, full


def product_coefficients(
    word: Sequence[Letter],
    sites: int,
    targets: Iterable[Sequence[int]],
    precision: int,
) -> Iterator[tuple[LaurentSeries, TupleCertificate]]:
    """Yield ``(series, certificate)`` for each target in order: the
    coefficient of the normal-ordered monomial `target`, which the
    certificate holds as its `exponents`, in the expansion of the product
    that `word` stands for on a chain of `sites` sites, complete mod
    q^precision; one target's is ``next(product_coefficients(word, sites,
    [target], precision))``.  Every letter of `word` must be an s-letter
    on a site in 1..sites, and every target a vector of `sites` exponents.

    The units, the product with each adjacent inverse pair collapsed, their
    kernel lattice and their restricted form depend only on the product and
    are built once per call, and so is the one integer elimination of that
    form, which certifies it positive definite (raising NoCertificate
    before the first target otherwise) and gives the maps from a target to
    its fibre minimum qmin and to the walk's centre; so are the walk's
    level layout, lam * precision, the Schur-complement terms, the walk's
    start template and the Euler expansion of each multiset of k met.
    Every target settled before the walk yields the call's one zero
    series.  A target with qmin >= precision has no tuple and gets no
    walk; any other costs a few short sums, at most one walk, and per
    point it keeps one shifted add of its multiset's expansion and, in a
    product with pairs, one lookup to count its split.
    """
    if precision < 1:
        raise InvalidParams("precision must be >= 1")
    factors = tuple(word)
    for x in factors:
        if not isinstance(x, Letter) or x.kind != "S":
            raise InvalidParams(f"not a factor letter: {x}")
        if x.site > sites:
            raise InvalidParams(f"letter {x} exceeds the configured {sites} sites")

    # each adjacent pair E(w^e) E(w^-e), taken greedily from the left, is
    # one unit E(w^e) whose index is the pair's net m in Z (no k >= 0
    # clamp): by the Jacobi triple product the pair is
    # sum_m (-1)^m q^(m^2) w^(e m) / (q^2;q^2)_inf, and its phase with any
    # other factor is its first member's times m
    units: list[Letter] = []
    pairs: list[int] = []
    idx = 0
    while idx < len(factors):
        f = factors[idx]
        if factors[idx + 1 : idx + 2] == (S(f.site, -f.sign),):
            pairs.append(len(units))
            idx += 1
        units.append(f)
        idx += 1

    basis, firsts, full = _lattice(units)
    rank = len(basis)
    form = _scaled_form(full, rank)
    shared = ProductCertificate(
        tuple(f"E(w{f.site}" + ("^-1)" if f.sign < 0 else ")") for f in factors),
        precision,
        tuple(tuple(row[:rank]) for row in full[:rank]),
        form.minors,
        firsts,
        tuple(pairs),
    )
    levels, raisers = _walk_levels(basis, pairs)
    # a point's single entries key its expansion, and its pairs' nets its split
    singles = [u for u in range(len(units)) if u not in pairs]
    pick, nets = (
        itemgetter(*idxs) if len(idxs) > 1 else lambda k, i=idxs: tuple(k[u] for u in i)
        for idxs in (singles, pairs)
    )

    # k_first = p_first + sum coeff * y over the site's walk coordinates is
    # the walk's side constraint; at a site whose units share one sign and
    # hold no pair every coeff is -1 (a single unit has none), so p_first < 0
    # there leaves no tuple at all
    one_sign = [(i, e) for f, e, i in firsts if f not in raisers]
    touched = {i for _, _, i in firsts}
    outside = [i for i in range(sites) if i not in touched]

    def settled(target: tuple[int, ...]) -> Optional[str]:
        # the reason a target has no tuple when its exponents alone decide
        # it, else None: a site outside the product must carry exponent
        # zero, and e * T_s < 0 at a one-sign site; plain loops, as most
        # targets of a wide box end here
        for i in outside:
            if target[i]:
                return "outside"
        for i, e in one_sign:
            if e * target[i] < 0:
                return "one_sign"
        return None

    # prod c_(k_i) = (-1)^(sum k) q^(sum k^2) / prod (q^2;q^2)_(k_i), and a
    # pair's term carries 1/(q^2;q^2)_inf: the expansion of each multiset
    # of the singles' k, in `size` powers of q^2, is built once per call
    # from one expansion of 1/(q^2;q^2)_inf^pairs (1 without a pair), and
    # a lower valuation that needs more terms makes them all longer
    zero = LaurentSeries({}, precision)
    root = (0,) * len(singles)
    expansions: dict[tuple[int, ...], list[int]] = {}
    size = (precision + 1) // 2
    # the split of each (pairs' nets, Q) met, counted once per call
    splits: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}

    # lam * (P - qmin) = lam * P - p^T H p on a target's fibre
    lam_p, h_terms = precision * form.lam, form.h_terms
    blank = [0] * len(units)

    for target in targets:
        target = tuple(target)
        if len(target) != sites:
            raise InvalidParams("target length does not match the chain")

        reason = settled(target)
        if reason:
            yield zero, TupleCertificate(shared, target, reason)
            continue

        # every point the walk returns has Q < P, and its value Q(y) is its
        # valuation; a target whose fibre minimum qmin is at least P has none
        pvec = [e * target[i] for _, e, i in firsts]
        headroom = lam_p
        for s, t, h in h_terms:
            headroom -= h * pvec[s] * pvec[t]
        if headroom <= 0:
            yield zero, TupleCertificate(shared, target, "qmin")
            continue
        centre = [sum(map(mul, row, pvec)) for row in form.centre_map]
        start = blank[:]
        for (f, _, _), p in zip(firsts, pvec):
            start[f] = p
        kept = _walk_sublevel(form, levels, start, centre, headroom, precision)
        if not kept:
            yield zero, TupleCertificate(shared, target, "walk")
            continue

        # each basis vector changes sum k by 1 + coeff, 0 or 2, and a pair's
        # net m has the parity of its k_a + k_b, so every kept point has the
        # parity of sum p, that is of sum T, and one sign (-1)^(sum k) serves
        # the whole target
        sign = -1 if sum(target) % 2 else 1
        min_val = min(qval for _, qval in kept)
        # Q can be negative, so the expansions used here must cover
        # P - min(0, Q) powers of q, which is this many powers of q^2
        need = (precision - min(0, min_val) + 1) // 2
        if need > size or not expansions:
            size = max(size, need)
            # 1/(q^2;q^2)_inf and 1/(q^2;q^2)_(size-1) agree on `size`
            # powers of q^2
            expansions = {root: euler_expansion({}, (size - 1,) * len(pairs), size)}

        # each kept point adds its numerator q^Q times the expansion of the
        # multiset of its singles' k (sorted: every key of a call has the
        # same length, so its zeros do not change it) to the even or odd
        # powers of a dense accumulator
        acc = [0] * (precision - min_val)
        top = 0
        for k, qval in kept:
            orders = tuple(sorted(pick(k) if pairs else k))
            denom = expansions.get(orders) or euler_expansion(expansions, orders, size)
            lo = qval - min_val
            acc[lo::2] = [a + d for a, d in zip(acc[lo::2], denom)]
            if orders and orders[-1] > top:
                top = orders[-1]
        total = LaurentSeries({min_val + i: sign * c for i, c in enumerate(acc)}, precision)

        count = len(kept)
        if pairs:
            count = 0
            for k, qval in kept:
                key = nets(k), qval
                split = splits.get(key)
                if split is None:
                    split = splits[key] = _split(key[0], precision - qval)
                count += split[0]
                if split[1] > top:
                    top = split[1]
        yield total, TupleCertificate(shared, target, "walk", tuple(kept), count, top)


# ---------------------------------------------------------------------------
# exact engine for polynomial arguments
# ---------------------------------------------------------------------------


def exact_window_map(
    args: Sequence[Element],
    window: int,
) -> tuple[dict[tuple[int, ...], FactoredRational], int]:
    """Exact coefficients of  E(x_1) ... E(x_L)  on the window of exponent
    vectors with every component in 0..window.

    Every argument must be a polynomial in the generators: each monomial
    needs all site exponents >= 0 (and at least one positive), so exponent
    vectors only grow along a product and the window prunes soundly.
    Returns (target -> coefficient, largest series order that contributed);
    each coefficient is a nonzero :class:`FactoredRational`, compared with
    ``==`` and printed in its canonical form.
    """
    if not args:
        raise InvalidParams("need at least one factor")
    if window < 0:
        raise InvalidParams("window must be >= 0")
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

    # exponent vectors only grow along a product, so every product is taken
    # inside the window.  A leaf is (partial product, sum of k^2, orders k);
    # each argument x replaces a leaf by it times x^k for k = 0, 1, ...
    leaves = [({(0,) * sites: {0: 1}}, 0, ())]
    for x in args:
        grown = []
        for terms, qpow, ks in leaves:
            k = 0
            # x's monomials have positive degree, so the product is empty once k > sites * window
            while terms:
                grown.append((terms, qpow + k * k, ks + (k,)))
                terms = mul_terms(terms, x.terms, window)
                k += 1
        leaves = grown
    max_order = max(max(ks) for _, _, ks in leaves)

    # leaf numerators summed as integers: target -> sorted orders -> Laurent
    # numerator over their denominator (an order 0 adds no factor)
    sums: dict[tuple[int, ...], dict[tuple[int, ...], dict[int, int]]] = {}
    for terms, qpow, ks in leaves:
        ks = tuple(sorted(ks))
        for vec, coeff in terms.items():
            num = sums.setdefault(vec, {}).setdefault(ks, {})
            for e, c in coeff.items():
                num[e + qpow] = num.get(e + qpow, 0) + c

    # each target's classes, smallest multiset first, join one running sum:
    # the factors a class lacks widen it, and those the sum lacks widen the sum
    euler: dict[int, Counter] = {}
    dens: dict[tuple[int, ...], dict[int, int]] = {}
    out: dict[tuple[int, ...], FactoredRational] = {}
    for vec, classes in sums.items():
        total: dict[int, int] = {}
        den: dict[int, int] = {}
        for ks in sorted(classes):
            if ks not in dens:
                dens[ks] = d = {}
                for k in ks:
                    if k not in euler:
                        euler[k] = euler_denominator_factors(k)
                    for f, m in euler[k].items():
                        d[f] = d.get(f, 0) + m
            d, num = dens[ks], classes[ks]
            grow = {f: m - den.get(f, 0) for f, m in d.items() if m > den.get(f, 0)}
            lift = {f: m - d.get(f, 0) for f, m in den.items() if m > d.get(f, 0)}
            if grow and total:
                total = widen(total, grow)
            for e, c in (widen(num, lift) if lift else num).items():
                total[e] = total.get(e, 0) + c
            den.update((f, d[f]) for f in grow)
        value = FactoredRational(total, den)
        if not value.is_zero():
            out[vec] = value
    return out, max_order
