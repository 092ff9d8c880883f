"""The q-exponential  E(x) = prod_{n>=0} (1 - x q^(2n+1))  and its series form.

Expanding the infinite product gives

    E(x) = sum_{k>=0} c_k x^k,
    c_k  = (-1)^k q^(k^2) / prod_{j=1..k} (1 - q^(2j)),

so every coefficient is a rational function of q whose denominator is a
product of cyclotomic polynomials and whose numerator is a single power of q
(after sign cancellation:  1 - q^(2j) = - prod_{d | 2j} cyclotomic_d(q),  so
c_k = q^(k^2) / prod_{j<=k} prod_{d|2j} cyclotomic_d(q)).  Counting the j
with d | 2j gives each multiplicity directly (:func:`euler_denominator_factors`).

:func:`euler_coeff_exact` reduces c_k to a canonical rational function;
:func:`euler_coeff_truncated` gives c_k mod q^P directly from partition
counts:  1/prod_{j<=k} (1 - q^(2j)) = sum_n p_k(n) q^(2n),  with p_k(n) the
number of partitions of n into parts <= k.  :func:`divide_by_pochhammers`
is that running-sum kernel on a dense list; it also assembles whole
products of c_k in the truncated engine, where each term's valuation comes
from the sublevel walk.

Two computable forms are provided for algebra elements x:

* :func:`qexp_series` -- the truncated sum  sum_{k<=order} c_k x^k.
* :func:`qexp_product` -- the finite product  prod_{n<depth} (1 - x q^(2n+1)).

A finite product determines the coefficient of x^k modulo q^P once enough
factors are included: dropping factor n changes that coefficient only in
exponents >= (k-1)^2 + 2n + 1 + v_k, where v_k is the smallest coefficient
valuation occurring in the normal-ordered power x^k (zero for a plain
generator, negative when scaling or reordering phases push terms down).
:func:`stable_depth` returns a depth beyond which every coefficient up to the
requested order is frozen mod q^P for plain-generator arguments;
:func:`stable_depth_for` computes the argument-aware depth.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .algebra import Element
from .series import FactoredRational, LaurentSeries, RationalQ

__all__ = [
    "euler_coeff_exact",
    "euler_coeff_factored",
    "euler_coeff_truncated",
    "euler_denominator_factors",
    "divide_by_pochhammers",
    "qexp_series",
    "qexp_product",
    "stable_depth",
    "stable_depth_for",
]


def euler_denominator_factors(k: int) -> Counter:
    """Cyclotomic factorization (index -> multiplicity) of
    (-1)^k * prod_{j=1..k} (1 - q^(2j)),  which is a *monic positive* product
    of cyclotomic polynomials.

    cyclotomic_d divides 1 - q^(2j) exactly when d | 2j, so it occurs
    floor(2k/d) times for even d and floor(k/d) times for odd d."""
    if k < 0:
        raise ValueError("order must be >= 0")
    return Counter(
        {d: (k if d % 2 else 2 * k) // d for d in range(1, 2 * k + 1) if d % 2 == 0 or d <= k}
    )


def euler_coeff_factored(k: int) -> FactoredRational:
    """c_k as a factored rational:  q^(k^2) over cyclotomic factors."""
    return FactoredRational({k * k: 1}, euler_denominator_factors(k))


def euler_coeff_exact(k: int) -> RationalQ:
    return euler_coeff_factored(k).to_rational_q()


def divide_by_pochhammers(dense: list[int], orders: Iterable[int]) -> list[int]:
    """Multiply the dense series `dense` (index = exponent of q) in place by
    prod_{k in orders} 1/(q^2;q^2)_k, truncated at its length, and return it.

    1/(q^2;q^2)_k = prod_{j<=k} 1/(1 - q^(2j)), and multiplying by one factor
    1/(1 - q^(2j)) is a single running-sum pass; the result counts partitions
    into even parts from the multiset union of {2, 4, ..., 2k}.
    """
    n = len(dense)
    for k in orders:
        for part in range(2, min(2 * k, n - 1) + 1, 2):
            for i in range(part, n):
                dense[i] += dense[i - part]
    return dense


def euler_coeff_truncated(k: int, precision: int) -> LaurentSeries:
    """c_k mod q^precision, by partition counts: no series is ever inverted."""
    if k < 0:
        raise ValueError("order must be >= 0")
    dense = [0] * max(precision - k * k, 0)
    if dense:
        dense[0] = -1 if k % 2 else 1
    divide_by_pochhammers(dense, (k,))
    return LaurentSeries({k * k + i: c for i, c in enumerate(dense) if c}, precision)


def _power_headroom(power: Element) -> int:
    """Extra q-adic working precision needed so that truncating c_k before
    scaling the (already normal-ordered) power x^k cannot erase terms that a
    negative reordering phase would bring back below the target precision."""
    room = 0
    for coeff in power.terms.values():
        v = coeff.valuation()
        if v < 0:
            room = max(room, -int(v))
    return room


def qexp_series(x: Element, order: int, precision: int) -> Element:
    """sum_{k=0..order} c_k x^k with every monomial coefficient of the result
    correct (and truncated) mod q^precision.

    The powers x^k are formed first; c_k is then truncated with headroom for
    the most negative coefficient valuation occurring in x^k, so arguments
    whose normal ordering produces negative q-phases (mixed-site monomials,
    inverse generators) do not silently lose contributions."""
    acc = Element.identity(x.config, precision)
    power = Element.identity(x.config)
    for k in range(1, order + 1):
        power = power * x
        c = euler_coeff_truncated(k, precision + _power_headroom(power))
        acc = acc + power.scale(c)
    return acc.truncate(precision)


def qexp_product(x: Element, depth: int | None, precision: int) -> Element:
    """prod_{n=0..depth-1} (1 - x q^(2n+1)), factors multiplied left to right,
    with all coefficients truncated mod q^precision.

    The result is the literal finite product.  It agrees with the full
    q-exponential mod q^precision only when depth is large enough; the
    default depth ceil(P/2) suffices for plain-generator arguments (every
    coefficient of x^k is then frozen mod q^P), while arguments whose powers
    carry negative coefficient valuations need the larger depth returned by
    :func:`stable_depth_for`.  The q-power in each factor is kept exact, so
    intermediate precision tracking never loses terms to a pessimistic bound;
    per-monomial precision of the result may still be below P for arguments
    with negative valuations (see Element.min_precision)."""
    if depth is None:
        depth = (precision + 1) // 2
    acc = Element.identity(x.config, precision)
    for n in range(depth):
        shift = LaurentSeries.monomial(2 * n + 1, 1)
        factor = Element.identity(x.config) - x.scale(shift)
        acc = acc * factor
    return acc.truncate(precision)


def stable_depth(order: int, precision: int) -> int:
    """A number of factors after which the coefficients of x^0..x^order are
    frozen mod q^precision, using the bound  depth >= (P - k^2)/2 + k.

    Assumes a plain-generator argument (no negative coefficient valuations in
    the powers of x); use :func:`stable_depth_for` otherwise."""
    best = 1
    for k in range(1, max(1, order) + 1):
        need = (precision - k * k + 1) // 2 + k
        if need > best:
            best = need
    return best


def stable_depth_for(x: Element, order: int, precision: int) -> int:
    """Argument-aware product depth: after this many factors the coefficients
    of x^0..x^order are frozen mod q^precision.

    Selecting the x-term from a set S of factors contributes
    q^(sum of the odd powers over S) times the normal-ordered content of
    x^|S|, so factor n first influences the order-k coefficient at exponent
    (k-1)^2 + 2n + 1 + v_k with v_k the smallest coefficient valuation in
    x^k.  The depth returned makes that threshold reach q^precision for every
    k <= order."""
    best = 1
    power = Element.identity(x.config)
    for k in range(1, max(1, order) + 1):
        power = power * x
        v_k = 0
        for coeff in power.terms.values():
            v = coeff.valuation()
            if v < v_k:
                v_k = int(v)
        # smallest depth d with (k-1)^2 + 2d + 1 + v_k >= precision
        need = -((precision - 1 - (k - 1) ** 2 - v_k) // -2)
        if need > best:
            best = need
    return best
