"""Coefficients of the q-exponential  E(x) = prod_{n>=0} (1 - x q^(2n+1)).

Expanding the infinite product gives

    E(x) = sum_{k>=0} c_k x^k,
    c_k  = (-1)^k q^(k^2) / prod_{j=1..k} (1 - q^(2j)),

so every coefficient is a rational function of q whose denominator is a
product of cyclotomic polynomials and whose numerator is a single power of q
(after sign cancellation:  1 - q^(2j) = - prod_{d | 2j} cyclotomic_d(q),  so
c_k = q^(k^2) / prod_{j<=k} prod_{d|2j} cyclotomic_d(q)).  Counting the j
with d | 2j gives each multiplicity directly (:func:`euler_denominator_factors`);
the exact engine builds c_k from it as a factored rational function.

The truncated engine expands c_k mod q^P from partition counts instead:
1/prod_{j<=k} (1 - q^(2j)) = sum_n p_k(n) q^(2n),  with p_k(n) the number
of partitions of n into parts <= k.  :func:`euler_expansion` expands the
denominator of a whole product of c_k in powers of q^2, one multiset of k
at a time: each multiset is its parent's expansion (its largest entry
lowered by one) after one running-sum pass of :func:`divide_by_one_minus`.
The engine adds shifted copies of it at each term's valuation from the
sublevel walk, so no series is ever multiplied or inverted.
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "euler_denominator_factors",
    "divide_by_one_minus",
    "euler_expansion",
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


def divide_by_one_minus(dense: list[int], part: int) -> list[int]:
    """Multiply the dense series `dense` (index = exponent of x) in place by
    1/(1 - x^part), truncated at its length, and return it: one running-sum
    pass."""
    for i in range(part, len(dense)):
        dense[i] += dense[i - part]
    return dense


def euler_expansion(
    expansions: dict[tuple[int, ...], list[int]], orders: tuple[int, ...], size: int
) -> list[int]:
    """The first `size` coefficients of prod_{k in orders} 1/(x;x)_k, for a
    sorted tuple `orders`, in powers of x = q^2.

    `expansions` holds the expansions already built, all `size` long; this
    one and every one it needs are added to it.  The parent of a multiset is
    the same multiset with its largest entry m lowered by one, and the two
    differ by the single factor 1/(1 - x^m), so each expansion is a copy of
    its parent's after one running-sum pass.  A multiset of zeros gives 1.
    """
    if any(k < 0 for k in orders):
        raise ValueError("order must be >= 0")
    chain = []
    while orders not in expansions:
        if not orders or not orders[-1]:
            expansions[orders] = [int(i == 0) for i in range(size)]
            break
        chain.append(orders)
        # lower the first copy of the largest entry, so the key stays sorted
        top = orders.index(orders[-1])
        orders = orders[:top] + (orders[top] - 1,) + orders[top + 1:]
    dense = expansions[orders]
    for orders in reversed(chain):
        dense = expansions[orders] = divide_by_one_minus(dense[:], orders[-1])
    return dense
