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
of partitions of n into parts <= k.  :func:`divide_by_pochhammers` is that
running-sum kernel on a dense list; it expands the denominator of a whole
product of c_k, and the engine adds shifted copies of it at each term's
valuation from the sublevel walk, so no series is ever multiplied or
inverted.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

__all__ = [
    "euler_denominator_factors",
    "divide_by_pochhammers",
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
