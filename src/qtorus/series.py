"""Truncated integer Laurent series, and exact rational functions of q.

Two coefficient domains are provided:

* :class:`LaurentSeries` -- the truncated engine's result: a Laurent
  polynomial in q with integer coefficients known mod q^P for a precision
  P, so coefficients of ``q**e`` for ``e >= P`` are unknown.  It is built,
  compared and printed, never fed to arithmetic.  Exact Laurent polynomials
  (the coefficients of an :class:`~qtorus.algebra.Element`) are plain
  ``{exponent: int}`` dicts.

* :class:`FactoredRational` -- the exact engine's result: a rational
  function of q held as a Laurent numerator over a product of cyclotomic
  polynomials.  Equality needs no reduction: :func:`widen` brings both
  numerators to a common denominator and they are compared.
  :meth:`FactoredRational.canonical` reduces a value to its coprime
  (numerator, monic denominator) pair, which is what ``str`` prints.
  Cyclotomic polynomials are monic, so that reduction needs only exact
  division over Z, never a polynomial gcd or rational coefficients, and a
  monomial numerator needs none at all.

A product of cyclotomic polynomials is expanded once per multiset of
factors by ``_expand_factors``, which keeps expansions in a bounded cache:
by Moebius inversion of  q^n - 1 = prod_{d|n} cyclotomic(d)  the product is
a signed product and quotient of factors (1 - q^n), so each multiplication
is one in-place pass and each exact division one running sum, cut at the
known degree.  :func:`widen`, the one function that puts a value over a
larger denominator, multiplies a Laurent numerator by that expansion.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Mapping, Optional

from .qexp import divide_by_one_minus

__all__ = [
    "LaurentSeries",
    "FactoredRational",
    "cyclotomic",
    "widen",
]


# ---------------------------------------------------------------------------
# dict-backed Laurent polynomial kernels (exponent -> nonzero int coefficient)
# ---------------------------------------------------------------------------


def _ladd(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _term_str(exp: int, coeff: int) -> str:
    mag = abs(coeff)
    if exp == 0:
        return str(mag)
    if mag == 1:
        return f"q^{exp}"
    return f"{mag}*q^{exp}"


def _laurent_str(coeffs: Mapping[int, int]) -> str:
    if not coeffs:
        return "0"
    parts: list[str] = []
    for e in sorted(coeffs):
        c = coeffs[e]
        if not parts:
            parts.append(("-" if c < 0 else "") + _term_str(e, c))
        else:
            parts.append((" - " if c < 0 else " + ") + _term_str(e, c))
    return "".join(parts)


# ---------------------------------------------------------------------------
# LaurentSeries
# ---------------------------------------------------------------------------


class LaurentSeries:
    """Integer Laurent polynomial in q known mod q^precision, built from a
    mapping exponent -> coefficient.

    The stored coefficients are the nonzero ones below the precision P;
    anything at or above P is unknown.  A series is a result: it has no
    arithmetic.
    """

    __slots__ = ("_coeffs", "_precision")

    def __init__(self, coeffs: Mapping[int, int], precision: int) -> None:
        self._coeffs = {e: c for e, c in coeffs.items() if c and e < precision}
        self._precision = precision

    # -- inspection --------------------------------------------------------

    @property
    def precision(self) -> int:
        return self._precision

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes mod q^P."""
        return not self._coeffs

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._coeffs == other._coeffs and self._precision == other._precision

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LaurentSeries({self._coeffs!r}, precision={self._precision!r})"

    def __str__(self) -> str:
        return f"{_laurent_str(self._coeffs)} (mod q^{self._precision})"


# ---------------------------------------------------------------------------
# dense integer polynomial kernels (index = exponent, ascending, trimmed)
# ---------------------------------------------------------------------------


def _pdiv_monic(a: tuple[int, ...], b: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Quotient a/b in Z[q] for trimmed a and monic b, trimmed as its top
    coefficient is a's, or None when b does not divide a."""
    n = len(b) - 1
    low_terms = [(j, c) for j, c in enumerate(b[:n]) if c]
    rem = list(a)
    quot = [0] * max(len(rem) - n, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + n]
        if c:
            quot[i] = c
            for j, bj in low_terms:
                rem[i + j] -= c * bj
    if any(rem[:n]):
        return None
    return tuple(quot)


def _poly_str(p: tuple[int, ...]) -> str:
    return _laurent_str({e: c for e, c in enumerate(p) if c})


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------


def cyclotomic(n: int) -> tuple[int, ...]:
    """Dense coefficient tuple of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return _expand_factors(((n, 1),))


# ---------------------------------------------------------------------------
# FactoredRational: rational functions over cyclotomic-product denominators
# ---------------------------------------------------------------------------


def _factor_key(factors: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((d, m) for d, m in factors.items() if m > 0))


@lru_cache(maxsize=256)
def _expand_factors(key: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Dense product of cyclotomic(d)**m over the (d, m) pairs of `key`.

    Peeling  q^n - 1 = prod_{d|n} cyclotomic(d)  off the largest index first
    (Moebius inversion) writes the product as  prod_n (q^n - 1)^e_n, that
    is  (-1)^(sum e_n) * prod_n (1 - q^n)^e_n,  of known degree
    D = sum_n n * e_n.  Every pass works modulo q^(D+1): each factor with
    e_n > 0 is one in-place multiplication pass, and as the quotient is a
    polynomial of that length, each division is one running sum.
    """
    rest = dict(key)
    exps: dict[int, int] = {}
    while rest:
        n = max(rest)
        if e := rest.pop(n):
            exps[n] = e
            for d in range(1, n // 2 + 1):
                if n % d == 0:
                    rest[d] = rest.get(d, 0) - e
    dense = [-1 if sum(exps.values()) % 2 else 1] + [0] * sum(n * e for n, e in exps.items())
    for n, e in exps.items():
        for _ in range(e):
            dense[n:] = [a - b for a, b in zip(dense[n:], dense)]
    for n, e in exps.items():
        for _ in range(-e):
            divide_by_one_minus(dense, n)
    return tuple(dense)


def widen(num: Mapping[int, int], factors: Mapping[int, int]) -> dict[int, int]:
    """The Laurent polynomial `num` times the product of cyclotomic(d)**m
    over the items (d, m) of `factors`, from that product's cached
    expansion.  Zero entries of either side are skipped."""
    terms = [(e, c) for e, c in enumerate(_expand_factors(_factor_key(factors))) if c]
    out: dict[int, int] = {}
    for ea, ca in num.items():
        if not ca:
            continue
        for eb, cb in terms:
            e = ea + eb
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                del out[e]
    return out


class FactoredRational:
    """A rational function of q held as (Laurent numerator) / (product of
    cyclotomic polynomials).  ``==`` compares values without division;
    :meth:`canonical` gives the reduced form, which ``str`` prints.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Mapping[int, int] = (), den: Optional[Counter] = None) -> None:
        self.num = {e: c for e, c in dict(num).items() if c}
        d = Counter() if den is None else Counter({k: v for k, v in den.items() if v})
        if any(k < 1 or v < 0 for k, v in d.items()):
            raise ValueError("cyclotomic index below 1 or negative factor multiplicity")
        self.den = d if self.num else Counter()

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        """Value equality without division: both numerators are widened to
        the pointwise-max denominator and compared, so two values are equal
        exactly when their canonical forms are."""
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return widen(self.num, other.den - self.den) == widen(other.num, self.den - other.den)

    __hash__ = None  # type: ignore[assignment]

    def canonical(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(numerator, denominator) as dense coefficient tuples (index =
        exponent), coprime in Z[q], with a monic denominator; zero is
        ``((), (1,))``."""
        if not self.num:
            return (), (1,)
        shift = min(self.num)
        num_poly = tuple(self.num.get(e, 0) for e in range(min(shift, 0), max(self.num) + 1))
        # strip cyclotomic factors shared with the numerator; none divides a
        # monomial, since cyclotomic(d) has constant term +-1, and for shift < 0
        # the numerator keeps its nonzero constant term, coprime to q^-shift
        den = Counter(self.den)
        for d in sorted(den) if len(self.num) > 1 else ():
            phi = cyclotomic(d)
            while den[d] > 0:
                q = _pdiv_monic(num_poly, phi)
                if q is None:
                    break
                num_poly = q
                den[d] -= 1
        return num_poly, (0,) * max(0, -shift) + _expand_factors(_factor_key(den))

    def __repr__(self) -> str:
        return f"FactoredRational({self.num!r}, {dict(self.den)!r})"

    def __str__(self) -> str:
        num, den = self.canonical()
        ns = _poly_str(num)
        if den == (1,):
            return ns
        if len([c for c in num if c]) > 1:
            ns = f"({ns})"
        return f"{ns}/({_poly_str(den)})"
