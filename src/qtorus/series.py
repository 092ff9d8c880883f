"""Truncated integer Laurent series, and exact rational functions of q.

Two coefficient domains are provided:

* :class:`LaurentSeries` -- the truncated engine's result: a Laurent
  polynomial in q with integer coefficients known mod q^P for a precision
  P, so coefficients of ``q**e`` for ``e >= P`` are unknown.  It is built,
  compared and printed, never fed to arithmetic.  Exact Laurent polynomials
  (the coefficients of an :class:`~qtorus.algebra.Element`) are plain
  ``{exponent: int}`` dicts.

* :class:`RationalQ` -- a quotient of integer polynomials in q in canonical
  reduced form (coprime, monic denominator), so that equality is structural.
  Its constructor trusts the caller; canonical values come from
  :meth:`FactoredRational.to_rational_q`.

:class:`FactoredRational` is an accumulator for sums of rational functions
whose denominators are products of cyclotomic polynomials.  Cyclotomic
polynomials are monic, so reducing such a sum to its canonical
:class:`RationalQ` needs only exact division over Z, never a polynomial gcd
or rational coefficients, and a monomial numerator needs none at all.
:class:`FactoredRational` equality needs no reduction either: it brings
both numerators to a common denominator and compares them.

Every multiplication by a product of cyclotomic polynomials, single ones
included, runs through one function, ``_times_factors``: by Moebius
inversion of  q^n - 1 = prod_{d|n} cyclotomic(d)  the product is a signed
product and quotient of factors (1 - q^n), so each multiplication is one
in-place pass and each exact division one running sum, cut at the known
degree.  ``_expand_factors`` keeps expansions in a bounded cache, and
:func:`widen` runs the passes on a Laurent numerator, with no expansion.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping, Optional

from .qexp import divide_by_one_minus

__all__ = [
    "LaurentSeries",
    "RationalQ",
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


def _lmul(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Product of two Laurent dicts.  Zero entries are skipped: the dense
    denominator expansions that :meth:`FactoredRational._over` passes hold them."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        if not ca:
            continue
        for eb, cb in b.items():
            if not cb:
                continue
            e = ea + eb
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                del out[e]
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
    """Integer Laurent polynomial in q known mod q^precision.

    The stored coefficients cover exactly the exponents below the
    precision P; anything at or above P is unknown.  A series is a result:
    it has no arithmetic.
    """

    __slots__ = ("_coeffs", "_precision")

    def __init__(
        self,
        coeffs: Mapping[int, int] | Iterable[tuple[int, int]],
        precision: int,
    ) -> None:
        self._coeffs = {e: c for e, c in dict(coeffs).items() if c and e < precision}
        self._precision = precision

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, coeffs: dict[int, int], precision: int) -> "LaurentSeries":
        """A series that keeps `coeffs` as given: the caller guarantees that
        every coefficient is nonzero and every exponent lies below the
        precision, which the public constructor would check."""
        series = cls.__new__(cls)
        series._coeffs = coeffs
        series._precision = precision
        return series

    @classmethod
    def zero(cls, precision: int) -> "LaurentSeries":
        return cls({}, precision)

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


def _ptrim(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def _pdiv_monic(a: tuple[int, ...], b: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Quotient a/b in Z[q] for trimmed a and monic b, or None when b does
    not divide a."""
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
    return _ptrim(tuple(quot))


def _poly_str(p: tuple[int, ...]) -> str:
    return _laurent_str({e: c for e, c in enumerate(p) if c})


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Dense coefficient tuple of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return _expand_factors(((n, 1),))


# ---------------------------------------------------------------------------
# RationalQ
# ---------------------------------------------------------------------------


class RationalQ:
    """Quotient of integer polynomials in q in canonical reduced form.

    Canonical form: numerator and denominator are coprime in Z[q], the
    denominator is monic, and zero is stored as 0/1.  Equality is structural.
    The constructor only trims trailing zeros; the caller guarantees the
    rest, as :meth:`FactoredRational.to_rational_q` does.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[int] = (), den: Iterable[int] = (1,)) -> None:
        n = _ptrim(tuple(num))
        self.num, self.den = n, _ptrim(tuple(den)) if n else (1,)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalQ({list(self.num)!r}, {list(self.den)!r})"

    def __str__(self) -> str:
        ns = _poly_str(self.num)
        if self.den == (1,):
            return ns
        if len([c for c in self.num if c]) > 1:
            ns = f"({ns})"
        return f"{ns}/({_poly_str(self.den)})"


# ---------------------------------------------------------------------------
# FactoredRational: sums over cyclotomic-product denominators
# ---------------------------------------------------------------------------


def _factor_key(factors: Counter) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((d, m) for d, m in factors.items() if m > 0))


def _times_factors(dense: list[int], factors: Mapping[int, int]) -> list[int]:
    """Multiply the integer polynomial `dense` (index = exponent) in place
    by the product of cyclotomic(d)**m over the items (d, m) of `factors`,
    and return it.

    Peeling  q^n - 1 = prod_{d|n} cyclotomic(d)  off the largest index first
    (Moebius inversion) writes the product as  prod_n (q^n - 1)^e_n, that
    is  (-1)^(sum e_n) * prod_n (1 - q^n)^e_n,  of known degree
    D = sum_n n * e_n.  The list grows by D, and every pass works modulo
    q^len: each factor with e_n > 0 is one in-place multiplication pass, and
    as the quotient is a polynomial of that length, each division is one
    running sum.
    """
    rest = dict(factors)
    exps: dict[int, int] = {}
    while rest:
        n = max(rest)
        if e := rest.pop(n):
            exps[n] = e
            for d in range(1, n // 2 + 1):
                if n % d == 0:
                    rest[d] = rest.get(d, 0) - e
    dense.extend([0] * sum(n * e for n, e in exps.items()))
    if sum(exps.values()) % 2:
        dense[:] = [-c for c in dense]
    for n, e in exps.items():
        for _ in range(e):
            dense[n:] = [a - b for a, b in zip(dense[n:], dense)]
    for n, e in exps.items():
        for _ in range(-e):
            divide_by_one_minus(dense, n)
    return dense


def widen(num: Mapping[int, int], factors: Mapping[int, int]) -> dict[int, int]:
    """The Laurent polynomial `num` times the product of cyclotomic(d)**m
    over the items (d, m) of `factors`, by :func:`_times_factors`."""
    if not num:
        return {}
    lo = min(num)
    dense = _times_factors([num.get(e, 0) for e in range(lo, max(num) + 1)], factors)
    return {e: c for e, c in enumerate(dense, lo) if c}


@lru_cache(maxsize=256)
def _expand_factors(key: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Dense product of cyclotomic(d)**m over the (d, m) pairs of `key`."""
    return tuple(_times_factors([1], dict(key)))


class FactoredRational:
    """A rational function of q held as (Laurent numerator) / (product of
    cyclotomic polynomials).  Cheap to add when denominators share factors;
    converts to canonical :class:`RationalQ` on demand.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Mapping[int, int] = (), den: Optional[Counter] = None) -> None:
        self.num = {e: c for e, c in dict(num).items() if c}
        d = Counter() if den is None else Counter({k: v for k, v in den.items() if v})
        if any(v < 0 for v in d.values()):
            raise ValueError("negative factor multiplicity")
        self.den = d if self.num else Counter()

    @classmethod
    def zero(cls) -> "FactoredRational":
        return cls({}, None)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "FactoredRational") -> "FactoredRational":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        union = self.den | other.den  # pointwise max
        return FactoredRational(_ladd(self._over(other), other._over(self)), union)

    def _over(self, other: "FactoredRational") -> dict[int, int]:
        """The numerator of this value over the pointwise max of its own
        denominator and `other`'s."""
        extra = other.den - self.den
        if not extra:
            return self.num
        return _lmul(self.num, dict(enumerate(_expand_factors(_factor_key(extra)))))

    def __eq__(self, other: object) -> bool:
        """Value equality without division: both numerators are brought to
        the pointwise-max denominator and compared, so two values are equal
        exactly when their canonical forms are."""
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self._over(other) == other._over(self)

    __hash__ = None  # type: ignore[assignment]

    def to_rational_q(self) -> RationalQ:
        if not self.num:
            return RationalQ()
        shift = min(self.num)
        num_poly = _ptrim(tuple(self.num.get(e, 0) for e in range(min(shift, 0), max(self.num) + 1)))
        q_power = max(0, -shift)
        # strip cyclotomic factors shared with the numerator; none divides a
        # monomial, since cyclotomic(d) has constant term +-1
        den = Counter(self.den)
        for d in sorted(den) if len(self.num) > 1 else ():
            phi = cyclotomic(d)
            while den[d] > 0:
                q = _pdiv_monic(num_poly, phi)
                if q is None:
                    break
                num_poly = q
                den[d] -= 1
        # strip powers of q shared with the numerator
        if q_power:
            val = next(i for i, c in enumerate(num_poly) if c)
            drop = min(q_power, val)
            if drop:
                num_poly = num_poly[drop:]
                q_power -= drop
        return RationalQ(num_poly, (0,) * q_power + _expand_factors(_factor_key(den)))

    def __repr__(self) -> str:
        return f"FactoredRational({self.num!r}, {dict(self.den)!r})"

    def __str__(self) -> str:
        return str(self.to_rational_q())
