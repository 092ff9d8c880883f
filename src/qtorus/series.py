"""Integer Laurent series with a truncation order, and exact rational
functions of q.

Two coefficient domains are provided:

* :class:`LaurentSeries` -- a Laurent polynomial in q with integer
  coefficients, together with an optional *precision* P.  ``precision is
  None`` means the series is exact, and only exact series take part in
  arithmetic.  A finite precision means coefficients of ``q**e`` for
  ``e >= P`` are unknown; such a series is a result (of the truncated
  engine): it can be built, compared, printed and read coefficient by
  coefficient, and any arithmetic on it raises :class:`PrecisionError`.

* :class:`RationalQ` -- a quotient of integer polynomials in q in canonical
  reduced form (coprime, monic denominator), so that equality is structural.
  Its constructor trusts the caller; canonical values come from
  :meth:`FactoredRational.to_rational_q`.

:class:`FactoredRational` is an accumulator for sums of rational functions
whose denominators are products of cyclotomic polynomials.  Cyclotomic
polynomials are monic, so reducing such a sum to its canonical
:class:`RationalQ` needs only exact division over Z, never a polynomial gcd
or rational coefficients.  Two values are equal exactly when their canonical
forms are, so :class:`FactoredRational` equality compares canonical forms.
Every product of cyclotomic polynomials is expanded by one function,
``_expand_factors``, whose cache is bounded.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping, Optional

from .errors import PrecisionError

__all__ = [
    "LaurentSeries",
    "RationalQ",
    "FactoredRational",
    "cyclotomic",
]


# ---------------------------------------------------------------------------
# dict-backed Laurent polynomial kernels (exponent -> nonzero int coefficient)
# ---------------------------------------------------------------------------


def _lclean(d: dict[int, int]) -> dict[int, int]:
    return {e: c for e, c in d.items() if c}


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
    denominator expansions that :meth:`FactoredRational.__add__` passes hold them."""
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
    """Integer Laurent polynomial in q with an optional truncation order.

    ``precision is None`` marks an exact series.  With finite precision P the
    stored coefficients cover exactly the exponents below P; anything at or
    above P is unknown.  Arithmetic (``+``, unary ``-``, ``*`` and
    :meth:`shift`) is defined on exact series only and raises
    :class:`PrecisionError` when an operand is truncated.
    """

    __slots__ = ("_coeffs", "_precision")

    def __init__(
        self,
        coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = (),
        precision: Optional[int] = None,
    ) -> None:
        d = _lclean(dict(coeffs))
        if precision is not None:
            d = {e: c for e, c in d.items() if e < precision}
        self._coeffs = d
        self._precision = precision

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision: Optional[int] = None) -> "LaurentSeries":
        return cls({}, precision)

    @classmethod
    def one(cls) -> "LaurentSeries":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentSeries":
        return cls({exp: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def precision(self) -> Optional[int]:
        return self._precision

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def coefficient(self, exp: int) -> int:
        if self._precision is not None and exp >= self._precision:
            raise PrecisionError(
                f"coefficient of q^{exp} requested but series is only known mod q^{self._precision}"
            )
        return self._coeffs.get(exp, 0)

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes (mod q^P if truncated)."""
        return not self._coeffs

    def known_exactly(self) -> bool:
        return self._precision is None

    # -- arithmetic (exact series only) -------------------------------------

    def _exact(self, *others: "LaurentSeries") -> None:
        for s in (self, *others):
            if s._precision is not None:
                raise PrecisionError(
                    f"series arithmetic needs exact operands; got one known only mod q^{s._precision}"
                )

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._exact(other)
        return LaurentSeries(_ladd(self._coeffs, other._coeffs))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        self._exact()
        return LaurentSeries({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._exact(other)
        return LaurentSeries(_lmul(self._coeffs, other._coeffs))

    def shift(self, m: int) -> "LaurentSeries":
        """Multiply by q**m."""
        self._exact()
        return LaurentSeries({e + m: c for e, c in self._coeffs.items()})

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._coeffs == other._coeffs and self._precision == other._precision

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LaurentSeries({self._coeffs!r}, precision={self._precision!r})"

    def __str__(self) -> str:
        body = _laurent_str(self._coeffs)
        if self._precision is None:
            return body
        return f"{body} (mod q^{self._precision})"


# ---------------------------------------------------------------------------
# dense integer polynomial kernels (index = exponent, ascending, trimmed)
# ---------------------------------------------------------------------------


def _ptrim(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _ptrim(tuple(out))


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


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


@lru_cache(maxsize=256)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Dense coefficient tuple of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = tuple([-1] + [0] * (n - 1) + [1])  # q^n - 1
    return _pdiv_monic(num, _expand_factors(tuple((d, 1) for d in _divisors(n)[:-1])))


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


@lru_cache(maxsize=256)
def _expand_factors(key: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Dense product of cyclotomic(d)**m over the (d, m) pairs of `key`."""
    out: tuple[int, ...] = (1,)
    for d, m in key:
        phi = cyclotomic(d)
        for _ in range(m):
            out = _pmul(out, phi)
    return out


class FactoredRational:
    """A rational function of q held as (Laurent numerator) / (product of
    cyclotomic polynomials).  Cheap to add when denominators share factors;
    converts to canonical :class:`RationalQ` on demand.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Mapping[int, int] = (), den: Optional[Counter] = None) -> None:
        self.num = _lclean(dict(num))
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
        a = _lmul(self.num, dict(enumerate(_expand_factors(_factor_key(union - self.den)))))
        b = _lmul(other.num, dict(enumerate(_expand_factors(_factor_key(union - other.den)))))
        return FactoredRational(_ladd(a, b), union)

    def __eq__(self, other: object) -> bool:
        """Value equality: canonical forms are equal exactly when values are."""
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self.to_rational_q() == other.to_rational_q()

    __hash__ = None  # type: ignore[assignment]

    def to_rational_q(self) -> RationalQ:
        if not self.num:
            return RationalQ()
        shift = min(self.num)
        num_poly = _ptrim(tuple(self.num.get(e, 0) for e in range(min(shift, 0), max(self.num) + 1)))
        q_power = max(0, -shift)
        # strip cyclotomic factors shared with the numerator
        den = Counter(self.den)
        for d in sorted(den):
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
