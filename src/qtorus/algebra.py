"""Normal-ordered arithmetic for a chain of q-commuting invertible generators.

The algebra has invertible generators w_1 .. w_N attached to the sites of a
chain.  Nearest neighbours q-commute,

    w_(n+1) * w_n = q^(-2) * w_n * w_(n+1),

while generators two or more sites apart commute.  Every product of
generator powers therefore equals a power of q times a *normal-ordered*
monomial, the site-ascending product  w_1^e1 * ... * w_N^eN, and the algebra
has the normal-ordered monomials as a basis over Laurent polynomials in q.

:class:`Element` stores a finite sum  coefficient * monomial  keyed by the
dense exponent vector (e1, .., eN), each coefficient an exact Laurent
polynomial held as a dict  exponent of q -> nonzero int.  Multiplication
accumulates the q-power produced by reordering through
:func:`phase_exponent`, which is the bilinear form counting signed adjacent
crossings:

    phase_exponent(a, b) = -2 * sum_i a[i+1] * b[i]

so that  monomial(a) * monomial(b) = q^phase(a,b) * monomial(a + b).
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Mapping, Optional

from .errors import FrozenRecord, InvalidParams
from .series import _ladd, _laurent_str

__all__ = ["AlgebraConfig", "Element", "monomial_label", "mul_terms", "phase_exponent"]


def monomial_label(exponents: Iterable[int]) -> str:
    """Render an exponent vector the way elements print their monomials."""
    return Element._monomial_str(tuple(exponents))


class AlgebraConfig(FrozenRecord):
    """Shape of the chain: generators w_1 .. w_sites."""

    __slots__ = ("sites",)

    def __init__(self, sites: int) -> None:
        if sites < 1:
            raise InvalidParams("need at least one site")
        object.__setattr__(self, "sites", sites)

    def check_site(self, site: int) -> None:
        if not 1 <= site <= self.sites:
            raise InvalidParams(f"site {site} outside 1..{self.sites}")


def phase_exponent(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Power of q produced when monomial(a) * monomial(b) is normal-ordered."""
    return -2 * sum(map(mul, a[1:], b))


def mul_terms(
    left: Mapping[tuple[int, ...], Mapping[int, int]],
    right: Mapping[tuple[int, ...], Mapping[int, int]],
    cap: Optional[int] = None,
) -> dict[tuple[int, ...], dict[int, int]]:
    """Normal-ordered product of two sums of monomials, each held as exponent
    vector -> Laurent coefficient (exponent of q -> int).  With `cap`, a term
    pair whose exponent vector has a component above `cap` is skipped.
    Zero coefficients and monomials left with none are dropped."""
    # every output monomial's coefficient accumulates in one exponent -> int
    # dict across all term pairs
    right_items = [(b, cb.items()) for b, cb in right.items()]
    acc: dict[tuple[int, ...], dict[int, int]] = {}
    for a, ca in left.items():
        left_items = ca.items()
        for b, cb in right_items:
            key = tuple(map(add, a, b))
            if cap is not None and max(key) > cap:
                continue
            out = acc.setdefault(key, {})
            phase = phase_exponent(a, b)
            for ea, xa in left_items:
                for eb, xb in cb:
                    e = ea + eb + phase
                    out[e] = out.get(e, 0) + xa * xb
    terms = {}
    for key, out in acc.items():
        if out := {e: x for e, x in out.items() if x}:
            terms[key] = out
    return terms


class Element:
    """Finite sum of Laurent-polynomial coefficients times normal-ordered
    monomials: `terms` maps each exponent vector to its coefficient, a dict
    exponent of q -> nonzero int.  The constructor copies the caller's dicts
    and drops zero entries and the terms they leave empty."""

    __slots__ = ("config", "terms")

    def __init__(self, config: AlgebraConfig, terms: Mapping[tuple[int, ...], Mapping[int, int]]) -> None:
        self.config = config
        clean: dict[tuple[int, ...], dict[int, int]] = {}
        for vec, coeff in terms.items():
            if len(vec) != config.sites:
                raise InvalidParams("exponent vector length does not match the chain")
            if coeff := {e: c for e, c in coeff.items() if c}:
                clean[tuple(vec)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, config: AlgebraConfig) -> "Element":
        return cls(config, {(0,) * config.sites: {0: 1}})

    @classmethod
    def generator(cls, config: AlgebraConfig, site: int, exp: int = 1) -> "Element":
        config.check_site(site)
        vec = [0] * config.sites
        vec[site - 1] = exp
        return cls(config, {tuple(vec): {0: 1}})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def _same_chain(self, other: "Element") -> None:
        if self.config != other.config:
            raise InvalidParams("elements live on different chains")

    def __add__(self, other: "Element") -> "Element":
        self._same_chain(other)
        out = dict(self.terms)
        for vec, coeff in other.terms.items():
            out[vec] = _ladd(out[vec], coeff) if vec in out else coeff
        return Element(self.config, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return self.scale(0, -1)

    def __mul__(self, other: "Element") -> "Element":
        self._same_chain(other)
        return Element(self.config, mul_terms(self.terms, other.terms))

    def scale(self, power: int, sign: int = 1) -> "Element":
        """This element times  sign * q^power."""
        return Element(
            self.config,
            {v: {e + power: sign * c for e, c in coeff.items()} for v, coeff in self.terms.items()},
        )

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.config == other.config and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    @staticmethod
    def _monomial_str(vec: tuple[int, ...]) -> str:
        parts = [f"w{i + 1}^{e}" for i, e in enumerate(vec) if e]
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for vec in sorted(self.terms):
            mono = self._monomial_str(vec)
            coeff = _laurent_str(self.terms[vec])
            chunks.append(f"({coeff})" if mono == "1" else f"({coeff}) * {mono}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"Element(sites={self.config.sites}, terms={len(self.terms)})"
