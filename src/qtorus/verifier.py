"""Coefficient extraction for ordered products of q-exponentials.

A *factor product* is an ordered product  E(x_1) E(x_2) ... E(x_L)  where each
argument x_l = gamma_l q^(t_l) w_(n_l)^(eps_l) is a signed, q-scaled single
generator or inverse generator.  Expanding every factor through its series
form and normal-ordering gives, for each exponent vector T,

    coefficient(T) = sum over k in Z_{>=0}^L with  sum_l k_l eps_l e_(n_l) = T
                     of  (prod_l gamma_l^k_l) q^(Phi(k)) prod_l c_(k_l),

where Phi(k) collects the reordering phases and the q-scalings.  Because
c_k has valuation exactly k^2, the term for k has valuation

    Q(k) = sum_l k_l^2 + Phi(k),

an integer quadratic form.  Working mod q^P therefore needs exactly the
tuples in the sublevel set  {k >= 0, on the fiber, Q(k) < P}.

The fiber is a translate of an integer lattice (one linear constraint per
site, all coefficients +-1, so a basis of the kernel lattice can be written
down directly).  Restricting Q to that lattice gives an integer symmetric
matrix; its positive definiteness -- checked exactly via an LDL^T
decomposition over the rationals, with the leading principal minors
recorded -- certifies that the sublevel set is finite, and an exact
ellipsoid walk enumerates it.  The minors, the restricted matrix, and the
enumerated tuples form a :class:`TupleCertificate` that accompanies every
reported coefficient.

A second engine handles products of E(x) for *arbitrary* polynomial
arguments x (sums of monomials with all site exponents >= 0) exactly, with
coefficients as canonical rational functions of q: exponent vectors only
grow under multiplication, so a degree window bounds the series orders that
can contribute, and no truncation is ever introduced.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Iterable, Optional, Sequence

from .algebra import AlgebraConfig, Element
from .errors import InfiniteSupport, InvalidParams, NoCertificate
from .qexp import euler_coeff_truncated, euler_denominator_factors
from .series import FactoredRational, LaurentSeries

__all__ = [
    "QExpFactor",
    "FactorProduct",
    "TupleCertificate",
    "coefficient_of",
    "window_targets",
    "exact_window_map",
]


# ---------------------------------------------------------------------------
# factor products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QExpFactor:
    """One factor E(gamma * q^qpower * w_site^exp) with exp in {+1, -1}."""

    site: int
    exp: int = 1
    gamma: int = 1
    qpower: int = 0

    def __post_init__(self) -> None:
        if self.exp not in (1, -1):
            raise InvalidParams("factor exponent must be +1 or -1")
        if self.gamma not in (1, -1):
            raise InvalidParams("factor sign must be +1 or -1")

    def argument(self, config: AlgebraConfig) -> Element:
        coeff = LaurentSeries.monomial(self.qpower, self.gamma)
        return Element.generator(config, self.site, self.exp).scale(coeff)

    def __str__(self) -> str:
        inner = f"w{self.site}" + ("^-1" if self.exp < 0 else "")
        if self.qpower:
            inner = f"q^{self.qpower}*{inner}"
        if self.gamma < 0:
            inner = "-" + inner
        return f"E({inner})"


@dataclass(frozen=True)
class FactorProduct:
    """Ordered product of q-exponential factors on a common chain."""

    config: AlgebraConfig
    factors: tuple[QExpFactor, ...]

    def __post_init__(self) -> None:
        for f in self.factors:
            self.config.check_site(f.site)

    def support_sites(self) -> set[int]:
        return {f.site for f in self.factors}

    def __str__(self) -> str:
        return " ".join(str(f) for f in self.factors) if self.factors else "1"


def window_targets(
    config: AlgebraConfig,
    sites: Iterable[int],
    window: int | dict[int, tuple[int, int]],
) -> list[tuple[int, ...]]:
    """All exponent vectors supported on `sites` with each exponent inside
    the window (symmetric |e| <= window, or per-site (lo, hi) ranges)."""
    site_list = sorted(set(sites))
    ranges = []
    for s in site_list:
        config.check_site(s)
        if isinstance(window, dict):
            lo, hi = window[s]
        else:
            lo, hi = -window, window
        ranges.append(range(lo, hi + 1))
    out = []
    for combo in iproduct(*ranges):
        vec = [0] * config.sites
        for s, e in zip(site_list, combo):
            vec[s - 1] = e
        out.append(tuple(vec))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def _ldl(a: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """LDL^T of a symmetric matrix; raises NoCertificate unless every pivot
    is strictly positive (Sylvester's criterion for positive definiteness)."""
    r = len(a)
    low = [[Fraction(1) if i == j else Fraction(0) for j in range(r)] for i in range(r)]
    diag: list[Fraction] = []
    for i in range(r):
        d = a[i][i] - sum(diag[j] * low[i][j] * low[i][j] for j in range(i))
        if d <= 0:
            raise NoCertificate(
                f"restricted quadratic form is not positive definite (pivot {i} is {d})"
            )
        diag.append(d)
        for k in range(i + 1, r):
            low[k][i] = (a[k][i] - sum(diag[j] * low[i][j] * low[k][j] for j in range(i))) / d
    return low, diag


def _ldl_solve(
    low: list[list[Fraction]], diag: list[Fraction], rhs: list[Fraction]
) -> list[Fraction]:
    """Solve (L D L^T) x = rhs by forward/diagonal/backward substitution."""
    r = len(diag)
    w = list(rhs)
    for i in range(r):
        for j in range(i):
            if low[i][j]:
                w[i] -= low[i][j] * w[j]
    for i in range(r):
        w[i] = w[i] / diag[i]
    for i in reversed(range(r)):
        for j in range(i + 1, r):
            if low[j][i]:
                w[i] -= low[j][i] * w[j]
    return w


def _principal_minors(diag: list[Fraction]) -> list[int]:
    minors: list[int] = []
    acc = Fraction(1)
    for d in diag:
        acc *= d
        if acc.denominator != 1:
            raise NoCertificate("principal minor of an integer form must be an integer")
        minors.append(int(acc))
    return minors


def _walk_sublevel(
    low: list[list[Fraction]],
    diag: list[Fraction],
    ystar: list[Fraction],
    qmin: Fraction,
    bound: int,
) -> list[tuple[int, ...]]:
    """Integer points of the sublevel set  Q(y) < bound  where the LDL^T
    data writes  Q = qmin + sum_i d_i (y_i - center_i)^2.

    Walks coordinates last to first; at each level the admissible integers
    form two monotone arms around the real center, so each arm stops at its
    first over-budget point.  All per-point arithmetic is integer: with a
    common denominator LAM for the LDL data, track  Z_j = LAM*y_j - YS_j,
    the scaled center  C2 = LAM^2 * center, the scaled offset
    U = LAM^2 * (y_i - center), and budgets scaled by LAM^5, so the level
    test is  DI * U^2 >= budget  with  DI = LAM * d_i.
    """
    r = len(diag)
    headroom = Fraction(bound) - qmin
    if headroom <= 0:
        return []
    lam = headroom.denominator
    for x in ystar:
        lam = lam * x.denominator // math.gcd(lam, x.denominator)
    for d in diag:
        lam = lam * d.denominator // math.gcd(lam, d.denominator)
    for i in range(r):
        for j in range(i + 1, r):
            den = low[j][i].denominator
            lam = lam * den // math.gcd(lam, den)
    lam2 = lam * lam
    di_scaled = [int(d * lam) for d in diag]
    ys_scaled = [int(y * lam) for y in ystar]
    # column-major scaled subdiagonal: li_cols[i][j] = LAM * low[j][i]
    li_cols = [[int(low[j][i] * lam) for j in range(r)] for i in range(r)]
    budget0 = int(headroom * lam) * lam2 * lam2

    points: list[tuple[int, ...]] = []
    y = [0] * r
    zed = [0] * r

    def descend(i: int, budget: int) -> None:
        if i < 0:
            points.append(tuple(y))
            return
        c2 = lam * ys_scaled[i]
        col = li_cols[i]
        for j in range(i + 1, r):
            lij = col[j]
            if lij:
                c2 -= lij * zed[j]
        di = di_scaled[i]
        up = -((-c2) // lam2)
        for first, step in ((up, 1), (up - 1, -1)):
            y_i = first
            u = y_i * lam2 - c2
            du = step * lam2
            while True:
                used = di * u * u
                if used >= budget:
                    break
                y[i] = y_i
                zed[i] = lam * y_i - ys_scaled[i]
                descend(i - 1, budget - used)
                y_i += step
                u += du
        y[i] = 0
        zed[i] = 0

    descend(r - 1, budget0)
    return points


def _sublevel_points(
    low: list[list[Fraction]],
    diag: list[Fraction],
    b_vec: list[int],
    c_val: int,
    bound: int,
) -> list[tuple[int, ...]]:
    """Integer points y with  y^T A y + b^T y + c < bound,  where LDL^T = A
    is positive definite: the walk around the real minimiser of the form."""
    if not diag:
        return [()] if c_val < bound else []
    ystar = _ldl_solve(low, diag, [Fraction(-b, 2) for b in b_vec])
    qmin = Fraction(c_val) + sum(Fraction(b) * y / 2 for b, y in zip(b_vec, ystar))
    return _walk_sublevel(low, diag, ystar, qmin, bound)


# ---------------------------------------------------------------------------
# tuple certificates for truncated coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TupleCertificate:
    """Why the reported coefficient is complete mod q^precision.

    `gram_restricted` is the matrix of the valuation form Q on the kernel
    lattice of the exponent constraints; `minors` are its leading principal
    minors, all positive, which proves Q is positive definite there and the
    enumerated `tuples` exhaust every contribution below the precision.
    """

    factors: tuple[str, ...]
    target: str
    precision: int
    feasible: bool
    kernel_rank: int
    gram_restricted: tuple[tuple[int, ...], ...]
    minors: tuple[int, ...]
    particular: tuple[int, ...]
    tuples: tuple[tuple[int, ...], ...]
    max_index: int
    min_valuation: Optional[int]

    def summary(self) -> dict:
        return {
            "target": self.target,
            "feasible": self.feasible,
            "kernel_rank": self.kernel_rank,
            "minors": list(self.minors),
            "tuples": len(self.tuples),
            "max_index": self.max_index,
            "min_valuation": self.min_valuation,
        }


def _phase_pair(left: QExpFactor, right: QExpFactor) -> int:
    """Coefficient of k_left * k_right in Phi: reordering phase between
    w_(site_left)^(exp_left * k) placed left of w_(site_right)^(exp_right * k)."""
    if left.site == right.site + 1:
        return -2 * left.exp * right.exp
    return 0


@lru_cache(maxsize=256)
def _product_setup(product: FactorProduct):
    """Target-independent data for coefficient extraction: the grouping of
    factors by site, the valuation form, the kernel lattice basis, and the
    LDL^T certificate of the restricted form."""
    factors = product.factors
    L = len(factors)
    factor_strs = tuple(str(f) for f in factors)

    by_site: dict[int, list[int]] = {}
    for idx, f in enumerate(factors):
        by_site.setdefault(f.site, []).append(idx)

    # kernel lattice basis of the per-site exponent constraints
    basis: list[list[int]] = []
    for _, idxs in sorted(by_site.items()):
        first = idxs[0]
        for j in idxs[1:]:
            v = [0] * L
            v[first] = -factors[first].exp * factors[j].exp
            v[j] = 1
            basis.append(v)

    # valuation form Q(k) = k^T G k + t^T k  on Z^L
    gram = [[0] * L for _ in range(L)]
    for i in range(L):
        gram[i][i] = 1
    for i in range(L):
        for j in range(i + 1, L):
            half = _phase_pair(factors[i], factors[j])
            if half:
                gram[i][j] += half // 2
                gram[j][i] += half // 2
    tvec = [f.qpower for f in factors]

    def g_apply(vec: list[int]) -> list[int]:
        return [sum(gram[i][j] * vec[j] for j in range(L)) for i in range(L)]

    g_basis = [g_apply(b) for b in basis]
    a_mat = [[sum(bi[k] * gbj[k] for k in range(L)) for gbj in g_basis] for bi in basis]
    low, diag = _ldl([[Fraction(x) for x in row] for row in a_mat])
    minors = _principal_minors(diag)
    phase_pairs = tuple(
        (i, j, _phase_pair(factors[i], factors[j]))
        for i in range(L)
        for j in range(i + 1, L)
        if _phase_pair(factors[i], factors[j])
    )
    return (
        factor_strs,
        by_site,
        basis,
        gram,
        tvec,
        phase_pairs,
        a_mat,
        low,
        diag,
        minors,
    )


def coefficient_of(
    product: FactorProduct,
    target: Sequence[int],
    precision: int,
) -> tuple[LaurentSeries, TupleCertificate]:
    """The coefficient of the normal-ordered monomial `target` in the
    expansion of `product`, complete mod q^precision, with its certificate."""
    cfg = product.config
    target = tuple(target)
    if len(target) != cfg.sites:
        raise InvalidParams("target length does not match the chain")
    factors = product.factors
    L = len(factors)
    target_str = Element._monomial_str(target)
    (
        factor_strs,
        by_site,
        basis,
        gram,
        tvec,
        phase_pairs,
        a_mat,
        low,
        diag,
        minors,
    ) = _product_setup(product)

    # sites outside the product must carry exponent zero
    for i, t in enumerate(target):
        if t and (i + 1) not in by_site:
            cert = TupleCertificate(
                factor_strs, target_str, precision, False, 0, (), (), (), (), 0, None
            )
            return LaurentSeries.zero(precision), cert

    # particular solution of the exponent constraints
    particular = [0] * L
    for site, idxs in by_site.items():
        first = idxs[0]
        particular[first] = factors[first].exp * target[site - 1]
    r = len(basis)

    g_part = [sum(gram[i][j] * particular[j] for j in range(L)) for i in range(L)]
    b_vec = [
        sum((2 * g_part[k] + tvec[k]) * bi[k] for k in range(L))
        for bi in basis
    ]
    c_val = sum(particular[k] * g_part[k] for k in range(L)) + sum(
        tvec[k] * particular[k] for k in range(L)
    )

    ys = _sublevel_points(low, diag, b_vec, c_val, precision)

    tuples: list[tuple[int, ...]] = []
    for yvec in ys:
        k = particular[:]
        for coeff, bvec_ in zip(yvec, basis):
            if coeff:
                for pos in range(L):
                    if bvec_[pos]:
                        k[pos] += coeff * bvec_[pos]
        if all(x >= 0 for x in k):
            tuples.append(tuple(k))
    tuples.sort()

    total = LaurentSeries.zero(precision)
    max_index = 0
    min_val: Optional[int] = None
    for k in tuples:
        phi = sum(t * kk for t, kk in zip(tvec, k)) if any(tvec) else 0
        for i, j, pair in phase_pairs:
            if k[i] and k[j]:
                phi += pair * k[i] * k[j]
        sign = 1
        for f, kk in zip(factors, k):
            if f.gamma < 0 and kk % 2:
                sign = -sign
        term = LaurentSeries.one(precision - phi)
        for f, kk in zip(factors, k):
            if kk:
                term = term * euler_coeff_truncated(kk, precision - phi)
        term = term.shift(phi)
        if sign < 0:
            term = -term
        total = total + term
        qval = sum(kk * kk for kk in k) + phi
        if min_val is None or qval < min_val:
            min_val = qval
        if k:
            max_index = max(max_index, max(k))

    cert = TupleCertificate(
        factor_strs,
        target_str,
        precision,
        True,
        r,
        tuple(tuple(row) for row in a_mat),
        tuple(minors),
        tuple(particular),
        tuple(tuples),
        max_index,
        min_val,
    )
    return total, cert


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
    vectors only grow along a product and the window prunes soundly.  The
    coefficients of the arguments must be exact Laurent polynomials in q.
    Returns (target -> coefficient, largest series order that contributed).
    """
    if not args:
        raise InvalidParams("need at least one factor")
    cfg = args[0].config
    for x in args:
        if x.config != cfg:
            raise InvalidParams("factors live on different chains")
        if x.is_zero():
            raise InvalidParams("zero argument")
        for vec, coeff in x.terms.items():
            if any(e < 0 for e in vec) or not any(vec):
                raise InfiniteSupport(
                    "exact expansion needs arguments whose monomials have "
                    "nonnegative exponents and positive total degree"
                )
            if not coeff.known_exactly():
                raise InvalidParams("exact expansion needs exact argument coefficients")

    def in_window(el: Element) -> Element:
        kept = {
            v: c for v, c in el.terms.items() if all(e <= window for e in v)
        }
        return Element(cfg, kept)

    pruned_args = [in_window(x) for x in args]
    out: dict[tuple[int, ...], FactoredRational] = {}
    max_order = 0
    k_cap = cfg.sites * window + 1  # total degree of any window target

    def leaf(partial: Element, qpow: int, den: Counter) -> None:
        for vec, coeff in partial.terms.items():
            contrib = FactoredRational(
                {e + qpow: c for e, c in coeff.coeffs.items()}, den
            )
            prev = out.get(vec)
            out[vec] = contrib if prev is None else prev + contrib


    def descend(i: int, partial: Element, qpow: int, den: Counter, kmax: int) -> None:
        nonlocal max_order
        if i == len(pruned_args):
            if kmax > max_order:
                max_order = kmax
            leaf(partial, qpow, den)
            return
        x = pruned_args[i]
        power = Element.identity(cfg)
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

    descend(0, Element.identity(cfg), 0, Counter(), 0)
    return {v: f for v, f in out.items() if not f.is_zero()}, max_order
