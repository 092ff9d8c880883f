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

Everything that depends only on the product is computed once per product:
the LDL^T data and the adjugate of the restricted matrix, scaled by one
common integer so that each target's minimiser and headroom, and every
step of the walk, are integer arithmetic.  Each kernel basis vector is +1
at exactly one factor index where the particular solution is 0, so the
walk coordinates are entries of k itself and the walk stays in the
nonnegative orthant.  The walk returns each point with its value of the
form, which is the tuple's valuation Q(k); nothing recomputes it.  A
kept tuple contributes (-1)^(sum k) q^(Q(k)) / prod_l (q^2;q^2)_(k_l),
times its gamma sign;
tuples with the same multiset of nonzero k share that denominator, whose
expansion counts partitions, so each group's signed q^(Q(k)) terms are
expanded together by running sums and no series is multiplied.

A second engine handles products of E(x) for *arbitrary* polynomial
arguments x (sums of monomials with all site exponents >= 0) exactly, with
coefficients as rational functions of q, compared by their canonical forms:
exponent vectors only grow under multiplication, so a degree window bounds
the series orders that can contribute, and no truncation is ever introduced.
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
from .qexp import divide_by_pochhammers, euler_denominator_factors
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


@dataclass(frozen=True)
class _ScaledForm:
    """Integer data of a positive definite form A for :func:`_walk_sublevel`.

    With LDL^T = A, `det` = det A (its last leading minor), `adj` = det*A^-1,
    and `lam` the lcm of 4*det and every denominator in L and D, the scaled
    pivots `di` = lam*d_i and subdiagonal columns `li_cols[i][j]` = lam*L[j][i]
    are integers, and so is everything the walk derives from them.
    """

    minors: tuple[int, ...]
    det: int
    adj: tuple[tuple[int, ...], ...]
    lam: int
    di: tuple[int, ...]
    li_cols: tuple[tuple[int, ...], ...]


def _scaled_form(a: Sequence[Sequence[int]]) -> _ScaledForm:
    """Certify the integer symmetric matrix `a` positive definite (raises
    NoCertificate otherwise) and scale its LDL^T data to integers."""
    r = len(a)
    low, diag = _ldl([[Fraction(x) for x in row] for row in a])
    minors = _principal_minors(diag)
    det = minors[-1] if minors else 1
    cols = [_ldl_solve(low, diag, [Fraction(int(i == j)) for i in range(r)]) for j in range(r)]
    adj = tuple(tuple(int(det * cols[j][i]) for j in range(r)) for i in range(r))
    lam = 4 * det
    for x in diag + [low[j][i] for i in range(r) for j in range(i + 1, r)]:
        lam = lam * x.denominator // math.gcd(lam, x.denominator)
    return _ScaledForm(
        tuple(minors),
        det,
        adj,
        lam,
        tuple(int(d * lam) for d in diag),
        tuple(tuple(int(low[j][i] * lam) for j in range(r)) for i in range(r)),
    )


def _walk_sublevel(
    form: _ScaledForm,
    b_vec: Sequence[int],
    c_val: int,
    bound: int,
) -> list[tuple[tuple[int, ...], int]]:
    """Integer points y >= 0 with  Q(y) = y^T A y + b^T y + c < bound, each
    paired with its value Q(y).

    The real minimiser is y* = -A^-1 b / 2 with value qmin, and the LDL^T
    data writes the form as  qmin + sum_i d_i (y_i - center_i)^2.  The walk
    fixes coordinates last to first; at each level the admissible integers
    form two monotone arms around the real center, each clamped at 0 and
    stopped at its first over-budget point.  All arithmetic is integer:
    YS = lam*y* and the headroom lam*(bound - qmin) come from the adjugate,
    Z_j = lam*y_j - YS_j, the scaled center C2 = lam^2 * center and offset
    U = lam^2 * (y_i - center) give the level test  DI * U^2 >= budget,
    with DI = lam*d_i and budgets scaled by lam^5.  The budget left at a
    leaf is exactly lam^5 * (bound - Q(y)), so it gives Q(y) for free.
    """
    lam, di_scaled, li_cols = form.lam, form.di, form.li_cols
    r = len(di_scaled)
    adj_b = [sum(x * b for x, b in zip(row, b_vec)) for row in form.adj]
    half = lam // (2 * form.det)
    ys_scaled = [-half * x for x in adj_b]
    headroom = (bound - c_val) * lam + half // 2 * sum(
        b * x for b, x in zip(b_vec, adj_b)
    )
    if headroom <= 0:
        return []
    if not r:
        return [((), c_val)]
    lam2 = lam * lam
    lam5 = lam2 * lam2 * lam

    points: list[tuple[tuple[int, ...], int]] = []
    y = [0] * r
    zed = [0] * r

    def descend(i: int, budget: int) -> None:
        c2 = lam * ys_scaled[i]
        col = li_cols[i]
        for j in range(i + 1, r):
            lij = col[j]
            if lij:
                c2 -= lij * zed[j]
        di = di_scaled[i]
        up = max(-((-c2) // lam2), 0)
        for first, step in ((up, 1), (up - 1, -1)):
            y_i = first
            u = y_i * lam2 - c2
            du = step * lam2
            while y_i >= 0:
                used = di * u * u
                if used >= budget:
                    break
                y[i] = y_i
                zed[i] = lam * y_i - ys_scaled[i]
                if i:
                    descend(i - 1, budget - used)
                else:
                    points.append((tuple(y), bound - (budget - used) // lam5))
                y_i += step
                u += du
        y[i] = 0
        zed[i] = 0

    descend(r - 1, headroom * lam2 * lam2)
    return points


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
    certified, integer-scaled LDL^T data of the restricted form."""
    factors = product.factors
    L = len(factors)
    factor_strs = tuple(str(f) for f in factors)

    by_site: dict[int, list[int]] = {}
    for idx, f in enumerate(factors):
        by_site.setdefault(f.site, []).append(idx)

    # kernel lattice basis of the per-site exponent constraints: vector i is
    # +1 at a non-first index j of its site and `coeff` at the site's first
    # index, so walk coordinate y_i is k_j itself
    basis = tuple(
        (j, idxs[0], -factors[idxs[0]].exp * factors[j].exp)
        for _, idxs in sorted(by_site.items())
        for j in idxs[1:]
    )

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

    vecs = []
    for j, first, coeff in basis:
        v = [0] * L
        v[first] = coeff
        v[j] = 1
        vecs.append(v)
    g_basis = [[sum(gram[i][m] * v[m] for m in range(L)) for i in range(L)] for v in vecs]
    a_mat = tuple(
        tuple(sum(bi[m] * gbj[m] for m in range(L)) for gbj in g_basis) for bi in vecs
    )
    form = _scaled_form(a_mat)
    # c_k carries (-1)^k and gamma = -1 another (-1)^k, so a term's sign is
    # (-1)^(sum of k over the factors with gamma = +1)
    sign_idx = tuple(i for i, f in enumerate(factors) if f.gamma > 0)
    return factor_strs, by_site, basis, gram, tvec, sign_idx, a_mat, form


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
        sign_idx,
        a_mat,
        form,
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

    # the particular solution is nonzero at one index per site at most
    nonzero = [(j, p) for j, p in enumerate(particular) if p]
    g_part = [sum(row[j] * p for j, p in nonzero) for row in gram]
    w = [2 * g + t for g, t in zip(g_part, tvec)]
    b_vec = [w[j] + coeff * w[first] for j, first, coeff in basis]
    c_val = sum((g_part[j] + tvec[j]) * p for j, p in nonzero)

    # the walk's value Q(y) is the valuation Q(k) of the tuple k it maps to
    kept: list[tuple[tuple[int, ...], int]] = []
    for yvec, qval in _walk_sublevel(form, b_vec, c_val, precision):
        k = particular[:]
        for (j, first, coeff), y in zip(basis, yvec):
            if y:
                k[j] = y
                k[first] += coeff * y
        if min(k, default=0) >= 0:
            kept.append((tuple(k), qval))
    kept.sort()
    tuples = tuple(k for k, _ in kept)

    # prod c_(k_i) = (-1)^(sum k) q^(sum k^2) / prod (q^2;q^2)_(k_i): group the
    # signed numerators q^Q(k) by the multiset of nonzero k, then expand each
    # group's denominator once by partition counts
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    max_index = 0
    min_val: Optional[int] = None
    for k, qval in kept:
        sign = -1 if sum(k[i] for i in sign_idx) % 2 else 1
        num = groups.setdefault(tuple(sorted(kk for kk in k if kk)), {})
        num[qval] = num.get(qval, 0) + sign
        if min_val is None or qval < min_val:
            min_val = qval
        if k:
            max_index = max(max_index, max(k))

    acc: list[int] = [0] * (precision - min_val) if min_val is not None else []
    for orders, num in groups.items():
        lo = min(num)
        dense = [0] * (precision - lo)
        for e, c in num.items():
            dense[e - lo] = c
        divide_by_pochhammers(dense, orders)
        for i, c in enumerate(dense, lo - min_val):
            if c:
                acc[i] += c
    total = LaurentSeries({min_val + i: c for i, c in enumerate(acc) if c}, precision)

    cert = TupleCertificate(
        factor_strs,
        target_str,
        precision,
        True,
        len(basis),
        a_mat,
        form.minors,
        tuple(particular),
        tuples,
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
