"""Concrete derivation scripts and the rewrite walk.

Every generator in this module returns a :class:`~qtorus.words.DerivationScript`
whose steps were chosen by hand once and are re-checked mechanically on every
replay; no generator "discovers" a proof at run time.  The families are:

* :func:`braid_script` -- rewrites the expansion of ``b_n b_(n+1) b_n`` into
  the expansion of ``b_(n+1) b_n b_(n+1)`` using only the two-site and
  same-site relations, establishing the hexagon relation for the ``b``
  letters at the level of factor words.
* :func:`sigma_script1` / :func:`sigma_script2` -- do the same for the two
  four-letter relations of the ``c`` letters.
* :func:`sigma_commute_script` / :func:`bcomm_script` -- distant-letter
  commutations reduced to far-commutation of factors.
* :func:`seven_term_script` -- derives the four-factor/three-factor identity
  for a q^2-commuting pair from the merge, split, and commutation rules,
  with every premise checked exactly.
* the four ``*_translation_*`` generators -- move one extra letter through an
  ascending or descending run, shifting its index; these are the word-level
  lemmas used to reorder products of ``b`` or ``c`` letters.

:func:`random_walk` drives a seeded walk through the structural rewrite
system.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Sequence

from .algebra import Element
from .errors import InvalidParams
from .words import (
    B,
    C,
    DerivationScript,
    ExpLetter,
    Relation,
    Step,
    Word,
    apply_step,
    artin,
    bcomm,
    comm0,
    commute_rule,
    expand_composites,
    far,
    mult1_rule,
    mult2_rule,
    pentagon_rule,
    rel1,
    rel2,
    rel3,
    rel4,
    scomm,
    seven_term_words,
    sig1,
    sig2,
)

__all__ = [
    "braid_script",
    "sigma_script1",
    "sigma_script2",
    "sigma_commute_script",
    "bcomm_script",
    "seven_term_script",
    "braid_translation_fwd",
    "braid_translation_rev",
    "sigma_translation_fwd",
    "sigma_translation_rev",
    "structural_relations",
    "random_walk",
]


# ---------------------------------------------------------------------------
# relation-proving scripts (factor level)
# ---------------------------------------------------------------------------


def braid_script(n: int, sites: int) -> DerivationScript:
    """Expansion of ``b_n b_(n+1) b_n`` rewrites to that of ``b_(n+1) b_n b_(n+1)``."""
    if n < 1 or n + 1 > sites:
        raise InvalidParams("needs 1 <= n and n+1 <= sites")
    p = n + 1
    start = expand_composites((B(n), B(p), B(n)))
    end = expand_composites((B(p), B(n), B(p)))
    steps = (
        Step(0, comm0(n), True),
        Step(1, rel3(n), True),
        Step(0, rel1(n), False),
        Step(1, comm0(n), False),
        Step(3, comm0(p), True),
        Step(2, rel4(n), True),
        Step(1, rel2(n), False),
        Step(4, comm0(p), False),
    )
    return DerivationScript(f"braid({n})", start, steps, end)


def sigma_script1(n: int, sites: int) -> DerivationScript:
    """Expansion of ``c_(n+1) c_(n-1) c_n c_(n+1)`` rewrites to that of
    ``c_(n-1) c_(n+1) c_n``."""
    if n < 2 or n + 2 > sites:
        raise InvalidParams("needs 2 <= n and n+2 <= sites")
    m, p, r = n - 1, n + 1, n + 2
    start = expand_composites((C(p), C(m), C(n), C(p)))
    end = expand_composites((C(m), C(p), C(n)))
    steps = (
        Step(1, far(r, 1, m, -1), True),
        Step(2, far(r, 1, n, 1), True),
        Step(3, far(r, 1, n, -1), True),
        Step(5, comm0(p), True),
        Step(4, rel1(p), True),
        Step(0, far(p, -1, m, -1), True),
        Step(1, rel2(n), True),
        Step(3, far(n, -1, r, 1), True),
    )
    return DerivationScript(f"sigma_rel1({n})", start, steps, end)


def sigma_script2(n: int, sites: int) -> DerivationScript:
    """Expansion of ``c_(n-1) c_n c_(n+1) c_(n-1)`` rewrites to that of
    ``c_n c_(n-1) c_(n+1)``."""
    if n < 2 or n + 2 > sites:
        raise InvalidParams("needs 2 <= n and n+2 <= sites")
    m, p, r = n - 1, n + 1, n + 2
    start = expand_composites((C(m), C(n), C(p), C(m)))
    end = expand_composites((C(n), C(m), C(p)))
    steps = (
        Step(5, far(r, 1, m, -1), True),
        Step(4, far(p, -1, m, -1), True),
        Step(3, far(p, 1, m, -1), True),
        Step(1, comm0(n), True),
        Step(0, rel4(m), True),
        Step(5, far(r, 1, n, 1), True),
        Step(2, rel3(n), True),
        Step(1, far(m, -1, p, 1), True),
    )
    return DerivationScript(f"sigma_rel2({n})", start, steps, end)


def sigma_commute_script(m: int, n: int, sites: int) -> DerivationScript:
    """Expansion of ``c_m c_n`` rewrites to that of ``c_n c_m`` when the
    letters are more than two sites apart."""
    if abs(m - n) <= 2:
        raise InvalidParams("needs |m - n| > 2")
    if m < 1 or n < 1 or max(m, n) + 1 > sites:
        raise InvalidParams("sites too small for the letters")
    mm, nn = m + 1, n + 1
    start = expand_composites((C(m), C(n)))
    end = expand_composites((C(n), C(m)))
    steps = (
        Step(1, far(mm, 1, n, -1), True),
        Step(0, far(m, -1, n, -1), True),
        Step(2, far(mm, 1, nn, 1), True),
        Step(1, far(m, -1, nn, 1), True),
    )
    return DerivationScript(f"sigma_commute({m},{n})", start, steps, end)


def bcomm_script(m: int, n: int, sites: int) -> DerivationScript:
    """Expansion of ``b_m b_n`` rewrites to that of ``b_n b_m`` when the
    letters are at least two sites apart."""
    if abs(m - n) < 2:
        raise InvalidParams("needs |m - n| >= 2")
    if m < 1 or n < 1 or max(m, n) > sites:
        raise InvalidParams("sites too small for the letters")
    start = expand_composites((B(m), B(n)))
    end = expand_composites((B(n), B(m)))
    steps = (
        Step(1, far(m, -1, n, 1), True),
        Step(0, far(m, 1, n, 1), True),
        Step(2, far(m, -1, n, -1), True),
        Step(1, far(m, 1, n, -1), True),
    )
    return DerivationScript(f"b_commute({m},{n})", start, steps, end)


# ---------------------------------------------------------------------------
# the extended seven-term derivation
# ---------------------------------------------------------------------------


def seven_term_script() -> DerivationScript:
    """Derive E(v) E(u^-1) E(u) E(v) = E(u^-1) E(v) E(u) from the merge,
    split, and commutation rules, with all premises checked exactly.

    The letters carry exact algebra elements on two sites; the reverse merge
    in the middle mechanically confirms that both merge orders produce the
    same combined argument.
    """
    u = Element.generator(2, 1)
    v = Element.generator(2, 2)
    ui = Element.generator(2, 1, -1)

    lu = ExpLetter("u", u)
    lv = ExpLetter("v", v)
    lui = ExpLetter("u^-1", ui)

    swap_ui_u = commute_rule(lui, lu)
    swap_u_ui = commute_rule(lu, lui)
    pent = pentagon_rule(lu, lv)
    middle = pent.rhs[1]  # E(-q v u)
    merge_mid_v = mult1_rule(middle, lv)
    merge_with_ui = mult1_rule(merge_mid_v.rhs[0], lui)
    other_merge = mult2_rule(middle, lui)

    start, end = seven_term_words(lu, lui, lv)
    steps = (
        Step(1, swap_ui_u, True),
        Step(0, pent, True),
        Step(1, merge_mid_v, True),
        Step(1, merge_with_ui, True),
        Step(1, other_merge, False),
        Step(0, swap_u_ui, True),
        Step(1, pent, False),
    )
    return DerivationScript("seven_term", start, steps, end)


# ---------------------------------------------------------------------------
# translation scripts: one extra letter moves through an ordered run
# ---------------------------------------------------------------------------


def braid_translation_fwd(m: int, n: int, k: int) -> DerivationScript:
    """(b_m ... b_(n-1)) b_k  rewrites to  b_(k+1) (b_m ... b_(n-1)),
    for m <= k <= n-2."""
    if m < 1 or not m <= k <= n - 2:
        raise InvalidParams("needs 1 <= m <= k <= n-2")
    asc = tuple(B(j) for j in range(m, n))
    start = asc + (B(k),)
    end = (B(k + 1),) + asc
    steps: list[Step] = []
    for j in range(n - 1, k + 1, -1):
        steps.append(Step(j - m, bcomm(j, k), True))
    steps.append(Step(k - m, artin(k), True))
    for j in range(k - 1, m - 1, -1):
        steps.append(Step(j - m, bcomm(j, k + 1), True))
    return DerivationScript(f"braid_fwd({m},{n},{k})", start, tuple(steps), end)


def braid_translation_rev(m: int, n: int, k: int) -> DerivationScript:
    """(b_(n-1) ... b_m) b_(k+1)  rewrites to  b_k (b_(n-1) ... b_m),
    for m <= k <= n-2."""
    if m < 1 or not m <= k <= n - 2:
        raise InvalidParams("needs 1 <= m <= k <= n-2")
    desc = tuple(B(j) for j in range(n - 1, m - 1, -1))
    start = desc + (B(k + 1),)
    end = (B(k),) + desc
    steps: list[Step] = []
    for j in range(m, k):
        steps.append(Step(n - 1 - j, bcomm(j, k + 1), True))
    steps.append(Step(n - k - 2, artin(k), False))
    for j in range(k + 2, n):
        steps.append(Step(n - 1 - j, bcomm(j, k), True))
    return DerivationScript(f"braid_rev({m},{n},{k})", start, tuple(steps), end)


def sigma_translation_fwd(m: int, n: int, k: int) -> DerivationScript:
    """(c_m ... c_(n-1)) c_k  rewrites to  c_(k+1) (c_m ... c_(n-1)) for
    m < k <= n-3; at k = m the extra letter lodges one place in, giving
    c_(m+1) c_m c_(m+2) ... c_(n-1)."""
    if m < 1 or not m <= k <= n - 3:
        raise InvalidParams("needs 1 <= m <= k <= n-3")
    asc = tuple(C(j) for j in range(m, n))
    start = asc + (C(k),)
    steps: list[Step] = []
    for j in range(n - 1, k + 2, -1):
        steps.append(Step(j - m, scomm(j, k), True))
    steps.append(Step(k - m, sig2(k + 1), True))
    if k > m:
        steps.append(Step(k - 1 - m, sig1(k), False))
        for j in range(k - 2, m - 1, -1):
            steps.append(Step(j - m, scomm(j, k + 1), True))
        end = (C(k + 1),) + asc
    else:
        end = (C(m + 1), C(m)) + tuple(C(j) for j in range(m + 2, n))
    return DerivationScript(f"sigma_fwd({m},{n},{k})", start, tuple(steps), end)


def sigma_translation_rev(m: int, n: int, k: int) -> DerivationScript:
    """(c_(n-1) ... c_m) c_(k+1)  rewrites to  c_(k-1) (c_(n-1) ... c_m),
    for m+1 <= k <= n-2."""
    if m < 1 or not m + 1 <= k <= n - 2:
        raise InvalidParams("needs 1 <= m and m+1 <= k <= n-2")
    desc = tuple(C(j) for j in range(n - 1, m - 1, -1))
    start = desc + (C(k + 1),)
    end = (C(k - 1),) + desc
    steps: list[Step] = []
    for j in range(m, k - 1):
        steps.append(Step(n - 1 - j, scomm(j, k + 1), True))
    steps.append(Step(n - k - 1, sig2(k), False))
    steps.append(Step(n - k - 2, sig1(k), True))
    for j in range(k + 2, n):
        steps.append(Step(n - 1 - j, scomm(j, k - 1), True))
    return DerivationScript(f"sigma_rev({m},{n},{k})", start, tuple(steps), end)


# ---------------------------------------------------------------------------
# random walks through the structural rewrite system
# ---------------------------------------------------------------------------


def structural_relations(sites: int) -> list[Relation]:
    """All factor-letter relation instances on the given sites: rel1..rel4
    at each n, then comm0 at each site, then far(a, sa, b, sb) once for each
    pair of sites a < b two or more apart, as its reverse swaps them back."""
    rels: list[Relation] = []
    for n in range(1, sites):
        rels.extend((rel1(n), rel2(n), rel3(n), rel4(n)))
    rels.extend(comm0(n) for n in range(1, sites + 1))
    for a in range(1, sites + 1):
        for b in range(a + 2, sites + 1):
            rels.extend(far(a, sa, b, sb) for sa in (1, -1) for sb in (1, -1))
    return rels


def _pattern_index(relations: Sequence[Relation]) -> dict:
    """Both sides of every relation, keyed by their first letter, as
    (relation index, 0 for lhs or 1 for rhs, pattern, relation).  Every
    side is a non-empty word of :class:`Letter`, as in
    :func:`structural_relations`."""
    index: dict = {}
    for r, rel in enumerate(relations):
        for rev, side in enumerate((rel.lhs, rel.rhs)):
            pattern = tuple(side)
            index.setdefault(pattern[0], []).append((r, rev, pattern, rel))
    return index


def _matching_steps(word: tuple, index: dict) -> list[Step]:
    """Every step whose pattern, from :func:`_pattern_index`, matches the
    word of :class:`Letter`, ordered by relation index, then forward before
    reverse, then position."""
    found = [
        (r, rev, pos, rel)
        for pos, letter in enumerate(word)
        for r, rev, pattern, rel in index.get(letter, ())
        if word[pos : pos + len(pattern)] == pattern
    ]
    found.sort(key=itemgetter(0, 1, 2))
    return [Step(pos, rel, not rev) for _, rev, pos, rel in found]


def random_walk(
    start: Word,
    sites: int,
    steps: int,
    rng: random.Random,
    length_cap: int = 16,
) -> tuple[list[Word], list[Step]]:
    """Seeded walk through the rewrite system, biased toward steps that do
    not grow the word, and refusing steps that would exceed the length cap.

    Returns the word trace (including the start) and the steps taken; the
    walk stops early if no step is admissible.
    """
    index = _pattern_index(structural_relations(sites))
    word = tuple(start)
    trace = [word]
    taken: list[Step] = []
    for _ in range(steps):
        candidates = _matching_steps(word, index)
        weighted: list[tuple[Step, int]] = []
        for st in candidates:
            pattern = st.relation.lhs if st.forward else st.relation.rhs
            replacement = st.relation.rhs if st.forward else st.relation.lhs
            delta = len(replacement) - len(pattern)
            if len(word) + delta > length_cap:
                continue
            weighted.append((st, 4 if delta < 0 else (2 if delta == 0 else 1)))
        if not weighted:
            break
        chosen = rng.choices(
            [st for st, _ in weighted], weights=[w for _, w in weighted], k=1
        )[0]
        word = apply_step(word, chosen)
        trace.append(word)
        taken.append(chosen)
    return trace, taken
