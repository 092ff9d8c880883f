"""Words, rewrite relations, and replayable derivations.

Words are tuples of letters.  Three structural letter kinds exist:

* ``s<site><+/->`` -- a q-exponential factor letter: ``s2+`` stands for
  E(w_2) and ``s2-`` for E(w_2^-1).
* ``b<site>`` -- the composite  b_n = s_n+ s_n-.
* ``c<site>`` -- the composite  c_n = s_n- s_(n+1)+.

A :class:`Relation` is an oriented pair of words (lhs, rhs) built by a named
factory with integer bindings; a :class:`Step` applies one relation at one
position, forward (lhs -> rhs) or reverse.  A :class:`DerivationScript` is a
start word, a step list, and a claimed end word; :func:`replay` re-applies
every step mechanically and reports the first failure, if any.

Besides the structural relations there are *algebra-premise rules* whose
letters carry algebra elements (:class:`ExpLetter`): the multiplication,
splitting, and commutation rules for q-exponentials of algebra elements.
Their factories verify the algebraic premise exactly at construction time
(e.g. the q^2-commutation of the pair), so a replayed script is a gap-free
derivation.  Words of such letters have no file representation; the file
format below covers the structural letters only:

    script: <name>
    start: s2+ s1- s1+ s2+
    @0 rel1[n=1] fwd
    end: s1- s2+ s1+
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Sequence, Union

from .algebra import Element
from .errors import FrozenRecord, InvalidParams, InvalidStep, NoMatch

__all__ = [
    "Letter",
    "ExpLetter",
    "Word",
    "Relation",
    "Step",
    "DerivationScript",
    "ReplayResult",
    "apply_step",
    "replay",
    "expand_composites",
    "parse_word",
    "render_word",
    "parse_script",
    "render_script",
    "comm0",
    "rel1",
    "rel2",
    "rel3",
    "rel4",
    "seven_term_words",
    "far",
    "artin",
    "bcomm",
    "sig1",
    "sig2",
    "scomm",
    "mult1_rule",
    "mult2_rule",
    "pentagon_rule",
    "commute_rule",
    "RELATION_BUILDERS",
]


# ---------------------------------------------------------------------------
# letters and words
# ---------------------------------------------------------------------------


class Letter(FrozenRecord):
    """Structural letter: kind 'S' (sign +-1), 'B', or 'C' (sign 0)."""

    __slots__ = ("kind", "site", "sign")

    def __init__(self, kind: str, site: int, sign: int = 0) -> None:
        if kind not in ("S", "B", "C"):
            raise InvalidParams(f"unknown letter kind {kind!r}")
        if site < 1:
            raise InvalidParams("site must be >= 1")
        if kind == "S" and sign not in (1, -1):
            raise InvalidParams("an s-letter needs sign +1 or -1")
        if kind != "S" and sign != 0:
            raise InvalidParams("composite letters carry no sign")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "sign", sign)

    # written out, as the rewrite walk compares and hashes letters most
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.site == other.site and self.sign == other.sign and self.kind == other.kind

    def __hash__(self) -> int:
        return hash((self.kind, self.site, self.sign))

    def __str__(self) -> str:
        if self.kind == "S":
            return f"s{self.site}{'+' if self.sign > 0 else '-'}"
        return f"{self.kind.lower()}{self.site}"


class ExpLetter:
    """Letter carrying the algebra-element argument of one q-exponential.

    Equality compares the elements, so a rewrite matches any letter with the
    same argument regardless of how it was labeled.
    """

    __slots__ = ("label", "element")

    def __init__(self, label: str, element: Element) -> None:
        self.label = label
        self.element = element

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpLetter):
            return NotImplemented
        return self.element == other.element

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"E({self.label})"

    def __repr__(self) -> str:
        return f"ExpLetter({self.label!r})"


AnyLetter = Union[Letter, ExpLetter]
Word = tuple


# the factories share one frozen letter per argument tuple, so words built
# from them compare letter by letter through the identity shortcut
@lru_cache(maxsize=256)
def S(site: int, sign: int) -> Letter:
    return Letter("S", site, sign)


@lru_cache(maxsize=256)
def B(site: int) -> Letter:
    return Letter("B", site)


@lru_cache(maxsize=256)
def C(site: int) -> Letter:
    return Letter("C", site)


def render_word(word: Sequence[AnyLetter]) -> str:
    return " ".join(str(x) for x in word)


_LETTER_RE = re.compile(r"^([sbc])([0-9]+)([+-]?)$")


def parse_letter(token: str) -> Letter:
    m = _LETTER_RE.match(token)
    if not m:
        raise InvalidParams(f"cannot parse letter {token!r}")
    kind, site, sign = m.groups()
    if kind == "s":
        if not sign:
            raise InvalidParams(f"s-letter {token!r} needs a sign")
        return S(int(site), 1 if sign == "+" else -1)
    if sign:
        raise InvalidParams(f"letter {token!r} cannot carry a sign")
    return B(int(site)) if kind == "b" else C(int(site))


def parse_word(text: str) -> Word:
    return tuple(parse_letter(tok) for tok in text.split())


def expand_composites(word: Sequence[AnyLetter]) -> Word:
    """Rewrite composite letters into s-letters:
    b_n -> s_n+ s_n-   and   c_n -> s_n- s_(n+1)+ ."""
    out: list[AnyLetter] = []
    for x in word:
        if isinstance(x, Letter) and x.kind == "B":
            out.extend((S(x.site, 1), S(x.site, -1)))
        elif isinstance(x, Letter) and x.kind == "C":
            out.extend((S(x.site, -1), S(x.site + 1, 1)))
        else:
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


class Relation(FrozenRecord):
    """Oriented rewrite  lhs <-> rhs  produced by a named factory."""

    __slots__ = ("rid", "bindings", "lhs", "rhs")

    @property
    def full_id(self) -> str:
        if not self.bindings:
            return self.rid
        inner = ",".join(f"{k}={v}" for k, v in self.bindings)
        return f"{self.rid}[{inner}]"

    def __str__(self) -> str:
        return f"{self.full_id}: {render_word(self.lhs)} <-> {render_word(self.rhs)}"


def comm0(n: int) -> Relation:
    """Same-site factors commute:  s_n+ s_n- = s_n- s_n+ ."""
    return Relation(
        "comm0", (("n", str(n)),),
        (S(n, 1), S(n, -1)),
        (S(n, -1), S(n, 1)),
    )


def seven_term_words(
    u: AnyLetter, u_inv: AnyLetter, v: AnyLetter
) -> tuple[Word, Word]:
    """The two sides of the seven-term identity for a q^2-commuting pair
    (u, v):  E(v) E(u^-1) E(u) E(v) = E(u^-1) E(v) E(u)."""
    return (v, u_inv, u, v), (u_inv, v, u)


def rel1(n: int) -> Relation:
    """s_(n+1)+ s_n- s_n+ s_(n+1)+  =  s_n- s_(n+1)+ s_n+ ."""
    return Relation(
        "rel1", (("n", str(n)),), *seven_term_words(S(n, 1), S(n, -1), S(n + 1, 1))
    )


def rel2(n: int) -> Relation:
    """s_(n+1)- s_n+ s_n- s_(n+1)-  =  s_n+ s_(n+1)- s_n- ."""
    return Relation(
        "rel2", (("n", str(n)),), *seven_term_words(S(n, -1), S(n, 1), S(n + 1, -1))
    )


def rel3(n: int) -> Relation:
    """s_n+ s_(n+1)+ s_(n+1)- s_n+  =  s_(n+1)+ s_n+ s_(n+1)- ."""
    return Relation(
        "rel3", (("n", str(n)),), *seven_term_words(S(n + 1, -1), S(n + 1, 1), S(n, 1))
    )


def rel4(n: int) -> Relation:
    """s_n- s_(n+1)- s_(n+1)+ s_n-  =  s_(n+1)- s_n- s_(n+1)+ ."""
    return Relation(
        "rel4", (("n", str(n)),), *seven_term_words(S(n + 1, 1), S(n + 1, -1), S(n, -1))
    )


def _sgn_token(site: int, sign: int) -> str:
    return f"{site}{'+' if sign > 0 else '-'}"


def far(a_site: int, a_sign: int, b_site: int, b_sign: int) -> Relation:
    """Distant factors commute (sites two or more apart)."""
    if abs(a_site - b_site) < 2:
        raise InvalidParams("far-commutation needs sites two or more apart")
    return Relation(
        "far",
        (("a", _sgn_token(a_site, a_sign)), ("b", _sgn_token(b_site, b_sign))),
        (S(a_site, a_sign), S(b_site, b_sign)),
        (S(b_site, b_sign), S(a_site, a_sign)),
    )


def artin(n: int) -> Relation:
    """b_n b_(n+1) b_n = b_(n+1) b_n b_(n+1) ."""
    p = n + 1
    return Relation(
        "artin", (("n", str(n)),),
        (B(n), B(p), B(n)),
        (B(p), B(n), B(p)),
    )


def bcomm(m: int, n: int) -> Relation:
    """b_m b_n = b_n b_m for |m - n| > 1."""
    if abs(m - n) <= 1:
        raise InvalidParams("b-commutation needs |m - n| > 1")
    return Relation(
        "bcomm", (("m", str(m)), ("n", str(n))),
        (B(m), B(n)),
        (B(n), B(m)),
    )


def sig1(n: int) -> Relation:
    """c_(n+1) c_(n-1) c_n c_(n+1) = c_(n-1) c_(n+1) c_n ."""
    if n < 2:
        raise InvalidParams("needs n >= 2 so that site n-1 exists")
    return Relation(
        "sig1", (("n", str(n)),),
        (C(n + 1), C(n - 1), C(n), C(n + 1)),
        (C(n - 1), C(n + 1), C(n)),
    )


def sig2(n: int) -> Relation:
    """c_(n-1) c_n c_(n+1) c_(n-1) = c_n c_(n-1) c_(n+1) ."""
    if n < 2:
        raise InvalidParams("needs n >= 2 so that site n-1 exists")
    return Relation(
        "sig2", (("n", str(n)),),
        (C(n - 1), C(n), C(n + 1), C(n - 1)),
        (C(n), C(n - 1), C(n + 1)),
    )


def scomm(m: int, n: int) -> Relation:
    """c_m c_n = c_n c_m for |m - n| > 2."""
    if abs(m - n) <= 2:
        raise InvalidParams("c-commutation needs |m - n| > 2")
    return Relation(
        "scomm", (("m", str(m)), ("n", str(n))),
        (C(m), C(n)),
        (C(n), C(m)),
    )


# -- algebra-premise rules ---------------------------------------------------


def _require_weyl(a: Element, b: Element) -> None:
    """The pair must satisfy  a b = q^2 b a  exactly."""
    if a * b != (b * a).scale(2):
        raise InvalidStep("premise failed: arguments are not a q^2-commuting pair")


def mult1_rule(x: ExpLetter, y: ExpLetter) -> Relation:
    """E(a) E(b) = E(a + b)  for a q^2-commuting pair (a, b)."""
    a, b = x.element, y.element
    _require_weyl(a, b)
    merged = ExpLetter(f"{x.label}+{y.label}", a + b)
    return Relation("mult1", (("a", x.label), ("b", y.label)), (x, y), (merged,))


def mult2_rule(x: ExpLetter, y: ExpLetter) -> Relation:
    """E(b) E(a) = E(a + b - q b a)  for a q^2-commuting pair (a, b)."""
    a, b = x.element, y.element
    _require_weyl(a, b)
    merged = ExpLetter(
        f"{x.label}+{y.label}-q{y.label}{x.label}",
        a + b - (b * a).scale(1),
    )
    return Relation("mult2", (("a", x.label), ("b", y.label)), (y, x), (merged,))


def pentagon_rule(x: ExpLetter, y: ExpLetter) -> Relation:
    """E(b) E(a) = E(a) E(-q b a) E(b)  for a q^2-commuting pair (a, b)."""
    a, b = x.element, y.element
    _require_weyl(a, b)
    middle = ExpLetter(f"-q{y.label}{x.label}", (b * a).scale(1, -1))
    return Relation("pentagon", (("a", x.label), ("b", y.label)), (y, x), (x, middle, y))


def commute_rule(x: ExpLetter, y: ExpLetter) -> Relation:
    """E(a) E(b) = E(b) E(a)  when a and b commute exactly."""
    if x.element * y.element != y.element * x.element:
        raise InvalidStep("premise failed: arguments do not commute")
    return Relation("commute", (("a", x.label), ("b", y.label)), (x, y), (y, x))


# ---------------------------------------------------------------------------
# steps, scripts, replay
# ---------------------------------------------------------------------------


class Step(FrozenRecord):
    __slots__ = ("position", "relation", "forward")
    _defaults = {"forward": True}

    def __str__(self) -> str:
        return f"@{self.position} {self.relation.full_id} {'fwd' if self.forward else 'rev'}"


def apply_step(word: Word, step: Step) -> Word:
    pattern = step.relation.lhs if step.forward else step.relation.rhs
    replacement = step.relation.rhs if step.forward else step.relation.lhs
    pos = step.position
    if pos < 0 or pos + len(pattern) > len(word):
        raise NoMatch(f"{step}: pattern does not fit at position {pos}")
    window = tuple(word[pos : pos + len(pattern)])
    if window != tuple(pattern):
        raise NoMatch(
            f"{step}: expected {render_word(pattern)} at position {pos}, "
            f"found {render_word(window)}"
        )
    return tuple(word[:pos]) + tuple(replacement) + tuple(word[pos + len(pattern) :])


class DerivationScript(FrozenRecord):
    __slots__ = ("name", "start", "steps", "end")


class ReplayResult(FrozenRecord):
    __slots__ = ("ok", "steps_applied", "final", "error")
    _defaults = {"error": None}


def replay(script: DerivationScript) -> ReplayResult:
    """Re-apply every step of the script; succeed only if each step matches
    and the final word equals the claimed end word."""
    word = tuple(script.start)
    for i, step in enumerate(script.steps):
        try:
            word = apply_step(word, step)
        except NoMatch as exc:
            return ReplayResult(False, i, word, str(exc))
    if word != tuple(script.end):
        return ReplayResult(
            False,
            len(script.steps),
            word,
            f"final word {render_word(word)} differs from claimed {render_word(script.end)}",
        )
    return ReplayResult(True, len(script.steps), word)


# ---------------------------------------------------------------------------
# script files (structural letters only)
# ---------------------------------------------------------------------------


def _parse_binding_letter(tok: str) -> tuple[int, int]:
    m = re.match(r"^([0-9]+)([+-])$", tok)
    if not m:
        raise InvalidParams(f"cannot parse signed site {tok!r}")
    return int(m.group(1)), (1 if m.group(2) == "+" else -1)


def _index(text: str) -> int:
    """A binding's integer: ASCII digits only, where int() reads more."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


RELATION_BUILDERS: dict[str, Callable[[dict[str, str]], Relation]] = {
    "comm0": lambda b: comm0(_index(b["n"])),
    "rel1": lambda b: rel1(_index(b["n"])),
    "rel2": lambda b: rel2(_index(b["n"])),
    "rel3": lambda b: rel3(_index(b["n"])),
    "rel4": lambda b: rel4(_index(b["n"])),
    "far": lambda b: far(*_parse_binding_letter(b["a"]), *_parse_binding_letter(b["b"])),
    "artin": lambda b: artin(_index(b["n"])),
    "bcomm": lambda b: bcomm(_index(b["m"]), _index(b["n"])),
    "sig1": lambda b: sig1(_index(b["n"])),
    "sig2": lambda b: sig2(_index(b["n"])),
    "scomm": lambda b: scomm(_index(b["m"]), _index(b["n"])),
}

_STEP_RE = re.compile(r"^@([0-9]+)\s+([a-z0-9]+)(?:\[([^\]]*)\])?\s+(fwd|rev)$")


def render_script(script: DerivationScript) -> str:
    """The script in the text format that :func:`parse_script` and
    ``qtorus replay`` read: its name, its start word, one step per line and
    its end word.  Only scripts of structural letters have this form."""
    for w in (script.start, script.end):
        if any(not isinstance(x, Letter) for x in w):
            raise InvalidParams("only structural-letter scripts have a file form")
    lines = [f"script: {script.name}", f"start: {render_word(script.start)}"]
    for st in script.steps:
        lines.append(str(st))
    lines.append(f"end: {render_word(script.end)}")
    return "\n".join(lines) + "\n"


def parse_script(text: str) -> DerivationScript:
    """The script of the text format :func:`render_script` writes: one
    ``script:``, ``start:`` and ``end:`` line each, and one step per line."""
    header: dict = {}
    steps: list[Step] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if sep and key in ("script", "start", "end"):
            if key in header:
                raise InvalidParams(f"{key!r} line given twice: {raw!r}")
            header[key] = value.strip() if key == "script" else parse_word(value)
        else:
            m = _STEP_RE.match(line)
            if not m:
                raise InvalidParams(f"cannot parse script line {raw!r}")
            pos, rid, bindings_str, direction = m.groups()
            builder = RELATION_BUILDERS.get(rid)
            if builder is None:
                raise InvalidParams(f"unknown relation {rid!r}")
            bindings: dict[str, str] = {}
            if bindings_str:
                for chunk in bindings_str.split(","):
                    k, _, v = chunk.partition("=")
                    k = k.strip()
                    if k in bindings:
                        raise InvalidParams(f"binding {k!r} given twice: {raw!r}")
                    bindings[k] = v.strip()
            try:
                relation = builder(bindings)
            except KeyError as exc:
                raise InvalidParams(f"{rid} needs binding {exc.args[0]!r}: {raw!r}") from None
            except ValueError:
                raise InvalidParams(f"binding is not an integer: {raw!r}") from None
            unknown = set(bindings) - {k for k, _ in relation.bindings}
            if unknown:
                raise InvalidParams(f"{rid} takes no binding {min(unknown)!r}: {raw!r}")
            steps.append(Step(int(pos), relation, direction == "fwd"))
    if len(header) < 3:
        raise InvalidParams("script needs name, start, and end lines")
    return DerivationScript(header["script"], header["start"], tuple(steps), header["end"])
