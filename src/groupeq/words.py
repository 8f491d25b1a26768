"""Exact word algebra in free products of backends and named letters.

An ambient fixes an ordered list of factor groups plus named infinite-cyclic
letters; words are alternating syllable sequences in normal form.  Factor
syllables carry a nonidentity backend element, letter syllables a nonzero
integer exponent.  Sources are the factor index (int) or the letter name
(str).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .backends import Group, GroupElement, PresentationData
from .config import DEFAULT_CAPS, Caps
from .errors import (
    CapExceededError,
    GroupEqError,
    GroupMismatchError,
    SymbolClashError,
)


@dataclass(frozen=True)
class Ambient:
    factors: tuple[Group, ...] = ()
    letters: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("letter names must be distinct")

    def describe(self) -> str:
        parts = [f.describe() for f in self.factors]
        parts += [f"<{nm}>" for nm in self.letters]
        return " * ".join(parts) if parts else "1"


def _merge(ambient: Ambient, stack: list, syl: tuple) -> None:
    """Push one syllable onto a normal-form stack, reducing at the seam."""
    src, val = syl
    if isinstance(src, int):
        if val.is_identity:
            return
    elif val == 0:
        return
    if stack and stack[-1][0] == src:
        _, prev = stack.pop()
        if isinstance(src, int):
            combined = prev * val
            if not combined.is_identity:
                stack.append((src, combined))
        else:
            total = prev + val
            if total != 0:
                stack.append((src, total))
    else:
        stack.append((src, val))


@dataclass(frozen=True)
class FPWord:
    """Normal-form word in a free product of factors and letters."""

    ambient: Ambient
    syllables: tuple[tuple[Any, Any], ...] = ()

    # -- constructors

    @staticmethod
    def identity(ambient: Ambient) -> "FPWord":
        return FPWord(ambient, ())

    @staticmethod
    def factor(ambient: Ambient, i: int, el: GroupElement) -> "FPWord":
        if not 0 <= i < len(ambient.factors):
            raise ValueError(f"no factor {i} in this ambient")
        if el.group != ambient.factors[i]:
            raise GroupMismatchError("element does not live in that factor")
        return FPWord(ambient, () if el.is_identity else ((i, el),))

    @staticmethod
    def letter(ambient: Ambient, name: str, k: int = 1) -> "FPWord":
        if name not in ambient.letters:
            raise ValueError(f"no letter {name!r} in this ambient")
        return FPWord(ambient, () if k == 0 else ((name, k),))

    @staticmethod
    def build(ambient: Ambient, items: Iterable[tuple[Any, Any]]) -> "FPWord":
        stack: list = []
        for src, val in items:
            if isinstance(src, int):
                if not 0 <= src < len(ambient.factors):
                    raise ValueError(f"no factor {src}")
                if val.group != ambient.factors[src]:
                    raise GroupMismatchError("syllable element in wrong factor")
            elif src not in ambient.letters:
                raise ValueError(f"no letter {src!r}")
            _merge(ambient, stack, (src, val))
        return FPWord(ambient, tuple(stack))

    # -- arithmetic

    def __mul__(self, other: "FPWord") -> "FPWord":
        if self.ambient != other.ambient:
            raise GroupMismatchError("words from different ambients")
        stack = list(self.syllables)
        for syl in other.syllables:
            _merge(self.ambient, stack, syl)
        return FPWord(self.ambient, tuple(stack))

    def __invert__(self) -> "FPWord":
        out = []
        for src, val in reversed(self.syllables):
            out.append((src, ~val if isinstance(src, int) else -val))
        return FPWord(self.ambient, tuple(out))

    def __pow__(self, n: int) -> "FPWord":
        if n == 0:
            return FPWord.identity(self.ambient)
        if n < 0:
            return (~self) ** (-n)
        half = self ** (n // 2)
        sq = half * half
        return sq * self if n % 2 else sq

    def conj(self, y: "FPWord") -> "FPWord":
        """w^y = y^-1 w y."""
        return (~y) * self * y

    # -- inspection

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def syllable_length(self) -> int:
        return len(self.syllables)

    def letter_length(self, name: str) -> int:
        """Occurrences of name^{+-1} in the reduced word."""
        return sum(abs(v) for s, v in self.syllables if s == name)

    # -- normal-form geometry

    def cyclic_reduce(self) -> tuple["FPWord", "FPWord"]:
        """(core, z) such that self = z * core * z^-1, core cyclically reduced.

        Border syllables are peeled left first, so the conjugator choice is
        deterministic.
        """
        core, z = self, FPWord.identity(self.ambient)
        while True:
            w = core.syllables
            if len(w) >= 2 and w[0][0] == w[-1][0]:
                head = FPWord(self.ambient, (w[0],))
                core = (~head) * core * head
                z = z * head
            else:
                return core, z

    def rotations(self) -> list["FPWord"]:
        """All cyclic rotations of the syllable string (conjugates)."""
        w = self.syllables
        out = []
        for r in range(max(1, len(w))):
            out.append(FPWord.build(self.ambient, w[r:] + w[:r]))
        return out

    def sort_key(self) -> tuple:
        key = []
        for src, val in self.syllables:
            if isinstance(src, int):
                key.append((0, src, tuple(self.ambient.factors[src].sort_key(val))))
            else:
                key.append((1, self.ambient.letters.index(src), (val,)))
        return (len(key), tuple(key))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for src, val in self.syllables:
            if isinstance(src, int):
                parts.append(self.ambient.factors[src].format_element(val))
            else:
                parts.append(src if val == 1 else f"{src}^{val}")
        return " ".join(parts)


def in_subfreeproduct(w: FPWord, allowed: Iterable) -> bool:
    """True iff every syllable source of w lies in `allowed`."""
    allowed = set(allowed)
    return all(src in allowed for src, _ in w.syllables)


def conjugate_into(w: FPWord, allowed: Iterable) -> bool:
    """True iff w is conjugate to an element of the sub-free-product on `allowed`."""
    core, _ = w.cyclic_reduce()
    return in_subfreeproduct(core, allowed)


def is_conjugate_to_constant(w: FPWord, factor: int) -> bool:
    """True iff w is conjugate to an element of the given factor."""
    return conjugate_into(w, {factor})


def conjugate_words(u: FPWord, v: FPWord) -> bool:
    """Conjugacy test in the free product (exact)."""
    if u.ambient != v.ambient:
        raise GroupMismatchError("words from different ambients")
    cu, _ = u.cyclic_reduce()
    cv, _ = v.cyclic_reduce()
    wu, wv = cu.syllables, cv.syllables
    if len(wu) != len(wv):
        return False
    if not wu:
        return True
    if len(wu) == 1:
        (su, a), (sv, b) = wu[0], wv[0]
        if su != sv:
            return False
        if isinstance(su, int):
            return u.ambient.factors[su].are_conjugate(a, b)
        return a == b
    return any(wv[r:] + wv[:r] == wu for r in range(len(wv)))


# ---------------------------------------------------------------------------
# bounded transcendence falsifier


@dataclass(frozen=True)
class FalsifierResult:
    """Outcome of the bounded search for a relation between <A> and b.

    status "falsified" certifies that b is NOT transcendental over <A>
    (a nontrivial word of the abstract free product evaluates to 1);
    status "no-relation-up-to" is inconclusive by design.
    """

    status: str  # "falsified" | "no-relation-up-to"
    max_len: int
    witness: Optional[tuple] = None  # tokens ("A", ((gen, exp), ...)) / ("b", k)

    @property
    def falsified(self) -> bool:
        return self.status == "falsified"


def relation_falsifier(
    a_gens: Sequence,
    b,
    identity,
    max_len: int = 8,
    caps: Caps = DEFAULT_CAPS,
):
    """Search nonempty reduced words of the abstract free product <A> * <b>.

    Elements only need *, ~ and ==.  Words alternate nontrivial <A>-blocks
    (products of the given generators, weighted by generator letters used)
    and nonzero powers of b (weighted by |exponent|).  The first word that
    evaluates to the identity is returned as a witness; with no A-generators
    the search degenerates to checking powers of b, which is the right test
    when A is trivial.
    """
    if max_len > caps.max_len:
        raise CapExceededError(f"max_len {max_len} exceeds cap {caps.max_len}")
    if max_len < 1:
        raise ValueError("max_len must be positive")

    # enumerate nontrivial <A>-elements by minimal generator length
    pool: dict = {}
    if a_gens:
        gens = []
        for i, g in enumerate(a_gens):
            gens.append(((i, 1), g))
            gens.append(((i, -1), ~g))
        frontier = {identity: ()}
        seen = {identity}
        nodes = 0
        for _ in range(max_len):
            nxt = {}
            for val, expr in sorted(frontier.items(), key=lambda kv: kv[1]):
                for tag, g in gens:
                    cand = val * g
                    if cand in seen:
                        continue
                    nodes += 1
                    if nodes > caps.falsifier_nodes:
                        raise CapExceededError("falsifier pool cap exceeded")
                    seen.add(cand)
                    nxt[cand] = expr + (tag,)
            frontier = nxt
            for val, expr in nxt.items():
                pool[val] = expr
            if not nxt:
                break
    by_weight: dict[int, list] = {}
    for val, expr in pool.items():
        by_weight.setdefault(len(expr), []).append((expr, val))
    for lst in by_weight.values():
        lst.sort()

    b_powers: dict[int, Any] = {}

    def b_pow(k: int):
        if k not in b_powers:
            b_powers[k] = b_pow(k - 1) * b if k > 0 else b_pow(k + 1) * ~b if k < 0 else identity
        return b_powers[k]

    budget = [caps.falsifier_nodes]

    def search(prefix_val, weight_left: int, last: str, tokens: tuple):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceededError("falsifier enumeration cap exceeded")
        if tokens and prefix_val == identity and not (len(tokens) == 1 and tokens[0][0] == "A"):
            return tokens
        if weight_left == 0:
            return None
        if last != "b":
            for k in sorted(range(-weight_left, weight_left + 1), key=lambda v: (abs(v), -v)):
                if k == 0:
                    continue
                hit = search(prefix_val * b_pow(k), weight_left - abs(k), "b", tokens + (("b", k),))
                if hit is not None:
                    return hit
        if last != "A":
            for w in range(1, weight_left + 1):
                for expr, val in by_weight.get(w, ()):
                    hit = search(prefix_val * val, weight_left - w, "A", tokens + (("A", expr),))
                    if hit is not None:
                        return hit
        return None

    # iterative deepening: the first witness found is weight-minimal, and the
    # in-class order is fixed by the deterministic DFS
    for total in range(1, max_len + 1):
        hit = search(identity, total, "", ())
        if hit is not None:
            return FalsifierResult("falsified", max_len, hit)
    return FalsifierResult("no-relation-up-to", max_len)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    """Generators plus relator words over those generators (purely syntactic)."""

    generators: tuple[str, ...]
    relators: tuple[FPWord, ...]
    backing: tuple[tuple[str, Group], ...] = ()

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise SymbolClashError("duplicate generator names")
        amb = self.ambient()
        for rel in self.relators:
            if rel.ambient != amb:
                raise GroupEqError("relator is not a word over the declared generators")

    def ambient(self) -> Ambient:
        return Ambient((), self.generators)

    def word(self, items: Sequence[tuple[str, int]]) -> FPWord:
        amb = self.ambient()
        return FPWord.build(amb, items)

    # -- serialization: a line-oriented text format plus a structured dict

    def to_text(self) -> str:
        lines = ["gens: " + ", ".join(self.generators)]
        for rel in self.relators:
            toks = []
            for nm, e in rel.syllables:
                toks.append(nm if e == 1 else f"{nm}^{e}")
            lines.append("rel: " + " ".join(toks))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Presentation":
        gens: tuple[str, ...] = ()
        rel_words: list[list[tuple[str, int]]] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("gens:"):
                body = line[len("gens:"):].strip()
                gens = tuple(t.strip() for t in body.split(",")) if body else ()
            elif line.startswith("rel:"):
                body = line[len("rel:"):].strip()
                items = []
                for tok in body.split():
                    if "^" in tok:
                        nm, _, e = tok.partition("^")
                        items.append((nm, int(e)))
                    else:
                        items.append((tok, 1))
                rel_words.append(items)
            else:
                raise GroupEqError(f"bad presentation line: {raw!r}")
        pres = Presentation(gens, ())
        return Presentation(gens, tuple(pres.word(items) for items in rel_words))

    def to_struct(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [[[nm, e] for nm, e in rel.syllables] for rel in self.relators],
        }

    @staticmethod
    def from_struct(data: dict) -> "Presentation":
        gens = tuple(data["generators"])
        pres = Presentation(gens, ())
        rels = tuple(pres.word([(nm, e) for nm, e in rel]) for rel in data["relators"])
        return Presentation(gens, rels)


def presentation_of(group: Group) -> Presentation:
    """Presentation of a backend, when it has one."""
    data: PresentationData = group.presentation_data()
    pres = Presentation(data.names, ())
    rels = tuple(pres.word(list(rel)) for rel in data.relators)
    backing = tuple((nm, group) for nm in data.names)
    return Presentation(data.names, rels, backing)


def _reambient(word: FPWord, ambient: Ambient) -> FPWord:
    return FPWord.build(ambient, word.syllables)


def hnn(base: Presentation, stable: str, pairs: Sequence[tuple[FPWord, FPWord]]) -> Presentation:
    """HNN extension <base, stable | u_i^stable = v_i>, purely syntactic."""
    if not pairs:
        raise ValueError("hnn needs at least one associated pair")
    if stable in base.generators:
        raise SymbolClashError(f"stable letter {stable!r} clashes with a generator")
    gens = base.generators + (stable,)
    out = Presentation(gens, (), base.backing)
    amb = out.ambient()
    t = FPWord.letter(amb, stable)
    rels = [_reambient(r, amb) for r in base.relators]
    for u, v in pairs:
        uu, vv = _reambient(u, amb), _reambient(v, amb)
        rels.append((~t) * uu * t * (~vv))
    return Presentation(gens, tuple(rels), base.backing)


def amalgam(left: Presentation, right: Presentation, glue: Sequence[tuple[FPWord, FPWord]]) -> Presentation:
    """Disjoint-union presentation plus relators equating glued words."""
    clash = set(left.generators) & set(right.generators)
    if clash:
        raise SymbolClashError(f"generator names clash: {sorted(clash)}")
    gens = left.generators + right.generators
    out = Presentation(gens, (), left.backing + right.backing)
    amb = out.ambient()
    rels = [_reambient(r, amb) for r in left.relators]
    rels += [_reambient(r, amb) for r in right.relators]
    for u, v in glue:
        rels.append(_reambient(u, amb) * ~_reambient(v, amb))
    return Presentation(gens, tuple(rels), left.backing + right.backing)
