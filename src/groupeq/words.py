"""Word-level tools over the free-product and free-group backends.

Words are elements of `backends.FreeProductGroup` (syllable sources are
factor indices) or, for presentations, of the `backends.FreeGroup` on the
generator names.  This module adds sub-free-product membership tests, the
bounded transcendence falsifier, and syntactic presentations with HNN and
amalgam combinators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from .backends import FreeGroup, Group, GroupElement, PresentationData
from .config import DEFAULT_CAPS, Caps
from .errors import CapExceededError, GroupEqError, SymbolClashError


def in_subfreeproduct(w: GroupElement, allowed: Iterable[int]) -> bool:
    """True iff every syllable of w comes from a factor index in `allowed`."""
    allowed = set(allowed)
    return all(i in allowed for i, _ in w.payload)


def conjugate_into(w: GroupElement, allowed: Iterable[int]) -> bool:
    """True iff w is conjugate into the sub-free-product on the factor indices `allowed`."""
    core, _ = w.group.cyclically_reduce(w)
    return in_subfreeproduct(core, allowed)


def is_conjugate_to_constant(w: GroupElement, factor: int) -> bool:
    """True iff w is conjugate to an element of the given factor."""
    return conjugate_into(w, {factor})


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

    # powers of b in search order 1, -1, 2, -2, ...; weight w takes the first 2w
    b_order = [k for j in range(1, max_len + 1) for k in (j, -j)]
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
            for k in b_order[:2 * weight_left]:
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

# separators of the "gens:" line: commas outside parentheses, so generator
# names such as g@(1,-2) survive the round trip
_GEN_SEP = re.compile(r",(?![^()]*\))")


@dataclass(frozen=True)
class Presentation:
    """Generators plus relators, elements of the free group on the generators.

    Purely syntactic: equality compares generators and relators only.
    """

    generators: tuple[str, ...]
    relators: tuple[GroupElement, ...]
    backing: tuple[tuple[str, Group], ...] = field(default=(), compare=False)

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise SymbolClashError("duplicate generator names")
        try:
            F = self.group()
        except ValueError as exc:
            raise GroupEqError(str(exc)) from exc
        for rel in self.relators:
            if rel.group != F:
                raise GroupEqError("relator is not a word over the declared generators")

    def group(self) -> FreeGroup:
        return FreeGroup(self.generators)

    def word(self, items: Sequence[tuple[str, int]]) -> GroupElement:
        return self.group().word(items)

    # -- serialization: a line-oriented text format plus a structured dict

    def to_text(self) -> str:
        lines = ["gens: " + ", ".join(self.generators)]
        for rel in self.relators:
            toks = [nm if e == 1 else f"{nm}^{e}" for nm, e in rel.group.express(rel)]
            lines.append("rel: " + " ".join(toks))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Presentation":
        gens: tuple[str, ...] = ()
        rel_bodies: list[str] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("gens:"):
                body = line[len("gens:"):].strip()
                gens = tuple(t.strip() for t in _GEN_SEP.split(body)) if body else ()
            elif line.startswith("rel:"):
                rel_bodies.append(line[len("rel:"):])
            else:
                raise GroupEqError(f"bad presentation line: {raw!r}")
        F = Presentation(gens, ()).group()
        return Presentation(gens, tuple(F.parse_element(body) for body in rel_bodies))

    def to_struct(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [[[nm, e] for nm, e in rel.group.express(rel)] for rel in self.relators],
        }

    @staticmethod
    def from_struct(data: dict) -> "Presentation":
        gens = tuple(data["generators"])
        F = Presentation(gens, ()).group()
        return Presentation(gens, tuple(F.word(rel) for rel in data["relators"]))


def presentation_of(group: Group) -> Presentation:
    """Presentation of a backend, when it has one."""
    data: PresentationData = group.presentation_data()
    F = Presentation(data.names, ()).group()
    rels = tuple(F.word(rel) for rel in data.relators)
    backing = tuple((nm, group) for nm in data.names)
    return Presentation(data.names, rels, backing)


def hnn(base: Presentation, stable: str, pairs: Sequence[tuple[GroupElement, GroupElement]]) -> Presentation:
    """HNN extension <base, stable | u_i^stable = v_i>, purely syntactic."""
    if not pairs:
        raise ValueError("hnn needs at least one associated pair")
    if stable in base.generators:
        raise SymbolClashError(f"stable letter {stable!r} clashes with a generator")
    gens = base.generators + (stable,)
    F = Presentation(gens, ()).group()
    t = F.gen(stable)
    rels = [F.word(r.group.express(r)) for r in base.relators]
    for u, v in pairs:
        uu, vv = F.word(u.group.express(u)), F.word(v.group.express(v))
        rels.append((~t) * uu * t * (~vv))
    return Presentation(gens, tuple(rels), base.backing)


def amalgam(
    left: Presentation, right: Presentation, glue: Sequence[tuple[GroupElement, GroupElement]]
) -> Presentation:
    """Disjoint-union presentation plus relators equating glued words."""
    clash = set(left.generators) & set(right.generators)
    if clash:
        raise SymbolClashError(f"generator names clash: {sorted(clash)}")
    gens = left.generators + right.generators
    F = Presentation(gens, ()).group()
    rels = [F.word(r.group.express(r)) for r in left.relators + right.relators]
    for u, v in glue:
        rels.append(F.word(u.group.express(u)) * ~F.word(v.group.express(v)))
    return Presentation(gens, tuple(rels), left.backing + right.backing)
