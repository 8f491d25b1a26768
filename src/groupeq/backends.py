"""Concrete group backends with exact arithmetic and decidable equality.

Every element is stored in a canonical normal form, so ``==`` on payloads is
equality in the group and hashing is consistent with it.  All values are
immutable; every operation is a pure function.

Shipped backends: finite multiplication tables, symmetric groups, free
groups, free abelian groups, the fours group (the torsion-free non-UP
crystallographic group on two generators), free products and direct products
of the above, and an internal quotient of a free abelian group by a cyclic
subgroup (used for variable-group verdicts).
"""

from __future__ import annotations

import itertools
import re
from abc import ABC, abstractmethod
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from math import factorial, gcd
from typing import Any, Iterable, Mapping, Optional, Sequence

from .config import DEFAULT_CAPS, Caps
from .errors import (
    CapExceededError,
    GroupEqError,
    GroupMismatchError,
    SymbolClashError,
    UnsupportedBackendError,
)

# ---------------------------------------------------------------------------
# elements


class GroupElement:
    """Backend-tagged element; payload is the backend's canonical form.

    Immutable: setting or deleting an attribute raises.  Elements are equal
    when their payloads are equal and their groups are equal, and the hash
    is ``hash((group, payload))``, computed on first use and then kept.
    """

    __slots__ = ("group", "payload", "_hash")

    def __init__(self, group: "Group", payload: Any):
        _set_group(self, group)
        _set_payload(self, payload)
        _set_hash(self, None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (GroupElement, (self.group, self.payload))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GroupElement:
            return NotImplemented
        return self.payload == other.payload and (self.group is other.group or self.group == other.group)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.group, self.payload))
            _set_hash(self, h)
        return h

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        if other.group is group:  # the common case needs no group comparison
            return GroupElement(group, group._mul(self.payload, other.payload))
        return group.mul(self, other)

    def __invert__(self) -> "GroupElement":
        group = self.group
        return GroupElement(group, group._inv(self.payload))

    def __pow__(self, n: int) -> "GroupElement":
        if n == 0:
            return self.group.identity()
        if n < 0:
            return (~self) ** (-n)
        half = self ** (n // 2)
        sq = half * half
        return sq * self if n % 2 else sq

    def conj(self, y: "GroupElement") -> "GroupElement":
        """x^y = y^-1 x y."""
        return (~y) * self * y

    @property
    def is_identity(self) -> bool:
        return self.payload == self.group._one

    def __repr__(self) -> str:
        return self.group.format_element(self)


# the slots' own setters, which __setattr__ would refuse
_set_group = GroupElement.group.__set__
_set_payload = GroupElement.payload.__set__
_set_hash = GroupElement._hash.__set__


class Group(ABC):
    """Abstract backend.  Subclasses are value objects: equality by parameters.

    Each backend sets ``_one``, the identity's payload, once.
    """

    kind: str = "?"
    _one: Any

    # -- identity of the group object itself

    @abstractmethod
    def _key(self) -> tuple:
        ...

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Group) and self.kind == other.kind and self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self._key()))

    # -- core arithmetic

    def identity(self) -> GroupElement:
        return GroupElement(self, self._one)

    @abstractmethod
    def _mul(self, a: Any, b: Any) -> Any:
        ...

    @abstractmethod
    def _inv(self, a: Any) -> Any:
        ...

    def mul(self, x: GroupElement, y: GroupElement) -> GroupElement:
        if (x.group is not self and x.group != self) or (y.group is not self and y.group != self):
            raise GroupMismatchError(f"elements of {x.group} and {y.group} multiplied in {self}")
        return GroupElement(self, self._mul(x.payload, y.payload))

    # -- structure queries

    @abstractmethod
    def generators(self) -> tuple[GroupElement, ...]:
        ...

    def orderable_certificate(self) -> Optional[str]:
        """Reason string when the backend is certified right orderable."""
        return None

    def elements(self) -> tuple[GroupElement, ...]:
        raise UnsupportedBackendError(f"{self.kind} backend cannot enumerate elements")

    def are_conjugate(self, x: GroupElement, y: GroupElement) -> bool:
        raise UnsupportedBackendError(f"{self.kind} backend has no conjugacy test")

    # -- canonical printing / parsing / ordering

    def sort_key(self, x: GroupElement) -> tuple:
        return (x.payload,)

    @abstractmethod
    def format_element(self, x: GroupElement) -> str:
        ...

    def parse_element(self, text: str) -> GroupElement:
        raise UnsupportedBackendError(f"{self.kind} backend has no element literals")

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return self.describe()

    # -- presentations

    @cached_property
    def presentation(self) -> Presentation:
        """Generators and relators of this group, built on first use and kept
        (groups are immutable, like the hash)."""
        raise UnsupportedBackendError(f"{self.kind} backend has no known presentation")

    def express(self, x: GroupElement) -> tuple[tuple[str, int], ...]:
        """Write x as a word in the presentation generators."""
        raise UnsupportedBackendError(f"{self.kind} backend has no known presentation")

    # -- cosets of a cyclic subgroup (variable-group support)

    def coset_decompose(self, s: GroupElement, t: GroupElement) -> tuple[GroupElement, int]:
        """Canonical (c, k) with s = c * t**k; the identity coset gets c = 1.
        So for t != 1, s is a power of t exactly when c is the identity, and
        then s = t**k."""
        raise UnsupportedBackendError(f"{self.kind} backend has no <t>-coset support")

    # -- balls

    def layers(
        self,
        radius: int,
        gens: Optional[Sequence[GroupElement]] = None,
        caps: Caps = DEFAULT_CAPS,
    ) -> tuple[frozenset[GroupElement], ...]:
        """The spheres of ball(radius), nearest first: layer d holds the
        products of d factors from gens and inverses that are no product of
        fewer.  An empty layer ends the list, so a finite group can give
        fewer than radius + 1 layers."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if radius > caps.radius:
            raise CapExceededError(f"radius {radius} exceeds cap {caps.radius}")
        base = tuple(gens) if gens is not None else self.generators()
        if not base:
            raise ValueError("ball needs a nonempty generating set")
        for g in base:
            if g.group is not self and g.group != self:
                raise GroupMismatchError("ball generators must live in this group")
        # the BFS runs on payloads, which are canonical, and wraps each
        # element once at the end
        mul = self._mul
        syms = list(dict.fromkeys(h for g in base for h in (g.payload, self._inv(g.payload))))
        layer = {self._one}
        seen = set(layer)
        spheres = [layer]
        for _ in range(radius):
            layer = {mul(x, s) for x in layer for s in syms} - seen
            if not layer:
                break
            seen |= layer
            if len(seen) > caps.ball_size:
                raise CapExceededError(f"ball size exceeds cap {caps.ball_size}")
            spheres.append(layer)
        return tuple(frozenset([GroupElement(self, p) for p in layer]) for layer in spheres)

    def ball(
        self,
        radius: int,
        gens: Optional[Sequence[GroupElement]] = None,
        caps: Caps = DEFAULT_CAPS,
    ) -> frozenset[GroupElement]:
        """All products of at most `radius` factors from gens and inverses:
        the union of `layers`."""
        return frozenset().union(*self.layers(radius, gens, caps))


# ---------------------------------------------------------------------------
# finite multiplication tables


class FiniteTableGroup(Group):
    kind = "finite-table"

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
        _presentation: Optional[tuple] = None,
        caps: Caps = DEFAULT_CAPS,
    ):
        tbl = tuple(tuple(int(v) for v in row) for row in table)
        n = len(tbl)
        if n == 0:
            raise ValueError("empty multiplication table")
        if n > caps.table_size:
            raise CapExceededError(f"table size {n} exceeds cap {caps.table_size}")
        for row in tbl:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("table is not a closed square table")
        # identity
        ident = None
        for e in range(n):
            if all(tbl[e][x] == x and tbl[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity element")
        # inverses
        inverses = []
        for x in range(n):
            inv = next((y for y in range(n) if tbl[x][y] == ident and tbl[y][x] == ident), None)
            if inv is None:
                raise ValueError(f"element {x} has no inverse")
            inverses.append(inv)
        # associativity, all triples
        for a in range(n):
            for b in range(n):
                ab = tbl[a][b]
                row_a = tbl[a]
                for c in range(n):
                    if tbl[ab][c] != row_a[tbl[b][c]]:
                        raise ValueError("table is not associative")
        self.table = tbl
        self.size = n
        self._one = ident
        self.inverses = tuple(inverses)
        self.names = tuple(names) if names is not None else tuple(f"x{i}" for i in range(n))
        if len(self.names) != n or len(set(self.names)) != n:
            raise ValueError("names must be distinct and match the table size")
        self._pres = _presentation

    def _key(self) -> tuple:
        return (self.table, self.names)

    def _mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def _inv(self, a: int) -> int:
        return self.inverses[a]

    def generators(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self, i) for i in range(self.size) if i != self._one)

    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self, i) for i in range(self.size))

    def are_conjugate(self, x: GroupElement, y: GroupElement) -> bool:
        return any((~GroupElement(self, z)) * x * GroupElement(self, z) == y for z in range(self.size))

    def element(self, i: int) -> GroupElement:
        if not 0 <= i < self.size:
            raise ValueError(f"index {i} out of range")
        return GroupElement(self, i)

    def format_element(self, x: GroupElement) -> str:
        return self.names[x.payload]

    def parse_element(self, text: str) -> GroupElement:
        text = text.strip()
        if text in self.names:
            return GroupElement(self, self.names.index(text))
        try:
            return self.element(int(text))
        except ValueError:
            pass
        raise ValueError(f"unknown element literal {text!r}")

    @cached_property
    def presentation(self) -> Presentation:
        if self._pres is not None:
            return Presentation.of(*self._pres[0])
        nontrivial = [i for i in range(self.size) if i != self._one]
        rels = []
        for a in nontrivial:
            for b in nontrivial:
                c = self.table[a][b]
                word = [(f"x{a}", 1), (f"x{b}", 1)]
                if c != self._one:
                    word.append((f"x{c}", -1))
                rels.append(word)
        return Presentation.of([f"x{i}" for i in nontrivial], rels)

    def express(self, x: GroupElement) -> tuple[tuple[str, int], ...]:
        if self._pres is not None:
            return self._pres[1](x.payload)
        if x.payload == self._one:
            return ()
        return ((f"x{x.payload}", 1),)

    def describe(self) -> str:
        return f"finite({self.size})"


def cyclic_group(n: int) -> FiniteTableGroup:
    """C_n presented as <a | a^n>."""
    if n < 1:
        raise ValueError("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = tuple("1" if i == 0 else (f"a^{i}" if i > 1 else "a") for i in range(n))
    pres = (("a",), ((("a", n),),))  # generators and relators, built on first use

    def express(i: int) -> tuple[tuple[str, int], ...]:
        return () if i == 0 else (("a", i),)

    return FiniteTableGroup(table, names, _presentation=(pres, express))


def klein_four_group() -> FiniteTableGroup:
    """The Klein four group as an XOR table."""
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return FiniteTableGroup(table, names=("1", "u", "v", "uv"))


def table_from_group(g: Group) -> FiniteTableGroup:
    """Multiplication table of any finite, enumerable backend, named as g prints."""
    elems = list(g.elements())
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[a * b] for b in elems] for a in elems]
    return FiniteTableGroup(table, names=tuple(g.format_element(e) for e in elems))


# ---------------------------------------------------------------------------
# symmetric groups


class PermutationGroup(Group):
    """S_degree acting on {0..degree-1}; products compose left to right.

    Given generators must generate all of S_degree, or the ball, the
    elements and the presentation would describe different groups: their
    products are closed until no new one turns up and must reach all of
    S_degree, which is held to `perms_per_degree` as `elements()` is, so a
    degree past the cap takes no generators."""

    kind = "permutation"

    def __init__(self, degree: int, gens: Optional[Sequence[tuple[int, ...]]] = None):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self._one = tuple(range(degree))
        self._gens = tuple(tuple(p) for p in gens) if gens else ()
        for p in self._gens:
            self._check(p)
        if self._gens:
            order = factorial(degree)
            if order > DEFAULT_CAPS.perms_per_degree:
                raise CapExceededError(f"S_{degree} enumeration exceeds cap")
            # the closure of the generators' payloads: in a finite group the
            # generators' products reach their inverses too
            reached, layer = {self._one}, {self._one}
            while layer:
                layer = {self._mul(x, g) for x in layer for g in self._gens} - reached
                reached |= layer
            if len(reached) < order:
                raise ValueError(f"the generators reach {len(reached)} of the {order} elements of S_{degree}")

    def _check(self, p: tuple[int, ...]) -> None:
        if sorted(p) != list(range(self.degree)):
            raise ValueError(f"{p} is not a permutation of degree {self.degree}")

    def _key(self) -> tuple:
        return (self.degree, self._gens)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        # apply a first, then b
        return tuple(b[a[i]] for i in range(self.degree))

    def _inv(self, a: tuple) -> tuple:
        out = [0] * self.degree
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def element(self, images: Sequence[int]) -> GroupElement:
        p = tuple(int(v) for v in images)
        self._check(p)
        return GroupElement(self, p)

    def from_cycles(self, cycles: Sequence[Sequence[int]]) -> GroupElement:
        """The product of cycles on the points 1..degree."""
        images = list(range(self.degree))
        for cyc in cycles:
            pts = [int(v) - 1 for v in cyc]
            if any(not 0 <= v < self.degree for v in pts):
                raise ValueError(f"cycle {cyc} out of range for degree {self.degree}")
            if len(set(pts)) != len(pts):
                raise ValueError(f"cycle {cyc} repeats a point")
            for i, v in enumerate(pts):
                images[v] = pts[(i + 1) % len(pts)]
        return self.element(images)

    def cycles(self, x: GroupElement) -> list[tuple[int, ...]]:
        seen, out = set(), []
        p = x.payload
        for i in range(self.degree):
            if i in seen:
                continue
            cyc = [i]
            seen.add(i)
            j = p[i]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = p[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def generators(self) -> tuple[GroupElement, ...]:
        if self._gens:
            return tuple(GroupElement(self, p) for p in self._gens)
        n = self.degree
        if n == 1:
            return ()
        swap = self.from_cycles([(1, 2)])
        if n == 2:
            return (swap,)
        return (swap, self.from_cycles([tuple(range(1, n + 1))]))

    def elements(self) -> tuple[GroupElement, ...]:
        if factorial(self.degree) > DEFAULT_CAPS.perms_per_degree:
            raise CapExceededError(f"S_{self.degree} enumeration exceeds cap")
        return tuple(GroupElement(self, p) for p in itertools.permutations(range(self.degree)))

    def are_conjugate(self, x: GroupElement, y: GroupElement) -> bool:
        ct = sorted(len(c) for c in self.cycles(x))
        return ct == sorted(len(c) for c in self.cycles(y))

    def format_element(self, x: GroupElement) -> str:
        cycs = self.cycles(x)
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(v + 1) for v in c) + ")" for c in cycs)

    def parse_element(self, text: str) -> GroupElement:
        text = text.strip()
        if text in ("()", "1", ""):
            return self.identity()
        cycles, i = [], 0
        while i < len(text):
            if text[i].isspace():
                i += 1
                continue
            if text[i] != "(":
                raise ValueError(f"bad permutation literal {text!r}")
            j = text.index(")", i)
            body = text[i + 1 : j].replace(",", " ").split()
            cycles.append([int(v) for v in body])
            i = j + 1
        return self.from_cycles(cycles)

    @cached_property
    def presentation(self) -> Presentation:
        n = self.degree
        rels: list[list[tuple[str, int]]] = []
        for i in range(1, n):
            rels.append([(f"s{i}", 2)])
        for i in range(1, n - 1):
            rels.append([(f"s{i}", 1), (f"s{i+1}", 1)] * 3)
        for i in range(1, n):
            for j in range(i + 2, n):
                rels.append([(f"s{i}", 1), (f"s{j}", 1)] * 2)
        return Presentation.of([f"s{i}" for i in range(1, n)], rels)

    def express(self, x: GroupElement) -> tuple[tuple[str, int], ...]:
        # peel adjacent transpositions: p = v1 * v2 * ... (v1 applied first)
        word: list[tuple[str, int]] = []
        cur = list(x.payload)
        while True:
            desc = next((i for i in range(self.degree - 1) if cur[i] > cur[i + 1]), None)
            if desc is None:
                break
            cur[desc], cur[desc + 1] = cur[desc + 1], cur[desc]
            word.append((f"s{desc+1}", 1))
        # cur = s * cur' for each recorded swap, so p is the product of the
        # recorded swaps applied first to last
        return tuple(word)

    def describe(self) -> str:
        return f"perm({self.degree})"


# ---------------------------------------------------------------------------
# syllable words: the one normal form of free groups and free products


class SyllableGroup(Group):
    """Backends whose payloads are reduced syllable words.

    A payload is a tuple of (source, value) syllables, adjacent sources
    distinct and no value trivial: (generator index, nonzero exponent) in a
    free group, (factor index, nonidentity element) in a free product.
    Subclasses say how two values of one source merge; products, cyclic
    reduction and conjugacy are shared.
    """

    _one = ()

    @abstractmethod
    def _merge(self, src: Any, x: Any, y: Any) -> Any:
        """The value of x followed by y at one source, or None when trivial."""

    @abstractmethod
    def _conjugate_syllables(self, s: tuple, r: tuple) -> bool:
        """Conjugacy of two one-syllable words."""

    def _normal(self, sylls: Iterable[tuple[Any, Any]]) -> tuple:
        """Reduce a syllable sequence whose values are all nontrivial."""
        out: list = []
        for src, val in sylls:
            if out and out[-1][0] == src:
                val = self._merge(src, out.pop()[1], val)
                if val is None:
                    continue
            out.append((src, val))
        return tuple(out)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        # both operands are reduced, so cancellation happens only at the seam
        if not a or not b or a[-1][0] != b[0][0]:
            return a + b
        k, l, n = len(a), 0, len(b)
        while k and l < n and a[k - 1][0] == b[l][0]:
            src = b[l][0]
            val = self._merge(src, a[k - 1][1], b[l][1])
            if val is not None:
                return a[:k - 1] + ((src, val),) + b[l + 1:]
            k -= 1
            l += 1
        return a[:k] + b[l:]

    def cyclically_reduce(self, x: GroupElement) -> tuple[GroupElement, GroupElement]:
        """(core, z) with x = z * core * z^-1 and core cyclically reduced.

        Border syllables are peeled from the left, so the conjugator is
        deterministic.
        """
        core, z = x.payload, ()
        while len(core) >= 2 and core[0][0] == core[-1][0]:
            head = core[:1]
            core = self._mul(core[1:], head)
            z = self._mul(z, head)
        return GroupElement(self, core), GroupElement(self, z)

    def are_conjugate(self, x: GroupElement, y: GroupElement) -> bool:
        if (x.group is not self and x.group != self) or (y.group is not self and y.group != self):
            raise GroupMismatchError(f"conjugacy of elements of {x.group} and {y.group} tested in {self}")
        cx = self.cyclically_reduce(x)[0].payload
        cy = self.cyclically_reduce(y)[0].payload
        if len(cx) != len(cy):
            return False
        if not cx:
            return True
        if len(cx) == 1:
            return self._conjugate_syllables(cx[0], cy[0])
        return any(cy[r:] + cy[:r] == cx for r in range(len(cy)))


# ---------------------------------------------------------------------------
# free groups


class FreeGroup(SyllableGroup):
    """Free group on named generators; elements are reduced (gen, exp) words.

    Rank 0 (no names) is the trivial group, the relator group of a
    presentation without generators.
    """

    kind = "free"

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for nm in names:
            if not nm or any(ch.isspace() for ch in nm) or "^" in nm:
                raise ValueError(f"bad generator name {nm!r}")
        self.names = names
        self.rank = len(names)

    def _key(self) -> tuple:
        return self.names

    def _merge(self, g: int, x: int, y: int) -> Optional[int]:
        return (x + y) or None

    def _conjugate_syllables(self, s: tuple, r: tuple) -> bool:
        return s == r

    def _inv(self, a: tuple) -> tuple:
        return tuple((g, -e) for g, e in reversed(a))

    def word(self, items: Sequence[tuple[str, int]]) -> GroupElement:
        idx = {nm: i for i, nm in enumerate(self.names)}
        try:
            raw = [(idx[nm], int(e)) for nm, e in items]
        except KeyError as exc:
            raise ValueError(f"unknown generator {exc.args[0]!r}") from exc
        return GroupElement(self, self._normal((g, e) for g, e in raw if e))

    def gens(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self, ((i, 1),)) for i in range(self.rank))

    generators = gens

    def gen(self, name: str) -> GroupElement:
        return self.word([(name, 1)])

    @staticmethod
    def letters(x: GroupElement) -> tuple[tuple[int, int], ...]:
        """Expand to single letters (gen, +-1)."""
        out = []
        for g, e in x.payload:
            s = 1 if e > 0 else -1
            out.extend([(g, s)] * abs(e))
        return tuple(out)

    @staticmethod
    def length(x: GroupElement) -> int:
        return sum(abs(e) for _, e in x.payload)

    def sort_key(self, x: GroupElement) -> tuple:
        letters = self.letters(x)
        return (len(letters), tuple((g, 0 if s > 0 else 1) for g, s in letters))

    def format_element(self, x: GroupElement) -> str:
        if not x.payload:
            return "1"
        return " ".join(nm if e == 1 else f"{nm}^{e}" for g, e in x.payload for nm in [self.names[g]])

    def parse_element(self, text: str) -> GroupElement:
        text = text.strip()
        if text == "1":
            return self.identity()
        items = []
        for tok in text.split():
            if "^" in tok:
                nm, _, exp = tok.partition("^")
                items.append((nm, int(exp)))
            else:
                items.append((tok, 1))
        return self.word(items)

    @cached_property
    def presentation(self) -> Presentation:
        return Presentation(self.names, ())

    def express(self, x: GroupElement) -> tuple[tuple[str, int], ...]:
        return tuple((self.names[g], e) for g, e in x.payload)

    # shortlex-canonical coset representatives of <t>

    def coset_decompose(self, s: GroupElement, t: GroupElement) -> tuple[GroupElement, int]:
        if t.is_identity:
            raise ValueError("coset decomposition needs t != 1")
        best = (self.sort_key(s), s, 0)
        inv = ~t
        for sign, step, back in ((1, t, inv), (-1, inv, t)):
            # cand = s * t^-k and power = t^k, advanced one factor per k
            k, cand, power = 0, s, self.identity()
            while True:
                k += sign
                cand, power = cand * back, power * step
                if cand.is_identity:  # nothing sorts before 1, and s = t^k
                    return cand, k
                key = self.sort_key(cand)
                if key < best[0]:
                    best = (key, cand, k)
                # once t^k alone is longer than |s| + |best|, no improvement can come
                if FreeGroup.length(power) > FreeGroup.length(s) + best[0][0]:
                    break
        return best[1], best[2]

    def describe(self) -> str:
        return f"free({', '.join(self.names)})"


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

    def __post_init__(self):
        F = Presentation.free_group(self.generators)
        for rel in self.relators:
            if rel.group != F:
                raise GroupEqError("relator is not a word over the declared generators")

    @staticmethod
    def free_group(generators: Sequence[str]) -> FreeGroup:
        """The free group on `generators`, checked as a presentation's are:
        SymbolClashError naming the repeated names, GroupEqError for a bad one."""
        if len(set(generators)) != len(generators):
            clash = sorted({nm for nm in generators if generators.count(nm) > 1})
            raise SymbolClashError(f"generator names clash: {clash}")
        try:
            return FreeGroup(generators)
        except ValueError as exc:
            raise GroupEqError(str(exc)) from exc

    @staticmethod
    def of(generators: Sequence[str], relators: Iterable[Sequence[tuple[str, int]]]) -> Presentation:
        """A presentation whose relators are spelled as (generator, exponent) items."""
        F = Presentation.free_group(generators)
        return Presentation(F.names, tuple(F.word(rel) for rel in relators))

    @staticmethod
    def join(
        parts: Iterable[Presentation | tuple[Presentation, Mapping[str, str]]],
        relators: Iterable[Sequence[tuple[str, int]]] = (),
    ) -> Presentation:
        """A composite presentation: its parts plus its own relators.

        A part is a presentation, or one with a renaming of its generators (a
        copy).  Generators are the parts' (renamed) generators in part order;
        relators are the parts' relators, renamed, in part order, then the
        builder's own `relators`, spelled as in `of`, all words over the one
        free group on the generators.  A name two parts share raises
        SymbolClashError.
        """
        parts = [(p, None) if isinstance(p, Presentation) else p for p in parts]
        F = Presentation.free_group([ren[nm] if ren else nm for p, ren in parts for nm in p.generators])
        rels: list[GroupElement] = []
        start = 0
        for p, _ in parts:
            # a part's generators sit at F's indices start, start + 1, ... in its order
            rels.extend(GroupElement(F, tuple((g + start, e) for g, e in r.payload)) for r in p.relators)
            start += len(p.generators)
        rels.extend(F.word(rel) for rel in relators)
        return Presentation(F.names, tuple(rels))

    # -- serialization: a line-oriented text format plus a structured dict

    def to_text(self) -> str:
        lines = ["gens: " + ", ".join(self.generators)]
        for rel in self.relators:
            toks = [nm if e == 1 else f"{nm}^{e}" for nm, e in rel.group.express(rel)]
            lines.append("rel: " + " ".join(toks))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> Presentation:
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
        F = Presentation.free_group(gens)
        return Presentation(gens, tuple(F.parse_element(body) for body in rel_bodies))

    def to_struct(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [[[nm, e] for nm, e in rel.group.express(rel)] for rel in self.relators],
        }

    @staticmethod
    def from_struct(data: dict) -> Presentation:
        return Presentation.of(data["generators"], data["relators"])


# ---------------------------------------------------------------------------
# free abelian groups


class FreeAbelianGroup(Group):
    """Z^rank with lexicographic (bi-invariant) order certificate."""

    kind = "free-abelian"

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self._one = (0,) * rank
        self.names = tuple(f"e{i+1}" for i in range(rank))

    def _key(self) -> tuple:
        return (self.rank,)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def _inv(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def vector(self, coords: Sequence[int]) -> GroupElement:
        v = tuple(int(c) for c in coords)
        if len(v) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        return GroupElement(self, v)

    def generators(self) -> tuple[GroupElement, ...]:
        return tuple(
            GroupElement(self, tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        )

    def orderable_certificate(self) -> Optional[str]:
        return "lexicographic order on Z^r is a bi-invariant total order"

    def are_conjugate(self, x: GroupElement, y: GroupElement) -> bool:
        return x == y

    def format_element(self, x: GroupElement) -> str:
        if self.rank == 1:
            return str(x.payload[0])
        return "(" + ", ".join(str(v) for v in x.payload) + ")"

    def parse_element(self, text: str) -> GroupElement:
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            body = text[1:-1].strip()
            coords = [int(v) for v in body.split(",")] if body else []
            return self.vector(coords)
        if self.rank == 1:
            return self.vector([int(text)])
        raise ValueError(f"bad vector literal {text!r}")

    @cached_property
    def presentation(self) -> Presentation:
        rels = [
            [(a, 1), (b, 1), (a, -1), (b, -1)]
            for i, a in enumerate(self.names)
            for b in self.names[i + 1:]
        ]
        return Presentation.of(self.names, rels)

    def express(self, x: GroupElement) -> tuple[tuple[str, int], ...]:
        return tuple((self.names[i], v) for i, v in enumerate(x.payload) if v != 0)

    def coset_decompose(self, s: GroupElement, t: GroupElement) -> tuple[GroupElement, int]:
        v = t.payload
        if all(c == 0 for c in v):
            raise ValueError("coset decomposition needs t != 1")
        p = next(i for i, c in enumerate(v) if c != 0)
        k = s.payload[p] // v[p]
        rep = tuple(x - k * y for x, y in zip(s.payload, v))
        return GroupElement(self, rep), k

    def describe(self) -> str:
        return f"zn({self.rank})"


# ---------------------------------------------------------------------------
# the fours group

# Affine realization on R^3: elements (D, v) with D a +-1 sign-diagonal
# matrix from the Klein four point group and v in (1/2 Z)^3, acting as
# x |-> Dx + v.  Translations are doubled so all arithmetic is integral.


class FoursGroup(Group):
    """<a, b | a^-1 b^2 a = b^-2, b^-1 a^2 b = a^-2>, Promislow's group.

    Both defining relations are verified by direct affine multiplication at
    construction time.
    """

    kind = "fours-group"

    A_PAYLOAD = ((1, -1, -1), (1, 1, 0))
    B_PAYLOAD = ((-1, 1, -1), (0, 1, 1))
    _one = ((1, 1, 1), (0, 0, 0))

    def __init__(self):
        a = GroupElement(self, self.A_PAYLOAD)
        b = GroupElement(self, self.B_PAYLOAD)
        if (~a) * b * b * a * b * b != self.identity():
            raise GroupEqError("fours relation a^-1 b^2 a b^2 failed")
        if (~b) * a * a * b * a * a != self.identity():
            raise GroupEqError("fours relation b^-1 a^2 b a^2 failed")

    def _key(self) -> tuple:
        return ()

    # straight-line arithmetic on the 3-vectors: (D, v)(E, w) = (DE, Dw + v)
    def _mul(self, x: tuple, y: tuple) -> tuple:
        (p, q, r), v = x
        d, w = y
        return (p * d[0], q * d[1], r * d[2]), (p * w[0] + v[0], q * w[1] + v[1], r * w[2] + v[2])

    def _inv(self, x: tuple) -> tuple:
        d, v = x
        return d, (-d[0] * v[0], -d[1] * v[1], -d[2] * v[2])

    def a(self) -> GroupElement:
        return GroupElement(self, self.A_PAYLOAD)

    def b(self) -> GroupElement:
        return GroupElement(self, self.B_PAYLOAD)

    def generators(self) -> tuple[GroupElement, ...]:
        return (self.a(), self.b())

    def format_element(self, x: GroupElement) -> str:
        stack: list[list] = []
        for nm, e in self.express(x):
            if stack and stack[-1][0] == nm:
                stack[-1][1] += e
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([nm, e])
        if not stack:
            return "1"
        return " ".join(nm if e == 1 else f"{nm}^{e}" for nm, e in stack)

    def _power(self, x: tuple, k: int) -> tuple:
        """x^k in closed form.  x = (D, v) squares to the translation (1, u)
        with u = Dv + v, so x^(2m) = (1, m u) and x^(2m+1) = (D, v + m u)."""
        d, v = x
        m, odd = divmod(k, 2)
        mu = (m * (d[0] * v[0] + v[0]), m * (d[1] * v[1] + v[1]), m * (d[2] * v[2] + v[2]))
        if odd:
            return d, (v[0] + mu[0], v[1] + mu[1], v[2] + mu[2])
        return self._one[0], mu

    def parse_element(self, text: str) -> GroupElement:
        if text.strip() == "1":
            return self.identity()
        cur = self._one
        table = {"a": self.A_PAYLOAD, "b": self.B_PAYLOAD}
        try:
            for tok in text.split():
                nm, caret, exp = tok.partition("^")
                x = table[nm]
                cur = self._mul(cur, self._power(x, int(exp)) if caret else x)
        except KeyError as exc:
            raise ValueError(f"unknown generator {exc.args[0]!r}") from exc
        return GroupElement(self, cur)

    @cached_property
    def presentation(self) -> Presentation:
        return Presentation.of(
            ("a", "b"),
            (
                (("a", -1), ("b", 2), ("a", 1), ("b", 2)),
                (("b", -1), ("a", 2), ("b", 1), ("a", 2)),
            ),
        )

    @cached_property
    def _coset_table(self) -> dict:
        """Point part -> (word, inverse payload) of its coset representative
        1, a, b or ab."""
        a, b = self.A_PAYLOAD, self.B_PAYLOAD
        reps = {(): self._one, (("a", 1),): a, (("b", 1),): b, (("a", 1), ("b", 1)): self._mul(a, b)}
        return {rep[0]: (word, self._inv(rep)) for word, rep in reps.items()}

    def express(self, x: GroupElement) -> tuple[tuple[str, int], ...]:
        coset, rep_inv = self._coset_table[x.payload[0]]
        # rep^-1 x is a pure translation, stored doubled
        t = self._mul(rep_inv, x.payload)[1]
        tx, ty, tz = t[0] // 2, t[1] // 2, t[2] // 2
        word = list(coset)
        if tx:
            word.append(("a", 2 * tx))
        if ty:
            word.append(("b", 2 * ty))
        for _ in range(abs(tz)):
            # (ab)^2 is the translation by (0, 0, -1)
            s = -1 if tz > 0 else 1
            word.extend([("a", s), ("b", s)] * 2 if s == 1 else [("b", -1), ("a", -1)] * 2)
        return tuple(word)

    def describe(self) -> str:
        return "fours"


# ---------------------------------------------------------------------------
# free products


class FreeProductGroup(SyllableGroup):
    """Free product of backends; elements are alternating syllable words."""

    kind = "free-product"

    def __init__(self, factors: Sequence[Group]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("free product needs at least one factor")
        self.factors = factors

    def _key(self) -> tuple:
        return self.factors

    def _merge(self, i: int, x: GroupElement, y: GroupElement) -> Optional[GroupElement]:
        f = self.factors[i]
        p = f._mul(x.payload, y.payload)
        return None if p == f._one else GroupElement(f, p)

    def _conjugate_syllables(self, s: tuple, r: tuple) -> bool:
        return s[0] == r[0] and self.factors[s[0]].are_conjugate(s[1], r[1])

    def _inv(self, a: tuple) -> tuple:
        return tuple((i, GroupElement(el.group, el.group._inv(el.payload))) for i, el in reversed(a))

    def _nontrivial(self, i: int, el: GroupElement) -> bool:
        """Validate the syllable (i, el); True when el is not the identity."""
        if not 0 <= i < len(self.factors):
            raise ValueError(f"no factor {i} in {self.describe()}")
        f = self.factors[i]
        if el.group is not f and el.group != f:
            raise GroupMismatchError("syllable element does not live in that factor")
        return el.payload != f._one

    def embed(self, i: int, el: GroupElement) -> GroupElement:
        return GroupElement(self, ((i, el),) if self._nontrivial(i, el) else ())

    def word(self, sylls: Iterable[tuple[int, GroupElement]]) -> GroupElement:
        return GroupElement(self, self._normal((i, el) for i, el in sylls if self._nontrivial(i, el)))

    def generators(self) -> tuple[GroupElement, ...]:
        out = []
        for i, f in enumerate(self.factors):
            out.extend(self.embed(i, g) for g in f.generators())
        return tuple(out)

    def sort_key(self, x: GroupElement) -> tuple:
        return (len(x.payload), tuple((i, self.factors[i].sort_key(el)) for i, el in x.payload))

    def format_element(self, x: GroupElement) -> str:
        if not x.payload:
            return "1"
        return " ".join(self.factors[i].format_element(el) for i, el in x.payload)

    def parse_element(self, text: str) -> GroupElement:
        text = text.strip()
        if text == "1":
            return self.identity()
        sylls = []
        for tok in text.split():
            if tok == "1":
                continue  # the identity; zn factors must use "(1)" for a vector
            if ":" in tok and tok.split(":", 1)[0].isdigit():
                fi, lit = tok.split(":", 1)
                el = self.factors[int(fi)].parse_element(lit)
                sylls.append((int(fi), el))
                continue
            matches = []
            for i, f in enumerate(self.factors):
                try:
                    matches.append((i, f.parse_element(tok)))
                except (ValueError, GroupEqError):
                    continue
            if not matches:
                raise ValueError(f"token {tok!r} matches no factor")
            if len(matches) > 1:
                raise ValueError(f"token {tok!r} is ambiguous; qualify as i:literal")
            sylls.append(matches[0])
        return self.word(sylls)

    @cached_property
    def renames(self) -> tuple[dict[str, str], ...]:
        """Per factor, its presentation generators to their names here: the
        same names, or name.i for factor i when two factors share a name."""
        names = [f.presentation.generators for f in self.factors]
        flat = [nm for ns in names for nm in ns]
        if len(set(flat)) == len(flat):
            return tuple({nm: nm for nm in ns} for ns in names)
        return tuple({nm: f"{nm}.{i}" for nm in ns} for i, ns in enumerate(names))

    @cached_property
    def presentation(self) -> Presentation:
        return Presentation.join((f.presentation, ren) for f, ren in zip(self.factors, self.renames))

    def express(self, x: GroupElement) -> tuple[tuple[str, int], ...]:
        renames, factors = self.renames, self.factors
        return tuple((renames[i][nm], e) for i, el in x.payload for nm, e in factors[i].express(el))

    def describe(self) -> str:
        return " * ".join(f.describe() for f in self.factors)


# ---------------------------------------------------------------------------
# direct products (used by the Levin reduction)


class DirectProductGroup(Group):
    kind = "direct-product"

    def __init__(self, factors: Sequence[Group]):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("direct product needs at least one factor")
        self._one = tuple(f.identity() for f in self.factors)

    def _key(self) -> tuple:
        return self.factors

    def _mul(self, a: tuple, b: tuple) -> tuple:
        return tuple(x * y for x, y in zip(a, b))

    def _inv(self, a: tuple) -> tuple:
        return tuple(~x for x in a)

    def embed(self, i: int, el: GroupElement) -> GroupElement:
        f = self.factors[i]
        if el.group is not f and el.group != f:
            raise GroupMismatchError("embed: element does not live in that factor")
        comps = list(self._one)
        comps[i] = el
        return GroupElement(self, tuple(comps))

    def generators(self) -> tuple[GroupElement, ...]:
        out = []
        for i, f in enumerate(self.factors):
            out.extend(self.embed(i, g) for g in f.generators())
        return tuple(out)

    def sort_key(self, x: GroupElement) -> tuple:
        return tuple(f.sort_key(c) for f, c in zip(self.factors, x.payload))

    def format_element(self, x: GroupElement) -> str:
        return "(" + " | ".join(f.format_element(c) for f, c in zip(self.factors, x.payload)) + ")"

    def describe(self) -> str:
        return " x ".join(f.describe() for f in self.factors)


# ---------------------------------------------------------------------------
# quotient of a free abelian group by a central cyclic subgroup


class QuotientFreeAbelianGroup(Group):
    """Z^r / <v>, elements stored as canonical coset representatives.

    Representatives fix the first nonzero coordinate of v as pivot and reduce
    by floor division there, so multiplication is rep(x + y).
    """

    kind = "quotient-free-abelian"

    def __init__(self, base: FreeAbelianGroup, modulus: Sequence[int]):
        self.base = base
        self.modulus = tuple(int(c) for c in modulus)
        if len(self.modulus) != base.rank or all(c == 0 for c in self.modulus):
            raise ValueError("modulus must be a nonzero vector of matching rank")
        self.pivot = next(i for i, c in enumerate(self.modulus) if c != 0)
        self._one = (0,) * base.rank
        self.content = gcd(*[abs(c) for c in self.modulus])

    def _key(self) -> tuple:
        return (self.base, self.modulus)

    def _rep(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        k = coords[self.pivot] // self.modulus[self.pivot]
        return tuple(x - k * v for x, v in zip(coords, self.modulus))

    def _mul(self, a: tuple, b: tuple) -> tuple:
        return self._rep(tuple(x + y for x, y in zip(a, b)))

    def _inv(self, a: tuple) -> tuple:
        return self._rep(tuple(-x for x in a))

    def project(self, x: GroupElement) -> GroupElement:
        if x.group is not self.base and x.group != self.base:
            raise GroupMismatchError("project expects a base-group element")
        return GroupElement(self, self._rep(x.payload))

    def generators(self) -> tuple[GroupElement, ...]:
        return tuple(self.project(g) for g in self.base.generators())

    def orderable_certificate(self) -> Optional[str]:
        if self.content == 1:
            if self.base.rank == 1:
                return "trivial quotient"
            return "quotient by a primitive vector is free abelian, hence orderable"
        return None

    def torsion_witness_sets(self) -> tuple[GroupElement, ...]:
        """The cyclic torsion subgroup generated by the primitive direction."""
        d = self.content
        unit = tuple(c // d for c in self.modulus)
        out = []
        for i in range(d):
            out.append(GroupElement(self, self._rep(tuple(i * u for u in unit))))
        return tuple(out)

    def sort_key(self, x: GroupElement) -> tuple:
        return x.payload

    def format_element(self, x: GroupElement) -> str:
        inner = ", ".join(str(v) for v in x.payload)
        return f"[{inner}]"

    def describe(self) -> str:
        return f"zn({self.base.rank})/<{self.modulus}>"
