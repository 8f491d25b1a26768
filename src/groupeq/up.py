"""Finite-subset unique-product machinery.

Censuses are exact: products are keyed by canonical forms, never hashed
probabilistically.  The witness searches target the fours group but run on
any backend with decidable equality, and each covers one family of
subsets: the exhaustive search (`search_nonup_witness`) the symmetric sets
S = S^-1, the seeded anneal (`anneal_nonup_witness`) arbitrary subsets.
Both count S*S with one engine, `ProductCensus`: a labelled product table
over an ordered ball, built once with its products numbered as they turn
up, and plain integer counts updated as atoms enter and leave S.

A census counts one way, fixed when it is built.  For a symmetric
S = S^-1, phi(x, y) = (y^-1, x^-1) is an involution of S x S that sends a
pair with product p to one with product p^-1, so p and p^-1 have equal
counts.  Its only fixed pairs are the (x, x^-1), whose product is 1.  So a
product p != 1 with p = p^-1 has an even count, and 1 has count |S|:
neither is ever unique once |S| >= 2.  A symmetric census, the search's,
therefore keeps one count per inverse pair {p, p^-1} and raises one pair
of each phi-orbit; S*S then has 2 * (classes at 1) + [|S| = 1] unique
products.  An asymmetric census, the anneal's, keeps one count per
product, and S*S has as many unique products as counts at 1.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .backends import Group, GroupElement
from .config import DEFAULT_CAPS, Caps
from .errors import CapExceededError, GroupMismatchError


def _as_sorted_set(group: Group, xs: Iterable[GroupElement], name: str) -> tuple[GroupElement, ...]:
    out: dict[GroupElement, None] = {}
    for x in xs:
        if x.group is not group and x.group != group:
            raise GroupMismatchError(f"{name} contains elements of another group")
        out[x] = None
    if not out:
        raise ValueError(f"{name} must be nonempty")
    return tuple(sorted(out, key=group.sort_key))


@dataclass(frozen=True)
class UPReport:
    """Census of X*Y: every product with its factor pairs."""

    x: tuple[GroupElement, ...]
    y: tuple[GroupElement, ...]
    products: tuple[tuple[GroupElement, tuple[tuple[GroupElement, GroupElement], ...]], ...]
    unique_elements: tuple[GroupElement, ...]

    @property
    def unique_count(self) -> int:
        return len(self.unique_elements)

    @property
    def has_unique_product(self) -> bool:
        return bool(self.unique_elements)

    @property
    def total_factorizations(self) -> int:
        return sum(len(pairs) for _, pairs in self.products)

    def distinct_y_count(self) -> int:
        return len({pairs[0][1] for _, pairs in self.products if len(pairs) == 1})


def _census(group: Group, xs: Sequence[GroupElement], ys: Sequence[GroupElement]) -> dict:
    """Each product x*y, keyed by its payload, with its factor pairs, in the
    order of xs, then ys.  Payloads are canonical, so equal keys are equal
    products; no element is built."""
    mul = group._mul
    census: dict = {}
    yq = [(y, y.payload) for y in ys]
    for x in xs:
        p = x.payload
        for y, q in yq:
            census.setdefault(mul(p, q), []).append((x, y))
    return census


def up_check(X: Iterable[GroupElement], Y: Iterable[GroupElement]) -> UPReport:
    """Exact factorization census of X*Y; UP holds iff a unique element exists."""
    xs = list(X)
    if not xs:
        raise ValueError("X must be nonempty")
    group = xs[0].group
    xt = _as_sorted_set(group, xs, "X")
    yt = _as_sorted_set(group, Y, "Y")
    census = _census(group, xt, yt)
    products = tuple(
        (v, tuple(census[v.payload]))
        for v in sorted([GroupElement(group, p) for p in census], key=group.sort_key)
    )
    unique = tuple(v for v, pairs in products if len(pairs) == 1)
    return UPReport(xt, yt, products, unique)


@dataclass(frozen=True)
class StrongUPResult:
    holds: bool
    witness: Optional[tuple[tuple[GroupElement, GroupElement], tuple[GroupElement, GroupElement]]]
    report: UPReport


def strong_up_check(X: Iterable[GroupElement], Y: Iterable[GroupElement]) -> StrongUPResult:
    """Two uniquely decomposable elements with distinct Y-factors, or fails."""
    report = up_check(X, Y)
    if len(report.y) < 2:
        raise ValueError("the strong UP property needs |Y| >= 2")
    by_y: dict[GroupElement, tuple[GroupElement, GroupElement]] = {}
    for _, pairs in report.products:
        if len(pairs) != 1:
            continue
        (xv, yv), = pairs
        if yv not in by_y:
            by_y[yv] = (xv, yv)
        if len(by_y) >= 2:
            w = sorted(by_y.values(), key=lambda p: report.x[0].group.sort_key(p[1]))
            return StrongUPResult(True, (w[0], w[1]), report)
    return StrongUPResult(False, None, report)


@dataclass(frozen=True)
class UP4Result:
    holds: bool
    witness: Optional[tuple[GroupElement, tuple[GroupElement, GroupElement, GroupElement, GroupElement]]]
    total_quadruples: int


def up4_check(
    A: Iterable[GroupElement],
    B: Iterable[GroupElement],
    C: Iterable[GroupElement],
    D: Iterable[GroupElement],
) -> UP4Result:
    """A product abcd with exactly one factorization, or fails.

    Counts through the A*B and C*D censuses: v = p*q has as many
    factorizations as the sum over such (p, q) of the products of their
    factor-pair counts, so v is unique iff exactly one (p, q) gives it and
    p and q are unique in their censuses.  The witness is the smallest
    unique v by sort key, with its one quadruple.
    """
    sets = [list(s) for s in (A, B, C, D)]
    if any(not s for s in sets):
        raise ValueError("all four subsets must be nonempty")
    group = sets[0][0].group
    a4, b4, c4, d4 = (_as_sorted_set(group, s, nm) for s, nm in zip(sets, "ABCD"))
    mul = group._mul
    cd = [(q, pairs, len(pairs)) for q, pairs in _census(group, c4, d4).items()]
    counts: dict = {}  # payload of v -> [factorizations, first (ab pairs, cd pairs)]
    for p, ab_pairs in _census(group, a4, b4).items():
        n = len(ab_pairs)
        for q, cd_pairs, m in cd:
            v = mul(p, q)
            entry = counts.get(v)
            if entry is None:
                counts[v] = [n * m, ab_pairs, cd_pairs]
            else:
                entry[0] += n * m
    total = len(a4) * len(b4) * len(c4) * len(d4)
    unique = [GroupElement(group, v) for v, entry in counts.items() if entry[0] == 1]
    if not unique:
        return UP4Result(False, None, total)
    v = min(unique, key=group.sort_key)
    _, ((a, b),), ((c, d),) = counts[v.payload]
    return UP4Result(True, (v, (a, b, c, d)), total)


@dataclass(frozen=True)
class UP4ImplicationReport:
    applicable: bool
    note: str
    strong: StrongUPResult
    up4: Optional[UP4Result]
    consistent: bool


def verify_up4_implies_strong(X: Iterable[GroupElement], Y: Iterable[GroupElement]) -> UP4ImplicationReport:
    """When strong UP fails on (X, Y), the product X Y Y^-1 X^-1 must have no
    uniquely decomposable element; checks that implication by brute force."""
    strong = strong_up_check(X, Y)
    if strong.holds:
        return UP4ImplicationReport(False, "strong UP holds; implication not applicable", strong, None, True)
    xt, yt = strong.report.x, strong.report.y
    y_inv = tuple(~y for y in yt)
    x_inv = tuple(~x for x in xt)
    up4 = up4_check(xt, yt, y_inv, x_inv)
    return UP4ImplicationReport(
        True,
        "strong UP fails, so X Y Y^-1 X^-1 must have no unique quadruple product",
        strong,
        up4,
        consistent=not up4.holds,
    )


@dataclass(frozen=True)
class StrojnowskiReport:
    certified: bool
    reason: str
    unique_count: Optional[int]
    bound_met: Optional[bool]


def strojnowski_check(X: Iterable[GroupElement], Y: Iterable[GroupElement]) -> StrojnowskiReport:
    """At least two uniquely decomposable elements for nonsingleton subsets
    of a certified-orderable backend; skipped (and reported) otherwise."""
    xs = list(X)
    if not xs:
        raise ValueError("X must be nonempty")
    group = xs[0].group
    cert = group.orderable_certificate()
    if cert is None:
        return StrojnowskiReport(False, f"backend {group.kind} is not certified orderable", None, None)
    report = up_check(xs, Y)
    if len(report.x) < 2 or len(report.y) < 2:
        raise ValueError("the Strojnowski bound needs nonsingleton subsets")
    return StrojnowskiReport(True, cert, report.unique_count, report.unique_count >= 2)


# ---------------------------------------------------------------------------
# witness search


@dataclass(frozen=True)
class WitnessSearchResult:
    witness: Optional[tuple[GroupElement, ...]]
    verified: bool
    sizes_exhausted: tuple[int, ...]
    sizes_truncated: tuple[int, ...]
    subsets_tested: int

    @property
    def found(self) -> bool:
        return self.witness is not None


def naive_no_unique_product(S: Sequence[GroupElement]) -> bool:
    """Plain-dictionary census, independent of the accelerated search path."""
    counts: dict[GroupElement, int] = {}
    for x in S:
        for y in S:
            v = x * y
            counts[v] = counts.get(v, 0) + 1
    return all(c >= 2 for c in counts.values())


class ProductCensus:
    """Exact counts of the products of S*S for a subset S of a ball, kept up
    to date one atom at a time; the one counting engine behind the witness
    searches.  A census counts one way, fixed when it is built: a symmetric
    census counts inverse-pair classes for a symmetric S (the phi-orbit rule
    of the module docstring), an asymmetric one counts products for any S.

    The ball, from one `Group.layers` call, is sorted by the group's sort
    key, and `depth[i]` is the BFS layer of ball[i]; ball indices stand for
    elements.  A census has this one order, and a walk takes its own
    ordering of `atoms`.  The fill multiplies the ball with itself once,
    reading ball(2 * radius) off its own table, held to `caps.ball_size`
    row by row.  It numbers the products in the order they turn up, each
    inverse pair together, so the numbering rests on the ball's order and
    payload equality alone; `products[k]` is the payload of product k.  A
    computed cell (i, j) also fills the cell of its inverse,
    (flip[j], flip[i]), where flip[i] is the ball index of x_i^-1, so about
    half the table is multiplied.  Each cell holds a label, `rows[i][j]`
    that of ball[i]*ball[j], and `label[k]` is the label of product k:
      - symmetric: the class of the product's inverse pair, numbered from 1
        as the pairs turn up, or 0, the sink, when the product is its own
        inverse;
      - asymmetric: the product's own number.
    `counts[c]` counts label c.  In an asymmetric census it is the number of
    ordered pairs of S with product c, and S*S has as many unique products
    as counts at 1.  In a symmetric one it is the number of phi-orbits of
    S x S whose products lie in class c, the count of each of its two
    products; the sink starts at 3 and only grows with real orbits, so it
    never reads 1.  Each count at 1 there is a pair of unique products, and
    a one-element S, an involution or the identity, has the unique product
    1: S*S has 2 * (counts at 1) + [|S| = 1] unique products.

    `atoms` are the units S is made of, in ball order: the inverse pairs of
    the ball without the identity, an involution forming a 1-element atom,
    in a symmetric census, and the single elements in an asymmetric one.
    `lines[x]`, for an atom whose first element is x, holds the two rows
    that atom raises at each member of S, the step its second row is raised
    by, and the label of x*x:
      - a pair atom {x, x^-1}: rows x and x^-1, which raise x*m and x^-1*m
        for each member m; x^-1*m stands for m*x, the inverse of
        x^-1*m^-1, as m^-1 runs over the members with m;
      - a single element: row x and column x, for x*m and m*x;
      - an involution or the identity: row x alone, since the orbit of
        (x, m) holds (m^-1, x); its second row is all sink, raised by 0.
    So `add` and `remove` make one raise per orbit or per product in one
    loop, with no branch in it, and a count depends on S alone, whatever
    order atoms enter and leave in.  (Raising that sink row by 1 would not:
    an involution added beside a pair atom would raise the sink twice, the
    pair added beside it not at all, so the sink would drift down through 1
    as S changes.)

    `move(out, into)`, the anneal's step, swaps one element of S for one
    outside it in an asymmetric census and returns the change in
    `unique_count()` without rescanning the counts: a touched count that
    falls to 1 (2->1) or rises to 1 (0->1) gains a unique product, one that
    leaves 1 (1->0, 1->2) loses one.  `fell[c]` and `rose[c]` (`steps`,
    built on the first `move`) hold that change for a count that has just
    fallen or risen to c.  A symmetric census has no `move`: ValueError.

    `settled(atoms)` tells a walk in the order `atoms` when a count of 1 is
    final.  `ways(top)` counts the subsets of `atoms[i:]` by their number
    of elements, so the search reads its subset count off it without
    visiting the subsets it counts.
    """

    def __init__(
        self,
        group: Group,
        radius: int,
        gens: Optional[Sequence[GroupElement]] = None,
        symmetric: bool = True,
        caps: Caps = DEFAULT_CAPS,
    ):
        self.symmetric = symmetric
        depth = {x: d for d, layer in enumerate(group.layers(radius, gens, caps)) for x in layer}
        self.ball = sorted(depth, key=group.sort_key)
        self.depth = [depth[x] for x in self.ball]
        payloads = [e.payload for e in self.ball]
        mul, inv = group._mul, group._inv
        position = {p: i for i, p in enumerate(payloads)}
        flip = [position[inv(p)] for p in payloads]  # the ball index of each inverse
        self.identity = position[group._one]
        self.atoms: list[tuple[int, ...]]
        if symmetric:
            self.atoms = [(i,) if i == j else (i, j) for i, j in enumerate(flip) if i <= j and i != self.identity]
        else:
            self.atoms = [(i,) for i in range(len(payloads))]
        # row i computes the columns flip[i:], each cell (i, flip[m]) with its
        # mirror (m, flip[i]); the earlier rows' mirrors are the rest of row i
        number: dict = {}  # product payload -> its number; canonical payloads
        opp: list[int] = []  # the number of each product's inverse
        label: list[int] = []  # the label of each product
        mirror = label if symmetric else opp  # the label of each product's inverse
        classes = 0
        n = len(payloads)
        rows = [[0] * n for _ in range(n)]
        tail = [(m, j, payloads[j]) for m, j in enumerate(flip)]
        for i, x in enumerate(payloads):
            row, fi = rows[i], flip[i]
            for m, j, y in tail[i:]:
                p = mul(x, y)
                k = number.get(p)
                if k is None:  # number p and its inverse, the same when p = p^-1
                    k = number[p] = len(opp)
                    q = number.setdefault(inv(p), k + 1)
                    if q > k:
                        classes += 1
                        opp += (q, k)
                        label += (classes, classes) if symmetric else (k, q)
                    else:
                        opp.append(k)
                        label.append(0 if symmetric else k)
                row[j] = label[k]
                rows[m][fi] = mirror[k]
            if len(opp) > caps.ball_size:
                raise CapExceededError(f"ball size exceeds cap {caps.ball_size}")
        self.products = list(number)  # payloads by number
        self.label, self.rows = label, rows
        if symmetric:
            sinks = [0] * n
            self.lines = [
                (row, sinks, 0, row[i]) if i == j else (row, rows[j], 1, row[i])
                for i, (row, j) in enumerate(zip(rows, flip))
            ]
        else:
            # columns as lists, as the rows are: a subscript that meets tuples
            # and lists is not specialised, and the count loops slow by a fifth
            self.lines = [(row, col, 1, row[i]) for i, (row, col) in enumerate(zip(rows, map(list, zip(*rows))))]
        empty = [0] * (classes + 1 if symmetric else len(opp))  # one count per label
        if symmetric:
            empty[0] = 3  # the sink starts past 1 and never falls back to it
        self.empty = tuple(empty)  # the counts of an empty S
        self.clear()
        self.weight = 2 if symmetric else 1  # unique products per count at 1

    @cached_property
    def steps(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(`fell`, `rose`), built on the first `move`, their only reader, so
        a census the search walks holds neither.  No count exceeds
        |S| <= len(ball)."""
        if self.symmetric:
            raise ValueError("move needs an asymmetric census")
        n = len(self.ball)
        return (-1, 1) + (0,) * (n - 1), (0, 1, -1) + (0,) * (n - 2)

    def settled(self, atoms: Sequence[tuple[int, ...]]) -> list[list[int]]:
        """Each label but the sink, once and in increasing order, under the
        last atom of `atoms`, an ordering of `self.atoms`, that raises it:
        `settled[i]`, for i >= 1, under `atoms[i - 1]`, and `settled[0]` the
        labels no atom raises.  No atom of `atoms[i:]` raises a count in
        `settled[:i + 1]`, so a count of 1 there is final."""
        last = [0] * len(self.empty)  # label -> 1 + the last atom raising it
        for i, atom in enumerate(atoms, 1):
            row, other, _, _ = self.lines[atom[0]]
            for c in row + other:
                last[c] = i
        settled: list[list[int]] = [[] for _ in range(len(atoms) + 1)]
        for c in range(self.symmetric, len(last)):
            settled[last[c]].append(c)
        return settled

    def ways(self, top: int) -> list[list[int]]:
        """`ways(top)[i][s]`, for s <= top, is the number of subsets of
        `atoms[i:]` whose atoms hold s elements in all.  `ways[0][s]` totals
        a whole size; `ways[i][s] - ways[j][s]`, for i <= j, counts the
        subsets of s elements whose first atom lies in `atoms[i:j]`, which
        is how the search ranks a witness among the subsets of its size."""
        table = [[1] + [0] * top]
        for atom in reversed(self.atoms):
            below, k = table[-1], len(atom)
            table.append([below[s] + (below[s - k] if s >= k else 0) for s in range(top + 1)])
        table.reverse()
        return table

    def add(self, atom: tuple[int, ...]) -> None:
        """Put the atom's elements, none of them in S yet, into S."""
        counts, members = self.counts, self.members
        row, other, step, square = self.lines[atom[0]]
        for m in members:
            counts[row[m]] += 1
            counts[other[m]] += step
        counts[square] += 1
        members += atom

    def remove(self, atom: tuple[int, ...]) -> None:
        """Take the atom's elements, all of them in S, out of S."""
        counts, members = self.counts, self.members
        for i in atom:
            members.remove(i)
        row, other, step, square = self.lines[atom[0]]
        for m in members:
            counts[row[m]] -= 1
            counts[other[m]] -= step
        counts[square] -= 1

    def move(self, out: tuple[int, ...], into: tuple[int, ...]) -> int:
        """`remove(out)` then `add(into)`, with the same counts and members,
        returning the change in `unique_count()`.  The change is read off
        the counts the swap touches, through `fell` and `rose`."""
        counts, members, lines = self.counts, self.members, self.lines
        fell, rose = self.steps
        members.remove(out[0])  # an asymmetric census's atoms are single elements
        row, col, _, square = lines[out[0]]
        c = counts[square] = counts[square] - 1
        delta = fell[c]
        for m in members:
            k = row[m]
            c = counts[k] = counts[k] - 1
            delta += fell[c]
            k = col[m]
            c = counts[k] = counts[k] - 1
            delta += fell[c]
        row, col, _, square = lines[into[0]]
        for m in members:
            k = row[m]
            c = counts[k] = counts[k] + 1
            delta += rose[c]
            k = col[m]
            c = counts[k] = counts[k] + 1
            delta += rose[c]
        c = counts[square] = counts[square] + 1
        delta += rose[c]
        members += into
        return delta

    def clear(self) -> None:
        self.counts = list(self.empty)
        self.members: list[int] = []

    def unique_count(self) -> int:
        """Elements of S*S with exactly one factorization."""
        return self.weight * self.counts.count(1) + self.symmetric * (len(self.members) == 1)

    def subset(self) -> tuple[GroupElement, ...]:
        return tuple(self.ball[i] for i in self.members)


class _OutOfTime(Exception):
    """The search's wall-clock budget ran out during a walk."""


def _last_witness(
    census: ProductCensus, atoms: Sequence[tuple[int, ...]], families: tuple[int, ...],
    limit: int, least: int, out_of_time: Callable[[], bool],
) -> Optional[tuple[tuple[int, ...], int]]:
    """One depth-first walk of `census` per family in `families` (0 without
    the identity, 1 with it) over the subsets of at most `limit` elements,
    loading them in lexicographic order of `atoms`, an ordering of
    `census.atoms`, and testing each one of 2 or more.  A witness of z
    elements lowers the limit to z - 1 for the rest of the walks, or ends
    them when z is `least`, the fewest elements a witness can have.
    Returns the last witness found as (path of indices into `atoms`, with
    identity), or None; raises `_OutOfTime` when the clock, read before
    each family and every 2048 nodes, says so.

    Each node, before it extends the loaded subset by atom j, reads the
    counts of `census.settled(atoms)[j]`: the lower lists were read earlier
    with the same counts, and no atom of `atoms[j:]` touches any of them,
    so a count of 1 there means no extension by `atoms[j:]`, of any size,
    is a witness, and the loop ends."""
    settled = census.settled(atoms)
    add, remove = census.add, census.remove
    n = len(atoms)
    nodes = 0
    path: list[int] = []
    best: Optional[tuple[tuple[int, ...], int]] = None
    # the class of x*x for the first element x of each atom: a count of 1
    # there rules out a witness without scanning every class count
    square = [census.lines[atom[0]][3] for atom in atoms]

    def walk(first: int) -> None:
        """Load and test every extension of the loaded subset by atoms[first:]
        of at most `limit` elements, in order."""
        nonlocal limit, nodes, best
        held = len(members)
        for j in range(first, n):
            if held >= limit or 1 in map(counts.__getitem__, settled[j]):
                return
            atom = atoms[j]
            size = held + len(atom)
            if size > limit:
                continue
            nodes += 1
            if not nodes & 2047 and out_of_time():
                raise _OutOfTime
            add(atom)
            path.append(j)
            if size >= 2 and counts[square[j]] != 1 and 1 not in counts:
                best = (tuple(path), with_ident)
                limit = size - 1 if size > least else 0
            elif size < limit:
                walk(j + 1)
            path.pop()
            remove(atom)

    for with_ident in families:
        census.clear()
        counts, members = census.counts, census.members  # read by walk; clear() makes new lists
        if with_ident:
            add((census.identity,))
        if out_of_time():
            raise _OutOfTime
        walk(0)
    return best


def _first_pass_order(census: ProductCensus) -> list[tuple[int, ...]]:
    """The first pass's ordering of `census.atoms`, fail-first: outermost
    BFS layer first (x and x^-1 lie in one layer), and within a layer the
    atom whose first element's row forms the rarest labels first.  An
    atom's score sums 1 / cells(c) over the labels c of that row, where
    cells(c) counts the table's cells holding c; ties keep sort-key order.
    A label formed in few cells is raised by few atoms, so leading with the
    atoms that raise such labels files them under early atoms in
    `settled`, where the cut reads them near the root of the walk."""
    rows, depth = census.rows, census.depth
    rare = {c: 1 / k for c, k in Counter(chain.from_iterable(rows)).items()}
    # fsum rounds exactly, so two rows with the same labels' cell counts tie
    return sorted(census.atoms, key=lambda atom: (-depth[atom[0]], -math.fsum(map(rare.__getitem__, rows[atom[0]]))))


def search_nonup_witness(
    group: Group,
    radius: int,
    maxsize: int,
    gens: Optional[Sequence[GroupElement]] = None,
    caps: Caps = DEFAULT_CAPS,
) -> WitnessSearchResult:
    """Search symmetric subsets S = S^-1 of ball(radius) with up to `maxsize`
    elements such that S*S has no uniquely decomposable element.

    Subsets are unions of atoms (plus optionally the identity).  The answer
    is the first witness by size, then identity-free before identity, then
    in lexicographic order of the atom list of the ball sorted by the
    group's sort key, so it is deterministic.  Any witness found is
    re-verified with an independent naive census.

    S is symmetric, so the walks run on a symmetric census, which counts
    inverse-pair classes, not products: the involution
    phi(x, y) = (y^-1, x^-1) of S x S gives p and p^-1 equal counts, a
    product p != 1 that is its own inverse an even count and the identity
    the count |S|, so only a class {p, p^-1} can hold the unique product of
    a set of 2 or more elements, and a witness is a loaded set of 2 or more
    with no class count at 1.

    One census, its ball in sort-key order, serves two passes of
    `_last_witness`, each in its own order of the census's atoms.  The
    first walks them fail-first (`_first_pass_order`): outermost BFS layer
    first, and within a layer the atoms whose rows form the rarest labels
    first.  It loads every subset of every size from 2 up, one walk per
    family, identity-free first, lowering its limit at each witness.  A
    product formed in the outer layer is mostly formed by outer-layer pairs
    alone, and a label formed in few cells by few atoms, so in that order
    the settled cut fires near the root of the walk: the radius-3 fours
    exhaustion visits 3,744 nodes, against 3,981 in layer order alone and
    8,466 in sort-key order.  The pass gives the least witness size z and
    its family, or proves there is no witness, and no visit order changes
    either one.  Its lexicographic order is not the answer's, so when it
    finds a witness a second pass walks the atoms in sort-key order, in
    that family alone, up to z elements, and stops at its first witness,
    which is the answer.

    `subsets_tested` is read off `ProductCensus.ways`, in sort-key order:
    it is what a visit of every subset in the answer's order counts up to
    the answer.  That is every subset of each size below the witness's (of
    every size when there is none), then the identity-free subsets of the
    witness's size if the witness holds the identity, then the witness's
    1-based lexicographic rank in its family and size.

    The passes share one start and one wall-clock budget, checked before
    each walk and every 2048 nodes.  The first pass settles every size
    together, so a deadline that passes before the passes end leaves no
    witness and no exhausted size, lists every size as truncated and
    reports `subsets_tested` 0.  A negative `maxsize` is a ValueError.
    """
    if maxsize < 0:
        raise ValueError("maxsize must be nonnegative")
    start = time.monotonic()
    budget = caps.budget_ms / 1000.0
    sizes = tuple(range(2, maxsize + 1))

    def out_of_time() -> bool:
        return time.monotonic() - start > budget

    def below(ways: list[list[int]], top: int) -> int:
        """The subsets of both families with 2 to top - 1 elements."""
        return sum(ways[0][s] + ways[0][s - 1] for s in range(2, top))

    census = ProductCensus(group, radius, gens, caps=caps)
    atoms = census.atoms
    order = _first_pass_order(census)
    try:
        best = _last_witness(census, order, (0, 1), maxsize, 2, out_of_time)
        if best is None:
            top = min(maxsize, len(census.ball))  # no subset holds more
            return WitnessSearchResult(None, False, sizes, (), below(census.ways(top), top + 1))
        path, with_ident = best
        size = with_ident + sum(len(order[j]) for j in path)
        chosen, _ = _last_witness(census, atoms, (with_ident,), size, size, out_of_time)
    except _OutOfTime:
        return WitnessSearchResult(None, False, (), sizes, 0)
    ways = census.ways(size)
    left = size - with_ident
    tested = below(ways, size) + (ways[0][size] if with_ident else 0) + 1
    first = 0
    for j in chosen:  # the subsets before the witness that part from it at j
        tested += ways[first][left] - ways[j][left]
        first, left = j + 1, left - len(atoms[j])
    loaded = [census.identity] * with_ident + [i for j in chosen for i in atoms[j]]
    witness = tuple(census.ball[i] for i in loaded)
    return WitnessSearchResult(witness, naive_no_unique_product(witness), sizes[:size - 2], (), tested)


@dataclass(frozen=True)
class AnnealResult:
    witness: Optional[tuple[GroupElement, ...]]
    verified: bool
    restarts: int
    best_unique_count: Optional[int]  # None when no step ran
    ball_size: int


def anneal_nonup_witness(
    group: Group,
    radius: int,
    size: int,
    seed: int,
    gens: Optional[Sequence[GroupElement]] = None,
    caps: Caps = DEFAULT_CAPS,
) -> AnnealResult:
    """Simulated annealing for a subset S of `size` elements of
    ball(radius) whose square has no uniquely decomposable element.

    S ranges over arbitrary subsets, on an asymmetric census, which counts
    products; the symmetric sets S = S^-1 are the exhaustive search's
    (`search_nonup_witness`), which settles them.

    Each restart draws a random start and runs 8000 steps with geometric
    cooling from temperature 8; a step swaps one element of S for an unused
    one with `ProductCensus.move`, which reads the new unique count off the
    counts the swap touches, and undoes the swap if the Metropolis rule
    rejects it.  Restarts continue until a witness turns up or
    `caps.budget_ms` runs out.  The run is deterministic for a given seed
    up to that deadline, and any witness is re-verified with an
    independent naive census.  A size that takes the whole ball leaves no
    step to make: the census of that one set is the answer, after one
    restart and no random draw.  A size below 1 or past the ball is a
    ValueError.
    """
    rng = random.Random(seed)
    census = ProductCensus(group, radius, gens, symmetric=False, caps=caps)
    atoms = census.atoms
    n = len(atoms)
    if not 1 <= size <= n:
        raise ValueError(f"anneal size {size} must be 1 to {n}: ball({radius}) has {n} elements")

    if size == n:
        # the whole ball admits no step, so its one census decides
        for atom in atoms:
            census.add(atom)
        count = census.unique_count()
        witness = None if count else census.subset()
        verified = witness is not None and naive_no_unique_product(witness)
        return AnnealResult(witness, verified, 1, count, n)

    deadline = time.monotonic() + caps.budget_ms / 1000.0
    best: Optional[int] = None
    restarts = 0
    while time.monotonic() < deadline:
        restarts += 1
        cur = rng.sample(range(n), size)
        used = [False] * n
        census.clear()
        for s in cur:
            used[s] = True
            census.add(atoms[s])
        cur_val = census.unique_count()
        temp = 8.0
        for _ in range(8000):
            temp = max(0.05, temp * 0.999)
            pos = rng.randrange(size)
            cand = rng.randrange(n)
            if used[cand]:
                continue
            val = cur_val + census.move(atoms[cur[pos]], atoms[cand])
            if val <= cur_val or rng.random() < math.exp((cur_val - val) / temp):
                used[cur[pos]], used[cand] = False, True
                cur[pos], cur_val = cand, val
            else:
                census.remove(atoms[cand])
                census.add(atoms[cur[pos]])
            if best is None or cur_val < best:
                best = cur_val
            if cur_val == 0:
                witness = census.subset()
                return AnnealResult(witness, naive_no_unique_product(witness), restarts, best, n)
    return AnnealResult(None, False, restarts, best, n)
