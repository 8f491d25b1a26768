"""Word-level tools over the free-product and free-group backends.

Words are elements of `backends.FreeProductGroup` (syllable sources are
factor indices) or, for presentations, of the `backends.FreeGroup` on the
generator names.  This module holds the sub-free-product membership test,
the bounded transcendence falsifier and the copy-name rule of emitted
presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .backends import GroupElement
from .errors import CapExceededError


def in_subfreeproduct(w: GroupElement, allowed: Iterable[int]) -> bool:
    """True iff every syllable of w comes from a factor index in `allowed`."""
    allowed = set(allowed)
    return all(i in allowed for i, _ in w.payload)


# ---------------------------------------------------------------------------
# bounded transcendence falsifier

MAX_LEN = 10               # largest word weight the falsifier accepts
FALSIFIER_NODES = 500_000  # node budget of the pool and of the word search


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
):
    """Search nonempty reduced words of the abstract free product <A> * <b>.

    Elements only need *, ~ and ==.  Words alternate nontrivial <A>-blocks
    (products of the given generators, weighted by generator letters used)
    and nonzero powers of b (weighted by |exponent|).  The first word that
    evaluates to the identity is returned as a witness; with no A-generators
    the search degenerates to checking powers of b, which is the right test
    when A is trivial.
    """
    if max_len > MAX_LEN:
        raise CapExceededError(f"max_len {max_len} exceeds cap {MAX_LEN}")
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
                    if nodes > FALSIFIER_NODES:
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
    budget = [FALSIFIER_NODES]

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
# the copy-name rule of emitted presentations (the Presentation type lives
# in backends, beside the free group its relators belong to)


def copy_name(name: str, label: Any) -> str:
    """The generator name of the copy of `name` labelled `label`: name@label."""
    return f"{name}@{label}"

