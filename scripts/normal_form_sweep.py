#!/usr/bin/env python3
"""Sweep the minimal normal form over all short unimodular equations.

Enumerates the freely and cyclically reduced words over a, b, t (and
inverses) with t-exponent sum +-1 up to a given length, one per rotation
class, computes the minimal (m, n) expression for each over F(a) * F(b)
with H = F(a), and checks every pinch-reduction result against the
exhaustive rotation/shift minimizer, the oracle.

Each class is represented by its least rotation in the alphabet order
a < A < b < B < t < T (not the ASCII order, in which T < a); words come
shortest first and, within a length, in that order.  The example column
shows the first word of each (m, n) class in this sequence.  Exits 0 when
every class matches the oracle, 1 on a mismatch and 2 on a bad flag
(--max-len below 1).

Usage: python3 scripts/normal_form_sweep.py [--max-len 6]
"""

import argparse
import re
import sys
import time
from collections import Counter

from groupeq.backends import FreeGroup, FreeProductGroup
from groupeq.equations import Equation, Split, bruteforce_min_form6, normal_form_6
from groupeq.errors import EquationOverFactorError


_ALPHABET = "aAbBtT"
_T_STEP = {"t": 1, "T": -1}
_T_SPLIT = re.compile("([tT])")
# ranks as digits, so that plain string comparison follows the alphabet order
_RANK = str.maketrans(_ALPHABET, "012345")


def _least_rotations(length):
    """Yield, in alphabet order, the cyclically reduced words of ``length``
    letters with t-exponent sum +-1 that no rotation undercuts.

    A depth-first walk over freely reduced words: a letter that cancels the
    one before it, or that leaves a t-exponent sum the letters still to
    place cannot bring back to +-1, is never appended.  A least rotation
    starts with its least letter, so later letters rank no lower than the
    first."""
    # pushed last-first, so words pop in alphabet order
    stack = [(c, _T_STEP.get(c, 0)) for c in reversed(_ALPHABET)]
    while stack:
        word, sigma = stack.pop()
        left = length - len(word)
        if not left:
            if abs(sigma) == 1 and (length == 1 or word[-1] != word[0].swapcase()):
                ranks = word.translate(_RANK)
                twice = ranks + ranks
                if all(twice[i:i + length] >= ranks for i in range(1, length)):
                    yield word
            continue
        cancel = word[-1].swapcase()
        for c in reversed(_ALPHABET[_ALPHABET.index(word[0]):]):
            s = sigma + _T_STEP.get(c, 0)
            if c != cancel and abs(s) <= left:
                stack.append((word + c, s))


def enumerate_equations(G, a, b, max_len):
    letters = {"a": a, "A": ~a, "b": b, "B": ~b}
    coefs = {"": G.identity()}

    def coef(segment):
        """The element of a run of a, A, b, B, built once per run."""
        g = coefs.get(segment)
        if g is None:
            g = coefs[segment] = coef(segment[:-1]) * letters[segment[-1]]
        return g

    for length in range(1, max_len + 1):
        for word in _least_rotations(length):
            # segments and t letters alternate: s_0 x_1 s_1 ... x_k s_k
            parts = _T_SPLIT.split(word)
            terms = [(coef(parts[i - 1]), _T_STEP[parts[i]]) for i in range(1, len(parts), 2)]
            if parts[-1]:
                # the last segment wraps around onto the first
                terms[0] = (coef(parts[-1] + parts[0]), terms[0][1])
            yield word, Equation(G, tuple(terms))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=int, default=6)
    args = ap.parse_args()
    if args.max_len < 1:
        ap.error("--max-len must be at least 1")

    fa, fb = FreeGroup(("a",)), FreeGroup(("b",))
    G = FreeProductGroup((fa, fb))
    a, b = G.embed(0, fa.gen("a")), G.embed(1, fb.gen("b"))
    split = Split.of(G, [0])

    start = time.monotonic()
    dist: Counter = Counter()
    over_h = mismatches = 0
    examples = {}
    for word, e in enumerate_equations(G, a, b, args.max_len):
        try:
            res = normal_form_6(e, split)
        except EquationOverFactorError:
            over_h += 1
            continue
        got = (
            (res.length_one.m, 0)
            if res.kind == "length-one"
            else (res.form6.m, res.form6.n)
        )
        oracle = bruteforce_min_form6(e, split)
        if oracle != got:
            mismatches += 1
            print(f"MISMATCH {word}: reduction {got} oracle {oracle}")
        dist[got] += 1
        examples.setdefault(got, word)

    elapsed = time.monotonic() - start
    total = sum(dist.values())
    print(f"{total} rotation classes processed in {elapsed:.1f}s "
          f"({over_h} rejected as equations over H)")
    print(f"{'(m, n)':>8}  {'count':>6}  example")
    for key in sorted(dist):
        print(f"{str(key):>8}  {dist[key]:>6}  {examples[key]}{'  (length-one)' if key[1] == 0 else ''}")
    print(f"oracle mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
