"""Correctness checks for the benchmark's operations.

Each check compares an output of the library with an oracle that does not go
through the code path being timed: the fours census is recomputed here on raw
affine payloads, proper-power exponents by a period scan of the letter
string, normal forms by the exhaustive minimizer, and so on.  A check returns
``None`` when the output is right and a one-line reason when it is not;
``Tally`` counts both, so every failed check counts toward ``failed``.
"""

from __future__ import annotations

import dataclasses
import math
import sys

from groupeq import equations as eqmod
from groupeq import finite_solver as solver
from groupeq import up as upmod
from groupeq.errors import CertificateError


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self, verbose: bool = True):
        self.verbose = verbose
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, reason) -> bool:
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{what}: {reason}")
            if self.verbose:
                print(f"FAILED {what}: {reason}", file=sys.stderr)
        return False


# ---------------------------------------------------------------------------
# census oracles on raw payloads


def fours_mul(x, y):
    """Affine product in the fours group: (d1, v1)(d2, v2) = (d1 d2, d1 v2 + v1)."""
    (d1, v1), (d2, v2) = x, y
    return (
        (d1[0] * d2[0], d1[1] * d2[1], d1[2] * d2[2]),
        (d1[0] * v2[0] + v1[0], d1[1] * v2[1] + v1[1], d1[2] * v2[2] + v1[2]),
    )


def fours_inv(x):
    d, v = x
    return d, tuple(-a * b for a, b in zip(d, v))


FOURS_IDENTITY = ((1, 1, 1), (0, 0, 0))


def vec_mul(x, y):
    return tuple(a + b for a, b in zip(x, y))


def census(mul, xs, ys) -> dict:
    """Product -> list of (x, y) factor pairs, over distinct payloads."""
    out: dict = {}
    for x in dict.fromkeys(xs):
        for y in dict.fromkeys(ys):
            out.setdefault(mul(x, y), []).append((x, y))
    return out


def unique_count(mul, xs, ys) -> int:
    return sum(1 for pairs in census(mul, xs, ys).values() if len(pairs) == 1)


def strong_up_holds(mul, xs, ys) -> bool:
    """Two uniquely decomposable products whose Y-factors differ."""
    ys_of_unique = {pairs[0][1] for pairs in census(mul, xs, ys).values() if len(pairs) == 1}
    return len(ys_of_unique) >= 2


def up4_holds(mul, sets) -> bool:
    counts: dict = {}
    a4, b4, c4, d4 = (list(dict.fromkeys(s)) for s in sets)
    for a in a4:
        for b in b4:
            ab = mul(a, b)
            for c in c4:
                abc = mul(ab, c)
                for d in d4:
                    v = mul(abc, d)
                    counts[v] = counts.get(v, 0) + 1
    return any(c == 1 for c in counts.values())


# ---------------------------------------------------------------------------
# words


def primitive_exponent(letters: tuple) -> int:
    """Largest k with the cyclically reduced letter string equal to a k-th
    power of a shorter string, by trying every period."""
    n = len(letters)
    for period in range(1, n + 1):
        if n % period == 0 and letters == letters[:period] * (n // period):
            return n // period
    return 1


def eval_falsifier_witness(witness, a_gens, b, identity):
    value = identity
    for kind, data in witness:
        if kind == "b":
            value = value * (b ** data)
        else:
            for i, s in data:
                value = value * (a_gens[i] ** s)
    return value


# ---------------------------------------------------------------------------
# checks; each returns None on success or a reason


def check_normal_form(result, e, split):
    got = (result.length_one.m, 0) if result.kind == "length-one" else (result.form6.m, result.form6.n)
    return check_mn(got, eqmod.bruteforce_min_form6(e, split))


def check_mn(got, oracle):
    if oracle is None:
        return "brute-force minimizer found no expression within its caps"
    if tuple(got) != tuple(oracle):
        return f"normal form (m, n) = {tuple(got)}, brute force gives {tuple(oracle)}"
    return None


def check_certificate(cert, e):
    try:
        ok = solver.verify_certificate(cert, e)
    except CertificateError as exc:
        return f"certificate rejected: {exc}"
    return None if ok else "certificate does not solve the equation"


def check_witness(witness, size: int):
    """A non-unique-product set: right size, distinct, no unique product by
    the library's naive census and by this module's payload census."""
    payloads = [w.payload for w in witness]
    if len(witness) != size or len(set(payloads)) != size:
        return f"witness has {len(set(payloads))} distinct elements, expected {size}"
    if not upmod.naive_no_unique_product(witness):
        return "naive_no_unique_product rejects the witness"
    if unique_count(fours_mul, payloads, payloads) != 0:
        return "payload census finds a unique product in S*S"
    return None


def check_exhaustion(res, subsets: int, sizes: tuple):
    if res.sizes_truncated:
        return f"sizes {list(res.sizes_truncated)} truncated"
    if res.witness is not None:
        return "symmetric exhaustion reported a witness"
    if tuple(res.sizes_exhausted) != sizes:
        return f"sizes exhausted {list(res.sizes_exhausted)}, expected {list(sizes)}"
    if res.subsets_tested != subsets:
        return f"{res.subsets_tested} subsets tested, expected {subsets}"
    return None


class SearchClaim:
    """What ``search_nonup_witness(fours, radius, maxsize, gens)`` must
    report, worked out on raw payloads: the ball the generators span, the
    number of subsets S = S^-1 of it with 2 <= |S| <= maxsize (inverse pairs
    and the identity are the atoms the search combines), and two such subsets
    drawn at random, each of which must have a unique product when the search
    reports no witness."""

    def __init__(self, rng, gens, radius: int, maxsize: int):
        syms = set(gens) | {fours_inv(g) for g in gens}
        ball = layer = {FOURS_IDENTITY}
        for _ in range(radius):
            layer = {fours_mul(x, s) for x in layer for s in syms} - ball
            ball = ball | layer
        self.ball, self.maxsize = ball, maxsize
        atoms = sorted({tuple(sorted({x, fours_inv(x)})) for x in ball if x != FOURS_IDENTITY})
        ways = [1]  # ways[s]: sets of atoms with s elements in all
        for atom in atoms:
            ways = [a + (ways[s - len(atom)] if s >= len(atom) else 0)
                    for s, a in enumerate(ways + [0] * len(atom))]
        at = lambda s: ways[s] if 0 <= s < len(ways) else 0  # noqa: E731
        self.subsets = sum(at(s) + at(s - 1) for s in range(2, maxsize + 1))
        self.samples = []
        for _ in range(2):
            S = [x for atom in rng.sample(atoms, rng.randint(1, min(len(atoms), maxsize // 2))) for x in atom]
            if len(S) < maxsize and rng.random() < 0.5:
                S.append(FOURS_IDENTITY)
            self.samples.append(S)

    def check(self, res):
        if res.witness is not None:
            payloads = {w.payload for w in res.witness}
            if not payloads <= self.ball or any(fours_inv(p) not in payloads for p in payloads):
                return "witness is not a symmetric subset of the ball"
            return check_witness(res.witness, len(payloads))
        reason = check_exhaustion(res, self.subsets, tuple(range(2, self.maxsize + 1)))
        for S in self.samples:
            if reason is None and unique_count(fours_mul, S, S) == 0:
                reason = f"search missed the non-unique-product set {S}"
        return reason


def check_proper_power(dec, w, exponent: int):
    if dec.exponent != exponent:
        return f"exponent {dec.exponent}, expected {exponent}"
    if dec.root ** dec.exponent != w:
        return "root ** exponent differs from the input"
    z = dec.conjugator
    if dec.core_root ** dec.exponent != (~z) * w * z:
        return "core_root ** exponent differs from the cyclic core"
    return None


# ---------------------------------------------------------------------------
# self-test: corrupted outputs must be rejected


def self_test(nf_case=None, cert_case=None, search_case=None, witness=None) -> list[str]:
    """Feed one corrupted output through each check; returns the checks that
    accepted a corruption (an empty list means every corruption was caught).

    nf_case is (NormalFormResult, Equation, Split); cert_case is
    (SolverReport, Equation); search_case is (WitnessSearchResult,
    SearchClaim); witness is a found non-unique-product set.
    """
    tally = Tally(verbose=False)
    expected = 0
    if nf_case is not None:
        result, e, split = nf_case
        if result.kind == "form6":
            bad = dataclasses.replace(result, form6=dataclasses.replace(result.form6, n=result.form6.n + 1))
        else:
            bad = dataclasses.replace(
                result, length_one=dataclasses.replace(result.length_one, m=result.length_one.m + 1))
        tally.record("self-test normal form", check_normal_form(bad, e, split))
        expected += 1
    if cert_case is not None:
        rep, eq = cert_case
        cert = rep.certificate
        bad_cert = dataclasses.replace(cert, solution=tuple(range(cert.degree)))
        tally.record("self-test certificate", check_certificate(bad_cert, eq))
        expected += 1
    if search_case is not None:
        res, claim = search_case
        short = dataclasses.replace(res, subsets_tested=res.subsets_tested - 1)
        tally.record("self-test search", claim.check(short))
        expected += 1
    if witness is not None:
        dropped = tuple(witness)[:-1]
        tally.record("self-test witness", check_witness(dropped, len(dropped)))
        expected += 1
    missed = []
    if tally.failed != expected:
        missed.append(f"{expected - tally.failed} of {expected} corrupted outputs passed their check")
    return missed


def gcd_vector(v) -> int:
    g = 0
    for c in v:
        g = math.gcd(g, abs(c))
    return g
