"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
verdicts.  Every tolerance is exact (0) unless a runtime bound is stated.
"""

import itertools
import random
import string
import time

import pytest

from groupeq.backends import (
    FoursGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    PermutationGroup,
    cyclic_group,
    klein_four_group,
    table_from_group,
)
from groupeq.cli import run_command
from groupeq.config import DEFAULT_CAPS
from groupeq.equations import Equation, Split, bruteforce_min_form6, classify, normal_form_6
from groupeq.errors import EquationOverFactorError
from groupeq.finite_solver import solve_over_finite, verify_certificate
from groupeq.freegroup import proper_power
from groupeq.generalized import (
    GeneralizedEquation,
    conjugate_family,
    coset_rewrite,
    total_product,
    unimodular_verdict,
)
from groupeq.report import canonical_json
from groupeq.up import (
    search_nonup_witness,
    strojnowski_check,
    strong_up_check,
    up4_check,
    up_check,
)

from conftest import fours_translation, random_element, random_free_word, random_vector


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


# -- criterion 1 -------------------------------------------------------------


def test_acceptance_1_coset_rewrite_soundness():
    start = time.monotonic()
    rng = random.Random(101)
    coeff_groups = [FreeGroup(("g", "h")), cyclic_group(3)]
    var_groups = [FreeAbelianGroup(2), FreeAbelianGroup(3), FreeGroup(("x", "y"))]
    done = 0
    while done < 1000:
        G = rng.choice(coeff_groups)
        T = rng.choice(var_groups)
        pairs = []
        for _ in range(rng.randrange(1, 7)):
            pairs.append((random_element(rng, G, 3), random_element(rng, T, 2)))
        ge = GeneralizedEquation(G, T, tuple(pairs))
        if total_product(ge).is_identity:
            continue
        re = coset_rewrite(ge)
        assert re.expansion() == ge.word(), "expansion must equal the input exactly"
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 exceeded its runtime bound: {elapsed:.1f}s"
    _report(1, f"{done} random rewritings expanded exactly in {elapsed:.1f}s")


# -- criterion 2 -------------------------------------------------------------


def test_acceptance_2_conjugation_consistency():
    rng = random.Random(202)
    G = FreeGroup(("g", "h"))
    T = FreeAbelianGroup(2)
    eqs = 0
    while eqs < 40:
        pairs = []
        for _ in range(rng.randrange(1, 5)):
            pairs.append((random_free_word(rng, G, 2), random_vector(rng, T, 2)))
        ge = GeneralizedEquation(G, T, tuple(pairs))
        if total_product(ge).is_identity:
            continue
        re = coset_rewrite(ge)
        G1 = re.word_group()
        labels = [random_vector(rng, T, 4) for _ in range(10)] + [T.identity()]
        for y in labels:
            (w_y,) = conjugate_family(re, [y])
            c_y, _ = T.coset_decompose(y, re.t)
            cw = G1.embed(1, c_y)
            assert w_y.expansion() == (~cw) * re.expansion() * cw
        eqs += 1
    _report(2, f"{eqs} rewritten equations x 11 labels agree with direct conjugation")


# -- criterion 3 -------------------------------------------------------------


def test_acceptance_3_definition_one_coincidence():
    rng = random.Random(303)
    G = FreeGroup(("g", "h"))
    T = FreeGroup(("t",))
    t = T.gen("t")
    for _ in range(100):
        pairs, sigma = [], 0
        for _ in range(rng.randrange(1, 5)):
            coef = random_free_word(rng, G, 2)
            k = rng.randrange(-3, 4)
            pairs.append((coef, t ** k))
            sigma += k
        ge = GeneralizedEquation(G, T, tuple(pairs))
        verdict = unimodular_verdict(ge)
        expected = "unimodular" if abs(sigma) == 1 else "not-unimodular"
        assert verdict.overall == expected
    _report(3, "verdict coincides with |sigma| = 1 on 100 cyclic-variable instances")


# -- criterion 4 -------------------------------------------------------------


def _length_six_equations(G, a, b):
    """All freely and cyclically reduced words of length <= 6 over
    a, b, t and inverses with t-exponent sum +-1, one per rotation class."""
    letters = {"a": a, "A": ~a, "b": b, "B": ~b}
    seen = set()
    for length in range(1, 7):
        for combo in itertools.product("aAbBtT", repeat=length):
            sigma = sum(1 if c == "t" else -1 if c == "T" else 0 for c in combo)
            if abs(sigma) != 1:
                continue

            def inv(c):
                return c.swapcase()

            if any(combo[i] == inv(combo[i + 1]) for i in range(length - 1)):
                continue
            if length > 1 and combo[-1] == inv(combo[0]):
                continue
            key = min(combo[i:] + combo[:i] for i in range(length))
            if key in seen:
                continue
            seen.add(key)
            terms = []
            coef = G.identity()
            for c in combo:
                if c in letters:
                    coef = coef * letters[c]
                else:
                    terms.append((coef, 1 if c == "t" else -1))
                    coef = G.identity()
            if not terms:
                continue
            if not coef.is_identity:
                g0, e0 = terms[0]
                terms[0] = (coef * g0, e0)
            yield Equation(G, tuple(terms))


def test_acceptance_4_normal_form_matches_oracle():
    start = time.monotonic()
    fa, fb = FreeGroup(("a",)), FreeGroup(("b",))
    G = FreeProductGroup((fa, fb))
    a, b = G.embed(0, fa.gen("a")), G.embed(1, fb.gen("b"))
    split = Split.of(G, [0])
    checked = over_h = 0
    for e in _length_six_equations(G, a, b):
        try:
            res = normal_form_6(e, split)
        except EquationOverFactorError:
            with pytest.raises(EquationOverFactorError):
                bruteforce_min_form6(e, split)
            over_h += 1
            continue
        got = (
            (res.length_one.m, 0)
            if res.kind == "length-one"
            else (res.form6.m, res.form6.n)
        )
        oracle = bruteforce_min_form6(e, split)
        assert got == oracle, f"{[(str(g), k) for g, k in e.terms]}: {got} vs {oracle}"
        if res.kind == "form6":
            assert res.form6.side_conditions.all_pass
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 4 exceeded its runtime bound: {elapsed:.1f}s"
    assert checked > 500
    _report(
        4,
        f"(m, n) matches the exhaustive minimizer on {checked} equations "
        f"({over_h} over-H rejections agree) in {elapsed:.1f}s",
    )


# -- criterion 5 -------------------------------------------------------------


def test_acceptance_5_up_suite():
    rng = random.Random(505)
    Z2 = FreeAbelianGroup(2)
    trials = 0
    while trials < 1000:
        X = list({random_vector(rng, Z2, 4) for _ in range(rng.randrange(2, 6))})
        Y = list({random_vector(rng, Z2, 4) for _ in range(rng.randrange(2, 6))})
        if len(X) < 2 or len(Y) < 2:
            continue
        rep = up_check(X, Y)
        # (c) census conservation and inversion duality, every trial
        assert rep.total_factorizations == len(rep.x) * len(rep.y)
        dual = up_check([~y for y in Y], [~x for x in X])
        assert {~v for v in dual.unique_elements} == set(rep.unique_elements)
        # (a) Strojnowski bound and strong UP
        sres = strojnowski_check(X, Y)
        assert sres.certified and sres.unique_count >= 2
        assert strong_up_check(X, Y).holds
        trials += 1
    # (b) the Klein four group full-set pair
    V = klein_four_group()
    full = list(V.elements())
    rep = up_check(full, full)
    assert rep.unique_count == 0
    quad = up4_check(full, full, full, full)
    assert not quad.holds and quad.total_quadruples == 256
    _report(5, f"{trials} Z^2 trials (>=2 uniques, strong UP, conservation, duality); Klein full sets: 0 uniques, UP4 fails over 256 quadruples")


# -- criterion 6 -------------------------------------------------------------


def test_acceptance_6_fours_group_backend():
    P = FoursGroup()
    a, b = P.generators()
    assert (~a) * b ** 2 * a == b ** -2
    assert (~b) * a ** 2 * b == a ** -2
    for g in P.ball(4):
        if not g.is_identity:
            sq = g * g
            assert fours_translation(sq) is not None and sq != P.identity()
    # the 600 s default budget is far above the few seconds this takes, so
    # the exhaustion is complete and its subset count is exact
    res = search_nonup_witness(P, radius=3, maxsize=14, caps=DEFAULT_CAPS)
    assert not res.found
    assert res.sizes_exhausted == tuple(range(2, 15))
    assert res.sizes_truncated == ()
    assert res.subsets_tested == 198_438
    outcome = (
        f"no witness: sizes {list(res.sizes_exhausted)} exhausted honestly "
        f"({res.subsets_tested} symmetric subsets)"
    )
    _report(6, f"relations verified, radius-4 ball torsion-free; search: {outcome}")


# -- criterion 7 -------------------------------------------------------------


def test_acceptance_7_proper_power_oracle():
    F = FreeGroup(("a", "b"))
    letters = [(0, 1), (0, -1), (1, 1), (1, -1)]

    def reduced_words(length):
        for combo in itertools.product(letters, repeat=length):
            if all(
                combo[i][0] != combo[i + 1][0] or combo[i][1] == combo[i + 1][1]
                for i in range(length - 1)
            ):
                yield F.word([(F.names[g], s) for g, s in combo])

    # oracle: power table over cyclically reduced roots
    table = {}
    for rl in range(1, 5):
        for u in reduced_words(rl):
            for k in range(2, 8 // rl + 1):
                p = u ** k
                if FreeGroup.length(p) != k * rl:
                    continue
                if table.get(p.payload, 1) < k:
                    table[p.payload] = k

    def strip(w):
        ls = list(FreeGroup.letters(w))
        while len(ls) >= 2 and ls[0] == (ls[-1][0], -ls[-1][1]):
            ls = ls[1:-1]
        return F.word([(F.names[g], s) for g, s in ls])

    count = 0
    for length in range(1, 9):
        for w in reduced_words(length):
            assert proper_power(w).exponent == table.get(strip(w).payload, 1)
            count += 1
    _report(7, f"border-array detector matches the all-roots oracle on {count} words")


# -- criterion 8 -------------------------------------------------------------


def test_acceptance_8_finite_solver():
    C3 = cyclic_group(3)
    e = Equation(C3, ((C3.element(2), 2),))  # t^2 = (123) as (123)^-1 t^2 = 1
    rep = solve_over_finite(e, max_degree=3)
    assert rep.found and rep.certificate.degree == 3
    assert verify_certificate(rep.certificate, e)

    groups = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + [
        klein_four_group(),
        table_from_group(PermutationGroup(3)),
    ]
    rng = random.Random(808)
    found = exhausted = 0
    for G in groups:
        elems = [g for g in G.elements() if not g.is_identity]
        for _ in range(3):
            terms = []
            # length <= 4 unimodular exponent shapes
            shape = rng.choice([(1,), (1, 1, -1), (2, -1), (1, -1, 1)])
            for exp in shape:
                terms.append((rng.choice(elems), exp))
            e = Equation(G, tuple(terms))
            if abs(e.exponent_sum()) != 1:
                continue
            result = solve_over_finite(e, max_degree=12)
            if result.found:
                assert verify_certificate(result.certificate, e)
                found += 1
            else:
                assert result.degrees_tested or result.degrees_capped
                exhausted += 1
    assert found >= 1
    _report(8, f"t^2 = (123) certified in S_3; sweep: {found} solved and re-verified, {exhausted} honest exhaustion reports")


# -- criterion 9 -------------------------------------------------------------


def test_acceptance_9_cli_stability_and_fuzz():
    scripts = {
        "classify": ("group F = free(a)\neq E over F: a t a t^-1 a t = 1\n", {}),
        "up-check": ("group Z = zn(1)\nset X in Z: 0, 1\nset Y in Z: 0, 1\n", {"sets": "X,Y"}),
        "rewrite-coset": (
            "group G = free(g, h)\ngroup T = zn(2)\nlet u = T: (1, 0)\nlet v = T: (0, 1)\n"
            "geq W over G with T: g u h v = 1\n",
            {},
        ),
        "verdict": (
            "group G = free(g)\ngroup T = zn(2)\nlet u = T: (1, 1)\n"
            "geq W over G with T: g u = 1\n",
            {},
        ),
        "solve-finite": ("group C = cyclic(3)\neq E over C: a^2 t^2 = 1\n", {}),
    }
    for cmd, (script, args) in scripts.items():
        r1, c1 = run_command(cmd, args, script)
        r2, c2 = run_command(cmd, args, script)
        assert canonical_json(r1) == canonical_json(r2) and c1 == c2

    rng = random.Random(909)
    vocab = [
        "group", "let", "set", "eq", "geq", "mveq", "over", "with", "in", "vars",
        "=", ":", "free(a)", "free(a, b)", "zn(2)", "fours", "cyclic(4)",
        "finite{0 1; 1 0}", "perm(3){(1 2)}", "t", "t^-1", "t^2", "a", "b",
        "(1, 0)", "0", "1", "{", "}", "*", ",", "G", "T", "E", "X",
    ]
    crashes = 0
    for _ in range(10_000):
        n = rng.randrange(1, 10)
        parts = []
        for _ in range(n):
            if rng.random() < 0.85:
                parts.append(rng.choice(vocab))
            else:
                parts.append("".join(rng.choice(string.printable[:72]) for _ in range(rng.randrange(1, 5))))
        script = " ".join(parts)
        if rng.random() < 0.4:
            script = script.replace(" ", "\n", rng.randrange(1, 3))
        cmd = rng.choice(["classify", "up-check", "verdict", "rewrite-coset"])
        args = {"sets": "X,Y"} if cmd == "up-check" else {}
        report, code = run_command(cmd, args, script + "\n")
        if code not in (0, 1, 2) or report["status"] not in ("ok", "falsified", "error"):
            crashes += 1
    assert crashes == 0
    _report(9, "golden reports byte-stable across runs; 10^4 fuzz inputs produced structured errors only")
