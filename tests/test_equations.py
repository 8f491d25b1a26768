import copy
import gc
import itertools
import pickle
import random
import weakref
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from groupeq.backends import FiniteTableGroup, FreeGroup, FreeProductGroup
from groupeq.equations import (
    Equation,
    Split,
    T,
    _leveled,
    bruteforce_min_form6,
    classify,
    emit_system_7,
    normal_form_6,
    universal_solution_group,
)
from groupeq.errors import (
    EquationError,
    EquationOverFactorError,
    SigmaError,
    WindowError,
)

from groupeq.words import in_subfreeproduct

from conftest import assert_round_trips, random_element


@pytest.fixture(scope="module")
def setup():
    fa, fb = FreeGroup(("a",)), FreeGroup(("b",))
    G = FreeProductGroup((fa, fb))
    a = G.embed(0, fa.gen("a"))
    b = G.embed(1, fb.gen("b"))
    return G, a, b, Split.of(G, [0])


# ---------------------------------------------------------------------------
# classification


def test_classify_examples(setup, c3):
    G, a, b, _ = setup
    e = Equation(G, ((~a, 1),))  # t = a
    c = classify(e)
    assert c.exponent_sum == 1 and c.kind == "unimodular" and not c.trivial

    e2 = Equation(G, ((a, 1), (b, -1)))  # a t b t^-1
    c2 = classify(e2)
    assert c2.exponent_sum == 0 and c2.kind == "singular"

    e3 = Equation(G, ((G.identity(), -1), (a, 1)))  # t^-1 a t
    c3_ = classify(e3)
    assert c3_.trivial and c3_.length == 2


def test_classify_rejects_degenerate(setup):
    G, a, _, _ = setup
    with pytest.raises(EquationError):
        Equation(G, ((a, 0),))
    with pytest.raises(EquationError):
        Equation(G, ())


def _naive_classification(group, terms):
    """Independent oracle: literal token-list scan with stepwise reduction."""
    tokens = []
    for g, e in terms:
        if not g.is_identity:
            tokens.append(("g", g))
        s = 1 if e > 0 else -1
        tokens.extend([("t", s)] * abs(e))
    # free reduction by repeated scanning
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        while i < len(tokens):
            if out:
                k1, v1 = out[-1]
                k2, v2 = tokens[i]
                if k1 == "g" and k2 == "g":
                    prod = v1 * v2
                    out.pop()
                    if not prod.is_identity:
                        out.append(("g", prod))
                    i += 1
                    changed = True
                    continue
                if k1 == "t" and k2 == "t" and v1 + v2 == 0:
                    out.pop()
                    i += 1
                    changed = True
                    continue
            out.append(tokens[i])
            i += 1
        tokens = out
    length = sum(1 for k, _ in tokens if k == "t")
    sigma = sum(v for k, v in tokens if k == "t")
    # triviality: cyclically reduce the token list, then look for t's
    toks = list(tokens)
    while len(toks) >= 2:
        (k1, v1), (k2, v2) = toks[0], toks[-1]
        if k1 == "g" and k2 == "g":
            prod = v2 * v1
            toks = toks[1:-1]
            if not prod.is_identity:
                toks.append(("g", prod))
        elif k1 == "t" and k2 == "t" and v1 + v2 == 0:
            toks = toks[1:-1]
        else:
            break
    trivial = all(k == "g" for k, _ in toks)
    return length, sigma, trivial


def test_classify_against_naive_oracle(setup):
    G, a, b, _ = setup
    rng = random.Random(99)
    for _ in range(10_000):
        terms = []
        for _ in range(rng.randrange(1, 5)):
            coef = random_element(rng, G, 2)
            exp = rng.choice([-3, -2, -1, 1, 2, 3])
            terms.append((coef, exp))
        e = Equation(G, tuple(terms))
        c = classify(e)
        length, sigma, trivial = _naive_classification(G, terms)
        assert (c.length, c.exponent_sum, c.trivial) == (length, sigma, trivial)


def _classified_in_g_times_t(e):
    """(length, trivial) read off e's word in G * T, each coefficient one
    syllable of the factor G: the construction classify used before it read
    the refined word, kept as a reference."""
    w = FreeProductGroup((e.group, T)).word(
        syll for g, k in e.terms for syll in ((0, g), (1, T.word([("t", k)])))
    )
    length = sum(abs(v.payload[0][1]) for i, v in w.payload if i == 1)
    return length, in_subfreeproduct(w.group.cyclically_reduce(w)[0], {0})


def test_classify_matches_the_g_times_t_word(setup, c3, fours):
    G, a, b, _ = setup
    fc = FreeGroup(("c",))
    nested = FreeProductGroup((G, fc))
    seen = set()
    for group, seed in ((G, 31), (c3, 32), (fours, 33), (nested, 34)):
        rng = random.Random(seed)
        for _ in range(1_500):
            terms = []
            for _ in range(rng.randrange(1, 5)):
                coef = group.identity() if rng.random() < 0.3 else random_element(rng, group, 2)
                terms.append((coef, rng.choice([-2, -1, 1, 2])))
            e = Equation(group, tuple(terms))
            c = classify(e)
            assert (c.length, c.trivial) == _classified_in_g_times_t(e)
            seen.add((group, c.trivial))
    # each group gives trivial and nontrivial equations
    assert len(seen) == 8


def test_inversion_negates_sigma_preserves_triviality(setup, rng):
    G, a, b, _ = setup
    for _ in range(300):
        terms = []
        for _ in range(rng.randrange(1, 5)):
            terms.append((random_element(rng, G, 2), rng.choice([-2, -1, 1, 2])))
        e = Equation(G, tuple(terms))
        ei = e.inverted()
        assert classify(ei).exponent_sum == -classify(e).exponent_sum
        assert classify(ei).trivial == classify(e).trivial
        # the inverted word is conjugate to the inverse word
        w = e.refined_word()
        assert w.group.are_conjugate(ei.refined_word(), ~w)


# ---------------------------------------------------------------------------
# universal solution group


def test_universal_solution_group(setup, c3):
    e = Equation(c3, ((~c3.element(1), 1),))
    p = universal_solution_group(e)
    assert p.generators == ("a", "t")
    assert len(p.relators) == 2  # a^3 and the equation word
    assert_round_trips(p)

    F = FreeGroup(("a",))
    e2 = Equation(F, ((F.gen("a"), 2),))
    p2 = universal_solution_group(e2)
    assert p2.generators == ("a", "t")
    assert len(p2.relators) == 1
    assert str(p2.relators[0]) == "a t^2"
    assert_round_trips(p2)


# ---------------------------------------------------------------------------
# levels of normal-closure words


_leveled_items = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from([0, 1]), st.sampled_from([-2, -1, 1, 2])),
    max_size=8,
)


@settings(max_examples=80)
@given(_leveled_items, _leveled_items, st.integers(-3, 3))
def test_leveled_syllables_rebuild_and_shift(fafb, items, other, d):
    # prod t^-l x t^l in F(a) * F(b) * T, read back through its levels
    R = FreeProductGroup(fafb.factors + (T,))
    t = R.embed(2, T.gens()[0])

    def rebuild(sylls):
        out = R.identity()
        for lvl, fi, el in sylls:
            out = out * t ** -lvl * R.embed(fi, el) * t ** lvl
        return out

    def closure_word(spec):
        return rebuild((l, fi, fafb.factors[fi].gens()[0] ** e) for l, fi, e in spec)

    w, v = closure_word(items), closure_word(other)
    sylls = list(_leveled(w))
    assert all(p[:2] != q[:2] for p, q in zip(sylls, sylls[1:]))
    assert rebuild(sylls) == w
    # a shift by d is conjugation by t^d: it adds d to every level
    shifted = w.conj(t ** d)
    assert list(_leveled(shifted)) == [(l + d, fi, el) for l, fi, el in sylls]
    assert (w * v).conj(t ** d) == shifted * v.conj(t ** d)


# ---------------------------------------------------------------------------
# normal form (6)


def test_normal_form_length_one_branch(setup):
    G, a, b, split = setup
    res = normal_form_6(Equation(G, ((b, 1),)), split)
    assert res.kind == "length-one"
    assert res.length_one.m == 0
    # t = u with u = b^-1
    assert str(res.length_one.u) == "b^-1"


def test_normal_form_paper_length_one_case(setup):
    # h1 t k1 t^-1 h2 t has a length-one expression after shifting H letters
    G, a, b, split = setup
    res = normal_form_6(Equation(G, ((a, 1), (b, -1), (a, 1))), split)
    assert res.kind == "length-one"


def test_normal_form_form6_case(setup):
    G, a, b, split = setup
    e = Equation(G, ((b, 1), (b, 1), (b, -1)))
    res = normal_form_6(e, split)
    assert res.kind == "form6"
    f = res.form6
    assert (f.m, f.n) == (0, 1)
    assert bruteforce_min_form6(e, split) == (f.m, f.n)
    assert f.side_conditions.all_pass
    assert e.refined_group().are_conjugate(f.expand(), e.refined_word())


def test_normal_form_needs_unimodular(setup):
    G, a, b, split = setup
    with pytest.raises(SigmaError):
        normal_form_6(Equation(G, ((b, 2),)), split)


def test_normal_form_sigma_minus_one_inverted(setup):
    G, a, b, split = setup
    e = Equation(G, ((b, -1), (b, -1), (b, 1)))
    res = normal_form_6(e, split)
    assert res.kind == "form6"
    assert res.form6.sigma_inverted
    assert bruteforce_min_form6(e, split) == (res.form6.m, res.form6.n)


def test_normal_form_rejects_equation_over_h(setup):
    G, a, b, split = setup
    with pytest.raises(EquationOverFactorError):
        normal_form_6(Equation(G, ((a, 1),)), split)
    # the same word against the opposite split puts b on the H side
    other = Split.of(G, [1], [0])
    with pytest.raises(EquationOverFactorError):
        normal_form_6(Equation(G, ((b, 1), (b, 1), (b, -1))), other)
    # a word over <t> alone is conjugate into H * <t> as well
    with pytest.raises(EquationOverFactorError):
        normal_form_6(Equation(G, ((G.identity(), 1),)), split)


def _outcomes(e, split):
    return normal_form_6(e, split), bruteforce_min_form6(e, split)


@pytest.mark.parametrize("sigma", [1, -1])
def test_one_equation_object_serves_both_splits(setup, sigma):
    # the normal form and its oracle share one prepare per (equation,
    # split); a kept refined word, core or inversion must not carry one
    # split's answer into the other's
    G, a, b, _ = setup
    terms = ((a * b, sigma), (b, sigma), (~a * b, -sigma))
    e = Equation(G, terms)
    before = (e == Equation(G, terms), hash(e), pickle.dumps(copy.copy(e)))
    for h in ([0], [1]):
        split = Split.of(G, h)
        got = _outcomes(e, split)
        assert got == _outcomes(Equation(G, terms), split)
        assert got[0].form6.sigma_inverted == (sigma == -1)
        assert got == _outcomes(e, split)
    assert (e == Equation(G, terms), hash(e), pickle.dumps(copy.copy(e))) == before
    # copies and pickles carry the fields only
    assert set(vars(copy.copy(e))) == set(vars(pickle.loads(pickle.dumps(e)))) == {"group", "terms"}
    assert pickle.loads(pickle.dumps(e)) == e and hash(pickle.loads(pickle.dumps(e))) == hash(e)


@pytest.mark.parametrize("sigma", [1, -1])
def test_equation_caches_form_no_cycle(setup, sigma):
    G, a, b, split = setup
    e = Equation(G, ((a * b, sigma), (b, sigma), (~a * b, -sigma)))
    ref = weakref.ref(e)
    enabled = gc.isenabled()
    gc.disable()
    try:
        normal_form_6(e, split)
        bruteforce_min_form6(e, split)
        del e
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_failed_prepare_is_not_cached(setup, c3):
    G, a, b, split = setup
    over_h = Equation(G, ((a, 1),))
    sigma_two = Equation(G, ((b, 2),))
    for _ in range(2):
        with pytest.raises(EquationOverFactorError):
            normal_form_6(over_h, split)
        with pytest.raises(EquationOverFactorError):
            bruteforce_min_form6(over_h, split)
        with pytest.raises(SigmaError):
            normal_form_6(sigma_two, split)
    # the same equation is accepted under the split that puts a on the K
    # side, and that acceptance is kept for that split only
    assert normal_form_6(over_h, Split.of(G, [1])).kind == "length-one"
    with pytest.raises(EquationOverFactorError):
        bruteforce_min_form6(over_h, split)
    # the normal form needs a free-product G, and says so on every call
    not_free_product = Equation(c3, ((c3.element(1), 1),))
    for _ in range(2):
        with pytest.raises(EquationError):
            normal_form_6(not_free_product, split)


def test_word_groups_are_shared_per_coefficient_group(setup, c3):
    G, a, b, _ = setup
    e, f = Equation(G, ((a, 1),)), Equation(G, ((b, -1), (a, 2)))
    assert e.refined_group() is f.refined_group() == FreeProductGroup(G.factors + (T,))
    assert e.refined_word() is e.refined_word()
    assert e.inverted() is e.inverted() and e.inverted() == Equation(G, ((~a, -1),))
    # words of one equation's group multiply on the shared group object
    assert (e.refined_word() * f.refined_word()).group is e.refined_group()
    # a G that is not a free product is the one factor before T
    x = c3.element(1)
    g, h = Equation(c3, ((x, 1),)), Equation(c3, ((~x, -1), (c3.identity(), 2)))
    assert g.refined_group() is h.refined_group() == FreeProductGroup((c3, T))
    assert (g.refined_word() * h.refined_word()).group is g.refined_group()


def _all_words(letters, length):
    for combo in itertools.product(letters, repeat=length):
        yield combo


def _words_to_equations(G, a, b, length):
    """Freely and cyclically reduced words of given length over a, b, t with
    exponent sum +-1, as equations; deduplicated by cyclic rotation."""
    letters = {
        "a": a, "A": ~a, "b": b, "B": ~b,
    }
    seen = set()
    for combo in itertools.product("aAbBtT", repeat=length):
        sigma = sum(1 if c == "t" else -1 if c == "T" else 0 for c in combo)
        if abs(sigma) != 1:
            continue
        # reduced: no adjacent inverse pairs, also cyclically
        def inv(c):
            return c.swapcase()
        if any(combo[i] == inv(combo[i + 1]) for i in range(length - 1)):
            continue
        if length > 1 and combo[-1] == inv(combo[0]):
            continue
        rotations = [combo[i:] + combo[:i] for i in range(length)]
        key = min(rotations)
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


def test_normal_form_matches_oracle_on_small_words(setup):
    # spot sample here; the full length <= 6 sweep runs in the acceptance suite
    G, a, b, split = setup
    checked = 0
    for length in (2, 3, 4):
        for e in _words_to_equations(G, a, b, length):
            try:
                res = normal_form_6(e, split)
            except EquationOverFactorError:
                with pytest.raises(EquationOverFactorError):
                    bruteforce_min_form6(e, split)
                continue
            oracle = bruteforce_min_form6(e, split)
            got = (
                (res.length_one.m, 0)
                if res.kind == "length-one"
                else (res.form6.m, res.form6.n)
            )
            assert oracle == got, f"{e.terms}: {got} vs {oracle}"
            checked += 1
    assert checked > 30


_T_STEP = {"t": 1, "T": -1}


def _random_unimodular_word(rng, length):
    """A seeded word over a, A, b, B, t, T (A = a^-1, T = t^-1) of `length`
    letters, freely and cyclically reduced, with t-exponent sum +-1."""
    while True:
        word, sigma = "", 0
        for left in range(length, 0, -1):
            # a letter must not cancel the last one or leave a t-exponent
            # sum the letters still to place cannot bring back to +-1
            choices = [
                c for c in "aAbBtT"
                if not (word and c == word[-1].swapcase()) and abs(sigma + _T_STEP.get(c, 0)) <= left
            ]
            if not choices:
                break
            c = rng.choice(choices)
            word, sigma = word + c, sigma + _T_STEP.get(c, 0)
        if len(word) == length and abs(sigma) == 1 and word[-1] != word[0].swapcase():
            return word


def _word_equation(G, a, b, word):
    """The equation of a cyclic word: each t letter takes the run of a, b
    letters before it, and the run after the last t wraps onto the first."""
    letters = {"a": a, "A": ~a, "b": b, "B": ~b}
    terms, coef = [], G.identity()
    for c in word:
        if c in _T_STEP:
            terms.append((coef, _T_STEP[c]))
            coef = G.identity()
        else:
            coef = coef * letters[c]
    terms[0] = (coef * terms[0][0], terms[0][1])
    return Equation(G, tuple(terms))


def test_normal_form_matches_oracle_on_long_words(setup):
    # 1,500 seeded words of lengths 9-60 reach classes (m, n) with m >= 2
    # or n >= 2, which the length <= 8 sweep never meets; the oracle judges
    # every one (it never runs out of reach), and since it shares `_prepare`
    # with the reduction, each form is also expanded and checked conjugate
    # to the word
    G, a, b, split = setup
    rng = random.Random(2004)
    classes = Counter()
    for lo, hi, count in [(9, 14, 500), (15, 24, 400), (25, 40, 350), (41, 60, 250)]:
        for _ in range(count):
            e = _word_equation(G, a, b, _random_unimodular_word(rng, rng.randint(lo, hi)))
            try:
                res = normal_form_6(e, split)
            except EquationOverFactorError:
                with pytest.raises(EquationOverFactorError):
                    bruteforce_min_form6(e, split)
                continue
            if res.kind == "length-one":
                got = (res.length_one.m, 0)
            else:
                f = res.form6
                got = (f.m, f.n)
                assert f.side_conditions.all_pass
                base = e.inverted() if f.sigma_inverted else e
                assert base.refined_group().are_conjugate(f.expand(), base.refined_word())
            assert bruteforce_min_form6(e, split) == got, e.terms
            classes[got] += 1
    assert sum(classes.values()) > 1_450
    assert sum(k for (m, n), k in classes.items() if m >= 2) > 500
    assert sum(k for (m, n), k in classes.items() if n >= 2) > 50
    assert max(m for m, _ in classes) >= 8


def test_normal_form_properties_on_random_equations(setup, rng):
    G, a, b, split = setup
    produced = 0
    for _ in range(400):
        terms = []
        for _ in range(rng.randrange(2, 5)):
            coef = rng.choice([b, ~b, b ** 2, a * b, b * a * b, ~b * a])
            terms.append((coef, rng.choice([-2, -1, 1, 2])))
        e = Equation(G, tuple(terms))
        if abs(e.exponent_sum()) != 1:
            continue
        try:
            res = normal_form_6(e, split)
        except EquationOverFactorError:
            continue
        if res.kind == "form6":
            f = res.form6
            assert f.side_conditions.all_pass
            base = e if not f.sigma_inverted else e.inverted()
            assert base.refined_group().are_conjugate(f.expand(), base.refined_word())
            produced += 1
    assert produced > 10


# ---------------------------------------------------------------------------
# system (7)


def test_emit_system_7_counts(setup):
    G, a, b, split = setup
    e = Equation(G, ((b, 1), (b, 1), (b, -1)))
    f = normal_form_6(e, split).form6
    assert (f.m, f.n) == (0, 1)
    for window in (2, 5):
        p = emit_system_7(f, window=window)
        # (2*window) H-shift relators + m K-shift relators + the main one
        assert len(p.relators) == 2 * window + f.m + 1
        assert_round_trips(p)
    # generators: H copies (2w+1), K copies (m+1), plus x
    p = emit_system_7(f, window=3)
    assert len(p.generators) == 1 + 7 + 1


def test_emit_system_7_window_too_small(setup):
    G, a, b, split = setup
    found = None
    for e in [
        Equation(G, ((b * a, 2), (a * b, -2), (a * b * a, -1))),
        Equation(G, ((a * b * a, -1), (~b, -1), (a * b, -1), (a, 2))),
    ]:
        if abs(e.exponent_sum()) != 1:
            continue
        try:
            res = normal_form_6(e, split)
        except EquationOverFactorError:
            continue
        if res.kind != "form6":
            continue
        levels = [l for w in [res.form6.c] + [x for p in res.form6.pairs for x in p]
                  for l, fi, _ in _leveled(w) if fi in split.h]
        if levels and max(abs(l) for l in levels) > 0:
            found = res.form6
            break
    assert found is not None
    with pytest.raises(WindowError):
        emit_system_7(found, window=0)


def test_emit_system_7_trivial_h(setup):
    # H trivial: no H relators at all
    fb = FreeGroup(("b",))
    fc = FreeGroup(("c",))
    G2 = FreeProductGroup((fb, fc))
    split2 = Split.of(G2, [], [0, 1])
    b2 = G2.embed(0, fb.gen("b"))
    c2 = G2.embed(1, fc.gen("c"))
    e = Equation(G2, ((b2, 1), (c2, 1), (b2, -1)))
    res = normal_form_6(e, split2)
    assert res.kind == "form6"
    p = emit_system_7(res.form6, window=4)
    # no H factors: only K-shift relators and the main relator
    assert len(p.relators) == 2 * res.form6.m + 1
    assert_round_trips(p)


S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 4, 1, 2, 0],
]


class _CountingTable(FiniteTableGroup):
    """A table group that counts how often its presentation is built."""

    builds = 0

    @cached_property
    def presentation(self):
        type(self).builds += 1
        return FiniteTableGroup.presentation.func(self)


def _system_7_over_s3(H):
    fb = FreeGroup(("b",))
    G = FreeProductGroup((H, fb))
    b = G.embed(1, fb.gen("b"))
    x = [G.embed(0, H.element(i)) for i in range(6)]
    # b x1 t b t x2 b x3 t^-1 = 1, the finite-table golden's equation
    e = Equation(G, ((b * x[1], 1), (b, 1), (x[2] * b * x[3], -1)))
    res = normal_form_6(e, Split.of(G, [0]))
    assert res.kind == "form6"
    return emit_system_7(res.form6)


def test_emit_system_7_builds_a_table_presentation_once():
    # every H copy name and every piece syllable reads the factor's
    # generators; the group keeps its presentation, so it is built once
    H = _CountingTable(S3_TABLE)
    p = _system_7_over_s3(H)
    assert H.builds == 1
    assert p == _system_7_over_s3(FiniteTableGroup(S3_TABLE))
    assert len(p.generators) == 1 + 5 * 17 + 1
    assert_round_trips(p)
