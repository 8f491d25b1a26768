import random

import pytest

from groupeq.backends import FiniteTableGroup, FreeAbelianGroup, FreeGroup, cyclic_group
from groupeq.equations import classify
from groupeq.errors import EquationError, NormalityError, UnsupportedBackendError, WindowError
from groupeq.generalized import (
    Condition,
    GeneralizedEquation,
    conjugate_family,
    coset_rewrite,
    cyclic_subgroup_normal,
    emit_ky,
    emit_solution_group,
    induced_ordinary,
    reduce_to_ordinary,
    _label,
    total_product,
    unimodular_verdict,
)
from groupeq.words import copy_name, in_subfreeproduct

from conftest import assert_round_trips, random_element, random_free_word, random_vector


@pytest.fixture(scope="module")
def gz2():
    G = FreeGroup(("g", "h"))
    T = FreeAbelianGroup(2)
    return G, T


def make_geq(G, T, pairs):
    return GeneralizedEquation(G, T, tuple(pairs))


def is_power(T, s, t):
    """Whether s = t^k for some k, t != 1, by walking the powers of t out to
    the size of s: in a free or free abelian group no k past it can do."""
    size = FreeGroup.length(s) if isinstance(T, FreeGroup) else sum(map(abs, s.payload))
    return any(t ** k == s for k in range(-size, size + 1))


def test_total_product_examples(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0))), (h, T.vector((0, 1)))])
    assert total_product(ge).payload == (1, 1)
    Tf = FreeGroup(("x", "y"))
    x, y = Tf.gens()
    ge2 = make_geq(G, Tf, [(g, x), (h, ~x * y)])
    assert total_product(ge2) == y
    ge3 = make_geq(G, T, [(g, T.identity())])
    assert total_product(ge3).is_identity


def test_verdict_abelian_unimodular(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0))), (h, T.vector((0, 1)))])
    v = unimodular_verdict(ge)
    assert v.overall == "unimodular"
    assert v.order_infinite.holds and v.subgroup_normal.holds and v.quotient_strong_up.holds
    assert v.weak_overall == "unimodular"


def test_verdict_free_not_normal(gz2):
    G, _ = gz2
    g, _ = G.gens()
    Tf = FreeGroup(("x", "y"))
    ge = make_geq(G, Tf, [(g, Tf.gen("y"))])
    v = unimodular_verdict(ge)
    assert v.overall == "not-unimodular"
    assert v.subgroup_normal.status == "no"
    s, conj = v.subgroup_normal.witness
    assert not is_power(Tf, conj, Tf.gen("y"))


def test_cyclic_subgroup_normal_trivial_t_over_free():
    # <1> is normal, though 1 has no <t>-coset decomposition
    Tf = FreeGroup(("x", "y"))
    c = cyclic_subgroup_normal(Tf, Tf.identity())
    assert (c.status, c.detail, c.witness) == ("yes", "all generator conjugates stay in <t>", None)


def walk_cyclic_subgroup_normal(T, t):
    """The reference normality check over a free T: each generator and its
    inverse, with t^z in <t> read off the coset walk of t^z (c = 1)."""
    for s in T.generators():
        for z in (s, ~s):
            tz = t.conj(z)
            if tz != t and not T.coset_decompose(tz, t)[0].is_identity:
                return Condition("no", "witness generator conjugates t outside <t>", witness=(z, tz))
    return Condition("yes", "all generator conjugates stay in <t>")


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cyclic_subgroup_normal_matches_the_coset_walk(rank):
    # t = 1, proper powers and conjugated t, against the walk kept above
    T = FreeGroup(("x", "y", "z")[:rank])
    rng = random.Random(3500 + rank)
    ts = [T.identity()]
    for _ in range(399):
        t = random_free_word(rng, T, 4)
        shape = rng.randrange(3)
        if shape == 1:
            t = t ** rng.choice((2, 3, -2))
        elif shape == 2:
            t = t.conj(random_free_word(rng, T, 3))
        ts.append(t)
    for t in ts:
        assert cyclic_subgroup_normal(T, t) == walk_cyclic_subgroup_normal(T, t)


def test_cyclic_subgroup_normal_needs_a_coset_backend(fours):
    # (a^2)^b = a^-2 lies in <a^2>, so the free-group commutation rule
    # would answer wrongly here
    a, b = fours.generators()
    assert (a * a).conj(b) == ~(a * a)
    with pytest.raises(UnsupportedBackendError):
        cyclic_subgroup_normal(fours, a * a)


def test_verdict_torsion_quotient(gz2):
    G, _ = gz2
    g, _ = G.gens()
    Z = FreeAbelianGroup(1)
    ge = make_geq(G, Z, [(g, Z.vector([2]))])
    v = unimodular_verdict(ge)
    assert v.overall == "not-unimodular"
    assert v.quotient_strong_up.status == "no"
    X, Y = v.quotient_strong_up.witness
    assert len(X) == 2  # the cyclic torsion subgroup of order 2
    assert v.quotient_torsion_free.status == "no"
    assert v.weak_overall == "not-unimodular"


def test_verdict_imprimitive_vector(gz2):
    G, T = gz2
    g, _ = G.gens()
    ge = make_geq(G, T, [(g, T.vector((2, 4)))])
    v = unimodular_verdict(ge)
    assert v.overall == "not-unimodular"
    assert v.quotient_strong_up.status == "no"  # content 2 torsion in the quotient
    ge2 = make_geq(G, T, [(g, T.vector((2, 3)))])
    assert unimodular_verdict(ge2).overall == "unimodular"


def test_verdict_degenerate_identity(gz2):
    G, T = gz2
    g, _ = G.gens()
    ge = make_geq(G, T, [(g, T.identity())])
    v = unimodular_verdict(ge)
    assert v.order_infinite.status == "no"
    assert v.overall == "not-unimodular"


@pytest.mark.parametrize("T", [FreeGroup(("x",)), FreeGroup(("x", "y")), FreeAbelianGroup(1),
                               FreeAbelianGroup(2), FreeAbelianGroup(3)], ids=lambda T: T.describe())
def test_condition_one_reads_infinite_order_exactly_when_no_power_is_trivial(gz2, T):
    # condition 1 asks for t of infinite order; on every T the verdict
    # accepts, a power t^k with 1 <= k <= 12 is trivial exactly when t is
    G, _ = gz2
    rng = random.Random(29)
    seen = set()
    for _ in range(150):
        pairs = [(random_free_word(rng, G, 2), random_element(rng, T, 2)) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            # close the product: the last entry cancels the ones before it
            pairs.append((random_free_word(rng, G, 2), ~total_product(make_geq(G, T, pairs))))
        ge = make_geq(G, T, pairs)
        t = total_product(ge)
        c = unimodular_verdict(ge).order_infinite
        if any((t ** k).is_identity for k in range(1, 13)):
            assert (c.status, c.detail, c.witness) == ("no", "total product has order 1", (1,))
        else:
            assert (c.status, c.detail, c.witness) == ("yes", "total product has infinite order", None)
        seen.add(c.status)
    assert seen == {"yes", "no"}


def test_verdict_cyclic_t_matches_ordinary_sigma(gz2):
    G, _ = gz2
    T1 = FreeGroup(("t",))
    t = T1.gen("t")
    rng = random.Random(7)
    for _ in range(100):
        pairs, sigma = [], 0
        for _ in range(rng.randrange(1, 5)):
            coef = random_free_word(rng, G, 2)
            k = rng.randrange(-3, 4)
            pairs.append((coef, t ** k))
            sigma += k
        ge = make_geq(G, T1, pairs)
        v = unimodular_verdict(ge)
        expected = "unimodular" if abs(sigma) == 1 else "not-unimodular"
        assert v.overall == expected
        if abs(sigma) == 1:
            assert abs(induced_ordinary(ge).exponent_sum()) == 1


def test_coset_rewrite_single_pair(gz2):
    G, _ = gz2
    g, _ = G.gens()
    T1 = FreeGroup(("t",))
    t = T1.gen("t")
    ge = make_geq(G, T1, [(g, t)])
    re = coset_rewrite(ge)
    assert re.terms == ((g, T1.identity(), 1),)
    assert re.expansion() == ge.word()


def test_coset_rewrite_needs_nontrivial_product(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0))), (h, T.vector((-1, 0)))])
    with pytest.raises(EquationError):
        coset_rewrite(ge)


def test_coset_rewrite_merges_trivial_entries(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.identity()), (h, T.vector((1, 1)))])
    re = coset_rewrite(ge)
    assert len(re.terms) == 1
    assert re.terms[0][0] == g * h
    assert re.expansion() == ge.word()


def test_coset_rewrite_unsupported_backend(gz2):
    G, _ = gz2
    g, _ = G.gens()
    C = cyclic_group(4)
    ge = make_geq(G, C, [(g, C.element(1))])
    with pytest.raises(UnsupportedBackendError):
        coset_rewrite(ge)


def test_coset_rewrite_expansion_randomized(gz2):
    G, T = gz2
    rng = random.Random(31)
    Tf = FreeGroup(("x", "y"))
    Z3 = FreeAbelianGroup(3)
    for vg, sampler in ((T, random_vector), (Tf, random_free_word), (Z3, random_vector)):
        done = 0
        while done < 350:
            pairs = []
            for _ in range(rng.randrange(1, 7)):
                pairs.append((random_free_word(rng, G, 3), sampler(rng, vg, 2)))
            ge = make_geq(G, vg, pairs)
            if total_product(ge).is_identity:
                continue
            re = coset_rewrite(ge)
            assert re.expansion() == ge.word()
            # representatives lie in pairwise distinct cosets
            reps = re.coset_reps()
            for i, c in enumerate(reps):
                for d in reps[i + 1 :]:
                    assert not is_power(vg, ~c * d, re.t)
            done += 1


def test_conjugate_family_identity_label(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0))), (h, T.vector((0, 1)))])
    re = coset_rewrite(ge)
    (member,) = conjugate_family(re, [T.identity()])
    assert member == re


@pytest.mark.parametrize(
    "T", [FreeAbelianGroup(1), FreeAbelianGroup(2), FreeGroup(("x",))], ids=["zn(1)", "zn(2)", "free(x)"]
)
def test_conjugate_family_consistency(gz2, T):
    # free(x) is the one free-group backend in which a nontrivial <t> is normal
    G, _ = gz2
    rand_t = random_free_word if isinstance(T, FreeGroup) else random_vector
    rng = random.Random(13)
    for _ in range(60):
        pairs = []
        for _ in range(rng.randrange(1, 5)):
            pairs.append((random_free_word(rng, G, 2), rand_t(rng, T, 2)))
        ge = make_geq(G, T, pairs)
        if total_product(ge).is_identity:
            continue
        re = coset_rewrite(ge)
        G1 = re.word_group()
        for _ in range(10):
            x = rand_t(rng, T, 3)
            (wx,) = conjugate_family(re, [x])
            c_x, _ = T.coset_decompose(x, re.t)
            cw = G1.embed(1, c_x)
            assert wx.expansion() == (~cw) * re.expansion() * cw


def test_conjugate_family_requires_normality(gz2):
    G, _ = gz2
    g, h = G.gens()
    Tf = FreeGroup(("x", "y"))
    ge = make_geq(G, Tf, [(g, Tf.gen("y")), (h, Tf.gen("x"))])
    re = coset_rewrite(ge)
    with pytest.raises(NormalityError):
        conjugate_family(re, [Tf.gen("x")])


def test_emit_solution_group_requires_normality(gz2):
    # t = y x in free(x, y): conjugating by a generator of T moves t
    G, _ = gz2
    g, h = G.gens()
    Tf = FreeGroup(("x", "y"))
    x, y = Tf.gens()
    re = coset_rewrite(make_geq(G, Tf, [(g, y), (h, x)]))
    with pytest.raises(NormalityError):
        emit_solution_group(re, [Tf.identity()])
    # t = x^2 is fixed by x, whose action also moves copy 1 outside the
    # window; normality is checked first
    re = coset_rewrite(make_geq(G, Tf, [(g, x * x)]))
    with pytest.raises(NormalityError, match="needs <t> normal"):
        emit_solution_group(re, [Tf.identity()], window=1)


def test_emit_ky_y_identity(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0))), (h, T.vector((0, 1)))])
    re = coset_rewrite(ge)
    pres = emit_ky(re, [T.identity()])
    # one copy per X_1 label plus the extra letter
    assert len(re.coset_reps()) * 2 + 1 == len(pres.generators)
    assert len(pres.relators) == 1
    # the y = 1 relator is the rewritten form of the original equation
    rel = pres.relators[0]
    expected_sources = {f"{nm}@{lbl}" for nm in ("g", "h") for lbl in ("(0,0)", "(0,1)")}
    assert {s for s, _ in rel.group.express(rel)} <= expected_sources | {"t~"}
    assert_round_trips(pres)


def test_emit_ky_counts(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0))), (h, T.vector((0, 1)))])
    re = coset_rewrite(ge)
    Y = [T.identity(), T.vector((0, 1))]
    pres = emit_ky(re, Y)
    x1 = re.coset_reps()
    labels = set()
    for y in Y:
        cy, _ = T.coset_decompose(y, re.t)
        for c in x1:
            cf, _ = T.coset_decompose(c * cy, re.t)
            labels.add(cf)
    assert len(pres.generators) == 2 * len(labels) + 1
    assert len(pres.relators) == 2
    assert_round_trips(pres)


def walk_ky_copies(re, Y):
    """The reference copies of K_Y: the coset representatives of c c_y over
    every X_1 label c and every y in Y, sorted."""
    T = re.vargroup
    copies = []
    for y in Y:
        c_y, _ = T.coset_decompose(y, re.t)
        for c in re.coset_reps():
            cf, _ = T.coset_decompose(c * c_y, re.t)
            if cf not in copies:
                copies.append(cf)
    return sorted(copies, key=T.sort_key)


@pytest.mark.parametrize(
    "T", [FreeGroup(("x",)), FreeAbelianGroup(1), FreeAbelianGroup(2), FreeAbelianGroup(3)],
    ids=["free(x)", "zn(1)", "zn(2)", "zn(3)"],
)
def test_emit_ky_copies_match_the_coset_walk(gz2, T):
    G, _ = gz2
    rand_t = random_free_word if isinstance(T, FreeGroup) else random_vector
    rng = random.Random(3600 + T.rank)
    checked = 0
    for _ in range(40):
        pairs = [(random_free_word(rng, G, 2), rand_t(rng, T, 2)) for _ in range(rng.randrange(1, 5))]
        ge = make_geq(G, T, pairs)
        if total_product(ge).is_identity:
            continue
        re = coset_rewrite(ge)
        for _ in range(4):
            Y = [rand_t(rng, T, 3) for _ in range(rng.randrange(1, 4))]
            # two elements of one coset of <t>
            Y.append(rng.choice(Y) * re.t ** rng.choice((-2, -1, 1, 2)))
            rng.shuffle(Y)
            names = tuple(copy_name(nm, _label(T, c)) for c in walk_ky_copies(re, Y) for nm in ("g", "h"))
            assert emit_ky(re, Y).generators == names + ("t~",)
            checked += 1
    assert checked >= 100


def test_emit_solution_group(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0))), (h, T.vector((0, 1)))])
    re = coset_rewrite(ge)
    p0 = emit_solution_group(re, [T.identity()], window=0)
    # T relators (1 commutator) + K_Y relators (1) + t~ t^-1
    assert len(p0.relators) == 3
    assert_round_trips(p0)


def test_emit_solution_group_action_relator_count(gz2):
    # with an infinite-cyclic variable group the coset space is a point, so
    # the generator action closes and the count formula is exact
    G, _ = gz2
    g, h = G.gens()
    T1 = FreeAbelianGroup(1)
    ge = make_geq(G, T1, [(g, T1.vector([1])), (h, T1.vector([0]))])
    re = coset_rewrite(ge)
    p1 = emit_solution_group(re, [T1.identity()], window=1)
    copies = {nm.rsplit("@", 1)[1] for nm in p1.generators if "@" in nm}
    # per T-generator: one t~ twist relator plus one relator per copy generator
    expected_action = len(T1.generators()) * (len(copies) * len(G.generators()) + 1)
    # T has no relators of its own here; K_Y contributes 1, t~ t^-1 is 1
    assert len(p1.relators) == 2 + expected_action
    # substituting t~ = t in the y = 1 relator recovers the rewritten form:
    # the relator mentions only the identity-coset copy and t~
    ky_rel = [r for r in p1.relators if any("@" in s for s, _ in r.group.express(r))][0]
    assert {s for s, _ in ky_rel.group.express(ky_rel) if "@" in s} <= {"g@0", "h@0"}
    assert_round_trips(p1)


def test_emitted_names_round_trip_over_free_variable_group():
    # copy names over T = free(s) once spelled a@s^-3, which the text format
    # (and the free group on the names) cannot read back
    G, S = FreeGroup(("a",)), FreeGroup(("s",))
    a, s = G.gen("a"), S.gen("s")
    re = coset_rewrite(make_geq(G, S, [(a, s ** -3)] * 3))
    for pres in (emit_ky(re, [S.identity()]), emit_solution_group(re, [S.identity()], window=0)):
        assert not any("^" in nm or " " in nm for nm in pres.generators)
        assert_round_trips(pres)
    assert "a@s(-3)" in emit_ky(re, [S.identity()]).generators


def test_coset_labels_are_distinct(z2):
    F = FreeGroup(("x", "y", "xy"))
    ball = F.ball(3)
    labels = {_label(F, c) for c in ball}
    assert len(labels) == len(ball)
    assert not any("^" in lbl or " " in lbl for lbl in labels)
    assert _label(F, F.word([("x", 1), ("y", -3)])) == "x.y(-3)"
    assert _label(F, F.identity()) == "1"
    assert _label(z2, z2.vector((1, -2))) == "(1,-2)"


def test_emit_solution_group_window_insufficient(gz2):
    G, T = gz2
    g, _ = G.gens()
    # X_1 = {1} but the generator action moves the copy off the window
    ge = make_geq(G, T, [(g, T.vector((1, 1)))])
    re = coset_rewrite(ge)
    with pytest.raises(WindowError):
        emit_solution_group(re, [T.identity()], window=1)


def test_emit_solution_group_without_coefficient_generators(gz2):
    # a trivial G has no generators, so K_Y has no copies and the action
    # that leaves the window in the test above has nothing to move
    _, T = gz2
    G = FiniteTableGroup([[0]])
    re = coset_rewrite(make_geq(G, T, [(G.identity(), T.vector((1, 1)))]))
    p = emit_solution_group(re, [T.identity()], window=1)
    assert p.generators == ("e1", "e2", "t~")
    # T's commutator, the K_Y relator t~, one twist per T-generator, t~ t^-1
    assert len(p.relators) == 5
    assert_round_trips(p)


def test_reduce_to_ordinary(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0)))])
    eq = reduce_to_ordinary(ge)
    assert len(eq.terms) == 2
    assert classify(eq).exponent_sum == 0
    # substitution form: g t^-1 t_1 t, over the factors G, T_1 and <t>
    assert [i for i, _ in eq.refined_word().payload] == [0, 2, 1, 2]
    assert not classify(eq).trivial

    eq2 = reduce_to_ordinary(ge, "direct-product")
    assert classify(eq2).trivial == classify(eq).trivial == False  # noqa: E712


def test_reduce_preserves_nontriviality_randomized(gz2):
    # nontriviality survives the reduction unless the word was already
    # conjugate to a constant of G_1 = G x T, i.e. to a pure T-constant
    G, T = gz2
    rng = random.Random(214)
    checked = 0
    for _ in range(1000):
        pairs = []
        for _ in range(rng.randrange(1, 4)):
            pairs.append((random_free_word(rng, G, 2), random_vector(rng, T, 2)))
        ge = make_geq(G, T, pairs)
        w = ge.word()
        core = w.group.cyclically_reduce(w)[0]
        nontrivial = not in_subfreeproduct(core, {0})
        t_constant = in_subfreeproduct(core, {1})
        eq = reduce_to_ordinary(ge)
        reduced_nontrivial = not classify(eq).trivial
        if nontrivial and not t_constant:
            assert reduced_nontrivial
            checked += 1
        if t_constant:
            assert not reduced_nontrivial
    assert checked > 400


def test_reduce_all_trivial_entries_flagged(gz2):
    G, T = gz2
    g, h = G.gens()
    ge = make_geq(G, T, [(g, T.identity()), (~g, T.identity())])
    eq = reduce_to_ordinary(ge)
    assert classify(eq).trivial


def test_induced_ordinary_reads_free_and_zn_rank_one_alike(gz2):
    G, _ = gz2
    Tf, Tz = FreeGroup(("x",)), FreeAbelianGroup(1)
    rng = random.Random(19)
    for _ in range(100):
        coefs = [random_free_word(rng, G, 2) for _ in range(rng.randrange(1, 5))]
        ks = [rng.randrange(-3, 4) for _ in coefs]
        if not any(ks):
            continue
        over_free = induced_ordinary(make_geq(G, Tf, [(g, Tf.gen("x") ** k) for g, k in zip(coefs, ks)]))
        over_zn = induced_ordinary(make_geq(G, Tz, [(g, Tz.vector((k,))) for g, k in zip(coefs, ks)]))
        assert over_free == over_zn
        assert [e for _, e in over_free.terms] == [k for k in ks if k]


def test_induced_ordinary_needs_cyclic(gz2):
    G, T = gz2
    g, _ = G.gens()
    ge = make_geq(G, T, [(g, T.vector((1, 0)))])
    with pytest.raises(UnsupportedBackendError):
        induced_ordinary(ge)
