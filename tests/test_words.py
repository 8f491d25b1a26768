import random

import pytest
from hypothesis import given, settings, strategies as st

from groupeq import words
from groupeq.backends import (
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    GroupElement,
    Presentation,
    cyclic_group,
)
from groupeq.errors import CapExceededError, GroupEqError, GroupMismatchError
from groupeq.words import in_subfreeproduct, relation_falsifier

from conftest import assert_round_trips, random_element

T = FreeGroup(("t",))


@pytest.fixture(scope="module")
def amb():
    """F(g, h) * <t>."""
    return FreeProductGroup((FreeGroup(("g", "h")), T))


def G(amb):
    return amb.factors[0]


def syl(amb, text):
    return amb.embed(0, G(amb).parse_element(text))


def t(amb, k=1):
    return amb.embed(1, T.gen("t") ** k)


def random_word(rng, amb, size=6):
    items = []
    for _ in range(rng.randrange(size + 1)):
        if rng.random() < 0.5:
            items.append((0, random_element(rng, G(amb), 2)))
        else:
            items.append((1, T.gen("t") ** rng.choice([-2, -1, 1, 2])))
    return amb.word(items)


def test_mul_examples(amb):
    g = syl(amb, "g")
    assert (g * t(amb)) * (t(amb, -1) * ~g) == amb.identity()
    assert t(amb, 2) * t(amb, 3) == t(amb, 5)
    # (a t b)(b^-1 t) reduces to a t^2 after the middle cancellation
    a, b = syl(amb, "g"), syl(amb, "h")
    left = a * t(amb) * b
    right = ~b * t(amb)
    assert left * right == a * t(amb, 2)


def test_mul_ambient_mismatch(amb):
    other = FreeProductGroup((FreeGroup(("g", "h")), FreeGroup(("s",))))
    with pytest.raises(GroupMismatchError):
        syl(amb, "g") * other.embed(1, FreeGroup(("s",)).gen("s"))


def test_mul_associativity_bulk(rng, amb):
    for _ in range(3500):
        u, v, w = (random_word(rng, amb, 4) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * amb.identity() == u


def test_mul_against_letterwise_oracle(rng, amb):
    # naive oracle: push single letters one at a time
    def naive_mul(u, v):
        out = u
        for src, val in v.payload:
            for g, s in FreeGroup.letters(val):
                out = out * amb.embed(src, GroupElement(val.group, ((g, s),)))
        return out

    for _ in range(500):
        u, v = random_word(rng, amb), random_word(rng, amb)
        assert u * v == naive_mul(u, v)


def test_length_subadditive(rng, amb):
    for _ in range(500):
        u, v = random_word(rng, amb), random_word(rng, amb)
        assert len((u * v).payload) <= len(u.payload) + len(v.payload)


def test_cyclic_reduce_examples(amb):
    g = syl(amb, "g")
    w = t(amb, -1) * g * t(amb)
    core, z = amb.cyclically_reduce(w)
    assert core == g and z == t(amb, -1)
    w2 = g * t(amb)
    core2, z2 = amb.cyclically_reduce(w2)
    assert core2 == w2 and z2.is_identity


def test_cyclic_reduce_reconstruction_and_minimality(rng, amb):
    for _ in range(400):
        w = random_word(rng, amb, 5)
        core, z = amb.cyclically_reduce(w)
        assert z * core * ~z == w
        # core is cyclically reduced
        s = core.payload
        if len(s) >= 2:
            assert s[0][0] != s[-1][0]
        # minimal among rotations of itself after full reduction
        for r in range(max(1, len(s))):
            rot = amb.word(s[r:] + s[:r])
            assert len(amb.cyclically_reduce(rot)[0].payload) >= len(s)


def test_in_subfreeproduct(amb):
    g = syl(amb, "g")
    assert in_subfreeproduct(amb.identity(), set())
    assert in_subfreeproduct(g, {0})
    assert not in_subfreeproduct(g * t(amb), {0})
    # always true on the full source set; monotone in the allowed set
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, amb)
        assert in_subfreeproduct(w, {0, 1})
        if in_subfreeproduct(w, {0}):
            assert in_subfreeproduct(w, {0, 1})


def test_free_product_conjugacy(amb):
    g, h = syl(amb, "g"), syl(amb, "h")
    w = g * t(amb) * h
    z = h * t(amb, 2)
    assert amb.are_conjugate(w, (~z) * w * z)
    assert not amb.are_conjugate(g, h)
    assert amb.are_conjugate(g, (~z) * g * z)
    # one-syllable cores are compared by the factor's own conjugacy test
    assert amb.are_conjugate(t(amb, 2), (~z) * t(amb, 2) * z)
    assert not amb.are_conjugate(t(amb, 2), t(amb, -2))
    other = FreeProductGroup((G(amb), FreeGroup(("s",))))
    with pytest.raises(GroupMismatchError):
        amb.are_conjugate(g, other.embed(0, G(amb).gen("g")))


def test_falsifier_free_basis():
    F = FreeGroup(("a", "b"))
    a, b = F.gens()
    res = relation_falsifier([a], b, F.identity(), max_len=8)
    assert res.status == "no-relation-up-to"
    assert res.witness is None


def test_falsifier_powers_collide():
    F = FreeGroup(("a",))
    a = F.gen("a")
    res = relation_falsifier([a ** 2], a ** 3, F.identity(), max_len=8)
    assert res.falsified
    # the witness evaluates to the identity and alternates properly
    value = F.identity()
    last = None
    for kind, data in res.witness:
        assert kind != last
        last = kind
        if kind == "b":
            value = value * (a ** 3) ** data
        else:
            for i, s in data:
                value = value * (a ** 2) ** s
    assert value.is_identity


def test_falsifier_abelian_collision():
    Z = FreeAbelianGroup(1)
    one = Z.vector([1])
    res = relation_falsifier([one], one, Z.identity(), max_len=4)
    assert res.falsified


def test_falsifier_trivial_a_checks_powers_of_b():
    # with no A-generators only powers of b are checked: torsion is found,
    # infinite order is not refuted
    C = cyclic_group(3)
    res = relation_falsifier([], C.element(1), C.identity(), max_len=4)
    assert res.falsified
    assert res.witness == (("b", 3),)
    F = FreeGroup(("a",))
    res2 = relation_falsifier([], F.gen("a"), F.identity(), max_len=6)
    assert res2.status == "no-relation-up-to"


def test_falsifier_never_false_positive_on_free_config(rng):
    F = FreeGroup(("a", "b", "c"))
    a, b, c = F.gens()
    for agens in ([a], [a, b]):
        res = relation_falsifier(agens, c, F.identity(), max_len=5)
        assert res.status == "no-relation-up-to"


def test_falsifier_cap():
    F = FreeGroup(("a",))
    with pytest.raises(CapExceededError):
        relation_falsifier([F.gen("a")], F.gen("a"), F.identity(), max_len=99)


def test_falsifier_pool_node_cap(monkeypatch):
    # a, b and their inverses give 4 pool words of weight 1 and 12 of
    # weight 2, past a cap of 10
    F = FreeGroup(("a", "b"))
    monkeypatch.setattr(words, "FALSIFIER_NODES", 10)
    with pytest.raises(CapExceededError, match="falsifier pool cap exceeded"):
        relation_falsifier(list(F.gens()), F.gen("a"), F.identity(), max_len=4)


def test_falsifier_enumeration_node_cap(monkeypatch):
    # the pool of a^+-1..a^+-4 holds 8 words, within the cap; the search
    # over words in <a> * <b> of weight up to 4 visits more than 30 nodes
    F = FreeGroup(("a", "b"))
    a, b = F.gens()
    monkeypatch.setattr(words, "FALSIFIER_NODES", 30)
    with pytest.raises(CapExceededError, match="falsifier enumeration cap exceeded"):
        relation_falsifier([a], b, F.identity(), max_len=4)


def test_presentation_text_round_trip():
    F = Presentation.free_group(("a", "b"))
    pres = Presentation(("a", "b"), (F.word([("a", 1), ("b", -2)]),))
    text = pres.to_text()
    assert text == "gens: a, b\nrel: a b^-2\n"
    back = Presentation.from_text(text)
    assert back.generators == pres.generators
    assert back.relators == pres.relators
    data = pres.to_struct()
    assert data == {"generators": ["a", "b"], "relators": [[["a", 1], ["b", -2]]]}
    again = Presentation.from_struct(data)
    assert again == pres
    assert_round_trips(pres)


def test_presentation_without_generators():
    # the trivial group: relators live in the free group of rank 0
    for pres in (FiniteTableGroup([[0]]).presentation, Presentation.from_text("gens:\n")):
        assert pres.generators == () and pres.relators == ()
        assert pres.to_text() == "gens: \n"
        assert_round_trips(pres)
    empty_rel = Presentation.from_text("gens:\nrel:\n")
    assert empty_rel.relators == (Presentation.free_group(empty_rel.generators).identity(),)
    assert_round_trips(empty_rel)


def test_presentation_validates_relators():
    F = Presentation.free_group(("a",))
    with pytest.raises(ValueError):
        F.word([("zz", 1)])
    with pytest.raises(GroupEqError):
        Presentation(("a",), (FreeGroup(("zz",)).gen("zz"),))


@settings(max_examples=60)
@given(st.data())
def test_word_pow_matches_repeated_mul(data):
    F = FreeGroup(("g",))
    amb = FreeProductGroup((F, T))
    items = data.draw(
        st.lists(
            st.tuples(st.sampled_from([0, 1]), st.sampled_from([1, -1])).map(
                lambda p: (p[0], amb.factors[p[0]].gens()[0] ** p[1])
            ),
            max_size=4,
        )
    )
    w = amb.word(items)
    n = data.draw(st.integers(-4, 4))
    acc = amb.identity()
    step = w if n >= 0 else ~w
    for _ in range(abs(n)):
        acc = acc * step
    assert w ** n == acc
