import copy
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupeq.backends import (
    DirectProductGroup,
    FiniteTableGroup,
    FoursGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    PermutationGroup,
    QuotientFreeAbelianGroup,
    cyclic_group,
    klein_four_group,
    table_from_group,
)
from groupeq.config import DEFAULT_CAPS
from groupeq.errors import CapExceededError, GroupMismatchError, UnsupportedBackendError

from conftest import assert_round_trips, fours_translation, random_element, random_free_word


ALL_BACKENDS = [
    cyclic_group(6),
    klein_four_group(),
    PermutationGroup(4),
    FreeGroup(("a", "b")),
    FreeAbelianGroup(3),
    FoursGroup(),
    FreeProductGroup((FreeGroup(("a",)), FreeAbelianGroup(1))),
]


@pytest.mark.parametrize("group", ALL_BACKENDS, ids=lambda g: g.describe())
def test_group_axioms_random(group):
    # associativity, identity, inverses on random triples (10^4 total checks)
    rng = random.Random(11)
    e = group.identity()
    for _ in range(1200):
        x = random_element(rng, group)
        y = random_element(rng, group)
        z = random_element(rng, group)
        assert (x * y) * z == x * (y * z)
        assert x * e == x and e * x == x
        assert x * ~x == e and ~x * x == e


def test_identity_examples(z2, free2, c3):
    assert z2.identity().payload == (0, 0)
    assert free2.identity().payload == ()
    assert c3.identity().payload == 0


def test_mul_examples(free2, z2, fours):
    a, b = free2.gens()
    assert a * ~a == free2.identity()
    assert (z2.vector((1, 0)) * z2.vector((0, 1))).payload == (1, 1)
    x, y = fours.generators()
    # the defining relation a^-1 b^2 a = b^-2, by direct affine multiplication
    assert (~x) * y ** 2 * x == y ** -2


def test_mul_group_mismatch(free2, z2):
    with pytest.raises(GroupMismatchError):
        free2.gens()[0] * z2.vector((1, 0))


def test_fours_torsion_free_on_ball_radius_six(fours):
    # the square of every element is a pure translation; a nonzero
    # translation has infinite order, so no ball element is torsion
    ball = fours.ball(6)
    for g in ball:
        sq = g * g
        v = fours_translation(sq)
        assert v is not None
        if not g.is_identity:
            assert sq != fours.identity()
            assert v != (0, 0, 0)


def test_fours_derived_translations_rank_three(fours):
    # translations in the radius-4 ball generate a rank-3 lattice and all of
    # them are integral
    vecs = []
    for g in fours.ball(4):
        v = fours_translation(g)
        if v is not None and not g.is_identity:
            vecs.append(v)
    assert vecs
    seen_axes = {tuple(1 if c else 0 for c in v) for v in vecs}
    assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= seen_axes


def test_fours_relations_verified_at_construction():
    g = FoursGroup()
    a, b = g.generators()
    assert (~a) * b ** 2 * a * b ** 2 == g.identity()
    assert (~b) * a ** 2 * b * a ** 2 == g.identity()


def test_permutation_generators_must_generate_the_symmetric_group():
    with pytest.raises(ValueError, match="^the generators reach 2 of the 6 elements of S_3$"):
        PermutationGroup(3, [(1, 0, 2)])
    with pytest.raises(ValueError, match="^the generators reach 12 of the 24 elements of S_4$"):
        PermutationGroup(4, [(1, 2, 0, 3), (0, 2, 3, 1)])  # A4
    s4 = PermutationGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert len(s4.ball(6)) == len(s4.elements()) == 24
    # the closure is held to perms_per_degree, as elements() is
    with pytest.raises(CapExceededError, match="^S_9 enumeration exceeds cap$"):
        PermutationGroup(9, [(1, 0, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5, 6, 7, 8, 0)])


# the doubled-translation parity of each point of the fours group
_FOURS_POINTS = {(1, 1, 1): (0, 0, 0), (1, -1, -1): (1, 1, 0), (-1, 1, -1): (0, 1, 1), (-1, -1, 1): (1, 0, 1)}


def _assert_fours_payload(payload):
    """A point of the fours point group and three integers of its parity."""
    signs, v = payload
    assert len(v) == 3 and all(isinstance(c, int) for c in v)
    assert tuple(c % 2 for c in v) == _FOURS_POINTS[signs]


# -- fours literals: each g^k is read in closed form off g's payload; the
# oracle multiplies k copies of g or of g^-1


def _fours_word_by_multiplication(group, word):
    gens = dict(zip("ab", group.generators()))
    cur = group.identity()
    for name, k in word:
        g = gens[name] if k >= 0 else ~gens[name]
        for _ in range(abs(k)):
            cur = cur * g
    return cur


_FOURS_EXPONENTS = [0, 1, -1, 2, -2, 3, -3, 12_345, -12_346, 10_000, -10_001]


@pytest.mark.parametrize("k", _FOURS_EXPONENTS)
def test_fours_literal_power_matches_repeated_multiplication(fours, k):
    for name in "ab":
        x = fours.parse_element(f"{name}^{k}")
        _assert_fours_payload(x.payload)
        assert x == _fours_word_by_multiplication(fours, [(name, k)])
    word = [("a", k), ("b", -k), ("a", 1), ("b", 0), ("b", k + 1), ("a", -1)]
    text = " ".join(f"{name}^{e}" for name, e in word)
    assert fours.parse_element(text) == _fours_word_by_multiplication(fours, word)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(min_value=-40, max_value=40)), max_size=6),
       st.booleans())
def test_fours_literal_words_match_repeated_multiplication(word, bare_ones):
    # a bare generator reads as exponent 1
    g = FoursGroup()
    text = " ".join(name if bare_ones and e == 1 else f"{name}^{e}" for name, e in word)
    assert g.parse_element(text) == _fours_word_by_multiplication(g, word)
    assert g.parse_element(g.format_element(g.parse_element(text))) == g.parse_element(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("c", "unknown generator 'c'"),
        ("a c^2", "unknown generator 'c'"),
        ("c^x", "unknown generator 'c'"),
        ("^2", "unknown generator ''"),
        ("1 a", "unknown generator '1'"),
        ("a^x", "invalid literal for int() with base 10: 'x'"),
        ("a b^", "invalid literal for int() with base 10: ''"),
        ("a^2^3", "invalid literal for int() with base 10: '2^3'"),
    ],
)
def test_fours_literal_errors(fours, text, message):
    # the generator is looked up before its exponent is read
    with pytest.raises(ValueError) as info:
        fours.parse_element(text)
    assert str(info.value) == message


def test_fours_literal_identity(fours):
    assert fours.parse_element(" 1 ") == fours.parse_element("a^0") == fours.parse_element("") == fours.identity()


# -- the fours kernel against 4x4 integer affine matrices, and its words
# against the generator arithmetic they replaced


def _affine(payload):
    """The 4x4 integer matrix of x |-> Dx + v, on doubled coordinates."""
    d, v = payload
    return [[d[i] if j == i else 0 for j in range(3)] + [v[i]] for i in range(3)] + [[0, 0, 0, 1]]


def _matmul(m, n):
    return [[sum(m[i][k] * n[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _matinv(m):
    """Gauss-Jordan inverse over the rationals."""
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(4)] for i, row in enumerate(m)]
    for c in range(4):
        p = next(r for r in range(c, 4) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(4):
            if r != c and a[r][c] != 0:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[4:] for row in a]


def test_fours_kernel_matches_affine_matrices_on_ball_three(fours):
    ball = sorted(fours.ball(3), key=fours.sort_key)
    for x in ball:
        assert _affine(fours._inv(x.payload)) == _matinv(_affine(x.payload))
        for y in ball:
            assert _affine(fours._mul(x.payload, y.payload)) == _matmul(_affine(x.payload), _affine(y.payload))


_fours_payloads = st.builds(
    lambda d, t: (d, tuple(2 * c + p for c, p in zip(t, _FOURS_POINTS[d]))),
    st.sampled_from(sorted(_FOURS_POINTS)),
    st.tuples(*[st.integers(-10**6, 10**6)] * 3),
)


@given(_fours_payloads, _fours_payloads)
def test_fours_kernel_matches_affine_matrices_on_random_payloads(x, y):
    g = FoursGroup()
    p = g._mul(x, y)
    _assert_fours_payload(p)
    assert _affine(p) == _matmul(_affine(x), _affine(y))
    assert _affine(g._inv(x)) == _matinv(_affine(x))


def _express_by_arithmetic(group, x):
    """A copy of the fours `express` that built the coset representative
    with generator arithmetic and read the translation off rep^-1 x."""
    coset = {
        (1, 1, 1): (),
        (1, -1, -1): (("a", 1),),
        (-1, 1, -1): (("b", 1),),
        (-1, -1, 1): (("a", 1), ("b", 1)),
    }[x.payload[0]]
    rep = group.identity()
    for nm, e in coset:
        rep = rep * (group.a() if nm == "a" else group.b()) ** e
    tx, ty, tz = fours_translation((~rep) * x)
    word = list(coset)
    if tx:
        word.append(("a", 2 * tx))
    if ty:
        word.append(("b", 2 * ty))
    for _ in range(abs(tz)):
        s = -1 if tz > 0 else 1
        word.extend([("a", s), ("b", s)] * 2 if s == 1 else [("b", -1), ("a", -1)] * 2)
    return tuple(word)


def _format_word(word):
    stack = []
    for nm, e in word:
        if stack and stack[-1][0] == nm:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([nm, e])
    return " ".join(nm if e == 1 else f"{nm}^{e}" for nm, e in stack) or "1"


def test_fours_words_match_generator_arithmetic_on_ball_four(fours):
    for x in fours.ball(4):
        word = _express_by_arithmetic(fours, x)
        assert fours.express(x) == word
        assert fours.format_element(x) == _format_word(word)
        assert fours.parse_element(fours.format_element(x)) == x


def test_ball_examples(z2, fours):
    z1 = FreeAbelianGroup(1)
    ball = z1.ball(2, [z1.vector([1])])
    assert {e.payload[0] for e in ball} == {-2, -1, 0, 1, 2}
    f1 = FreeGroup(("a",))
    assert len(f1.ball(1)) == 3


def test_ball_monotone_and_inverse_closed(fours):
    b2 = fours.ball(2)
    b3 = fours.ball(3)
    assert b2 <= b3
    assert all(~x in b3 for x in b3)


def test_ball_two_representation_agreement(fours):
    # independent re-enumeration with a different normal form: words over
    # the generators reduced via the expression machinery
    ball = fours.ball(2)
    a, b = fours.generators()
    letters = [a, ~a, b, ~b]
    seen = {fours.identity()}
    frontier = [fours.identity()]
    for _ in range(2):
        nxt = []
        for w in frontier:
            for l in letters:
                v = w * l
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    # re-normalize each element through its generator word and compare sets
    rebuilt = {fours.parse_element(fours.format_element(e)) for e in seen}
    assert rebuilt == ball


def test_ball_radius_cap():
    z1 = FreeAbelianGroup(1)
    with pytest.raises(CapExceededError):
        z1.ball(9)


def _element_ball(group, radius, gens=None, caps=DEFAULT_CAPS):
    """The BFS `Group.ball` ran before it moved to payloads: whole elements
    multiplied and hashed layer by layer, with the same caps."""
    base = tuple(gens) if gens is not None else group.generators()
    syms = []
    for g in base:
        for h in (g, ~g):
            if h not in syms:
                syms.append(h)
    seen = {group.identity()}
    layer = set(seen)
    for _ in range(radius):
        nxt = {x * s for x in layer for s in syms} - seen
        seen |= nxt
        layer = nxt
        if len(seen) > caps.ball_size:
            raise CapExceededError(f"ball size exceeds cap {caps.ball_size}")
        if not layer:
            break
    return frozenset(seen)


def _ball_cases():
    fours, free2 = FoursGroup(), FreeGroup(("a", "b"))
    c12, zn2 = cyclic_group(12), FreeAbelianGroup(2)
    product = FreeProductGroup((FreeGroup(("a",)), cyclic_group(3)))
    s3 = table_from_group(PermutationGroup(3))
    perm4 = PermutationGroup(4)
    return [
        ("fours", fours, 3, None),
        ("fours-gens", fours, 2, [fours.parse_element("a"), fours.parse_element("a b")]),
        # generators of an equal group object that is not the same object
        ("fours-other-gens", fours, 2, [FoursGroup().parse_element("b")]),
        ("fours-radius-0", fours, 0, None),
        ("free", free2, 3, None),
        ("free-gens", free2, 3, [free2.gen("a") * free2.gen("b")]),
        ("free-product", product, 3, None),
        ("perm4", perm4, 3, None),
        ("perm4-gens", perm4, 4, [perm4.from_cycles([(1, 2)]), perm4.from_cycles([(1, 2, 3, 4)])]),
        ("s3-table", s3, 2, None),
        ("zn2", zn2, 3, None),
        ("cyclic12", c12, 2, None),
        ("cyclic12-gens", c12, 3, [c12.element(4), c12.element(6)]),
    ]


@pytest.mark.parametrize("name, group, radius, gens", _ball_cases(), ids=[c[0] for c in _ball_cases()])
def test_ball_matches_the_element_bfs(name, group, radius, gens):
    # the payload BFS gives the same frozenset of elements, each of this group
    ball = group.ball(radius, gens)
    assert isinstance(ball, frozenset)
    assert ball == _element_ball(group, radius, gens)
    assert all(x.group is group for x in ball)


@pytest.mark.parametrize("name, group, radius, gens", _ball_cases(), ids=[c[0] for c in _ball_cases()])
def test_layers_are_the_spheres_of_the_element_bfs(name, group, radius, gens):
    # layer d is ball(d) less ball(d - 1), and the layers stop at the first
    # empty one
    layers = group.layers(radius, gens)
    shells = [_element_ball(group, d, gens) - _element_ball(group, d - 1, gens) if d else
              frozenset([group.identity()]) for d in range(radius + 1)]
    while not shells[-1]:
        shells.pop()
    assert list(layers) == shells
    assert all(isinstance(layer, frozenset) for layer in layers)


def test_ball_size_cap_fires_on_the_layer_that_passes_it():
    # |ball(4)| = 83 in the fours group, and both BFSs check the cap after
    # each layer with the same message
    fours = FoursGroup()
    at, below = (DEFAULT_CAPS.with_overrides(ball_size=s) for s in (83, 82))
    assert fours.ball(4, caps=at) == _element_ball(fours, 4, caps=at)
    assert len(fours.ball(4, caps=at)) == 83
    for bfs in (fours.ball, lambda r, caps: _element_ball(fours, r, caps=caps)):
        with pytest.raises(CapExceededError, match=r"^ball size exceeds cap 82$"):
            bfs(4, caps=below)


def test_finite_table_validation():
    with pytest.raises(ValueError):
        FiniteTableGroup([[0, 1], [1, 1]])  # not a group table
    with pytest.raises(ValueError):
        FiniteTableGroup([[1, 0], [0, 0]])  # no identity row/col pair consistent
    good = FiniteTableGroup([[0, 1], [1, 0]])
    assert good.size == 2


def test_permutation_backend():
    s4 = PermutationGroup(4)
    p = s4.from_cycles([(1, 2, 3)])
    q = s4.from_cycles([(3, 4)])
    assert s4.format_element(p) == "(1 2 3)"
    # express round trip through adjacent transpositions
    for r in [p, q, p * q, s4.identity()]:
        word = s4.express(r)
        acc = s4.identity()
        for nm, e in word:
            i = int(nm[1:])
            acc = acc * s4.from_cycles([(i, i + 1)]) ** e
        assert acc == r


def test_free_group_words(free2):
    a, b = free2.gens()
    w = free2.word([("a", 1), ("b", -2), ("a", 3)])
    assert w == a * b ** -2 * a ** 3
    assert free2.parse_element("a b^-2 a^3") == w
    assert free2.format_element(w) == "a b^-2 a^3"
    core, z = free2.cyclically_reduce(b * a * ~b)
    assert z * core * ~z == b * a * ~b
    assert core == a


def test_free_group_conjugacy(free2):
    a, b = free2.gens()
    assert free2.are_conjugate(a * b, b * a)
    assert not free2.are_conjugate(a, b)
    assert free2.are_conjugate(b * (a * b * a) * ~b, a * b * a)


def test_free_coset_decompose(free2):
    a, b = free2.gens()
    t = a * b
    for s in [free2.identity(), a, b * a, t ** 3, a * t ** -2]:
        c, k = free2.coset_decompose(s, t)
        assert c * t ** k == s
        # canonical: all coset members decompose to the same representative
        for j in (-2, 1, 3):
            c2, k2 = free2.coset_decompose(s * t ** j, t)
            assert c2 == c and k2 == k + j
    assert free2.coset_decompose(t ** 5, t) == (free2.identity(), 5)


def test_free_power_solve(free2):
    # s is a power of t exactly when its coset representative is 1, and then s = t^k
    a, b = free2.gens()
    t = a * ~b
    assert free2.coset_decompose(t ** 4, t) == (free2.identity(), 4)
    assert free2.coset_decompose(t ** -3, t) == (free2.identity(), -3)
    assert not free2.coset_decompose(a, t)[0].is_identity


def _reference_free_coset_decompose(group, s, t):
    """The free-group coset walk as first written: s * t^-k for k = 1, 2, ...
    then -1, -2, ..., each power built from scratch, a direction ending once
    t^k is longer than |s| + |best|."""
    best = (group.sort_key(s), s, 0)
    for sign in (1, -1):
        k = sign
        while True:
            cand = s * t ** (-k)
            key = group.sort_key(cand)
            if key < best[0]:
                best = (key, cand, k)
            if FreeGroup.length(t ** k) > FreeGroup.length(s) + best[0][0]:
                break
            k += sign
    return best[1], best[2]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_coset_decompose_matches_the_reference_walk(rank):
    group = FreeGroup(("a", "b", "c")[:rank])
    rng = random.Random(34 + rank)
    proper_powers = unreduced = 0
    for _ in range(300):
        root = random_free_word(rng, group, 4)
        if root.is_identity:
            continue
        # t a proper power of root, or a conjugate of it by a word z that the
        # free reduction may leave in place, so t need not be cyclically reduced
        n = rng.choice([1, 2, 3])
        t = root ** n
        if rng.random() < 0.5:
            z = random_free_word(rng, group, 3)
            t = ~z * t * z
        proper_powers += n > 1
        unreduced += group.cyclically_reduce(t)[0] != t
        s = random_free_word(rng, group, 6)
        if rng.random() < 0.3:
            s = s * t ** rng.randrange(-3, 4)
        assert group.coset_decompose(s, t) == _reference_free_coset_decompose(group, s, t)
    # every element of rank 1 is cyclically reduced
    assert proper_powers > 50 and (unreduced > 30 or rank == 1)


def test_abelian_coset_decompose(z2):
    v = z2.vector((2, 1))
    for s in [z2.vector((5, 5)), z2.vector((-3, 0)), z2.identity()]:
        c, k = z2.coset_decompose(s, v)
        assert c * v ** k == s
        c2, k2 = z2.coset_decompose(s * v ** 7, v)
        assert c2 == c
    assert z2.coset_decompose(z2.identity(), v) == (z2.identity(), 0)


def test_free_product_backend(fafb):
    fa, fb = fafb.factors
    a = fafb.embed(0, fa.gen("a"))
    b = fafb.embed(1, fb.gen("b"))
    assert (a * b * ~b * ~a).is_identity
    assert fafb.parse_element("a b^-1 a") == a * ~b * a


def test_free_product_rejects_bad_factor_index(fafb):
    fa, fb = fafb.factors
    b = fb.gen("b")
    for i in (-1, 2):
        with pytest.raises(ValueError):
            fafb.embed(i, b)
        with pytest.raises(ValueError):
            fafb.word([(i, b)])
    with pytest.raises(GroupMismatchError):
        fafb.embed(0, b)
    x = fafb.embed(1, b)
    assert x * ~x == fafb.identity()
    assert fafb.format_element(x) == "b"


def test_presentations_round_trip(c3, fours, z2):
    for group in (c3, fours, z2, FreeGroup(("a", "b"))):
        pres = group.presentation
        assert pres.generators
        # every relator mentions only declared generators (validated on build)
        for rel in pres.relators:
            assert set(s for s, _ in rel.group.express(rel)) <= set(pres.generators)
        assert_round_trips(pres)


def test_presentation_is_built_once_per_group(c3, fours, z2):
    fa = FreeGroup(("a",))
    groups = (c3, fours, z2, fa, PermutationGroup(4), FreeProductGroup((fa, fa, c3)))
    for group in groups:
        assert group.presentation is group.presentation
    # equal groups built apart present the same way
    assert FreeProductGroup((fa, fa)).presentation == FreeProductGroup((FreeGroup(("a",)), fa)).presentation
    assert FreeProductGroup((fa, fa)).presentation.generators == ("a.0", "a.1")
    with pytest.raises(UnsupportedBackendError):
        DirectProductGroup((fa, c3)).presentation


def test_express_evaluates_back(rng, c3, fours, z2):
    # express() must be a genuine word for the element
    for group in (c3, z2, fours):
        gens = {nm: g for nm, g in zip(group.presentation.generators, group.generators())}
        if isinstance(group, FoursGroup):
            gens = {"a": group.a(), "b": group.b()}
        for _ in range(80):
            x = random_element(rng, group)
            acc = group.identity()
            for nm, e in group.express(x):
                acc = acc * gens[nm] ** e
            assert acc == x


@given(
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-2, -1, 1, 2])), max_size=8),
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-2, -1, 1, 2])), max_size=8),
)
def test_free_group_inverse_law(xs, ys):
    F = FreeGroup(("a", "b"))
    u = F.word([(F.names[i], e) for i, e in xs])
    v = F.word([(F.names[i], e) for i, e in ys])
    assert ~(u * v) == ~v * ~u


def test_quotient_backend(z2):
    from groupeq.backends import QuotientFreeAbelianGroup

    q = QuotientFreeAbelianGroup(z2, (2, 0))
    assert q.content == 2
    x = q.project(z2.vector((1, 0)))
    assert not x.is_identity and (x * x).is_identity
    y = q.project(z2.vector((0, 1)))
    assert not any((y ** k).is_identity for k in range(1, 13))
    qp = QuotientFreeAbelianGroup(z2, (1, 1))
    assert qp.content == 1
    assert qp.orderable_certificate() is not None


# ---------------------------------------------------------------------------
# the element core: equal groups, cached hashes, immutability, mismatch checks

# each builder makes a new group object on every call
BUILDERS = {
    "finite(6)": lambda: cyclic_group(6),
    "klein": klein_four_group,
    "perm(4)": lambda: PermutationGroup(4),
    "free(a, b)": lambda: FreeGroup(("a", "b")),
    "zn(3)": lambda: FreeAbelianGroup(3),
    "fours": FoursGroup,
    "free(a) * zn(1)": lambda: FreeProductGroup((FreeGroup(("a",)), FreeAbelianGroup(1))),
    "finite(3) x zn(1)": lambda: DirectProductGroup((cyclic_group(3), FreeAbelianGroup(1))),
    "zn(2)/<(2, 4)>": lambda: QuotientFreeAbelianGroup(FreeAbelianGroup(2), (2, 4)),
}

# a word in the generators: (generator index, inverted) letters
WORDS = st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=6)


def _evaluate(group, word):
    gens = group.generators()
    x = group.identity()
    for i, inverted in word:
        g = gens[i % len(gens)]
        x = x * (~g if inverted else g)
    return x


@pytest.mark.parametrize("name", BUILDERS)
@settings(max_examples=40, deadline=None)
@given(word=WORDS, other=WORDS)
def test_equal_group_objects_give_equal_elements(name, word, other):
    g1, g2 = BUILDERS[name](), BUILDERS[name]()
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    x1, x2 = _evaluate(g1, word), _evaluate(g2, word)
    assert x1.group is g1 and x2.group is g2
    assert x1 == x2 and hash(x1) == hash(x2)
    assert len({x1, x2}) == 1
    # products and inverses across the two objects are products in either
    y2 = _evaluate(g2, other)
    assert x1 * y2 == _evaluate(g1, word + other) == x2 * y2
    assert g1.mul(x2, y2) == x2 * y2 and ~x1 == ~x2
    assert g1.ball(1, [x2]) == g2.ball(1, [x2])


@pytest.mark.parametrize("name", BUILDERS)
@settings(max_examples=40, deadline=None)
@given(word=WORDS)
def test_element_hash_is_group_payload_hash(name, word):
    group = BUILDERS[name]()
    x = _evaluate(group, word)
    assert hash(group) == hash((group.kind, group._key()))
    assert hash(x) == hash((x.group, x.payload))
    assert hash(x) == hash(x)  # the cached value
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    assert hash(copy.deepcopy(x)) == hash(x)


@pytest.mark.parametrize("name", BUILDERS)
@settings(max_examples=20, deadline=None)
@given(word=WORDS)
def test_elements_are_immutable(name, word):
    x = _evaluate(BUILDERS[name](), word)
    group, payload = x.group, x.payload
    hash(x)
    for attr, value in (("group", None), ("payload", ()), ("_hash", 0), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, attr, value)
    for attr in ("group", "payload", "_hash"):
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert x.group is group and x.payload is payload
    assert hash(x) == hash((group, payload))


@pytest.mark.parametrize("name", BUILDERS)
@settings(max_examples=40, deadline=None)
@given(word=WORDS)
def test_is_identity_agrees_with_equality(name, word):
    group = BUILDERS[name]()
    x = _evaluate(group, word)
    assert x.is_identity == (x == x.group.identity())
    assert (x * ~x).is_identity
    assert group.identity().is_identity


@pytest.mark.parametrize("name", BUILDERS)
def test_mismatched_groups_raise(name):
    group = BUILDERS[name]()
    x = group.generators()[0]
    for other_name, build in BUILDERS.items():
        if other_name == name:
            continue
        other = build()
        y = other.generators()[0]
        with pytest.raises(GroupMismatchError):
            x * y
        with pytest.raises(GroupMismatchError):
            y * x
        with pytest.raises(GroupMismatchError):
            group.mul(x, y)
        with pytest.raises(GroupMismatchError):
            group.mul(y, x)
        for radius in (0, 1):
            with pytest.raises(GroupMismatchError):
                group.ball(radius, [x, y])
        assert x != y


def test_embed_rejects_elements_of_other_groups():
    fa, z1 = FreeGroup(("a",)), FreeAbelianGroup(1)
    products = (FreeProductGroup((fa, z1)), DirectProductGroup((fa, z1)))
    for product in products:
        # an equal but distinct factor object is accepted
        assert product.embed(0, FreeGroup(("a",)).gen("a")) == product.embed(0, fa.gen("a"))
        with pytest.raises(GroupMismatchError):
            product.embed(0, z1.vector([1]))
        with pytest.raises(GroupMismatchError):
            product.embed(1, fa.gen("a"))
        with pytest.raises(GroupMismatchError):
            product.embed(0, FreeGroup(("b",)).gen("b"))


def test_permutation_hashes_reproduce_across_processes():
    # with a fixed PYTHONHASHSEED, group and element hashes, and so the
    # iteration order of a ball, must not depend on object addresses
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "from groupeq.backends import PermutationGroup\n"
        "g = PermutationGroup(4)\n"
        "x = g.from_cycles([(1, 2, 3)])\n"
        "print(hash(g), hash(x), [e.payload for e in g.ball(2)])\n"
    )
    outs = [
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1] and outs[0].strip()
