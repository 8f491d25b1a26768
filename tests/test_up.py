import functools
import itertools
import os
import random
import subprocess
import sys
import types

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groupeq import up
from groupeq.backends import (
    DirectProductGroup,
    FoursGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    Group,
    GroupElement,
    PermutationGroup,
    QuotientFreeAbelianGroup,
    cyclic_group,
    klein_four_group,
    table_from_group,
)
from groupeq.config import DEFAULT_CAPS
from groupeq.errors import CapExceededError
from groupeq.up import (
    ProductCensus,
    WitnessSearchResult,
    anneal_nonup_witness,
    naive_no_unique_product,
    search_nonup_witness,
    strojnowski_check,
    strong_up_check,
    up4_check,
    up_check,
    verify_up4_implies_strong,
)

from conftest import random_vector


@pytest.fixture(scope="module")
def z1():
    return FreeAbelianGroup(1)


def vecs(group, coords):
    return [group.vector([c] if group.rank == 1 else c) for c in coords]


def test_up_check_example(z1):
    X = vecs(z1, [0, 1])
    rep = up_check(X, X)
    assert [v.payload[0] for v in rep.unique_elements] == [0, 2]
    assert rep.total_factorizations == 4
    assert rep.distinct_y_count() == 2


def test_up_check_klein_full(klein):
    full = list(klein.elements())
    rep = up_check(full, full)
    assert rep.unique_count == 0
    assert rep.total_factorizations == 16
    assert all(len(pairs) == 4 for _, pairs in rep.products)


def test_up_check_singleton(z1, rng):
    for _ in range(50):
        X = [random_vector(rng, z1, 5)]
        Y = list({random_vector(rng, z1, 5) for _ in range(4)})
        rep = up_check(X, Y)
        assert rep.unique_count == len(rep.y)


def test_up_check_rejects_empty(z1):
    with pytest.raises(ValueError):
        up_check([], vecs(z1, [0]))
    with pytest.raises(ValueError):
        up_check(vecs(z1, [0]), [])


def test_census_conservation_and_duality(rng, z2):
    for _ in range(300):
        X = list({random_vector(rng, z2, 3) for _ in range(rng.randrange(1, 6))})
        Y = list({random_vector(rng, z2, 3) for _ in range(rng.randrange(1, 6))})
        rep = up_check(X, Y)
        assert rep.total_factorizations == len(rep.x) * len(rep.y)
        # inversion duality: unique elements of (Y^-1, X^-1) are the inverses
        dual = up_check([~y for y in Y], [~x for x in X])
        assert {~v for v in dual.unique_elements} == set(rep.unique_elements)


def test_translation_invariance(rng, z2):
    for _ in range(200):
        X = list({random_vector(rng, z2, 3) for _ in range(rng.randrange(1, 5))})
        Y = list({random_vector(rng, z2, 3) for _ in range(rng.randrange(1, 5))})
        g, h = random_vector(rng, z2, 4), random_vector(rng, z2, 4)
        rep = up_check(X, Y)
        shifted = up_check([g * x for x in X], [y * h for y in Y])
        assert shifted.unique_count == rep.unique_count


def test_orderable_max_element_is_unique(rng, z2):
    # the lexicographic maximum of X + Y always has a unique factorization
    for _ in range(200):
        X = list({random_vector(rng, z2, 3) for _ in range(rng.randrange(1, 6))})
        Y = list({random_vector(rng, z2, 3) for _ in range(rng.randrange(1, 6))})
        rep = up_check(X, Y)
        assert rep.unique_count >= 1
        top = max((v.payload for v, _ in rep.products))
        assert any(v.payload == top for v in rep.unique_elements)


def test_strong_up_example(z1):
    X = vecs(z1, [0, 1])
    res = strong_up_check(X, X)
    assert res.holds
    (x1, y1), (x2, y2) = res.witness
    assert y1 != y2


def test_strong_up_requires_y2(z1):
    with pytest.raises(ValueError):
        strong_up_check(vecs(z1, [0, 1]), vecs(z1, [0]))


def test_strong_up_fails_on_torsion(klein):
    full = list(klein.elements())
    res = strong_up_check(full, full)
    assert not res.holds


def test_up4_examples(z1, klein):
    S = vecs(z1, [0, 1])
    res = up4_check(S, S, S, S)
    assert res.holds
    assert res.witness[0].payload[0] in (0, 4)
    full = list(klein.elements())
    res2 = up4_check(full, full, full, full)
    assert not res2.holds
    assert res2.total_quadruples == 256
    singles = ([klein.element(1)],) * 4
    assert up4_check(*singles).holds


def _up4_by_quadruples(A, B, C, D):
    """The quadruple census up4_check replaced: every abcd, four loops deep."""
    group = A[0].group
    a4, b4, c4, d4 = (sorted(set(s), key=group.sort_key) for s in (A, B, C, D))
    census = {}
    for a, b, c, d in itertools.product(a4, b4, c4, d4):
        census.setdefault(a * b * c * d, []).append((a, b, c, d))
    total = len(a4) * len(b4) * len(c4) * len(d4)
    for v in sorted(census, key=group.sort_key):
        if len(census[v]) == 1:
            return up.UP4Result(True, (v, census[v][0]), total)
    return up.UP4Result(False, None, total)


@functools.lru_cache(maxsize=None)
def _up4_pool(name):
    if name == "fours":
        group = FoursGroup()
        return tuple(sorted(group.ball(2), key=group.sort_key))
    if name == "s3":
        return tuple(PermutationGroup(3).elements())
    if name == "z1":
        return tuple(FreeAbelianGroup(1).vector([c]) for c in range(-3, 4))
    return tuple(klein_four_group().elements())


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["fours", "s3", "z1", "klein"]),
    picks=st.lists(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=5),
                   min_size=4, max_size=4),
)
def test_up4_matches_quadruple_census(name, picks):
    # the A*B by C*D count gives the verdict, witness and total of the full census
    pool = _up4_pool(name)
    sets = [[pool[i % len(pool)] for i in idx] for idx in picks]
    assert up4_check(*sets) == _up4_by_quadruples(*sets)


# the census engine, which multiplies payloads, against element arithmetic:
# each group is built twice, so a set can mix elements of two equal group
# objects that are not the same object
_CENSUS_GROUPS = {
    "fours": FoursGroup,
    "free": lambda: FreeGroup(("a", "b")),
    "free-product": lambda: FreeProductGroup((FreeGroup(("a",)), cyclic_group(3))),
    "klein": klein_four_group,
    "zn2": lambda: FreeAbelianGroup(2),
    "zn2/<(2,-1)>": lambda: QuotientFreeAbelianGroup(FreeAbelianGroup(2), (2, -1)),
}


@functools.lru_cache(maxsize=None)
def _census_pool(name, copy):
    group = _CENSUS_GROUPS[name]()
    return tuple(sorted(group.ball(2), key=group.sort_key))


def _census_by_elements(X, Y):
    """The sorted sets and the census of X*Y, one element product at a time."""
    group = X[0].group
    xs, ys = (tuple(sorted(set(s), key=group.sort_key)) for s in (X, Y))
    census = {}
    for x in xs:
        for y in ys:
            census.setdefault(x * y, []).append((x, y))
    return xs, ys, tuple((v, tuple(census[v])) for v in sorted(census, key=group.sort_key))


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(_CENSUS_GROUPS)),
    picks=st.lists(
        st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6), st.booleans()), min_size=1, max_size=5),
        min_size=4, max_size=4,
    ),
)
def test_census_matches_element_brute_force(name, picks):
    sets = []
    for idx in picks:
        sets.append([_census_pool(name, copy)[i % len(_census_pool(name, copy))] for i, copy in idx])
    X, Y = sets[0], sets[1]
    group = X[0].group
    xs, ys, products = _census_by_elements(X, Y)
    unique = [(v, pairs[0]) for v, pairs in products if len(pairs) == 1]

    rep = up_check(X, Y)
    assert (rep.x, rep.y) == (xs, ys)
    # products in sort-key order, each with its factor pairs in X-then-Y order
    assert rep.products == products
    assert all(v.group == group for v, _ in rep.products)
    assert rep.unique_elements == tuple(v for v, _ in unique)
    assert rep.distinct_y_count() == len({y for _, (_, y) in unique})
    assert rep.total_factorizations == len(xs) * len(ys)

    if len(ys) < 2:
        with pytest.raises(ValueError):
            strong_up_check(X, Y)
    else:
        # the first unique product, and the first after it with another Y-factor
        first = unique[0][1] if unique else None
        second = next((p for _, p in unique if p[1] != first[1]), None) if unique else None
        res = strong_up_check(X, Y)
        assert res.report == rep
        if second is None:
            assert (res.holds, res.witness) == (False, None)
        else:
            assert res.holds
            assert res.witness == tuple(sorted((first, second), key=lambda p: group.sort_key(p[1])))

    assert up4_check(*sets) == _up4_by_quadruples(*sets)


def test_up4_implies_strong(z1, klein):
    X = vecs(z1, [0, 1])
    rep = verify_up4_implies_strong(X, X)
    assert not rep.applicable
    full = list(klein.elements())
    rep2 = verify_up4_implies_strong(full, full)
    assert rep2.applicable
    assert rep2.consistent
    assert not rep2.up4.holds


def test_strojnowski_examples(z1, z2, rng):
    X = vecs(z1, [0, 1])
    res = strojnowski_check(X, X)
    assert res.certified and res.unique_count == 2

    for _ in range(300):
        X2 = list({random_vector(rng, z2, 4) for _ in range(3)})
        Y2 = list({random_vector(rng, z2, 4) for _ in range(3)})
        if len(X2) < 2 or len(Y2) < 2:
            continue
        res2 = strojnowski_check(X2, Y2)
        assert res2.certified and res2.bound_met


def test_strojnowski_collision_patterns(z1):
    # |X| = |Y| = 2 in Z: exhaustive enumeration of the collision patterns;
    # by translation invariance the sets reduce to {0, x} and {0, y}, whose
    # four products collide only via y = x or y = -x, each collision removing
    # two unique elements at once, so the count is 2 or 4 and never below 2
    seen = set()
    for x1 in range(-3, 4):
        for y1 in range(-3, 4):
            if x1 == 0 or y1 == 0:
                continue
            res = strojnowski_check(vecs(z1, [0, x1]), vecs(z1, [0, y1]))
            assert res.unique_count >= 2
            seen.add(res.unique_count)
    assert seen == {2, 4}


def test_strojnowski_skipped_on_uncertified(klein):
    full = list(klein.elements())
    res = strojnowski_check(full, full)
    assert not res.certified
    assert res.unique_count is None


def test_search_on_orderable_group_finds_nothing(z1):
    res = search_nonup_witness(z1, radius=2, maxsize=4)
    assert not res.found
    assert set(res.sizes_exhausted) == {2, 3, 4}


def test_search_on_klein_finds_witness(klein):
    res = search_nonup_witness(klein, radius=1, maxsize=4)
    assert res.found
    assert res.verified
    S = res.witness
    assert naive_no_unique_product(S)
    # symmetric set
    assert {~x for x in S} == set(S)


def test_search_witness_reverifies_independently(klein):
    res = search_nonup_witness(klein, radius=1, maxsize=4)
    rep = up_check(res.witness, res.witness)
    assert rep.unique_count == 0


_COUNTING_GROUPS = {
    # name: (group, radius, whether ball(radius) holds an involution)
    "klein": (klein_four_group, 1, True),
    "cyclic6": (lambda: cyclic_group(6), 2, True),
    "perm3": (lambda: PermutationGroup(3), 2, True),
    "s3-table": (lambda: table_from_group(PermutationGroup(3)), 2, True),
    "perm4": (lambda: PermutationGroup(4), 2, True),
    "c7": (lambda: cyclic_group(7), 3, False),
    "zn2": (lambda: FreeAbelianGroup(2), 2, False),
    "fours": (FoursGroup, 2, False),
}


@functools.lru_cache(maxsize=None)
def _census(name, symmetric):
    make, radius, _ = _COUNTING_GROUPS[name]
    return ProductCensus(make(), radius, symmetric=symmetric)


def _pool(census):
    """The atoms S is toggled by: a symmetric census's atoms and the
    identity, or an asymmetric census's single elements."""
    return census.atoms + [(census.identity,)] if census.symmetric else census.atoms


def test_census_atoms_keep_involutions_single(klein):
    census = ProductCensus(klein, 1)
    assert len(census.ball) == 4
    assert census.atoms == [(i,) for i in range(4) if i != census.identity]
    assert ProductCensus(klein, 1, symmetric=False).atoms == [(i,) for i in range(4)]
    fours = _census("fours", True)
    assert all(len(a) == 2 for a in fours.atoms)
    assert 2 * len(fours.atoms) + 1 == len(fours.ball)


# perm(3) and the S3 table at radius 2: atoms (1,), (2,) and (5,) are the
# transpositions, (3, 4) the 3-cycles, and the identity is pool entry 4;
# cyclic(6): atoms a^+-1, a^+-2 and the involution a^3, the identity entry 3
@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["klein", "fours", "perm3", "cyclic6", "s3-table"]),
    symmetric=st.booleans(),
    picks=st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=40),
)
@example(name="perm3", symmetric=True, picks=[0])  # a lone involution
@example(name="perm3", symmetric=True, picks=[4, 2, 4, 0, 1, 2, 0])  # the identity, alone and beside others
@example(name="s3-table", symmetric=True, picks=[0, 2, 0, 2, 0, 2, 1, 5])
@example(name="cyclic6", symmetric=True, picks=[2, 0, 2, 3, 1, 0])
@example(name="cyclic6", symmetric=False, picks=[3])
def test_census_matches_up_check_under_add_remove(name, symmetric, picks):
    # toggling atoms in and out in any order keeps the counts exact
    census = _census(name, symmetric)
    census.clear()
    pool = _pool(census)
    present = []
    for p in picks:
        atom = pool[p % len(pool)]
        if atom in present:
            present.remove(atom)
            census.remove(atom)
        else:
            present.append(atom)
            census.add(atom)
        S = [census.ball[i] for a in present for i in a]
        assert sorted(census.members) == sorted(i for a in present for i in a)
        if S:
            assert census.unique_count() == up_check(S, S).unique_count
        else:
            assert census.unique_count() == 0
        assert (census.unique_count() == 0) == naive_no_unique_product(S)


@st.composite
def _moves(draw):
    name = draw(st.sampled_from(["fours", "klein", "c7", "perm3", "cyclic6", "s3-table"]))
    slots = range(len(_census(name, False).atoms))
    loaded = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=len(slots) - 1, unique=True))
    out = draw(st.sampled_from(loaded))
    into = draw(st.sampled_from([j for j in slots if j not in loaded]))
    return name, loaded, out, into


# perm(3) at radius 2, in sort-key order: (), (2 3), (1 2), (1 2 3), (1 3 2), (1 3)
@settings(max_examples=150, deadline=None)
@given(_moves())
@example(("perm3", [2], 2, 0))  # a lone involution for the identity
@example(("perm3", [0], 0, 3))  # the identity for a 3-cycle
@example(("perm3", [0, 3, 4], 3, 1))  # out of the subgroup {1, (1 2 3), (1 3 2)}
def test_move_is_remove_then_add(move):
    # one swap leaves the counts and members of remove + add, and returns
    # the change in the unique count
    name, loaded, out, into = move
    census = _census(name, False)
    atoms = census.atoms

    def load():
        census.clear()
        for j in loaded:
            census.add(atoms[j])

    load()
    before = census.unique_count()
    delta = census.move(atoms[out], atoms[into])
    moved = (list(census.counts), list(census.members))
    load()
    census.remove(atoms[out])
    census.add(atoms[into])
    assert moved == (census.counts, census.members)
    assert delta == census.unique_count() - before


def test_move_needs_an_asymmetric_census():
    # only the anneal moves, over arbitrary subsets; a symmetric census
    # refuses before it touches S
    census = ProductCensus(PermutationGroup(3), 1)
    census.add(census.atoms[0])
    counts, members = list(census.counts), list(census.members)
    with pytest.raises(ValueError, match="^move needs an asymmetric census$"):
        census.move(census.atoms[0], census.atoms[1])
    assert (census.counts, census.members) == (counts, members)


def test_anneal_on_klein_finds_verified_witness(klein):
    caps = DEFAULT_CAPS.with_overrides(budget_ms=30_000)
    res = anneal_nonup_witness(klein, 1, 2, seed=3, caps=caps)
    assert res.witness is not None and res.verified
    assert len(res.witness) == 2
    assert naive_no_unique_product(res.witness)
    assert res.restarts == 1 and res.best_unique_count == 0
    assert res.ball_size == 4


@pytest.mark.parametrize("name, size, best", [("klein", 4, 0), ("fours", 5, 12)])
def test_anneal_with_every_atom_takes_one_census(monkeypatch, name, size, best):
    # the set is the whole ball, so no step can move it: its one census
    # decides, with no random draw, where the clock would allow three restarts
    group = klein_four_group() if name == "klein" else FoursGroup()
    monkeypatch.setattr(up, "time", _StepClock(jump=5))
    monkeypatch.setattr(up, "random", types.SimpleNamespace(Random=_RecordingRandom))
    res = anneal_nonup_witness(group, 1, size, seed=3)
    assert res.restarts == 1 and res.best_unique_count == best
    assert _RecordingRandom.last.random() == random.Random(3).random()
    if best:
        assert (res.witness, res.verified) == (None, False)
    else:
        assert res.verified and naive_no_unique_product(res.witness)
        assert set(res.witness) == group.ball(1)


def test_witness_script_anneal_with_every_atom_stops_after_one_restart():
    # ball(1) of the fours group has 5 elements, and size 5 takes them all
    proc = _run_witness_script("--strategy", "anneal", "--no-symmetric", "--radius", "1", "--max-size", "5")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[0] == "ball(1): 5 elements, 5 atoms, asymmetric mode"
    assert lines[1].startswith("1 restarts in ") and lines[1].endswith("; best unique-count 12")
    assert lines[2:] == ["no witness found within the caps (honest exhaustion or budget)"]


def _run_witness_script(*args):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "search_fours_witness.py"), *args],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (("--radius", "-1"), "radius must be nonnegative"),
        (("--strategy", "anneal", "--no-symmetric", "--radius", "1", "--max-size", "20"),
         "anneal size 20 must be 1 to 5: ball(1) has 5 elements"),
        (("--strategy", "anneal", "--no-symmetric", "--radius", "1", "--max-size", "0"),
         "anneal size 0 must be 1 to 5: ball(1) has 5 elements"),
        (("--budget-ms", "-1"), "budget_ms must be nonnegative"),
        (("--strategy", "anneal", "--no-symmetric", "--budget-ms", "-1"), "budget_ms must be nonnegative"),
        (("--strategy", "exhaustive", "--radius", "2", "--no-symmetric"),
         "the exhaustive search covers symmetric sets only; --no-symmetric needs --strategy anneal"),
        (("--strategy", "anneal", "--max-size", "13"),
         "the anneal covers arbitrary subsets only; --strategy anneal needs --no-symmetric"),
        (("--radius", "2", "--max-size", "-3"), "maxsize must be nonnegative"),
    ],
    ids=["negative-radius", "anneal-size-past-the-ball", "anneal-size-zero", "negative-budget",
         "anneal-negative-budget", "exhaustive-no-symmetric", "symmetric-anneal", "negative-max-size"],
)
def test_witness_script_reports_bad_input_with_exit_2(args, message):
    # exit 1 is the "no witness" outcome; bad input is a usage error, with
    # the library's message and no traceback
    proc = _run_witness_script(*args)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == f"search_fours_witness.py: error: {message}"
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("size", [0, 5])
def test_anneal_rejects_a_size_the_ball_cannot_fill(monkeypatch, size):
    # Klein ball(1) has 4 elements; the check comes before any random draw
    monkeypatch.setattr(up, "random", types.SimpleNamespace(Random=_RecordingRandom))
    with pytest.raises(ValueError) as info:
        anneal_nonup_witness(klein_four_group(), 1, size, seed=3)
    assert str(info.value) == f"anneal size {size} must be 1 to 4: ball(1) has 4 elements"
    assert _RecordingRandom.last.random() == random.Random(3).random()


# ---------------------------------------------------------------------------
# the pruned exhaustive search against an unpruned reference


def _sorted_atoms(group, radius, gens=None):
    """The ball sorted by the group's sort key, the index of its identity
    and its atoms in that order (the inverse pairs without the identity, an
    involution alone), built apart from the census, so the reference walks
    keep the answer's order whatever order the census visits."""
    ball = sorted(group.ball(radius, gens), key=group.sort_key)
    position = {x: i for i, x in enumerate(ball)}
    identity = next(i for i, x in enumerate(ball) if x.is_identity)
    flip = [position[~x] for x in ball]
    atoms = [(i,) if i == j else (i, j) for i, j in enumerate(flip) if i <= j and i != identity]
    return ball, identity, atoms


def _reference_search(group, radius, maxsize, gens=None):
    """Every symmetric subset, size by size, identity-free subsets first,
    atom subsets in lexicographic order, each checked by the naive census;
    no size past the ball's."""
    ball, identity, atoms = _sorted_atoms(group, radius, gens)
    tested, exhausted = 0, []
    for size in range(2, min(maxsize, len(ball)) + 1):
        for head in ((), (ball[identity],)):
            target = size - len(head)
            picks = sorted(
                c
                for r in range(target + 1)
                for c in itertools.combinations(range(len(atoms)), r)
                if sum(len(atoms[i]) for i in c) == target
            )
            for c in picks:
                tested += 1
                S = head + tuple(ball[x] for i in c for x in atoms[i])
                if naive_no_unique_product(S):
                    return WitnessSearchResult(S, True, tuple(exhausted), (), tested)
        exhausted.append(size)
    return WitnessSearchResult(None, False, tuple(exhausted), (), tested)


@functools.lru_cache(maxsize=None)
def _search_group(name, n=0):
    return {
        "cyclic": lambda: cyclic_group(n),
        "klein": klein_four_group,
        "perm3": lambda: PermutationGroup(3),
        "s3-table": lambda: table_from_group(PermutationGroup(3)),
        "zn2": lambda: FreeAbelianGroup(2),
        "fours": FoursGroup,
        "free": lambda: FreeGroup(("a", "b")),
    }[name]()


@functools.lru_cache(maxsize=None)
def _gen_pool(name, n=0):
    group = _search_group(name, n)
    if name == "cyclic":
        return tuple(group.elements())
    return tuple(sorted(group.ball(1 if name == "zn2" else 2), key=group.sort_key))


@st.composite
def _search_inputs(draw):
    name = draw(st.sampled_from(["cyclic", "klein", "perm3", "zn2", "fours", "free"]))
    n = draw(st.integers(min_value=2, max_value=25)) if name == "cyclic" else 0
    group = _search_group(name, n)
    gens = None
    if name in ("cyclic", "fours", "zn2") and draw(st.booleans()):
        pool = _gen_pool(name, n)
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3, unique=True))
        gens = [pool[i] for i in picks]
    low, high = {"fours": (2, 2), "free": (1, 2)}.get(name, (0, 3))
    radius = draw(st.integers(min_value=low, max_value=high))
    maxsize = draw(st.integers(min_value=0, max_value=6 if name == "fours" else 8))
    return group, radius, maxsize, gens


@settings(max_examples=150, deadline=None)
@given(_search_inputs())
def test_search_matches_unpruned_reference(inputs):
    # the cut and the subtree count leave the witness, the exhausted sizes
    # and subsets_tested exactly as a visit of every subset in order gives
    group, radius, maxsize, gens = inputs
    res = search_nonup_witness(group, radius, maxsize, gens)
    assert res == _reference_search(group, radius, maxsize, gens)


@pytest.mark.parametrize(
    "n, radius, gens, tested",
    [(13, 2, (12, 6), 24), (21, 2, (2, 10), 91), (23, 2, (21, 12), 91), (23, 2, (14, 12), 84)],
)
def test_search_finds_the_first_witness_past_cuts(n, radius, gens, tested):
    # cyclic balls where subtrees are cut before the first witness turns up
    group = cyclic_group(n)
    g = [group.element(k) for k in gens]
    res = search_nonup_witness(group, radius, 8, g)
    assert res.found and res.verified and res.subsets_tested == tested
    assert res == _reference_search(group, radius, 8, g)


@st.composite
def _finite_search_inputs(draw):
    name = draw(st.sampled_from(["cyclic", "klein", "perm3", "s3-table"]))
    n = draw(st.integers(min_value=2, max_value=25)) if name == "cyclic" else 0
    group = _search_group(name, n)
    gens = None
    if draw(st.booleans()):
        pool = sorted(group.elements(), key=group.sort_key)
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3, unique=True))
        gens = [pool[i] for i in picks]
    return group, draw(st.integers(1, 3)), draw(st.integers(2, 8)), gens


@settings(max_examples=100, deadline=None)
@given(_finite_search_inputs())
def test_search_with_a_witness_matches_unpruned_reference(inputs):
    # the second pass, which only a witness starts, answers in sort-key
    # order whatever order the first pass met its witnesses in
    group, radius, maxsize, gens = inputs
    reference = _reference_search(group, radius, maxsize, gens)
    assume(reference.found)
    assert search_nonup_witness(group, radius, maxsize, gens) == reference


_C13_WITNESS = ("a^2", "a^11", "a^5", "a^8", "a^6", "a^7")


@pytest.mark.parametrize(
    "n, gens, answer, first_pass",
    # (witness, subsets_tested): `first_pass` is the answer when the second
    # pass walks the atoms in the far-first order the first pass once used,
    # outermost BFS layer first; cyclic(13) meets the same set there at
    # another rank, cyclic(10) another set
    [
        (13, (12, 6), (_C13_WITNESS, 24), (_C13_WITNESS, 22)),
        (10, (1, 3), (("a", "a^9", "a^3", "a^7"), 10), (("a^2", "a^8", "a^4", "a^6"), 9)),
    ],
)
def test_second_pass_replaces_the_first_pass_witness(monkeypatch, n, gens, answer, first_pass):
    # a census whose own atoms are sorted outermost layer first makes the
    # second pass walk them in that order, and the search then answers
    # otherwise: the second pass, in sort-key order, gives the answer
    group = cyclic_group(n)
    g = [group.element(k) for k in gens]
    res = search_nonup_witness(group, 2, 8, g)
    assert (tuple(map(str, res.witness)), res.subsets_tested) == answer
    assert res == _reference_search(group, 2, 8, g)
    build = ProductCensus.__init__

    def outer_first(self, *a, **k):
        build(self, *a, **k)
        self.atoms.sort(key=lambda atom: -self.depth[atom[0]])

    monkeypatch.setattr(ProductCensus, "__init__", outer_first)
    far = search_nonup_witness(group, 2, 8, g)
    assert (tuple(map(str, far.witness)), far.subsets_tested) == first_pass and far.verified


def _far_first(census):
    """The first pass's order before the fail-first key: outermost BFS layer
    first, sort key within a layer."""
    return sorted(census.atoms, key=lambda atom: -census.depth[atom[0]])


@st.composite
def _order_inputs(draw):
    name = draw(st.sampled_from(["fours", "cyclic", "perm3", "free"]))
    if name == "fours":
        pool = [e for e in _gen_pool("fours") if not e.is_identity]
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=3, unique=True))
        return _search_group("fours"), 2, draw(st.integers(2, 10)), [pool[i] for i in picks]
    n = draw(st.integers(min_value=2, max_value=25)) if name == "cyclic" else 0
    group = _search_group(name, n)
    gens = None
    if name == "cyclic":
        picks = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3, unique=True))
        gens = [group.element(k) for k in picks]
    radius = draw(st.integers(1, 2 if name == "free" else 3))
    return group, radius, draw(st.integers(2, 8)), gens


@settings(max_examples=100, deadline=None)
@given(_order_inputs())
@example((_search_group("cyclic", 13), 2, 8, [_search_group("cyclic", 13).element(k) for k in (12, 6)]))
@example((_search_group("cyclic", 6), 2, 8, [_search_group("cyclic", 6).element(k) for k in (1, 5)]))
def test_first_pass_order_leaves_the_result_unchanged(inputs):
    # the first pass decides only the least witness size and its family,
    # which no visit order changes, so the far-first order, which the
    # fail-first key refines, returns the same result; the examples meet
    # their witnesses out of answer order, and in the identity family
    group, radius, maxsize, gens = inputs
    res = search_nonup_witness(group, radius, maxsize, gens)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(up, "_first_pass_order", _far_first)
        assert search_nonup_witness(group, radius, maxsize, gens) == res


@pytest.mark.parametrize(
    "group, radius, maxsize, gens, caps",
    [
        (cyclic_group(6), 2, 8, (1, 5), DEFAULT_CAPS),  # a witness, so both passes run
        (FoursGroup(), 3, 14, None, DEFAULT_CAPS.with_overrides(radius=6)),  # no witness
    ],
    ids=["cyclic6-witness", "fours-r3-exhaustion"],
)
def test_search_builds_one_census_from_one_bfs(monkeypatch, group, radius, maxsize, gens, caps):
    # both passes walk one census, each in its own atom order
    gens = None if gens is None else [group.element(k) for k in gens]
    built, bfs = [], []
    build, layers = ProductCensus.__init__, Group.layers
    monkeypatch.setattr(ProductCensus, "__init__", lambda self, *a, **k: built.append(a) or build(self, *a, **k))
    monkeypatch.setattr(Group, "layers", lambda self, *a, **k: bfs.append(a) or layers(self, *a, **k))
    res = search_nonup_witness(group, radius, maxsize, gens, caps=caps)
    assert res.found == (gens is not None)
    assert len(built) == len(bfs) == 1


def _product_settled(census, atoms):
    """Settled lists of product numbers for symmetric atoms: each product
    under the last atom that forms it as x*y or y*x with y in the ball, read
    off an asymmetric census's product table, as the search's cut was
    before it counted pair classes."""
    cols = [list(col) for col in zip(*census.rows)]
    last = dict.fromkeys(range(len(census.counts)), 0)
    for i, atom in enumerate(atoms, 1):
        for x in atom:
            last.update((k, i) for k in census.rows[x] + cols[x])
    settled = [[] for _ in range(len(atoms) + 1)]
    for k, i in last.items():
        settled[i].append(k)
    return settled


def _ways(atoms, top):
    """`ways[i][s]`: the subsets of `atoms[i:]` with s elements, s <= top."""
    table = [[1] + [0] * top]
    for atom in reversed(atoms):
        below, k = table[-1], len(atom)
        table.append([below[s] + (below[s - k] if s >= k else 0) for s in range(top + 1)])
    return table[::-1]


def _sized_search(group, radius, maxsize, gens=None):
    """The size-by-size walk the one-pass search replaced: for each size,
    each family from an empty set, atoms in sort-key order, with the
    settled cut on product counts, each element added to an asymmetric
    census on its own, and cut subtrees counted by atom sizes; no
    deadline and no size past the ball's."""
    census = ProductCensus(group, radius, gens, symmetric=False)
    ball, _, atoms = _sorted_atoms(group, radius, gens)
    at = {x: i for i, x in enumerate(census.ball)}
    atoms = [tuple(at[ball[i]] for i in atom) for atom in atoms]  # census indices, sort-key order
    settled = _product_settled(census, atoms)
    n = len(atoms)
    ways = _ways(atoms, max(maxsize, 0))
    tested = 0
    exhausted = []

    def walk(first, left):
        nonlocal tested
        for j in range(first, n):
            if not ways[j][left] or 1 in map(census.counts.__getitem__, settled[j]):
                tested += ways[j][left]
                return False
            atom = atoms[j]
            rest = left - len(atom)
            if rest < 0 or not ways[j + 1][rest]:
                continue
            for i in atom:
                census.add((i,))
            if not rest:
                tested += 1
                if 1 not in census.counts:
                    return True
            elif walk(j + 1, rest):
                return True
            for i in atom:
                census.remove((i,))
        return False

    for size in range(2, min(maxsize, len(census.ball)) + 1):
        for with_ident in (False, True):
            census.clear()
            if with_ident:
                census.add((census.identity,))
            if walk(0, size - with_ident):
                witness = census.subset()
                return WitnessSearchResult(witness, naive_no_unique_product(witness), tuple(exhausted), (), tested)
        exhausted.append(size)
    return WitnessSearchResult(None, False, tuple(exhausted), (), tested)


@functools.lru_cache(maxsize=None)
def _fours_gens_by_shape():
    """Sets of two or three elements of the fours group's ball(2) minus the
    identity, keyed by (their number, the inverse pairs of the ball of
    radius 2 they generate): the shapes of the benchmark's search stream."""
    group = FoursGroup()
    elems = [e for e in sorted(group.ball(2), key=group.sort_key) if not e.is_identity]
    out = {}
    for count in (2, 3):
        for gens in itertools.combinations(elems, count):
            out.setdefault((count, (len(group.ball(2, gens)) - 1) // 2), []).append(gens)
    return out


_STREAM_SHAPES = [(2, 6), (2, 8), (3, 9), (3, 10), (3, 12), (3, 13), (3, 14)]


@pytest.mark.parametrize("shape", _STREAM_SHAPES)
@pytest.mark.parametrize("seed", [1, 2])
def test_search_matches_sized_walk_on_fours_stream_shapes(shape, seed):
    # the one-pass search against the size-by-size walk, past the sizes the
    # unpruned reference can reach
    rng = random.Random(f"{shape} {seed}")
    gens = list(rng.choice(_fours_gens_by_shape()[shape]))
    maxsize = rng.randint(6, 14)
    res = search_nonup_witness(FoursGroup(), 2, maxsize, gens)
    assert res == _sized_search(FoursGroup(), 2, maxsize, gens)


@pytest.mark.parametrize("seed", range(4))
def test_search_matches_sized_walk_on_fours_radius_3(seed):
    rng = random.Random(seed)
    group = FoursGroup()
    gens = None
    if seed:
        pool = [e for e in sorted(group.ball(1), key=group.sort_key) if not e.is_identity]
        gens = rng.sample(pool, rng.randint(2, 3))
    maxsize = rng.randint(2, 8)
    caps = DEFAULT_CAPS.with_overrides(radius=6)
    res = search_nonup_witness(group, 3, maxsize, gens, caps)
    assert res == _sized_search(group, 3, maxsize, gens)


@pytest.mark.parametrize("seed", range(40))
def test_search_matches_sized_walk_on_cyclic_groups(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    group = cyclic_group(n)
    gens = [group.element(k) for k in rng.sample(range(1, n), min(n - 1, rng.randint(1, 3)))]
    radius, maxsize = rng.randint(2, 3), rng.randint(2, 14)
    res = search_nonup_witness(group, radius, maxsize, gens)
    assert res == _sized_search(group, radius, maxsize, gens)


@pytest.mark.parametrize(
    "gens, witness, tested",
    # gens (1, 5): the identity-free pass meets a 4-element witness first,
    # and the identity pass then finds the 3-element subgroup
    [((1, 5), ("1", "a^2", "a^4"), 4), ((1, 2), ("1", "a^3"), 3)],
)
def test_search_answers_the_least_size_before_the_first_found(gens, witness, tested):
    group = cyclic_group(6)
    g = [group.element(k) for k in gens]
    res = search_nonup_witness(group, 2, 8, g)
    assert tuple(str(x) for x in res.witness) == witness and res.verified
    assert res.subsets_tested == tested and res.sizes_exhausted == tuple(range(2, len(witness)))
    assert res == _sized_search(group, 2, 8, g)


def test_search_reaches_the_size_limit_through_involutions(klein):
    # a node one element below the limit still extends by a 1-element atom:
    # {u, v} is the first witness of the Klein group, at maxsize 2
    res = search_nonup_witness(klein, 1, 2)
    assert tuple(str(x) for x in res.witness) == ("u", "v") and res.subsets_tested == 1
    assert res == _sized_search(klein, 1, 2)


_CENSUS_CASES = [
    ("klein", 0, 1), ("cyclic", 7, 3), ("cyclic", 23, 2), ("perm3", 0, 2), ("zn2", 0, 2), ("fours", 0, 2),
]


@pytest.mark.parametrize("name, n, radius", _CENSUS_CASES)
def test_settled_files_each_product_under_the_last_atom_forming_it(name, n, radius):
    # settled(atoms) holds labels: in a symmetric census the class of each
    # product that is not its own inverse, once, under the last atom of
    # `atoms` that forms it, the sink in no list; in an asymmetric one each
    # product, under the last element that forms it; `atoms` in sort-key
    # order, outermost BFS layer first, or in the first pass's fail-first
    # order
    group = _search_group(name, n)
    layers = group.layers(radius)
    for symmetric in (True, False):
        census = ProductCensus(group, radius, symmetric=symmetric)
        products, label, ball = census.products, census.label, census.ball
        assert all(x in layers[d] for x, d in zip(ball, census.depth, strict=True))
        labels = range(1 if symmetric else 0, len(census.counts))
        for atoms in (census.atoms, _far_first(census), up._first_pass_order(census)):
            settled = census.settled(atoms)
            assert len(settled) == len(atoms) + 1
            assert sorted(c for part in settled for c in part) == list(labels)
            for i in range(len(atoms) + 1):
                formed = {
                    label[products.index(p.payload)]
                    for a in atoms[i:]
                    for x in a
                    for y in ball
                    for p in (ball[x] * y, y * ball[x])
                }
                assert sorted(c for part in settled[:i + 1] for c in part) == [c for c in labels if c not in formed]
                assert settled[i] == sorted(settled[i])


def test_settled_holds_each_free_radius_5_product_once():
    census = ProductCensus(FreeGroup(("a", "b")), 5, caps=DEFAULT_CAPS.with_overrides(radius=10))
    # the identity is the one product that is its own inverse, so the other
    # 118,096 products make 59,048 pair classes, beside the sink
    assert (len(census.atoms), len(census.products), len(census.counts)) == (242, 118_097, 59_049)
    assert sum(map(len, census.settled(census.atoms))) == 59_048
    # only `move`, which the search never calls, builds `fell` and `rose`
    assert "steps" not in vars(census)


def _table_cases():
    cases = [(_search_group(name, n), radius, None) for name, n, radius in _CENSUS_CASES]
    fours = _search_group("fours")
    cases.append((fours, 2, [fours.parse_element(w) for w in ("a", "b", "a b")]))
    c23 = _search_group("cyclic", 23)
    cases.append((c23, 2, [c23.element(12), c23.element(6)]))
    return cases


def _sorted_tables(group, radius, gens=None):
    """A reference product table and settled lists that number each product
    by its place in the sorted ball(2 * radius): products numbered as they
    turn up in a row-by-row table, then sorted and renumbered."""
    ball = sorted(group.ball(radius, gens), key=group.sort_key)
    payloads = [e.payload for e in ball]
    first: dict = {}
    rows = [[first.setdefault(group._mul(x, y), len(first)) for y in payloads] for x in payloads]
    big = sorted((GroupElement(group, p) for p in first), key=group.sort_key)
    index = {e.payload: i for i, e in enumerate(big)}
    order = [index[p] for p in first]
    rows = [[order[k] for k in row] for row in rows]
    cols = [list(col) for col in zip(*rows)]
    position = {p: i for i, p in enumerate(payloads)}
    identity = position[group._one]
    atoms, used = [], {identity}
    for i, p in enumerate(payloads):
        if i not in used:
            j = position[group._inv(p)]
            used.update((i, j))
            atoms.append((i,) if i == j else (i, j))
    last = dict.fromkeys(range(len(first)), 0)
    for i, atom in enumerate(atoms, 1):
        last.update((k, i) for x in atom for k in rows[x] + cols[x])
    settled = [[] for _ in range(len(atoms) + 1)]
    for k, i in last.items():
        settled[i].append(k)
    return big, rows, atoms, settled


@pytest.mark.parametrize("group, radius, gens", _table_cases())
def test_product_table_indexes_the_double_ball(group, radius, gens):
    # the census reads ball(2r) off its own table: the same elements as the
    # BFS to radius 2r, each numbered once; an element's line raises its
    # row and its column by 1
    census = ProductCensus(group, radius, gens, symmetric=False)
    products, ball = census.products, census.ball
    assert len(set(products)) == len(products) == len(census.counts)
    assert set(products) == {e.payload for e in group.ball(2 * radius, gens)}
    for i, x in enumerate(ball):
        assert census.lines[i][0] is census.rows[i] and census.lines[i][2:] == (1, census.rows[i][i])
        for j, y in enumerate(ball):
            assert products[census.rows[i][j]] == (x * y).payload
            assert census.lines[j][1][i] == census.rows[i][j]


@pytest.mark.parametrize(
    "group, radius, gens", _table_cases() + [(_search_group("free"), 3, None)]
)
def test_product_table_indexes_the_sorted_double_ball(group, radius, gens):
    # one relabelling of the product numbers turns an asymmetric census's
    # table into that of the sorted double ball; a symmetric census numbers
    # the products the same, its atoms are the reference's, and its settled
    # lists hold the pair classes of the reference's settled products
    census = ProductCensus(group, radius, gens, symmetric=False)
    symmetric = ProductCensus(group, radius, gens)
    big, rows, atoms, settled = _sorted_tables(group, radius, gens)
    relabel = {}
    for row, ref in zip(census.rows, rows, strict=True):
        for k, r in zip(row, ref, strict=True):
            assert relabel.setdefault(k, r) == r
    assert sorted(relabel) == sorted(relabel.values()) == list(range(len(big)))
    assert [big[relabel[k]].payload for k in range(len(big))] == census.products == symmetric.products
    assert symmetric.atoms == atoms
    back = {r: k for k, r in relabel.items()}
    assert symmetric.settled(symmetric.atoms) == [sorted({symmetric.label[back[r]] for r in part} - {0}) for part in settled]


def _flip(census):
    position = {x: i for i, x in enumerate(census.ball)}
    return [position[~x] for x in census.ball]


@pytest.mark.parametrize("name", sorted(_COUNTING_GROUPS))
def test_mirror_cells_hold_the_inverse_products(name):
    # (x_i x_j)^-1 = x_flip[j] x_flip[i]; an involution x_i has flip[i] == i,
    # so row i fills its own column i and a cell's mirror can lie in its row
    make, radius, involutions = _COUNTING_GROUPS[name]
    group = make()
    census = ProductCensus(group, radius, symmetric=False)
    ball, rows, products, e = census.ball, census.rows, census.products, census.identity
    flip = _flip(census)
    fixed = [i for i, j in enumerate(flip) if i == j and i != e]
    assert bool(fixed) == involutions
    # a product's inverse takes the next number, unless it is its own inverse
    k = 0
    while k < len(products):
        q = group._inv(products[k])
        assert q == products[k] or products[k + 1] == q
        k += 1 if q == products[k] else 2
    # the identity's row and column are the ball, and it fills (i, flip[i])
    payloads = [x.payload for x in ball]
    assert [products[k] for k in rows[e]] == [products[k] for k in census.lines[e][1]] == payloads
    assert all(products[rows[i][j]] == group._one for i, j in enumerate(flip))
    number = {p: k for k, p in enumerate(products)}
    for i, x in enumerate(ball):
        for j, y in enumerate(ball):
            assert products[rows[i][j]] == (x * y).payload
            assert rows[flip[j]][flip[i]] == number[(~(x * y)).payload]
    # a symmetric census numbers the products the same; an inverse pair
    # shares one class, numbered as the pairs turn up, a product that is its
    # own inverse goes to the sink, class 0, and each cell holds the class
    # of its product
    symmetric = ProductCensus(group, radius)
    label = symmetric.label
    assert symmetric.products == products
    assert all((i,) in symmetric.atoms for i in fixed)
    pairs = [k for k, p in enumerate(products) if group._inv(p) != p]
    assert [label[k] for k in pairs] == [1 + i // 2 for i in range(len(pairs))]
    assert all(label[k] == 0 for k in range(len(products)) if k not in pairs)
    assert symmetric.rows == [[label[k] for k in row] for row in rows]
    # a pair atom's first element raises its row and its inverse's; an
    # involution or the identity raises its own row, and its all-sink
    # second row by 0
    srows = symmetric.rows
    sinks = [0] * len(ball)
    assert symmetric.lines == [
        (srows[i], sinks, 0, srows[i][i]) if i == j else (srows[i], srows[j], 1, srows[i][i])
        for i, j in enumerate(flip)
    ]


def _inv_fill(group, ball, symmetric):
    """The census fill that numbered each new product's inverse with
    `_inv`: (rows, labels, products by number, count of labels)."""
    payloads = [x.payload for x in ball]
    mul, inv = group._mul, group._inv
    position = {p: i for i, p in enumerate(payloads)}
    flip = [position[inv(p)] for p in payloads]
    number, opp, label, classes = {}, [], [], 0
    mirror = label if symmetric else opp
    rows = [[0] * len(ball) for _ in ball]
    for i, x in enumerate(payloads):
        for m in range(i, len(ball)):
            p = mul(x, payloads[flip[m]])
            k = number.get(p)
            if k is None:
                k = number[p] = len(opp)
                q = number.setdefault(inv(p), k + 1)
                if q > k:
                    classes += 1
                    opp += (q, k)
                    label += (classes, classes) if symmetric else (k, q)
                else:
                    opp.append(k)
                    label.append(0 if symmetric else k)
            rows[i][flip[m]] = label[k]
            rows[m][flip[i]] = mirror[k]
    return rows, label, list(number), classes + 1 if symmetric else len(opp)


# every backend, with a pool its seeded generating sets are drawn from
_FILL_BACKENDS = {
    "finite(9)": (lambda: cyclic_group(9), lambda g: g.elements()),
    "klein": (klein_four_group, lambda g: g.elements()),
    "s3-table": (lambda: table_from_group(PermutationGroup(3)), lambda g: g.elements()),
    "perm(4)": (lambda: PermutationGroup(4), lambda g: g.elements()),
    "free(a, b)": (lambda: FreeGroup(("a", "b")), lambda g: g.ball(2)),
    "zn(2)": (lambda: FreeAbelianGroup(2), lambda g: g.ball(2)),
    "fours": (FoursGroup, lambda g: g.ball(2)),
    "free(a) * zn(1)": (lambda: FreeProductGroup((FreeGroup(("a",)), FreeAbelianGroup(1))), lambda g: g.ball(2)),
    "finite(3) x zn(1)": (lambda: DirectProductGroup((cyclic_group(3), FreeAbelianGroup(1))), lambda g: g.ball(2)),
    "zn(2)/<(2, 4)>": (lambda: QuotientFreeAbelianGroup(FreeAbelianGroup(2), (2, 4)), lambda g: g.ball(2)),
}


@pytest.mark.parametrize("name", sorted(_FILL_BACKENDS))
def test_mirror_fill_matches_the_inv_fill(name):
    # numbering a new product's inverse off its mirror cell, x_m x_i^-1,
    # gives the tables, labels and product numbers the `_inv` fill gave,
    # in both modes, over the group's own generators and seeded ones
    make, pool = _FILL_BACKENDS[name]
    group = make()
    elements = sorted((x for x in pool(group) if not x.is_identity), key=group.sort_key)
    rng = random.Random(name)
    cases = [(None, 3)] + [(rng.sample(elements, rng.randint(1, 3)), rng.randint(1, 3)) for _ in range(5)]
    for gens, radius in cases:
        for symmetric in (False, True):
            census = ProductCensus(group, radius, gens, symmetric=symmetric)
            rows, label, products, labels = _inv_fill(group, census.ball, symmetric)
            assert census.rows == rows and census.label == label
            assert census.products == products and len(census.empty) == labels


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_COUNTING_GROUPS)),
    picks=st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=30),
)
def test_orbit_counts_match_product_counts(name, picks):
    # a symmetric S, toggled atom by atom (the identity among them) in any
    # order, in a symmetric census and, element by element, in an
    # asymmetric one: each pair class counts what the asymmetric census
    # counts for both its products, and the sink stays at 3 or more, so
    # the two give the same unique count
    by_orbit, by_product = _census(name, True), _census(name, False)
    by_orbit.clear()
    by_product.clear()
    pool = _pool(by_orbit)
    present = []
    for p in picks:
        atom = pool[p % len(pool)]
        if atom in present:
            present.remove(atom)
            by_orbit.remove(atom)
            for i in atom:
                by_product.remove((i,))
        else:
            present.append(atom)
            by_orbit.add(atom)
            for i in atom:
                by_product.add((i,))
        assert sorted(by_orbit.members) == sorted(by_product.members) == sorted(i for a in present for i in a)
        counts, orbit_counts = by_product.counts, by_orbit.counts
        for k, c in enumerate(by_orbit.label):
            assert c == 0 or orbit_counts[c] == counts[k]
        assert orbit_counts[0] >= 3
        assert by_orbit.unique_count() == by_product.unique_count()


def test_product_ball_size_cap_has_the_double_ball_boundary():
    # |ball(4)| = 83 in the fours group: the cap on the products fires one
    # element below it, with the BFS's message
    group = FoursGroup()
    assert len(group.ball(4)) == 83
    with pytest.raises(CapExceededError, match=r"^ball size exceeds cap 82$"):
        ProductCensus(group, 2, symmetric=False, caps=DEFAULT_CAPS.with_overrides(ball_size=82))
    assert len(ProductCensus(group, 2, symmetric=False, caps=DEFAULT_CAPS.with_overrides(ball_size=83)).counts) == 83


@pytest.mark.parametrize("name, n, radius", [("klein", 0, 1), ("cyclic", 9, 4), ("perm3", 0, 2), ("zn2", 0, 2)])
def test_ways_counts_atom_subsets_by_size(name, n, radius):
    census = ProductCensus(_search_group(name, n), radius)
    atoms = census.atoms
    top = sum(len(a) for a in atoms) + 1
    ways = census.ways(top)
    assert len(ways) == len(atoms) + 1
    for i in range(len(atoms) + 1):
        sizes = [
            sum(len(a) for a in c)
            for r in range(len(atoms) - i + 1)
            for c in itertools.combinations(atoms[i:], r)
        ]
        assert ways[i] == [sizes.count(s) for s in range(top + 1)]


def test_zero_budget_truncates_every_size():
    res = search_nonup_witness(FoursGroup(), 2, 14, caps=DEFAULT_CAPS.with_overrides(budget_ms=0))
    assert res.witness is None and not res.verified
    assert res.sizes_exhausted == () and res.sizes_truncated == tuple(range(2, 15))


def test_ample_budget_exhausts_every_size():
    res = search_nonup_witness(FoursGroup(), 2, 14, caps=DEFAULT_CAPS.with_overrides(budget_ms=60_000))
    assert res.witness is None
    assert res.sizes_exhausted == tuple(range(2, 15)) and res.sizes_truncated == ()
    assert res.subsets_tested == 500


class _StepClock:
    """A stand-in for the `time` module whose clock reads 0 until its
    `jump`-th reading and far past any budget from then on."""

    def __init__(self, jump=None):
        self.jump, self.readings = jump, 0

    def monotonic(self):
        self.readings += 1
        return 1e9 if self.jump is not None and self.readings >= self.jump else 0.0


def _adds(*args, **kwargs):
    """The search's result and the atoms its walks add, one per visited
    node, plus the identity once per identity walk."""
    calls = []
    add = ProductCensus.add
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProductCensus, "add", lambda self, atom: calls.append(atom) or add(self, atom))
        res = search_nonup_witness(*args, **kwargs)
    return res, len(calls)


def test_radius_3_exhaustion_adds_each_atom_it_visits():
    # the cut's strength, which no result shows
    res, adds = _adds(FoursGroup(), 3, 14, caps=DEFAULT_CAPS.with_overrides(radius=6))
    assert res.subsets_tested == 198_438 and res.sizes_exhausted == tuple(range(2, 15))
    assert adds == 3_745


def test_radius_4_exhaustion_finds_no_symmetric_witness():
    group = FoursGroup()
    census = ProductCensus(group, 4)
    assert (len(census.ball), len(census.atoms)) == (83, 41)
    res = search_nonup_witness(group, 4, 14)
    assert res.witness is None and not res.verified
    assert res.sizes_exhausted == tuple(range(2, 15)) and res.sizes_truncated == ()
    assert res.subsets_tested == 33_199_094


def test_no_witness_count_caps_ways_at_the_ball(monkeypatch):
    # ball(1) holds 5 elements, so a larger --max-size counts no more
    # subsets and lists no more sizes
    tops = []
    ways = ProductCensus.ways
    monkeypatch.setattr(ProductCensus, "ways", lambda self, top: tops.append(top) or ways(self, top))
    res = search_nonup_witness(FoursGroup(), 1, 100_000)
    assert tops and max(tops) <= 5
    assert res.subsets_tested == search_nonup_witness(FoursGroup(), 1, 5).subsets_tested == 6
    assert res.sizes_exhausted == (2, 3, 4, 5)


def test_fail_first_order_cuts_a_stream_search_below_far_first(monkeypatch):
    # a generating set of the benchmark stream's largest shape, 3 generators
    # and 14 inverse pairs in ball(2), at its largest size: leading each
    # layer with the atoms that form rare products settles them sooner
    group = FoursGroup()
    gens = [group.parse_element(w) for w in ("a", "b^2", "a b")]
    assert len(group.ball(2, gens)) == 29
    res, adds = _adds(group, 2, 10, gens)
    monkeypatch.setattr(up, "_first_pass_order", _far_first)
    far, far_adds = _adds(group, 2, 10, gens)
    assert res == far and res.subsets_tested == 4_942 and not res.found
    assert (adds, far_adds) == (259, 616)


def test_deadline_inside_the_walk_truncates_every_size(monkeypatch):
    # the walk reads the clock every 2048 nodes, however many subsets a cut
    # settles at once, and its passes settle every size together, so a
    # deadline passing at its last reading truncates every size
    group, caps = FoursGroup(), DEFAULT_CAPS.with_overrides(radius=6)
    clock = _StepClock()
    monkeypatch.setattr(up, "time", clock)
    full = search_nonup_witness(group, 3, 14, caps=caps)
    assert full.subsets_tested == 198_438 and full.sizes_exhausted == tuple(range(2, 15))
    # beyond the start and the two pass checks, the walk reads the clock
    assert clock.readings > 3
    clock = _StepClock(jump=clock.readings)
    monkeypatch.setattr(up, "time", clock)
    res = search_nonup_witness(group, 3, 14, caps=caps)
    assert res == WitnessSearchResult(None, False, (), tuple(range(2, 15)), 0)


def test_deadline_before_the_identity_pass_drops_its_witness(monkeypatch):
    # cyclic(6) with gens (1, 5): the identity-free pass finds a 4-element
    # witness, but only the identity pass can tell it is not the first
    group = cyclic_group(6)
    gens = [group.element(1), group.element(5)]
    clock = _StepClock()
    monkeypatch.setattr(up, "time", clock)
    assert search_nonup_witness(group, 2, 8, gens).found
    assert clock.readings == 4  # the start, the first pass's two walk checks and the second's
    monkeypatch.setattr(up, "time", _StepClock(jump=3))
    res = search_nonup_witness(group, 2, 8, gens)  # ball(2) holds 5 elements
    assert res == WitnessSearchResult(None, False, (), (2, 3, 4, 5), 0)


# ---------------------------------------------------------------------------
# anneal trajectories, pinned: a change to the step arithmetic must leave
# every RNG draw, every accepted swap and every result as it was


class _RecordingRandom(random.Random):
    """`random.Random` that keeps the last instance made, so a test can read
    the generator's next draw after a run: any extra or missing draw inside
    the run shifts it."""

    last = None

    def __init__(self, seed):
        super().__init__(seed)
        _RecordingRandom.last = self


# (group, radius, size, seed, clock jump) ->
# (restarts, best unique count, witness in census order, next draw);
# a clock that jumps at reading k lets the anneal start k - 2 restarts
_ANNEAL_PINS = [
    (("klein", 1, 3, 3, None), (1, 0, ("u", "1", "uv"), 0.625720304108054)),
    (("klein", 1, 2, 3, None), (1, 0, ("u", "1"), 0.6055995301393269)),
    (("fours", 2, 6, 5, 4), (2, 4, None, 0.8700907187527503)),
    (("fours", 3, 10, 7, 4), (2, 4, None, 0.8511686127969907)),
    # perm(3), where the identity and the involutions are elements like any
    # other: the subgroup {1, (1 2)} at radius 1, and a set of four at
    # radius 2 whose square is S3 with no product formed once
    (("perm3", 1, 2, 5, 4), (1, 0, ("(1 2)", "()"), 0.3717933555623072)),
    (("perm3", 2, 4, 3, 4), (1, 0, ("(1 3 2)", "(1 3)", "(1 2 3)", "(1 2)"), 0.7800764890835564)),
]


@pytest.mark.parametrize("inputs,pinned", _ANNEAL_PINS)
def test_anneal_trajectory_is_pinned(monkeypatch, inputs, pinned):
    name, radius, size, seed, jump = inputs
    group = {"klein": klein_four_group, "perm3": lambda: PermutationGroup(3), "fours": FoursGroup}[name]()
    monkeypatch.setattr(up, "time", _StepClock(jump))
    monkeypatch.setattr(up, "random", types.SimpleNamespace(Random=_RecordingRandom))
    caps = DEFAULT_CAPS.with_overrides(radius=2 * radius)
    res = anneal_nonup_witness(group, radius, size, seed, caps=caps)
    witness = None if res.witness is None else tuple(str(x) for x in res.witness)
    assert (res.restarts, res.best_unique_count, witness, _RecordingRandom.last.random()) == pinned
    assert res.verified == (witness is not None)
