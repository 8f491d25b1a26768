import random

import pytest

from groupeq.backends import (
    FoursGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    PermutationGroup,
    cyclic_group,
    klein_four_group,
)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def fours():
    return FoursGroup()


@pytest.fixture(scope="session")
def z2():
    return FreeAbelianGroup(2)


@pytest.fixture(scope="session")
def free2():
    return FreeGroup(("a", "b"))


@pytest.fixture(scope="session")
def fafb():
    """F(a) * F(b), the standard split test bed."""
    return FreeProductGroup((FreeGroup(("a",)), FreeGroup(("b",))))


@pytest.fixture(scope="session")
def c3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def klein():
    return klein_four_group()


def random_free_word(rng, group, max_len=6):
    w = group.identity()
    for _ in range(rng.randrange(max_len + 1)):
        g = rng.choice(group.gens())
        w = w * (g if rng.random() < 0.5 else ~g)
    return w


def random_vector(rng, group, bound=4):
    return group.vector([rng.randrange(-bound, bound + 1) for _ in range(group.rank)])


def random_perm(rng, group):
    images = list(range(group.degree))
    rng.shuffle(images)
    return group.element(images)


def random_fours(rng, group, max_len=5):
    w = group.identity()
    a, b = group.generators()
    for _ in range(rng.randrange(max_len + 1)):
        g = rng.choice([a, b])
        w = w * (g if rng.random() < 0.5 else ~g)
    return w


def fours_translation(x):
    """The integer lattice vector of a fours element that is a pure
    translation, read off its payload (point part, doubled vector); None for
    any other element."""
    signs, doubled = x.payload
    if signs != (1, 1, 1):
        return None
    return tuple(c // 2 for c in doubled)


def random_element(rng, group, size=4):
    from groupeq.backends import (
        FiniteTableGroup,
        FoursGroup,
        FreeAbelianGroup,
        FreeGroup,
        FreeProductGroup,
        PermutationGroup,
    )

    if isinstance(group, FreeGroup):
        return random_free_word(rng, group, size)
    if isinstance(group, FreeAbelianGroup):
        return random_vector(rng, group, size)
    if isinstance(group, FiniteTableGroup):
        return group.element(rng.randrange(group.size))
    if isinstance(group, PermutationGroup):
        return random_perm(rng, group)
    if isinstance(group, FoursGroup):
        return random_fours(rng, group, size)
    if isinstance(group, FreeProductGroup):
        w = group.identity()
        for _ in range(rng.randrange(size + 1)):
            i = rng.randrange(len(group.factors))
            w = w * group.embed(i, random_element(rng, group.factors[i], 2))
        return w
    raise TypeError(f"no random sampler for {group.kind}")


def assert_round_trips(pres):
    """Both serial formats of a presentation read back to the same presentation."""
    from groupeq.backends import Presentation

    assert Presentation.from_text(pres.to_text()) == pres
    assert Presentation.from_struct(pres.to_struct()) == pres


def abelian_invariants(pres):
    """The abelianization of `pres` as its invariant factors d_1 | d_2 | ...
    (each > 1), then one 0 per free rank: (6,) is Z/6, (2, 0) is Z + Z/2.

    Exact-integer Smith normal form of the relator exponent-sum matrix.
    """
    n = len(pres.generators)
    m = []
    for rel in pres.relators:
        row = [0] * n
        for g, e in rel.payload:
            row[g] += e
        m.append(row)
    diag = []
    while any(any(row) for row in m):
        # the smallest nonzero entry goes to the corner
        _, i, j = min((abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        p = m[0][0]
        for row in m[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, m[0])]
        for j in range(1, len(m[0])):
            q = m[0][j] // p
            for row in m:
                row[j] -= q * row[0]
        if any(row[0] for row in m[1:]) or any(m[0][1:]):
            continue  # a remainder smaller than the pivot is left: pivot again
        bad = next((row for row in m[1:] if any(x % p for x in row)), None)
        if bad is not None:
            # the pivot must divide every other entry: fold an offending row in
            m[0] = [x + y for x, y in zip(m[0], bad)]
            continue
        diag.append(abs(p))
        m = [row[1:] for row in m[1:]]
    return tuple(d for d in diag if d != 1) + (0,) * (n - len(diag))
