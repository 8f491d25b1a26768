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
    from groupeq.words import Presentation

    assert Presentation.from_text(pres.to_text()) == pres
    assert Presentation.from_struct(pres.to_struct()) == pres
