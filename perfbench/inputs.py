"""Seeded input generators.

Every generator takes a ``random.Random`` and returns inputs that are valid
by construction, together with what the oracle expects of them.  Elements
are drawn from sorted lists, never from set iteration order, so a seed gives
the same inputs in every interpreter.
"""

from __future__ import annotations

import itertools

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
from groupeq.equations import Equation, Split
from groupeq.generalized import GeneralizedEquation

import oracles


class Deck:
    """Draws from a fixed multiset in seeded, shuffled rounds, so every run
    sees the same mix of input shapes and only the order and the elements
    depend on the seed."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.pool: list = []

    def draw(self):
        if not self.pool:
            self.pool = list(self.items)
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def sorted_ball(group, radius):
    return sorted(group.ball(radius), key=group.sort_key)


# radius of the fours-search stream's balls and generating sets
SEARCH_RADIUS = 2


def generating_sets(group, radius: int) -> dict[tuple[int, int], list[tuple]]:
    """Every set of two or three elements of ball(radius) other than the
    identity, keyed by (its size, the inverse pairs in the ball of that
    radius it generates).  The fours group is torsion-free, so a ball minus
    the identity splits into inverse pairs."""
    elems = [e for e in sorted_ball(group, radius) if not e.is_identity]
    out: dict[tuple[int, int], list[tuple]] = {}
    for count in (2, 3):
        for gens in itertools.combinations(elems, count):
            out.setdefault((count, (len(group.ball(radius, gens)) - 1) // 2), []).append(gens)
    return out


def random_letters(rng, rank: int, length: int, cyclic: bool = False) -> list[tuple[int, int]]:
    """A freely reduced letter string (generator, sign); cyclically reduced
    when asked."""
    while True:
        out: list[tuple[int, int]] = []
        while len(out) < length:
            g, s = rng.randrange(rank), rng.choice((1, -1))
            if out and out[-1] == (g, -s):
                continue
            out.append((g, s))
        if not cyclic or length < 2 or out[0] != (out[-1][0], -out[-1][1]):
            return out


def free_word(group: FreeGroup, letters) -> object:
    return group.word([(group.names[g], s) for g, s in letters])


class Groups:
    """The groups every workload draws from, built once per process."""

    def __init__(self):
        self.fours = FoursGroup()
        self.fa, self.fb = FreeGroup(("a",)), FreeGroup(("b",))
        self.ab = FreeProductGroup((self.fa, self.fb))
        self.split = Split.of(self.ab, [0])
        self.a = self.ab.embed(0, self.fa.gen("a"))
        self.b = self.ab.embed(1, self.fb.gen("b"))
        self.gh = FreeGroup(("g", "h"))
        self.z1 = FreeAbelianGroup(1)
        self.z2 = FreeAbelianGroup(2)
        self.free_ab = FreeGroup(("a", "b"))
        self.xyz = FreeGroup(("x", "y", "z"))
        self.finite = [cyclic_group(n) for n in (2, 3, 4, 5)] + [
            klein_four_group(),
            table_from_group(PermutationGroup(3)),
        ]


# ---------------------------------------------------------------------------
# equations over F(a) * F(b)


def ab_coefficient(rng, gs: Groups, need_b: bool):
    """A nontrivial reduced element of F(a) * F(b); with need_b it has a
    b-syllable, so no equation using it is conjugate into F(a) * <t>."""
    while True:
        w = gs.ab.identity()
        for _ in range(rng.randint(1, 3)):
            gen = gs.a if rng.random() < 0.5 else gs.b
            w = w * gen ** rng.choice((1, -1, 2, -2))
        if w.is_identity:
            continue
        if need_b and not any(fi == 1 for fi, _ in w.payload):
            continue
        return w


def unimodular_equation(rng, gs: Groups, length: int) -> Equation:
    """t-length 3, 5 or 7, one t^(+-1) per term, exponent sum +-1, every
    coefficient nontrivial and the first one containing b."""
    sigma = rng.choice((1, -1))
    ups = (length + sigma) // 2
    exps = [1] * ups + [-1] * (length - ups)
    rng.shuffle(exps)
    terms = tuple((ab_coefficient(rng, gs, i == 0), e) for i, e in enumerate(exps))
    return Equation(gs.ab, terms)


def equation_script_line(gs: Groups, e: Equation) -> str:
    """The equation as a DSL line `eq E over G: ... = 1`."""
    toks = []
    for g, k in e.terms:
        toks.append(gs.ab.format_element(g))
        toks.append("t" if k == 1 else f"t^{k}")
    return f"eq E over G: {' '.join(toks)} = 1\n"


# ---------------------------------------------------------------------------
# generalized equations over free(g, h) with T = zn(2)


def generalized_equation(rng, gs: Groups, rank: int = 2):
    """Returns (ge, vectors, expected overall verdict) with T = zn(rank).
    The verdict oracle: the total product is a nonzero vector v, so T/<v> is
    torsion-free (unimodular) exactly when gcd(v) = 1.  For rank 1 the total
    is made +-1, so T/<t> is a point and every windowed presentation closes."""
    T = gs.z2 if rank == 2 else gs.z1
    n = rng.randint(2, 5)
    coeffs = [free_word(gs.gh, random_letters(rng, 2, rng.randint(1, 3))) for _ in range(n)]
    vecs = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]
    total = [sum(v[i] for v in vecs) for i in range(rank)]
    if rank == 1 and abs(total[0]) != 1:
        target = rng.choice((1, -1))
        vecs[-1][0] += target - total[0]
        total[0] = target
    if not any(total):
        vecs[-1][0] += 1
        total[0] += 1
    ge = GeneralizedEquation(gs.gh, T, tuple((g, T.vector(v)) for g, v in zip(coeffs, vecs)))
    expected = "unimodular" if oracles.gcd_vector(total) == 1 else "not-unimodular"
    return ge, [tuple(v) for v in vecs], expected


def geq_script(gs: Groups, ge, vecs) -> str:
    lines = ["group G = free(g, h)\n", f"group T = zn({len(vecs[0])})\n"]
    body = []
    for i, ((g, _), v) in enumerate(zip(ge.pairs, vecs)):
        lines.append(f"let u{i} = T: ({', '.join(map(str, v))})\n")
        body.append(gs.gh.format_element(g))
        body.append(f"u{i}")
    lines.append(f"geq W over G with T: {' '.join(body)} = 1\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# free-group words


def power_word(rng, gs: Groups):
    """w = z u^k z^-1 for a cyclically reduced u; returns (w, expected exponent).
    The exponent oracle scans periods of u's letter string."""
    letters = tuple(random_letters(rng, 2, rng.randint(2, 6), cyclic=True))
    k = rng.randint(1, 4)
    u = free_word(gs.free_ab, letters)
    z = free_word(gs.free_ab, random_letters(rng, 2, rng.randint(0, 2)))
    return z * u ** k * ~z, k * oracles.primitive_exponent(letters)


def falsifier_case(rng, gs: Groups, count: int, relation: bool):
    """(a_gens, b) over free(x, y, z) with `count` A-generators.  Without a
    relation, b = u z v with u, v in F(x, y): the automorphism z -> u z v
    fixes <A>, so <A, b> is the free product <A> * <b>.  With one, b lies
    in <A>."""
    x, y, z = gs.xyz.gens()
    a_gens = []
    while len(a_gens) < count:
        w = free_word(gs.xyz, random_letters(rng, 2, rng.randint(1, 2)))
        # two elements of a free group generate a free group of rank 2
        # exactly when they do not commute
        if all(w * a != a * w for a in a_gens):
            a_gens.append(w)
    if relation:
        return a_gens, a_gens[0] ** rng.choice((2, -2, 3))
    u = free_word(gs.xyz, random_letters(rng, 2, rng.randint(0, 1)))
    v = free_word(gs.xyz, random_letters(rng, 2, rng.randint(0, 1)))
    return a_gens, u * z * v


# ---------------------------------------------------------------------------
# finite solver


SHAPES = ((1,), (2,), (1, 1, -1), (2, -1), (1, -1, 1), (3,), (1, 2))


def finite_equation(rng, G, shape) -> Equation:
    """An equation of the given exponent shape over a small table group,
    with nonidentity coefficients."""
    elems = [g for g in G.elements() if not g.is_identity]
    return Equation(G, tuple((rng.choice(elems), k) for k in shape))
