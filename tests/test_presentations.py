"""Composite presentations: `Presentation.join`, the copies the emitters
place in system (7), K_Y and the windowed solution group, and what the
emitted presentations abelianize to."""

import json
import os
import random

import pytest

from groupeq.backends import (
    FiniteTableGroup,
    FoursGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    Presentation,
    cyclic_group,
    klein_four_group,
)
from groupeq.cli import run_command
from groupeq.equations import Equation, Split, emit_system_7, normal_form_6, universal_solution_group
from groupeq.errors import SymbolClashError, WindowError
from groupeq.generalized import (
    GeneralizedEquation,
    coset_rewrite,
    emit_ky,
    emit_solution_group,
    induced_ordinary,
    total_product,
)

from conftest import abelian_invariants, assert_round_trips

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 4, 1, 2, 0],
]


def _golden_presentation(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "r", encoding="utf-8") as fh:
        return Presentation.from_struct(json.load(fh)["result"]["presentation"])


# ---------------------------------------------------------------------------
# the join


def test_join_lists_parts_in_order_then_its_own_relators():
    ab = Presentation.of(("a", "b"), [[("a", 2)], [("a", 1), ("b", 1), ("a", -1), ("b", -1)]])
    c = Presentation.of(("c",), [[("c", 3)]])
    p = Presentation.join(
        (ab, (c, {"c": "c@1"}), (c, {"c": "c@2"}), Presentation(("t",), ())),
        [[("t", 1), ("c@1", 1), ("c@1", -1), ("a", 1)]],
    )
    assert p.generators == ("a", "b", "c@1", "c@2", "t")
    assert [str(r) for r in p.relators] == ["a^2", "a b a^-1 b^-1", "c@1^3", "c@2^3", "t a"]
    assert_round_trips(p)
    assert Presentation.join(()) == Presentation((), ())


def test_join_clash_names_the_clashing_generators_sorted():
    with pytest.raises(SymbolClashError, match=r"\['a', 'b'\]"):
        Presentation.join((Presentation(("b", "a", "c"), ()), Presentation(("a", "b"), ())))
    c = Presentation(("c",), ())
    with pytest.raises(SymbolClashError, match=r"\['c@0'\]"):
        Presentation.join(((c, {"c": "c@0"}), (c, {"c": "c@0"})))


def test_universal_solution_group_clash_names_the_generator():
    G = FreeGroup(("t",))
    with pytest.raises(SymbolClashError, match=r"\['t'\]"):
        universal_solution_group(Equation(G, ((G.gen("t"), 1),)))


def test_emit_solution_group_witness_var_clash_is_a_symbol_clash():
    script = "group G = cyclic(3)\ngroup T = zn(1)\nlet u = T: 1\ngeq W over G with T: a u a u = 1\n"
    report, code = run_command("emit-solution-group", {"witness_var": "e1"}, script)
    assert code == 2
    assert report["error"] == {"type": "SymbolClashError", "message": "generator names clash: ['e1']"}


# ---------------------------------------------------------------------------
# every emitted copy carries its group's relators


def _copies(pres, factors):
    """(presentation, renaming) per copy, read off the emitted generators in
    order; `factors` maps a copied name to (its group's presentation, its
    name there)."""
    blocks = []
    for gen in pres.generators:
        if "@" not in gen:
            continue
        base, lbl = gen.rsplit("@", 1)
        gp, nm = factors[base]
        if not blocks or blocks[-1][1] != lbl or blocks[-1][0] is not gp or nm in blocks[-1][2]:
            blocks.append((gp, lbl, {}))
        blocks[-1][2][nm] = gen
    return [(gp, ren) for gp, _, ren in blocks]


def _system_7_over_s3():
    H, B = FiniteTableGroup(S3_TABLE), FreeGroup(("b",))
    G = FreeProductGroup((H, B))
    b = G.embed(1, B.gen("b"))
    x = [G.embed(0, H.element(i)) for i in range(6)]
    # b x1 t b t x2 b x3 t^-1 = 1, the finite-table golden's equation
    res = normal_form_6(Equation(G, ((b * x[1], 1), (b, 1), (x[2] * b * x[3], -1))), Split.of(G, [0]))
    factors = {
        G.renames[fi][nm]: (f.presentation, nm) for fi, f in enumerate(G.factors) for nm in f.presentation.generators
    }
    return emit_system_7(res.form6), factors, 0


def _ky_over_fours():
    G, T = FoursGroup(), FreeGroup(("x",))
    x = T.gen("x")
    re = coset_rewrite(GeneralizedEquation(G, T, ((G.a(), x), (G.b(), x))))
    factors = {nm: (G.presentation, nm) for nm in G.presentation.generators}
    return emit_ky(re, [T.identity(), x]), factors, 0


def _solution_group_over(G, rank, window):
    T = FreeAbelianGroup(rank)
    g, u = G.generators()[0], T.generators()[0]
    re = coset_rewrite(GeneralizedEquation(G, T, ((g, u), (g, u))))
    factors = {nm: (G.presentation, nm) for nm in G.presentation.generators}
    return emit_solution_group(re, [T.identity()], window=window), factors, len(T.presentation.relators)


@pytest.mark.parametrize(
    "emitted",
    [
        _system_7_over_s3,
        _ky_over_fours,
        lambda: _solution_group_over(cyclic_group(3), 1, 1),
        lambda: _solution_group_over(klein_four_group(), 2, 0),
    ],
    ids=["system-7-s3", "ky-fours", "solution-group-c3-zn1", "solution-group-klein-zn2"],
)
def test_each_copy_carries_its_groups_relators_before_the_emitters_own(emitted):
    pres, factors, offset = emitted()
    copies = _copies(pres, factors)
    assert copies
    F = Presentation.free_group(pres.generators)
    expected = []
    for gp, ren in copies:
        # a copy's generators come together, in its group's order
        assert list(ren) == list(gp.generators)
        expected += [F.word([(ren[nm], e) for nm, e in r.group.express(r)]) for r in gp.relators]
    # the copies' relators, copy by copy, follow the parts before them (T's
    # relators in the solution group) and precede the emitter's own
    assert pres.relators[offset:offset + len(expected)] == tuple(expected)
    assert len(pres.relators) > offset + len(expected)
    assert_round_trips(pres)


def test_system_7_over_the_s3_table_has_87_generators_and_506_relators():
    pres, _, _ = _system_7_over_s3()
    # 17 levels of H, each with the table's 5 generators and 25 relators,
    # one copy of b, the unknown; 80 shift relators and the main one
    assert (len(pres.generators), len(pres.relators)) == (87, 17 * 25 + 80 + 1)


# ---------------------------------------------------------------------------
# abelian invariants


@pytest.mark.parametrize(
    "gens, rels, invariants",
    [
        (("a",), [[("a", 6)]], (6,)),
        (("a", "b"), [[("a", 1), ("b", 1), ("a", -1), ("b", -1)]], (0, 0)),
        (("a", "b"), [[("a", 2)], [("b", 3)]], (6,)),
        (("a", "b"), [[("a", 2)], [("b", 4)]], (2, 4)),
        (("a", "b", "c"), [[("a", 4), ("b", 6)], [("b", 6), ("c", 10)]], (2, 2, 0)),
        (("a", "b"), [[("a", -3), ("b", 2)], [("a", 3), ("b", -2)]], (0,)),
    ],
)
def test_abelian_invariants_of_small_presentations(gens, rels, invariants):
    assert abelian_invariants(Presentation.of(gens, rels)) == invariants


def test_abelian_invariants_of_backend_presentations():
    assert abelian_invariants(FiniteTableGroup(S3_TABLE).presentation) == (2,)
    assert abelian_invariants(klein_four_group().presentation) == (2, 2)
    assert abelian_invariants(FoursGroup().presentation) == (4, 4)
    assert abelian_invariants(cyclic_group(5).presentation) == (5,)


def test_golden_presentations_abelianize_to_their_groups():
    # U = C3 * <x> / <<a x a x>> abelianizes to Z/6; the copies' relators
    # a@0^3 and a@1^3 are what cut Z + Z/2 down to it
    assert abelian_invariants(_golden_presentation("emit-solution-group-cyclic3-zn1")) == (6,)
    # every H-copy is S3 (abelianization Z/2); without their relators, Z^6
    assert abelian_invariants(_golden_presentation("emit-system-7-finite-table")) == (2, 0)


def _rank_1_equations(rng, count):
    coefficients = [cyclic_group(n) for n in range(2, 6)]
    coefficients += [klein_four_group(), FiniteTableGroup(S3_TABLE), FreeGroup(("g", "h"))]
    for _ in range(count):
        G = rng.choice(coefficients)
        T = rng.choice((FreeAbelianGroup(1), FreeGroup(("x",))))
        gen = T.generators()[0]
        while True:
            pairs = []
            for _ in range(rng.randint(1, 3)):
                if isinstance(G, FreeGroup):
                    g = G.identity()
                    for _ in range(rng.randint(0, 2)):
                        g = g * rng.choice(G.gens()) ** rng.choice((1, -1))
                else:
                    g = rng.choice(G.elements())
                pairs.append((g, gen ** rng.randint(-2, 2)))
            ge = GeneralizedEquation(G, T, tuple(pairs))
            if not total_product(ge).is_identity:
                break
        yield ge


def test_rank_1_solution_group_abelianizes_as_the_universal_solution_group():
    # for T infinite cyclic the windowed solution group over Y = {1} is the
    # universal solution group of the induced ordinary equation whenever the
    # action stays inside the emitted copies
    compared = skipped = 0
    for ge in _rank_1_equations(random.Random(5), 400):
        try:
            emitted = emit_solution_group(coset_rewrite(ge), [ge.vargroup.identity()], window=1)
        except WindowError:
            skipped += 1
            continue
        universal = universal_solution_group(induced_ordinary(ge))
        assert abelian_invariants(emitted) == abelian_invariants(universal), ge
        compared += 1
    assert compared + skipped == 400
    assert compared >= 100
