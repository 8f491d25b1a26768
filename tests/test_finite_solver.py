import itertools
from dataclasses import replace
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from groupeq.backends import PermutationGroup, cyclic_group, klein_four_group, table_from_group
from groupeq.config import DEFAULT_CAPS
from groupeq.dsl import parse_script
from groupeq.equations import Equation
from groupeq.errors import CapExceededError, CertificateError
from groupeq.finite_solver import (
    SolutionCertificate,
    SolverReport,
    regular_embedding,
    solve_over_finite,
    verify_certificate,
)


@pytest.fixture(scope="module")
def c3():
    return cyclic_group(3)


def test_regular_embedding_is_injective_homomorphism(c3):
    elems, emb = regular_embedding(c3, 5)
    assert len({emb[g] for g in elems}) == len(elems)
    for g in elems:
        for h in elems:
            gh = emb[g]
            composed = tuple(emb[h][v] for v in emb[g])
            assert composed == emb[g * h]


def test_substitution_case(c3):
    # t = g: the image of g solves at the base degree
    e = Equation(c3, ((~c3.element(1), 1),))
    rep = solve_over_finite(e, max_degree=3)
    assert rep.found and rep.certificate.degree == 3
    assert verify_certificate(rep.certificate, e)


def test_t_squared_equals_three_cycle(c3):
    # t^2 = (123) inside S_3, written as (123)^-1 t^2 = 1 over C3
    e = Equation(c3, ((c3.element(2), 2),))
    rep = solve_over_finite(e, max_degree=3)
    assert rep.found
    cert = rep.certificate
    assert cert.degree == 3
    assert verify_certificate(cert, e)
    # the solution squared is the regular image of the generator
    sq = tuple(cert.solution[v] for v in cert.solution)
    _, emb = regular_embedding(c3, 3)
    assert sq == emb[c3.element(1)]


def test_singular_without_solution_reports_exhaustion(c3):
    # g t 1 t^-1 reduces to the constant g != 1 whatever t is, so no degree
    # holds a solution and every degree up to the cap is exhausted
    e = Equation(c3, ((c3.element(1), 1), (c3.identity(), -1)))
    rep = solve_over_finite(e, max_degree=5)
    assert not rep.found
    assert rep.degrees_tested == (3, 4, 5)
    assert rep.candidates_tested > 0


def test_perturbed_certificate_fails(c3):
    e = Equation(c3, ((c3.element(2), 2),))
    rep = solve_over_finite(e, max_degree=3)
    cert = rep.certificate
    wrong = replace(cert, solution=tuple(range(cert.degree)))
    assert verify_certificate(wrong, e) is False


def test_malformed_certificate_rejected(c3):
    e = Equation(c3, ((c3.element(2), 2),))
    cert = solve_over_finite(e, max_degree=3).certificate
    broken = replace(cert, solution=(0, 0, 1))
    with pytest.raises(CertificateError):
        verify_certificate(broken, e)
    bad_emb = replace(cert, embedding=(cert.embedding[0],) * 3)
    with pytest.raises(CertificateError):
        verify_certificate(bad_emb, e)


def test_certificate_for_another_group_rejected(c3):
    # a C3 certificate checked against a t = 1 over C4: a is not in C3's table
    cert = solve_over_finite(Equation(c3, ((c3.element(2), 1),)), max_degree=3).certificate
    c4 = cyclic_group(4)
    with pytest.raises(CertificateError, match="not an element"):
        verify_certificate(cert, Equation(c4, ((c4.element(1), 1),)))


def test_degree_cap_reported(c3):
    caps = DEFAULT_CAPS.with_overrides(perms_per_degree=5)
    e = Equation(c3, ((c3.element(1), 1),))
    rep = solve_over_finite(e, max_degree=4, caps=caps)
    assert not rep.found
    assert rep.degrees_capped == (3, 4)


def test_unimodular_sweep_small_groups():
    s3 = table_from_group(PermutationGroup(3))
    groups = [cyclic_group(n) for n in (2, 3, 4, 5)] + [klein_four_group(), s3]
    outcomes = []
    for G in groups:
        gens = [g for g in G.elements() if not g.is_identity]
        g = gens[0]
        for terms in [
            ((g, 1),),
            ((g, 2),),
            ((g, 1), (~g, 1), (g, -1)),
            ((g, 1), (g, -1), (g, 1)),
        ]:
            e = Equation(G, terms)
            rep = solve_over_finite(e, max_degree=8)
            if rep.found:
                assert verify_certificate(rep.certificate, e)
                outcomes.append("found")
            else:
                assert rep.degrees_tested or rep.degrees_capped
                outcomes.append("exhausted")
    assert outcomes.count("found") >= len(outcomes) // 2


# ---------------------------------------------------------------------------
# differential against a plain enumerator that composes whole permutations


def _compose(p, q):
    # apply p first, then q
    return tuple(q[v] for v in p)


def _word_value(terms, emb, t):
    t_inv = tuple(sorted(range(len(t)), key=t.__getitem__))
    out = tuple(range(len(t)))
    for g, exp in terms:
        out = _compose(out, emb[g])
        for _ in range(abs(exp)):
            out = _compose(out, t if exp > 0 else t_inv)
    return out


def _reference_solve(e, max_degree, caps):
    """Every permutation of S_d in lexicographic order, d = |G| .. max_degree;
    the first whose word value is the identity is the solution."""
    elems = tuple(e.group.elements())
    n = len(elems)
    index = {x: i for i, x in enumerate(elems)}
    tested, capped, candidates = [], [], 0
    for degree in range(n, max_degree + 1):
        if factorial(degree) > caps.perms_per_degree:
            capped.append(degree)
            continue
        emb = {g: tuple([index[x * g] for x in elems] + list(range(n, degree))) for g in elems}
        for cand in sorted(itertools.permutations(range(degree))):
            candidates += 1
            if _word_value(e.terms, emb, cand) == tuple(range(degree)):
                cert = SolutionCertificate(degree, elems, tuple(emb[g] for g in elems), cand)
                return SolverReport(cert, tuple(tested + [degree]), tuple(capped), candidates)
        tested.append(degree)
    return SolverReport(None, tuple(tested), tuple(capped), candidates)


_DIFF_GROUPS = [cyclic_group(n) for n in (2, 3, 4, 5)] + [
    klein_four_group(),
    table_from_group(PermutationGroup(3)),
    parse_script("group F = finite{0 1 2 3; 1 2 3 0; 2 3 0 1; 3 0 1 2}\n").get("group", "F"),
]


@st.composite
def _solver_cases(draw):
    G = draw(st.sampled_from(_DIFF_GROUPS))
    elems = G.elements()
    terms = draw(st.lists(
        st.tuples(st.sampled_from(elems), st.sampled_from((-3, -2, -1, 1, 2, 3))), min_size=1, max_size=4,
    ))
    # down to |G| - 1, an empty degree range
    max_degree = draw(st.sampled_from(range(7, len(elems) - 2, -1)))
    # three cases in seven keep the default cap and search every degree
    default = DEFAULT_CAPS.perms_per_degree
    perms = draw(st.sampled_from((default, default, default, 1, 24, 120, 720)))
    return Equation(G, tuple(terms)), max_degree, DEFAULT_CAPS.with_overrides(perms_per_degree=perms)


@settings(max_examples=200, deadline=None)
@given(_solver_cases())
def test_solver_matches_plain_enumerator(case):
    e, max_degree, caps = case
    n = len(e.group.elements())
    if max_degree < n:
        # an empty degree range tests nothing, and says so
        with pytest.raises(CapExceededError, match=rf"^\|G\| = {n} exceeds max_degree {max_degree}: "):
            solve_over_finite(e, max_degree=max_degree, caps=caps)
        return
    rep = solve_over_finite(e, max_degree=max_degree, caps=caps)
    assert rep == _reference_solve(e, max_degree, caps)
    if rep.found:
        assert verify_certificate(rep.certificate, e)
