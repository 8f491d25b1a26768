"""Brute-force positive evidence: equations over small finite groups solved
inside symmetric groups.

The coefficient group embeds by its right-regular representation; candidate
solutions are enumerated by degree, then lexicographically, and one is
accepted when every point comes back to itself when traced through the
word.  No candidate is pruned: conjugating a solution by a permutation that
commutes with the embedded coefficients gives another solution, so a filter
keeping only the lexicographically least of such conjugates never rejects
the first solution; it would change neither the solution found nor the
number of candidates counted.  Absence within the caps is reported, never
asserted as nonexistence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Optional

from .backends import Group, GroupElement, PermutationGroup
from .config import DEFAULT_CAPS, Caps
from .errors import CapExceededError, CertificateError
from .equations import Equation


@dataclass(frozen=True)
class SolutionCertificate:
    degree: int
    elements: tuple[GroupElement, ...]          # enumeration of G
    embedding: tuple[tuple[int, ...], ...]       # permutation per element
    solution: tuple[int, ...]                    # the found permutation


@dataclass(frozen=True)
class SolverReport:
    certificate: Optional[SolutionCertificate]
    degrees_tested: tuple[int, ...]
    degrees_capped: tuple[int, ...]
    candidates_tested: int

    @property
    def found(self) -> bool:
        return self.certificate is not None


def regular_embedding(group: Group, degree: int) -> tuple[tuple[GroupElement, ...], dict]:
    """Right-regular representation of a finite backend inside S_degree,
    fixing the padding points."""
    elems = tuple(group.elements())
    n = len(elems)
    if degree < n:
        raise ValueError("degree too small for the regular representation")
    index = {e: i for i, e in enumerate(elems)}
    emb = {}
    for g in elems:
        images = [index[x * g] for x in elems] + list(range(n, degree))
        emb[g] = tuple(images)
    return elems, emb


def _closes(steps: list, t: tuple[int, ...]) -> bool:
    """Whether every point comes back to itself when traced through the
    word's steps: a coefficient's image, then t (exp > 0) or t^-1 (exp < 0)
    |exp| times."""
    for x in range(len(t)):
        y = x
        for img, exp in steps:
            y = img[y]
            if exp > 0:
                for _ in range(exp):
                    y = t[y]
            else:
                for _ in range(-exp):
                    y = t.index(y)
        if y != x:
            return False
    return True


def solve_over_finite(
    e: Equation,
    max_degree: Optional[int] = None,
    caps: Caps = DEFAULT_CAPS,
) -> SolverReport:
    """Search S_d for d = |G| .. max_degree for a permutation solving the
    equation under the regular embedding of G; CapExceededError when
    max_degree < |G| leaves no degree to search."""
    group = e.group
    n = len(group.elements())
    max_degree = caps.max_degree if max_degree is None else max_degree
    if max_degree < n:
        raise CapExceededError(f"|G| = {n} exceeds max_degree {max_degree}: no degree to search")
    tested: list[int] = []
    capped: list[int] = []
    candidates = 0
    for degree in range(n, max_degree + 1):
        if factorial(degree) > caps.perms_per_degree:
            capped.append(degree)
            continue
        elems, emb = regular_embedding(group, degree)
        steps = [(emb[g], exp) for g, exp in e.terms]
        for cand in itertools.permutations(range(degree)):
            candidates += 1
            if _closes(steps, cand):
                cert = SolutionCertificate(degree, elems, tuple(emb[g] for g in elems), cand)
                return SolverReport(cert, tuple(tested + [degree]), tuple(capped), candidates)
        tested.append(degree)
    return SolverReport(None, tuple(tested), tuple(capped), candidates)


def verify_certificate(cert: SolutionCertificate, e: Equation) -> bool:
    """Re-evaluate the certificate with no solver state; exact identity check."""
    elems = cert.elements
    n = len(elems)
    degree = cert.degree
    if degree < n or len(cert.embedding) != n:
        raise CertificateError("certificate shape does not match the group")
    if sorted(cert.solution) != list(range(degree)):
        raise CertificateError("solution is not a permutation of the right degree")
    emb = dict(zip(elems, cert.embedding))
    for g, _ in e.terms:
        if g not in emb:
            raise CertificateError(f"coefficient {g} is not an element of the certificate's group")
    for p in cert.embedding:
        if sorted(p) != list(range(degree)):
            raise CertificateError("embedding image is not a permutation")
    if len(set(elems)) != n:
        raise CertificateError("group enumeration repeats elements")
    # injective homomorphism on the full table
    perms = PermutationGroup(degree)
    seen = set()
    for g in elems:
        if emb[g] in seen:
            raise CertificateError("embedding is not injective")
        seen.add(emb[g])
        for h in elems:
            if perms._mul(emb[g], emb[h]) != emb[g * h]:
                raise CertificateError("embedding violates the multiplication table")
    t, t_inv = cert.solution, perms._inv(cert.solution)
    value = perms._one
    for g, exp in e.terms:
        value = perms._mul(value, emb[g])
        for _ in range(abs(exp)):
            value = perms._mul(value, t if exp > 0 else t_inv)
    return value == perms._one
