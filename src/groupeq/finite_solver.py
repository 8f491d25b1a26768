"""Brute-force positive evidence: equations over small finite groups solved
inside symmetric groups.

The coefficient group embeds by its right-regular representation; candidate
solutions are enumerated by degree, then lexicographically, pruned by
centralizer conjugations (the word value is conjugation-equivariant in the
candidate).  Absence within the caps is reported, never asserted as
nonexistence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Optional

from .backends import Group, GroupElement
from .config import DEFAULT_CAPS, Caps
from .errors import CertificateError
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


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p first, then q
    return tuple(q[v] for v in p)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _evaluate(e: Equation, emb: dict, t: tuple[int, ...], degree: int) -> tuple[int, ...]:
    ident = tuple(range(degree))
    t_inv = _invert(t)
    out = ident
    for g, exp in e.terms:
        out = _compose(out, emb[g])
        step = t if exp > 0 else t_inv
        for _ in range(abs(exp)):
            out = _compose(out, step)
    return out


def solve_over_finite(
    e: Equation,
    max_degree: Optional[int] = None,
    caps: Caps = DEFAULT_CAPS,
) -> SolverReport:
    """Search S_d for d = |G| .. max_degree for a permutation solving the
    equation under the regular embedding of G."""
    group = e.group
    elems = tuple(group.elements())
    n = len(elems)
    max_degree = caps.max_degree if max_degree is None else max_degree
    tested: list[int] = []
    capped: list[int] = []
    candidates = 0
    index = {x: i for i, x in enumerate(elems)}
    for degree in range(n, max_degree + 1):
        if factorial(degree) > caps.perms_per_degree:
            capped.append(degree)
            continue
        _, emb = regular_embedding(group, degree)
        ident = tuple(range(degree))
        # centralizer generators: left multiplications commute with the
        # right-regular image; padding-point swaps fix it pointwise
        centralizer = [
            tuple([index[g * x] for x in elems] + list(range(n, degree)))
            for g in elems
            if not g.is_identity
        ]
        for i in range(n, degree - 1):
            sw = list(range(degree))
            sw[i], sw[i + 1] = sw[i + 1], sw[i]
            centralizer.append(tuple(sw))
        cent_inv = [(_invert(z), z) for z in centralizer]
        for cand in itertools.permutations(range(degree)):
            candidates += 1
            skip = False
            for zi, z in cent_inv:
                if _compose(_compose(zi, cand), z) < cand:
                    skip = True
                    break
            if skip:
                continue
            if _evaluate(e, emb, cand, degree) == ident:
                cert = SolutionCertificate(
                    degree,
                    elems,
                    tuple(emb[g] for g in elems),
                    cand,
                )
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
    for p in cert.embedding:
        if sorted(p) != list(range(degree)):
            raise CertificateError("embedding image is not a permutation")
    index = {x: i for i, x in enumerate(elems)}
    if len(index) != n:
        raise CertificateError("group enumeration repeats elements")
    # injective homomorphism on the full table
    seen = set()
    for g in elems:
        if emb[g] in seen:
            raise CertificateError("embedding is not injective")
        seen.add(emb[g])
        for h in elems:
            if _compose(emb[g], emb[h]) != emb[g * h]:
                raise CertificateError("embedding violates the multiplication table")
    ident = tuple(range(degree))
    return _evaluate(e, emb, cert.solution, degree) == ident
