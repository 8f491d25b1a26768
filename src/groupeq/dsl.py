"""Line-oriented input DSL: group declarations, named elements and subsets,
equations, generalized equations, and multivariable equations.

Statements:
    group G = free(a, b) | zn(2) | fours | cyclic(6) | finite{0 1; 1 0}
              | perm(3){(1 2), (1 2 3)} | A * B
    let g = G: a b^-1
    set X in G: 0, 1, (2, 3)
    eq E over G: g t a t^-1 = 1
    geq W over G with T: g u a v = 1        (u, v declared over T)
    mveq M over G vars x1, x2: g x1 x2^-1 = 1

Comments start with '#'.  Errors carry line and column positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .backends import (
    FiniteTableGroup,
    FoursGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    Group,
    GroupElement,
    PermutationGroup,
    cyclic_group,
)
from .config import Caps, DEFAULT_CAPS
from .equations import Equation
from .errors import GroupEqError, ParseError
from .freegroup import MultiVarEquation
from .generalized import GeneralizedEquation


@dataclass
class Session:
    caps: Caps = DEFAULT_CAPS
    groups: dict[str, Group] = field(default_factory=dict)
    elements: dict[str, GroupElement] = field(default_factory=dict)
    sets: dict[str, tuple[GroupElement, ...]] = field(default_factory=dict)
    equations: dict[str, Equation] = field(default_factory=dict)
    geqs: dict[str, GeneralizedEquation] = field(default_factory=dict)
    mveqs: dict[str, MultiVarEquation] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)

    def declare(self, kind: str, name: str, line: int) -> None:
        for store in (self.groups, self.elements, self.sets, self.equations, self.geqs, self.mveqs):
            if name in store:
                raise ParseError(f"name {name!r} is already declared", line, 1)
        self.order.append((kind, name))

    def last_of(self, kind: str) -> Optional[str]:
        for k, name in reversed(self.order):
            if k == kind:
                return name
        return None


def _split_top(text: str, sep: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _parse_group_expr(sess: Session, expr: str, line: int) -> Group:
    expr = expr.strip()
    parts = [p.strip() for p in _split_top(expr, "*")]
    if len(parts) > 1:
        return FreeProductGroup(tuple(_parse_group_atom(sess, p, line) for p in parts))
    return _parse_group_atom(sess, parts[0], line)


def _parse_group_atom(sess: Session, expr: str, line: int) -> Group:
    expr = expr.strip()
    if not expr:
        raise ParseError("empty group expression", line, 1)
    if expr in sess.groups:
        return sess.groups[expr]
    try:
        if expr.startswith("free(") and expr.endswith(")"):
            names = [t.strip() for t in expr[5:-1].split(",") if t.strip()]
            if not names:
                raise ValueError("a free group needs at least one generator")
            return FreeGroup(tuple(names))
        if expr.startswith("zn(") and expr.endswith(")"):
            return FreeAbelianGroup(int(expr[3:-1]))
        if expr.startswith("cyclic(") and expr.endswith(")"):
            return cyclic_group(int(expr[7:-1]))
        if expr == "fours":
            return FoursGroup()
        if expr.startswith("finite{") and expr.endswith("}"):
            rows = [r.strip() for r in expr[7:-1].split(";") if r.strip()]
            table = [[int(v) for v in r.replace(",", " ").split()] for r in rows]
            return FiniteTableGroup(table, caps=sess.caps)
        if expr.startswith("perm(") and "{" in expr and expr.endswith("}"):
            head, _, body = expr.partition("{")
            degree = int(head[5:].rstrip(") "))
            body = body[:-1].strip()
            pg = PermutationGroup(degree)
            gens = []
            for lit in _split_top(body, ","):
                lit = lit.strip()
                if lit:
                    gens.append(pg.parse_element(lit).payload)
            return PermutationGroup(degree, gens or None)
        if expr.startswith("perm(") and expr.endswith(")"):
            return PermutationGroup(int(expr[5:-1]))
    except ParseError:
        raise
    except (ValueError, GroupEqError) as exc:
        raise ParseError(f"bad group expression {expr!r}: {exc}", line, 1) from exc
    raise ParseError(f"unknown group expression {expr!r}", line, 1)


def _resolve_element(sess: Session, group: Group, token: str, line: int, col: int) -> GroupElement:
    if token in sess.elements:
        el = sess.elements[token]
        if el.group != group:
            raise ParseError(f"element {token!r} lives in a different group", line, col)
        return el
    try:
        return group.parse_element(token)
    except (ValueError, GroupEqError) as exc:
        raise ParseError(f"cannot read {token!r} as an element: {exc}", line, col) from exc


def _strip_equals_one(tokens: list[str], line: int) -> list[str]:
    if len(tokens) >= 2 and tokens[-2] == "=" and tokens[-1] == "1":
        return tokens[:-2]
    raise ParseError("equation must end with '= 1'", line, 1)


def _parse_eq_body(sess: Session, group: Group, body: str, line: int) -> Equation:
    tokens = _strip_equals_one(_split_top(body, " "), line)
    terms: list[tuple[GroupElement, int]] = []
    coef = group.identity()
    for col, tok in enumerate(tokens, start=1):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "t" or tok.startswith("t^"):
            exp = 1 if tok == "t" else int(tok[2:])
            if exp == 0:
                raise ParseError("t^0 is not a valid occurrence", line, col)
            terms.append((coef, exp))
            coef = group.identity()
        else:
            coef = coef * _resolve_element(sess, group, tok, line, col)
    if not terms:
        raise ParseError("equation has no occurrences of t", line, 1)
    if not coef.is_identity:
        g0, e0 = terms[0]
        terms[0] = (coef * g0, e0)  # fold the trailing constant cyclically
    return Equation(group, tuple(terms))


def _parse_geq_body(
    sess: Session, group: Group, vargroup: Group, body: str, line: int
) -> GeneralizedEquation:
    tokens = _strip_equals_one(_split_top(body, " "), line)
    pairs: list[tuple[GroupElement, GroupElement]] = []
    coef = group.identity()
    for col, tok in enumerate(tokens, start=1):
        tok = tok.strip()
        if not tok:
            continue
        if tok in sess.elements and sess.elements[tok].group == vargroup:
            pairs.append((coef, sess.elements[tok]))
            coef = group.identity()
            continue
        got: Optional[GroupElement] = None
        try:
            got = group.parse_element(tok) if tok not in sess.elements else sess.elements[tok]
        except (ValueError, GroupEqError):
            got = None
        if got is not None and got.group == group:
            coef = coef * got
            continue
        try:
            tval = vargroup.parse_element(tok)
        except (ValueError, GroupEqError) as exc:
            raise ParseError(f"cannot read {tok!r} in G or T: {exc}", line, col) from exc
        pairs.append((coef, tval))
        coef = group.identity()
    if not pairs:
        raise ParseError("generalized equation has no variable entries", line, 1)
    if not coef.is_identity:
        g0, t0 = pairs[0]
        pairs[0] = (coef * g0, t0)
    return GeneralizedEquation(group, vargroup, tuple(pairs))


def _parse_mveq_body(
    sess: Session, group: Group, variables: tuple[str, ...], body: str, line: int
) -> MultiVarEquation:
    tokens = _strip_equals_one(_split_top(body, " "), line)
    terms: list[tuple[GroupElement, str, int]] = []
    coef = group.identity()
    for col, tok in enumerate(tokens, start=1):
        tok = tok.strip()
        if not tok:
            continue
        base, _, exp = tok.partition("^")
        if base in variables:
            terms.append((coef, base, int(exp) if exp else 1))
            coef = group.identity()
        else:
            coef = coef * _resolve_element(sess, group, tok, line, col)
    if not coef.is_identity:
        if not terms:
            raise ParseError("multivariable equation has no variable entries", line, 1)
        g0, v0, e0 = terms[0]
        terms[0] = (coef * g0, v0, e0)
    return MultiVarEquation(group, variables, tuple(terms))


def parse_script(text: str, caps: Caps = DEFAULT_CAPS) -> Session:
    sess = Session(caps=caps)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "group":
                name, _, expr = rest.partition("=")
                name = name.strip()
                _check_name(name, lineno)
                sess.declare("group", name, lineno)
                sess.groups[name] = _parse_group_expr(sess, expr, lineno)
            elif head == "let":
                name, _, expr = rest.partition("=")
                name = name.strip()
                _check_name(name, lineno)
                gname, _, lit = expr.partition(":")
                group = _lookup_group(sess, gname.strip(), lineno)
                sess.declare("element", name, lineno)
                sess.elements[name] = _resolve_element(sess, group, lit.strip(), lineno, 1)
            elif head == "set":
                name, _, expr = rest.partition(" in ")
                name = name.strip()
                _check_name(name, lineno)
                gname, _, lits = expr.partition(":")
                group = _lookup_group(sess, gname.strip(), lineno)
                body = lits.strip()
                if body.startswith("{") and body.endswith("}"):
                    body = body[1:-1]
                elems = []
                for lit in _split_top(body, ","):
                    lit = lit.strip()
                    if lit:
                        elems.append(_resolve_element(sess, group, lit, lineno, 1))
                if not elems:
                    raise ParseError("empty set", lineno, 1)
                sess.declare("set", name, lineno)
                sess.sets[name] = tuple(elems)
            elif head == "eq":
                name, _, expr = rest.partition(" over ")
                name = name.strip()
                _check_name(name, lineno)
                gname, _, body = expr.partition(":")
                group = _lookup_group(sess, gname.strip(), lineno)
                sess.declare("equation", name, lineno)
                sess.equations[name] = _parse_eq_body(sess, group, body.strip(), lineno)
            elif head == "geq":
                name, _, expr = rest.partition(" over ")
                name = name.strip()
                _check_name(name, lineno)
                spec, _, body = expr.partition(":")
                gname, _, tname = spec.partition(" with ")
                group = _lookup_group(sess, gname.strip(), lineno)
                vargroup = _lookup_group(sess, tname.strip(), lineno)
                sess.declare("geq", name, lineno)
                sess.geqs[name] = _parse_geq_body(sess, group, vargroup, body.strip(), lineno)
            elif head == "mveq":
                name, _, expr = rest.partition(" over ")
                name = name.strip()
                _check_name(name, lineno)
                spec, _, body = expr.partition(":")
                gname, _, vspec = spec.partition(" vars ")
                group = _lookup_group(sess, gname.strip(), lineno)
                variables = tuple(v.strip() for v in vspec.split(",") if v.strip())
                if not variables:
                    raise ParseError("mveq needs declared variables", lineno, 1)
                sess.declare("mveq", name, lineno)
                sess.mveqs[name] = _parse_mveq_body(sess, group, variables, body.strip(), lineno)
            else:
                raise ParseError(f"unknown statement {head!r}", lineno, 1)
        except ParseError:
            raise
        except GroupEqError as exc:
            raise ParseError(str(exc), lineno, 1) from exc
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ParseError(f"malformed statement: {exc}", lineno, 1) from exc
    return sess


def _check_name(name: str, line: int) -> None:
    if not name or not all(ch.isalnum() or ch in "_" for ch in name):
        raise ParseError(f"bad name {name!r}", line, 1)
    if name in ("t", "1"):
        raise ParseError(f"name {name!r} is reserved", line, 1)


def _lookup_group(sess: Session, name: str, line: int) -> Group:
    if name in sess.groups:
        return sess.groups[name]
    raise ParseError(f"unknown group {name!r}", line, 1)
