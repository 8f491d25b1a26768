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

Every statement declares one name, unique across kinds.  Comments start
with '#'.  Errors carry line and column positions.
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
    # every declaration in script order: name -> (kind, value); a name is
    # unique across kinds
    names: dict[str, tuple[str, object]] = field(default_factory=dict)

    def get(self, kind: str, name: Optional[str] = None):
        """The declared `kind` named `name`, or the last one declared when
        `name` is None."""
        if name is None:
            for k, value in reversed(self.names.values()):
                if k == kind:
                    return value
            raise GroupEqError(f"the script declares no {kind}")
        value = _declared(self, kind, name)
        if value is None:
            raise GroupEqError(f"no declared {kind} named {name!r}")
        return value


def _declared(sess: Session, kind: str, name: str):
    """The declared `kind` named `name`, or None."""
    k, value = sess.names.get(name, (None, None))
    return value if k == kind else None


def _split_top(text: str, sep: str) -> list[str]:
    """`text` split at each `sep` outside brackets."""
    if not any(b in text for b in "({[)}]"):
        return text.split(sep)
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
    parts = _split_top(expr, "*")
    if len(parts) > 1:
        return FreeProductGroup(tuple(_parse_group_expr(sess, p, line) for p in parts))
    expr = expr.strip()
    if not expr:
        raise ParseError("empty group expression", line, 1)
    group = _declared(sess, "group", expr)
    if group is not None:
        return group
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
            gens = [pg.parse_element(lit.strip()).payload for lit in _split_top(body, ",") if lit.strip()]
            return PermutationGroup(degree, gens or None)
        if expr.startswith("perm(") and expr.endswith(")"):
            return PermutationGroup(int(expr[5:-1]))
    except ParseError:
        raise
    except (ValueError, GroupEqError) as exc:
        raise ParseError(f"bad group expression {expr!r}: {exc}", line, 1) from exc
    raise ParseError(f"unknown group expression {expr!r}", line, 1)


def _resolve_element(sess: Session, group: Group, token: str, line: int, col: int) -> GroupElement:
    el = _declared(sess, "element", token)
    if el is not None:
        if el.group != group:
            raise ParseError(f"element {token!r} lives in a different group", line, col)
        return el
    try:
        return group.parse_element(token)
    except (ValueError, GroupEqError) as exc:
        raise ParseError(f"cannot read {token!r} as an element: {exc}", line, col) from exc


def _terms(group: Group, body: str, line: int, read, empty: str, empty_ok: bool = False) -> tuple:
    """The (coefficient, variable) pairs of `body`, a space-separated product
    ending in '= 1': each variable comes with the product of the coefficients
    before it, and the coefficients after the last variable fold cyclically
    into the first pair.  `read(token, column)` gives (coefficient, None) or
    (None, variable).  With no variable `empty` is the error, unless
    `empty_ok` and there is no coefficient either."""
    tokens = _split_top(body.strip(), " ")
    if tokens[-2:] != ["=", "1"]:
        raise ParseError("equation must end with '= 1'", line, 1)
    pairs: list[tuple[GroupElement, object]] = []
    coef = group.identity()
    for col, tok in enumerate(tokens[:-2], start=1):
        tok = tok.strip()
        if not tok:
            continue
        g, var = read(tok, col)
        if var is None:
            coef = coef * g
        else:
            pairs.append((coef, var))
            coef = group.identity()
    if not pairs and not (empty_ok and coef.is_identity):
        raise ParseError(empty, line, 1)
    if not coef.is_identity:
        pairs[0] = (coef * pairs[0][0], pairs[0][1])
    return tuple(pairs)


# Each statement reader gets the session, the text after the declared name
# and the line; it checks what comes before the duplicate-name check and
# returns a function that reads the declared value.


def _group(sess: Session, rest: str, line: int):
    return lambda: _parse_group_expr(sess, rest, line)


def _let(sess: Session, rest: str, line: int):
    gname, _, lit = rest.partition(":")
    group = _lookup_group(sess, gname, line)
    return lambda: _resolve_element(sess, group, lit.strip(), line, 1)


def _set(sess: Session, rest: str, line: int):
    gname, _, body = rest.partition(":")
    group = _lookup_group(sess, gname, line)
    body = body.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    elems = tuple(_resolve_element(sess, group, lit.strip(), line, 1) for lit in _split_top(body, ",") if lit.strip())
    if not elems:
        raise ParseError("empty set", line, 1)
    return lambda: elems


def _eq(sess: Session, rest: str, line: int):
    gname, _, body = rest.partition(":")
    group = _lookup_group(sess, gname, line)

    def read(tok: str, col: int):
        if tok != "t" and not tok.startswith("t^"):
            return _resolve_element(sess, group, tok, line, col), None
        exp = 1 if tok == "t" else int(tok[2:])
        if exp == 0:
            raise ParseError("t^0 is not a valid occurrence", line, col)
        return None, exp

    return lambda: Equation(group, _terms(group, body, line, read, "equation has no occurrences of t"))


def _geq(sess: Session, rest: str, line: int):
    spec, _, body = rest.partition(":")
    gname, _, tname = spec.partition(" with ")
    group, vargroup = _lookup_group(sess, gname, line), _lookup_group(sess, tname, line)

    def read(tok: str, col: int):
        # a declared element of T is a variable entry, then anything G reads
        # is a coefficient, and T reads the rest
        el = _declared(sess, "element", tok)
        if el is not None and el.group == vargroup:
            return None, el
        try:
            got = group.parse_element(tok) if el is None else el
        except (ValueError, GroupEqError):
            got = None
        if got is not None and got.group == group:
            return got, None
        try:
            return None, vargroup.parse_element(tok)
        except (ValueError, GroupEqError) as exc:
            raise ParseError(f"cannot read {tok!r} in G or T: {exc}", line, col) from exc

    empty = "generalized equation has no variable entries"
    return lambda: GeneralizedEquation(group, vargroup, _terms(group, body, line, read, empty))


def _mveq(sess: Session, rest: str, line: int):
    spec, _, body = rest.partition(":")
    gname, _, vspec = spec.partition(" vars ")
    group = _lookup_group(sess, gname, line)
    variables = tuple(v.strip() for v in vspec.split(",") if v.strip())
    if not variables:
        raise ParseError("mveq needs declared variables", line, 1)

    def read(tok: str, col: int):
        base, _, exp = tok.partition("^")
        if base in variables:
            return None, (base, int(exp) if exp else 1)
        return _resolve_element(sess, group, tok, line, col), None

    def value() -> MultiVarEquation:
        pairs = _terms(group, body, line, read, "multivariable equation has no variable entries", empty_ok=True)
        return MultiVarEquation(group, variables, tuple((g, v, e) for g, (v, e) in pairs))

    return value


# statement keyword: (kind declared, separator after the name, reader)
_STATEMENTS = {
    "group": ("group", "=", _group),
    "let": ("element", "=", _let),
    "set": ("set", " in ", _set),
    "eq": ("equation", " over ", _eq),
    "geq": ("geq", " over ", _geq),
    "mveq": ("mveq", " over ", _mveq),
}


def parse_script(text: str, caps: Caps = DEFAULT_CAPS) -> Session:
    sess = Session(caps=caps)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head not in _STATEMENTS:
                raise ParseError(f"unknown statement {head!r}", lineno, 1)
            kind, sep, reader = _STATEMENTS[head]
            name, _, rest = rest.partition(sep)
            name = name.strip()
            if not name or not all(ch.isalnum() or ch == "_" for ch in name):
                raise ParseError(f"bad name {name!r}", lineno, 1)
            if name in ("t", "1"):
                raise ParseError(f"name {name!r} is reserved", lineno, 1)
            value = reader(sess, rest, lineno)
            if name in sess.names:
                raise ParseError(f"name {name!r} is already declared", lineno, 1)
            sess.names[name] = (kind, value())
        except ParseError:
            raise
        except GroupEqError as exc:
            raise ParseError(str(exc), lineno, 1) from exc
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ParseError(f"malformed statement: {exc}", lineno, 1) from exc
    return sess


def _lookup_group(sess: Session, name: str, line: int) -> Group:
    name = name.strip()
    group = _declared(sess, "group", name)
    if group is None:
        raise ParseError(f"unknown group {name!r}", line, 1)
    return group
