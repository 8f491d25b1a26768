"""Generalized equations g_1 t_1 ... g_n t_n = 1 with a variable group T.

Covers the unimodularity verdict (infinite order of the total product,
normality of the cyclic subgroup it generates, strong unique products in the
quotient), the coset rewriting t prod_i g_i^{c_{x_i} t^{k_i}} = 1, the
conjugated family, the K_Y presentations, the windowed solution-group
presentation, and the reduction to an ordinary equation over G x T or G * T.

Variable groups must support coset representatives of <t>; the shipped
backends are free and free abelian groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .backends import (
    DirectProductGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    Group,
    GroupElement,
    Presentation,
    QuotientFreeAbelianGroup,
)
from .errors import (
    EquationError,
    GroupMismatchError,
    InternalError,
    NormalityError,
    UnsupportedBackendError,
    WindowError,
)
from .equations import Equation
from .up import strong_up_check
from .words import copy_name


@dataclass(frozen=True)
class GeneralizedEquation:
    group: Group
    vargroup: Group
    pairs: tuple[tuple[GroupElement, GroupElement], ...]

    def __post_init__(self):
        if not self.pairs:
            raise EquationError("a generalized equation needs at least one pair")
        for g, t in self.pairs:
            if g.group != self.group:
                raise GroupMismatchError("coefficient outside G")
            if t.group != self.vargroup:
                raise GroupMismatchError("variable entry outside T")

    def word_group(self) -> FreeProductGroup:
        return FreeProductGroup((self.group, self.vargroup))

    def word(self) -> GroupElement:
        """The defining word in G * T."""
        items = []
        for g, t in self.pairs:
            items.append((0, g))
            items.append((1, t))
        return self.word_group().word(items)


def total_product(ge: GeneralizedEquation) -> GroupElement:
    out = ge.vargroup.identity()
    for _, t in ge.pairs:
        out = out * t
    return out


# ---------------------------------------------------------------------------
# the unimodularity verdict (Definition 1)


@dataclass(frozen=True)
class Condition:
    status: str  # "yes" | "no" | "unknown"
    detail: str = ""
    witness: Optional[tuple] = None

    @property
    def holds(self) -> bool:
        return self.status == "yes"


@dataclass(frozen=True)
class UnimodularVerdict:
    order_infinite: Condition
    subgroup_normal: Condition
    quotient_strong_up: Condition
    quotient_torsion_free: Condition  # the weak variant
    # "unimodular" when all three conditions hold, else "not-unimodular": a
    # third condition reads "unknown" only once condition 1 or 2 has failed
    overall: str
    weak_overall: str   # the same, with the weak third condition


def _require_coset_backend(T: Group) -> None:
    if not isinstance(T, (FreeGroup, FreeAbelianGroup)):
        raise UnsupportedBackendError(
            f"variable group backend {T.kind} has no <t>-coset support"
        )


def cyclic_subgroup_normal(T: Group, t: GroupElement) -> Condition:
    """Is <t> normal in T?  Checked on generators and their inverses."""
    if isinstance(T, FreeAbelianGroup):
        return Condition("yes", "abelian variable group")
    for s in T.generators():
        for z in (s, ~s):
            tz = t.conj(z)
            # tz == t covers t = 1, where <t> is trivial and normal
            if tz != t and not T.coset_decompose(tz, t)[0].is_identity:
                return Condition(
                    "no",
                    "witness generator conjugates t outside <t>",
                    witness=(z, tz),
                )
    return Condition("yes", "all generator conjugates stay in <t>")


def quotient_strong_up_condition(T: Group, t: GroupElement) -> tuple[Condition, Condition]:
    """(strong-UP condition, torsion-free condition) for T/<t>, t != 1 with
    <t> normal: T is free abelian or free of rank 1, since a nontrivial t
    never generates a normal subgroup of a free group of rank 2 or more.

    The quotient is Z^r/<v>.  Certification is structural: with content 1 it
    is free abelian (or trivial), hence right orderable, hence strong UP.
    Falsification exhibits the finite cyclic torsion subgroup as X = Y and
    verifies by census that strong UP fails on it.
    """
    if isinstance(T, FreeAbelianGroup):
        q = QuotientFreeAbelianGroup(T, t.payload)
    elif isinstance(T, FreeGroup) and T.rank == 1:
        c, k = T.coset_decompose(t, T.gens()[0])
        if not c.is_identity:
            raise InternalError("rank-1 free group element is always a power")
        q = QuotientFreeAbelianGroup(FreeAbelianGroup(1), (k,))
    else:
        raise UnsupportedBackendError(f"no quotient construction for {T.kind}")
    if q.content == 1:
        reason = q.orderable_certificate()
        return (
            Condition("yes", f"certified structurally: {reason}"),
            Condition("yes", reason),
        )
    cyc = q.torsion_witness_sets()
    res = strong_up_check(cyc, cyc)
    if res.holds:
        raise InternalError("finite cyclic subgroup cannot have strong UP")
    strong = Condition(
        "no",
        f"torsion of order {q.content}: X = Y = cyclic subgroup has no "
        "two uniquely decomposable products with distinct Y-factors",
        witness=(cyc, cyc),
    )
    tor = Condition(
        "no",
        f"quotient has an element of order {q.content}",
        witness=(cyc[1],),
    )
    return strong, tor


def unimodular_verdict(ge: GeneralizedEquation) -> UnimodularVerdict:
    T = ge.vargroup
    _require_coset_backend(T)
    t = total_product(ge)
    # T is free or free abelian, hence torsion-free: t has infinite order iff t != 1
    if t.is_identity:
        cond1 = Condition("no", "total product has order 1", witness=(1,))
    else:
        cond1 = Condition("yes", "total product has infinite order")
    cond2 = cyclic_subgroup_normal(T, t) if not t.is_identity else Condition(
        "yes", "trivial subgroup is normal"
    )
    if t.is_identity:
        cond3 = cond3t = Condition("unknown", "degenerate equation: total product is trivial")
    elif cond2.holds:
        cond3, cond3t = quotient_strong_up_condition(T, t)
    else:
        cond3 = cond3t = Condition("unknown", "quotient is not a group when <t> is not normal")

    def overall(third: Condition) -> str:
        return "unimodular" if cond1.holds and cond2.holds and third.holds else "not-unimodular"

    return UnimodularVerdict(cond1, cond2, cond3, cond3t, overall(cond3), overall(cond3t))


# ---------------------------------------------------------------------------
# coset rewriting (equation (2))


@dataclass(frozen=True)
class RewrittenEquation:
    """t prod_i g_i^{c_{x_i} t^{k_i}} = 1 with coset labels x_i.

    Coset labels are the canonical representatives themselves; the identity
    coset is represented by 1.
    """

    group: Group
    vargroup: Group
    t: GroupElement
    terms: tuple[tuple[GroupElement, GroupElement, int], ...]  # (g_i, c_{x_i}, k_i)

    def word_group(self) -> FreeProductGroup:
        return FreeProductGroup((self.group, self.vargroup))

    def coset_reps(self) -> tuple[GroupElement, ...]:
        seen: list[GroupElement] = []
        for _, c, _ in self.terms:
            if c not in seen:
                seen.append(c)
        return tuple(sorted(seen, key=self.vargroup.sort_key))

    def expansion(self) -> GroupElement:
        """The word in G * T that this rewriting stands for."""
        G1 = self.word_group()
        out = G1.embed(1, self.t)
        for g, c, k in self.terms:
            e = c * self.t ** k
            out = out * G1.embed(1, ~e) * G1.embed(0, g) * G1.embed(1, e)
        return out


def _merged_pairs(ge: GeneralizedEquation) -> list[tuple[GroupElement, GroupElement]]:
    """Merge interior pairs with identity t_i into the next coefficient.

    A trailing identity entry is kept as its own pair: its suffix product is
    trivial, so it lands in the identity coset with exponent 0 and the
    expansion identity stays exact.
    """
    pairs: list[tuple[GroupElement, GroupElement]] = []
    carry = ge.group.identity()
    for g, t in ge.pairs:
        g = carry * g
        carry = ge.group.identity()
        if t.is_identity:
            carry = g
        else:
            pairs.append((g, t))
    if not pairs:
        raise EquationError("degenerate generalized equation: every t_i is trivial")
    if not carry.is_identity:
        pairs.append((carry, ge.vargroup.identity()))
    return pairs


def coset_rewrite(ge: GeneralizedEquation) -> RewrittenEquation:
    """Rewrite g_1 t_1 ... g_n t_n = 1 as t prod_i g_i^{c_{x_i} t^{k_i}} = 1.

    Uses the suffix products s_i = t_i ... t_n and the backend's canonical
    coset representatives; the expansion identity is exact in G * T.
    """
    T = ge.vargroup
    _require_coset_backend(T)
    t = total_product(ge)
    if t.is_identity:
        raise EquationError("coset rewriting needs a nontrivial total product")
    pairs = _merged_pairs(ge)
    suffix = [T.identity()]
    for _, ti in reversed(pairs):
        suffix.append(ti * suffix[-1])
    suffix = list(reversed(suffix[1:]))  # suffix[i] = t_i ... t_n
    terms = []
    for (g, _), s in zip(pairs, suffix):
        c, k = T.coset_decompose(s, t)
        terms.append((g, c, k))
    re = RewrittenEquation(ge.group, T, t, tuple(terms))
    if re.expansion() != ge.word():
        raise InternalError("coset rewriting failed the expansion identity")
    return re


def conjugate_family(re: RewrittenEquation, xs: Sequence[GroupElement]) -> tuple[RewrittenEquation, ...]:
    """The members w_x of the conjugated family, one per coset label x in xs.

    Requires <t> normal in T.  The variable groups with coset support are free
    and free abelian, where <t> is normal only when conjugation fixes t (a
    free group never conjugates t to t^-1), so every member keeps the leading t.
    """
    T = re.vargroup
    if not cyclic_subgroup_normal(T, re.t).holds:
        raise NormalityError("the conjugated family needs <t> normal in T")
    family = []
    for x in xs:
        c_x, _ = T.coset_decompose(x, re.t)
        terms = []
        for g, c, k in re.terms:
            e = c * re.t ** k * c_x
            c_f, l = T.coset_decompose(e, re.t)
            if c_f * re.t ** l != e:
                raise InternalError("coset decomposition failed")
            terms.append((g, c_f, l))
        family.append(RewrittenEquation(re.group, T, re.t, tuple(terms)))
    return tuple(family)


# ---------------------------------------------------------------------------
# presentations: K_Y and the windowed solution group


def _label(T: Group, c: GroupElement) -> str:
    """Spelling of a coset representative inside generator names.

    It has no whitespace and no '^', so the names parse back from the text
    format, and differs for different representatives: a free-group word
    reads x.y(-3) for x y^-3, a vector reads (1,-2).
    """
    if isinstance(T, FreeGroup):
        return ".".join(nm if e == 1 else f"{nm}({e})" for nm, e in T.express(c)) or "1"
    return T.format_element(c).replace(" ", "")


def _ky_copies(re: RewrittenEquation, Y: Sequence[GroupElement]) -> list[GroupElement]:
    """The coset representatives of X_1 Y, sorted: one copy of G in K_Y each."""
    T, x1 = re.vargroup, re.coset_reps()
    copies: list[GroupElement] = []
    for y in Y:
        c_y, _ = T.coset_decompose(y, re.t)
        for c in x1:
            cf, _ = T.coset_decompose(c * c_y, re.t)
            if cf not in copies:
                copies.append(cf)
    copies.sort(key=T.sort_key)
    return copies


def emit_ky(
    re: RewrittenEquation,
    Y: Sequence[GroupElement],
    witness_var: str = "t~",
) -> Presentation:
    """K_Y: one copy of G per coset in X_1 Y, one letter, and one relator
    per coset of <t> that meets Y (conjugating by y and by y t^k gives the
    same relator).

    Copies come in copy order (sorted coset representatives), each copy's
    generators and relators together: G's presentation renamed name@label.
    The copies' relators come before the family relators.
    """
    T, G = re.vargroup, re.group
    firsts: dict[GroupElement, GroupElement] = {}
    for y in Y:
        firsts.setdefault(T.coset_decompose(y, re.t)[0], y)
    family = conjugate_family(re, list(firsts.values()))
    gpres = G.presentation
    copies = [(gpres, {nm: copy_name(nm, _label(T, c)) for nm in gpres.generators}) for c in _ky_copies(re, Y)]
    rels = []
    for w_y in family:
        word = [(witness_var, 1)]
        for g, c, k in w_y.terms:
            lbl = _label(T, c)
            word += [(witness_var, -k), *((copy_name(nm, lbl), e) for nm, e in G.express(g)), (witness_var, k)]
        rels.append(word)
    return Presentation.join(copies + [Presentation((witness_var,), ())], rels)


def emit_solution_group(
    re: RewrittenEquation,
    Y: Sequence[GroupElement],
    window: int = 1,
    witness_var: str = "t~",
) -> Presentation:
    """Windowed presentation of (T x| K) / <t~ t^-1>.

    The parts are T's presentation and K_Y (its copies of G, each with G's
    relators, in copy order, then the extra letter); after their relators
    come the action relators for T's generators (window >= 1; window 0
    drops them) and t~ t^-1.  The window is read only as 0 or >= 1: the
    copies are always those of X_1 Y, never widened, so every window from 1
    up gives the same presentation.  K_Y is built first, so a <t> that is
    not normal raises NormalityError before the action is read; a normal
    <t> is fixed by every generator.  Raises WindowError when the action
    leaves the emitted copies.
    """
    T, G = re.vargroup, re.group
    ky = emit_ky(re, Y, witness_var)
    gnames = G.presentation.generators
    # a G without generators emits no copies, so the action has none to move
    copies = _ky_copies(re, Y) if gnames else []
    rels = []
    for y in T.generators() if window >= 1 else ():
        y_word = T.express(y)
        y_inv = [(nm, -e) for nm, e in reversed(y_word)]
        rels.append([*y_inv, (witness_var, 1), *y_word, (witness_var, -1)])
        for c in copies:
            cf, k = T.coset_decompose(c * y, re.t)
            lbl, f_lbl = _label(T, c), _label(T, cf)
            if cf not in copies:
                raise WindowError(f"action moves copy {lbl} to {f_lbl}, outside the emitted window")
            for nm in gnames:
                g_x, g_f = copy_name(nm, lbl), copy_name(nm, f_lbl)
                rels.append([*y_inv, (g_x, 1), *y_word, (witness_var, -k), (g_f, -1), (witness_var, k)])
    rels.append([(witness_var, 1), *((nm, -e) for nm, e in reversed(T.express(re.t)))])
    return Presentation.join((T.presentation, ky), rels)


# ---------------------------------------------------------------------------
# reduction to an ordinary equation


# the ambient G_1 of the reduction, by its name
_AMBIENTS = {"free-product": FreeProductGroup, "direct-product": DirectProductGroup}


def reduce_to_ordinary(ge: GeneralizedEquation, ambient_choice: str = "free-product") -> Equation:
    """The Levin reduction: v(G_1, t) = w(G_1, t^-1 T t) over G_1.

    G_1 is G x T or G * T; the t_i become constants and the single variable t
    Conjugates them, so the terms alternate (g_i, -1), (t_i, +1).
    """
    if ambient_choice not in _AMBIENTS:
        raise ValueError("ambient_choice must be 'free-product' or 'direct-product'")
    G1 = _AMBIENTS[ambient_choice]((ge.group, ge.vargroup))
    terms: list[tuple[GroupElement, int]] = []
    for g, t in ge.pairs:
        terms.append((G1.embed(0, g), -1))
        terms.append((G1.embed(1, t), +1))
    return Equation(G1, tuple(terms))


def induced_ordinary(ge: GeneralizedEquation) -> Equation:
    """For an infinite-cyclic variable group, the ordinary equation obtained
    by identifying each t_i with a power of the single variable.

    This is the identification under which generalized solvability coincides
    with ordinary solvability, and generalized unimodularity with |sigma| = 1.
    """
    T = ge.vargroup
    if not (isinstance(T, (FreeGroup, FreeAbelianGroup)) and T.rank == 1):
        raise UnsupportedBackendError("induced ordinary form needs T infinite cyclic")
    gen = T.generators()[0]
    pairs = _merged_pairs(ge)
    if pairs[-1][1].is_identity:
        # a trailing coefficient folds cyclically into the first term
        carry, _ = pairs.pop()
        pairs[0] = (carry * pairs[0][0], pairs[0][1])
    terms: list[tuple[GroupElement, int]] = []
    for g, t in pairs:
        c, k = T.coset_decompose(t, gen)
        if not c.is_identity:
            raise InternalError("rank-1 element is always a power of the generator")
        terms.append((g, k))
    return Equation(ge.group, tuple(terms))
