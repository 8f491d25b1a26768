"""Ordinary equations over a group: classification and the minimal normal form.

An equation is a coefficient-exponent sequence over a backend G; its word
lives in G * <t>, a free product G split into its factors.  Over a split
G = H * K the unimodular normal form

    c t b_1 t^-1 a_1 t ... b_n t^-1 a_n t = 1

is computed with m (the K-copy window) minimal first and n minimal second.
The construction works in G * <t> viewed as an HNN extension with stable
letter t over the base H-bar * K_0 * ... * K_m: cyclic pinch reduction
("window shifting plus merging") yields the canonical t-pattern, whose shape
decides between the length-one case t = u and the normal form, and whose
pieces are the c, a_i, b_i.  An independent rotation/shift minimizer is
provided as the desk-scale verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, Optional, Sequence

from .backends import FreeGroup, FreeProductGroup, Group, GroupElement, Presentation
from .errors import (
    EquationError,
    EquationOverFactorError,
    GroupMismatchError,
    InternalError,
    SigmaError,
    WindowError,
)
from .words import copy_name, in_subfreeproduct

T_LETTER = "t"
# the infinite cyclic group of the unknown, the last factor of an equation's word
T = FreeGroup((T_LETTER,))

SINGULAR = "singular"
NONSINGULAR = "nonsingular"
UNIMODULAR = "unimodular"


# ---------------------------------------------------------------------------
# equations and classification


@dataclass(frozen=True)
class Equation:
    """g_1 t^{e_1} ... g_n t^{e_n} = 1 with constants from one backend, whose
    word lives in the refined group.

    The refined word, its cyclic core and the inverted equation are built on
    first use and kept; none of them refers back to the equation, so dropping
    it frees them at once.  Splits are not kept: the normal form and its
    oracle check the split each time they prepare the equation.  Copies and
    pickles carry the two fields only.
    """

    group: Group
    terms: tuple[tuple[GroupElement, int], ...]

    def __post_init__(self):
        if not self.terms:
            raise EquationError("an equation needs at least one term")
        for g, e in self.terms:
            if g.group != self.group:
                raise GroupMismatchError("coefficient outside the equation's group")
            if e == 0:
                raise EquationError("exponents must be nonzero")

    def __getstate__(self) -> dict:
        return {"group": self.group, "terms": self.terms}

    def refined_group(self) -> FreeProductGroup:
        """H_1 * ... * H_k * T for G = H_1 * ... * H_k, and G * T for any
        other G; one group object per G."""
        return _refined_group(self.group)

    def refined_word(self) -> GroupElement:
        """The word g_1 t^{e_1} ... g_n t^{e_n} of the refined group."""
        return self._refined

    @cached_property
    def _refined(self) -> GroupElement:
        if isinstance(self.group, FreeProductGroup):
            terms = [(g.payload, e) for g, e in self.terms]
        else:
            terms = [(() if g.is_identity else ((0, g),), e) for g, e in self.terms]
        return _t_word(self.refined_group(), terms)

    @cached_property
    def _core(self) -> GroupElement:
        """The cyclically reduced core of the refined word."""
        w = self._refined
        return w.group.cyclically_reduce(w)[0]

    def exponent_sum(self) -> int:
        return sum(e for _, e in self.terms)

    def inverted(self) -> "Equation":
        """A conjugate of the inverse word, back in coefficient-exponent form:
        (g_1^-1, -e_n), (g_n^-1, -e_{n-1}), ..., (g_2^-1, -e_1)."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "Equation":
        rebuilt = [(~self.terms[0][0], -self.terms[-1][1])]
        for j in range(len(self.terms) - 1, 0, -1):
            rebuilt.append((~self.terms[j][0], -self.terms[j - 1][1]))
        return Equation(self.group, tuple(rebuilt))


@cache
def _refined_group(group: Group) -> FreeProductGroup:
    factors = group.factors if isinstance(group, FreeProductGroup) else (group,)
    return FreeProductGroup(factors + (T,))


@cache
def _t_power(k: int) -> GroupElement:
    return GroupElement(T, ((0, k),) if k else ())


@cache
def _t_in(group: FreeProductGroup) -> GroupElement:
    """The letter t of a group whose last factor is T."""
    return GroupElement(group, ((len(group.factors) - 1, _t_power(1)),))


def _t_exponent(val: GroupElement) -> int:
    """k for the value t^k of a T-syllable."""
    return val.payload[0][1]


def _t_word(group: FreeProductGroup, terms: Sequence[tuple[tuple, int]]) -> GroupElement:
    """c_1 t^{e_1} ... c_n t^{e_n} in group, whose last factor is T, from
    coefficient payloads c_i and nonzero e_i.

    The syllables are already reduced unless an interior coefficient is
    trivial and two powers of t meet, so only then is the word re-reduced.
    """
    ti = len(group.factors) - 1
    sylls: list = []
    for c, e in terms:
        sylls.extend(c)
        sylls.append((ti, _t_power(e)))
    if all(c for c, _ in terms[1:]):
        return GroupElement(group, tuple(sylls))
    return GroupElement(group, group._normal(sylls))


@dataclass(frozen=True)
class Classification:
    length: int
    exponent_sum: int
    kind: str
    trivial: bool


def classify(e: Equation) -> Classification:
    w = e.refined_word()
    ti = len(w.group.factors) - 1
    sigma = e.exponent_sum()
    length = sum(abs(_t_exponent(v)) for i, v in w.payload if i == ti)
    if sigma == 0:
        kind = SINGULAR
    elif sigma in (1, -1):
        kind = UNIMODULAR
    else:
        kind = NONSINGULAR
    return Classification(length, sigma, kind, in_subfreeproduct(e._core, range(ti)))


def universal_solution_group(e: Equation) -> Presentation:
    """Presentation of U = G * <t>_infty / <<w>>."""
    items: list[tuple[str, int]] = []
    for g, exp in e.terms:
        items.extend(e.group.express(g))
        items.append((T_LETTER, exp))
    return Presentation.join((e.group.presentation, T.presentation), [items])


# ---------------------------------------------------------------------------
# splits and levels


@dataclass(frozen=True)
class Split:
    """Partition of the factors of G = H * K by factor index."""

    h: frozenset[int]
    k: frozenset[int]

    @staticmethod
    def of(group: FreeProductGroup, h: Sequence[int], k: Optional[Sequence[int]] = None) -> "Split":
        all_idx = set(range(len(group.factors)))
        hs = frozenset(h)
        ks = frozenset(k) if k is not None else frozenset(all_idx - hs)
        if hs | ks != all_idx or hs & ks:
            raise EquationError("split must partition the factor indices")
        if not ks:
            raise EquationError("the K side of the split must be nonempty")
        return Split(hs, ks)


def _leveled(w: GroupElement) -> Iterator[tuple[int, int, GroupElement]]:
    """(level, factor, element) for each factor syllable of w, a word of a
    group whose last factor is T.

    The level is minus the t-exponent sum before the syllable, so w is
    prod t^-level x t^level over its factor syllables x, and adjacent
    syllables of a reduced word differ in (level, factor).
    """
    ti = len(w.group.factors) - 1
    lvl = 0
    for src, val in w.payload:
        if src == ti:
            lvl -= _t_exponent(val)
        else:
            yield lvl, src, val


def _in_window(word: GroupElement, split: Split, lo: int, hi: int) -> bool:
    """Membership in H-bar * K_lo * ... * K_hi (syllable inspection)."""
    return all(lo <= l <= hi for l, fi, _ in _leveled(word) if fi in split.k)


# ---------------------------------------------------------------------------
# the cyclic HNN word and its pinch reduction


def _pinch(letters: list[int], pieces: list[GroupElement], split: Split, m: int) -> None:
    """Pinch the cyclic word t^{d_0} p_0 t^{d_1} p_1 ... over the base H-bar *
    K_0..K_m in place: t^-1 p t with p in A = H-bar * K_0..K_{m-1}, or t p t^-1
    with p in B = A^t, merges into its neighbours until none is left.  Pieces
    are refined words of t-exponent sum 0; shifting by d conjugates by t^d."""
    if len(letters) != len(pieces):
        raise InternalError("letters and pieces must alternate")
    t = _t_in(pieces[0].group)
    while len(letters) > 1:
        r = len(letters)
        for j in range(r):
            nxt = (j + 1) % r
            if letters[j] == -1 and letters[nxt] == 1 and _in_window(pieces[j], split, 0, m - 1):
                shift = t
                break
            if letters[j] == 1 and letters[nxt] == -1 and _in_window(pieces[j], split, 1, m):
                shift = ~t
                break
        else:
            return
        prev = (j - 1) % r
        if prev == nxt:
            raise InternalError("pinch on a two-letter word; exponent sum parity broken")
        pieces[prev] = pieces[prev] * pieces[j].conj(shift) * pieces[nxt]
        for idx in sorted((j, nxt), reverse=True):
            del letters[idx]
            del pieces[idx]


def _pattern_shape(letters: list[int]) -> str:
    """'length-one' | 'form6' | 'other' for the cyclic letter pattern."""
    r = len(letters)
    if r == 1:
        return "length-one"
    pp = sum(1 for j in range(r) if letters[j] == 1 and letters[(j + 1) % r] == 1)
    mm = sum(1 for j in range(r) if letters[j] == -1 and letters[(j + 1) % r] == -1)
    return "form6" if pp == 1 and mm == 0 else "other"


def _initial_hnn(core: GroupElement) -> tuple[list[int], list[GroupElement], GroupElement]:
    """The t letters (+-1) of the cyclic core from its first t on, each with
    the piece of factor syllables that follows it, and that rotation of the
    core.  A rotation of a cyclically reduced word is reduced, so the pieces
    are too."""
    group = core.group
    tsrc = len(group.factors) - 1
    sylls = core.payload
    ti = next((i for i, (s, _) in enumerate(sylls) if s == tsrc), None)
    if ti is None:
        raise InternalError("core word has no t letters")
    rot = sylls[ti:] + sylls[:ti]
    letters: list[int] = []
    pieces: list[list] = []
    for src, val in rot:
        if src == tsrc:
            k = _t_exponent(val)
            s = 1 if k > 0 else -1
            for _ in range(abs(k)):
                letters.append(s)
                pieces.append([])
        else:
            pieces[-1].append((src, val))
    return letters, [GroupElement(group, tuple(p)) for p in pieces], GroupElement(group, rot)


@dataclass(frozen=True)
class SideConditions:
    length_at_least_two: bool
    a_outside_smaller_window: tuple[bool, ...]
    b_outside_shifted_window: tuple[bool, ...]
    transcendence_note: str

    @property
    def all_pass(self) -> bool:
        return (
            self.length_at_least_two
            and all(self.a_outside_smaller_window)
            and all(self.b_outside_shifted_window)
        )


@dataclass(frozen=True)
class Form6:
    """Minimal expression c t prod_i b_i t^-1 a_i t of a unimodular equation."""

    m: int
    n: int
    c: GroupElement  # pieces are words of the refined group
    pairs: tuple[tuple[GroupElement, GroupElement], ...]  # (b_i, a_i)
    split: Split
    equation: Equation
    sigma_inverted: bool
    side_conditions: SideConditions

    def expand(self) -> GroupElement:
        t = _t_in(self.c.group)
        out = self.c * t
        for b, a in self.pairs:
            out = out * b * (~t) * a * t
        return out


@dataclass(frozen=True)
class LengthOneForm:
    """The degenerate branch: the equation rewrites as t = u over H-bar * K."""

    m: int
    u: GroupElement  # a word of the refined group
    equation: Equation
    sigma_inverted: bool


@dataclass(frozen=True)
class NormalFormResult:
    kind: str  # "form6" | "length-one"
    form6: Optional[Form6] = None
    length_one: Optional[LengthOneForm] = None


def _prepare(e: Equation, split: Split) -> tuple[Equation, bool]:
    """(the equation with exponent sum +1 that e stands for, whether that is
    e inverted), after checking the split against it."""
    sigma = e.exponent_sum()
    if sigma == -1:
        base, inverted = e.inverted(), True
    elif sigma == 1:
        base, inverted = e, False
    else:
        raise SigmaError(f"normal form needs exponent sum +-1, got {sigma}")
    _check_split(base, split)
    return base, inverted


def _check_split(e: Equation, split: Split) -> None:
    if not isinstance(e.group, FreeProductGroup):
        raise EquationError("normal form needs a free-product coefficient group")
    if split.h | split.k != set(range(len(e.group.factors))):
        raise EquationError("split does not match the group's factors")
    if in_subfreeproduct(e._core, set(split.h) | {len(e.group.factors)}):
        raise EquationOverFactorError("the word is conjugate into H * <t>")


def _leveled_span(word: GroupElement, split: Split) -> int:
    lvls = [l for l, fi, _ in _leveled(word) if fi in split.k]
    if not lvls:
        raise InternalError("no K syllables after the over-H check")
    return max(lvls) - min(lvls)


def normal_form_6(e: Equation, split: Split) -> NormalFormResult:
    """Minimal (m, then n) expression of a unimodular equation over H * K.

    Returns the length-one certificate t = u when the reduced expression has
    a single t, and the Form6 data otherwise.  Minimality over all conjugate
    expressions follows from the invariance of the reduced cyclic t-pattern;
    `bruteforce_min_form6` is the independent exhaustive check.
    """
    e, inverted = _prepare(e, split)
    letters0, pieces0, rot = _initial_hnn(e._core)
    if sum(letters0) != 1:
        raise InternalError("exponent sum deviated from +1")
    span = _leveled_span(rot, split)

    result: Optional[NormalFormResult] = None
    for m in range(span + 1):
        letters, pieces = list(letters0), list(pieces0)
        _pinch(letters, pieces, split, m)
        shape = _pattern_shape(letters)
        if shape == "length-one":
            if m != 0:
                raise InternalError("length-one pattern first appeared with m > 0")
            u = ~pieces[0]
            lf = LengthOneForm(m, u, e, inverted)
            _check_expansion_length_one(lf)
            result = NormalFormResult("length-one", length_one=lf)
            break
        if shape == "form6":
            result = NormalFormResult("form6", form6=_extract_form6(letters, pieces, e, split, inverted, m))
            break
    if result is None:
        raise InternalError("no expressible window up to the leveled span")
    return result


def _extract_form6(letters: list, pieces: list, e: Equation, split: Split, inverted: bool, m: int) -> Form6:
    r = len(letters)
    n = (r - 1) // 2
    anchor = next(
        j for j in range(r) if letters[j] == 1 and letters[(j + 1) % r] == 1
    )
    c = pieces[anchor]
    pairs = []
    pos = (anchor + 1) % r
    for _ in range(n):
        b = pieces[pos]
        a = pieces[(pos + 1) % r]
        if letters[pos] != 1 or letters[(pos + 1) % r] != -1:
            raise InternalError("pattern extraction misaligned")
        pairs.append((b, a))
        pos = (pos + 2) % r
    a_ok = tuple(not _in_window(a, split, 0, m - 1) for _, a in pairs)
    b_ok = tuple(not _in_window(b, split, 1, m) for b, _ in pairs)
    side = SideConditions(
        length_at_least_two=n >= 1,
        a_outside_smaller_window=a_ok,
        b_outside_shifted_window=b_ok,
        transcendence_note="implied by the membership conditions",
    )
    if not side.all_pass:
        raise InternalError("reduced pieces violate the membership conditions")
    f = Form6(m, n, c, tuple(pairs), split, e, inverted, side)
    w = e.refined_word()
    if not w.group.are_conjugate(f.expand(), w):
        raise InternalError("expansion is not conjugate to the input word")
    return f


def _check_expansion_length_one(lf: LengthOneForm) -> None:
    group = lf.equation.refined_group()
    expansion = _t_in(group) * ~lf.u
    if not group.are_conjugate(expansion, lf.equation.refined_word()):
        raise InternalError("length-one expansion is not conjugate to the input word")


# ---------------------------------------------------------------------------
# the exhaustive desk-scale minimizer (independent oracle)


def _rotation_strings(e: Equation) -> list[list[tuple[int, int, GroupElement]]]:
    """Leveled strings of t^-1 * (rotation of the cyclic core), one per
    factor-syllable anchor; t-anchored rotations are shift-equivalent."""
    tsrc = len(e.group.factors)
    sylls = e._core.payload
    out = []
    for i, (src, _) in enumerate(sylls):
        if src == tsrc:
            continue
        rot = sylls[i:] + sylls[:i]
        cum = 0
        string = []
        for s, v in rot:
            if s == tsrc:
                cum += _t_exponent(v)
            else:
                string.append((-cum, s, v))
        out.append(string)
    return out


def _min_blocks(string: list, split: Split, delta: int, m: int) -> Optional[int]:
    """Minimal number of S-minus runs over block assignments, or None."""
    INF = 10 ** 9
    dp0, dp1 = 0, 1  # start in c (cost 0) or with empty c in b_1 (cost 1)
    for lvl, fi, _ in string:
        l = lvl + delta
        adm0 = fi in split.h or 0 <= l <= m
        adm1 = fi in split.h or -1 <= l <= m - 1
        n0 = min(dp0, dp1) if adm0 else INF
        n1 = min(dp1, dp0 + 1) if adm1 else INF
        dp0, dp1 = n0, n1
        if dp0 >= INF and dp1 >= INF:
            return None
    best = min(dp0, dp1)
    return best if best < INF else None


ORACLE_MAX_M = 16
ORACLE_MAX_N = 32


def bruteforce_min_form6(e: Equation, split: Split) -> Optional[tuple[int, int]]:
    """Exhaustive lexicographic minimum of (m, n) over all expressions with
    m <= ORACLE_MAX_M and n <= ORACLE_MAX_N, or None when there is none.
    The reach, 16 and 32, judges every seeded word of 9-60 letters the tests
    draw (they reach m = 12); a word with n > 32 has more than 65 letters.

    Enumerates every rotation of the cyclic word, every window shift, and
    every block assignment of syllables to the c/a_i (window [0, m]) and
    b_i^(t^-1) (window [-1, m-1]) slots; (m, 0) encodes the length-one case.
    """
    base, _ = _prepare(e, split)
    spans = []  # (string, lowest K level, highest K level)
    for string in _rotation_strings(base):
        klv = [l for l, fi, _ in string if fi in split.k]
        if klv:
            spans.append((string, min(klv), max(klv)))
    if not spans:
        return None
    for m in range(ORACLE_MAX_M + 1):
        best: Optional[int] = None
        for string, klo, khi in spans:
            for delta in range(-1 - klo, m - khi + 1):
                got = _min_blocks(string, split, delta, m)
                if got is not None and (best is None or got < best):
                    best = got
        if best is not None and best <= ORACLE_MAX_N:
            return (m, best)
    return None


# ---------------------------------------------------------------------------
# system (7)


def emit_system_7(f: Form6, window: int = 8) -> Presentation:
    """The shift-plus-equation system over the windowed copies of H and K.

    Generators: the unknown x, then one copy of each H-factor per level in
    [-window, window] and one copy of each K-factor per level in [0, m].
    Copies come in copy order (factor, then level), each copy's generators
    and relators together, and the copies' relators come before the shift
    conjugations x^-1 g@i x = g@(i+1) (H levels below the window top, K
    levels below m) and the main equation c x prod b_i x^-1 a_i x.  Every
    copy carries its factor's relators verbatim: over the S3 table (5
    generators, 25 relators) with the default window the system has 87
    generators and 506 relators, 425 of them copied.  A negative window is
    a ValueError.
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    group: FreeProductGroup = f.equation.group  # type: ignore[assignment]
    var = "x"
    if f.n < 1:
        raise EquationError("system (7) needs n >= 1")
    h_levels = [l for w in _pieces_of(f) for l, fi, _ in _leveled(w) if fi in f.split.h]
    if any(abs(l) > window for l in h_levels):
        raise WindowError(f"window {window} does not contain the H levels {sorted(set(h_levels))}")
    levels = [(fi, range(-window, window + 1)) for fi in sorted(f.split.h)]
    levels += [(fi, range(0, f.m + 1)) for fi in sorted(f.split.k)]
    copies = [
        (group.factors[fi].presentation, {nm: copy_name(ren_nm, lvl) for nm, ren_nm in group.renames[fi].items()})
        for fi, lvls in levels
        for lvl in lvls
    ]
    shifts = [
        [(var, -1), (copy_name(nm, lvl), 1), (var, 1), (copy_name(nm, lvl + 1), -1)]
        for fi, lvls in levels
        for nm in group.renames[fi].values()
        for lvl in lvls[:-1]
    ]

    def piece(w: GroupElement) -> list[tuple[str, int]]:
        return [
            (copy_name(group.renames[fi][nm], lvl), e)
            for lvl, fi, el in _leveled(w)
            for nm, e in group.factors[fi].express(el)
        ]

    main = piece(f.c) + [(var, 1)]
    for b, a in f.pairs:
        main += piece(b) + [(var, -1)] + piece(a) + [(var, 1)]
    return Presentation.join([Presentation((var,), ())] + copies, shifts + [main])


def _pieces_of(f: Form6) -> list[GroupElement]:
    out = [f.c]
    for b, a in f.pairs:
        out.extend((b, a))
    return out
