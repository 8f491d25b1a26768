"""The declaration language: what each statement declares, and the message,
line and column of every parse error of every statement kind."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from groupeq.cli import run_command
from groupeq.dsl import _split_top, parse_script
from groupeq.errors import GroupEqError, ParseError

G = "group G = fours\n"
GT = "group G = free(a)\ngroup T = zn(1)\n"
C3 = "group C = cyclic(3)\n"

# id, script, message, line, column
ERRORS = [
    # any statement
    ("unknown-statement", "bogus x\n", "unknown statement 'bogus'", 1, 1),
    ("bad-name", "group 1-a = fours\n", "bad name '1-a'", 1, 1),
    ("empty-name", "let  = G: a\n", "bad name ''", 1, 1),
    ("reserved-t", "group t = fours\n", "name 't' is reserved", 1, 1),
    ("reserved-1", "let 1 = G: a\n", "name '1' is reserved", 1, 1),
    ("duplicate-group", G + "group G = zn(1)\n", "name 'G' is already declared", 2, 1),
    ("duplicate-element", G + "let u = G: a\nlet u = G: b\n", "name 'u' is already declared", 3, 1),
    ("reused-group-as-element", G + "let G = G: a\n", "name 'G' is already declared", 2, 1),
    ("reused-element-as-set", G + "let a = G: a\nset a in G: a\n", "name 'a' is already declared", 3, 1),
    ("reused-group-as-set", G + "set G in G: a\n", "name 'G' is already declared", 2, 1),
    ("reused-group-as-eq", G + "eq G over G: a t = 1\n", "name 'G' is already declared", 2, 1),
    ("reused-eq-as-geq", GT + "eq E over G: a t = 1\ngeq E over G with T: a (1) = 1\n",
     "name 'E' is already declared", 4, 1),
    ("reused-eq-as-mveq", C3 + "eq E over C: a t = 1\nmveq E over C vars x: a x = 1\n",
     "name 'E' is already declared", 3, 1),
    # group lookup and group expressions
    ("unknown-group-let", "let g = H: a\n", "unknown group 'H'", 1, 1),
    ("unknown-group-set", "set X in H: a\n", "unknown group 'H'", 1, 1),
    ("unknown-group-eq", "eq E over H: a t = 1\n", "unknown group 'H'", 1, 1),
    ("unknown-group-geq-t", GT + "geq W over G with S: a (1) = 1\n", "unknown group 'S'", 3, 1),
    ("unknown-group-geq-no-with", GT + "geq W over G: a (1) = 1\n", "unknown group ''", 3, 1),
    ("unknown-group-mveq", "mveq M over H vars x: x = 1\n", "unknown group 'H'", 1, 1),
    ("unknown-group-expression", "group G = Q\n", "unknown group expression 'Q'", 1, 1),
    ("empty-group-expression", "group G = \n", "empty group expression", 1, 1),
    ("bad-group-expression-free", "group G = free()\n",
     "bad group expression 'free()': a free group needs at least one generator", 1, 1),
    ("bad-group-expression-zn", "group G = zn(x)\n",
     "bad group expression 'zn(x)': invalid literal for int() with base 10: 'x'", 1, 1),
    ("unknown-factor", "group G = fours * Q\n", "unknown group expression 'Q'", 1, 1),
    # elements and sets
    ("unreadable-element", C3 + "let c = C: zz\n",
     "cannot read 'zz' as an element: unknown element literal 'zz'", 2, 1),
    ("unreadable-fours-element", G + "let c = G: q\n",
     "cannot read 'q' as an element: unknown generator 'q'", 2, 1),
    ("empty-set", G + "set X in G: \n", "empty set", 2, 1),
    ("empty-braced-set", G + "set X in G: {}\n", "empty set", 2, 1),
    ("set-element-of-other-group", G + "group H = zn(1)\nlet h = H: (1)\nset X in G: a, h\n",
     "element 'h' lives in a different group", 4, 1),
    ("let-element-of-other-group", G + "group H = zn(1)\nlet h = H: (1)\nlet g = G: h\n",
     "element 'h' lives in a different group", 4, 1),
    # eq
    ("eq-missing-equals-one", G + "eq E over G: a t\n", "equation must end with '= 1'", 2, 1),
    ("eq-equals-two", G + "eq E over G: a t = 2\n", "equation must end with '= 1'", 2, 1),
    ("eq-t-power-zero", G + "eq E over G: a t^0 = 1\n", "t^0 is not a valid occurrence", 2, 2),
    ("eq-no-t", G + "eq E over G: a b = 1\n", "equation has no occurrences of t", 2, 1),
    ("eq-empty-body", G + "eq E over G: = 1\n", "equation has no occurrences of t", 2, 1),
    ("eq-bad-t-exponent", G + "eq E over G: a t^x = 1\n",
     "malformed statement: invalid literal for int() with base 10: 'x'", 2, 1),
    ("eq-element-of-other-group", G + "group H = zn(1)\nlet h = H: (1)\neq E over G: a h t = 1\n",
     "element 'h' lives in a different group", 4, 2),
    ("eq-unreadable-coefficient", C3 + "eq E over C: a zz t = 1\n",
     "cannot read 'zz' as an element: unknown element literal 'zz'", 2, 2),
    # geq
    ("geq-unreadable-token", "group G = free(a)\ngroup T = free(x)\ngeq W over G with T: a q = 1\n",
     "cannot read 'q' in G or T: unknown generator 'q'", 3, 2),
    ("geq-unreadable-token-zn", "group G = cyclic(3)\ngroup T = zn(1)\ngeq W over G with T: a q = 1\n",
     "cannot read 'q' in G or T: invalid literal for int() with base 10: 'q'", 3, 2),
    ("geq-no-variable", GT + "geq W over G with T: a a = 1\n", "generalized equation has no variable entries", 3, 1),
    ("geq-empty-body", GT + "geq W over G with T: = 1\n", "generalized equation has no variable entries", 3, 1),
    ("geq-missing-equals-one", GT + "geq W over G with T: a (1)\n", "equation must end with '= 1'", 3, 1),
    # mveq
    ("mveq-no-vars", C3 + "mveq M over C: a x = 1\n", "mveq needs declared variables", 2, 1),
    ("mveq-empty-vars", C3 + "mveq M over C vars : a x = 1\n", "mveq needs declared variables", 2, 1),
    ("mveq-only-coefficient", C3 + "mveq M over C vars x: a = 1\n",
     "multivariable equation has no variable entries", 2, 1),
    ("mveq-bad-exponent", C3 + "mveq M over C vars x: a x^q = 1\n",
     "malformed statement: invalid literal for int() with base 10: 'q'", 2, 1),
    ("mveq-repeated-variable", C3 + "mveq M over C vars x, x: a x = 1\n", "variable names must be distinct", 2, 1),
    ("mveq-missing-equals-one", C3 + "mveq M over C vars x: a x\n", "equation must end with '= 1'", 2, 1),
    ("mveq-unreadable-coefficient", C3 + "mveq M over C vars x: zz x = 1\n",
     "cannot read 'zz' as an element: unknown element literal 'zz'", 2, 1),
    # which check comes first: the name, then the group(s), then (for set and
    # mveq) the elements or variables, then a duplicate name, then the body
    ("group-duplicate-before-expression", G + "group G = Q\n", "name 'G' is already declared", 2, 1),
    ("let-group-before-duplicate", G + "let a = G: a\nlet a = H: a\n", "unknown group 'H'", 3, 1),
    ("set-elements-before-duplicate", C3 + "let a = C: a\nset a in C: zz\n",
     "cannot read 'zz' as an element: unknown element literal 'zz'", 3, 1),
    ("set-empty-before-duplicate", G + "set G in G: \n", "empty set", 2, 1),
    ("eq-duplicate-before-body", G + "eq G over G: a t^0 = 1\n", "name 'G' is already declared", 2, 1),
    ("geq-group-before-duplicate", GT + "geq G over G with S: a (1) = 1\n", "unknown group 'S'", 3, 1),
    ("mveq-vars-before-duplicate", G + "mveq G over G vars : a = 1\n", "mveq needs declared variables", 2, 1),
    ("name-before-group", "let t = H: a\n", "name 't' is reserved", 1, 1),
    ("perm-generators-short-of-s3", "group P = perm(3){(1 2)}\n",
     "bad group expression 'perm(3){(1 2)}': the generators reach 2 of the 6 elements of S_3", 1, 1),
    ("first-error-wins", G + "bogus\neq E over G: a b = 1\n", "unknown statement 'bogus'", 2, 1),
]


@pytest.mark.parametrize("script, message, line, column", [c[1:] for c in ERRORS], ids=[c[0] for c in ERRORS])
def test_parse_error_message_and_position(script, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_script(script)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


SCRIPT = """\
group A = free(a)   # a comment
group B = free(b)
group G = A * B
group T = zn(1)

let g = G: a b^-1
let u = T: (1)
set X in T: {(0), (1)}
eq E over G: g t a t^-1 = 1
eq F over G: a t = 1
geq W over G with T: g u a u = 1
mveq M over A vars x, y: a x y^-2 = 1
"""


def test_declarations_keep_script_order_and_kind():
    sess = parse_script(SCRIPT)
    assert [(name, kind) for name, (kind, _) in sess.names.items()] == [
        ("A", "group"), ("B", "group"), ("G", "group"), ("T", "group"),
        ("g", "element"), ("u", "element"), ("X", "set"),
        ("E", "equation"), ("F", "equation"), ("W", "geq"), ("M", "mveq"),
    ]


def test_declared_values():
    sess = parse_script(SCRIPT)
    G, T = sess.get("group", "G"), sess.get("group", "T")
    assert sess.get("element", "u") == T.parse_element("(1)")
    assert sess.get("set", "X") == (T.identity(), T.parse_element("(1)"))
    g = sess.get("element", "g")
    assert g.group == G
    E = sess.get("equation", "E")
    assert E.group == G and [e for _, e in E.terms] == [1, -1]
    assert E.terms[0][0] == g
    W = sess.get("geq", "W")
    assert W.pairs == ((g, sess.get("element", "u")), (G.parse_element("a"), sess.get("element", "u")))
    M = sess.get("mveq", "M")
    assert M.variables == ("x", "y") and [(v, e) for _, v, e in M.terms] == [("x", 1), ("y", -2)]


def test_trailing_coefficient_folds_into_the_first_term():
    sess = parse_script("group F = free(a, b)\neq E over F: a t b = 1\n")
    F = sess.get("group")
    assert sess.get("equation").terms == ((F.parse_element("b a"), 1),)


def test_geq_reads_t_literals_and_folds_the_trailing_coefficient():
    sess = parse_script("group G = free(a, b)\ngroup T = zn(1)\ngeq W over G with T: a (1) b (0) a = 1\n")
    G, T = sess.get("group", "G"), sess.get("group", "T")
    assert sess.get("geq").pairs == ((G.parse_element("a a"), T.parse_element("(1)")), (G.parse_element("b"), T.identity()))


def test_geq_reads_a_letter_fours_does_not_know_in_t():
    sess = parse_script(G + "group T = free(x)\ngeq W over G with T: a x b x = 1\n")
    F, T = sess.get("group", "G"), sess.get("group", "T")
    x = T.gen("x")
    assert sess.get("geq").pairs == ((F.a(), x), (F.b(), x))


def test_mveq_with_an_empty_body_declares_no_terms():
    assert parse_script(C3 + "mveq M over C vars x: = 1\n").get("mveq").terms == ()


def test_get_without_a_name_is_the_last_of_its_kind():
    sess = parse_script(SCRIPT)
    assert sess.get("equation") is sess.get("equation", "F")
    assert sess.get("group") is sess.get("group", "T")
    assert sess.get("element") is sess.get("element", "u")


@pytest.mark.parametrize(
    "kind, name, message",
    [
        ("equation", "Z", "no declared equation named 'Z'"),
        ("equation", "W", "no declared equation named 'W'"),
        ("set", "u", "no declared set named 'u'"),
        ("element", "X", "no declared element named 'X'"),
    ],
)
def test_get_names_a_declaration_of_that_kind(kind, name, message):
    with pytest.raises(GroupEqError) as err:
        parse_script(SCRIPT).get(kind, name)
    assert str(err.value) == message


def test_get_without_a_name_needs_a_declaration_of_that_kind():
    with pytest.raises(GroupEqError) as err:
        parse_script("group C = cyclic(3)\n").get("geq")
    assert str(err.value) == "the script declares no geq"


def _error(command, args, script):
    report, code = run_command(command, args, script)
    assert code == 2 and report["status"] == "error"
    return report["error"]


@pytest.mark.parametrize(
    "command, args, error",
    [
        ("classify", {"name": "W"}, "no declared equation named 'W'"),
        ("verdict", {"name": "E"}, "no declared geq named 'E'"),
        ("corollary-precheck", {}, "the script declares no mveq"),
        ("search-nonup", {"group": "X"}, "no declared group named 'X'"),
        ("up-check", {"sets": "X,u"}, "no declared set named 'u'"),
        ("up-check", {"sets": "X,Z"}, "no declared set named 'Z'"),
        ("proper-power", {"elem": "X"}, "no declared element named 'X'"),
    ],
)
def test_cli_lookups_name_the_kind_they_need(command, args, error):
    script = "group T = zn(1)\nlet u = T: (1)\nset X in T: 0\ngroup F = free(a)\neq E over F: a t = 1\n"
    assert _error(command, args, script) == {"type": "GroupEqError", "message": error}


def test_cli_without_a_name_picks_the_last_declaration():
    script = "group F = free(a)\neq E over F: a t = 1\neq D over F: a t^2 = 1\n"
    report, code = run_command("classify", {}, script)
    assert code == 0 and report["result"]["exponent_sum"] == 2


def test_perm_generators_must_generate_the_symmetric_group():
    # perm(3){(1 2)} once walked a ball of C2 while its elements and
    # presentation were those of S3; now it is a parse error, exit 2
    assert _error("search-nonup", {"radius": 3}, "group P = perm(3){(1 2)}\n")["type"] == "ParseError"
    P = parse_script("group P = perm(3){(1 2), (1 2 3)}\n").get("group")
    assert len(P.ball(3)) == len(P.elements()) == 6
    assert [str(g) for g in P.generators()] == ["(1 2)", "(1 2 3)"]


def test_cli_reports_parse_error_position():
    error = _error("classify", {}, G + "eq E over G: a t^0 = 1\n")
    assert error == {"type": "ParseError", "message": "t^0 is not a valid occurrence", "line": 2, "column": 2}


def _split_by_characters(text, sep):
    """`text` split at each `sep` outside brackets, one character at a time."""
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


@given(
    st.text(alphabet="ab1^- ,*") | st.text(alphabet="ab1^- ,*({[)}]"),
    st.sampled_from(["*", ",", " "]),
)
@example("", ",")
@example("a,,b, ", ",")
@example("  a  b ", " ")
@example("(1, 2), (3", ",")
def test_split_top_matches_the_character_walk(text, sep):
    # text without brackets takes str.split, which must split it as the
    # bracket-tracking walk does
    assert _split_top(text, sep) == _split_by_characters(text, sep)
