"""Every function and class defined in src/groupeq is referenced by the
program itself, from src/, scripts/ or perfbench/.  A method counts as
referenced through an attribute access (`.name`) or a bare name in its own
class body (`generators = gens`); any other definition through its name
anywhere.  Dunder methods are called by the language and are not checked.
TEST_ONLY and LIBRARY_ONLY name the definitions kept without a reader in
the program."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the round-trip oracles of the presentation text and struct formats
TEST_ONLY = {"Presentation.from_text", "Presentation.from_struct"}
# constructions of the paper kept as library API, which no command or script reaches
LIBRARY_ONLY = {"universal_solution_group", "induced_ordinary", "verify_up4_implies_strong"}


def _class_body_names(cls):
    """The bare names read in a class body outside its methods."""
    return {
        node.id
        for stmt in cls.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name)
    }


def _definitions(node, prefix, where):
    """(qualname, name, location, the names that reference it, or None for
    the program-wide rule) for each definition under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + child.name
            method = isinstance(node, ast.ClassDef) and not isinstance(child, ast.ClassDef)
            yield qualname, child.name, f"{where}:{child.lineno}", _class_body_names(node) if method else None
            yield from _definitions(child, qualname + ".", where)
        else:
            yield from _definitions(child, prefix, where)


def _referenced_names():
    """(every name, alias or attribute read, the attributes alone)."""
    names, attrs = set(), set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names | attrs, attrs


def test_every_definition_is_referenced():
    referenced, attributes = _referenced_names()
    unreferenced = []
    for path in sorted((ROOT / "src" / "groupeq").glob("*.py")):
        for qualname, name, where, in_class in _definitions(ast.parse(path.read_text()), "", path.name):
            dunder = name.startswith("__") and name.endswith("__")
            seen = referenced if in_class is None else attributes | in_class
            if not dunder and name not in seen and qualname not in TEST_ONLY | LIBRARY_ONLY:
                unreferenced.append(f"{qualname} ({where})")
    assert unreferenced == []
