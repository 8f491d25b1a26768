"""Every function and class defined in src/groupeq is referenced by the
program itself: by name, from src/, scripts/ or perfbench/ (a re-export in
the package's __init__ counts).  Dunder methods are called by the language
and are not checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the round-trip oracles of the presentation text and struct formats
TEST_ONLY = {"Presentation.from_text", "Presentation.from_struct"}


def _definitions(node, prefix, where):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + child.name
            yield qualname, child.name, f"{where}:{child.lineno}"
            yield from _definitions(child, qualname + ".", where)
        else:
            yield from _definitions(child, prefix, where)


def _referenced_names():
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_definition_is_referenced():
    referenced = _referenced_names()
    unreferenced = []
    for path in sorted((ROOT / "src" / "groupeq").glob("*.py")):
        for qualname, name, where in _definitions(ast.parse(path.read_text()), "", path.name):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in referenced and qualname not in TEST_ONLY:
                unreferenced.append(f"{qualname} ({where})")
    assert unreferenced == []
