"""The normal-form sweep script: its enumeration against the product-and-filter
enumerator it replaced, its printed output and its exit codes."""

import importlib.util
import itertools
import os
import re
import subprocess
import sys

import pytest

from groupeq.backends import FreeGroup, FreeProductGroup
from groupeq.equations import Equation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "normal_form_sweep.py")

_spec = importlib.util.spec_from_file_location("normal_form_sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def _reference_equations(G, a, b, max_len):
    # every letter tuple in itertools.product order, filtered after the
    # fact; the first member of each rotation class is the one yielded, so
    # classes are named by their least rotation in the order a < A < b < B
    # < t < T (aT, where the ASCII least is Ta)
    letters = {"a": a, "A": ~a, "b": b, "B": ~b}
    seen = set()
    for length in range(1, max_len + 1):
        for combo in itertools.product("aAbBtT", repeat=length):
            sigma = sum(1 if c == "t" else -1 if c == "T" else 0 for c in combo)
            if abs(sigma) != 1:
                continue
            inv = str.swapcase
            if any(combo[i] == inv(combo[i + 1]) for i in range(length - 1)):
                continue
            if length > 1 and combo[-1] == inv(combo[0]):
                continue
            key = min(combo[i:] + combo[:i] for i in range(length))
            if key in seen:
                continue
            seen.add(key)
            terms, coef = [], G.identity()
            for c in combo:
                if c in letters:
                    coef = coef * letters[c]
                else:
                    terms.append((coef, 1 if c == "t" else -1))
                    coef = G.identity()
            if not coef.is_identity:
                g0, e0 = terms[0]
                terms[0] = (coef * g0, e0)
            yield "".join(combo), Equation(G, tuple(terms))


@pytest.fixture(scope="module")
def free_ab():
    fa, fb = FreeGroup(("a",)), FreeGroup(("b",))
    G = FreeProductGroup((fa, fb))
    return G, G.embed(0, fa.gen("a")), G.embed(1, fb.gen("b"))


@pytest.mark.parametrize("max_len", range(1, 7))
def test_enumeration_matches_the_product_and_filter_reference(free_ab, max_len):
    got = [(word, e.terms) for word, e in sweep.enumerate_equations(*free_ab, max_len)]
    want = [(word, e.terms) for word, e in _reference_equations(*free_ab, max_len)]
    assert got == want


def _run_sweep(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, SCRIPT, *args], env=env, capture_output=True, text=True)


def test_sweep_output_at_max_len_6():
    proc = _run_sweep("--max-len", "6")
    assert proc.returncode == 0
    first, *rest = proc.stdout.splitlines()
    assert re.fullmatch(r"1260 rotation classes processed in \d+\.\ds \(62 rejected as equations over H\)", first)
    assert rest == [
        "  (m, n)   count  example",
        "  (0, 0)    1140  bt  (length-one)",
        "  (0, 1)     120  btbTT",
        "oracle mismatches: 0",
    ]


@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_sweep_rejects_a_max_len_below_one(max_len):
    proc = _run_sweep("--max-len", max_len)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "normal_form_sweep.py: error: --max-len must be at least 1"
    assert proc.stdout == ""
