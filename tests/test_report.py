"""The text renderer against the recursive renderer it replaced."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupeq.report import render_text

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _render_value(key, value, depth):
    """The former renderer: every node returns a fresh list of its lines."""
    pad = "  " * depth
    if isinstance(value, dict):
        out = [f"{pad}{key}:"]
        for k in value:
            out.extend(_render_value(k, value[k], depth + 1))
        return out
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{pad}{key}: [" + ", ".join(str(v) for v in value) + "]"]
        out = [f"{pad}{key}:"]
        for i, v in enumerate(value):
            out.extend(_render_value(f"- {i}", v, depth + 1))
        return out
    return [f"{pad}{key}: {value}"]


def _render_text_oracle(report):
    lines = [f"[{report['command']}] status: {report['status']}"]
    if "error" in report:
        err = report["error"]
        lines.append(f"error: {err.get('type', 'Error')}: {err.get('message', '')}")
        return "\n".join(lines) + "\n"
    lines.extend(_render_value("result", report["result"], 0))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(GOLDEN_DIR) if f.endswith(".json")))
def test_render_text_matches_the_recursive_renderer_on_goldens(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    assert render_text(report) == _render_text_oracle(report)


# scalars, tuples among them (a tuple is a scalar to the renderer), and
# nested dicts and lists, empty ones included
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8),
    st.tuples(st.integers(), st.text(max_size=3)), st.just(()),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(result=_values, status=st.sampled_from(["ok", "falsified"]))
def test_render_text_matches_the_recursive_renderer_on_nested_results(result, status):
    report = {"command": "up-check", "status": status, "result": result}
    assert render_text(report) == _render_text_oracle(report)

