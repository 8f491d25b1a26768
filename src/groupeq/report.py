"""One structured output schema for every command.

Reports are deterministic: collections are sorted by canonical forms and no
timing data enters the structured payload, so a report re-runs to the same
bytes (the `verify` command relies on this).  Human-readable text is derived
from the structured form, never the reverse, and its lines follow the order
in which the command builds its result.  `canonical_json` sorts every key,
so rendering a stored report reorders the lines; a text check renders a
rebuilt report, not a stored one.
"""

from __future__ import annotations

import json
from typing import Any

SCHEMA = "groupeq.report/1"


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def make_report(command: str, args: dict, script: str, status: str, result: dict, error: dict | None = None) -> dict:
    report = {
        "schema": SCHEMA,
        "command": command,
        "args": {k: v for k, v in sorted(args.items())},
        "script": script,
        "status": status,
        "result": result,
    }
    if error is not None:
        report["error"] = error
    return report


def render_text(report: dict) -> str:
    """Human text derived from the structured report."""
    lines = [f"[{report['command']}] status: {report['status']}"]
    if "error" in report:
        err = report["error"]
        lines.append(f"error: {err.get('type', 'Error')}: {err.get('message', '')}")
    else:
        _render_into(lines, "result", report["result"], "")
    return "\n".join(lines) + "\n"


def _render_into(lines: list[str], key: str, value: Any, pad: str) -> None:
    """Append the lines of `key: value` at indent `pad`: a dict or a list
    holding a dict or a list opens a block of its entries, a list of scalars
    is one bracketed line, and a scalar is one line."""
    if isinstance(value, dict):
        entries = value.items()
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                break
        else:
            lines.append(f"{pad}{key}: [{', '.join(map(str, value))}]")
            return
        entries = zip(map("- {}".format, range(len(value))), value)
    else:
        lines.append(f"{pad}{key}: {value}")
        return
    lines.append(f"{pad}{key}:")
    pad += "  "
    for k, v in entries:
        _render_into(lines, k, v, pad)
