"""Search caps and budgets, shared by the library and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from .errors import ConfigError


@dataclass(frozen=True)
class Caps:
    """Hard limits that guard the exhaustive searches.

    Every bound below is an honest cap: operations that hit one report it
    rather than silently truncating results.
    """

    radius: int = 8               # largest ball radius
    ball_size: int = 200_000      # largest ball cardinality
    table_size: int = 64          # largest finite multiplication table
    window: int = 8               # default index window for presentations
    max_degree: int = 12          # symmetric-group degree for the finite solver
    perms_per_degree: int = 250_000
    budget_ms: int = 600_000      # wall-clock budget for witness search

    def with_overrides(self, **kw) -> "Caps":
        """These caps with the given ones replaced; None leaves a cap as it
        is, and a negative cap is a ValueError naming it."""
        kw = {k: v for k, v in kw.items() if v is not None}
        for key, value in kw.items():
            if value < 0:
                raise ValueError(f"{key} must be nonnegative")
        return replace(self, **kw) if kw else self


DEFAULT_CAPS = Caps()


def check_caps(data, where: str) -> dict:
    """`data` when it is a JSON object mapping cap names to nonnegative
    integers; for anything else a ConfigError naming `where` (a config file
    or a report)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(Caps)})
    if unknown:
        raise ConfigError(f"unknown cap(s) in {where}: {', '.join(unknown)}")
    for key, value in data.items():
        if type(value) is not int:
            raise ConfigError(f"cap {key!r} in {where} needs an integer, got {value!r}")
        if value < 0:
            raise ConfigError(f"cap {key!r} in {where} must be nonnegative, got {value}")
    return data


def read_config(path: str | None = None) -> dict:
    """The cap overrides in the JSON file at `path`, or none without one.

    The file must exist and pass `check_caps`; otherwise ConfigError.
    """
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return check_caps(data, f"config file {path!r}")
