"""Probes that run in their own interpreter or measure one layer in isolation.

    python3 perfbench/probe.py setup WORKLOAD

imports ``groupeq.cli`` and builds the workload's groups, then exits; the
parent times the whole process, so interpreter start-up is included.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

IMPORT_MODULES = ("backends", "words", "equations", "generalized", "up", "freegroup",
                  "finite_solver", "dsl", "report", "cli", "config", "errors")


def build_groups(workload: str) -> None:
    import groupeq.cli  # noqa: F401
    import inputs

    gs = inputs.Groups()
    if workload == "cli-mix":
        inputs.sorted_ball(gs.fours, 3)
    elif workload == "fours-search":
        inputs.generating_sets(gs.fours, inputs.SEARCH_RADIUS)


def import_ms(python, root, env, repeats: int = 3) -> dict[str, float]:
    """Median import cost from ``-X importtime``: cumulative for numpy and
    for the whole ``groupeq.cli`` import, self time for each groupeq module."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import groupeq.cli"],
                              cwd=root, env=env, capture_output=True, text=True, check=True, timeout=60)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if not parts[0].isdigit():
                continue
            self_us, cum_us, mod = int(parts[0]), int(parts[1]), parts[2]
            if mod == "numpy":
                samples.setdefault("numpy.import_ms", []).append(cum_us / 1000)
            elif mod == "groupeq.cli":
                samples.setdefault("groupeq.import_ms", []).append(cum_us / 1000)
            if mod.startswith("groupeq.") and mod[8:] in IMPORT_MODULES:
                samples.setdefault(f"{mod[8:]}.import_ms", []).append(self_us / 1000)
    return {k: statistics.median(v) for k, v in samples.items()}


def _per_op_us(fn, items, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(items)
        samples.append((time.perf_counter() - t0) / len(items) * 1e6)
    return statistics.median(samples)


def backend_us(seed: int) -> dict[str, float]:
    """Microseconds per element operation, per backend, on seeded elements."""
    import inputs
    from groupeq.backends import FreeAbelianGroup, PermutationGroup

    rng = random.Random(seed)
    gs = inputs.Groups()
    perm = PermutationGroup(6)
    z3 = FreeAbelianGroup(3)
    pools = {
        "fours": inputs.sorted_ball(gs.fours, 3),
        "free": [inputs.free_word(gs.free_ab, inputs.random_letters(rng, 2, rng.randint(1, 6))) for _ in range(64)],
        "freeproduct": [inputs.ab_coefficient(rng, gs, False) for _ in range(64)],
        "freeabelian": [z3.vector([rng.randint(-5, 5) for _ in range(3)]) for _ in range(64)],
        "perm": [perm.element(rng.sample(range(6), 6)) for _ in range(64)],
        "table": list(gs.finite[-1].elements()),
    }
    out = {}
    for kind, pool in pools.items():
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(4000)]
        singles = [x for x, _ in pairs]
        out[f"backends.{kind}.mul_us"] = _per_op_us(lambda ps: [x * y for x, y in ps], pairs)
        out[f"backends.{kind}.inv_us"] = _per_op_us(lambda xs: [~x for x in xs], singles)
        out[f"backends.{kind}.hash_us"] = _per_op_us(lambda xs: [hash(x) for x in xs], singles)
        if kind == "freeproduct":
            out["backends.freeproduct.is_identity_us"] = _per_op_us(
                lambda xs: [x.is_identity for x in xs], singles)
    return out


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        build_groups(sys.argv[2])
    else:
        sys.exit("usage: probe.py setup WORKLOAD")
