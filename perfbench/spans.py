"""In-memory span tracer for groupeq's public functions.

The tracer wraps every public module-level function of the library's layer
modules, plus ``Group.ball``, without editing any library file.  A function
imported with ``from ... import`` is bound under its name in several modules
(``cli`` binds ``parse_script`` and ``canonical_json``, ``generalized`` binds
``strong_up_check``), so each wrapper is installed in every module that binds
the original function object, not only in the defining module.

Every span is tagged with the phase it ran in: ``generate`` (the benchmark
builds an operation's inputs), ``run`` (the timed call) or ``check`` (the
oracle, which may call the library again, for example to re-run a CLI command
or to brute-force a normal form).  Per-layer figures are taken from the run
phase, so the benchmark's own work is not charged to the library.

Spans are kept in flat arrays while the run lasts and written out when it
ends.  A span's self time is its duration minus the durations of its direct
child spans; spans nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from array import array
from collections import Counter, defaultdict

LAYERS = (
    "backends",
    "words",
    "equations",
    "generalized",
    "up",
    "freegroup",
    "finite_solver",
    "dsl",
    "report",
    "cli",
)
PHASES = ("generate", "run", "check")
RUN = PHASES.index("run")


def _count_up_check(counters, rep):
    counters["up.census_products"] += len(rep.x) * len(rep.y)


def _count_search(counters, res):
    counters["up.subsets_tested"] += res.subsets_tested


def _count_solver(counters, rep):
    counters["finite_solver.candidates_tested"] += rep.candidates_tested


def _count_ball(counters, ball):
    counters["backends.ball.elements"] += len(ball)


def _count_bytes(counters, text):
    counters["report.bytes"] += len(text.encode("utf-8"))


# counters read off a wrapped call's result
RESULT_COUNTERS = {
    "up.up_check": _count_up_check,
    "up.search_nonup_witness": _count_search,
    "finite_solver.solve_over_finite": _count_solver,
    "backends.ball": _count_ball,
    "report.canonical_json": _count_bytes,
    "report.render_text": _count_bytes,
}


class Tracer:
    """Span recorder.  ``install`` patches the library, ``uninstall`` undoes it.
    Spans start in the run phase; ``in_phase`` switches it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.phase = RUN
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[self.name_id[idx]]} closed out of order")

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        """Run the block in the given phase, under one ``bench.<phase>`` span."""
        saved, self.phase = self.phase, PHASES.index(phase)
        idx = self.begin(self.intern(f"bench.{phase}"))
        try:
            yield
        finally:
            self.finish(idx)
            self.phase = saved

    def _wrap(self, name: str, fn):
        nid = self.intern(name)
        count = RESULT_COUNTERS.get(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if count is not None and self.phase == RUN:
                count(self.counters, result)
            return result

        return traced

    # -- patching

    def install(self) -> None:
        import groupeq.cli  # noqa: F401  (loads every layer module)
        from groupeq.backends import Group

        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "groupeq" or n.startswith("groupeq.")) and m is not None]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"groupeq.{layer}"]
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(f"{layer}.{attr}", val)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        self._patches.append((Group, "ball", Group.ball))
        Group.ball = self._wrap("backends.ball", Group.ball)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, val = self._patches.pop()
            setattr(obj, attr, val)

    def bound_names(self, module_name: str) -> set[str]:
        """Names that were re-bound to a wrapper in the given module."""
        return {attr for mod, attr, _ in self._patches
                if getattr(mod, "__name__", None) == module_name}

    # -- child processes

    def merge_child(self, path: str, parent_idx: int) -> None:
        """Append a child process's spans under ``parent_idx``."""
        base = len(self.start)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                name, phase, par, _, start, dur = line.rstrip("\n").split("\t")
                par = int(par)
                start, dur = float(start), float(dur)
                self.name_id.append(self.intern(name))
                self.parent.append(parent_idx if par < 0 else base + par)
                self.op.append(self.current_op)
                self.phase_of.append(PHASES.index(phase))
                self.start.append(start)
                self.end.append(start + dur)

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated name, phase, parent, op, start,
        duration."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{PHASES[self.phase_of[i]]}\t"
                         f"{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i] - self.start[i]!r}\n")

    # -- aggregation

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.op, self.phase_of, self.start, self.end):
            del arr[:]
        self.counters.clear()

    def count_calls(self, first: int = 0) -> Counter:
        return Counter(self.names[self.name_id[i]] for i in range(first, len(self.start)))

    def phase_wall(self, phase: str) -> float:
        """Total seconds spent in the given phase."""
        nid = self._name_ids.get(f"bench.{phase}")
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.name_id[i] == nid)

    def aggregate(self, phase: str = "run") -> dict[str, dict[str, float]]:
        """Per span name, over the spans of one phase: calls, total seconds
        and self seconds."""
        want = PHASES.index(phase)
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i in range(n):
            if self.phase_of[i] != want:
                continue
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total"] += dur
            row["self"] += dur - covered[i]
        return dict(out)
