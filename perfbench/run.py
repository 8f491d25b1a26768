#!/usr/bin/env python3
"""groupeq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It needs no build: the library is
imported from ``src/``.  Workloads are described in ``workloads.py`` and
listed with their metrics in ``BENCHMARK.json``.

With ``--trace 0`` nothing is instrumented and the run reports the
end-to-end metrics: set-up time (fresh interpreters that import the CLI and
build the workload's groups, median of five), peak RSS, the median and p99
latency and the throughput of the operation stream, and the median wall time
of the workload's fixed job.  With ``--trace 1`` it first replays part of the
stream untraced, then the same operations and one job with every public
library function wrapped in a span, and reports per-layer metrics plus the
tracing overhead.  Per-layer figures count only the timed calls, not the
benchmark's input generation or checks; ``bench.generate_s`` and
``bench.check_s`` give the time those took, and the ``check.*`` figures the
library's oracles called while checking.

End-to-end times are reported at one reference interpreter speed.  On a
shared machine the speed of this process can drift by 1.6x over minutes,
which would swamp any change to the library.  So a fixed pure-Python
reference loop (dict growth and a tuple census, the kind of work the library
does) is timed every 0.2 s between operations and while a child process
runs, and three times before and after every job step and set-up probe; each
time is multiplied by REF_NOMINAL_MS over the loop's median time nearby.
The loop runs no library code, so no change to the library can move it;
``ref_loop_ms`` in the environment line and the per-layer
``bench.ref_loop_ms`` record the speed seen.

Every operation's output is checked against an oracle; a failed check counts
in ``failed`` and makes ``correct`` false.  The last line of standard output
is the JSON result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
REF_NOMINAL_MS = 1.5      # reference loop time that reported times assume
REF_EVERY_S = 0.2
# Fixed affine payloads for the reference loop's census: tuple arithmetic,
# hashing and dict growth like the library's own inner loops.
REF_PAYLOADS = [((1 - 2 * (i % 2), 1 - 2 * (i // 2 % 2), 1 - 2 * (i // 4 % 2)), (i, 3 * i % 7, 5 * i % 11))
                for i in range(16)]


def reference_loop() -> None:
    import oracles

    table = {}
    for i in range(3000):
        table[(i, i % 13)] = [i] * 2
    for _ in range(4):
        oracles.unique_count(oracles.fours_mul, REF_PAYLOADS, REF_PAYLOADS)


class Speedometer:
    """Times the fixed reference loop now and then; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        now = time.perf_counter()
        self.samples.append((now - t0) * 1e3)
        self._last = now

    def tick(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self._sample()

    def factor(self) -> float:
        """Scale for a short operation: from the last five samples."""
        return REF_NOMINAL_MS / statistics.median(self.samples[-5:])

    def mark(self) -> int:
        """Start bracketing a long step with three samples before it."""
        for _ in range(3):
            self._sample()
        return len(self.samples) - 3

    def factor_since(self, mark: int) -> float:
        """Scale for the bracketed step: three samples after it, plus the
        three taken before."""
        for _ in range(3):
            self._sample()
        return REF_NOMINAL_MS / statistics.median(self.samples[mark:])


def child_env() -> dict:
    """The environment for this process and its children: no groupeq config
    file, a fixed string-hash seed and the checkout's sources first."""
    env = {k: v for k, v in os.environ.items() if k != "GROUPEQ_CONFIG"}
    if not env.get("PYTHONPATH", "").startswith(SRC):
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def no_phase(_name):
    return contextlib.nullcontext()


def run_op(wl, index: int, tally, tracer=None):
    """Generate, run, time and check the workload's operation `index`;
    returns its latency in seconds, or None when it failed."""
    phase = no_phase if tracer is None else tracer.in_phase
    if tracer is not None:
        tracer.current_op = index
    kind = "operation"
    try:
        with phase("generate"):
            op = wl.op(index)
        kind = op.kind
        with phase("run"):
            t0 = time.perf_counter()
            out = op.run()
            seconds = time.perf_counter() - t0
        with phase("check"):
            reason = op.check(out)
    except Exception as exc:  # an operation that raises is a failed operation
        traceback.print_exc(file=sys.stderr)
        reason, seconds = f"raised {type(exc).__name__}: {exc}", None
    return seconds if tally.record(kind, reason) else None


def run_job(wl, ctx, tally, tracer=None):
    """Run the workload's job step by step; returns its total time, scaled
    to the reference speed, or None when a step failed."""
    phase = no_phase if tracer is None else tracer.in_phase
    total = 0.0
    for step in wl.job():
        try:
            with phase("run"):
                seconds, out = ctx.timed(step.run)
            ctx.part(step.kind, seconds)
            with phase("check"):
                reason = step.check(out)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            reason = f"raised {type(exc).__name__}: {exc}"
        if not tally.record(f"{wl.name} {step.kind}", reason):
            return None
        total += seconds
    return total


def self_test_cases():
    """Fixed outputs for the correctness self-test."""
    from groupeq import equations as eqmod
    from groupeq import finite_solver as solver
    from groupeq import up as upmod
    from groupeq.backends import cyclic_group
    import inputs
    import oracles

    gs = inputs.Groups()
    e = eqmod.Equation(gs.ab, ((gs.b, 1), (gs.b, 1), (gs.b, -1)))
    c3 = cyclic_group(3)
    eq = eqmod.Equation(c3, ((c3.element(2), 2),))
    gens = gs.fours.generators()
    claim = oracles.SearchClaim(random.Random(0), [g.payload for g in gens], 2, 6)
    return ((eqmod.normal_form_6(e, gs.split), e, gs.split), (solver.solve_over_finite(eq, 3), eq),
            (upmod.search_nonup_witness(gs.fours, 2, 6, gens), claim))


def span_count_check(tracer, fixture: str) -> list[str]:
    """One `verdict` on a fixed script must give exactly one span of each
    layer function on its path, which also shows that names imported with
    `from ... import` were wrapped where they are bound."""
    import workloads

    problems = []
    for module, name in (("groupeq.cli", "parse_script"), ("groupeq.cli", "canonical_json"),
                         ("groupeq.generalized", "strong_up_check")):
        if name not in tracer.bound_names(module):
            problems.append(f"{module}.{name} is not wrapped")
    mark = len(tracer.start)
    code, _ = workloads.run_cli(["verdict", fixture, "--format", "structured"])
    counts = tracer.count_calls(mark)
    for name in ("cli.main", "cli.build_parser", "dsl.parse_script",
                 "generalized.unimodular_verdict", "report.canonical_json"):
        if counts[name] != 1:
            problems.append(f"{counts[name]} {name} spans for one verdict, expected 1")
    if code != 0:
        problems.append(f"fixture verdict exit {code}")
    tracer.clear()
    return problems


def untraced(wl_cls, ctx, seed: int, seconds: float, tally, speed):
    wl = wl_cls(ctx, seed)
    latencies, jobs = [], []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    due = [t0 + seconds * k / wl.jobs for k in range(wl.jobs)]
    i = 0
    while True:
        now = time.perf_counter()
        if due and (now >= due[0] or now >= deadline):
            due.pop(0)
            s = run_job(wl, ctx, tally)
            if s is not None:
                jobs.append(s)
        elif now < deadline:
            speed.tick()
            s = run_op(wl, i, tally)
            i += 1
            if s is not None:
                latencies.append(s * speed.factor())
        else:
            break
    return wl, latencies, jobs


def traced(wl_cls, ctx, seed: int, seconds: float, tally):
    """Untraced reference pass over a quarter of the window, then the same
    operations and one job traced.  Returns per-layer metrics.  The tracing
    overhead compares the two passes, each scaled by the reference loop's
    speed during it."""
    import probe
    from spans import Tracer

    metrics = probe.import_ms(ctx.python, ROOT, ctx.child_env)
    metrics.update(probe.backend_us(seed))

    wl = wl_cls(ctx, seed)
    t0 = time.perf_counter()
    warm = 0
    while time.perf_counter() - t0 < seconds / 16:  # first calls pay one-off costs
        run_op(wl, warm, tally)
        warm += 1
    wl = wl_cls(ctx, seed)
    plain_speed = Speedometer()
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds / 4:
        plain_speed.tick()
        run_op(wl, n, tally)
        n += 1
    reference = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    problems = span_count_check(tracer, ctx.fixture)
    ctx.tracer = tracer
    traced_speed = Speedometer()
    try:
        with tracer.in_phase("generate"):
            wl = wl_cls(ctx, seed)
        t0 = time.perf_counter()
        for i in range(n):
            traced_speed.tick()
            run_op(wl, i, tally, tracer)
        stream = time.perf_counter() - t0
        tracer.current_op = n
        run_job(wl, ctx, tally, tracer)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    tracer.dump(os.path.join(ctx.out_dir, "spans.tsv"))

    wall = tracer.phase_wall("run")
    metrics["bench.generate_s"] = tracer.phase_wall("generate")
    metrics["bench.check_s"] = tracer.phase_wall("check")
    agg = tracer.aggregate("run")
    modules: dict[str, float] = {}
    for name, row in agg.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self"]
        metrics[f"{name}.share"] = row["self"] / wall
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + row["self"]
    for module, self_s in modules.items():
        metrics[f"{module}.self_s"] = self_s
        metrics[f"{module}.share"] = self_s / wall
    for name, row in tracer.aggregate("check").items():
        metrics[f"check.{name}.calls"] = row["calls"]
        metrics[f"check.{name}.self_s"] = row["self"]
    metrics.update(tracer.counters)
    subsets = tracer.counters.get("up.subsets_tested", 0)
    if subsets:
        metrics["up.us_per_subset"] = agg["up.search_nonup_witness"]["self"] / subsets * 1e6
    for name, values in ctx.job_parts.items():
        metrics[name] = statistics.median(values)
    plain_ms = statistics.median(plain_speed.samples)
    traced_ms = statistics.median(traced_speed.samples)
    metrics["trace.overhead_frac"] = (stream / traced_ms) / (reference / plain_ms) - 1
    metrics["trace.spans"] = len(tracer.start)
    metrics["bench.ref_loop_ms"] = statistics.median(plain_speed.samples + traced_speed.samples)
    print(f"traced {n} operations and one job, {wall:.2f}s in timed calls; reference pass "
          f"{reference:.2f}s, traced stream {stream:.2f}s")
    return metrics, problems, wl


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (os.path.join(SRC, "groupeq", "cli.py"), os.path.join(ROOT, "scripts"),
                   os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} is missing; run from the root of a groupeq checkout",
                  file=sys.stderr)
            return 2
    if os.environ.get("PYTHONHASHSEED") != "0" or "GROUPEQ_CONFIG" in os.environ:
        # string hashes decide dict and set layouts, and so part of the run
        # time; a config file would change the caps every command runs with
        os.execve(sys.executable, [sys.executable] + sys.argv, child_env())
    sys.path[:0] = [SRC, HERE]

    import oracles
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    ctx = workloads.Context(ROOT, out_dir, child_env(), sys.executable)
    tally = oracles.Tally()

    problems = oracles.self_test(*self_test_cases())

    if args.trace:
        metrics, more, wl = traced(wl_cls, ctx, args.seed, args.seconds, tally)
        problems += more
        names = spec["per_layer"]
    else:
        speed = ctx.speed = Speedometer()
        # a fresh interpreter that imports the CLI and builds the workload's groups
        cmd = [ctx.python, os.path.join("perfbench", "probe.py"), "setup", args.workload]
        setup = []
        for k in range(SETUP_REPEATS + 1):
            seconds, (code, _) = ctx.timed(lambda: ctx.child(cmd))
            if code != 0:
                problems.append(f"set-up probe exit {code}")
            if k:  # the first run only fills the bytecode cache
                setup.append(seconds)
        wl, latencies, jobs = untraced(wl_cls, ctx, args.seed, args.seconds, tally, speed)
        ref_loop_ms = statistics.median(speed.samples)
        latencies.sort()
        metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb()}
        if latencies and jobs:
            metrics.update({
                "op_p50_ms": percentile(latencies, 0.50) * 1e3,
                "op_p99_ms": percentile(latencies, 0.99) * 1e3,
                "ops_per_s": len(latencies) / sum(latencies),
                "job_s": statistics.median(jobs),
            })
        else:
            problems.append("no successful operation or job to measure")
        beyond = len(latencies) - math.ceil(0.99 * len(latencies))
        parts = {k: [round(v, 4) for v in vs] for k, vs in ctx.job_parts.items()}
        print(f"{len(latencies)} operations timed (p99 has {beyond} samples beyond it); "
              f"{len(jobs)} jobs {parts}; setup samples {[round(s, 4) for s in setup]}")
        names = spec["end_to_end"]
    if getattr(wl, "witness", None) is not None:
        problems += oracles.self_test(witness=wl.witness)
    for p in problems:
        print(f"SELF-TEST FAILED: {p}", file=sys.stderr)

    shutil.rmtree(os.path.join(out_dir, "cli"), ignore_errors=True)
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in names},
    }
    env = environment(args.seed)
    if not args.trace:
        env["ref_loop_ms"] = ref_loop_ms
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "result": result}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
