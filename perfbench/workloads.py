"""The benchmark's workloads.

Each workload is a closed loop with one client: a seeded stream of short
operations, run one after another, plus a fixed job that runs a few times
per run.  An operation is generated (untimed), run (timed) and checked
against an oracle (untimed); a job is a list of such operations, its steps,
with fixed inputs.

  cli-mix       stream: in-process ``groupeq.cli.main(argv)`` over all 17
                commands plus ``verify``; every report is re-run and must
                repeat byte for byte.  job: one cold-start CLI command in a
                fresh interpreter.
  fours-search  stream: ``search_nonup_witness(fours, 2, k, gens=...)``
                over seeded generating sets, so every operation runs the
                search's per-candidate census.  job: the radius-3 symmetric
                exhaustion, then the seed-17 radius-4 anneal through the
                script.
  equations     stream: normal forms over F(a) * F(b), coset rewriting and
                the unimodularity verdict, proper powers, the relation
                falsifier and the finite solver.  job: the normal-form
                sweep script at --max-len 7.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import groupeq.cli as cli
from groupeq import equations as eqmod
from groupeq import finite_solver as solver
from groupeq import freegroup as fg
from groupeq import generalized as gen
from groupeq import up as upmod
from groupeq import words as wordsmod
from groupeq.backends import cyclic_group
from groupeq.config import DEFAULT_CAPS

import inputs
import oracles

# Fixed inputs of the fours-search job, from the paper's experiments.
EXHAUST_RADIUS, EXHAUST_MAXSIZE = 3, 14
EXHAUST_SUBSETS, EXHAUST_SIZES = 198_438, tuple(range(2, 15))
ANNEAL_ARGS = ["--radius", "4", "--strategy", "anneal", "--no-symmetric",
               "--seed", "17", "--max-size", "14", "--budget-ms", "600000"]
SWEEP_ARGS = ["--max-len", "7"]
SWEEP_CLASSES = 5168
# Wall-clock budgets are passed explicitly and set far above any run, so a
# truncated search is reported as a failure, never as a faster run.
NO_DEADLINE_MS = 3_600_000
SUBPROCESS_TIMEOUT_S = 170

GEQ_FIXTURE = """\
group G = free(g, h)
group T = zn(2)
let u = T: (1, 0)
let v = T: (0, 1)
geq W over G with T: g u h v = 1
"""


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def run_child(cmd: list[str], cwd: str, env: dict, tick=None):
    """Run a child process to completion; returns (exit code, stdout).

    The child's pipes are read until they close, so its end is seen at once
    (a timed wait would poll in steps of up to 50 ms).  While it runs, `tick`
    is called every 0.2 s, so the parent can keep sampling machine speed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    while True:
        try:
            out, err = proc.communicate(timeout=0.2)
            break
        except subprocess.TimeoutExpired:
            if time.perf_counter() - t0 > SUBPROCESS_TIMEOUT_S:
                proc.kill()
                proc.communicate()
                raise
            if tick is not None:
                tick()
    if proc.returncode:
        sys.stderr.write(err[-2000:])
    return proc.returncode, out


class Context:
    """Where the benchmark runs: the checkout root, its scratch directory,
    the fixed ``verdict`` script, the environment for child processes, the
    speedometer that scales job times (untraced runs) and the tracer (traced
    runs)."""

    def __init__(self, root: str, out_dir: str, child_env: dict, python: str):
        self.root = root
        self.out_dir = out_dir
        self.fixture = os.path.join(out_dir, "fixture.ge")
        with open(self.fixture, "w", encoding="utf-8") as fh:
            fh.write(GEQ_FIXTURE)
        self.child_env = child_env
        self.python = python
        self.speed = None
        self.tracer = None
        self.job_parts: dict[str, list[float]] = {}

    def part(self, name: str, seconds: float) -> None:
        self.job_parts.setdefault(name, []).append(seconds)

    def timed(self, fn):
        """Run fn(); returns (seconds, result), the seconds scaled to the
        reference speed by samples taken before, during and after."""
        speed = self.speed
        mark = speed.mark() if speed is not None else None
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        if speed is not None:
            seconds *= speed.factor_since(mark)
        return seconds, result

    def child(self, cmd: list[str]):
        """Run a child process in the checkout; returns (exit code, stdout)."""
        tick = self.speed.tick if self.speed is not None else None
        return run_child(cmd, self.root, self.child_env, tick)

    def run_script(self, script: str, args: list[str]):
        """Run a repository script in a fresh interpreter; returns (exit code,
        stdout).  Traced runs go through child.py and merge the child's spans
        under one ``scripts.<name>`` span."""
        name = os.path.splitext(os.path.basename(script))[0]
        tracer = self.tracer
        if tracer is None:
            cmd = [self.python, script] + args
        else:
            spans = os.path.join(self.out_dir, f"child-{name}.spans")
            cmd = [self.python, os.path.join("perfbench", "child.py"), spans, script] + args
            idx = tracer.begin(tracer.intern(f"scripts.{name}"))
        try:
            code, out = self.child(cmd)
        finally:
            if tracer is not None:
                tracer.finish(idx)
        if tracer is not None and os.path.exists(spans):
            tracer.merge_child(spans, idx)
            os.remove(spans)
        return code, out


# ---------------------------------------------------------------------------
# cli-mix

CLI_KINDS = (
    "classify", "rewrite-coset", "conjugate-family", "emit-ky", "emit-solution-group",
    "reduce", "verdict", "normal-form-6", "emit-system-7", "up-check", "strong-up",
    "up4", "strojnowski", "search-nonup", "proper-power", "corollary-precheck",
    "solve-finite", "verify",
)
# commands whose reports re-run under `verify` (no cap flags in argv)
VERIFIABLE = ("classify", "rewrite-coset", "verdict", "normal-form-6", "up-check",
              "strong-up", "proper-power", "corollary-precheck")

AB_HEADER = "group A = free(a)\ngroup B = free(b)\ngroup G = A * B\n"
Z2_GRID = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]


def run_cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class CliMix:
    name = "cli-mix"
    jobs = 11

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.rng = rng = random.Random(seed)
        self.gs = inputs.Groups()
        self.ball3 = inputs.sorted_ball(self.gs.fours, 3)
        # one deck per command, so each run sees every census size equally often
        self.census_sizes = {k: inputs.Deck(rng, range(8, 31)) for k in ("up-check", "strong-up")}
        self.verify_kinds = inputs.Deck(rng, VERIFIABLE)
        self.up4_sizes = inputs.Deck(rng, range(3, 6))
        self.search_sizes = inputs.Deck(rng, range(6, 15))
        self.nf_lengths = inputs.Deck(rng, (3, 5, 7))
        self.dir = os.path.join(ctx.out_dir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.reports: dict[str, list[str]] = {}

    def _fours_lines(self, names, sets):
        fmt = self.gs.fours.format_element
        return "group F = fours\n" + "".join(
            f"set {n} in F: {', '.join(fmt(e) for e in s)}\n" for n, s in zip(names, sets))

    def _command(self, kind):
        """(script, extra argv, expected exit code, semantic check of the result)."""
        rng, gs = self.rng, self.gs
        if kind == "classify":
            exps = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 5))]
            e = eqmod.Equation(gs.ab, tuple((inputs.ab_coefficient(rng, gs, False), k) for k in exps))
            sigma = sum(exps)
            kind_of = "singular" if sigma == 0 else "unimodular" if abs(sigma) == 1 else "nonsingular"
            return AB_HEADER + inputs.equation_script_line(gs, e), [], 0, lambda r: (
                None if (r["exponent_sum"], r["kind"]) == (sigma, kind_of)
                else f"classified {r['exponent_sum']}/{r['kind']}, expected {sigma}/{kind_of}")
        if kind in ("rewrite-coset", "conjugate-family", "emit-ky", "emit-solution-group", "reduce", "verdict"):
            ge, vecs, verdict = inputs.generalized_equation(rng, gs, 1 if kind == "emit-solution-group" else 2)
            script = inputs.geq_script(gs, ge, vecs)
            if kind == "rewrite-coset":
                return script, [], 0, lambda r: None if r["expansion_verified"] else "expansion not verified"
            if kind == "conjugate-family":
                return script, [], 0, lambda r: (
                    None if r["members"] and len(r["members"]) == len(r["labels"]) else "family size mismatch")
            if kind in ("emit-ky", "emit-solution-group"):
                extra = ["--window", str(rng.randint(1, 2))] if kind == "emit-solution-group" else []
                return script, extra, 0, lambda r: None if r["text"].strip() else "empty presentation"
            if kind == "reduce":
                ambient = rng.choice(("free-product", "direct-product"))
                return script, ["--ambient", ambient], 0, lambda r: (
                    None if r["ambient"] == ambient else "wrong ambient")
            return script, [], 0 if verdict == "unimodular" else 1, lambda r: (
                None if r["overall"] == verdict else f"verdict {r['overall']}, gcd oracle says {verdict}")
        if kind in ("normal-form-6", "emit-system-7"):
            e = inputs.unimodular_equation(rng, gs, self.nf_lengths.draw())
            script = AB_HEADER + inputs.equation_script_line(gs, e)
            if kind == "emit-system-7":
                return script, ["--split", "0|1", "--window", "2"], 0, lambda r: None
            return script, ["--split", "0|1"], 0, lambda r: oracles.check_mn(
                (r["m"], r["n"] if r["kind"] == "form6" else 0), eqmod.bruteforce_min_form6(e, gs.split))
        if kind in ("up-check", "strong-up"):
            n = self.census_sizes[kind].draw()
            X, Y = self.rng.sample(self.ball3, n), self.rng.sample(self.ball3, n)
            xs, ys = [x.payload for x in X], [y.payload for y in Y]
            script = self._fours_lines("XY", (X, Y))
            if kind == "up-check":
                uc = oracles.unique_count(oracles.fours_mul, xs, ys)
                return script, ["--sets", "X,Y"], 0 if uc else 1, lambda r: (
                    None if (r["unique_count"], r["total_factorizations"]) == (uc, len(xs) * len(ys))
                    else f"unique count {r['unique_count']}, payload census {uc}")
            holds = oracles.strong_up_holds(oracles.fours_mul, xs, ys)
            return script, ["--sets", "X,Y"], 0 if holds else 1, lambda r: (
                None if r["holds"] == holds else f"strong UP {r['holds']}, payload census {holds}")
        if kind == "up4":
            sets = [self.rng.sample(self.ball3, self.up4_sizes.draw()) for _ in range(4)]
            holds = oracles.up4_holds(oracles.fours_mul, [[e.payload for e in s] for s in sets])
            return self._fours_lines("ABCD", sets), ["--sets", "A,B,C,D"], 0 if holds else 1, lambda r: (
                None if r["holds"] == holds else f"UP4 {r['holds']}, payload census {holds}")
        if kind == "strojnowski":
            X, Y = (rng.sample(Z2_GRID, rng.randint(2, 8)) for _ in "XY")
            uc = oracles.unique_count(oracles.vec_mul, X, Y)
            lit = lambda vs: ", ".join(f"({a}, {b})" for a, b in vs)  # noqa: E731
            script = f"group Z = zn(2)\nset X in Z: {lit(X)}\nset Y in Z: {lit(Y)}\n"
            return script, ["--sets", "X,Y"], 0, lambda r: (
                None if (r["certified"], r["unique_count"], r["bound_met"]) == (True, uc, uc >= 2)
                else f"strojnowski {r}, payload census {uc}")
        if kind == "search-nonup":
            maxsize = self.search_sizes.draw()
            sizes = list(range(2, maxsize + 1))
            extra = ["--radius", "2", "--max-size", str(maxsize), "--budget-ms", str(NO_DEADLINE_MS)]
            return "group F = fours\n", extra, 0, lambda r: (
                None if (r["found"], r["sizes_truncated"], r["sizes_exhausted"]) == (False, [], sizes)
                else f"search {r['found']} truncated {r['sizes_truncated']}")
        if kind == "proper-power":
            w, exponent = inputs.power_word(rng, gs)
            script = f"group F = free(a, b)\nlet w = F: {gs.free_ab.format_element(w)}\n"
            return script, ["--elem", "w"], 0, lambda r: (
                None if r["exponent"] == exponent else f"exponent {r['exponent']}, period scan {exponent}")
        if kind == "corollary-precheck":
            u = inputs.random_letters(rng, 2, rng.randint(1, 3), cyclic=True)
            k = rng.randint(1, 2)
            letters = u * k
            applies = k * oracles.primitive_exponent(tuple(u)) == 1
            toks = []
            for g, s in letters:
                if rng.random() < 0.5:
                    toks.append(rng.choice(("a", "a^2")))
                toks.append(f"x{g + 1}" if s == 1 else f"x{g + 1}^-1")
            script = f"group C = cyclic(3)\nmveq M over C vars x1, x2: {' '.join(toks)} = 1\n"
            status = "corollary-applies" if applies else "corollary-silent"
            return script, [], 0 if applies else 1, lambda r: (
                None if r["status"] == status else f"status {r['status']}, period scan {status}")
        if kind == "solve-finite":
            n = rng.randint(2, 4)
            C = cyclic_group(n)
            names = [C.format_element(g) for g in C.elements() if not g.is_identity]
            shape = rng.choice(inputs.SHAPES)
            body = " ".join(f"{rng.choice(names)} {'t' if k == 1 else f't^{k}'}" for k in shape)
            script = f"group C = cyclic({n})\neq E over C: {body} = 1\n"
            extra = ["--max-degree", str(min(6, n + 2))]
            return script, extra, None, lambda r: (
                None if not r["found"] or r["reverified"] else "certificate not re-verified")
        raise ValueError(kind)

    def op(self, i: int) -> Op:
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        if kind == "verify":
            # the latest report of a kind drawn from a deck; any report when
            # that kind has none yet
            reports = self.reports.get(self.verify_kinds.draw()) or [p for ps in self.reports.values() for p in ps]
            path = reports[-1] if reports else None
            argv = ["verify", path]

            def check_verify(out):
                code, text = out
                if code != 0 or not text.startswith("verified"):
                    return f"verify exit {code}: {text.strip()}"
                return None if run_cli(argv) == out else "verify output differs on re-run"

            return Op(kind, lambda: run_cli(argv), check_verify)
        structured = (i // len(CLI_KINDS)) % 3 != 2
        script, extra, expected, semantic = self._command(kind)
        path = os.path.join(self.dir, f"op{i}.ge")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(script)
        argv = [kind, path] + extra + (["--format", "structured"] if structured else [])

        def check(out):
            code, text = out
            if code not in (0, 1) or (expected is not None and code != expected):
                return f"exit code {code}, expected {expected}: {text[:200]!r}"
            if run_cli(argv) != out:
                return "report differs on re-run"
            if not structured:
                return None
            report = json.loads(text)
            if expected is None and code != (0 if report["result"].get("found") else 1):
                return f"exit code {code} disagrees with found={report['result'].get('found')}"
            reason = semantic(report["result"])
            if reason is None and kind in VERIFIABLE:
                rpath = os.path.join(self.dir, f"report{i}.json")
                with open(rpath, "w", encoding="utf-8") as fh:
                    fh.write(text)
                self.reports.setdefault(kind, []).append(rpath)
            return reason

        return Op(kind, lambda: run_cli(argv), check)

    def job(self) -> list[Op]:
        """A cold-start CLI command in a fresh interpreter."""
        ctx = self.ctx
        cmd = [ctx.python, "-m", "groupeq.cli", "verdict", ctx.fixture, "--format", "structured"]

        def check(out):
            code, text = out
            if code != 0 or json.loads(text)["result"]["overall"] != "unimodular":
                return f"cold verdict exit {code}"
            return None

        return [Op("job.cold_cli_s", lambda: ctx.child(cmd), check)]


# ---------------------------------------------------------------------------
# fours-search


# Shapes of the search stream: (generators, inverse pairs in ball(2, gens),
# maxsize).  Generating sets of two or three elements of ball(2) are grouped
# by those two numbers, which fix the subsets the search tests; every round
# of 21 operations has each shape once, so only the generators depend on the
# seed.  Costs run from about 3 ms to 120 ms per call.
SEARCH_RADIUS = inputs.SEARCH_RADIUS
SEARCH_SHAPES = [(g, pairs, k) for g, pairs in ((2, 6), (2, 8), (3, 9), (3, 10), (3, 12), (3, 13), (3, 14))
                 for k in (6, 8, 10)]


class FoursSearch:
    name = "fours-search"
    jobs = 1

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.gs = inputs.Groups()
        self.classes = inputs.generating_sets(self.gs.fours, SEARCH_RADIUS)
        self.shapes = inputs.Deck(self.rng, SEARCH_SHAPES)
        self.caps = DEFAULT_CAPS.with_overrides(radius=2 * SEARCH_RADIUS, budget_ms=NO_DEADLINE_MS)
        self.witness = None

    def op(self, i: int) -> Op:
        count, pairs, k = self.shapes.draw()
        gens = self.rng.choice(self.classes[count, pairs])
        claim = oracles.SearchClaim(self.rng, [g.payload for g in gens], SEARCH_RADIUS, k)
        return Op("search", lambda: upmod.search_nonup_witness(self.gs.fours, SEARCH_RADIUS, k, gens, self.caps),
                  claim.check)

    def job(self) -> list[Op]:
        """Exhaust the symmetric radius-3 frontier, then run the seed-17
        asymmetric anneal to a verified witness."""
        ctx = self.ctx
        caps = DEFAULT_CAPS.with_overrides(radius=2 * EXHAUST_RADIUS, budget_ms=NO_DEADLINE_MS)

        def check_anneal(out):
            code, text = out
            if code != 0:
                return f"anneal exit {code}: {text[-300:]!r}"
            restarts = witness = None
            lines = text.splitlines()
            for j, line in enumerate(lines):
                if " restarts in " in line:
                    restarts = int(line.split()[0])
                if line.startswith("witness of size "):
                    size = int(line.split()[3].rstrip(":"))
                    witness = tuple(self.gs.fours.parse_element(s) for s in lines[j + 1:j + 1 + size])
            if restarts is None or witness is None:
                return "anneal ended without a witness"
            ctx.part("up.anneal.restarts", restarts)
            self.witness = witness
            return oracles.check_witness(witness, 14)

        return [
            Op("job.exhaust_s",
               lambda: upmod.search_nonup_witness(self.gs.fours, EXHAUST_RADIUS, EXHAUST_MAXSIZE, caps=caps),
               lambda res: oracles.check_exhaustion(res, EXHAUST_SUBSETS, EXHAUST_SIZES)),
            Op("job.witness_s",
               lambda: ctx.run_script(os.path.join("scripts", "search_fours_witness.py"), ANNEAL_ARGS),
               check_anneal),
        ]


# ---------------------------------------------------------------------------
# equations

# Fixed shares of each 50-operation round, so the tail is made of the same
# kinds of operation on every seed.
EQ_MIX = ["nf6"] * 20 + ["coset"] * 12 + ["power"] * 12 + ["solve"] * 4 + ["falsifier"] * 2
# (A-generators, b in <A>): two of every three falsifier calls find no relation
FALSIFIER_CASES = [(1, False), (2, False), (1, False), (2, False), (1, True), (2, True)]


class Equations:
    name = "equations"
    jobs = 3

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.rng = rng = random.Random(seed)
        self.gs = inputs.Groups()
        self.kinds = inputs.Deck(rng, EQ_MIX)
        self.nf_lengths = inputs.Deck(rng, (3, 5, 7))
        self.falsifier_cases = inputs.Deck(rng, FALSIFIER_CASES)
        self.finite_groups = inputs.Deck(rng, self.gs.finite)
        self.shapes = inputs.Deck(rng, inputs.SHAPES)
        self.extra_degrees = inputs.Deck(rng, (0, 1, 2))

    def op(self, i: int) -> Op:
        kind = self.kinds.draw()
        rng, gs = self.rng, self.gs
        if kind == "nf6":
            e = inputs.unimodular_equation(rng, gs, self.nf_lengths.draw())
            return Op(kind, lambda: eqmod.normal_form_6(e, gs.split),
                      lambda res: oracles.check_normal_form(res, e, gs.split))
        if kind == "coset":
            ge, _, verdict = inputs.generalized_equation(rng, gs)

            def check_coset(out):
                re, v = out
                if re.expansion() != ge.word():
                    return "coset expansion differs from the equation's word"
                if v.overall != verdict:
                    return f"verdict {v.overall}, gcd oracle says {verdict}"
                return None

            return Op(kind, lambda: (gen.coset_rewrite(ge), gen.unimodular_verdict(ge)), check_coset)
        if kind == "power":
            w, exponent = inputs.power_word(rng, gs)
            return Op(kind, lambda: fg.proper_power(w),
                      lambda dec: oracles.check_proper_power(dec, w, exponent))
        if kind == "solve":
            G = self.finite_groups.draw()
            e = inputs.finite_equation(rng, G, self.shapes.draw())
            max_degree = min(7, len(G.elements()) + self.extra_degrees.draw())

            def check_solve(rep):
                if rep.found:
                    return oracles.check_certificate(rep.certificate, e)
                if not (rep.degrees_tested or rep.degrees_capped):
                    return "no solution and no degree reported"
                return None

            return Op(kind, lambda: solver.solve_over_finite(e, max_degree), check_solve)
        count, relation = self.falsifier_cases.draw()
        a_gens, b = inputs.falsifier_case(rng, gs, count, relation)
        ident = gs.xyz.identity()

        def check_falsifier(res):
            if res.falsified != relation:
                return f"falsifier status {res.status}, expected relation={relation}"
            if relation and oracles.eval_falsifier_witness(res.witness, a_gens, b, ident) != ident:
                return "falsifier witness does not evaluate to the identity"
            return None

        return Op(kind, lambda: wordsmod.relation_falsifier(a_gens, b, ident, max_len=6), check_falsifier)

    def job(self) -> list[Op]:
        def check(out):
            code, text = out
            if code != 0 or "oracle mismatches: 0" not in text:
                return f"sweep exit {code}: {text[-300:]!r}"
            if not text.startswith(f"{SWEEP_CLASSES} rotation classes"):
                return f"sweep processed {text.split()[0]} classes, expected {SWEEP_CLASSES}"
            return None

        return [Op("job.sweep_s",
                   lambda: self.ctx.run_script(os.path.join("scripts", "normal_form_sweep.py"), SWEEP_ARGS),
                   check)]


WORKLOADS = {w.name: w for w in (CliMix, FoursSearch, Equations)}
