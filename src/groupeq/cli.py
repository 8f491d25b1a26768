"""Batch command-line interface.

Each subcommand maps 1:1 to a library operation, reads a declaration script
from a file or stdin, and emits either human text or the structured report.
Exit codes: 0 success, 1 property-falsified (or no solution / verification
mismatch), 2 parse, configuration or input errors (a library ValueError
included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import equations as eqmod
from . import finite_solver as solver
from . import freegroup as fg
from . import generalized as gen
from . import up as upmod
from .backends import FreeProductGroup
from .config import DEFAULT_CAPS, Caps, check_caps, read_config
from .dsl import Session, parse_script
from .errors import ConfigError, GroupEqError, ParseError
from .report import SCHEMA, canonical_json, make_report, render_text

# parsed values that are not command args: they never enter a report
_NOT_ARGS = ("command", "script", "format", "config", "help")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and then shared;
    parsing leaves it unchanged, and callers must not modify it."""
    return _parser()[0]


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The parser, and each command's options by the key they take in args."""
    top = argparse.ArgumentParser(prog="groupeq", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    options: dict[str, dict[str, argparse.Action]] = {}
    for cmd, (_, flags) in COMMANDS.items():
        p = sub.add_parser(cmd)
        p.add_argument("script", nargs="?", default="-", help="script file or - for stdin")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--config", default=None, help="JSON file with cap overrides")
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        options[cmd] = {a.dest: a for a in p._actions if a.dest not in _NOT_ARGS}
    p = sub.add_parser("verify")
    p.add_argument("report", help="structured report file to re-run and compare")
    return top, options


# ---------------------------------------------------------------------------
# helpers


def _named_sets(sess: Session, spec: str, count: int):
    names = spec.split(",")
    if len(names) != count:
        raise GroupEqError(f"--sets needs {count} comma-separated names")
    return [sess.get("set", n.strip()) for n in names]


def _cosets(ge: gen.GeneralizedEquation, spec: Optional[str]):
    if spec is None:
        return None
    lits = [lit.strip() for lit in spec.split(";") if lit.strip()]
    if not lits:
        raise GroupEqError(f"--cosets needs at least one ';'-separated element, not {spec!r}")
    return [ge.vargroup.parse_element(lit) for lit in lits]


def _split_of(e: eqmod.Equation, spec: Optional[str]) -> eqmod.Split:
    if not isinstance(e.group, FreeProductGroup):
        raise GroupEqError("normal-form commands need a free-product coefficient group")
    if spec is None:
        return eqmod.Split.of(e.group, [0])
    hs, _, ks = spec.partition("|")
    try:
        h = [int(v) for v in hs.replace(",", " ").split()]
        k = [int(v) for v in ks.replace(",", " ").split()] if ks.strip() else None
    except ValueError:
        raise GroupEqError(f"--split needs factor indices in the form H|K, e.g. 0|1, not {spec!r}") from None
    return eqmod.Split.of(e.group, h, k)


# ---------------------------------------------------------------------------
# command implementations: (result, falsified)


def _classification(e: eqmod.Equation) -> dict:
    c = eqmod.classify(e)
    return {"length": c.length, "exponent_sum": c.exponent_sum, "kind": c.kind, "trivial": c.trivial}


def _run_classify(sess: Session, args: dict, caps: Caps):
    return _classification(sess.get("equation", args.get("name"))), False


def _run_rewrite_coset(sess: Session, args: dict, caps: Caps):
    ge = sess.get("geq", args.get("name"))
    re = gen.coset_rewrite(ge)
    ok = re.expansion() == ge.word()
    return {
        "total_product": str(re.t),
        "coset_reps": list(map(str, re.coset_reps())),
        "terms": [[str(g), str(c), k] for g, c, k in re.terms],
        "expansion_verified": ok,
    }, False


def _run_conjugate_family(sess: Session, args: dict, caps: Caps):
    ge = sess.get("geq", args.get("name"))
    re = gen.coset_rewrite(ge)
    xs = _cosets(ge, args.get("cosets")) or list(re.coset_reps())
    fam = gen.conjugate_family(re, xs)
    return {
        "labels": list(map(str, xs)),
        "members": [{"terms": [[str(g), str(c), k] for g, c, k in w.terms]} for w in fam],
    }, False


def _run_emit_ky(sess: Session, args: dict, caps: Caps):
    ge = sess.get("geq", args.get("name"))
    re = gen.coset_rewrite(ge)
    ys = _cosets(ge, args.get("cosets")) or [ge.vargroup.identity()]
    pres = gen.emit_ky(re, ys, args.get("witness_var", "t~"))
    return {"presentation": pres.to_struct(), "text": pres.to_text()}, False


def _run_emit_solution_group(sess: Session, args: dict, caps: Caps):
    ge = sess.get("geq", args.get("name"))
    re = gen.coset_rewrite(ge)
    ys = _cosets(ge, args.get("cosets")) or [ge.vargroup.identity()]
    pres = gen.emit_solution_group(re, ys, caps.window, args.get("witness_var", "t~"))
    return {"presentation": pres.to_struct(), "text": pres.to_text()}, False


def _run_reduce(sess: Session, args: dict, caps: Caps):
    ambient = args.get("ambient", "free-product")
    eq = gen.reduce_to_ordinary(sess.get("geq", args.get("name")), ambient)
    return {
        "ambient": ambient,
        "terms": [[str(g), e] for g, e in eq.terms],
        "classification": _classification(eq),
    }, False


def _cond_struct(c: gen.Condition) -> dict:
    out = {"status": c.status, "detail": c.detail}
    if c.witness is not None:
        out["witness"] = _witness_struct(c.witness)
    return out


def _witness_struct(w) -> list:
    out = []
    for item in w:
        if isinstance(item, (tuple, list)):
            out.append([str(v) if hasattr(v, "group") else v for v in item])
        elif hasattr(item, "group"):
            out.append(str(item))
        else:
            out.append(item)
    return out


def _run_verdict(sess: Session, args: dict, caps: Caps):
    v = gen.unimodular_verdict(sess.get("geq", args.get("name")))
    return {
        "overall": v.overall,
        "weak_overall": v.weak_overall,
        "order_infinite": _cond_struct(v.order_infinite),
        "subgroup_normal": _cond_struct(v.subgroup_normal),
        "quotient_strong_up": _cond_struct(v.quotient_strong_up),
        "quotient_torsion_free": _cond_struct(v.quotient_torsion_free),
    }, v.overall == "not-unimodular"


def _run_normal_form_6(sess: Session, args: dict, caps: Caps):
    e = sess.get("equation", args.get("name"))
    res = eqmod.normal_form_6(e, _split_of(e, args.get("split")))
    if res.kind == "length-one":
        lf = res.length_one
        return {"kind": "length-one", "m": lf.m, "u": str(lf.u), "sigma_inverted": lf.sigma_inverted}, False
    f = res.form6
    return {
        "kind": "form6",
        "m": f.m,
        "n": f.n,
        "c": str(f.c),
        "pairs": [[str(b), str(a)] for b, a in f.pairs],
        "side_conditions": {
            "length_at_least_two": f.side_conditions.length_at_least_two,
            "a_outside_smaller_window": list(f.side_conditions.a_outside_smaller_window),
            "b_outside_shifted_window": list(f.side_conditions.b_outside_shifted_window),
            "transcendence": f.side_conditions.transcendence_note,
        },
        "sigma_inverted": f.sigma_inverted,
    }, False


def _run_emit_system_7(sess: Session, args: dict, caps: Caps):
    e = sess.get("equation", args.get("name"))
    res = eqmod.normal_form_6(e, _split_of(e, args.get("split")))
    if res.kind == "length-one":
        return {
            "kind": "length-one",
            "note": "system degenerates to the shift relations with u substituted",
            "u": str(res.length_one.u),
        }, False
    pres = eqmod.emit_system_7(res.form6, caps.window)
    return {"kind": "form6", "presentation": pres.to_struct(), "text": pres.to_text()}, False


def _run_up_check(sess: Session, args: dict, caps: Caps):
    rep = upmod.up_check(*_named_sets(sess, args["sets"], 2))
    # the census repeats every factor; each element is formatted once, under
    # its payload (all of them are in one group)
    names: dict = {}
    for e in (*rep.x, *rep.y, *(v for v, _ in rep.products)):
        if e.payload not in names:
            names[e.payload] = str(e)
    return {
        "x_size": len(rep.x),
        "y_size": len(rep.y),
        "unique_elements": [names[v.payload] for v in rep.unique_elements],
        "unique_count": rep.unique_count,
        "distinct_y_count": rep.distinct_y_count(),
        "total_factorizations": rep.total_factorizations,
        "census": [
            [names[v.payload], [[names[x.payload], names[y.payload]] for x, y in pairs]]
            for v, pairs in rep.products
        ],
    }, not rep.has_unique_product


def _run_strong_up(sess: Session, args: dict, caps: Caps):
    res = upmod.strong_up_check(*_named_sets(sess, args["sets"], 2))
    result = {
        "holds": res.holds,
        "unique_count": res.report.unique_count,
        "distinct_y_count": res.report.distinct_y_count(),
    }
    if res.witness:
        result["witness"] = [[str(a), str(b)] for a, b in res.witness]
    return result, not res.holds


def _run_up4(sess: Session, args: dict, caps: Caps):
    res = upmod.up4_check(*_named_sets(sess, args["sets"], 4))
    result = {"holds": res.holds, "total_quadruples": res.total_quadruples}
    if res.witness:
        v, quad = res.witness
        result["witness"] = {"product": str(v), "quadruple": list(map(str, quad))}
    return result, not res.holds


def _run_strojnowski(sess: Session, args: dict, caps: Caps):
    res = upmod.strojnowski_check(*_named_sets(sess, args["sets"], 2))
    return {
        "certified": res.certified,
        "reason": res.reason,
        "unique_count": res.unique_count,
        "bound_met": res.bound_met,
    }, res.certified and not res.bound_met


def _run_search_nonup(sess: Session, args: dict, caps: Caps):
    group = sess.get("group", args.get("group"))
    radius = 3 if args.get("radius") is None else args["radius"]
    maxsize = 14 if args.get("max_size") is None else args["max_size"]
    res = upmod.search_nonup_witness(group, radius, maxsize, caps=caps)
    return {
        "found": res.found,
        "witness": list(map(str, res.witness)) if res.witness else None,
        "reverified": res.verified,
        "sizes_exhausted": list(res.sizes_exhausted),
        "sizes_truncated": list(res.sizes_truncated),
        "subsets_tested": res.subsets_tested,
    }, res.found


def _run_proper_power(sess: Session, args: dict, caps: Caps):
    dec = fg.proper_power(sess.get("element", args["elem"]))
    return {
        "root": str(dec.root),
        "exponent": dec.exponent,
        "core_root": str(dec.core_root),
        "conjugator": str(dec.conjugator),
        "is_proper_power": dec.is_proper_power,
    }, False


def _run_corollary_precheck(sess: Session, args: dict, caps: Caps):
    rep = fg.corollary_precheck(sess.get("mveq", args.get("name")))
    result = {"status": rep.status}
    if rep.variable_word is not None:
        result["variable_word"] = str(rep.variable_word)
    if rep.decomposition is not None:
        result["root"] = str(rep.decomposition.root)
        result["exponent"] = rep.decomposition.exponent
    return result, rep.status != "corollary-applies"


def _run_solve_finite(sess: Session, args: dict, caps: Caps):
    e = sess.get("equation", args.get("name"))
    rep = solver.solve_over_finite(e, caps=caps)
    if rep.found:
        cert = rep.certificate
        ok = solver.verify_certificate(cert, e)
        return {
            "found": True,
            "degree": cert.degree,
            "solution": list(cert.solution),
            "reverified": ok,
            "degrees_tested": list(rep.degrees_tested),
            "degrees_capped": list(rep.degrees_capped),
        }, False
    return {
        "found": False,
        "degrees_tested": list(rep.degrees_tested),
        "degrees_capped": list(rep.degrees_capped),
    }, True


# each flag a command may declare, with its argparse settings; none has a
# default, so a flag left out stays out of the report's args, and the runner
# that reads it holds its default
_FLAGS = {
    "name": {"help": "declared object to operate on"},
    "cosets": {"help": "';'-separated T-element literals"},
    "witness-var": {"help": "the witness variable's name, t~ when left out"},
    "window": {"type": int},
    "ambient": {"choices": ("free-product", "direct-product"), "help": "free-product when left out"},
    "split": {"help": "H and K factor indices, e.g. 0|1"},
    "max-degree": {"type": int},
    "sets": {"required": True, "help": "comma-separated declared set names, e.g. X,Y"},
    "group": {"help": "declared group name"},
    "radius": {"type": int},
    "max-size": {"type": int},
    "budget-ms": {"type": int},
    "elem": {"required": True, "help": "declared element name"},
}

# every command but verify: its runner and the flags it reads
COMMANDS = {
    "classify": (_run_classify, ("name",)),
    "rewrite-coset": (_run_rewrite_coset, ("name",)),
    "conjugate-family": (_run_conjugate_family, ("name", "cosets")),
    "emit-ky": (_run_emit_ky, ("name", "cosets", "witness-var")),
    "emit-solution-group": (_run_emit_solution_group, ("name", "cosets", "witness-var", "window")),
    "reduce": (_run_reduce, ("name", "ambient")),
    "verdict": (_run_verdict, ("name",)),
    "normal-form-6": (_run_normal_form_6, ("name", "split")),
    "emit-system-7": (_run_emit_system_7, ("name", "split", "window")),
    "up-check": (_run_up_check, ("sets",)),
    "strong-up": (_run_strong_up, ("sets",)),
    "up4": (_run_up4, ("sets",)),
    "strojnowski": (_run_strojnowski, ("sets",)),
    "search-nonup": (_run_search_nonup, ("group", "radius", "max-size", "budget-ms")),
    "proper-power": (_run_proper_power, ("elem",)),
    "corollary-precheck": (_run_corollary_precheck, ("name",)),
    "solve-finite": (_run_solve_finite, ("name", "max-degree")),
}


def run_command(command: str, args: dict, script: str, config: Optional[dict] = None) -> tuple[dict, int]:
    """Parse the script, dispatch under the default caps with `config`'s
    overrides (a config file's when running, the report's own when
    verifying) and the command's cap flags on top, and build the structured
    report; it embeds the config values that differ from the defaults, under
    `caps`.  A negative cap flag is a ValueError, and so an error report."""
    config = config or {}
    try:
        caps = DEFAULT_CAPS.with_overrides(**config).with_overrides(
            radius=args.get("radius"),
            window=args.get("window"),
            max_degree=args.get("max_degree"),
            budget_ms=args.get("budget_ms"),
        )
        result, falsified = COMMANDS[command][0](parse_script(script, caps), args, caps)
        status, code = ("falsified", 1) if falsified else ("ok", 0)
        report = make_report(command, args, script, status, result)
    except ParseError as exc:
        err = {"type": "ParseError", "message": exc.message, "line": exc.line, "column": exc.column}
        report, code = make_report(command, args, script, "error", {}, err), 2
    except (GroupEqError, ValueError) as exc:
        err = {"type": type(exc).__name__, "message": str(exc)}
        report, code = make_report(command, args, script, "error", {}, err), 2
    changed = {k: v for k, v in sorted(config.items()) if v != getattr(DEFAULT_CAPS, k)}
    if changed:
        report["caps"] = changed
    return report, code


def _command_args(ns: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(ns).items() if k not in _NOT_ARGS and v is not None}


def _args_problem(command: str, args: dict) -> Optional[str]:
    """Why `args` are not ones `command`'s flags can give, or None."""
    options = _parser()[1][command]
    for key, value in args.items():
        opt = options.get(key)
        if opt is None:
            return f"{command} takes no arg {key!r}"
        if type(value) is not (opt.type or str) or (opt.choices is not None and value not in opt.choices):
            return f"{value!r} is not a value of {command}'s arg {key!r}"
    missing = [key for key, opt in options.items() if opt.required and key not in args]
    return f"{command} needs the arg {missing[0]!r}" if missing else None


def _read_script(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if ns.command == "verify":
        return _verify(ns.report)
    try:
        script = _read_script(ns.script)
    except OSError as exc:
        print(f"cannot read script: {exc}", file=sys.stderr)
        return 2
    try:
        config = read_config(ns.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report, code = run_command(ns.command, _command_args(ns), script, config)
    if ns.format == "structured":
        print(canonical_json(report))
    else:
        sys.stdout.write(render_text(report))
    return code


def _verify(path: str) -> int:
    """Re-run the embedded command and compare reports byte for byte."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    if not isinstance(stored, dict) or stored.get("schema") != SCHEMA:
        print("unknown report schema", file=sys.stderr)
        return 2
    command, args, script = stored.get("command"), stored.get("args"), stored.get("script")
    if command not in COMMANDS:
        print(f"malformed report: unknown command {command!r}", file=sys.stderr)
        return 2
    if not isinstance(args, dict) or not isinstance(script, str):
        print("malformed report: it needs an args object and a script string", file=sys.stderr)
        return 2
    try:
        config = check_caps(stored.get("caps", {}), "the report's caps")
    except ConfigError as exc:
        print(f"malformed report: {exc}", file=sys.stderr)
        return 2
    problem = _args_problem(command, args)
    if problem is not None:
        print(f"malformed report: {problem}", file=sys.stderr)
        return 2
    fresh, _ = run_command(command, args, script, config)
    match = canonical_json(fresh) == canonical_json(stored)
    print("verified: reports match" if match else "MISMATCH: report does not reproduce")
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main())
