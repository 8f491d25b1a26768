import io
import json
import os
import random
import string
import subprocess
import sys

import pytest

from groupeq import cli
from groupeq.cli import main, run_command
from groupeq.config import DEFAULT_CAPS
from groupeq.dsl import parse_script
from groupeq.errors import ParseError
from groupeq.report import canonical_json, render_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

UP_SCRIPT = """\
group Z = zn(1)
set X in Z: 0, 1
set Y in Z: 0, 1
"""

EQ_SCRIPT = """\
group A = free(a)
group B = free(b)
group G = A * B
eq E over G: b t b t b t^-1 = 1
"""

GEQ_SCRIPT = """\
group G = free(g, h)
group T = zn(2)
let u = T: (1, 0)
let v = T: (0, 1)
geq W over G with T: g u h v = 1
"""

MV_SCRIPT = """\
group C = cyclic(3)
mveq M over C vars x1, x2: a x1 x2 x1^-1 x2^-1 = 1
"""

FIN_SCRIPT = """\
group C = cyclic(3)
eq E over C: a^2 t^2 = 1
"""


def test_parse_script_declarations():
    sess = parse_script(GEQ_SCRIPT)
    kinds = {name: kind for name, (kind, _) in sess.names.items()}
    assert {n for n, k in kinds.items() if k == "group"} == {"G", "T"}
    assert {n for n, k in kinds.items() if k == "element"} == {"u", "v"}
    assert {n for n, k in kinds.items() if k == "geq"} == {"W"}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_script("group G = free(a)\nbogus statement\n")
    assert err.value.line == 2


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_script("group G = free(a)\ngroup G = zn(1)\n")


def test_classify_command():
    script = "group F = free(a)\neq E over F: a t a t^-1 a t = 1\n"
    report, code = run_command("classify", {}, script)
    assert code == 0
    assert report["result"]["kind"] == "unimodular"
    assert report["result"]["exponent_sum"] == 1
    assert report["result"]["trivial"] is False


def test_up_check_command_exit_codes():
    report, code = run_command("up-check", {"sets": "X,Y"}, UP_SCRIPT)
    assert code == 0
    assert report["result"]["unique_elements"] == ["0", "2"]
    klein = "group V = finite{0 1 2 3; 1 0 3 2; 2 3 0 1; 3 2 1 0}\nset S in V: 0, 1, 2, 3\n"
    report2, code2 = run_command("up-check", {"sets": "S,S"}, klein)
    assert code2 == 1
    assert report2["status"] == "falsified"


def test_rewrite_coset_command():
    report, code = run_command("rewrite-coset", {}, GEQ_SCRIPT)
    assert code == 0
    assert report["result"]["expansion_verified"] is True


def test_normal_form_command():
    report, code = run_command("normal-form-6", {"split": "0|1"}, EQ_SCRIPT)
    assert code == 0
    assert report["result"]["kind"] == "form6"
    assert (report["result"]["m"], report["result"]["n"]) == (0, 1)


def test_solve_finite_command():
    report, code = run_command("solve-finite", {}, FIN_SCRIPT)
    assert code == 0
    assert report["result"]["found"] and report["result"]["reverified"]


def test_solve_finite_stops_at_max_degree():
    report, code = run_command("solve-finite", {"max_degree": 7}, "group C = cyclic(3)\neq E over C: a t^3 = 1\n")
    assert code == 1
    assert report["result"]["degrees_tested"] == [3, 4, 5, 6, 7]
    assert report["result"]["degrees_capped"] == []


@pytest.mark.parametrize(
    "args, script, message",
    [
        ({}, "group C = cyclic(13)\neq E over C: a t = 1\n", "|G| = 13 exceeds max_degree 12: no degree to search"),
        ({"max_degree": 2}, FIN_SCRIPT, "|G| = 3 exceeds max_degree 2: no degree to search"),
    ],
    ids=["c13-default-cap", "c3-max-degree-2"],
)
def test_solve_finite_with_no_degree_in_range_is_an_error(args, script, message):
    report, code = run_command("solve-finite", args, script)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == {"type": "CapExceededError", "message": message}


def test_corollary_command():
    report, code = run_command("corollary-precheck", {}, MV_SCRIPT)
    assert code == 0
    assert report["result"]["status"] == "corollary-applies"


def test_verdict_command():
    report, code = run_command("verdict", {}, GEQ_SCRIPT)
    assert code == 0
    assert report["result"]["overall"] == "unimodular"


def test_parse_error_exit_code_two():
    report, code = run_command("classify", {}, "nonsense line\n")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "ParseError"


def test_golden_stability_across_runs():
    # deterministic ordering: two runs produce byte-identical reports
    for cmd, args, script in [
        ("classify", {}, EQ_SCRIPT),
        ("up-check", {"sets": "X,Y"}, UP_SCRIPT),
        ("rewrite-coset", {}, GEQ_SCRIPT),
        ("normal-form-6", {"split": "0|1"}, EQ_SCRIPT),
        ("verdict", {}, GEQ_SCRIPT),
        ("emit-ky", {}, GEQ_SCRIPT),
        ("solve-finite", {}, FIN_SCRIPT),
    ]:
        r1, c1 = run_command(cmd, args, script)
        r2, c2 = run_command(cmd, args, script)
        assert canonical_json(r1) == canonical_json(r2)
        assert c1 == c2


def test_round_trip_verify(tmp_path):
    report, _ = run_command("up-check", {"sets": "X,Y"}, UP_SCRIPT)
    path = tmp_path / "report.json"
    path.write_text(canonical_json(report))
    assert main(["verify", str(path)]) == 0
    # a tampered report fails verification
    tampered = dict(report)
    tampered["result"] = dict(report["result"], unique_count=99)
    path.write_text(canonical_json(tampered))
    assert main(["verify", str(path)]) == 1


SINGLETON_Y_SCRIPT = "group Z = zn(1)\nset X in Z: 0, 1\nset Y in Z: 0\n"


@pytest.mark.parametrize(
    "command, args, script, message",
    [
        ("strong-up", {"sets": "X,Y"}, SINGLETON_Y_SCRIPT, "the strong UP property needs |Y| >= 2"),
        ("strojnowski", {"sets": "X,Y"}, SINGLETON_Y_SCRIPT, "the Strojnowski bound needs nonsingleton subsets"),
        ("search-nonup", {"radius": -1}, "group C = cyclic(3)\n", "radius must be nonnegative"),
        ("search-nonup", {"radius": 2, "max_size": -3}, "group F = fours\n", "maxsize must be nonnegative"),
        ("conjugate-family", {"cosets": "zz"}, GEQ_SCRIPT, "bad vector literal 'zz'"),
        ("emit-solution-group", {"window": -1}, GEQ_SCRIPT, "window must be nonnegative"),
        ("emit-system-7", {"window": -1}, EQ_SCRIPT, "window must be nonnegative"),
        ("emit-system-7", {"split": "0|1", "window": -1}, EQ_SCRIPT.replace("b t b t b t^-1", "b t"),
         "window must be nonnegative"),
        ("solve-finite", {"max_degree": -1}, FIN_SCRIPT, "max_degree must be nonnegative"),
    ],
    ids=["strong-up-singleton-y", "strojnowski-singleton", "search-nonup-negative-radius",
         "search-nonup-negative-max-size", "conjugate-family-bad-cosets", "emit-solution-group-negative-window",
         "emit-system-7-negative-window", "emit-system-7-length-one-negative-window",
         "solve-finite-negative-max-degree"],
)
def test_a_library_value_error_is_an_error_report(tmp_path, capsys, command, args, script, message):
    # the library rejects the input with ValueError; the CLI reports it with
    # exit 2, not a traceback with exit 1 ("falsified")
    report, code = run_command(command, args, script)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == {"type": "ValueError", "message": message}
    path = tmp_path / "report.json"
    path.write_text(canonical_json(report) + "\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"


@pytest.mark.parametrize("command", ["conjugate-family", "emit-ky", "emit-solution-group"])
@pytest.mark.parametrize("cosets", ["", ";"])
def test_cosets_with_no_element_is_an_error_report(tmp_path, capsys, command, cosets):
    # a given --cosets must name a coset; an empty one does not fall back to
    # the default cosets
    report, code = run_command(command, {"cosets": cosets}, GEQ_SCRIPT)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == {
        "type": "GroupEqError",
        "message": f"--cosets needs at least one ';'-separated element, not {cosets!r}",
    }
    path = tmp_path / "report.json"
    path.write_text(canonical_json(report) + "\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"


@pytest.mark.parametrize("split", ["x|y", "0|y"])
def test_a_bad_split_names_the_flag_and_its_form(tmp_path, capsys, split):
    # a split that is not factor indices is an error report naming the flag
    report, code = run_command("normal-form-6", {"split": split}, EQ_SCRIPT)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == {
        "type": "GroupEqError",
        "message": f"--split needs factor indices in the form H|K, e.g. 0|1, not {split!r}",
    }
    path = tmp_path / "report.json"
    path.write_text(canonical_json(report) + "\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"


def test_main_end_to_end(tmp_path, capsys):
    script = tmp_path / "in.ge"
    script.write_text(UP_SCRIPT)
    code = main(["up-check", str(script), "--sets", "X,Y", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "groupeq.report/1"
    code2 = main(["up-check", str(script), "--sets", "X,Y"])
    out2 = capsys.readouterr().out
    assert "unique_elements" in out2 and code2 == 0


def test_render_text_is_derived_from_struct():
    report, _ = run_command("classify", {}, EQ_SCRIPT)
    text = render_text(report)
    assert "kind: unimodular" in text


def test_dsl_fuzz_never_crashes():
    rng = random.Random(1234)
    vocab = [
        "group", "let", "set", "eq", "geq", "mveq", "over", "with", "in", "vars",
        "=", ":", "free(a)", "zn(2)", "fours", "finite{0}", "perm(2){}", "t",
        "t^-1", "a", "b", "(1, 0)", "#0", "{", "}", "*", ",", "1",
    ]
    for _ in range(2500):
        n = rng.randrange(1, 8)
        parts = []
        for _ in range(n):
            if rng.random() < 0.8:
                parts.append(rng.choice(vocab))
            else:
                parts.append("".join(rng.choice(string.printable[:70]) for _ in range(rng.randrange(1, 6))))
        script = " ".join(parts) + "\n"
        if rng.random() < 0.3:
            script += rng.choice(vocab) + "\n"
        report, code = run_command("classify", {}, script)
        assert code in (0, 1, 2)
        assert report["status"] in ("ok", "falsified", "error")


def test_cli_fuzz_binary_garbage():
    rng = random.Random(99)
    for _ in range(500):
        blob = "".join(chr(rng.randrange(32, 1000)) for _ in range(rng.randrange(0, 60)))
        report, code = run_command("up-check", {"sets": "X,Y"}, blob)
        assert code in (0, 1, 2)


def _src_env():
    """This environment with the checkout's src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_numpy_out():
    subprocess.run(
        [sys.executable, "-c", "import groupeq.cli, sys; assert 'numpy' not in sys.modules"],
        env=_src_env(), check=True,
    )


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("groupeq.up", {"groupeq", "groupeq.backends", "groupeq.config", "groupeq.errors", "groupeq.up"}),
        ("groupeq.equations", {"groupeq", "groupeq.backends", "groupeq.config", "groupeq.errors",
                               "groupeq.words", "groupeq.equations"}),
    ],
    ids=["up", "equations"],
)
def test_each_layer_loads_only_what_it_imports(module, loaded):
    # the package root imports nothing, so a script loads only its own layers
    code = f"import sys, {module}; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'groupeq')))"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True, capture_output=True, text=True)
    assert set(out.stdout.split()) == loaded


# ---------------------------------------------------------------------------
# configuration errors exit 2 with a message on stderr


def _up_check_with_config(tmp_path, extra):
    script = tmp_path / "in.ge"
    script.write_text(UP_SCRIPT)
    return main(["up-check", str(script), "--sets", "X,Y"] + extra)


def test_config_valid_file_applies(tmp_path, capsys):
    cfg = tmp_path / "caps.json"
    cfg.write_text('{"radius": 3, "table_size": 6}')
    assert _up_check_with_config(tmp_path, ["--config", str(cfg)]) == 0
    assert "unique_elements" in capsys.readouterr().out


def test_config_missing_file_exits_two(tmp_path, capsys):
    code = _up_check_with_config(tmp_path, ["--config", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "config error" in captured.err and "absent.json" in captured.err


@pytest.mark.parametrize(
    "body, needle",
    [
        ("{oops", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"radius": 3, "bogus": 1}', "bogus"),
        ('{"radius": "3"}', "integer"),
        ('{"radius": true}', "integer"),
        ('{"oracle_m": 4}', "oracle_m"),
        ('{"max_len": 6}', "max_len"),
        ('{"falsifier_nodes": 7}', "falsifier_nodes"),
        ('{"budget_ms": -1}', "cap 'budget_ms' in config file"),
        ('{"window": 8}', "caps.json': window"),
        ('{"max_degree": 12}', "caps.json': max_degree"),
    ],
    ids=["malformed-json", "non-object", "unknown-key", "string-value", "bool-value", "removed-cap",
         "removed-cap-max-len", "removed-cap-falsifier-nodes", "negative-value",
         "removed-cap-window", "removed-cap-max-degree"],
)
def test_config_bad_file_exits_two(tmp_path, capsys, body, needle):
    cfg = tmp_path / "caps.json"
    cfg.write_text(body)
    assert _up_check_with_config(tmp_path, ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err


@pytest.mark.parametrize("flags, cap", [
    (("--budget-ms", "-1"), "budget_ms"),
    (("--radius", "-1"), "radius"),
])
def test_a_negative_cap_flag_is_an_error_report(tmp_path, capsys, flags, cap):
    # the report names the cap, exits 2 (bad input, not "falsified") and
    # verifies as it stands
    script = tmp_path / "in.ge"
    script.write_text("group C = cyclic(3)\n")
    assert main(["search-nonup", str(script), *flags, "--format", "structured"]) == 2
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["error"] == {"type": "ValueError", "message": f"{cap} must be nonnegative"}
    path = tmp_path / "report.json"
    path.write_text(out)
    assert main(["verify", str(path)]) == 0


def test_caps_refuse_a_negative_override():
    with pytest.raises(ValueError, match="^budget_ms must be nonnegative$"):
        DEFAULT_CAPS.with_overrides(budget_ms=-1)


def _fours_search_with_config(tmp_path, capsys, config, flags=("--radius", "2", "--max-size", "4")):
    """A fours search-nonup run with `config` as its --config file, or with
    no --config when it is None: (exit code, report, report path)."""
    script = tmp_path / "fours.ge"
    script.write_text("group F = fours\n")
    if config is not None:
        cfg = tmp_path / "made-with.json"
        cfg.write_text(config)
        flags = (*flags, "--config", str(cfg))
    code = main(["search-nonup", str(script), *flags, "--format", "structured"])
    path = tmp_path / "report.json"
    path.write_text(capsys.readouterr().out)
    return code, json.loads(path.read_text()), str(path)


@pytest.mark.parametrize(
    "set_env, env_config",
    [(False, None), (True, '{"table_size": 2}'), (True, '{"ball_size": 300000}'),
     (True, '{"radius": 3, "bogus": 1}'), (True, "{oops"), (True, None)],
    ids=["no-env", "other-valid", "same-key", "unknown-key", "malformed-json", "missing-file"],
)
def test_verify_uses_the_reports_config_caps_not_the_env(tmp_path, capsys, monkeypatch, set_env, env_config):
    # a ball cap no flag can set turns the search into an error report; the
    # report carries that cap, verify reads it from there, and no command
    # reads a $GROUPEQ_CONFIG file, readable or not
    if set_env:
        env = tmp_path / "env.json"
        if env_config is not None:
            env.write_text(env_config)
        monkeypatch.setenv("GROUPEQ_CONFIG", str(env))
    code, report, path = _fours_search_with_config(tmp_path, capsys, '{"ball_size": 30}')
    assert code == 2 and report["status"] == "error"
    assert report["error"]["message"] == "ball size exceeds cap 30"
    assert report["caps"] == {"ball_size": 30}
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"
    code, report, _ = _fours_search_with_config(tmp_path, capsys, None)
    assert code == 0 and report["status"] == "ok" and "caps" not in report


def test_report_caps_hold_only_non_default_config_values(tmp_path, capsys):
    # a config value equal to its default and a cap set by a flag stay out of caps
    code, report, path = _fours_search_with_config(
        tmp_path, capsys, '{"radius": 3, "perms_per_degree": 250000, "table_size": 5}', ("--radius", "1", "--max-size", "2"))
    assert code == 0 and report["status"] == "ok"
    assert report["caps"] == {"radius": 3, "table_size": 5}
    assert report["args"] == {"max_size": 2, "radius": 1}
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"
    # a config of defaults only leaves the report as it is without a config
    code, report, _ = _fours_search_with_config(tmp_path, capsys, '{"ball_size": 200000}', ("--radius", "1"))
    assert code == 0 and "caps" not in report


def _report(command, args):
    return {"schema": "groupeq.report/1", "command": command, "args": args, "script": "group C = cyclic(3)\n"}


@pytest.mark.parametrize(
    "report, needle",
    [
        ({"schema": "groupeq.report/1", "command": "classify"}, "args object"),
        ({"schema": "groupeq.report/1", "command": "nope", "args": {}, "script": ""}, "unknown command 'nope'"),
        ({"schema": "groupeq.report/1", "command": "classify", "args": [], "script": ""}, "args object"),
        ({"schema": "groupeq.report/1", "command": "classify", "args": {}}, "script string"),
        (["groupeq.report/1"], "unknown report schema"),
        (_report("search-nonup", {"radius": "x"}), "'x' is not a value of search-nonup's arg 'radius'"),
        (_report("up-check", {"sets": 5}), "5 is not a value of up-check's arg 'sets'"),
        (_report("search-nonup", {"radius": True}), "True is not a value of search-nonup's arg 'radius'"),
        (_report("reduce", {"ambient": "semi"}), "'semi' is not a value of reduce's arg 'ambient'"),
        (_report("classify", {"format": "text"}), "classify takes no arg 'format'"),
        (_report("up-check", {}), "up-check needs the arg 'sets'"),
        (_report("classify", {"radius": 3}), "classify takes no arg 'radius'"),
        (_report("up-check", {"sets": "X,Y", "name": "X"}), "up-check takes no arg 'name'"),
        (_report("search-nonup", {"max_len": 3}), "search-nonup takes no arg 'max_len'"),
        (dict(_report("classify", {}), caps=[1]), "the report's caps must hold a JSON object"),
        (dict(_report("classify", {}), caps={"oracle_n": 8}), "unknown cap(s) in the report's caps: oracle_n"),
        (dict(_report("classify", {}), caps={"radius": "3"}), "needs an integer"),
        (dict(_report("classify", {}), caps={"table_size": -2}),
         "malformed report: cap 'table_size' in the report's caps must be nonnegative, got -2"),
    ],
    ids=[
        "no-args", "unknown-command", "list-args", "no-script", "not-an-object",
        "string-radius", "int-sets", "bool-radius", "bad-choice", "unknown-arg", "missing-required",
        "removed-flag-radius", "removed-flag-name", "removed-flag-max-len",
        "caps-not-object", "caps-unknown-key", "caps-string-value", "caps-negative-value",
    ],
)
def test_verify_malformed_report_exits_two(tmp_path, capsys, report, needle):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err


def _search_nonup_report(tmp_path, capsys, flags):
    script = tmp_path / "in.ge"
    script.write_text("group C = cyclic(3)\n")
    code = main(["search-nonup", str(script), "--format", "structured", *flags])
    path = tmp_path / "report.json"
    path.write_text(capsys.readouterr().out)
    return code, json.loads(path.read_text()), str(path)


def test_verify_applies_the_reports_cap_flags(tmp_path, capsys):
    # --radius 9 lifts the default radius cap of 8; verify must lift it too
    code, report, path = _search_nonup_report(tmp_path, capsys, ["--radius", "9", "--max-size", "3"])
    assert code == 1 and report["status"] == "falsified"
    assert report["args"] == {"max_size": 3, "radius": 9}
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"


@pytest.mark.parametrize(
    "flags, exhausted",
    [(["--radius", "0"], []), (["--max-size", "0"], [])],
    ids=["radius-0", "max-size-0"],
)
def test_search_nonup_honours_zero_flags(tmp_path, capsys, flags, exhausted):
    code, report, path = _search_nonup_report(tmp_path, capsys, flags)
    assert code == 0 and report["status"] == "ok"
    result = report["result"]
    assert result["found"] is False and result["subsets_tested"] == 0
    assert result["sizes_exhausted"] == exhausted and result["sizes_truncated"] == []
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"


def test_emit_solution_group_window_0_drops_the_action_relators(tmp_path, capsys):
    # the report carries the window among its args and verifies
    script = tmp_path / "in.ge"
    script.write_text("group G = free(g, h)\ngroup T = zn(1)\nlet u = T: (1)\nlet z = T: (0)\ngeq W over G with T: g u h z = 1\n")
    assert main(["emit-solution-group", str(script), "--window", "0", "--format", "structured"]) == 0
    path = tmp_path / "report.json"
    path.write_text(capsys.readouterr().out)
    report = json.loads(path.read_text())
    assert report["args"] == {"window": 0} and "caps" not in report
    assert report["result"]["text"].splitlines()[1:] == ["rel: g@0 t~ h@0", "rel: t~ e1^-1"]
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"


def test_emit_solution_group_checks_normality_before_the_window(tmp_path, capsys):
    # <x^2> is not normal in free(x, y); the action of x would also move
    # copy 1 outside the window, but normality is the error reported
    script = tmp_path / "in.ge"
    script.write_text("group G = free(g, h)\ngroup T = free(x, y)\nlet u = T: x^2\ngeq W over G with T: g u = 1\n")
    assert main(["emit-solution-group", str(script), "--cosets", "1", "--window", "1"]) == 2
    assert "error: NormalityError: the conjugated family needs <t> normal in T" in capsys.readouterr().out


def test_emit_ky_emits_one_relator_per_coset_of_t():
    # x^-1 and x lie in one coset of <t> = <x^2>, so they give one relator;
    # the two copies' fours relators come first
    script = "group G = fours\ngroup T = free(x)\nlet u = T: x\ngeq W over G with T: a u b u = 1\n"
    report, code = run_command("emit-ky", {"cosets": "x^-1;1;x"}, script)
    assert code == 0
    rels = report["result"]["text"].splitlines()[1:]
    assert rels == [
        "rel: a@1^-1 b@1^2 a@1 b@1^2",
        "rel: b@1^-1 a@1^2 b@1 a@1^2",
        "rel: a@x^-1 b@x^2 a@x b@x^2",
        "rel: b@x^-1 a@x^2 b@x a@x^2",
        "rel: a@x b@1 t~",
        "rel: a@1 t~ b@x",
    ]


# ---------------------------------------------------------------------------
# golden reports: fixed inputs whose structured reports must not change by a byte


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDENS = sorted(f[:-5] for f in os.listdir(GOLDEN_DIR) if f.endswith(".json"))

# the exit code each golden report must come with, read from its status
GOLDEN_CODES = {"ok": 0, "falsified": 1, "error": 2}


def _golden(name):
    """The stored bytes of a golden report and the report they hold."""
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "r", encoding="utf-8") as fh:
        stored = fh.read()
    return stored, json.loads(stored)


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_reports_reproduce_byte_for_byte(name):
    stored, data = _golden(name)
    fresh, code = run_command(data["command"], data["args"], data["script"], data.get("caps"))
    assert canonical_json(fresh) + "\n" == stored
    assert code == GOLDEN_CODES[data["status"]]


# the flags each command reads, by the key they take in a report's args
DECLARED_FLAGS = {
    "classify": {"name"},
    "rewrite-coset": {"name"},
    "verdict": {"name"},
    "corollary-precheck": {"name"},
    "conjugate-family": {"name", "cosets"},
    "emit-ky": {"name", "cosets", "witness_var"},
    "emit-solution-group": {"name", "cosets", "witness_var", "window"},
    "reduce": {"name", "ambient"},
    "normal-form-6": {"name", "split"},
    "emit-system-7": {"name", "split", "window"},
    "solve-finite": {"name", "max_degree"},
    "up-check": {"sets"},
    "strong-up": {"sets"},
    "up4": {"sets"},
    "strojnowski": {"sets"},
    "search-nonup": {"group", "radius", "max_size", "budget_ms"},
    "proper-power": {"elem"},
}


def test_each_command_declares_only_the_flags_it_reads():
    options = cli._parser()[1]
    assert {cmd: set(opts) for cmd, opts in options.items()} == DECLARED_FLAGS
    assert sum(len(opts) for opts in options.values()) == 31


@pytest.mark.parametrize(
    "argv, text",
    [
        (["classify", "--max-len", "3"], EQ_SCRIPT),
        (["up-check", "--sets", "X,Y", "--name", "X"], UP_SCRIPT),
        (["search-nonup", "--name", "C"], "group C = cyclic(3)\n"),
        (["verdict", "--window", "2"], GEQ_SCRIPT),
        (["solve-finite", "--radius", "2"], FIN_SCRIPT),
    ],
    ids=["classify-max-len", "up-check-name", "search-nonup-name", "verdict-window", "solve-finite-radius"],
)
def test_a_flag_the_command_does_not_read_exits_two(tmp_path, capsys, argv, text):
    script = tmp_path / "in.ge"
    script.write_text(text)
    assert main([argv[0], str(script), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_one_parser_serves_every_main_call(tmp_path, capsys):
    # main builds the argparse parser once per process: a bad argv (exit 2)
    # first, then every golden fixture through main: verify, its structured
    # bytes, its exit code, and its text, which is render_text of the rebuilt
    # report (a stored report has its keys sorted, and text keeps the order
    # the command builds)
    cli._parser.cache_clear()
    assert main(["classify", "--no-such-flag"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    script, config = tmp_path / "script.ge", tmp_path / "caps.json"
    for name in GOLDENS:
        stored, data = _golden(name)
        assert main(["verify", os.path.join(GOLDEN_DIR, name + ".json")]) == 0
        assert capsys.readouterr().out == "verified: reports match\n"
        script.write_text(data["script"], encoding="utf-8")
        argv = [data["command"], str(script)]
        argv += [part for k, v in data["args"].items() for part in ("--" + k.replace("_", "-"), str(v))]
        if "caps" in data:
            config.write_text(json.dumps(data["caps"]), encoding="utf-8")
            argv += ["--config", str(config)]
        code = GOLDEN_CODES[data["status"]]
        assert main([*argv, "--format", "structured"]) == code
        assert capsys.readouterr().out == stored
        assert main(argv) == code
        fresh, _ = run_command(data["command"], data["args"], data["script"], data.get("caps"))
        assert capsys.readouterr().out == render_text(fresh)
    info = cli._parser.cache_info()
    assert info.misses == 1 and info.hits > 19


# the args main once wrote into a report when their flag was left out
FORMER_DEFAULTS = {
    "emit-ky": ("witness_var", "t~"),
    "emit-solution-group": ("witness_var", "t~"),
    "reduce": ("ambient", "free-product"),
}


def test_a_report_whose_args_hold_a_flags_default_verifies(tmp_path, capsys):
    # the runners hold the defaults main once wrote into args, so a report
    # made that way re-runs to the same result and verifies
    path = tmp_path / "report.json"
    for name in GOLDENS:
        _, data = _golden(name)
        default = FORMER_DEFAULTS.get(data["command"])
        if default is None:
            continue
        args = dict(data["args"])
        args.setdefault(*default)
        path.write_text(canonical_json(dict(data, args=args)) + "\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "verified: reports match\n"


def _readme_example():
    """The first fenced block of the README's CLI section."""
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    return section.split("```\n")[1]


def test_the_readme_example_runs_and_its_report_verifies(tmp_path, capsys):
    example = _readme_example()
    assert len(example.splitlines()) == 5
    script = tmp_path / "script.ge"
    script.write_text(example, encoding="utf-8")
    assert main(["rewrite-coset", str(script)]) == 0
    assert "  expansion_verified: True" in capsys.readouterr().out.splitlines()
    assert main(["verdict", str(script), "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "ok"
    path = tmp_path / "verdict.json"
    path.write_text(out, encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "verified: reports match\n"


def test_the_module_entry_point_runs_as_a_process(tmp_path):
    # `python -m groupeq.cli`: verify of an ok golden, and a search that finds
    # a witness, whose exit code is 1
    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "groupeq.cli", *argv], env=_src_env(),
                              capture_output=True, text=True)

    proc = cli_run("verify", os.path.join(GOLDEN_DIR, "verdict-unimodular.json"))
    assert (proc.returncode, proc.stdout) == (0, "verified: reports match\n")
    script = tmp_path / "cyclic.ge"
    script.write_text("group C = cyclic(6)\n", encoding="utf-8")
    proc = cli_run("search-nonup", str(script), "--radius", "3", "--max-size", "14", "--format", "structured")
    assert (proc.returncode, proc.stdout) == (1, _golden("search-nonup-cyclic6-witness")[0])
