import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pbcones
from pbcones import oracle
from pbcones.cli import build_parser, main, run

# Byte-for-byte golden outputs for the documented invocations (JSON mode).
GOLDENS = [
    (
        "ring --rank 2 --deg 2 --convention quotient --class 1,0 --json",
        '{"command": "ring", "rank": 2, "degree": 2, "convention": "quotient", '
        '"genus": 0, "class": {"x": "1", "y": "0"}, "top_power": "2", '
        '"pair_line": "1", "pair_eta": "0", "forward_cone": true, "ratio": "2", '
        '"topological_type": 0}',
        0,
    ),
    (
        "ring --rank 2 --deg -1 --convention sub --class 1,3/2 --json",
        '{"command": "ring", "rank": 2, "degree": -1, "convention": "sub", '
        '"genus": 0, "class": {"x": "1", "y": "3/2"}, "top_power": "2", '
        '"pair_line": "1", "pair_eta": "3/2", "forward_cone": true, "ratio": "2", '
        '"topological_type": 1}',
        0,
    ),
    (
        "ring --rank 2 --deg 2 --convention quotient --class 0,1 --json",
        '{"command": "ring", "rank": 2, "degree": 2, "convention": "quotient", '
        '"genus": 0, "class": {"x": "0", "y": "1"}, "top_power": "0", '
        '"pair_line": "0", "pair_eta": "1", "forward_cone": false, "ratio": null, '
        '"topological_type": 0}',
        0,
    ),
    (
        "bundle sympow --degrees 0,2 -m 2 --json",
        '{"command": "bundle", "action": "sympow", "input": [0, 2], "m": 2, '
        '"degrees": [0, 2, 4], "rank": 3, "degree": 6}',
        0,
    ),
    (
        "bundle slope --degrees 1,2 --json",
        '{"command": "bundle", "action": "slope", "input": [1, 2], "slope": "3/2"}',
        0,
    ),
    (
        "bundle semistable --degrees 2,2 --json",
        '{"command": "bundle", "action": "semistable", "input": [2, 2], '
        '"semistable": true}',
        0,
    ),
    (
        "cone --degrees 0,2 --json",
        '{"command": "cone", "bundle": {"kind": "decomposable", "degrees": [0, 2], '
        '"genus": 0}, "rays": ["l", "eta"], "kahler_ratio": "2", '
        '"exactness": "exact", "kahler_cone_equals_forward_cone": false, '
        '"class": null, "member": null}',
        0,
    ),
    (
        "cone --degrees -2,-1 --class 1,3/2 --json",
        '{"command": "cone", "bundle": {"kind": "decomposable", '
        '"degrees": [-2, -1], "genus": 0}, "rays": ["l", "-2l+eta"], '
        '"kahler_ratio": "1", "exactness": "exact", '
        '"kahler_cone_equals_forward_cone": false, '
        '"class": {"x": "1", "y": "3/2"}, "member": false}',
        1,
    ),
    (
        "cone --semistable 2,-3 --genus 1 --json",
        '{"command": "cone", "bundle": {"kind": "semistable", "rank": 2, '
        '"degree": -3, "genus": 1}, "rays": ["l"], "kahler_ratio": "0", '
        '"exactness": "exact", "kahler_cone_equals_forward_cone": true, '
        '"class": null, "member": null}',
        0,
    ),
    (
        "blowdown --base point --json",
        '{"command": "blowdown", "verdict": "AlwaysBlowdown", "reason": "", '
        '"base": "point", "genus": null, "fiber_rank": null, "alpha": null, '
        '"ratio": null, "certificate": null}',
        0,
    ),
    (
        "blowdown --genus 0 --alpha -1 --class 1,3/2 --json",
        '{"command": "blowdown", "verdict": "BlowdownUpToDeformation", '
        '"reason": "", "base": "surface", "genus": 0, "fiber_rank": 2, '
        '"alpha": -1, "ratio": "2", "certificate": {"bundle": '
        '{"kind": "decomposable", "degrees": [-1, 0]}, "kahler_class": '
        '{"x": "2", "y": "3"}, "restricted_ratio": "2", "weak": true, '
        '"s1_invariant": true, "chosen_ruling": null}}',
        0,
    ),
    (
        "blowdown --genus 0 --alpha 2 --ruled-areas 1,1 --json",
        '{"command": "blowdown", "verdict": "Undetermined", "reason": '
        '"ratio = 2 with respect to both rulings; the criterion is silent, and '
        'separating the areas by a perturbation would require ambient rulings '
        'that are not cohomologous", "base": "surface", "genus": 0, '
        '"fiber_rank": 2, "alpha": 2, "ratio": "2", "certificate": null}',
        1,
    ),
]


@pytest.mark.parametrize("argv,expected,code", GOLDENS,
                         ids=[g[0] for g in GOLDENS])
def test_golden_json_outputs(capsys, argv, expected, code):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert out == expected + "\n"
    json.loads(expected)  # stays well-formed


def test_golden_outputs_stable_under_rerun(capsys):
    argv = "blowdown --genus 0 --alpha -1 --class 1,3/2 --json".split()
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_sympow_human_output(capsys):
    assert main("bundle sympow --degrees 0,2 -m 2".split()) == 0
    assert capsys.readouterr().out == "0,2,4 (rank 3, degree 6)\n"


def test_slope_and_semistable_human(capsys):
    main("bundle slope --degrees 1,2".split())
    assert capsys.readouterr().out == "3/2\n"
    main("bundle semistable --degrees 2,2".split())
    assert capsys.readouterr().out == "true\n"
    main("bundle twist --degrees 0,-1 -t 1".split())
    assert capsys.readouterr().out == "0,1\n"


def test_blowdown_human_output(capsys):
    assert main("blowdown --base point".split()) == 0
    assert capsys.readouterr().out == "AlwaysBlowdown\n"
    assert main("blowdown --genus 0 --alpha 2 --ruled-areas 1,1".split()) == 1
    out = capsys.readouterr().out
    assert out.startswith("Undetermined\nreason: ratio = 2")
    assert main("blowdown --genus 0 --alpha 2 --ruled-areas 1,2".split()) == 0
    out = capsys.readouterr().out
    assert "chosen ruling: first" in out
    assert '"chosen_ruling": "first"' in out


@pytest.mark.parametrize("xy, areas", [("1,1", "1,2"), ("2,-1", "2,1"), ("3/2,0", "3/2,3/2"),
                                       ("1/3,5/7", "1/3,22/21")])
def test_blowdown_class_and_areas_agree(capsys, xy, areas):
    # the sphere product's class X,Y is the divisor with areas X,X+Y
    runs = []
    for flag, value in (("--class", xy), ("--ruled-areas", areas)):
        code = main(["blowdown", "--genus", "0", "--alpha", "2", flag, value, "--json"])
        runs.append((capsys.readouterr().out, code))
    assert runs[0] == runs[1]


def test_blowdown_convention_notice(capsys):
    # --convention has no effect: stdout and exit code match the run
    # without it, and stderr carries one notice line
    for argv, code in (("blowdown --genus 0 --alpha -1 --class 1,3/2 --json", 0),
                       ("blowdown --genus 1 --alpha 3 --class 1,-1/4", 1),
                       ("blowdown --base point", 0)):
        assert main(argv.split()) == code
        plain = capsys.readouterr()
        assert plain.err == ""
        for convention in ("sub", "quotient"):
            assert main(argv.split() + ["--convention", convention]) == code
            given = capsys.readouterr()
            assert given.out == plain.out
            assert given.err.startswith("notice: ") and given.err.count("\n") == 1
            assert "no effect" in given.err


def test_certificate_restricts_to_the_chosen_rulings_ratio():
    # Read back from the printed JSON: areas (a, b) give ratio 2b/a, which the
    # first ruling restricts to and the second turns into 2a/b = 4/ratio.
    areas = ["3,2", "2,3", "1,2", "2,1", "5/2,1", "1,5/2", "1/3,22/21", "22/21,1/3", "7/4,7/4"]
    argvs = [argv for argv, _, _ in GOLDENS if argv.startswith("blowdown")] + [
        f"blowdown --genus 0 --alpha 2 --ruled-areas {pair} --json" for pair in areas]
    payloads = {argv: json.loads(run(argv.split())[1]) for argv in argvs}
    rulings = set()
    for argv, payload in payloads.items():
        cert = payload["certificate"]
        if cert is not None:
            ratio, ruling = Fraction(payload["ratio"]), cert["chosen_ruling"]
            want = 4 / ratio if ruling == "second" else ratio
            assert Fraction(cert["restricted_ratio"]) == want, argv
            rulings.add(ruling)
    assert rulings == {None, "first", "second"}
    example = payloads["blowdown --genus 0 --alpha 2 --ruled-areas 3,2 --json"]
    assert (example["ratio"], example["certificate"]["restricted_ratio"]) == ("4/3", "3")


def test_cone_semistable_human(capsys):
    main("cone --semistable 2,-3 --genus 1".split())
    out = capsys.readouterr().out
    assert "Kahler cone = forward cone" in out


USAGE_ERRORS = [
    "ring --rank 2 --deg 2 --class 1,0.5 --json",
    "ring --rank 2 --deg 2 --class 1;2",
    "ring --rank 0 --deg 2 --class 1,0",
    "ring --rank 2 --deg 2 --class 1/0,1",
    "ring --rank 10000 --deg 1 --class 3/7,1",
    "ring --spec",
    # u^n would have about 4e6 digits, past the int-to-str limit
    "ring --rank 1000 --deg 1 --class 1" + "0" * 4000 + ",1 --json",
    "bundle sympow --degrees , -m 2",
    "bundle sympow --degrees " + ",".join(map(str, range(20))) + " -m 20",
    "bundle sympow --degrees 0,2 -m 0",
    # every degree list item must be an integer; an empty one is not
    "bundle slope --degrees 1,,2",
    "bundle semistable --degrees ,1",
    "cone --degrees 1,2,",
    "cone --semistable 2,-3 --genus 0",
    "cone --semistable 0,2 --genus 1",
    "cone --degrees 1,2 --semistable 2,2",
    "cone --degrees 0,2 --class 0/0,1",
    "blowdown --genus 0 --alpha 2",
    "blowdown --genus 0 --alpha 2 --ruled-areas 1,-1",
    "blowdown --genus 1 --alpha 2 --ruled-areas 1,2",
    "blowdown --genus 0 --alpha -1 --class 0,1",
    "blowdown --genus 0 --alpha 2 --ruled-areas 1/0,1",
    # a point-base divisor takes no surface data
    "blowdown --base point --genus 0 --alpha 3 --class 1,2 --json",
    "blowdown --base point --genus 1",
    "blowdown --base point --alpha -1",
    "blowdown --base point --class 1,3/2",
    "blowdown --base point --ruled-areas 1,2",
    "check sympow --max-rank 9",
    "check ring --samples -5",
    "check sympow --max-rank 0",
    "check ring --max-degree -1",
    "check cone --max-m 0",
    "check sympow --max-rank 6 --max-degree 1000",
    "check cone --max-rank 6 --max-degree 1000",
    # past the 500,000-case budget through their summand degrees
    "check sympow --max-rank 6 --max-m 8 --max-degree 7",
    "check cone --max-rank 6 --max-m 8 --max-degree 7",
    "check ring --max-degree 100000",
    "check ring --samples 100000",
    # cone sweeps of 5,699,943 and 5,311,156 cases, over 10 s in one process
    "check cone --max-rank 1 --max-degree 49999 --max-m 8",
    "check cone --max-rank 3 --max-degree 40 --max-m 1",
    # one sample or one degree past the budget: 500,220 and 500,002 cases
    "check ring --samples 1982",
    "check sympow --max-rank 1 --max-degree 76923 --max-m 1",
    # flags the target ignores
    "check sympow --samples 3",
    "check cone --seed 1",
    "check ring --max-m 2",
    # summands times m past the 10^6 work bound
    "bundle sympow --degrees 0,1 -m 999999",
    "bundle sympow --degrees 0 -m 1000000000",
    # argparse's refusals: an unknown flag, a missing required flag, a value
    # outside the choices, a non-integer, a missing subcommand
    "blowdown --genus 0 --alpha -1 --class 1,3/2 --fiber-rank 2",
    "ring --rank 2 --deg 2",
    "blowdown --base line",
    "ring --rank two --deg 2 --class 1,0",
    "check",
    # neither --degrees nor --semistable
    "cone --genus 1",
    # check flags follow the target
    "check --max-rank 2 ring",
    # flags are spelled in full: no abbreviation stands for a flag
    "ring --rank 2 --deg 2 --cl 1,0",
    "ring --rank 2 --deg 2 --cl -1,0",
    "check sympow --max-deg 1",
    # numbers are ASCII digits in full: no spaces, newlines or underscores
    # (each argv is read with shlex.split, so a quoted value keeps its spaces)
    "bundle slope --degrees ' 1,1_0'",
    "ring --rank 2 --deg 2 --class '1\n,0'",
    "bundle slope --degrees 0 '\n'",
    "cone --semistable ' 2,-3 ' --genus 1",
    "ring --rank ' 2' --deg 2 --class 1,0",
    # digits past what int() converts (sys.get_int_max_str_digits())
    "ring --rank " + "1" * 5000 + " --deg 2 --class 1,0",
]


def test_usage_errors_exit_2(capsys):
    for argv in USAGE_ERRORS:
        assert main(shlex.split(argv)) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("command, flag, value", [
    ("ring --rank 2 --deg 2", "class", "-1,0.5"),
    ("cone --degrees 0,2", "class", "1"),
    ("blowdown --genus 0 --alpha -1", "class", "1,x"),
    ("blowdown --genus 0 --alpha 2", "ruled-areas", "1/0,1"),
    ("cone --genus 1", "semistable", "-2,x"),
    ("bundle slope", "degrees", "1,,2"),
    ("cone", "degrees", "-1,a"),
])
def test_bad_value_refusal_names_its_flag(tmp_path, capsys, command, flag, value):
    # the flag's argparse type refuses the value, on the command line or
    # in a spec file alike
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({flag.replace("-", "_"): value}))
    refusals = []
    for argv in (command.split() + [f"--{flag}", value],
                 command.split() + ["--spec", str(spec)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        refusals.append(captured.err)
    assert refusals[0] == refusals[1]
    assert refusals[0].startswith(f"error: argument --{flag}: ")
    assert refusals[0].count("\n") == 1


@pytest.mark.parametrize("argv, refusal", [
    ("ring --rank 2 --deg 2 --class 1,0.5",
     "argument --class: malformed rational '0.5': expected p or p/q with q non-zero "
     "and no spaces"),
    ("cone --semistable 2 --genus 1",
     "argument --semistable: expected two comma-separated numbers, got '2'"),
    ("bundle slope --degrees 1,,2", "argument --degrees: malformed integer ''"),
    # the library's refusal, the one text for a divisor with no class
    ("blowdown --genus 0 --alpha 2",
     "a surface-base divisor needs its class (or, for the sphere product, its ruling areas)"),
    ("ring --rank 2 --deg 2 --cl 1,0", "the following arguments are required: --class"),
    ("check sympow --max-deg 1", "unrecognized arguments: --max-deg 1"),
])
def test_refusal_text(capsys, argv, refusal):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refusal}\n")


@pytest.mark.parametrize("argv, refusal", [
    (["ring", "--rank", "two", "--deg", "2", "--class", "1,0"],
     "argument --rank: malformed integer 'two'"),
    (["ring", "--rank", " 2", "--deg", "2", "--class", "1,0"],
     "argument --rank: malformed integer ' 2'"),
    (["check", "ring", "--seed", "1_0"], "argument --seed: malformed integer '1_0'"),
    (["bundle", "twist", "--degrees", "0,1", "-t", "٣"],
     "argument -t: malformed integer '٣'"),
    (["bundle", "slope", "--degrees", " 1,1_0"], "argument --degrees: malformed integer ' 1'"),
    (["bundle", "slope", "--degrees", "1,1_0"], "argument --degrees: malformed integer '1_0'"),
    (["cone", "--semistable", " 2,-3 ", "--genus", "1"],
     "argument --semistable: malformed integer ' 2'"),
    (["ring", "--rank", "2", "--deg", "2", "--class", "1\n,0"],
     "argument --class: malformed rational '1\\n': expected p or p/q with q non-zero "
     "and no spaces"),
    (["ring", "--rank", "2", "--deg", "2", "--class", "1,1_0/3"],
     "argument --class: malformed rational '1_0/3': expected p or p/q with q non-zero "
     "and no spaces"),
])
def test_numbers_are_ascii_digits_in_full(capsys, argv, refusal):
    # int() and Fraction() alone would take the spaces, the underscore, the
    # trailing newline and the Arabic-Indic digit three
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refusal}\n")


@pytest.mark.parametrize("spaced, joined", [
    ("ring --rank 2 --deg -1 --class -1,-3/2 --json",
     "ring --rank 2 --deg=-1 --class=-1,-3/2 --json"),
    ("bundle twist --degrees -3,-1 -t -2", "bundle twist --degrees=-3,-1 -t -2"),
    ("cone --degrees -2,-1 --class -1,2", "cone --degrees=-2,-1 --class=-1,2"),
    ("blowdown --genus 0 --alpha -1 --class 1,3/2",
     "blowdown --genus 0 --alpha=-1 --class 1,3/2"),
])
def test_negative_value_after_a_space_or_an_equals_sign(capsys, spaced, joined):
    # every long flag takes "--flag -1,0" as "--flag=-1,0"
    codes = [main(spaced.split())]
    first = capsys.readouterr()
    codes.append(main(joined.split()))
    assert capsys.readouterr() == first
    assert codes[0] == codes[1] != 2 and first.out and not first.err


def test_ring_digit_guard_boundary(capsys):
    # the guard bounds the answer's digits from the parts' bit lengths
    for deg in ("1", "-1"):
        assert main(f"ring --rank 1000 --deg {deg} --class 9999/7,1 --json".split()) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 1000
    assert main("ring --rank 1000 --deg 1 --class 99999/7,1 --json".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the answer could have 5118 digits; ints print at most 4300\n"


def test_ring_rank_1000_output_is_pinned(capsys):
    # b^n*d of about 2,800 bits; the sha256 is that of the factored form
    # x^(n-1) * N/(b*d), which takes no gcd of two large integers
    assert main("ring --rank 1000 --deg 1 --class 3/7,1 --json".split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "22f04840034989d1ff100a1950a1bc88fa4b1d91e5ec23bba56f58d506f96691")


def test_blowdown_takes_no_fiber_rank(tmp_path, capsys):
    spec = tmp_path / "bd.json"
    spec.write_text(json.dumps({"genus": 0, "alpha": -1, "class": "1,3/2", "fiber_rank": 2}))
    for argv in ("blowdown --genus 0 --alpha -1 --class 1,3/2 --fiber-rank 2".split(),
                 ["blowdown", "--spec", str(spec)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, refusal", [
    ("check cone --max-degree -1", "cone sweep needs --max-degree >= 0, got -1"),
    ("check sympow --max-rank 7", "sympow sweep needs --max-rank from 1 to 6, got 7"),
    ("check ring --samples 0", "ring sweep needs --samples >= 1, got 0"),
    ("check sympow --max-m 0", "sympow sweep needs --max-m >= 1, got 0"),
    ("check cone --max-m 0", "cone sweep needs --max-m >= 1, got 0"),
    ("check sympow --max-m 9", "sympow sweep needs --max-m <= 8, got 9"),
    ("check cone --max-m 9", "cone sweep needs --max-m <= 8, got 9"),
    ("check ring --max-rank 7", "ring sweep needs --max-rank from 1 to 6, got 7"),
    ("check ring --max-degree -1", "ring sweep needs --max-degree >= 0, got -1"),
    ("check cone --max-rank 0", "cone sweep needs --max-rank from 1 to 6, got 0"),
    ("check sympow --max-degree -1", "sympow sweep needs --max-degree >= 0, got -1"),
    # the budget names no flag: its count grows with every size
    ("check ring --samples 1982", "ring sweep of 500220 cases exceeds the budget of 500000"),
    # flags the target does not take
    ("check sympow --samples 3", "unrecognized arguments: --samples 3"),
    ("check cone --seed 1 --samples 2", "unrecognized arguments: --seed 1 --samples 2"),
    ("check ring --max-m 2", "unrecognized arguments: --max-m 2"),
])
def test_check_size_refusals_name_the_flag(capsys, argv, refusal):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refusal}\n")


def test_check_spec_file_sets_the_sweep_sizes(tmp_path, capsys):
    spec = tmp_path / "check.json"
    spec.write_text(json.dumps({"samples": 3, "max_degree": 1, "max_rank": 2, "json": True}))
    assert main(["check", "ring", "--spec", str(spec)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    want = oracle.ring_sweep(max_rank=2, max_abs_degree=1, samples=3).lines
    assert checks == [{"name": line.name, "digest": line.digest, "passed": line.passed,
                       "detail": line.detail} for line in want]


def test_check_commands(capsys):
    assert main("check ring --seed 1 --max-rank 2 --max-degree 2 --samples 5".split()) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 * 5 * 2
    assert "FAIL" not in out

    assert main("check sympow --max-rank 2 --max-degree 2 --max-m 2 --json".split()) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert payload["command"] == "check" and payload["target"] == "sympow"

    assert main("check cone --max-rank 2 --max-degree 2".split()) == 0
    capsys.readouterr()


def test_check_seed_defaults_to_the_oracle_seed(capsys):
    sizes = "--max-rank 2 --max-degree 1 --samples 3 --json".split()
    assert main(["check", "ring", *sizes]) == 0
    default = capsys.readouterr().out
    assert main(["check", "ring", "--seed", str(oracle.DEFAULT_SEED), *sizes]) == 0
    assert capsys.readouterr().out == default
    assert f"seed={oracle.DEFAULT_SEED} " in default


def test_check_ring_samples_default_is_the_sweeps(capsys):
    # --samples left out keeps ring_sweep's own default, the one default
    assert main("check ring --max-rank 2 --max-degree 1 --json".split()) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert all("samples=50 " in check["detail"] for check in checks)
    want = oracle.ring_sweep(max_rank=2, max_abs_degree=1).lines
    assert checks == [{"name": line.name, "digest": line.digest, "passed": line.passed,
                       "detail": line.detail} for line in want]


def test_cli_import_leaves_the_oracle_unloaded():
    # Only check runs the oracle, so no other command pays for importing it.
    # -S keeps site-packages start-up hooks from loading hashlib themselves.
    src = str(Path(pbcones.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, pbcones.cli; "
            "print(sorted({'pbcones.oracle', 'hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n", done.stdout


def test_cli_import_leaves_typing_unloaded():
    # No stdlib module pbcones uses imports typing; -S keeps site's .pth hooks out.
    src = str(Path(pbcones.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, pbcones.cli; print('typing' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n", done.stdout


# Run as `python -S -c`, so that site's .pth hooks load nothing themselves, a
# statement and then a last stdout line naming every module loaded.
LOADED_PROBE = "import sys\n{}\nprint(' '.join(sorted(sys.modules)))"
# What a command leaves unloaded: each loads only the library modules it
# runs, and only blowdown pays for dataclasses and the inspect it imports.
UNLOADED_AFTER = {
    "ring --rank 3 --deg -1 --class 1,2/3": ["dataclasses", "inspect", "pbcones.blowdown"],
    "bundle sympow --degrees 0,1 -m 2": ["dataclasses", "inspect", "pbcones.blowdown",
                                         "pbcones.cohomology", "pbcones.cones"],
    "cone --degrees 0,1 --class 1,1": ["dataclasses", "inspect", "pbcones.blowdown"],
}
# The library modules an import loads: what the imported module imports, and
# for an exported name what its own module imports; never all four on a lookup.
LOADED_BY_IMPORT = [
    ("import pbcones", []),
    ("from pbcones import cli", ["cli"]),
    ("from pbcones import oracle", ["bundles", "cohomology", "cones", "oracle"]),
    ("from pbcones import Decomposable", ["bundles"]),
    ("from pbcones import DivisorClass", ["bundles", "cohomology"]),
    ("from pbcones import kahler_cone", ["bundles", "cohomology", "cones"]),
    ("from pbcones import VerdictKind", ["blowdown", "bundles", "cohomology", "cones"]),
]


def _loaded_after(statement: str) -> set[str]:
    src = str(Path(pbcones.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", LOADED_PROBE.format(statement)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv", sorted(UNLOADED_AFTER))
def test_a_command_loads_only_the_modules_it_runs(argv):
    loaded = _loaded_after(f"from pbcones.cli import main; main({argv.split()!r})")
    assert "pbcones.cli" in loaded
    assert not loaded & set(UNLOADED_AFTER[argv])


@pytest.mark.parametrize("statement, library", LOADED_BY_IMPORT,
                         ids=[statement for statement, _ in LOADED_BY_IMPORT])
def test_an_import_loads_only_what_its_module_imports(statement, library):
    loaded = _loaded_after(statement)
    assert sorted(m for m in loaded if m.split(".")[0] == "pbcones") == [
        "pbcones", *(f"pbcones.{m}" for m in library)]


def test_spec_file_mode(tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({
        "rank": 2, "deg": 2, "convention": "quotient", "class": "1,0", "json": True,
    }))
    assert main(["ring", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert out == GOLDENS[0][1] + "\n"
    # explicit flags override the spec file, before or after --spec
    for argv in (["ring", "--spec", str(spec), "--class", "0,1"],
                 ["ring", "--class", "0,1", "--spec", str(spec)],
                 ["ring", "--class", "0,1", f"--spec={spec}"]):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == {"x": "0", "y": "1"}, argv


def test_spec_file_blowdown(tmp_path, capsys):
    spec = tmp_path / "bd.json"
    spec.write_text(json.dumps({
        "genus": 0, "alpha": -1, "class": "1,3/2", "json": True,
    }))
    assert main(["blowdown", f"--spec={spec}"]) == 0
    out = capsys.readouterr().out
    assert out == GOLDENS[10][1] + "\n"


def test_spec_file_refusals_are_one_line(tmp_path, capsys):
    # a key that is no flag, a float for an int flag, true for a flag
    # that takes a value
    for doc in ({"command": "ring"}, {"rank": 1.5}, {"genus": True}):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(doc))
        assert main(["ring", "--spec", str(spec)]) == 2, doc
        captured = capsys.readouterr()
        assert captured.out == "", doc
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, doc


def test_run_writes_nothing_and_main_writes_what_it_returns(capsys, monkeypatch):
    class Refuse:
        def write(self, *text):
            raise AssertionError(f"run wrote {text!r}")

        flush = write

    argvs = ([argv.split() for argv, _, _ in GOLDENS] + list(map(shlex.split, USAGE_ERRORS))
             + [argv.split() for argv in ("--help", "ring --help", "bundle --help",
                                          "check ring --help")]
             + ["blowdown --genus 0 --alpha -1 --class 1,3/2 --convention sub".split()])
    with monkeypatch.context() as patched:
        patched.setattr(sys, "stdout", Refuse())
        patched.setattr(sys, "stderr", Refuse())
        answers = [run(argv) for argv in argvs]
    for argv, (code, out, err) in zip(argvs, answers):
        assert main(argv) == code, argv
        assert capsys.readouterr() == (out, err), argv


def test_help_exits_0(capsys):
    assert main(["ring", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: pbcone ring ")
    assert captured.err == ""
    assert run(["--help"]) == (0, build_parser().format_help(), "")


def test_module_entry_point_refuses_in_one_line():
    # python -m pbcones runs main with no argv, so it reads sys.argv
    src = str(Path(pbcones.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = "blowdown --genus 0 --alpha -1 --class 1,3/2 --fiber-rank 2".split()
    done = subprocess.run([sys.executable, "-m", "pbcones", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: unrecognized arguments: --fiber-rank 2\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_exit_code(unbuffered):
    # a reader that leaves early (as "| true" does) gets no traceback: an
    # unbuffered print or the flush of a buffered one meets a closed pipe
    src = str(Path(pbcones.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "pbcones", "blowdown", "--genus", "0",
                               "--alpha", "2", "--ruled-areas", "1,2"],
                              env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert "Exception ignored" not in done.stderr
    assert (done.returncode, done.stderr) == (0, "")


def test_spec_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["ring", "--spec", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    assert main(["ring", "--spec", str(bad)]) == 2
    capsys.readouterr()
    # a spec file naming a spec file is refused, not silently ignored
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"spec": "missing.json", "rank": 2, "deg": 2,
                                  "class": "1,0"}))
    assert main(["ring", "--spec", str(nested)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
