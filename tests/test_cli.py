import json

import pytest

from pbcones.cli import main

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
    "bundle sympow --degrees , -m 2",
    "bundle sympow --degrees " + ",".join(map(str, range(20))) + " -m 20",
    "cone --semistable 2,-3 --genus 0",
    "cone --degrees 1,2 --semistable 2,2",
    "cone --degrees 0,2 --class 0/0,1",
    "blowdown --genus 0 --alpha 2 --class 1,1",
    "blowdown --genus 0 --alpha -1 --class 0,1",
    "blowdown --genus 0 --alpha -1 --class 1,3/2 --fiber-rank 3",
    "blowdown --genus 0 --alpha 2 --ruled-areas 1/0,1",
    "check sympow --max-rank 9",
    "check ring --samples -5",
    "check sympow --max-rank 0",
    "check ring --max-degree -1",
    "check cone --max-m 0",
    "check sympow --max-rank 6 --max-degree 1000",
    "check cone --max-rank 6 --max-degree 1000",
]


def test_usage_errors_exit_2(capsys):
    for argv in USAGE_ERRORS:
        assert main(argv.split()) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


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


def test_spec_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["ring", "--spec", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    assert main(["ring", "--spec", str(bad)]) == 2
    capsys.readouterr()
