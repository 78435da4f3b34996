"""The CLI's output over the benchmark's argv mix is pinned, also when the
same process has answered other argv before.

``perfbench/cli_spawn.py`` draws its argv from a seed.  This test runs
the argv of two seeds through the in-process ``run`` and compares, per
query label, a sha256 of every exit code and stdout with a digest taken
from a known-good build.  A refactor that changes any answer, or any
byte of how it is printed, fails here.  Stderr stays empty, but for the
one notice line of a blowdown query that sets ``--convention``.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pbcones.cli import build_parser, main, run
from test_cli import GOLDENS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEEDS = (0, 1)
COUNT = 400
PINNED = {
    "blowdown-point": "2ce70384bee75c489f1316020b556371af4e6531d8c3247e954c99dbe20acdeb",
    "blowdown-ruled-areas": "14c05aac9a6a95564ce1f52c2672ae1c5902f0d40caf113ea336d2e49e9c4f0a",
    "blowdown-surface": "48de8a323ed14985d0d999ec36f831a5eeddc7b7b51238c96b11792d5302e8d6",
    "bundle-semistable": "0d966d4e867ad9c912ab997ed2f690c51d22996d13acdb380b08a9e973a3e35e",
    "bundle-slope": "09b99dbdfc5d8648dd98c47b85833ff9a020bd3731bd34bfce010bc95402afe8",
    "bundle-sympow": "867b5b374e83a68243dd87333b5ae7f4f9695afe3795cd3c99b6a20ff43c46b1",
    "bundle-twist": "c4b08a8d7b79286fb3945aa8a5989907c65a9b066c41ca5be7a3a54ef4046fc1",
    "cone": "6c482bb7a636957b0897b32ec5dd438a87c69df9aed3757b873339dea52818d6",
    "ring": "ca5c362ba31e4aeca3a34b049fd3bffed73dd4e67403a38647774ecd2f871187",
}
NOTICE = "notice: blowdown --convention has no effect and will be removed\n"


def _load(monkeypatch, name):
    # Load a benchmark module as a file, registered only for this test.
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _digests(monkeypatch, tmp_path) -> dict[str, str]:
    """Per-label sha256 of every exit code and stdout over the argv mix,
    whose stderr must be empty or, where --convention is set, the notice."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    _load(monkeypatch, "common")
    cli_spawn = _load(monkeypatch, "cli_spawn")
    digests, notices = {}, 0
    for seed in SEEDS:
        for i, query in enumerate(cli_spawn.generate(seed, COUNT)):
            argv = list(query.argv)
            if query.spec is not None:
                spec = tmp_path / f"seed{seed}-spec-{i}.json"
                spec.write_text(json.dumps(query.spec))
                argv[argv.index("--spec") + 1] = str(spec)
            code, out, err = run(argv)
            notice = argv[0] == "blowdown" and ("--convention" in argv
                                                or "convention" in (query.spec or {}))
            assert err == (NOTICE if notice else ""), argv
            notices += notice
            h = digests.setdefault(query.label, hashlib.sha256())
            h.update(f"{code}:{len(out)}:{out}".encode())
    assert notices == 36  # the blowdown argv of SEEDS that set --convention
    return {label: h.hexdigest() for label, h in digests.items()}


needs_perfbench = pytest.mark.skipif(not (PERFBENCH / "cli_spawn.py").is_file(),
                                     reason="perfbench/ is absent")


@needs_perfbench
def test_cli_output_digest_per_label(monkeypatch, tmp_path):
    assert _digests(monkeypatch, tmp_path) == PINNED


def _goldens_hold(capsys) -> None:
    for argv, expected, code in GOLDENS:
        assert main(argv.split()) == code, argv
        assert capsys.readouterr().out == expected + "\n", argv


@needs_perfbench
def test_parsers_built_once_keep_no_state(capsys, monkeypatch, tmp_path):
    # main reuses one parser per process; whatever ran before, in either
    # order, the goldens and the argv mix give the same bytes.
    _goldens_hold(capsys)
    assert _digests(monkeypatch, tmp_path) == PINNED
    _goldens_hold(capsys)
    assert build_parser() is build_parser()
    for refused in ("ring --rank 2 --deg 1 --class 1,x --json",   # UsageError
                    "ring --rank 2 --class 1,0 --json",           # argparse: no --deg
                    "--spec"):                                    # pre-parser: no FILE
        assert main(refused.split()) == 2, refused
        assert capsys.readouterr().out == "", refused
        argv, expected, code = GOLDENS[0]
        assert main(argv.split()) == code
        assert capsys.readouterr().out == expected + "\n"
