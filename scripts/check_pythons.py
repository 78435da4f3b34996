"""Check the CLI and the oracle under every Python the package claims.

    python3 scripts/check_pythons.py

pyproject.toml claims Python 3.10 to 3.13, and the pytest suite runs under
one interpreter.  This script needs no pytest or any other package.  It
looks for one working interpreter per minor version, newest patch first:
``$PYENV_ROOT/versions/3.1x.*/bin/python`` (``PYENV_ROOT`` defaults to
``~/.pyenv``), then ``python3.1x`` on PATH.  A candidate counts only if
it starts and reports that minor version (a pyenv shim for a version that
is not selected fails to start).  Under each one, run as ``-S -W error``
with ``PYTHONPATH=src``, so that any warning (a fork ``DeprecationWarning``
among them) fails it, it checks that:

* the ``GOLDENS`` of ``tests/test_cli.py`` print the same bytes and exit
  code, each argv answered through ``pbcones.cli.run``;
* ``pbcone --help`` and ``pbcone check ring --help`` exit 0 with stdout
  starting ``usage: pbcone`` and nothing on stderr (argparse lays out
  help differently from one version to the next, so no bytes are pinned);
* in fresh ``-S -W error`` processes, each ``UNLOADED_AFTER`` command of
  ``tests/test_cli.py`` leaves its modules unloaded, and each
  ``LOADED_BY_IMPORT`` statement loads just its pbcones modules, as read by
  that file's ``LOADED_PROBE``;
* every ``USAGE_ERRORS`` argv of ``tests/test_cli.py``, read with
  ``shlex.split``, exits 2 and prints one ``error: `` line on stderr and
  nothing on stdout;
* the sympow, cone and ring sweep reports match the sha256s pinned in
  ``tests/test_acceptance.py``;
* the argv that ``perfbench/cli_spawn.generate`` draws for the ``SEEDS``
  of ``tests/test_cli_spawn_digest.py`` give its ``PINNED`` per-label
  digests of exit codes and stdout (perfbench/ is imported with bytecode
  writing off, and the spec files go to a temporary directory);
* the acceptance ``ring_sweep(seed=1, samples=1000)`` passes within its
  10 s bound; its time, and those of the acceptance sympow and cone
  sweeps, are printed;
* no child process is left after the sweeps, which split their lines (the
  sympow sweep its bundles) among forked children on a host with more
  than one usable CPU.

It prints each interpreter it ran with its result, and each minor version
it did not find.  The exit code is 1 when a check failed or no
interpreter was found, else 0.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MINORS = (10, 11, 12, 13)
RING_SWEEP_BOUND_S = 10.0


def _constant(path: Path, name: str):
    """The value assigned to name at the top of a test module.  Usage
    errors are built with str, map and range, so they are evaluated with
    those names alone; everything else must be a literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    node = next(stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and [getattr(t, "id", None) for t in stmt.targets] == [name])
    try:
        return ast.literal_eval(node)
    except ValueError:
        code = compile(ast.Expression(node), str(path), "eval")
        return eval(code, {"__builtins__": {}, "str": str, "map": map, "range": range})


def _spawn_digests(run, seeds: tuple[int, ...], count: int) -> dict[str, str]:
    """Per-label sha256 of every exit code and stdout over the benchmark's
    argv mix, taken as tests/test_cli_spawn_digest.py takes it."""
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cli_spawn

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for i, query in enumerate(cli_spawn.generate(seed, count)):
                argv = list(query.argv)
                if query.spec is not None:
                    spec = Path(tmp) / f"seed{seed}-spec-{i}.json"
                    spec.write_text(json.dumps(query.spec))
                    argv[argv.index("--spec") + 1] = str(spec)
                code, out, _ = run(argv)
                h = digests.setdefault(query.label, hashlib.sha256())
                h.update(f"{code}:{len(out)}:{out}".encode())
    return {label: h.hexdigest() for label, h in digests.items()}


def _startup_failures(probe: str, unloaded_after: dict, loaded_by_import: list) -> list[str]:
    """The start-up module checks of tests/test_cli.py, each statement run in
    a fresh process of this interpreter."""
    failures = []

    def loaded(statement: str) -> set[str]:
        done = subprocess.run([sys.executable, "-S", "-W", "error", "-c",
                               probe.format(statement)], capture_output=True, text=True)
        if done.returncode != 0:
            failures.append(f"start-up {statement!r}: exit {done.returncode}, "
                            f"stderr {done.stderr[-300:]!r}")
            return set()
        return set(done.stdout.splitlines()[-1].split())

    for argv, unloaded in unloaded_after.items():
        extra = loaded(f"from pbcones.cli import main; main({argv.split()!r})") & set(unloaded)
        if extra:
            failures.append(f"start-up {argv!r} loaded {sorted(extra)}")
    for statement, library in loaded_by_import:
        got = sorted(m for m in loaded(statement) if m.split(".")[0] == "pbcones")
        if got != ["pbcones", *(f"pbcones.{m}" for m in library)]:
            failures.append(f"start-up {statement!r} loaded {got}")
    return failures


def child() -> int:
    """Run every check in this interpreter; print one line per failure and
    a last line of JSON counts."""
    from pbcones import oracle
    from pbcones.cli import run

    test_cli, test_acceptance, test_spawn = (
        ROOT / "tests" / f"{name}.py"
        for name in ("test_cli", "test_acceptance", "test_cli_spawn_digest"))
    goldens = _constant(test_cli, "GOLDENS")
    usage_errors = _constant(test_cli, "USAGE_ERRORS")
    probe, unloaded_after, loaded_by_import = (
        _constant(test_cli, name)
        for name in ("LOADED_PROBE", "UNLOADED_AFTER", "LOADED_BY_IMPORT"))
    failures = _startup_failures(probe, unloaded_after, loaded_by_import)
    for argv, expected, want in goldens:
        got = run(argv.split())
        if got != (want, expected + "\n", ""):
            failures.append(f"golden {argv!r}: exit {got[0]}, stdout {got[1]!r}, "
                            f"stderr {got[2]!r}")
    helps = ("--help", "check ring --help")
    for argv in helps:
        code, out, err = run(argv.split())
        if not (code == 0 and out.startswith("usage: pbcone") and err == ""):
            failures.append(f"help {argv!r}: exit {code}, stdout {out[:60]!r}, stderr {err!r}")
    for argv in usage_errors:
        code, out, err = run(shlex.split(argv))
        if not (code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1):
            failures.append(f"usage error {argv[:60]!r}: exit {code}, stderr {err!r}")
    sweeps = {"ring": (oracle.ring_sweep, dict(seed=1, samples=1000)),
              "sympow": (oracle.sympow_sweep, dict(max_rank=4, max_abs_degree=5, max_m=6)),
              "cone": (oracle.cone_sweep, dict(max_rank=4, max_abs_degree=5))}
    reports, walls = {}, {}
    for name, (sweep, sizes) in sweeps.items():
        start = time.perf_counter()
        reports[f"{name.upper()}_REPORT_SHA256"] = sweep(**sizes)
        walls[f"{name}_sweep_s"] = time.perf_counter() - start
    ring = reports["RING_REPORT_SHA256"]
    if not ring.all_passed or walls["ring_sweep_s"] >= RING_SWEEP_BOUND_S:
        failures.append(f"ring_sweep(seed=1, samples=1000): all_passed {ring.all_passed} "
                        f"in {walls['ring_sweep_s']:.2f} s, bound {RING_SWEEP_BOUND_S} s")
    for name, report in reports.items():
        digest = hashlib.sha256(report.render().encode("utf-8")).hexdigest()
        if digest != _constant(test_acceptance, name):
            failures.append(f"{name}: got {digest}")
    try:
        failures.append(f"a child process outlived the sweeps: {os.waitpid(-1, os.WNOHANG)}")
    except ChildProcessError:
        pass
    seeds, count = _constant(test_spawn, "SEEDS"), _constant(test_spawn, "COUNT")
    pinned, spawned = _constant(test_spawn, "PINNED"), _spawn_digests(run, seeds, count)
    failures += [f"spawn digest {label}: got {spawned.get(label)}"
                 for label in sorted(pinned.keys() | spawned.keys())
                 if spawned.get(label) != pinned.get(label)]
    for failure in failures:
        print(failure)
    print(json.dumps({"goldens": len(goldens), "help": len(helps), "usage_errors": len(usage_errors),
                      "startup": len(unloaded_after) + len(loaded_by_import),
                      "digests": len(reports), "spawn_argv": len(seeds) * count,
                      **{name: round(s, 2) for name, s in walls.items()},
                      "failures": len(failures)}))
    return 1 if failures else 0


def _starts(python: str, minor: int) -> str | None:
    """The interpreter's full version if it starts as 3.minor, else None."""
    try:
        done = subprocess.run([python, "-S", "-c", "import sys; print(sys.version.split()[0])"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    version = done.stdout.strip()
    return version if done.returncode == 0 and version.startswith(f"3.{minor}.") else None


def interpreters() -> tuple[dict[int, tuple[str, str]], list[int]]:
    """One working interpreter per minor version, and the minors not found."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found, missing = {}, []
    for minor in MINORS:
        patches = sorted(versions.glob(f"3.{minor}.*/bin/python"), reverse=True,
                         key=lambda p: [int(n) for n in re.findall(r"\d+", p.parts[-3])])
        on_path = shutil.which(f"python3.{minor}")
        for python in [str(p) for p in patches] + ([on_path] if on_path else []):
            version = _starts(python, minor)
            if version is not None:
                found[minor] = (python, version)
                break
        else:
            missing.append(minor)
    return found, missing


def main() -> int:
    found, missing = interpreters()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failed = False
    for python, version in found.values():
        done = subprocess.run([python, "-S", "-W", "error", str(Path(__file__).resolve()),
                               "--child"], env=env, capture_output=True, text=True)
        *lines, last = done.stdout.splitlines() or ["{}"]
        ok = done.returncode == 0
        failed |= not ok
        print(f"python {version} ({python}): {'PASS' if ok else 'FAIL'} {last}")
        for line in lines + done.stderr.splitlines():
            print(f"  {line}")
    for minor in missing:
        print(f"python 3.{minor}: not found")
    return 1 if failed or not found else 0


if __name__ == "__main__":
    sys.exit(child() if sys.argv[1:] == ["--child"] else main())
