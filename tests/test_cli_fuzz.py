"""Fuzz the pbcone front end: every argv or --spec document must end in an
answer (exit 0 or 1) or a clean usage error (exit 2), never a traceback.

Each example draws some of one command's flags with plausible values
(zero, negative and p/0 numbers included), in any order and in either
`--flag value` or `--flag=value` form, plus a little junk.  Values stay
small (ranks and powers below 10, short lists), so the property covers the
plumbing rather than large inputs; an example costs a few milliseconds,
most of it in building the parser.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pbcones.cli import run

small_int = st.integers(-3, 9).map(str)
# sweep sizes around each size's least value; at 3 a sweep takes milliseconds
size = st.integers(-3, 3).map(str)
number = st.one_of(small_int, st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 4)))
pair = st.builds("{},{}".format, number, number)
degrees = st.lists(small_int, max_size=5).map(",".join)
junk = st.text(alphabet="0123456789-+/,.= x\n", max_size=8)

FLAGS = {
    "ring": {"--rank": small_int, "--deg": small_int, "--genus": small_int, "--class": pair,
             "--convention": st.sampled_from(["quotient", "sub"])},
    "bundle sympow": {"--degrees": degrees, "-m": small_int},
    "bundle slope": {"--degrees": degrees},
    "bundle twist": {"--degrees": degrees, "-t": small_int},
    "bundle semistable": {"--degrees": degrees},
    "cone": {"--degrees": degrees, "--semistable": pair, "--genus": small_int, "--class": pair},
    "blowdown": {"--base": st.sampled_from(["point", "surface"]), "--genus": small_int,
                 "--alpha": small_int, "--class": pair,
                 "--ruled-areas": pair, "--convention": st.sampled_from(["sub", "quotient"])},
    "check ring": {"--seed": small_int, "--max-rank": size, "--max-degree": size,
                   "--samples": size},
    "check sympow": {"--max-rank": size, "--max-degree": size, "--max-m": size},
    "check cone": {"--max-rank": size, "--max-degree": size, "--max-m": size},
}
# The flags a query needs to get past usage checks; drawn half the time.
REQUIRED = {"ring": ("--rank", "--deg", "--class"), "bundle sympow": ("--degrees", "-m"),
            "bundle twist": ("--degrees", "-t"), "cone": ("--degrees",),
            "blowdown": ("--genus", "--alpha", "--class")}
EXTRAS = st.one_of(st.just([]), st.just(["--json"]), st.lists(
    st.one_of(junk, st.sampled_from(["--json", "--foo", "-x", "--", "--spec"])),
    min_size=1, max_size=2))
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                        st.lists(st.integers(-5, 5), max_size=4))

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _flags(command: str, extra=st.nothing()):
    kinds = {flag: st.one_of(kind, extra) for flag, kind in FLAGS[command].items()}
    required = {flag: kinds[flag] for flag in REQUIRED.get(command, ())}
    return st.one_of(
        st.fixed_dictionaries(required, optional={f: k for f, k in kinds.items()
                                                  if f not in required}),
        st.fixed_dictionaries({}, optional=kinds))


def _explicit(data, command: str) -> list[str]:
    argv = []
    for flag, value in data.draw(st.permutations(sorted(data.draw(_flags(command)).items()))):
        argv += [flag, value] if data.draw(st.booleans()) else [f"{flag}={value}"]
    return argv + data.draw(EXTRAS)


def _run(argv: list[str]) -> None:
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert out, argv


@FUZZ
@given(st.sampled_from(sorted(FLAGS)), st.data())
def test_fuzz_argv(command, data):
    _run(command.split() + _explicit(data, command))


@FUZZ
@given(st.sampled_from(sorted(FLAGS)), st.data())
def test_fuzz_spec(command, data):
    doc = data.draw(st.one_of(
        _flags(command, JSON_VALUES).map(
            lambda flags: {f.lstrip("-").replace("-", "_"): v for f, v in flags.items()}),
        st.lists(st.integers(), max_size=2),
        junk,
    ))
    explicit = _explicit(data, command) if data.draw(st.booleans()) else []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = data.draw(st.sampled_from([["--spec", str(path)], [f"--spec={path}"]]))
        at = data.draw(st.integers(0, len(explicit)))
        _run(command.split() + explicit[:at] + spec + explicit[at:])
