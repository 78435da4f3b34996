"""cli-spawn: one ``python -m pbcones`` child process per op, closed loop.

Argv are drawn from the seed and cover ``ring``, the four ``bundle``
actions, ``cone`` and ``blowdown`` (surface, point and ``--ruled-areas``
inputs); some read their flags from ``--spec`` files written during
setup.  Every argv is a valid query, so the expected exit code is 0 or 1.

The mix is an assumption, not measured traffic: every choice is uniform
over its alternatives.  That is, uniform over the four subcommands, the
four bundle actions, the three blowdown inputs, the three sphere-product
verdicts of ``--ruled-areas`` (first ruling, second ruling, equal areas),
a surface class above or at-or-below the admissibility bound, flags on
the command line or in a ``--spec`` file, and with or without
``--json``.  Numeric ranges follow the acceptance sweeps: ring ranks 1 to
6 and degrees -10 to 10, bundle degrees -5 to 5.  The expected stdout and exit code of
each argv come from the in-process ``cli.main`` during setup; a child
must reproduce both, and a traceback on its stderr is a failure.

The package is imported from the checkout's ``src`` (it need not be
installed), so a child pays interpreter start-up and the full import.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

from pbcones import cli

from common import (ROOT, Digest, Outcome, TracedRun, Windows, import_wall_s, peak_rss_mb,
                    run_child)

IMPORTS = "pbcones.cli"
TAIL_Q = 90
POOL = 256
P50_WINDOW = 10         # spawns per p50 window, about 1.5 s
TAIL_WINDOW = 100       # spawns per p90 window: ten samples lie beyond it
MIN_SPAWNS = TAIL_WINDOW
MAX_MEASURE_S = 150.0
CHILD_TIMEOUT_S = 30.0
TRACED_PASSES = 4       # in-process passes over the pool in the traced run
TRACED_SPAWNS = 24

WORK_DIR = ROOT / ".perfbench-work"


def _q(rng: random.Random, lo: int, hi: int, den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _pair(x: Fraction, y: Fraction) -> str:
    return f"{x},{y}"


def _degrees(rng: random.Random, lo: int = 1, hi: int = 4) -> list[int]:
    return [rng.randint(-5, 5) for _ in range(rng.randint(lo, hi))]


def _query(rng: random.Random) -> tuple[str, dict]:
    """One valid query as (label, flags); flags map a flag name to its value."""
    command = rng.choice(["ring", "bundle", "cone", "blowdown"])
    if command == "ring":
        return "ring", {"command": ["ring"], "rank": rng.randint(1, 6),
                        "deg": rng.randint(-10, 10),
                        "convention": rng.choice(["quotient", "sub"]),
                        "genus": rng.randint(0, 2),
                        "class": _pair(_q(rng, -9, 9), _q(rng, -9, 9))}
    if command == "bundle":
        action = rng.choice(["sympow", "slope", "twist", "semistable"])
        flags = {"command": ["bundle", action], "degrees": _degrees(rng)}
        if action == "sympow":
            flags["m"] = rng.randint(1, 4)
        elif action == "twist":
            flags["t"] = rng.randint(-4, 4)
        return f"bundle-{action}", flags
    if command == "cone":
        genus = rng.randint(0, 2)
        flags = {"command": ["cone"], "genus": genus}
        if rng.random() < 0.5:
            flags["degrees"] = _degrees(rng)
        else:
            r = rng.randint(1, 4)
            d = r * rng.randint(-3, 3) if genus == 0 else rng.randint(-8, 8)
            flags["semistable"] = f"{r},{d}"
        if rng.random() < 0.5:
            flags["class"] = _pair(_q(rng, -3, 9), _q(rng, -9, 9))
        return "cone", flags
    base = rng.choice(["point", "ruled-areas", "surface"])
    if base == "point":
        return "blowdown-point", {"command": ["blowdown"], "base": "point"}
    if base == "ruled-areas":
        small = _q(rng, 1, 20)
        large = small + _q(rng, 1, 20)
        areas = rng.choice([(small, large), (large, small), (small, small)])
        return "blowdown-ruled-areas", {"command": ["blowdown"], "genus": 0, "alpha": 2,
                                        "ruled-areas": _pair(*areas)}
    genus = rng.randint(0, 2)
    above = rng.random() < 0.5
    # sub convention on the rank-2 model of degree -alpha: ratio alpha + 2y/x;
    # a class at or below the bound must also have a positive ratio, so
    # it needs a positive bound
    alphas = [a for a in range(-6, 7) if (genus, a) != (0, 2)
              and (above or (a if genus > 0 else max(a, a % 2)) > 0)]
    alpha = rng.choice(alphas)
    bound = alpha if genus > 0 else max(alpha, alpha % 2)
    if above:
        rho = max(bound, 0) + _q(rng, 1, 12, 4)
    else:
        rho = bound * Fraction(rng.randint(1, 4), 4)
    x = _q(rng, 1, 12)
    flags = {"command": ["blowdown"], "genus": genus, "alpha": alpha,
             "class": _pair(x, (rho - alpha) * x / 2)}
    convention = rng.choice([None, "sub", "quotient"])
    if convention is not None:
        flags["convention"] = convention
    return "blowdown-surface", flags


def _flag(name: str) -> str:
    return f"-{name}" if len(name) == 1 else f"--{name}"


def _argv_item(name: str, value) -> list[str]:
    if isinstance(value, list):
        value = ",".join(str(v) for v in value)
    return [_flag(name), str(value)]


@dataclass
class Query:
    label: str
    argv: list[str]
    spec: dict | None
    expected_out: str = ""
    expected_code: int = -1


def generate(seed: int, count: int) -> list[Query]:
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        label, flags = _query(rng)
        argv = list(flags.pop("command"))
        spec = None
        if rng.random() < 0.5:
            spec = {k.replace("-", "_"): v for k, v in flags.items()}
            argv += ["--spec", str(WORK_DIR / f"spec-{i}.json")]
        else:
            for name, value in flags.items():
                argv += _argv_item(name, value)
        if rng.random() < 0.5:
            argv.append("--json")
        queries.append(Query(label, argv, spec))
    return queries


def in_process(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return buf.getvalue(), code


def spawn(argv: list[str]) -> subprocess.CompletedProcess:
    return run_child(["-m", "pbcones", *argv], CHILD_TIMEOUT_S)


def gate(q: Query, child: subprocess.CompletedProcess | None, out: Outcome) -> None:
    if child is None:
        out.fail(f"child timed out on {q.argv}")
    elif "Traceback" in child.stderr:
        out.fail(f"child printed a traceback on {q.argv}: {child.stderr[-300:]!r}")
    elif child.returncode != q.expected_code or child.stdout != q.expected_out:
        out.fail(f"child on {q.argv} exited {child.returncode} with "
                 f"{child.stdout[:200]!r}; in-process main gave {q.expected_code} "
                 f"with {q.expected_out[:200]!r}")


@dataclass
class State:
    queries: list[Query]
    digest: str
    setup_problems: list[str]


def setup(seed: int, tiny: bool, negative: str | None) -> State:
    """Writes the spec files and captures each query's expected stdout and
    exit code from the in-process main; the ``stdout`` negative control
    then adds a character to the first query's expected stdout."""
    WORK_DIR.mkdir(exist_ok=True)
    queries = generate(seed, 8 if tiny else POOL)
    digest = Digest()
    problems = []
    for q in queries:
        if q.spec is not None:
            Path(q.argv[q.argv.index("--spec") + 1]).write_text(json.dumps(q.spec))
        q.expected_out, q.expected_code = in_process(q.argv)
        if q.expected_code not in (0, 1):
            problems.append(f"in-process main exited {q.expected_code} on valid "
                            f"query {q.argv}")
        digest.add(f"{q.expected_code}:{q.expected_out}")
    if negative == "stdout":
        queries[0].expected_out += "!"
    spawn(queries[0].argv)  # warm the file cache and bytecode
    return State(queries, digest.hexdigest(), problems)


def cleanup() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def _mix(queries: list[Query]) -> str:
    labels: dict[str, int] = {}
    for q in queries:
        labels[q.label] = labels.get(q.label, 0) + 1
    json_share = sum("--json" in q.argv for q in queries) / len(queries)
    spec_share = sum(q.spec is not None for q in queries) / len(queries)
    mix = " ".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{mix}; json={json_share:.3f} spec={spec_share:.3f}"


def _timed_spawn(q: Query) -> tuple[float, subprocess.CompletedProcess | None]:
    start = time.perf_counter()
    try:
        child = spawn(q.argv)
    except subprocess.TimeoutExpired:
        child = None
    return time.perf_counter() - start, child


def _setup_gate(state: State, out: Outcome) -> None:
    for problem in state.setup_problems:
        out.attempted += 1
        out.fail(problem)


def measure(state: State, seconds: float, out: Outcome) -> None:
    _setup_gate(state, out)
    queries = state.queries
    out.lines.append(f"cli-spawn pool of {len(queries)} queries: {_mix(queries)}")
    out.lines.append(f"cli-spawn digest of expected outputs: {state.digest}")
    walls: list[float] = []
    p50 = Windows(P50_WINDOW, (50,))
    tail = Windows(TAIL_WINDOW, (TAIL_Q,))
    start = time.perf_counter()
    min_spawns = MIN_SPAWNS if len(queries) >= 64 else 1
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(walls) >= min_spawns) or elapsed >= MAX_MEASURE_S:
            break
        q = queries[len(walls) % len(queries)]
        wall, child = _timed_spawn(q)
        walls.append(wall)
        out.attempted += 1
        gate(q, child, out)
    busy = time.perf_counter() - start
    p50.extend(walls)
    tail.extend(walls)
    out.metric("ops_per_s", len(walls) / busy, "op/s")
    out.metric("op_ms_p50", p50.latency(50) * 1000.0, "ms")
    out.metric("op_ms_tail", tail.latency(TAIL_Q) * 1000.0, "ms")
    out.lines.append(f"cli-spawn: {len(walls)} spawns in {busy:.3f} s; op_ms_p50 is the "
                     f"{p50.describe()}; op_ms_tail is the {tail.describe()}")
    out.metric("peak_rss_mb", peak_rss_mb(children=True), "MB")


def _pass(queries: list[Query], out: Outcome, tracer=None) -> float:
    busy = 0.0
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            got = in_process(q.argv)
        except Exception as err:  # an escaped exception is a failed op
            busy += time.perf_counter() - start
            out.attempted += 1
            out.fail(f"in-process main raised {err!r} on {q.argv}")
            continue
        busy += time.perf_counter() - start
        out.attempted += 1
        if got != (q.expected_out, q.expected_code):
            out.fail(f"in-process main changed its answer on {q.argv}")
    return busy


def traced(state: State, out: Outcome, tracer) -> TracedRun:
    """Alternates untraced and traced in-process passes over the pool, then
    pairs each of a few spawns with a fresh ``import pbcones.cli`` so that
    what a spawn costs beyond start-up and import is measured under the
    same host conditions."""
    _setup_gate(state, out)
    queries = state.queries
    passes = 1 if len(queries) < 64 else TRACED_PASSES
    _pass(queries, Outcome())  # warm-up, so both timed sides run warm
    untraced = traced_wall = 0.0
    for _ in range(passes):
        untraced += _pass(queries, Outcome())
        with tracer:
            traced_wall += _pass(queries, out, tracer)
    spawns, beyond_import = [], []
    for q in queries[:TRACED_SPAWNS]:
        import_ms = import_wall_s(IMPORTS) * 1000.0
        wall, child = _timed_spawn(q)
        spawns.append(wall * 1000.0)
        beyond_import.append(wall * 1000.0 - import_ms)
        out.attempted += 1
        gate(q, child, out)
    main = tracer.summarize().get("cli.main")
    main_ms = main.total_s * 1000.0 / main.calls if main and main.calls else 0.0
    residual_ms = median(beyond_import) - main_ms
    out.lines.append(f"cli-spawn traced: spawn p50 {median(spawns):.3f} ms; beyond a fresh "
                     f"import of {IMPORTS} it costs mean main {main_ms:.4f} ms + residual "
                     f"{residual_ms:.3f} ms")
    return TracedRun(passes * len(queries), traced_wall / untraced - 1.0,
                     {"cli.residual_ms": residual_ms,
                      "cli.compute_share": main_ms / median(spawns)})
