"""oracle-sweeps: the three acceptance-criterion oracle sweeps, repeated.

One op is one oracle case: a sampled class of the ring sweep, a bundle of
the symmetric-power sweep or a grid class of the cone sweep.  The library
checks cases inside each sweep call, so the benchmark times the calls and
gives every case of a sweep that sweep's mean case time over the run.
Throughput and latency percentiles are those of the cases of the three
sweeps run once each, with those times.  With the ring sweep holding
over nine tenths of all cases, the median is the ring sweep's case time
and p99 the cone sweep's while its cases stay the slowest.  Each round
of the run repeats the 1.7 s cone sweep twice, so that the figure p99
rests on comes from more calls.

Every report must pass with the expected line count and case counts,
which are computed here independently of the oracle, so a vacuous
zero-case PASS is a failure.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from statistics import fmean, median

from pbcones import oracle

from common import Digest, Outcome, TracedRun, peak_rss_mb, weighted_percentile

TAIL_Q = 99
BUDGET_S = 10.0  # acceptance bound of the ring and sympow sweeps

_FIELD = {name: re.compile(rf"\b{name}=(\d+)\b")
          for name in ("samples", "mismatches", "bundles", "classes", "violations")}


@dataclass(frozen=True)
class Params:
    ring_rank: int = 6
    ring_degree: int = 10
    ring_samples: int = 1000
    sympow: tuple[int, int, int] = (4, 5, 6)
    cone: tuple[int, int] = (4, 5)


ACCEPTANCE = Params()
TINY = Params(ring_rank=3, ring_degree=2, ring_samples=20, sympow=(2, 2, 3), cone=(2, 2))
_WARMUP = Params(ring_rank=2, ring_degree=1, ring_samples=5, sympow=(2, 1, 2), cone=(1, 1))


def _field(name: str, detail: str) -> int | None:
    m = _FIELD[name].search(detail)
    return int(m.group(1)) if m else None


def _cone_classes(a1: int, grid) -> int:
    """Grid classes the paper's Kleiman criterion x > 0, a1*x + y > 0 admits."""
    return sum(1 for x in range(grid.x_min, grid.x_max + 1)
               for y in range(grid.y_min, grid.y_max + 1) if x > 0 and a1 * x + y > 0)


def expected_counts(p: Params) -> dict[str, list[int]]:
    """Sorted per-line case counts each sweep must report, from the parameters."""
    ring = [p.ring_samples] * (p.ring_rank * (2 * p.ring_degree + 1) * 2)
    r_max, d, m_max = p.sympow
    sympow = [math.comb(2 * d + 1 + r - 1, r) for r in range(1, r_max + 1)] * m_max
    cone_rank, cone_degree = p.cone
    grid = oracle.GridSpec()
    cone = []
    for r in range(1, cone_rank + 1):
        for a1 in range(-cone_degree, cone_degree + 1):
            # rank-r bundles whose least degree is a1: the other r - 1
            # degrees form a multiset drawn from a1..cone_degree
            bundles = math.comb(cone_degree - a1 + r - 1, r - 1)
            cone += [_cone_classes(a1, grid)] * bundles
    return {"ring": sorted(ring), "sympow": sorted(sympow), "cone": sorted(cone)}


def _run(kind: str, p: Params, seed: int):
    if kind == "ring":
        return oracle.ring_sweep(seed, max_rank=p.ring_rank,
                                 max_abs_degree=p.ring_degree, samples=p.ring_samples)
    if kind == "sympow":
        return oracle.sympow_sweep(*p.sympow)
    return oracle.cone_sweep(*p.cone)


def _check(kind: str, report, want: list[int], out: Outcome) -> int:
    """Gate one sweep report against the expected per-line case counts and
    count its cases as attempted; any problem fails every case of the
    sweep, and so does a sweep that checked no case at all.  Returns the
    cases the report claims."""
    count_field, clean_field = {"ring": ("samples", "mismatches"),
                                "sympow": ("bundles", "mismatches"),
                                "cone": ("classes", "violations")}[kind]
    problems = []
    counts = []
    for line in report.lines:
        n = _field(count_field, line.detail)
        if not (line.passed and n is not None and _field(clean_field, line.detail) == 0):
            problems.append(f"{kind} sweep line failed: {line.render()}")
        counts.append(n or 0)
    if sorted(counts) != want or sum(counts) == 0:
        problems.append(f"{kind} sweep reported {len(counts)} lines / {sum(counts)} cases, "
                        f"expected {len(want)} / {sum(want)} with matching per-line counts")
    out.attempted += sum(want)
    if problems:
        out.fail(problems[0], sum(want))
        out.failures.extend(problems[1:3])
    return sum(counts)


KINDS = ("ring", "sympow", "cone")
# The sweeps of one round of the timed run, in order.
ROUND = ("ring", "cone", "sympow", "cone")


@dataclass
class State:
    seed: int
    params: Params
    want: dict[str, list[int]]


def setup(seed: int, tiny: bool, negative: str | None) -> State:
    """Warms every sweep at a small size and works out the expected counts;
    the ``count`` negative control raises the largest expected cone count
    by one, which the count gate must catch."""
    warm = expected_counts(_WARMUP)
    for kind in KINDS:
        _check(kind, _run(kind, _WARMUP, seed), warm[kind], Outcome())
    params = TINY if tiny else ACCEPTANCE
    want = expected_counts(params)
    if negative == "count":
        want["cone"][-1] += 1
    return State(seed, params, want)


def _sweep(kind: str, state: State, out: Outcome, digest: Digest | None):
    """Run and gate one sweep; returns (wall seconds, cases checked)."""
    start = time.perf_counter()
    try:
        report = _run(kind, state.params, state.seed)
    except Exception as err:  # a sweep that raises fails all its cases
        cases = sum(state.want[kind])
        out.attempted += cases
        out.fail(f"{kind} sweep raised {err!r}", cases)
        return time.perf_counter() - start, 0
    wall = time.perf_counter() - start
    if digest is not None:
        digest.add(report.render())
    return wall, _check(kind, report, state.want[kind], out)


def measure(state: State, seconds: float, out: Outcome) -> None:
    walls: dict[str, list[float]] = {k: [] for k in KINDS}
    busy = round_wall = 0.0
    rounds = 0
    digest = Digest()
    # whole rounds, as many as come closest to the requested seconds
    while rounds == 0 or busy + round_wall / 2 < seconds:
        round_wall = 0.0
        for kind in ROUND:
            wall, _ = _sweep(kind, state, out, digest if rounds == 0 else None)
            walls[kind].append(wall)
            round_wall += wall
        if rounds == 0:
            out.lines.append(f"oracle-sweeps digest of the first round: {digest.hexdigest()}")
        busy += round_wall
        rounds += 1
    want = state.want
    out.lines.append("oracle-sweeps case counts per sweep: " + " ".join(
        f"{k}={sum(want[k])} ({len(want[k])} lines, {want[k].count(0)} with no case "
        f"by the rule)" for k in KINDS))
    for kind in KINDS:
        wall = median(walls[kind])
        out.lines.append(f"{kind}_sweep_s = {wall!r} s (median of {len(walls[kind])}; "
                         f"{wall / BUDGET_S:.3f} of the {BUDGET_S:g} s budget)")
    out.lines.append(f"oracle-sweeps: {rounds} rounds in {busy:.3f} s")
    # the cases of each sweep run once, each at its sweep's mean case time
    mean = {k: fmean(walls[k]) for k in KINDS}
    per_case = [(mean[k] / sum(want[k]), sum(want[k])) for k in KINDS if sum(want[k])]
    out.metric("ops_per_s", sum(sum(want[k]) for k in KINDS) / sum(mean.values()), "op/s")
    out.metric("op_ms_p50", weighted_percentile(per_case, 50) * 1000.0 if per_case else 0.0, "ms")
    out.metric("op_ms_tail",
               weighted_percentile(per_case, TAIL_Q) * 1000.0 if per_case else 0.0, "ms")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")


def traced(state: State, out: Outcome, tracer) -> TracedRun:
    """Runs each sweep untraced, then traced, so that both sides of the
    overhead see the same host conditions."""
    cases = 0
    untraced = traced_wall = 0.0
    for op_id, kind in enumerate(KINDS):
        untraced += _sweep(kind, state, Outcome(), None)[0]
        tracer.op_id = op_id
        with tracer:
            wall, n = _sweep(kind, state, out, None)
        traced_wall += wall
        cases += n
    return TracedRun(cases, traced_wall / untraced - 1.0, {"oracle.cases": cases})
