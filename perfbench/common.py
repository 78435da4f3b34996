"""Shared plumbing for the pbcones benchmark: locating the package,
statistics, peak memory, digests and the result line.

The benchmark lives outside the package and reaches it through the
checkout's ``src`` directory, because the package is not required to be
installed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Used only by agree.py, so that tuning against DEFAULT_SEED cannot leak
# into the run-to-run agreement check.
HELD_OUT_SEED = 90211

class MissingProgram(RuntimeError):
    """The checkout does not hold the pbcones sources."""


def require_package() -> None:
    """Put the checkout's ``src`` first on sys.path, or fail loudly."""
    if not (SRC / "pbcones" / "__init__.py").is_file():
        raise MissingProgram(f"no pbcones package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_child(args: list[str], timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``python <args>`` from the checkout root with pbcones importable
    from src, capturing its output as text.

    Output always goes through pipes: the wait then ends as soon as the
    child exits, where a timed wait without pipes polls with sleeps and
    adds up to tens of milliseconds to every measured wall time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, check=False)


def import_wall_s(module: str) -> float:
    """Wall time of a fresh interpreter that starts and imports ``module``."""
    start = time.perf_counter()
    done = run_child(["-c", f"import {module}"])
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"importing {module} failed: {done.stderr[-400:]}")
    return wall


def import_in_process_s(module: str) -> float:
    """Wall time of importing ``module`` in this process after dropping every
    pbcones module from sys.modules, so that the pbcones modules it pulls in
    load and execute again.  Modules outside pbcones stay loaded."""
    for name in [n for n in sys.modules if n == "pbcones" or n.startswith("pbcones.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module(module)
    return time.perf_counter() - start


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def weighted_percentile(pairs, q: float) -> float:
    """Nearest-rank percentile of values carrying integer weights."""
    ordered = sorted(pairs)
    total = sum(w for _, w in ordered)
    target = q / 100.0 * total
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= target:
            return value
    return ordered[-1][0]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


class Windows:
    """Latency percentiles of consecutive ops, taken per window of
    ``window`` ops and averaged over the windows.

    On a host whose speed switches between phases, a percentile of a whole
    run jumps between the phases' values as their shares cross it; the
    mean of per-window percentiles moves in proportion instead.  Only the
    current window's samples are kept, so memory does not grow with the
    run.  Without a complete window, the partial one is used.
    """

    def __init__(self, window: int, qs: tuple[float, ...]) -> None:
        self.window = window
        self.size = window  # of the windows the figures rest on
        self.qs = qs
        self._current: list[float] = []
        self._per_window: dict[float, list[float]] = {q: [] for q in qs}

    def _close(self) -> None:
        for q in self.qs:
            self._per_window[q].append(percentile(self._current, q))
        self._current.clear()

    def extend(self, samples) -> None:
        for sample in samples:
            self._current.append(sample)
            if len(self._current) == self.window:
                self._close()

    def latency(self, q: float) -> float:
        if not self._per_window[q] and self._current:
            self.size = len(self._current)
            self._close()
        return statistics.fmean(self._per_window[q])

    def describe(self) -> str:
        beyond = ", ".join(f"{samples_beyond(self.size, q)} beyond p{q:g}" for q in self.qs)
        return (f"mean over {len(self._per_window[self.qs[0]])} windows of {self.size} ops "
                f"({beyond} in each)")


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Digest:
    """Order-sensitive sha256 over output records."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, record: str) -> None:
        self._h.update(record.encode("utf-8"))
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


@dataclass
class TracedRun:
    """What a workload's traced run hands back besides its spans."""

    ops: int
    overhead_frac: float
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one run reports: the gate counts, the metrics and a human report."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def emit(self) -> None:
        """Print the human report, then the result object as the last line."""
        for line in self.lines:
            print(line)
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"error_rate = {error_rate!r} fraction "
              f"({self.failed} failed of {self.attempted} attempted)")
        for what in self.failures:
            print(f"FAILED {what}")
        for name, (value, unit) in self.metrics.items():
            print(f"{name} = {value!r} {unit}")
        result = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }
        print(json.dumps(result), flush=True)
