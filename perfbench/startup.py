"""Start-up probes: interpreter start, package import and per-module
import self time, each from fresh child processes."""

from __future__ import annotations

import re
import time
from statistics import median

from common import run_child
from tracer import STARTUP_MODULES

_IMPORTTIME_RE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def _wall_ms(args: list[str]) -> float:
    start = time.perf_counter()
    done = run_child(args)
    wall = (time.perf_counter() - start) * 1000.0
    if done.returncode != 0:
        raise RuntimeError(f"start-up probe {args} exited {done.returncode}: "
                           f"{done.stderr[-400:]}")
    return wall


def _importtime_us() -> dict[str, int]:
    done = run_child(["-X", "importtime", "-c", "import pbcones.cli"])
    if done.returncode != 0:
        raise RuntimeError(f"-X importtime probe exited {done.returncode}: {done.stderr[-400:]}")
    self_us: dict[str, int] = {}
    for line in done.stderr.splitlines():
        m = _IMPORTTIME_RE.match(line)
        if m and m.group(3).strip().split(".")[0] == "pbcones":
            self_us[m.group(3).strip()] = int(m.group(1))
    return self_us


def probe(repeats: int) -> dict[str, float]:
    """Median start-up figures over ``repeats`` fresh processes each."""
    commands = {
        "startup.python_ms": ["-c", "pass"],
        "startup.import_pbcones_ms": ["-c", "import pbcones"],
        "startup.import_cli_ms": ["-c", "import pbcones.cli"],
    }
    for args in commands.values():  # compile bytecode and warm the file cache
        _wall_ms(args)
    walls: dict[str, list[float]] = {name: [] for name in commands}
    per_module: dict[str, list[int]] = {m: [] for m in STARTUP_MODULES}
    for _ in range(repeats):
        for name, args in commands.items():
            walls[name].append(_wall_ms(args))
        self_us = _importtime_us()
        for m in STARTUP_MODULES:
            full = "pbcones" if m == "pbcones" else f"pbcones.{m}"
            per_module[m].append(self_us.get(full, 0))
    out = {name: median(values) for name, values in walls.items()}
    for m, values in per_module.items():
        out[f"startup.importtime.{m}_ms"] = median(values) / 1000.0
    return out
