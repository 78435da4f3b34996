"""Run-to-run agreement check for the benchmark's end-to-end metrics.

    python3 perfbench/agree.py [--workloads W ...] [--runs 10]
                               [--save FILE] [--against FILE]

Runs the benchmark command of BENCHMARK.json once per seed for each
workload, with seeds counted up from the held-out seed, which nothing
else uses.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, and flags a spread above the metric's bound (a
failure) or above a third of it (not yet steady).  ``--against`` compares the medians with a set
saved by ``--save`` and fails when one is worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import HELD_OUT_SEED, ROOT


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{(done.stdout + done.stderr)[-800:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its gates: {lines[-30:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    previous = json.loads(open(args.against).read()) if args.against else {}
    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads:
        runs = [run_once(spec["command"], workload, HELD_OUT_SEED + i, args.seconds)
                for i in range(args.runs)]
        values[workload] = {name: [r[name] for r in runs] for name in metrics}
        for name, m in metrics.items():
            med, q1, q3, share = spread(values[workload][name])
            verdict = "ok"
            if share > m["bound"]:
                verdict, ok = "SPREAD ABOVE BOUND", False
            elif share > m["bound"] / 3:
                verdict = "spread above a third of the bound"
            if workload in previous:
                before = statistics.median(previous[workload][name])
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                if worse > m["bound"]:
                    verdict, ok = f"MEDIAN WORSE BY {worse:.3f}", False
            print(f"{workload:15s} {name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.4f} bound {m['bound']} {verdict}", flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(values, fh, indent=1)
    print("agreement ok" if ok else "agreement FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
