"""Self-test of the benchmark itself; exits non-zero on the first problem.

    python3 perfbench/selftest.py

Checks, at tiny sizes: every workload emits exactly the declared
end-to-end and per-layer metrics with their units and passes its gates;
the same seed gives the same output digests; every negative control
(a wrong expected verdict, a certificate only validate_certificate can
fault, a wrong expected oracle case count, a wrong expected CLI stdout)
drives error_rate above 0 with a non-zero exit; and in a directory
holding only
BENCHMARK.json and the benchmark, the command fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import ROOT
from run import END_TO_END, NEGATIVE_CONTROLS, WORKLOADS
from tracer import PER_LAYER

RUN = [sys.executable, "perfbench/run.py"]


class SelfTestError(AssertionError):
    pass


def require(condition, detail) -> None:
    if not condition:
        raise SelfTestError(detail)


def _run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)
    return done.returncode, done.stdout.splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    return result


def check_declaration() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    require(declared == dict(END_TO_END), ("end_to_end", declared))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(declared == dict(PER_LAYER), ("per_layer", set(declared) ^ set(dict(PER_LAYER))))
    require({w["name"] for w in spec["workloads"]} == set(WORKLOADS), spec["workloads"])


def check_metrics(workload: str, trace: int) -> list[str]:
    code, lines = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
    result = _result(lines)
    require(code == 0 and result["correct"] and result["failed"] == 0,
            (workload, trace, lines[-25:]))
    require(result["attempted"] >= 1, result)
    want = dict(PER_LAYER if trace else END_TO_END)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == want, (workload, trace, set(got) ^ set(want)))
    for name, m in result["metrics"].items():
        require(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float)), name)
    return [line for line in lines if "digest" in line]


def check_negative_control(kind: str) -> None:
    workload = NEGATIVE_CONTROLS[kind][0]
    code, lines = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                        "--tiny", "--negative-control", kind])
    result = _result(lines)
    require(code != 0, f"negative control {kind} exited 0")
    require(result["failed"] > 0 and not result["correct"], (kind, result))


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(["--workload", "verdict-stream", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=bare)
    require(code != 0, "ran without the program")
    require(not any(line.startswith("{") for line in lines), lines)


def main() -> int:
    check_declaration()
    print("declaration matches the emitted metric names and units")
    for workload in WORKLOADS:
        first = check_metrics(workload, 0)
        again = check_metrics(workload, 0)
        require(first and first == again, (workload, first, again))
        check_metrics(workload, 1)
        print(f"{workload}: metrics, units, gates and digest repeat ok ({first[0]})")
    for kind, (workload, planted) in NEGATIVE_CONTROLS.items():
        check_negative_control(kind)
        print(f"negative control {kind} on {workload} ({planted}): caught, exit non-zero")
    check_bare_directory()
    print("bare directory: fails without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
