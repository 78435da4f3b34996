"""Benchmark for pbcones: one command, three workloads, gated outputs.

    python3 perfbench/run.py --workload {oracle-sweeps,verdict-stream,cli-spawn}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  With ``--trace 0`` the run measures the
end-to-end metrics (setup_s, ops_per_s, op_ms_p50, op_ms_tail,
peak_rss_mb) with no tracing installed.  With ``--trace 1`` it makes a
separate traced run that reports per-layer calls and self time for
every layer (startup, cli, blowdown, cones, cohomology, bundles,
oracle) plus the tracing overhead, and writes the spans under
``.perfbench-out/``.  Both modes check every output; the last stdout
line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is non-zero when any gate failed.

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json, the length
its bounds were set for.  ``--tiny`` shrinks every workload for the
self-test, and ``--negative-control KIND`` plants one kind of error that
a gate must catch (see NEGATIVE_CONTROLS).
"""

import argparse
import importlib
import json
import sys
import time
from statistics import median

import startup
from common import (DEFAULT_SEED, ROOT, MissingProgram, Outcome, import_in_process_s,
                    require_package)
from tracer import PER_LAYER, Tracer, layer_metrics

# workload -> (benchmark module, the pbcones module whose import it pays)
WORKLOADS = {
    "oracle-sweeps": ("oracle_sweeps", "pbcones.oracle"),
    "verdict-stream": ("verdict_stream", "pbcones.blowdown"),
    "cli-spawn": ("cli_spawn", "pbcones.cli"),
}

# --negative-control kind -> (workload, the error it plants)
NEGATIVE_CONTROLS = {
    "verdict": ("verdict-stream", "every 7th expected verdict is wrong"),
    "certificate": ("verdict-stream", "every 5th certificate carries a model bundle of the "
                                      "wrong degree, which only validate_certificate sees"),
    "count": ("oracle-sweeps", "one expected case count of the cone sweep is one too high"),
    "stdout": ("cli-spawn", "the expected stdout of the first query has a character added"),
}

# The import and the setup are each repeated this many times per run, half
# before the timed phase and half after it, and the median of each is
# reported.  The host's speed shifts over seconds, so repeats bunched in
# the second before the timed phase would all land in one of its phases.
IMPORT_REPEATS = 16
SETUP_REPEATS = 10

# Every metric of an untraced run, with its unit.
END_TO_END = [("setup_s", "s"), ("ops_per_s", "op/s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("peak_rss_mb", "MB")]


def parse_args(argv=None) -> argparse.Namespace:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--negative-control", choices=sorted(NEGATIVE_CONTROLS), default=None)
    args = parser.parse_args(argv)
    if args.negative_control and NEGATIVE_CONTROLS[args.negative_control][0] != args.workload:
        parser.error(f"--negative-control {args.negative_control} applies to "
                     f"{NEGATIVE_CONTROLS[args.negative_control][0]} only")
    return args


def run_untraced(workload, imports: list[float], args) -> Outcome:
    """setup_s is the median in-process import of the workload's pbcones
    module plus the median of repeated setups (input generation and
    warm-up).  Interpreter start and modules outside pbcones are left
    out: they are not pbcones's work, and cli-spawn's op latency carries
    them.  ``imports`` holds the imports made before the timed phase."""
    package_module = WORKLOADS[args.workload][1]
    halves = 1 if args.tiny else SETUP_REPEATS // 2
    setups = []
    state = None

    def timed_setup() -> None:
        nonlocal state
        start = time.perf_counter()
        state = workload.setup(args.seed, args.tiny, args.negative_control)
        setups.append(time.perf_counter() - start)

    for _ in range(halves):
        timed_setup()
    out = Outcome()
    workload.measure(state, args.seconds, out)
    if not args.tiny:
        imports += [import_in_process_s(package_module) for _ in range(IMPORT_REPEATS // 2)]
        for _ in range(halves):
            timed_setup()
    if args.negative_control:
        out.lines.append("negative control: " + NEGATIVE_CONTROLS[args.negative_control][1])
    out.lines.append(f"setup: median of {len(imports)} imports {median(imports):.4f} s + "
                     f"median of {len(setups)} setups {median(setups):.4f} s")
    out.metric("setup_s", median(imports) + median(setups), "s")
    out.metrics = {name: out.metrics[name] for name, _ in END_TO_END}
    return out


def run_traced(workload, args) -> Outcome:
    state = workload.setup(args.seed, args.tiny, args.negative_control)
    out = Outcome()
    tracer = Tracer()
    run = workload.traced(state, out, tracer)
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    values.update(startup.probe(1 if args.tiny else 5))
    stats = tracer.summarize()
    values.update(layer_metrics(stats, run.ops))
    values.update(run.metrics)
    values["trace.overhead_frac"] = run.overhead_frac
    if tracer.missing:
        out.lines.append("trace: missing (no longer in pbcones): " + ", ".join(tracer.missing))
    path = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.spans.gz"
    tracer.write(path)
    out.lines.append(f"trace: {len(tracer.name_id)} spans over {run.ops} ops "
                     f"written to {path.relative_to(ROOT)}")
    for name, unit in PER_LAYER:
        out.metric(name, values[name], unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    module, package_module = WORKLOADS[args.workload]
    repeats = 1 if args.tiny or args.trace else IMPORT_REPEATS // 2
    try:
        require_package()
        # before the workload module binds the package's modules
        imports = [import_in_process_s(package_module) for _ in range(repeats)]
        workload = importlib.import_module(module)
    except (MissingProgram, ImportError) as err:
        print(f"error: cannot load pbcones from this checkout: {err}", file=sys.stderr)
        return 2
    try:
        out = (run_traced(workload, args) if args.trace
               else run_untraced(workload, imports, args))
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup is not None:
            cleanup()
    out.emit()
    return 0 if out.failed == 0 and out.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
