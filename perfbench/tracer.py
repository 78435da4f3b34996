"""Outside-in tracing of pbcones layers for the traced benchmark run.

The tracer wraps the public functions listed in LAYERS and rebinds each
wrapper in every loaded ``pbcones`` module namespace that holds the
original, so calls between modules are seen too.  Classes are traced by
wrapping their ``__init__`` (construction plus its validation), which
keeps ``isinstance`` and classmethods intact.  A listed name that the
package no longer has is reported as missing instead of failing the run.

Spans (name, start, end, parent span, op id, outcome) are kept in
compact in-memory arrays and written out when the run ends.  Self time
is a span's duration minus the durations of its direct children; with
one thread the children nest inside the parent, so that is exactly the
part of the interval they cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

# layer -> (module, public functions or classes timed at its boundary)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("pbcones.cli", ("main", "build_parser", "cmd_ring", "cmd_bundle",
                            "cmd_cone", "cmd_blowdown")),
    "blowdown": ("pbcones.blowdown", ("ExceptionalDivisorData", "blowdown_verdict_dim6",
                                      "is_admissible", "build_matching_triple",
                                      "validate_certificate")),
    "cones": ("pbcones.cones", ("kahler_class_for_ratio", "restricted_ratio",
                                "matching_bundle", "plus_trivial_line",
                                "kahler_membership", "restrict_to_divisor")),
    "cohomology": ("pbcones.cohomology", ("DivisorClass", "top_power", "forward_ratio",
                                          "ratio", "in_forward_cone")),
    "bundles": ("pbcones.bundles", ("sym_power", "sym_rank_degree")),
    "oracle": ("pbcones.oracle", ("ring_sweep", "sympow_sweep", "cone_sweep",
                                  "brute_ring_power", "enumerate_sym_quotients",
                                  "sample_cone_check")),
}

# Outcome codes stored per span.
OK, RAISED, JUDGED_FALSE = 0, 1, 2

# Return values judged for a pass ratio: a falsy result marks the span.
_JUDGED = {"blowdown.validate_certificate"}

STARTUP_MODULES = ("pbcones", "bundles", "cohomology", "cones", "blowdown", "oracle", "cli")


def _per_layer_names() -> list[tuple[str, str]]:
    names = [("startup.python_ms", "ms"), ("startup.import_pbcones_ms", "ms"),
             ("startup.import_cli_ms", "ms")]
    names += [(f"startup.importtime.{m}_ms", "ms") for m in STARTUP_MODULES]
    for layer, (_, functions) in LAYERS.items():
        for fn in functions:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_ms", "ms")]
        if layer == "cli":
            names += [("cli.residual_ms", "ms"), ("cli.compute_share", "fraction")]
        elif layer == "blowdown":
            names += [("blowdown.errors", "count"),
                      ("blowdown.validate_certificate.pass_ratio", "fraction")]
        elif layer == "cones":
            names += [("cones.errors", "count")]
        elif layer == "cohomology":
            names += [("cohomology.forward_ratio.calls_per_op", "call/op"),
                      ("cohomology.errors", "count")]
        elif layer == "oracle":
            names += [("oracle.cases", "count")]
    names.append(("trace.overhead_frac", "fraction"))
    return names


# Every metric a traced run reports, in order, with its unit.
PER_LAYER = _per_layer_names()


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    raised: int = 0
    judged_false: int = 0


class Tracer:
    """Records spans for the wrapped pbcones functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outcome = array("b")
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._rebind: list[tuple[object, str, object, object]] | None = None

    # -------------------------------------------------------------- wrapping

    def _wrapper(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        judged = qualname in _JUDGED
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        op, outcome, stack, now = self.op, self.outcome, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            outcome.append(OK)
            end.append(0.0)
            stack.append(sid)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = now()
                stack.pop()
                outcome[sid] = RAISED
                raise
            end[sid] = now()
            stack.pop()
            if judged and not result:
                outcome[sid] = JUDGED_FALSE
            return result

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every rebinding."""
        plan = []
        for layer, (module_name, functions) in LAYERS.items():
            module = importlib.import_module(module_name)
            for fn_name in functions:
                qualname = f"{layer}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(qualname)
                    continue
                if isinstance(original, type):
                    init = original.__init__
                    plan.append((original, "__init__", init, self._wrapper(qualname, init)))
                    continue
                wrapper = self._wrapper(qualname, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "pbcones" or mod_name.startswith("pbcones.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            plan.append((mod, attr, original, wrapper))
        return plan

    def install(self) -> "Tracer":
        if self._rebind is None:
            self._rebind = self._plan()
        for target, attr, _, wrapper in self._rebind:
            setattr(target, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for target, attr, original, _ in reversed(self._rebind or []):
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- analysis

    def summarize(self) -> dict[str, SpanStats]:
        count = len(self.name_id)
        child = array("d", bytes(8 * count))
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {name: SpanStats() for name in self.names}
        by_id = [stats[name] for name in self.names]
        for i in range(count):
            s = by_id[self.name_id[i]]
            duration = end[i] - start[i]
            s.calls += 1
            s.total_s += duration
            s.self_s += duration - child[i]
            if self.outcome[i] == RAISED:
                s.raised += 1
            elif self.outcome[i] == JUDGED_FALSE:
                s.judged_false += 1
        return stats

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then each column's raw bytes."""
        columns = [("name_id", self.name_id), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("op", self.op), ("outcome", self.outcome)]
        header = {"names": self.names, "count": len(self.name_id),
                  "columns": [[name, col.typecode, col.itemsize] for name, col in columns]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, col in columns:
                fh.write(col.tobytes())


def layer_metrics(stats: dict[str, SpanStats], ops: int) -> dict[str, float]:
    """The per-function and per-layer figures of PER_LAYER that spans give."""
    out: dict[str, float] = {}
    errors = {layer: 0 for layer in LAYERS}
    for layer, (_, functions) in LAYERS.items():
        for fn in functions:
            s = stats.get(f"{layer}.{fn}", SpanStats())
            out[f"{layer}.{fn}.calls"] = s.calls
            out[f"{layer}.{fn}.self_ms"] = s.self_s * 1000.0
            errors[layer] += s.raised
    out["blowdown.errors"] = errors["blowdown"]
    out["cones.errors"] = errors["cones"]
    out["cohomology.errors"] = errors["cohomology"]
    validate = stats.get("blowdown.validate_certificate", SpanStats())
    out["blowdown.validate_certificate.pass_ratio"] = (
        (validate.calls - validate.raised - validate.judged_false) / validate.calls
        if validate.calls else 0.0)
    out["cohomology.forward_ratio.calls_per_op"] = (
        out["cohomology.forward_ratio.calls"] / ops if ops else 0.0)
    return out
