"""Spans and counters around memplan's public functions, from outside src/.

A function is wrapped wherever its callers look it up: every ``memplan``
module global bound to the original function object is replaced, so
``memplan.cli.plan_static`` and ``memplan.migration.plan_static`` are both
traced, as are calls that go through a module attribute (``ilp.solve``).
Spans (name, start, end, parent, op id, size) stay in memory until the run
ends; self time, counts and ratios are derived from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# Functions that get a span: module -> names.
SPANNED = {
    "profiles": ("load_profiles", "write_profiles", "load_profile_dir",
                 "filter_major", "derive_scaling_vector", "extrapolate"),
    "ilp": ("solve", "constraint_violations"),
    "planner": ("plan_static", "sweep_ratios", "build_placement_program",
                "diagnose_infeasibility", "summarize_assignment",
                "write_plan", "load_plan"),
    "migration": ("plan_migration", "build_migration_program",
                  "write_migration_plan"),
    "baselines": ("place_all_dram", "place_all_nvm", "place_mpki_threshold"),
    "evaluator": ("evaluate", "compare"),
    "cli": ("main",),
}

# Functions called once per object and priced, so they are counted only: a
# span per call would cost more than the call.
COUNTED = {
    "energy": ("dram_energy", "nvm_energy"),
    "migration": ("migration_energies", "migration_latency"),
}


# What a span records as its size: objects read, live objects priced for
# migration, variables solved.
_SIZES = {
    "profiles.load_profiles": lambda args, result: len(result),
    "migration.build_migration_program": lambda args, result: len(args[0]),
    "ilp.solve": lambda args, result: args[0].num_variables,
}


class Tracer:
    """Installs wrappers into the memplan modules and records spans."""

    def __init__(self) -> None:
        # name, start ns, end ns, parent index, op id, size
        self.spans: list[list] = []
        self.counts: list[tuple[str, Counter]] = []
        self._stack: list[int] = []
        self._op_counts: Counter = Counter()
        self._op_id = ""
        self._patches: list[tuple[object, str, object]] = []

    def _spanned(self, name, fn, size_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    self._op_id, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    span[5] = size_of(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self._op_counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "memplan" or key.startswith("memplan.")]
        wrappers = {}
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for module_name, names in table.items():
                module = importlib.import_module(f"memplan.{module_name}")
                for fn_name in names:
                    name = f"{module_name}.{fn_name}"
                    fn = getattr(module, fn_name)
                    wrappers[id(fn)] = (
                        self._spanned(name, fn, _SIZES.get(name)) if spanned
                        else self._counted(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def begin_op(self, op_id: str) -> None:
        self._op_id = op_id
        self._stack.clear()
        self._op_counts = Counter()

    def end_op(self) -> None:
        self.counts.append((self._op_id, self._op_counts))

    def write(self, path: str) -> None:
        """Spans and per-op counts as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id, size in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op_id, "size": size}) + "\n")
            for op_id, counts in self.counts:
                handle.write(json.dumps({"op": op_id,
                                         "counts": dict(counts)}) + "\n")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for module_name, fns in SPANNED.items():
        for fn in fns:
            names += [f"{module_name}.{fn}.calls", f"{module_name}.{fn}.ms",
                      f"{module_name}.{fn}.self_ms"]
    for module_name, fns in COUNTED.items():
        names += [f"{module_name}.{fn}.calls" for fn in fns]
    names += ["energy.pricing_per_object", "ilp.solve.vars",
              "ilp.useful_solve_ratio", "migration.pricing_per_live_object"]
    names += [f"{m}.self_share" for m in SPANNED]
    names += ["trace.op_ms", "trace.untraced_op_ms", "trace.overhead_ratio",
              "trace.accounted_share"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("ms"):
        return "ms/op" if name.count(".") == 2 else "ms"
    if name == "ilp.solve.vars":
        return "vars/solve"
    return "ratio"


def derive(tracer: Tracer, traced_ms: list[float],
           untraced_ms: list[float]) -> dict[str, float]:
    """Per-op means of calls, inclusive and self time, plus derived ratios.

    ``traced_ms``/``untraced_ms`` are the harness's own timings of the same
    ops with and without the wrappers installed.
    """
    spans = tracer.spans
    ops = len(traced_ms)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    incl_ns: Counter = Counter()
    self_ns: Counter = Counter()
    module_self_ns: Counter = Counter()
    sizes: Counter = Counter()
    solves = useful = 0
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        calls[name] += 1
        incl_ns[name] += end - start
        own = end - start - child_ns[i]
        self_ns[name] += own
        module_self_ns[name.split(".")[0]] += own
        sizes[name] += size
        if name == "ilp.solve":
            solves += 1
            p = parent
            while p >= 0 and spans[p][0] != "planner.diagnose_infeasibility":
                p = spans[p][3]
            useful += p < 0

    # Objects read by the ops that priced anything (scale prices nothing).
    loaded = Counter()
    for name, _, _, _, op_id, size in spans:
        if name == "profiles.load_profiles":
            loaded[op_id] += size
    priced = objects = 0
    for op_id, counts in tracer.counts:
        n = counts["energy.dram_energy"] + counts["energy.nvm_energy"]
        if n:
            priced += n
            objects += loaded[op_id]
    migration_pricing = sum(
        c["migration.migration_energies"] + c["migration.migration_latency"]
        for _, c in tracer.counts)
    live = sizes["migration.build_migration_program"]

    traced_total = sum(traced_ms)
    metrics: dict[str, float] = {}
    for module_name, fns in SPANNED.items():
        for fn in fns:
            name = f"{module_name}.{fn}"
            metrics[f"{name}.calls"] = calls[name] / ops
            metrics[f"{name}.ms"] = incl_ns[name] / 1e6 / ops
            metrics[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
    for module_name, fns in COUNTED.items():
        for fn in fns:
            name = f"{module_name}.{fn}"
            metrics[f"{name}.calls"] = \
                sum(c[name] for _, c in tracer.counts) / ops
    metrics["energy.pricing_per_object"] = \
        priced / (2 * objects) if objects else 0.0
    metrics["ilp.solve.vars"] = sizes["ilp.solve"] / solves if solves else 0.0
    metrics["ilp.useful_solve_ratio"] = useful / solves if solves else 1.0
    metrics["migration.pricing_per_live_object"] = \
        migration_pricing / (2 * live) if live else 0.0
    for module_name in SPANNED:
        metrics[f"{module_name}.self_share"] = \
            module_self_ns[module_name] / 1e6 / traced_total
    metrics["trace.op_ms"] = traced_total / ops
    metrics["trace.untraced_op_ms"] = sum(untraced_ms) / ops
    metrics["trace.overhead_ratio"] = traced_total / sum(untraced_ms)
    metrics["trace.accounted_share"] = \
        sum(module_self_ns.values()) / 1e6 / traced_total
    return metrics
