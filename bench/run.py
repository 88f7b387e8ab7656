"""memplan benchmark: closed-loop CLI ops, checked, timed, optionally traced.

Run from the repository root:

    python3 bench/run.py --workload solve-sweep --seed 1 --seconds 25 --trace 0

One client in one process calls ``memplan.cli.main(argv)`` in-process, one
op after the other, on files generated by workloads.py; ``--seed`` draws the
order of the ops. Each op runs once, and every op's artifact is checked
after the timed loop (see ``check_op``). The last line of standard output
is one JSON object: with ``--trace 0`` the end-to-end metrics, scaled to a
reference machine speed (see ``calibrate``), with ``--trace 1`` the
per-layer metrics of a traced run (see tracing.py and README.md).

``--record-expected`` rewrites expected.json, the artifact digest and exit
code of every op; run it only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time

START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_run")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

# The workloads have the sizes written in workloads.py when --seconds is
# REFERENCE_SECONDS; their ops then take about that long at the seed commit.
# Other values scale the number of ops. Every workload has >= 100 ops at
# the reference size, leaving >= MIN_TAIL samples beyond the 90th
# percentile; a run with fewer is not correct.
REFERENCE_SECONDS = 25.0
TRACED_WORK = 0.5        # share of the ops the traced run runs (twice each)
TINY_WORK = 0.01         # one op of each kind, for the smoke test
SETUP_REPEATS = 9
OP_CAP_S = 30.0          # an op running longer is stopped and counted failed
DEADLINE_S = 120.0       # no op starts this long after the process began
MIN_TAIL = 10
REL_TOL = 1e-9

# The machine is shared. For stretches of tens of seconds it runs the same
# code up to 1.9x slower, in CPU time as much as in wall time, so raw times
# of the same ops spread by up to 0.45 (IQR/median) between runs.
# ``calibrate`` measures that speed next to every op; times are scaled to
# the speed at which it takes CALIBRATION_REF_S, using the median of the
# calibrations of the CALIBRATION_WINDOW ops on either side.
CALIBRATION_SIZE = 4_000
CALIBRATION_REF_S = 0.005
CALIBRATION_WINDOW = 8

EXIT_OK = 0
EXIT_INFEASIBLE = 2


class OpTimeout(Exception):
    """Raised in the main thread when an op exceeds OP_CAP_S."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _import_memplan():
    if not os.path.isdir(os.path.join(SRC, "memplan")):
        sys.exit(f"bench: no memplan sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)


def setup(workload: str, workdir: str, work: float = 1.0,
          tiny: bool = False):
    """Fresh input files for one workload; returns its ops."""
    from workloads import BUILDERS
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return BUILDERS[workload](workdir, work, tiny)


def run_op(op) -> tuple[int | str, float]:
    """(exit code or exception name, seconds) of one CLI call, capped."""
    from memplan import cli
    sink = io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            code: int | str = cli.main(list(op.argv))
        except OpTimeout:
            code = "timeout"
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else "exit"
        except Exception as exc:  # RecursionError included: a failed op
            code = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
    return code, elapsed


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        return None


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))


def _over(value: float, limit: float) -> bool:
    return value > limit + REL_TOL * max(1.0, abs(limit))


def check_op(op, code, parsed: dict | None = None) -> str | None:
    """Problem with the op's artifact, or None when it checks out.

    Every kind must exit 0 (plan and migrate may exit 2 for infeasible)
    and agree with its artifact's status. A feasible plan is re-scored by
    ``evaluator.evaluate``: budget and capacity must hold and the latency
    must match ``objective_ns``. A sweep's feasible rows must be within
    budget and capacity; a feasible migration within its requirement.
    ``parsed`` caches profile files across the calls of one run.
    """
    from memplan.evaluator import evaluate
    from memplan.planner import load_plan
    from memplan.profiles import load_profiles
    from workloads import device

    allowed = (EXIT_OK, EXIT_INFEASIBLE) if op.kind in ("plan", "migrate") \
        else (EXIT_OK,)
    if code not in allowed:
        return f"exit {code}"
    with open(op.out, encoding="utf-8") as handle:
        text = handle.read()
    if op.kind in ("plan", "migrate"):
        fields = dict(line.split("=", 1) for line in text.splitlines()
                      if "=" in line)
        status = "infeasible" if code == EXIT_INFEASIBLE else "optimal"
        if fields.get("status") != status:
            return f"exit {code} but status={fields.get('status')}"
        if op.kind == "migrate" and status == "optimal" and \
                _over(float(fields["e_total_nj"]),
                      float(fields["requirement_nj"])):
            return "migration energy above its requirement"
        if op.kind == "plan" and status == "optimal":
            plan = load_plan(op.out)
            parsed = {} if parsed is None else parsed
            if op.profiles not in parsed:
                parsed[op.profiles] = load_profiles(op.profiles)
            report = evaluate(parsed[op.profiles], device(op), plan)
            if not report.budget_ok:
                return "evaluator: over budget"
            if not report.capacity_ok:
                return "evaluator: over capacity"
            if not _close(report.latency_objective_ns, plan.objective_ns):
                return "evaluator: latency differs from objective_ns"
    if op.kind == "sweep":
        lines = text.splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            if row["status"] != "optimal":
                continue
            if row["capacity_ok"] != "1" or _over(
                    float(row["evaluated_energy_nj"]),
                    float(row["energy_budget_nj"])):
                return f"sweep row {row['ratio']}: budget or capacity broken"
    return None


def _expected_key(workload: str, tiny: bool) -> str:
    return f"{workload}/tiny" if tiny else workload


def expected(workload: str, tiny: bool = False) -> dict:
    """op id -> [exit code, sha256] as recorded in expected.json."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[_expected_key(workload, tiny)]


def verify(op, code, expected: dict,
           parsed: dict | None = None) -> str | None:
    """Why the op failed, or None: raised, exit code, digest, checks.

    The artifact's digest must match expected.json when the op is recorded
    there (every op of a run at or below the reference size is).
    """
    if isinstance(code, str):
        return code
    digest = _digest(op.out)
    if digest is None:
        return "no artifact"
    want = expected.get(op.op_id)
    if want is not None and want != [code, digest]:
        return "differs from expected.json"
    return check_op(op, code, parsed)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _timed_setup(workload: str, workdir: str, work: float):
    """One full set-up ending in one warm-up op; (ops, seconds)."""
    start = time.perf_counter()
    ops = setup(workload, workdir, work)
    run_op(ops[0])
    return ops, time.perf_counter() - start


def _order(workload: str, seed: int, ops) -> list:
    """The ops in the seed's order."""
    order = list(ops)
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def _tail(latencies: list[float]) -> int:
    """Samples beyond the nearest-rank 90th percentile."""
    return len(latencies) - math.ceil(0.9 * len(latencies))


def calibrate() -> float:
    """Seconds of a fixed allocation-heavy task that never calls memplan.

    It starts right after a full collection, so the collector does the same
    young-generation work in it whatever the program keeps alive. That work
    loads the memory system as the program's ops do, and tracks their
    slow-downs better than pure arithmetic or a run with the collector off.
    """
    gc.collect()
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_SIZE):
        table[(i, str(i))] = [float(i)] * 3
    sorted(table.items(), key=lambda item: -item[1][0])
    return time.perf_counter() - start


def speed_factors(calibrations: list[float]) -> list[float]:
    """Per op: CALIBRATION_REF_S / median of the calibrations around it."""
    w = CALIBRATION_WINDOW
    return [CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - w):
                                                               i + w + 1])
            for i in range(len(calibrations))]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of the untraced closed loop, each op run once.

    Failed ops keep their timing (a timeout at the cap), so a failure never
    makes the timing metrics look better; and any failure, unreached op or
    short tail makes the run incorrect.

    Every time is scaled to the reference machine speed: before each op the
    harness runs ``calibrate`` (which also leaves every op the same freshly
    collected heap, as a new CLI process would have), and the op's times
    are multiplied by its ``speed_factors`` entry. ``ops_per_s`` is
    completed ops over the loop's scaled wall time, which leaves out the
    calibrations and the extra set-ups. ``setup_s`` is the median of
    SETUP_REPEATS scaled set-ups: the one the ops use and more into a side
    directory, spread evenly through the loop. The raw wall-clock figures
    are returned too (``raw``).
    """
    workdir = os.path.join(WORK_DIR, workload)
    work = seconds / REFERENCE_SECONDS
    ops, first = _timed_setup(workload, workdir, work)
    order = _order(workload, seed, ops)
    setups = [(0, first)]               # (index of the next op, seconds)
    calibrations, ran = [], []
    between = max(1, len(order) // SETUP_REPEATS)
    for i, op in enumerate(order):
        if time.perf_counter() - START > DEADLINE_S:
            break
        if i % between == between - 1 and len(setups) < SETUP_REPEATS:
            setups.append((i, _timed_setup(workload, workdir + "-setup",
                                           work)[1]))
        calibrations.append(calibrate())
        start = time.perf_counter()
        code, elapsed = run_op(op)
        ran.append((op, code, elapsed, time.perf_counter() - start))
    factors = speed_factors(calibrations) or [1.0]

    want, parsed = expected(workload), {}
    failures = [f"{op.op_id}: {problem}" for op, code, _, _ in ran
                if (problem := verify(op, code, want, parsed)) is not None]
    completed = len(ran) - len(failures)
    raw_ms = [elapsed * 1e3 for _, _, elapsed, _ in ran] or [0.0]
    ms = [t * f for t, f in zip(raw_ms, factors)]
    raw_wall = sum(slot for _, _, _, slot in ran) or 1.0
    wall = sum(slot * f for (_, _, _, slot), f in zip(ran, factors)) or 1.0
    raw_setup = statistics.median(t for _, t in setups)
    setup_s = statistics.median(t * factors[min(i, len(factors) - 1)]
                                for i, t in setups)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": len(ran),
        "skipped": len(order) - len(ran),
        "tail": _tail(raw_ms),
        "failures": failures,
        "raw": {"ops_per_s": completed / raw_wall,
                "op_p50_ms": statistics.median(raw_ms),
                "op_p90_ms": _percentile(raw_ms, 0.9),
                "setup_s": raw_setup,
                "speed_factor": statistics.median(factors)},
        "metrics": {
            "ops_per_s": (completed / wall, "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (_percentile(ms, 0.9), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        },
    }


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: each op run untraced, then traced."""
    import tracing
    workdir = os.path.join(WORK_DIR, workload)
    ops = setup(workload, workdir, TRACED_WORK * seconds / REFERENCE_SECONDS)
    run_op(ops[0])
    order = _order(workload, seed, ops)
    want, parsed = expected(workload), {}
    tracer = tracing.Tracer()
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    failures: list[str] = []
    for op in order:
        if time.perf_counter() - START > DEADLINE_S:
            break
        gc.collect()
        code, plain = run_op(op)
        problem = verify(op, code, want, parsed)
        gc.collect()
        tracer.install()
        tracer.begin_op(op.op_id)
        try:
            code, traced = run_op(op)
        finally:
            tracer.end_op()
            tracer.uninstall()
        problem = problem or verify(op, code, want, parsed)
        untraced_ms.append(plain * 1e3)
        traced_ms.append(traced * 1e3)
        if problem is not None:
            failures.append(f"{op.op_id}: {problem}")

    os.makedirs(WORK_DIR, exist_ok=True)
    tracer.write(os.path.join(WORK_DIR, f"trace-{workload}-{seed}.jsonl"))
    metrics = tracing.derive(tracer, traced_ms, untraced_ms) if traced_ms \
        else {name: 0.0 for name in tracing.metric_names()}
    return {
        "attempted": len(traced_ms),
        "skipped": len(order) - len(traced_ms),
        "tail": None,
        "failures": failures,
        "metrics": {name: (metrics[name], tracing.metric_unit(name))
                    for name in tracing.metric_names()},
    }


def is_correct(result: dict) -> bool:
    """No op failed or went unreached, and the 90th percentile has a tail."""
    return (not result["failures"] and not result["skipped"]
            and (result["tail"] is None or result["tail"] >= MIN_TAIL))


def record_expected() -> None:
    """Write expected.json from the current code, at both sizes."""
    from workloads import BUILDERS
    table = {}
    for workload in BUILDERS:
        for tiny in (False, True):
            key = _expected_key(workload, tiny)
            workdir = os.path.join(WORK_DIR, "record", key)
            entries = {}
            work = TINY_WORK if tiny else 1.0
            for op in setup(workload, workdir, work, tiny):
                code, _ = run_op(op)
                problem = check_op(op, code) if isinstance(code, int) else code
                if problem is not None:
                    sys.exit(f"bench: {key} {op.op_id}: {problem}")
                entries[op.op_id] = [code, _digest(op.out)]
            table[key] = dict(sorted(entries.items()))
            print(f"{key}: {len(entries)} ops", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    _import_memplan()
    from workloads import BUILDERS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    measure_fn = measure_traced if args.trace else measure
    result = measure_fn(args.workload, args.seed, args.seconds)
    attempted, skipped, tail = (result["attempted"], result["skipped"],
                                result["tail"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={attempted} skipped={skipped} beyond_p90={tail}")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in result.get("raw", {}).items():
        print(f"{'raw ' + name:40s} {value:14.6g}")
    failed_ratio = len(result["failures"]) / max(1, attempted)
    print(f"{'failed_ratio':40s} {failed_ratio:14.6g} ratio")
    print(json.dumps({
        "correct": is_correct(result),
        "attempted": max(1, attempted),
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
