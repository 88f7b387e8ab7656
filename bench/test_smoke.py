"""Tiny-size smoke test of the benchmark harness.

Runs one op per workload on tiny inputs and checks it the way a benchmark
run does: digest against expected.json plus the evaluator checks. Run from
the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run._import_memplan()
import tracing  # noqa: E402
from workloads import BUILDERS  # noqa: E402

CHECKED_KIND = {"solve-sweep": "plan", "wide-pipeline": "plan",
                "migrate-live": "migrate"}


def _one_op(workload, tmp_path):
    ops = run.setup(workload, str(tmp_path), run.TINY_WORK, tiny=True)
    return next(op for op in ops if op.kind == CHECKED_KIND[workload])


@pytest.mark.parametrize("workload", BUILDERS)
def test_one_op_matches_expected_and_checks(workload, tmp_path):
    op = _one_op(workload, tmp_path)
    code, seconds = run.run_op(op)
    want = run.expected(workload, tiny=True)
    assert op.op_id in want
    assert run.verify(op, code, want) is None
    assert seconds > 0


def test_changed_artifact_is_caught(tmp_path):
    op = _one_op("solve-sweep", tmp_path)
    code, _ = run.run_op(op)
    with open(op.out, "a", encoding="utf-8") as handle:
        handle.write("\n")
    want = run.expected("solve-sweep", tiny=True)
    assert run.verify(op, code, want) == "differs from expected.json"


def test_evaluator_check_catches_wrong_objective(tmp_path):
    op = _one_op("solve-sweep", tmp_path)
    assert "-r1-" in op.op_id
    assert run.run_op(op)[0] == run.EXIT_OK
    with open(op.out, encoding="utf-8") as handle:
        text = handle.read()
    lines = [line if not line.startswith("objective_ns=")
             else f"objective_ns={float(line.split('=')[1]) * 1.001!r}"
             for line in text.splitlines()]
    with open(op.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    assert run.check_op(op, run.EXIT_OK) == \
        "evaluator: latency differs from objective_ns"


def test_op_over_the_cap_is_a_timeout(tmp_path, monkeypatch):
    op = _one_op("wide-pipeline", tmp_path)
    monkeypatch.setattr(run, "OP_CAP_S", 1e-6)
    code, _ = run.run_op(op)
    assert code == "timeout"
    assert run.verify(op, code, {}) == "timeout"


def test_traced_op_accounts_for_its_time(tmp_path):
    op = _one_op("migrate-live", tmp_path)
    _, plain = run.run_op(op)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(op.op_id)
    try:
        _, traced = run.run_op(op)
    finally:
        tracer.end_op()
        tracer.uninstall()
    metrics = tracing.derive(tracer, [traced * 1e3], [plain * 1e3])
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["cli.main.calls"] == 1
    assert metrics["migration.plan_migration.calls"] == 1
    assert metrics["migration.pricing_per_live_object"] == 2
    assert 0.9 < metrics["trace.accounted_share"] <= 1.0
    # Uninstall restores every original function.
    from memplan import cli, planner
    assert cli.plan_static is planner.plan_static
    assert not tracer._patches


def test_any_failure_skip_or_short_tail_makes_the_run_incorrect():
    clean = {"failures": [], "skipped": 0, "tail": run.MIN_TAIL}
    assert run.is_correct(clean)
    assert not run.is_correct({**clean, "failures": ["plan-x: timeout"]})
    assert not run.is_correct({**clean, "skipped": 1})
    assert not run.is_correct({**clean, "tail": run.MIN_TAIL - 1})


def test_speed_factors_follow_a_slow_stretch():
    ref = run.CALIBRATION_REF_S
    calibrations = [ref] * 40 + [2 * ref] * 40
    factors = run.speed_factors(calibrations)
    assert factors[0] == 1.0 and factors[-1] == 0.5
    assert factors[20] == 1.0 and factors[60] == 0.5
