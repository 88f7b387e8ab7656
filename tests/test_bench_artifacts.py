"""The benchmark's artifacts keep their committed bytes.

``bench/expected.json`` holds the exit code and the sha256 of the artifact
of every op the benchmark's workloads run. Every op of the three workloads
at their default size, and of the three tiny sets, runs here through
`memplan.cli.main`, so a change to any of those artifacts shows in the
tests and not only in a benchmark run: wide-pipeline's ``evaluate``,
``compare``, ``scale``, ``plan`` and ``sweep`` ops, solve-sweep's plan
files and migrate-live's migration tables, whose current plans are read
from plan files. ``solver_record.json`` (see test_solver_record.py) holds
the plan and migrate ops' programs down to each one's answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from memplan import cli
from test_solver_record import _workloads

BENCH = Path(__file__).resolve().parents[1] / "bench"
# (expected.json key, workload, work, tiny); the tiny sets are built at
# bench/run.py's TINY_WORK, one op of each kind.
WORKLOADS = ("solve-sweep", "wide-pipeline", "migrate-live")
CASES = [(workload, workload, 1.0, False) for workload in WORKLOADS] + [
    (f"{workload}/tiny", workload, 0.01, True) for workload in WORKLOADS]


@pytest.mark.parametrize("key, workload, work, tiny", CASES,
                         ids=[case[0] for case in CASES])
def test_every_artifact_matches_expected_json(key, workload, work, tiny,
                                              tmp_path):
    want = json.loads((BENCH / "expected.json").read_text())[key]
    ops = _workloads().BUILDERS[workload](str(tmp_path), work, tiny)
    got = {}
    sink = io.StringIO()
    for op in ops:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(list(op.argv))
        got[op.op_id] = [code, hashlib.sha256(
            Path(op.out).read_bytes()).hexdigest()]
    assert sorted(got) == sorted(want)
    for op_id, entry in got.items():
        assert entry == want[op_id], f"{key} {op_id} differs"
