"""Every program the benchmark's workloads solve keeps its committed answer.

The three workloads of ``bench/workloads.py`` are built at their default
size, and their ``plan``, ``sweep`` and ``migrate`` ops run in build order
through `memplan.cli.main` with `memplan.ilp.solve` wrapped. Each program
it solves leaves one entry: a sha256 of its arrays and tolerances, the
status, a sha256 of the assignment, ``repr(objective_value)``, ``binding``
and the node count. The entries must equal ``solver_record.json``, so a
change to the solver that moves any answer, tie-break or node count shows
here. Node counts are deterministic, which makes the record a noise-free
measure of search work too.

To rewrite the record after a change that is meant to move it, run::

    python tests/test_solver_record.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("solver_record.json")
WORKLOADS = ("solve-sweep", "wide-pipeline", "migrate-live")
SOLVING = ("plan", "sweep", "migrate")


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first, as an import would: its dataclasses look it up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def solves(workload: str, workdir: str) -> list[list]:
    """One entry per program the workload's solving ops pass to the solver."""
    import numpy as np

    from memplan import cli, ilp

    solve = ilp.solve
    entries: list[list] = []
    op_id = ""

    def recorded(program):
        solution = solve(program)
        c, a, b = program.arrays()
        entries.append([
            op_id, _sha(c, a, b, program.tolerances), solution.status,
            _sha(np.asarray(solution.assignment, dtype=np.int64)),
            repr(solution.objective_value), list(solution.binding),
            solution.nodes])
        return solution

    sink = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp, "solve", recorded)
        for op in _workloads().BUILDERS[workload](workdir):
            if op.kind not in SOLVING:
                continue
            op_id = op.op_id
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                cli.main(list(op.argv))
    return entries


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_solve_keeps_its_recorded_answer(workload, tmp_path):
    expected = json.loads(RECORD.read_text())[workload]
    entries = solves(workload, str(tmp_path))
    for k, (got, want) in enumerate(zip(entries, expected)):
        assert got == want, f"{workload} program {k} (op {want[0]}) moved"
    assert len(entries) == len(expected)


def test_the_record_holds_under_another_blas_kernel():
    # OpenBLAS picks its kernels for the CPU when numpy loads, and a total a
    # BLAS routine adds changes its last bits with the kernel. Prescott
    # needs only SSE3, so every x86-64 CPU can run the check under it.
    check = f"{Path(__file__).name}::" \
        f"{test_every_benchmark_solve_keeps_its_recorded_answer.__name__}"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         check], cwd=Path(__file__).parent, capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_CORETYPE="Prescott"), timeout=300)
    assert result.returncode == 0, result.stdout[-3000:]


def main() -> None:
    """Rewrite the record from the solver in this checkout, and print each
    workload's node total, old -> new, and how many entries moved in a
    field other than the node count."""
    sys.path.insert(0, str(ROOT / "src"))
    old = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record = {}
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            record[workload] = solves(workload, workdir)
        before = old.get(workload, [])
        moved = sum(got[:-1] != want[:-1] for got, want
                    in zip(record[workload], before))
        moved += abs(len(record[workload]) - len(before))
        print(f"{workload}: {len(record[workload])} programs, nodes "
              f"{sum(entry[-1] for entry in before)} -> "
              f"{sum(entry[-1] for entry in record[workload])}, "
              f"{moved} moved in another field")
    lines = ",\n".join(
        f"  {json.dumps(workload)}: [\n"
        + ",\n".join(f"    {json.dumps(entry)}" for entry in entries)
        + "\n  ]" for workload, entries in record.items())
    RECORD.write_text("{\n" + lines + "\n}\n")


if __name__ == "__main__":
    main()
