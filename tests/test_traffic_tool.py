"""Smoke test of tools/traffic.py, which lists the lines of memplan's
functions that no op of a workload runs: on the tiny sets, no op takes
`write_plan`'s branch for a plan built from a caller's dict, and the
solver's node loop runs."""

import inspect
import json
import os
import subprocess
import sys

from memplan import ilp, planner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAFFIC = os.path.join(ROOT, "tools", "traffic.py")


def _lines(function, first: str, last: str) -> set[int]:
    """The line numbers of ``function``'s source from the line holding
    ``first`` through the next one holding ``last``."""
    source, start = inspect.getsourcelines(function)
    begin = next(k for k, line in enumerate(source) if first in line)
    end = next(k for k in range(begin, len(source)) if last in source[k])
    return set(range(start + begin, start + end + 1))


def test_no_tiny_op_writes_a_dict_plan_and_every_one_searches():
    result = subprocess.run(
        [sys.executable, TRAFFIC, "--tiny", "--work", "0.01"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert set(summary) == {"solve-sweep", "wide-pipeline", "migrate-live"}
    # The dict branch, from its `if` to the line before its `else:`.
    dict_branch = _lines(planner.write_plan, "if plan._rows is None:",
                         "ends += [_ROW_ENDS[1]]")
    loop_head = _lines(ilp._search, "while stack:", "nodes += 1")
    assert len(dict_branch) > 1 and len(loop_head) == 3
    for unrun in summary.values():
        assert dict_branch - {min(dict_branch)} <= set(unrun["planner"])
        assert not loop_head & set(unrun["ilp"])
    # Some workload runs every line of the node loop.
    loop = _lines(ilp._search, "while stack:", "return best_x, nodes")
    assert not set.intersection(*(loop & set(unrun["ilp"])
                                  for unrun in summary.values()))
