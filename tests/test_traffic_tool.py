"""Smoke test of tools/traffic.py, which lists the lines of memplan's
functions that no op of a workload runs: on the tiny sets, no op takes
`write_plan`'s branch for a plan built from a caller's dict or
`load_profiles`' per-line passes (every workload's profile files are
written by `write_profiles`), no op makes a loaded plan's columns (which
is why they are made on first read), and the solver's node loop runs."""

import ast
import inspect
import json
import os
import subprocess
import sys

from memplan import ilp, planner, profiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAFFIC = os.path.join(ROOT, "tools", "traffic.py")


def _lines(function, first: str, last: str) -> set[int]:
    """The line numbers of ``function``'s source from the line holding
    ``first`` through the next one holding ``last``, comment lines left
    out (they run nothing)."""
    source, start = inspect.getsourcelines(function)
    begin = next(k for k, line in enumerate(source) if first in line)
    end = next(k for k in range(begin, len(source)) if last in source[k])
    return {start + k for k in range(begin, end + 1)
            if not source[k].lstrip().startswith("#")}


def _branch(function, test: str) -> set[int]:
    """The line numbers of the `if` in ``function`` whose test is ``test``,
    from the `if` line through its body's last line (an `else:` left out),
    found in the syntax tree; comment lines are left out (they run
    nothing)."""
    source, start = inspect.getsourcelines(function)
    node, = (node for node in ast.walk(ast.parse("".join(source)))
             if isinstance(node, ast.If) and ast.unparse(node.test) == test)
    return {start + k for k in range(node.lineno - 1, node.body[-1].end_lineno)
            if not source[k].lstrip().startswith("#")}


def test_no_tiny_op_writes_a_dict_plan_and_every_one_searches():
    result = subprocess.run(
        [sys.executable, TRAFFIC, "--tiny", "--work", "0.01"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert set(summary) == {"solve-sweep", "wide-pipeline", "migrate-live"}
    dict_branch = _branch(planner.write_plan, "plan._rows is None")
    per_line = _branch(profiles.load_profiles, "not loadable")
    columns = _lines(planner._columns, "codes = np.array", "return {")
    loop_head = _lines(ilp._search, "while stack:", "nodes += 1")
    assert len(dict_branch) > 1 and len(per_line) > 1 and len(loop_head) == 3
    assert len(columns) > 1
    for unrun in summary.values():
        assert dict_branch - {min(dict_branch)} <= set(unrun["planner"])
        assert per_line - {min(per_line)} <= set(unrun["profiles"])
        assert columns <= set(unrun["planner"])
        assert not loop_head & set(unrun["ilp"])
    # Some workload runs every line of the node loop.
    loop = _lines(ilp._search, "while stack:", "return best_x, nodes")
    assert not set.intersection(*(loop & set(unrun["ilp"])
                                  for unrun in summary.values()))
