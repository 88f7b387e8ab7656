"""Smoke test of tools/ab.py, the in-process A/B harness: it runs a tree
against itself on the tiny sets, exports a git revision as the parent,
and refuses a tree whose artifacts differ."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
AB = os.path.join(ROOT, "tools", "ab.py")


def _ab(*args):
    return subprocess.run(
        [sys.executable, AB, "--tiny", "--work", "0.01", "--rounds", "2",
         *args], capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_a_tree_against_itself_runs_every_workload():
    result = _ab("--parent", SRC, "--change", SRC)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert set(summary) == {"solve-sweep", "wide-pipeline", "migrate-live"}
    for workload in summary.values():
        assert workload["ops"] >= 3
        assert len(workload["ratios"]) == 2
        assert workload["min"] <= workload["median"] <= workload["max"]
        assert all(ratio > 0 for ratio in workload["ratios"])
        assert workload["kinds"] and all(
            ratio > 0 for ratio in workload["kinds"].values())
        assert set(workload["kind_rounds"]) == set(workload["kinds"])
        for kind in workload["kind_rounds"].values():
            assert kind["min"] <= kind["median"] <= kind["max"]


@pytest.mark.skipif(not os.path.exists(os.path.join(ROOT, ".git")),
                    reason="needs a git checkout")
def test_a_git_revision_is_the_parent_tree():
    result = _ab("--parent", "HEAD", "--change", SRC,
                 "--workload", "migrate-live")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert set(summary) == {"migrate-live"}
    result = _ab("--parent", "no-such-revision")
    assert result.returncode == 2
    assert "neither a directory nor a git revision" in result.stderr


def test_a_tree_whose_plans_differ_is_refused(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    planner = changed / "memplan" / "planner.py"
    text = planner.read_text()
    assert text.count('f"status={plan.status}\\n"') == 1
    planner.write_text(text.replace('f"status={plan.status}\\n"',
                                    'f"status= {plan.status}\\n"'))
    result = _ab("--parent", SRC, "--change", str(changed),
                 "--workload", "solve-sweep")
    assert result.returncode == 1
    assert ": the artifacts differ: line 2: 'status=" in result.stderr
    parent, _, change = result.stderr.partition(" (parent) against ")
    assert parent.endswith(("'status=optimal'", "'status=infeasible'"))
    assert change.startswith(("'status= optimal' (change)",
                              "'status= infeasible' (change)"))


def test_a_kind_keeps_only_its_ops():
    result = _ab("--parent", SRC, "--change", SRC, "--workload",
                 "wide-pipeline", "--kind", "evaluate", "--kind", "scale")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert set(summary["wide-pipeline"]["kinds"]) == {"evaluate", "scale"}
    result = _ab("--parent", SRC, "--change", SRC, "--workload",
                 "migrate-live", "--kind", "evaluate")
    assert result.returncode == 2
    assert "migrate-live has no op of kind evaluate" in result.stderr
