import os
import subprocess
import sys

import pytest

import memplan

SRC = os.path.dirname(os.path.dirname(memplan.__file__))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")
NAMES = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def test_every_demo_is_run():
    assert len(NAMES) == 6


@pytest.mark.parametrize("demo", NAMES)
def test_demo_exits_cleanly(demo, tmp_path):
    # Run from tmp_path: a demo may write its output to the working directory.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                            cwd=tmp_path, capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr
