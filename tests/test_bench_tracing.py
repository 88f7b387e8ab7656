"""The benchmark's tracer wraps memplan functions by name; each must exist."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_every_traced_name_is_a_memplan_function(table):
    names = getattr(tracing, table)
    assert names
    for module_name, functions in names.items():
        module = importlib.import_module(f"memplan.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), \
                f"bench/tracing.py {table} names memplan.{module_name}.{name}"


def test_the_benchmark_declares_every_per_layer_metric_the_tracer_reports():
    declared = json.loads((_TRACING.parents[1] / "BENCHMARK.json").read_text())
    assert [metric["name"] for metric in declared["per_layer"]] \
        == tracing.metric_names()
