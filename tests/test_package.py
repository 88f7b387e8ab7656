import ast
import glob
import os
import subprocess
import sys

import memplan


def test_every_exported_name_resolves_once():
    assert len(set(memplan.__all__)) == len(memplan.__all__)
    assert [name for name in memplan.__all__
            if not hasattr(memplan, name)] == []


def test_importing_the_package_and_its_cli_loads_no_test_only_module():
    # scipy, hypothesis and pytest are in the test extra only.
    code = ("import sys, memplan, memplan.cli; print(sorted("
            "{'scipy', 'hypothesis', 'pytest'} & {name.partition('.')[0] "
            "for name in sys.modules}))")
    src = os.path.dirname(os.path.dirname(memplan.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path),
                            check=True, timeout=60)
    assert result.stdout == "[]\n"


def _package_nodes():
    """(module:line, node) for every syntax node of every package module."""
    package = os.path.dirname(memplan.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as stream:
            tree = ast.parse(stream.read(), path)
        for node in ast.walk(tree):
            yield f"{os.path.basename(path)}:{getattr(node, 'lineno', 0)}", node


def test_no_module_compiles_source_at_run_time():
    # Rules and formulas are written as code, not as text for eval or exec.
    calls = [where for where, node in _package_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("eval", "exec")]
    assert calls == []


def test_no_module_sums_a_list_copy_of_an_array():
    # Totals of arrays go through profiles._sum_in_order, which adds left to
    # right on every Python; builtin sum compensates from 3.12 on and makes
    # a list of the array first.
    calls = [where for where, node in _package_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"
             and any(isinstance(inner, ast.Call)
                     and isinstance(inner.func, ast.Attribute)
                     and inner.func.attr == "tolist"
                     for arg in node.args for inner in ast.walk(arg))]
    assert calls == []


def test_no_module_adds_a_total_with_a_blas_routine():
    # A BLAS product's bits depend on the kernel OpenBLAS picks for the CPU;
    # totals go through profiles._sum_in_order, which adds in index order.
    uses = [where for where, node in _package_nodes()
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in (
                "dot", "matmul", "inner", "vdot", "einsum")]
    assert uses == []


def _scoped_nodes():
    """(module:function, node) for every syntax node of every package
    module, naming the innermost function around it (None outside one)."""
    package = os.path.dirname(memplan.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as stream:
            tree = ast.parse(stream.read(), path)
        scopes = [(node.name, inner) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for inner in ast.walk(node)]
        inside = {id(inner): name for name, inner in scopes}
        for node in ast.walk(tree):
            yield f"{os.path.basename(path)}:{inside.get(id(node))}", node


def test_only_the_root_bounds_and_the_generator_add_pairwise():
    # numpy's .sum() adds pairwise, in an order that depends on the array's
    # length and layout. It may only feed a bound that a margin guards
    # (ilp._fix, ilp._conflicts) or the generator's draws; every reported
    # total adds in index order.
    users = {where for where, node in _scoped_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "sum"}
    assert sorted(users) == ["ilp.py:_conflicts", "ilp.py:_fix",
                             "profiles.py:generate_synthetic"]


def test_only_the_two_text_helpers_open_files():
    # Artifacts are read and written through profiles.read_text and
    # profiles.write_text, one binary read or write each, so no text-mode
    # opener comes back.
    openers = [where for where, node in _scoped_nodes()
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "open"]
    assert sorted(openers) == ["profiles.py:read_text", "profiles.py:write_text"]


def test_the_reserve_rule_has_one_home():
    # planner._check_reserve alone refuses a reserve, for the planners,
    # the baselines, migrate and the plan file's summary check alike.
    homes = {where for where, node in _scoped_nodes()
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "reserved_dram_bytes must be" in node.value}
    assert sorted(homes) == ["planner.py:_check_reserve"]


def test_only_price_placement_picks_a_priced_column_by_device():
    # energy.price_placement is the one rule for an object's price on the
    # device it sits on: no other function both reads energy.prices and
    # chooses between columns with where.
    calls: dict[str, set] = {}
    for where, node in _scoped_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            calls.setdefault(where, set()).add(
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None))
    pickers = [where for where, names in calls.items()
               if {"prices", "where"} <= names]
    assert sorted(pickers) == ["energy.py:price_placement"]


def test_the_baselines_hold_no_ratio_rule_of_their_own():
    # A baseline plan's ratio is evaluate's (evaluator._ratio_vs_all_dram),
    # so baselines.py divides nothing: no / or // and no numpy divide.
    divisions = [where for where, node in _package_nodes()
                 if where.startswith("baselines.py:")
                 and (isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, (ast.Div, ast.FloorDiv))
                      or isinstance(node, ast.Attribute)
                      and node.attr in ("divide", "true_divide"))]
    assert divisions == []
