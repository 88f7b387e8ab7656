import argparse
import contextlib
import io
import json
import random
import warnings

import pytest

from conftest import time_cap
from test_solver_record import _workloads
from memplan.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, build_parser,
                         main)
import memplan.planner
from memplan.baselines import place_all_dram, place_mpki_threshold
from memplan.energy import GIB, DeviceSpec
from memplan.energy import testbed1 as make_testbed1
from memplan.evaluator import comparison_json, compare, evaluate
from memplan.migration import MigrationRequest, plan_migration
from memplan.planner import load_plan, write_plan
from memplan.profiles import (GeneratorSpec, ProfileSet,
                              derive_scaling_vector, extrapolate,
                              generate_synthetic, load_profiles,
                              write_profile_dir)

MB = 1 << 20


@pytest.fixture
def workload(tmp_path):
    path = tmp_path / "w.prof"
    rc = main(["generate", "--count", "10", "--seed", "7", "--skew-count",
               "3", "--skew-share", "0.9", "--with-mpki", "--out", str(path)])
    assert rc == EXIT_OK
    return path


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_output_loads_and_is_deterministic(self, tmp_path):
        a = tmp_path / "a.prof"
        b = tmp_path / "b.prof"
        for path in (a, b):
            assert run(["generate", "--count", 6, "--seed", 3,
                        "--out", path]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert len(load_profiles(a)) == 6

    def test_bad_spec_is_usage_error(self, tmp_path):
        rc = run(["generate", "--count", 0, "--seed", 1,
                  "--out", tmp_path / "x.prof"])
        assert rc == EXIT_USAGE

    def test_missing_required_flag_exits_one(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--count", 6, "--out", tmp_path / "x.prof"])
        assert err.value.code == EXIT_USAGE


class TestPlan:
    def test_feasible_plan_round_trips_through_evaluator(self, workload,
                                                         tmp_path):
        out = tmp_path / "p.plan"
        rc = run(["plan", "--profiles", workload, "--ratio", 0.8,
                  "--preset", "testbed1", "--dram-capacity-gib", 0.05,
                  "--nvm-capacity-gib", 1, "--major-threshold", 0,
                  "--out", out])
        assert rc == EXIT_OK
        plan = load_plan(out)
        assert plan.feasible
        profiles = load_profiles(workload)
        dev = make_testbed1(dram_capacity=0.05 * GIB, nvm_capacity=1 * GIB)
        report = evaluate(profiles, dev, plan)
        assert report.capacity_ok
        assert report.budget_ok
        assert report.energy_ratio_vs_all_dram <= 0.8 * (1 + 1e-9)

    def test_zero_ratio_is_usage_error(self, workload, tmp_path):
        rc = run(["plan", "--profiles", workload, "--ratio", 0,
                  "--out", tmp_path / "p.plan"])
        assert rc == EXIT_USAGE

    def test_infeasible_exits_two_but_writes_artifact(self, workload,
                                                      tmp_path):
        out = tmp_path / "p.plan"
        rc = run(["plan", "--profiles", workload, "--ratio", 1e-9,
                  "--dram-capacity-gib", 0, "--nvm-capacity-gib", 1,
                  "--major-threshold", 0, "--out", out])
        assert rc == EXIT_INFEASIBLE
        assert not load_plan(out).feasible

    def test_missing_profile_file_exits_one(self, tmp_path):
        rc = run(["plan", "--profiles", tmp_path / "nope.prof",
                  "--ratio", 0.8, "--out", tmp_path / "p.plan"])
        assert rc == EXIT_USAGE

    def test_device_spec_file(self, workload, tmp_path):
        from memplan.energy import write_device_spec
        device_path = tmp_path / "dev.json"
        write_device_spec(make_testbed1(dram_capacity=0.05 * GIB,
                                        nvm_capacity=1 * GIB), device_path)
        out = tmp_path / "p.plan"
        rc = run(["plan", "--profiles", workload, "--ratio", 0.9,
                  "--device", device_path, "--major-threshold", 0,
                  "--out", out])
        assert rc == EXIT_OK
        assert load_plan(out).feasible

    def test_device_and_preset_conflict(self, workload, tmp_path):
        rc = run(["plan", "--profiles", workload, "--ratio", 0.9,
                  "--device", tmp_path / "d.json", "--preset", "testbed1",
                  "--out", tmp_path / "p.plan"])
        assert rc == EXIT_USAGE


class TestMigrate:
    def test_migration_artifact(self, workload, tmp_path):
        plan_path = tmp_path / "p.plan"
        run(["plan", "--profiles", workload, "--ratio", 1.0,
             "--preset", "testbed1", "--dram-capacity-gib", 0.05,
             "--nvm-capacity-gib", 1, "--major-threshold", 0,
             "--out", plan_path])
        out = tmp_path / "m.txt"
        rc = run(["migrate", "--profiles", workload, "--current", plan_path,
                  "--time", 4, "--new-ratio", 0.9, "--preset", "testbed1",
                  "--dram-capacity-gib", 0.05, "--nvm-capacity-gib", 1,
                  "--out", out])
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)
        text = out.read_text()
        assert text.startswith("hmms-migration-v1\n")
        assert "id,from,to,migrate,migce_nJ,migct_ns" in text

    def test_strict_impossible_budget_exits_two(self, workload, tmp_path):
        plan_path = tmp_path / "p.plan"
        run(["plan", "--profiles", workload, "--ratio", 1.0,
             "--dram-capacity-gib", 0.05, "--nvm-capacity-gib", 1,
             "--major-threshold", 0, "--out", plan_path])
        rc = run(["migrate", "--profiles", workload, "--current", plan_path,
                  "--time", 4, "--new-ratio", 1e-9,
                  "--dram-capacity-gib", 0.05, "--nvm-capacity-gib", 1,
                  "--out", tmp_path / "m.txt"])
        assert rc == EXIT_INFEASIBLE


class TestEvaluateAndCompare:
    def test_evaluate_json(self, workload, tmp_path):
        plan_path = tmp_path / "p.plan"
        run(["plan", "--profiles", workload, "--ratio", 0.9,
             "--dram-capacity-gib", 0.05, "--nvm-capacity-gib", 1,
             "--major-threshold", 0, "--out", plan_path])
        out = tmp_path / "report.json"
        rc = run(["evaluate", "--profiles", workload, "--plan", plan_path,
                  "--dram-capacity-gib", 0.05, "--nvm-capacity-gib", 1,
                  "--format", "json", "--out", out])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["budget_ok"] is True
        assert "per_object_energy_nj" in report

    def test_compare_csv_columns(self, workload, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = run(["compare", "--profiles", workload, "--all-dram",
                  "--all-nvm", "--mpki-thresholds", "0.01,0.025,0.05",
                  "--major-threshold", 0, "--dram-capacity-gib", 1,
                  "--nvm-capacity-gib", 4, "--out", out])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "plan,energy_nJ,ratio,latency_ns,capacity_ok"
        assert len(lines) == 1 + 2 + 3

    @pytest.mark.parametrize("name", ["x,y", "x\ny"])
    def test_a_plan_name_with_a_separator_writes_no_csv(
            self, workload, tmp_path, capsys, name):
        # The json table holds such a name; a csv row cannot.
        plan, out = tmp_path / "a.plan", tmp_path / "cmp"
        assert run(["plan", "--profiles", workload, "--ratio", 1.0,
                    "--out", plan]) == EXIT_OK
        args = ["compare", "--profiles", workload, "--plan", f"{name}={plan}",
                "--all-dram", "--out", out]
        assert run(args) == EXIT_USAGE
        assert _one_error_line(capsys) == ("memplan: error: csv cell "
                                           "holds a comma or a line break: "
                                           f"{name!r}")
        assert not out.exists()
        assert run([*args, "--format", "json"]) == EXIT_OK
        assert json.loads(out.read_text())[0]["plan"] == name

    def test_compare_json_is_the_library_comparison(self, tmp_path):
        profiles, out = tmp_path / "w12.prof", tmp_path / "cmp.json"
        assert run(["generate", "--count", 12, "--seed", 5, "--with-mpki",
                    "--out", profiles]) == EXIT_OK
        assert run(["compare", "--profiles", profiles, "--all-dram",
                    "--mpki-thresholds", 0.05, "--major-threshold", 0,
                    "--format", "json", "--out", out]) == EXIT_OK
        ps, dev = load_profiles(profiles), DeviceSpec()
        rows = compare(ps, dev, [
            ("all-dram", place_all_dram(ps, dev, 0.0)),
            ("mpki_0.05", place_mpki_threshold(ps, dev, 0.05, 0.0))])
        assert out.read_text() == comparison_json(rows)
        assert [row["plan"] for row in json.loads(out.read_text())] \
            == ["all-dram", "mpki_0.05"]

    def test_compare_without_sources_is_usage_error(self, workload):
        assert run(["compare", "--profiles", workload]) == EXIT_USAGE

    def test_random_seeds_must_be_integers(self, workload, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--profiles", workload, "--random-seeds",
                    "3,4", "--out", out]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["random_3", "random_4"]
        for bad in ("1.7", "2,x", "1e3"):
            assert run(["compare", "--profiles", workload, "--random-seeds",
                        bad, "--out", out]) == EXIT_USAGE
            assert "--random-seeds: expected comma-separated integers" \
                in capsys.readouterr().err


class TestSweep:
    def test_grid_shape_and_determinism(self, workload, tmp_path):
        args = ["sweep", "--profiles", workload,
                "--ratios", "1.0,0.9,0.85,0.8,0.75",
                "--capacities", "0.05:1,0.02:1,0.01:1",
                "--major-threshold", 0]
        first = tmp_path / "s1.csv"
        second = tmp_path / "s2.csv"
        assert run(args + ["--out", first]) == EXIT_OK
        assert run(args + ["--out", second]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert len(lines) == 1 + 3 * 5
        assert lines[0].startswith("dram_gib,nvm_gib,ratio,status")

    def test_json_format(self, workload, tmp_path):
        out = tmp_path / "s.json"
        rc = run(["sweep", "--profiles", workload, "--ratios", "1.0,0.8",
                  "--capacities", "0.05:1", "--major-threshold", 0,
                  "--format", "json", "--out", out])
        assert rc == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert {"dram_gib", "ratio", "status"} <= set(rows[0])

    def test_bad_capacities_usage_error(self, workload, tmp_path):
        rc = run(["sweep", "--profiles", workload, "--ratios", "1.0",
                  "--capacities", "oops", "--out", tmp_path / "s.csv"])
        assert rc == EXIT_USAGE


class TestScale:
    def test_matches_library_extrapolation(self, tmp_path):
        sets = []
        base = generate_synthetic(
            GeneratorSpec(count=5, label="w1", workload_size=1.0), 3)
        sets.append(base)
        # Grow every pattern by a fixed amount per workload unit.
        from memplan.profiles import ScalingVector
        grads = {o.id: {"size": float(MB), "accessed_volume": float(MB),
                        "llc_misses": 64.0, "dirty_blocks": 4.0,
                        "lifetime": 0.5} for o in base}
        vector = ScalingVector(grads)
        sets.append(extrapolate(base, vector, 2.0))
        sets.append(extrapolate(base, vector, 3.0))
        family = tmp_path / "family"
        write_profile_dir(sets, family)

        out = tmp_path / "scaled.prof"
        rc = run(["scale", "--profiles-dir", family, "--target", 5.0,
                  "--out", out])
        assert rc == EXIT_OK
        got = load_profiles(out, workload_size=5.0)
        want = extrapolate(sets[-1], derive_scaling_vector(sets), 5.0)
        assert got.objects == want.objects

    def test_missing_manifest_usage_error(self, tmp_path):
        rc = run(["scale", "--profiles-dir", tmp_path, "--target", 2.0,
                  "--out", tmp_path / "x.prof"])
        assert rc == EXIT_USAGE


def test_compare_reports_an_impossible_random_baseline_as_a_nan_row(
        workload, tmp_path):
    out = tmp_path / "c.csv"
    rc = run(["compare", "--profiles", workload, "--all-dram",
              "--random-seeds", "1,2", "--major-threshold", 0,
              "--dram-capacity-gib", 0.001, "--nvm-capacity-gib", 0.001,
              "--out", out])
    assert rc == EXIT_OK
    rows = out.read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] \
        == ["all-dram", "random_1", "random_2"]
    assert rows[2:] == ["random_1,nan,nan,nan,0", "random_2,nan,nan,nan,0"]


def test_compare_still_fails_when_pinned_objects_overflow_dram(
        workload, tmp_path, capsys):
    rc = run(["compare", "--profiles", workload, "--random-seeds", "1",
              "--reserved-dram", 1e12, "--out", tmp_path / "c.csv"])
    assert rc == EXIT_USAGE
    assert "exceed DRAM capacity" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_sweep_csv_bytes_with_infeasible_rows(tmp_path):
    # Recorded from the sweep writer before it shared the report table
    # writer: flags as 0/1, floats by repr, nan for an infeasible plan.
    profiles = tmp_path / "w.prof"
    profiles.write_text(
        "hmms-profile-v1\n"
        "id,size_bytes,alloc_s,dealloc_s,accessed_bytes,llc_misses,"
        "dirty_blocks,llc_mpki\n"
        f"a,{2 * MB},0,1,{4 * MB},100,10,\nb,{MB},0.5,2,{2 * MB},50,5,0.25\n")
    out = tmp_path / "s.csv"
    rc = run(["sweep", "--profiles", profiles, "--ratios", "1.0,0.5",
              "--capacities", "0.001:0.01,0:0.001", "--preset", "testbed1",
              "--major-threshold", 0, "--out", out])
    assert rc == EXIT_OK
    assert out.read_text() == (
        "dram_gib,nvm_gib,ratio,status,objective_ns,planned_energy_nj,"
        "energy_budget_nj,evaluated_energy_nj,evaluated_ratio,capacity_ok\n"
        "0.001,0.01,1.0,optimal,74000.0,32972317.439999998,"
        "46872002.559999995,32972317.439999998,0.7034544213849778,1\n"
        "0.001,0.01,0.5,optimal,96000.0,23155274.88,23436001.279999997,"
        "23155274.88,0.4940107871508019,1\n"
        "0.0,0.001,1.0,infeasible,nan,nan,46872002.559999995,nan,nan,0\n"
        "0.0,0.001,0.5,infeasible,nan,nan,23436001.279999997,nan,nan,0\n")


def test_generate_rejects_lifetimes_too_short_to_move_dealloc(tmp_path,
                                                              capsys):
    out = tmp_path / "g.prof"
    rc = run(["generate", "--count", 10, "--seed", 4, "--lifetime-range",
              "1e-20:1e-19", "--size-range", "1:2", "--out", out])
    assert rc == EXIT_USAGE
    assert "lifetime_range" in capsys.readouterr().err
    assert not out.exists()


def test_generate_names_the_ranges_whose_product_overflows(tmp_path, capsys):
    out = tmp_path / "g.prof"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(["generate", "--count", 10, "--seed", 4, "--size-range",
                  "1e308:1.7e308", "--out", out])
    assert rc == EXIT_USAGE
    assert "size_range and access_factor_range too large" \
        in capsys.readouterr().err
    assert not out.exists()


def test_scale_rejects_a_non_positive_target(tmp_path, capsys):
    base = generate_synthetic(
        GeneratorSpec(count=3, label="w1", workload_size=1.0), 3)
    write_profile_dir([base, ProfileSet(base.objects, "w2", 2.0)],
                      tmp_path / "family")
    for target in (-30, 0):
        out = tmp_path / "scaled.prof"
        rc = run(["scale", "--profiles-dir", tmp_path / "family",
                  "--target", target, "--out", out])
        assert rc == EXIT_USAGE
        assert "target workload size must be positive" \
            in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("spec, field", [
    ('{"dram_capacity": "big"}', "dram_capacity"),
    ('{"nvm_capacity": null}', "nvm_capacity"),
    ('{"dram_capacity": true}', "dram_capacity"),
    ('{"refresh_period": Infinity}', "refresh_period"),
    ('{"cache_block_size": Infinity}', "cache_block_size"),
], ids=["string", "null", "bool", "infinite-refresh", "infinite-block"])
def test_a_bad_device_spec_value_is_an_input_error(workload, tmp_path, capsys,
                                                    spec, field):
    device = tmp_path / "dev.json"
    device.write_text(spec)
    out = tmp_path / "p.plan"
    rc = run(["plan", "--profiles", workload, "--ratio", 0.8,
              "--device", device, "--out", out])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"memplan: error: {field} must be")
    assert not out.exists()


@pytest.mark.parametrize("manifest, where", [
    ([], ""),
    ({"workloads": {"w.prof": 1.0}}, ""),
    ({"workloads": [{"workload_size": 1.0}]}, "workloads[0]: file"),
    ({"workloads": [{"file": "w.prof", "workload_size": 1.0},
                    {"file": "w.prof", "workload_size": "2"}]},
     "workloads[1]: workload_size"),
], ids=["list", "workloads-dict", "no-file", "string-size"])
def test_a_malformed_manifest_is_an_input_error(workload, tmp_path, capsys,
                                                manifest, where):
    family = tmp_path / "family"
    family.mkdir()
    (family / "w.prof").write_bytes(workload.read_bytes())
    if isinstance(manifest, dict):
        manifest = {"format": "hmms-profile-manifest-v1", **manifest}
    (family / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "scaled.prof"
    rc = run(["scale", "--profiles-dir", family, "--target", 3.0,
              "--out", out])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"memplan: error: {family / 'manifest.json'}: {where}")
    assert not out.exists()


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    return err[0]


@pytest.mark.parametrize("size", ["1" + "0" * 400, "NaN", "-Infinity"],
                         ids=["too-large-int", "nan", "infinite"])
def test_a_non_finite_manifest_workload_size_is_an_input_error(
        workload, tmp_path, capsys, size):
    family = tmp_path / "family"
    family.mkdir()
    (family / "w.prof").write_bytes(workload.read_bytes())
    (family / "manifest.json").write_text(
        '{"format": "hmms-profile-manifest-v1", "workloads": '
        '[{"file": "w.prof", "workload_size": %s}]}' % size)
    out = tmp_path / "scaled.prof"
    rc = run(["scale", "--profiles-dir", family, "--target", 3.0,
              "--out", out])
    assert rc == EXIT_USAGE
    assert _one_error_line(capsys) == (
        f"memplan: error: {family / 'manifest.json'}: workloads[0]: "
        "workload_size must be finite")
    assert not out.exists()


def test_a_bad_record_in_a_family_file_names_the_file(workload, tmp_path,
                                                      capsys):
    family = tmp_path / "family"
    family.mkdir()
    (family / "good.prof").write_bytes(workload.read_bytes())
    (family / "bad.prof").write_text(
        "hmms-profile-v1\n"
        "id,size_bytes,alloc_s,dealloc_s,accessed_bytes,llc_misses,"
        "dirty_blocks\n"
        "a,100,0,1,x,1,1\n")
    (family / "manifest.json").write_text(json.dumps(
        {"format": "hmms-profile-manifest-v1",
         "workloads": [{"file": "good.prof", "workload_size": 1.0},
                       {"file": "bad.prof", "workload_size": 2.0}]}))
    out = tmp_path / "scaled.prof"
    rc = run(["scale", "--profiles-dir", family, "--target", 3.0,
              "--out", out])
    assert rc == EXIT_USAGE
    assert _one_error_line(capsys) == (
        f"memplan: error: {family / 'bad.prof'}: line 3: field "
        "'accessed_bytes' is not a number: 'x'")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["plan", "--ratio", 0.8],
    ["compare", "--all-dram", "--all-nvm"],
    ["sweep", "--ratios", "1.0,0.8", "--capacities", "8:16"],
], ids=["plan", "compare", "sweep"])
def test_a_nan_major_threshold_is_an_input_error(workload, tmp_path, capsys,
                                                 command):
    out = tmp_path / "out"
    rc = run([*command, "--profiles", workload, "--major-threshold", "nan",
              "--out", out])
    assert rc == EXIT_USAGE
    assert _one_error_line(capsys) == \
        "memplan: error: major-object threshold must be >= 0"
    assert not out.exists()


def test_a_nan_mpki_threshold_is_an_input_error(workload, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run(["compare", "--profiles", workload, "--mpki-thresholds",
              "0.02,nan", "--out", out])
    assert rc == EXIT_USAGE
    assert _one_error_line(capsys) == \
        "memplan: error: mpki_threshold must be a number, got nan"
    assert not out.exists()


def test_an_infinite_major_threshold_pins_every_object(workload, tmp_path):
    out = tmp_path / "p.plan"
    rc = run(["plan", "--profiles", workload, "--ratio", 0.8,
              "--major-threshold", "inf", "--out", out])
    assert rc == EXIT_OK
    plan = load_plan(out)
    assert plan.major_ids == ()
    assert set(plan.placements.values()) == {"dram"}


@pytest.mark.parametrize("command, reserve", [
    (["compare", "--all-dram", "--all-nvm"], "-1e12"),
    (["compare", "--mpki-thresholds", "0.1", "--random-seeds", "1"], "nan"),
    (["plan", "--ratio", 0.8], "nan"),
    (["plan", "--ratio", 0.8], "-1"),
    (["plan", "--ratio", 0.8], "inf"),
    (["compare", "--all-dram"], "inf"),
    (["sweep", "--ratios", "0.8", "--capacities", "8:16"], "inf"),
], ids=["compare-negative", "compare-nan", "plan-nan", "plan-negative",
        "plan-inf", "compare-inf", "sweep-inf"])
def test_a_negative_or_nan_dram_reserve_is_an_input_error(
        workload, tmp_path, capsys, command, reserve):
    # An infinite reserve, which no plan file can hold, is refused where
    # it enters too: a sweep writes no table of infeasible cells.
    out = tmp_path / "out"
    rc = run([*command, "--profiles", workload, f"--reserved-dram={reserve}",
              "--out", out])
    assert rc == EXIT_USAGE
    assert _one_error_line(capsys) == ("memplan: error: reserved_dram_bytes "
                                       "must be finite and >= 0, got "
                                       f"{float(reserve)!r}")
    assert not out.exists()


# A valid command line per subcommand; parsing it runs no handler here.
_VALID_ARGS = {
    "generate": ["--count", "1", "--seed", "1", "--out", "x"],
    "scale": ["--profiles-dir", "d", "--target", "2", "--out", "x"],
    "plan": ["--profiles", "p", "--ratio", "0.8", "--out", "x"],
    "migrate": ["--profiles", "p", "--current", "c", "--time", "1",
                "--new-ratio", "0.8", "--out", "x"],
    "evaluate": ["--profiles", "p", "--plan", "x"],
    "compare": ["--profiles", "p"],
    "sweep": ["--profiles", "p", "--ratios", "1", "--capacities", "8:16",
              "--out", "x"],
}


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as err:
        parse(argv)
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(_VALID_ARGS))
def test_main_parses_a_subcommand_as_the_full_tree_does(command, capsys):
    full = build_parser().parse_args
    for argv in ([command, "-h"], [command],
                 [command, *_VALID_ARGS[command], "--frob"],
                 [command, "--format", "xml", *_VALID_ARGS[command]]):
        assert _exit(main, argv, capsys) == _exit(full, argv, capsys)
    code, out, _ = _exit(main, [command, "-h"], capsys)
    assert code == EXIT_OK and out.startswith(f"usage: memplan {command} ")
    code, _, err = _exit(main, [command], capsys)
    assert code == EXIT_USAGE and "arguments are required" in err
    code, _, err = _exit(main, [command, *_VALID_ARGS[command], "--frob"],
                         capsys)
    assert code == EXIT_USAGE
    assert err.endswith("error: unrecognized arguments: --frob\n")


def _subcommands(parser) -> list[str]:
    (action,) = (a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def test_build_parser_builds_every_subcommand(capsys):
    every = ["generate", "scale", "plan", "migrate", "evaluate", "compare",
             "sweep"]
    assert _subcommands(build_parser()) == every
    code, out, _ = _exit(main, ["--help"], capsys)
    assert code == EXIT_OK
    assert "{" + ",".join(every) + "}" in out
    assert all(f"\n    {name} " in out for name in every)
    code, _, err = _exit(main, ["frob"], capsys)
    assert code == EXIT_USAGE
    assert "invalid choice" in err and all(name in err for name in every)


@pytest.mark.parametrize("old, new, message", [
    ("reserved_dram_bytes=0.0", "reserved_dram_bytes=nan",
     "reserved_dram_bytes must be finite and >= 0, got nan"),
    ("reserved_dram_bytes=0.0", "reserved_dram_bytes=-1e15",
     "reserved_dram_bytes must be finite and >= 0, got -1000000000000000.0"),
    ("status=optimal\n", "", "missing summary key 'status'"),
    ("ratio=1.0", "ratio=abc", "ratio is not a number: 'abc'"),
    ("ratio=1.0", "ratio=inf", "ratio must be finite, got inf"),
    ("major_threshold_bytes=0.0", "major_threshold_bytes=nan",
     "major_threshold_bytes must be >= 0, got nan"),
    ("obj0000,nvm,1", "obj0000,nvm",
     "line 12: expected id,device,major, got 'obj0000,nvm'"),
    ("status=optimal", "status=Optimal",
     "status is not optimal or infeasible: 'Optimal'"),
    ("minor_energy_in_budget=0", "minor_energy_in_budget=true",
     "minor_energy_in_budget is not 0 or 1: 'true'"),
    # The written budget moves to a key the reader ignores.
    ("\nenergy_budget_nj=", "\nenergy_budget_nj=nan\nwas=",
     "energy_budget_nj must be finite on an optimal plan, got nan"),
    ("\nenergy_budget_nj=", "\nenergy_budget_nj=-inf\nwas=",
     "energy_budget_nj must be finite on an optimal plan, got -inf"),
], ids=["nan-reserve", "negative-reserve", "missing-status",
        "non-numeric-ratio", "infinite-ratio", "nan-threshold",
        "two-field-row", "unknown-status", "minor-flag-not-0-or-1",
        "nan-budget", "negative-infinite-budget"])
def test_a_bad_plan_file_names_the_file_and_the_field(
        workload, tmp_path, capsys, old, new, message):
    plan_path = tmp_path / "p.plan"
    device = ["--preset", "testbed1", "--dram-capacity-gib", 0.05,
              "--nvm-capacity-gib", 1]
    assert run(["plan", "--profiles", workload, "--ratio", 1.0, *device,
                "--major-threshold", 0, "--out", plan_path]) == EXIT_OK
    text = plan_path.read_text()
    assert old in text
    plan_path.write_text(text.replace(old, new, 1))
    capsys.readouterr()
    out = tmp_path / "m.txt"
    rc = run(["migrate", "--profiles", workload, "--current", plan_path,
              "--time", 4, "--new-ratio", 0.9, *device, "--out", out])
    assert rc == EXIT_USAGE
    assert _one_error_line(capsys) == \
        f"memplan: error: {plan_path}: {message}"
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["generate", "--size-range", "a:b"], "--size-range: expected LO:HI, "
     "two numbers"),
    (["generate", "--size-range", "1:2:3"], "--size-range: expected LO:HI, "
     "two numbers"),
    (["generate", "--lifetime-range", "0.5:x"], "--lifetime-range: "
     "expected LO:HI, two numbers"),
    (["sweep", "--ratios", "0.8", "--capacities", "8:16,1:x"],
     "--capacities: expected LO:HI, two numbers"),
    (["compare", "--random-seeds", "3,-1"], "--random-seeds must all be >= 0"),
    (["generate", "--seed", -1], "--seed must be >= 0"),
], ids=["size-range", "three-parts", "lifetime-range", "capacities",
        "random-seeds", "seed"])
def test_a_bad_range_or_seed_names_its_option(workload, tmp_path, capsys,
                                              command, message):
    source = ["--count", 5, "--seed", 1] if command[0] == "generate" \
        else ["--profiles", workload]
    out = tmp_path / "out"
    # The last of a repeated option wins, so the case's options go last.
    assert run([command[0], *source, *command[1:], "--out", out]) \
        == EXIT_USAGE
    assert _one_error_line(capsys) == f"memplan: error: {message}"
    assert not out.exists()


def test_a_ratio_that_overflows_the_energy_budget_is_an_input_error(
        workload, tmp_path, capsys):
    current = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 0.8,
                "--preset", "testbed1", "--out", current]) == EXIT_OK
    out = tmp_path / "out"
    for command in (["plan", "--ratio", "1e308"],
                    ["migrate", "--current", current, "--time", 4,
                     "--new-ratio", "1e308"],
                    ["sweep", "--ratios", "0.8,1e308", "--capacities",
                     "8:16"]):
        capsys.readouterr()
        rc = run([*command, "--profiles", workload, "--preset", "testbed1",
                  "--out", out])
        assert rc == EXIT_USAGE
        assert _one_error_line(capsys) == \
            "memplan: error: the ratio makes the energy budget overflow"
        assert not out.exists()


@pytest.mark.parametrize("command, option", [
    (["generate", "--count", 5, "--seed", 1], ["--label", "x"]),
    (["generate", "--count", 5, "--seed", 1], ["--workload-size", 2]),
    (["compare", "--all-dram"], ["--include-minor-energy"]),
    (["migrate", "--current", "c.plan", "--time", 4, "--new-ratio", 0.9],
     ["--no-future"]),
], ids=["label", "workload-size", "include-minor-energy", "no-future"])
def test_options_that_changed_nothing_are_unrecognized(workload, tmp_path,
                                                       capsys, command,
                                                       option):
    source = [] if command[0] == "generate" else ["--profiles", workload]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run([*command, *source, *option, "--out", out])
    assert err.value.code == EXIT_USAGE
    assert _one_error_line(capsys) == \
        "memplan: error: unrecognized arguments: " + " ".join(map(str, option))
    assert not out.exists()


def _plan_and_migrate(workload, tmp_path, *extra):
    device = ["--preset", "testbed1", "--dram-capacity-gib", 0.05,
              "--nvm-capacity-gib", 1]
    current = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 1.0, *device,
                "--major-threshold", 0, "--out", current]) == EXIT_OK
    out = tmp_path / "m.mig"
    rc = run(["migrate", "--profiles", workload, "--current", current,
              "--time", 4, "--new-ratio", 0.9, *device, "--out", out, *extra])
    return rc, current, out.read_bytes()


def test_migrate_plans_future_objects_only_for_future_out(
        workload, tmp_path, monkeypatch):
    plan_static = memplan.planner.plan_static
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plan_static(*args, **kwargs)

    monkeypatch.setattr(memplan.planner, "plan_static", counted)
    rc, current, table = _plan_and_migrate(workload, tmp_path)
    assert rc == EXIT_OK and calls == []

    future = tmp_path / "f.plan"
    rc, _, again = _plan_and_migrate(workload, tmp_path, "--future-out",
                                     future)
    assert rc == EXIT_OK and len(calls) == 1 and again == table
    dev = make_testbed1(dram_capacity=0.05 * GIB, nvm_capacity=1 * GIB)
    want = plan_migration(load_profiles(workload), dev, load_plan(current),
                          MigrationRequest(time=4.0, new_ratio=0.9))
    # obj0001, obj0003 and obj0009 are allocated after t=4.
    assert want.future_ids == ("obj0001", "obj0003", "obj0009")
    text = io.StringIO()
    write_plan(want.future_plan, text)
    assert future.read_text() == text.getvalue()


def test_a_best_effort_request_plans_no_unwritten_future_objects(
        workload, tmp_path):
    # Planning the objects allocated after t at this ratio overflows the
    # budget; without --future-out that plan is not made.
    current = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 0.8,
                "--preset", "testbed1", "--out", current]) == EXIT_OK
    out = tmp_path / "m.mig"
    assert run(["migrate", "--profiles", workload, "--current", current,
                "--time", 4, "--new-ratio", "1e308", "--best-effort",
                "--preset", "testbed1", "--out", out]) == EXIT_OK
    assert out.read_text().startswith("hmms-migration-v1\nstatus=optimal\n")


def test_compare_rejects_a_plan_without_a_name(workload, tmp_path, capsys):
    plan_path = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 0.9,
                "--out", plan_path]) == EXIT_OK
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--profiles", workload, "--plan", f"={plan_path}",
                "--out", out]) == EXIT_USAGE
    assert _one_error_line(capsys) == \
        f"memplan: error: --plan expects NAME=PATH, got '={plan_path}'"
    assert not out.exists()


@pytest.mark.parametrize("matched", [False, True], ids=["plain", "matched"])
def test_compare_scores_named_plan_files(workload, tmp_path, matched):
    device = ["--dram-capacity-gib", 0.05, "--nvm-capacity-gib", 1]
    plan_path = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 0.9, *device,
                "--major-threshold", 0, "--out", plan_path]) == EXIT_OK
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--profiles", workload, *device,
                "--plan", f"opt={plan_path}", "--all-nvm",
                "--major-threshold", 0, "--out", out]
               + ["--matched-optimal"] * matched) == EXIT_OK
    dev = DeviceSpec(dram_capacity=0.05 * GIB, nvm_capacity=1 * GIB)
    report = evaluate(load_profiles(workload), dev, load_plan(plan_path))
    rows = out.read_text().splitlines()
    assert rows[1] == (f"opt,{report.total_energy_nj!r},"
                       f"{report.energy_ratio_vs_all_dram!r},"
                       f"{report.latency_objective_ns!r},1")
    names = [row.split(",")[0] for row in rows[1:]]
    if not matched:
        assert names == ["opt", "all-nvm"]
        return
    assert names == ["opt", "opt:optimal", "all-nvm", "all-nvm:optimal"]
    # Optimal at the plan's own ratio: no slower than the plan, in budget.
    _, _, ratio, latency, ok = rows[2].split(",")
    assert ok == "1"
    assert float(latency) <= report.latency_objective_ns
    assert float(ratio) <= report.energy_ratio_vs_all_dram * (1 + 1e-9)


def test_sweep_rows_when_minor_objects_alone_overflow_dram(workload,
                                                           tmp_path):
    # With an infinite threshold every object is pinned to DRAM, which
    # holds them all at 1 GiB and none at 0.0001 GiB.
    out = tmp_path / "s.csv"
    assert run(["sweep", "--profiles", workload, "--ratios", "1.0,0.8",
                "--capacities", "0.0001:1,1:1", "--major-threshold", "inf",
                "--out", out]) == EXIT_OK
    assert out.read_text().splitlines()[1:] == [
        "0.0001,1.0,1.0,infeasible,nan,nan,nan,nan,nan,0",
        "0.0001,1.0,0.8,infeasible,nan,nan,nan,nan,nan,0",
        "1.0,1.0,1.0,optimal,0.0,0.0,0.0,0.0,1.0,1",
        "1.0,1.0,0.8,optimal,0.0,0.0,0.0,0.0,1.0,1"]


class _ReadLog:
    """Parsed arguments that record which of them a handler reads."""

    def __init__(self, args: argparse.Namespace):
        self._values = vars(args)
        self.read = set()

    def __getattr__(self, name):
        try:
            value = self._values[name]
        except KeyError:
            raise AttributeError(name) from None
        self.read.add(name)
        return value


def test_every_subcommand_option_is_read_by_its_handler(workload, tmp_path):
    family = tmp_path / "family"
    write_profile_dir([generate_synthetic(
        GeneratorSpec(count=3, label=f"w{size:g}", workload_size=size), 3)
        for size in (1.0, 2.0)], family)
    current = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 1.0,
                "--out", current]) == EXIT_OK
    argv = {
        "generate": ["--count", 3, "--seed", 1],
        "scale": ["--profiles-dir", family, "--target", 3.0],
        "plan": ["--profiles", workload, "--ratio", 0.9],
        "migrate": ["--profiles", workload, "--current", current,
                    "--time", 4, "--new-ratio", 0.9],
        "evaluate": ["--profiles", workload, "--plan", current],
        "compare": ["--profiles", workload, "--all-dram"],
        "sweep": ["--profiles", workload, "--ratios", "1.0",
                  "--capacities", "8:16"],
    }
    for command, args in argv.items():
        parser = build_parser()
        (sub,) = (a.choices[command] for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
        options = {a.dest for a in sub._actions if a.dest != "help"}
        parsed = parser.parse_args(
            [str(a) for a in (command, *args, "--out", tmp_path / command)])
        log = _ReadLog(parsed)
        assert parsed.func(log) in (EXIT_OK, EXIT_INFEASIBLE)
        assert options - log.read == set(), command


def test_future_out_is_written_when_nothing_major_comes_after_t(workload,
                                                                tmp_path):
    device = ["--preset", "testbed1", "--dram-capacity-gib", 0.5,
              "--nvm-capacity-gib", 4]
    current = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 1.0, *device,
                "--major-threshold", 0, "--out", current]) == EXIT_OK
    future = tmp_path / "f.plan"
    assert run(["migrate", "--profiles", workload, "--current", current,
                "--time", 5, "--new-ratio", 0.9, *device,
                "--out", tmp_path / "m.txt", "--future-out", future]) \
        == EXIT_OK
    assert "\nfuture_ids=\n" in (tmp_path / "m.txt").read_text()
    plan = load_plan(future)
    assert (plan.status, plan.placements, plan.major_ids) \
        == ("optimal", {}, ())


def test_future_out_is_written_when_its_pinned_objects_overflow_dram(
        workload, tmp_path):
    # Every object is minor under the current plan's threshold; the 64 MB
    # live at t=4 leave too little of a 0.1 GiB DRAM for the 53 MB after.
    current = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 1.0,
                "--preset", "testbed1", "--major-threshold", 1e12,
                "--out", current]) == EXIT_OK
    future = tmp_path / "f.plan"
    assert run(["migrate", "--profiles", workload, "--current", current,
                "--time", 4, "--new-ratio", 0.9, "--preset", "testbed1",
                "--dram-capacity-gib", 0.1, "--out", tmp_path / "m.txt",
                "--future-out", future]) == EXIT_OK
    text = future.read_text()
    assert text.startswith("hmms-plan-v1\nstatus=infeasible\nratio=0.9\n")
    assert "\nbinding=capacity_dram\nid,device,major\n" in text
    assert text.endswith("\nid,device,major\n")


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("command", sorted(_VALID_ARGS))
def test_a_subcommand_wraps_help_and_errors_as_the_full_tree_does(
        command, columns, capsys, monkeypatch):
    # argparse wraps help and usage at the terminal width it reads from
    # COLUMNS each time it formats them.
    monkeypatch.setenv("COLUMNS", columns)
    full = build_parser().parse_args
    for argv in ([command, "-h"], [command],
                 [command, "--frob", *_VALID_ARGS[command]],
                 [command, *_VALID_ARGS[command], "--frob", "x", "--", "y"],
                 [command, "--prof", "p", "--ou", "x", "--frob"],
                 [command, "--p", "x"]):
        assert _exit(main, argv, capsys) == _exit(full, argv, capsys)


def test_a_subcommand_builds_its_parser_alone(workload, tmp_path,
                                              monkeypatch):
    # A command line the exact reader takes builds no parser at all, so no
    # other subcommand's parser either; one it declines (an abbreviation
    # here) builds the full tree, which reads it to the same plan.
    from memplan import cli
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    assert run(["plan", "--profiles", workload, "--ratio", 1.0,
                "--out", tmp_path / "p.plan"]) == EXIT_OK
    assert built == []
    assert run(["plan", "--prof", workload, "--ratio", 1.0,
                "--out", tmp_path / "q.plan"]) == EXIT_OK
    assert built == ["memplan", *(f"memplan {name}" for name in cli._COMMANDS)]
    assert (tmp_path / "q.plan").read_bytes() == \
        (tmp_path / "p.plan").read_bytes()


def test_a_subcommand_reads_the_terminal_width_once(workload, tmp_path,
                                                    monkeypatch):
    # argparse's HelpFormatter reads the terminal width each time one is
    # built; a command line the exact reader takes builds none, so it
    # reads the width not even once.
    import shutil
    queries = []
    query = shutil.get_terminal_size

    def counted(*args, **kwargs):
        queries.append(args)
        return query(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    assert run(["plan", "--profiles", workload, "--ratio", 1.0,
                "--out", tmp_path / "p.plan"]) == EXIT_OK
    assert queries == []


def _same_namespace(read, want) -> bool:
    # NaN-aware: a float option given "nan" reads as nan on both sides.
    return read.keys() == want.keys() and all(
        type(read[k]) is type(want[k])
        and (read[k] == want[k] or (read[k] != read[k] and want[k] != want[k]))
        for k in read)


def _full_tree_values(parse, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit:
            return None


def _mutants(argv: list[str], rng: random.Random):
    """Command lines near a well-formed one, one per kind of change the
    exact reader must decline or read as argparse does."""
    options = [i for i, t in enumerate(argv) if t.startswith("--")]
    valued = [i for i in options
              if i + 1 < len(argv) and not argv[i + 1].startswith("-")]
    if valued:
        i = rng.choice(valued)
        yield argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
        yield argv[:i + 1] + [rng.choice(["-1", "-x", "", "nan", "x"])] \
            + argv[i + 2:]
        yield argv[:i] + argv[i + 2:]  # drops a (maybe required) option
        yield argv + argv[i:i + 2]
    if options:
        i = rng.choice(options)
        yield argv[:i] + [argv[i][:rng.randrange(3, len(argv[i]))]] \
            + argv[i + 1:]
        yield argv + [argv[i]]
    for token in ("--", "-h"):
        i = rng.randrange(1, len(argv) + 1)
        yield argv[:i] + [token] + argv[i:]


def test_the_exact_reader_reads_as_the_full_tree_does(tmp_path):
    from memplan import cli
    workloads = _workloads()
    well_formed = [[command, *args] for command, args in _VALID_ARGS.items()]
    well_formed.append(["compare", "--plan", "a=x", "--profiles", "p",
                        "--plan", "b=y", "--all-nvm", "--format", "json"])
    for name, build in workloads.BUILDERS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        well_formed += [list(op.argv) for op in build(str(workdir), tiny=True)]
    parse = build_parser().parse_args
    # Every benchmark op goes through the reader, so the benchmark times it.
    for argv in well_formed:
        read = cli._read_exact(argv)
        assert read is not None, argv
        assert _same_namespace(vars(read), _full_tree_values(parse, argv))
    rng = random.Random(7)
    taken = declined = 0
    for argv in well_formed:
        for mutant in _mutants(argv, rng):
            read = cli._read_exact(mutant)
            if read is None:
                declined += 1
                continue
            taken += 1
            want = _full_tree_values(parse, mutant)
            assert want is not None, mutant
            assert _same_namespace(vars(read), want), mutant
    assert taken and declined


def test_a_preset_takes_both_capacity_overrides_in_one_device_spec(
        workload, tmp_path, monkeypatch):
    checked = []
    check = DeviceSpec.__post_init__
    monkeypatch.setattr(DeviceSpec, "__post_init__",
                        lambda self: checked.append(self) or check(self))
    assert run(["plan", "--profiles", workload, "--ratio", 1.0,
                "--preset", "testbed1", "--dram-capacity-gib", 0.5,
                "--nvm-capacity-gib", 2, "--out", tmp_path / "p.plan"]) \
        == EXIT_OK
    assert [(d.dram_capacity, d.nvm_capacity, d.nvm_write_latency)
            for d in checked] == [(0.5 * GIB, 2 * GIB, 1440.0)]


def test_a_jointly_infeasible_plan_exits_at_once(tmp_path):
    # Both capacities are 0.6 of the 32-object set: at ratio 0.6 the NVM and
    # energy rows conflict, though each alone can be met.
    profiles = tmp_path / "w.prof"
    assert run(["generate", "--count", 32, "--seed", 1,
                "--out", profiles]) == EXIT_OK
    share = 0.038172504678368566
    out = tmp_path / "p.plan"
    with time_cap(1.0, "plan"):
        rc = run(["plan", "--profiles", profiles, "--preset", "testbed1",
                  "--major-threshold", 0, "--ratio", 0.6,
                  "--dram-capacity-gib", share, "--nvm-capacity-gib", share,
                  "--out", out])
    assert rc == EXIT_INFEASIBLE
    assert "binding=capacity_nvm;energy_budget\n" in out.read_text()


def test_a_plan_whose_objects_outgrow_both_devices_exits_at_once(tmp_path):
    # 0.03 GiB of each device holds less than the 32 objects: the capacity
    # rows leave an empty range, which the solver answers at the root.
    profiles = tmp_path / "w.prof"
    assert run(["generate", "--count", 32, "--seed", 1,
                "--out", profiles]) == EXIT_OK
    out = tmp_path / "p.plan"
    with time_cap(1.0, "plan"):
        rc = run(["plan", "--profiles", profiles, "--preset", "testbed1",
                  "--major-threshold", 0, "--ratio", 2.0,
                  "--dram-capacity-gib", 0.03, "--nvm-capacity-gib", 0.03,
                  "--out", out])
    assert rc == EXIT_INFEASIBLE
    assert "binding=capacity_dram;capacity_nvm\n" in out.read_text()


@pytest.mark.parametrize("extra,binding", [
    ((), "capacity_nvm;energy_budget"),
    (("--transient-capacity",), "transient_nvm;energy_budget"),
], ids=["plain", "transient"])
def test_a_migration_file_names_the_pair_of_rows_that_fits_no_leaf(
        tmp_path, extra, binding):
    # Three 8 MB objects kept in DRAM at t=5 against a strict ratio of 0.8:
    # meeting the budget takes moving objects to a 16 MB NVM that cannot
    # hold enough of them, though each row alone can be met.
    from memplan.planner import DRAM, PlacementPlan
    from memplan.profiles import ObjectProfile, write_profiles
    ps = ProfileSet(tuple(
        ObjectProfile(f"m{i}", 8 * MB, 0.0, 10.0, 16 * MB, 5000.0, 200.0)
        for i in range(3)))
    profiles, current = tmp_path / "w.prof", tmp_path / "p.plan"
    write_profiles(ps, profiles)
    write_plan(PlacementPlan(dict.fromkeys(ps.ids(), DRAM), ps.ids(),
                             "optimal", 1.0, 0.0, 0.0, 0.0, 0.0), current)
    out = tmp_path / "m.mig"
    assert run(["migrate", "--profiles", profiles, "--current", current,
                "--time", 5, "--new-ratio", 0.8, "--preset", "testbed1",
                "--dram-capacity-gib", 64 / 1024,
                "--nvm-capacity-gib", 16 / 1024, "--out", out, *extra]) \
        == EXIT_INFEASIBLE
    text = out.read_text()
    assert text.startswith("hmms-migration-v1\nstatus=infeasible\n")
    assert f"\nbinding={binding}\n" in text


def test_no_command_builds_an_object_profile(tmp_path, monkeypatch):
    # Every command works on a set's columns: none of them builds the
    # ObjectProfile records that iteration and ProfileSet.get give.
    from memplan.profiles import PATTERNS, ObjectProfile, ScalingVector
    base = generate_synthetic(
        GeneratorSpec(count=6, label="w", workload_size=1.0), 5)
    vector = ScalingVector({object_id: dict.fromkeys(PATTERNS, 1.0)
                            for object_id in base.ids()})
    write_profile_dir([base, extrapolate(base, vector, 2.0)],
                      tmp_path / "family")
    built = []
    monkeypatch.setattr(ObjectProfile, "__post_init__",
                        lambda record: built.append(record.id))

    w, p = tmp_path / "w.prof", tmp_path / "p.plan"
    device = ["--preset", "testbed1", "--dram-capacity-gib", 0.05,
              "--nvm-capacity-gib", 1]
    migrate = ["migrate", "--profiles", w, "--current", p, "--time", 4,
               *device, "--out", tmp_path / "m.mig"]
    for args, rc in [
            (["generate", "--count", 10, "--seed", 7, "--skew-count", 3,
              "--skew-share", 0.9, "--with-mpki", "--out", w], EXIT_OK),
            (["scale", "--profiles-dir", tmp_path / "family", "--target", 3,
              "--out", tmp_path / "s.prof"], EXIT_OK),
            (["plan", "--profiles", w, "--ratio", 1e-9, *device,
              "--out", p], EXIT_INFEASIBLE),
            (["plan", "--profiles", w, "--ratio", 1.0, *device,
              "--major-threshold", 0, "--out", p], EXIT_OK),
            ([*migrate, "--new-ratio", 0.9], EXIT_OK),
            ([*migrate, "--new-ratio", 1e-9], EXIT_INFEASIBLE),
            ([*migrate, "--new-ratio", 1e-9, "--best-effort"], EXIT_OK),
            ([*migrate, "--new-ratio", 0.9, "--transient-capacity"],
             EXIT_OK),
            ([*migrate, "--new-ratio", 0.9, "--future-out",
              tmp_path / "f.plan"], EXIT_OK),
            (["evaluate", "--profiles", w, "--plan", p, *device,
              "--out", tmp_path / "e.csv"], EXIT_OK),
            (["evaluate", "--profiles", w, "--plan", p, *device,
              "--format", "json", "--out", tmp_path / "e.json"], EXIT_OK),
            (["compare", "--profiles", w, "--plan", f"optimal={p}",
              "--all-dram", "--all-nvm", "--mpki-thresholds", "0.5,2",
              "--random-seeds", "1,2", "--matched-optimal", *device,
              "--major-threshold", 0, "--out", tmp_path / "c.csv"], EXIT_OK),
            (["sweep", "--profiles", w, "--ratios", "1.0,0.8,1e-9",
              "--capacities", "0.05:1,0.01:1", "--preset", "testbed1",
              "--out", tmp_path / "s.csv"], EXIT_OK)]:
        assert (run(args), built) == (rc, []), args


def test_no_command_builds_a_plans_per_object_dict(tmp_path, monkeypatch):
    # Every plan a command makes or loads keeps its placement as columns:
    # none of them is asked for its per-object placements dict.
    from memplan.planner import PlacementPlan
    made = []
    init = PlacementPlan.__init__

    def record(plan, *args, **kwargs):
        init(plan, *args, **kwargs)
        made.append(plan)

    monkeypatch.setattr(PlacementPlan, "__init__", record)
    w, p = tmp_path / "w.prof", tmp_path / "p.plan"
    assert run(["generate", "--count", 10, "--seed", 7, "--skew-count", 3,
                "--skew-share", 0.9, "--with-mpki", "--out", w]) == EXIT_OK
    device = ["--preset", "testbed1", "--dram-capacity-gib", 0.05,
              "--nvm-capacity-gib", 1]
    for args, rc in [
            (["plan", "--profiles", w, "--ratio", 1e-9, *device,
              "--out", p], EXIT_INFEASIBLE),
            (["plan", "--profiles", w, "--ratio", 0.8, *device,
              "--out", p], EXIT_OK),
            (["compare", "--profiles", w, "--plan", f"optimal={p}",
              "--all-dram", "--all-nvm", "--mpki-thresholds", "0.5,2",
              "--random-seeds", "1,2", "--matched-optimal", *device,
              "--out", tmp_path / "c.csv"], EXIT_OK),
            (["sweep", "--profiles", w, "--ratios", "1.0,0.8,1e-9",
              "--capacities", "0.05:1,0.00001:1", "--preset", "testbed1",
              "--out", tmp_path / "s.csv"], EXIT_OK),
            (["evaluate", "--profiles", w, "--plan", p, *device,
              "--out", tmp_path / "e.csv"], EXIT_OK),
            (["migrate", "--profiles", w, "--current", p, "--time", 4,
              "--new-ratio", 0.9, *device, "--out", tmp_path / "m.mig",
              "--future-out", tmp_path / "f.plan"], EXIT_OK)]:
        made.clear()
        assert run(args) == rc, args
        assert made, args
        assert [plan for plan in made if "placements" in vars(plan)] == [], \
            args
