import argparse
import json
import warnings

import pytest

from memplan.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, build_parser,
                         main)
from memplan.energy import GIB
from memplan.energy import testbed1 as make_testbed1
from memplan.evaluator import evaluate
from memplan.planner import load_plan
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
], ids=["compare-negative", "compare-nan", "plan-nan", "plan-negative"])
def test_a_negative_or_nan_dram_reserve_is_an_input_error(
        workload, tmp_path, capsys, command, reserve):
    out = tmp_path / "out"
    rc = run([*command, "--profiles", workload, f"--reserved-dram={reserve}",
              "--out", out])
    assert rc == EXIT_USAGE
    assert _one_error_line(capsys) == \
        "memplan: error: reserved_dram_bytes must be >= 0"
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


def test_build_parser_builds_only_the_named_subcommand(capsys):
    every = ["generate", "scale", "plan", "migrate", "evaluate", "compare",
             "sweep"]
    assert _subcommands(build_parser()) == every
    assert _subcommands(build_parser("plan")) == ["plan"]
    code, out, _ = _exit(main, ["--help"], capsys)
    assert code == EXIT_OK
    assert "{" + ",".join(every) + "}" in out
    assert all(f"\n    {name} " in out for name in every)
    code, _, err = _exit(main, ["frob"], capsys)
    assert code == EXIT_USAGE
    assert "invalid choice" in err and all(name in err for name in every)
