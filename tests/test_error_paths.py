"""Input and limit errors of the library and the command line, each named by
its message or exit code."""

import io
import json
import math

import pytest

import memplan.baselines
from memplan import ilp
from memplan.baselines import NoFeasibleAssignment, place_random
from memplan.cli import EXIT_OK, EXIT_USAGE, main
from memplan.energy import DeviceSpec, load_device_spec, write_device_spec
from memplan.energy import testbed1 as make_testbed1
from memplan.evaluator import evaluate
from memplan.migration import (MigrationRequest, build_migration_program,
                               plan_migration, price_live)
from memplan.planner import (CONSTRAINT_CAPACITY_DRAM, CONSTRAINT_CAPACITY_NVM,
                             CONSTRAINT_ENERGY, CONSTRAINT_NAMES, DRAM,
                             TRANSIENT_NAMES, CapacityError, PlacementPlan,
                             load_plan)
from memplan.profiles import (DEFAULT_MAJOR_THRESHOLD, GeneratorError,
                              GeneratorSpec, ObjectProfile, ProfileError,
                              ProfileSet, ScalingError, ScalingVector,
                              extrapolate)

MB = 1 << 20

_PLAN_HEAD = ("hmms-plan-v1\nstatus=optimal\nratio=0.9\n"
              "major_threshold_bytes=0.0\nreserved_dram_bytes=0.0\n"
              "minor_energy_in_budget=0\nobjective_ns=1.0\n"
              "planned_energy_nj=1.0\nenergy_budget_nj=2.0\nbinding=\n")


def run(args):
    return main([str(a) for a in args])


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    return err[0]


@pytest.fixture
def workload(tmp_path):
    path = tmp_path / "w.prof"
    assert run(["generate", "--count", 10, "--seed", 7, "--skew-count", 3,
                "--skew-share", 0.9, "--with-mpki", "--out", path]) == EXIT_OK
    return path


# --- plan files -----------------------------------------------------------

def test_a_plan_listing_an_id_twice_is_rejected(tmp_path):
    path = tmp_path / "p.plan"
    path.write_text(_PLAN_HEAD + "id,device,major\na,dram,1\na,nvm,1\n")
    with pytest.raises(ValueError) as err:
        load_plan(path)
    assert str(err.value) == f"{path}: line 13: duplicate object id 'a'"


def test_a_plan_without_its_table_is_rejected():
    with pytest.raises(ValueError, match="^plan: plan file is missing the "
                       "id,device,major table$"):
        load_plan(io.StringIO(_PLAN_HEAD))


@pytest.mark.parametrize("row", ["a,dram,1", "a,hbm,1"])
@pytest.mark.parametrize("brk", ["\n", "\x0c", "\x1c", "\x85", "\u2028"],
                         ids=repr)
def test_a_blank_line_before_the_plan_table_means_no_table(brk, row):
    # The summary ends at the blank line, which is not the table's header.
    text = _PLAN_HEAD[:-1] + brk + "\nid,device,major\n" + row + "\n"
    with pytest.raises(ValueError) as err:
        load_plan(io.StringIO(text))
    assert str(err.value) == ("plan: plan file is missing the "
                              "id,device,major table")
    # CRLF is one line break, so no blank line.
    crlf = _PLAN_HEAD[:-1] + "\r\nid,device,major\n"
    assert load_plan(io.StringIO(crlf + "a,dram,1\n")).placements \
        == {"a": "dram"}
    with pytest.raises(ValueError) as err:
        load_plan(io.StringIO(crlf + "a,dram,1\nb,dram\n"))
    assert str(err.value) == ("plan: line 13: expected id,device,major, "
                              "got 'b,dram'")


def test_a_plan_naming_an_unknown_device_is_rejected():
    with pytest.raises(ValueError,
                       match="^plan: unknown device 'hbm' for 'a'$"):
        load_plan(io.StringIO(_PLAN_HEAD + "id,device,major\na,hbm,1\n"))


def test_a_plan_missing_a_summary_key_is_rejected():
    text = _PLAN_HEAD.replace("energy_budget_nj=2.0\n", "")
    with pytest.raises(ValueError, match="^plan: missing summary key "
                       "'energy_budget_nj'$"):
        load_plan(io.StringIO(text + "id,device,major\na,dram,1\n"))


def test_a_blank_line_inside_the_plan_table_is_skipped():
    plan = load_plan(io.StringIO(
        _PLAN_HEAD + "id,device,major\na,dram,1\n\n   \nb,nvm,0\n"))
    assert plan.placements == {"a": "dram", "b": "nvm"}
    assert plan.major_ids == ("a",)


# --- device specs ---------------------------------------------------------

def test_a_device_spec_that_is_not_an_object_is_rejected():
    with pytest.raises(ValueError, match="^device spec file must contain a "
                       "JSON object$"):
        load_device_spec(io.StringIO('[{"dram_latency": 1.0}]'))


def test_a_device_spec_format_other_than_v1_is_rejected():
    with pytest.raises(ValueError, match="^device spec: expected format "
                       "'hmms-device-v1'$"):
        load_device_spec(io.StringIO(
            '{"format": "bogus-v9", "dram_latency": 1.0}'))
    # No format, or the one write_device_spec writes, still loads.
    assert load_device_spec(io.StringIO('{"dram_latency": 1.0}')) \
        == DeviceSpec(dram_latency=1.0)
    buf = io.StringIO()
    write_device_spec(make_testbed1(), buf)
    assert load_device_spec(io.StringIO(buf.getvalue())) == make_testbed1()


def test_plan_with_a_device_spec_of_another_format_exits_one(
        workload, tmp_path, capsys):
    device = tmp_path / "dev.json"
    device.write_text('{"format": "bogus-v9", "dram_latency": 1.0}')
    out = tmp_path / "p.plan"
    assert run(["plan", "--profiles", workload, "--ratio", 0.8,
                "--device", device, "--out", out]) == EXIT_USAGE
    assert _one_error_line(capsys) == ("memplan: error: device spec: "
                                       "expected format 'hmms-device-v1'")
    assert not out.exists()


# --- command-line lists and manifests --------------------------------------

@pytest.mark.parametrize("command, message", [
    (["sweep", "--ratios", "0.9,0", "--capacities", "8:16"],
     "--ratios must all be > 0"),
    (["sweep", "--ratios", "0.9", "--capacities", ","],
     "--capacities: expected at least one DRAM:NVM pair"),
    (["compare", "--mpki-thresholds", ","],
     "--mpki-thresholds: expected at least one value"),
], ids=["zero-ratio", "no-capacity", "no-threshold"])
def test_an_empty_or_non_positive_list_names_its_option(
        workload, tmp_path, capsys, command, message):
    out = tmp_path / "out"
    assert run([*command, "--profiles", workload, "--out", out]) \
        == EXIT_USAGE
    assert _one_error_line(capsys) == f"memplan: error: {message}"
    assert not out.exists()


def test_scale_needs_a_workload_size_for_every_entry(workload, tmp_path,
                                                     capsys):
    family = tmp_path / "family"
    family.mkdir()
    (family / "w.prof").write_bytes(workload.read_bytes())
    (family / "manifest.json").write_text(json.dumps(
        {"format": "hmms-profile-manifest-v1",
         "workloads": [{"file": "w.prof", "workload_size": 1.0},
                       {"file": "w.prof"}]}))
    out = tmp_path / "scaled.prof"
    assert run(["scale", "--profiles-dir", family, "--target", 3.0,
                "--out", out]) == EXIT_USAGE
    assert _one_error_line(capsys) == \
        "memplan: error: every manifest entry needs a workload_size"
    assert not out.exists()


# --- profiles and scaling --------------------------------------------------

def _obj(object_id="a"):
    return ObjectProfile(object_id, 4096.0, 0.0, 1.0, 8192.0, 10.0, 2.0)


@pytest.mark.parametrize("size", [math.inf, math.nan])
def test_a_set_with_a_non_finite_workload_size_is_rejected(size):
    with pytest.raises(ProfileError, match="^workload_size must be finite$"):
        ProfileSet((_obj(),), "w", size)


def test_a_scaling_vector_with_an_unknown_pattern_is_rejected():
    with pytest.raises(ScalingError,
                       match="^unknown pattern 'bandwidth' for 'a'$"):
        ScalingVector({"a": {"size": 1.0, "bandwidth": 2.0}})


def test_extrapolate_needs_an_anchor_workload_size():
    vector = ScalingVector({"a": {"size": 1.0}})
    with pytest.raises(ScalingError,
                       match="^anchor profile set has no workload_size$"):
        extrapolate(ProfileSet((_obj(),)), vector, 2.0)


@pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan])
def test_extrapolate_needs_a_finite_target(target):
    vector = ScalingVector({"a": {"size": 1.0}})
    with pytest.raises(ScalingError,
                       match="^target workload size must be finite$"):
        extrapolate(ProfileSet((_obj(),), "w", 1.0), vector, target)


def test_a_skew_share_without_a_skew_count_is_rejected():
    with pytest.raises(GeneratorError,
                       match="^skew_share given without skew_count$"):
        GeneratorSpec(count=5, skew_share=0.5)


# --- solver and placements -------------------------------------------------

def test_constraint_violations_needs_one_value_per_variable():
    program = ilp.ZeroOneProgram((1.0, 2.0), [((1.0, 1.0), 1.0)])
    for assignment in ((1,), (0, 1, 0)):
        with pytest.raises(ValueError, match="^assignment length does not "
                           "match program$"):
            ilp.constraint_violations(program, assignment)


def test_place_random_gives_up_after_its_draws(monkeypatch):
    # Distinct powers of two: one assignment of the 2**16 fits exactly.
    ps = ProfileSet(tuple(
        ObjectProfile(f"o{i}", float(1 << i), 0.0, 1.0, 2.0 * MB, 1.0, 0.0)
        for i in range(16)))
    dram = float(sum(1 << i for i in range(0, 16, 2)))
    dev = DeviceSpec(dram_capacity=dram,
                     nvm_capacity=float((1 << 16) - 1) - dram)
    monkeypatch.setattr(memplan.baselines, "_MAX_DRAWS", 3)
    with pytest.raises(NoFeasibleAssignment, match="^no capacity-feasible "
                       "assignment found in 3 draws$"):
        place_random(ps, dev, seed=0, major_threshold=0)


def test_staying_put_against_a_strict_budget_it_breaks_is_infeasible():
    ps = ProfileSet(tuple(
        ObjectProfile(f"m{i}", 8 * MB, 0.0, 10.0, 16 * MB, 5000.0, 200.0)
        for i in range(3)))
    dev = make_testbed1(dram_capacity=64 * MB, nvm_capacity=64 * MB)
    current = PlacementPlan({o.id: DRAM for o in ps}, ps.ids(), "optimal",
                            1.0, 0.0, 0.0, 0.0, 0.0)
    # Moving an object to NVM at t=5 saves 30% of its energy.
    request = MigrationRequest(time=5.0, new_ratio=0.8, strict=True)
    plan = plan_migration(ps, dev, current, request, allow_migration=False)
    assert plan.status == ilp.STATUS_INFEASIBLE
    assert CONSTRAINT_ENERGY in plan.binding_constraints
    assert [(d.current_device, d.target_device, d.migrate)
            for d in plan.decisions] == [(DRAM, DRAM, False)] * 3
    assert plan.migrated_ids == ()
    # The same request with migration allowed is met by moving objects.
    assert plan_migration(ps, dev, current, request).feasible


@pytest.mark.parametrize("dram_mb,transient,broken", [
    (64, False, (CONSTRAINT_ENERGY,)),
    (16, False, (CONSTRAINT_CAPACITY_DRAM, CONSTRAINT_ENERGY)),
    (16, True, ("transient_dram", CONSTRAINT_ENERGY)),
    (64, True, (CONSTRAINT_ENERGY,)),
], ids=["64-broken0", "16-broken1", "16-transient", "64-transient"])
def test_staying_put_names_only_the_rows_it_breaks(dram_mb, transient, broken):
    # Three 8 MB objects kept in DRAM at t=5 against a strict ratio of 0.8:
    # staying put breaks the energy row, and the DRAM row too when 16 MB of
    # DRAM cannot hold the 24 MB that stay there; with transient capacity
    # that row is the transient DRAM row. No NVM row breaks.
    ps = ProfileSet(tuple(
        ObjectProfile(f"m{i}", 8 * MB, 0.0, 10.0, 16 * MB, 5000.0, 200.0)
        for i in range(3)))
    dev = make_testbed1(dram_capacity=dram_mb * MB, nvm_capacity=64 * MB)
    current = PlacementPlan({o.id: DRAM for o in ps}, ps.ids(), "optimal",
                            1.0, 0.0, 0.0, 0.0, 0.0)
    request = MigrationRequest(time=5.0, new_ratio=0.8, strict=True)
    plan = plan_migration(ps, dev, current, request,
                          transient_capacity=transient, allow_migration=False)
    assert plan.status == ilp.STATUS_INFEASIBLE
    assert plan.binding_constraints == broken
    # The names are the program's rows that the stay-put vector breaks.
    costs = price_live(ps, dev, [True] * 3, 5.0)
    program = build_migration_program(ps, dev, costs, plan.requirement_nj,
                                      dev.dram_capacity, transient)
    names = TRANSIENT_NAMES if transient else CONSTRAINT_NAMES
    assert tuple(names[i] for i in ilp.constraint_violations(
        program, (0, 0, 0))) == broken


@pytest.mark.parametrize("transient,names", [
    (False, (CONSTRAINT_CAPACITY_NVM, CONSTRAINT_ENERGY)),
    (True, ("transient_nvm", CONSTRAINT_ENERGY)),
], ids=["plain", "transient"])
def test_a_joint_conflict_names_the_pair_of_rows_that_fits_no_leaf(
        transient, names):
    # Three 8 MB objects kept in DRAM at t=5 against a strict ratio of 0.8:
    # meeting the budget takes moving objects to a 16 MB NVM that cannot
    # hold enough of them, though each row alone can be met. The NVM and
    # energy rows are the pair; the DRAM row plays no part.
    ps = ProfileSet(tuple(
        ObjectProfile(f"m{i}", 8 * MB, 0.0, 10.0, 16 * MB, 5000.0, 200.0)
        for i in range(3)))
    dev = make_testbed1(dram_capacity=64 * MB, nvm_capacity=16 * MB)
    current = PlacementPlan({o.id: DRAM for o in ps}, ps.ids(), "optimal",
                            1.0, 0.0, 0.0, 0.0, 0.0)
    request = MigrationRequest(time=5.0, new_ratio=0.8, strict=True)
    plan = plan_migration(ps, dev, current, request,
                          transient_capacity=transient)
    assert plan.status == ilp.STATUS_INFEASIBLE
    assert plan.binding_constraints == names
    assert plan.migrated_ids == ()


@pytest.mark.parametrize("dram_mb,missing", [(64, "d"), (64, "a"), (1, "d")])
def test_a_current_plan_must_place_every_live_and_dead_major_object(
        dram_mb, missing):
    # At t=5 the major "a" is live and "d" freed; the minor "m" is live, so
    # with 1 MB of DRAM the missing placement is named before the overflow.
    ps = ProfileSet((
        ObjectProfile("a", 8 * MB, 0.0, 10.0, 16 * MB, 5000.0, 200.0),
        ObjectProfile("d", 8 * MB, 0.0, 2.0, 16 * MB, 5000.0, 200.0),
        ObjectProfile("m", 4 * MB, 0.0, 10.0, 1024.0, 1.0, 0.0)))
    dev = make_testbed1(dram_capacity=dram_mb * MB, nvm_capacity=64 * MB)
    current = PlacementPlan(dict.fromkeys(ps.ids(), DRAM), ("a", "d"),
                            "optimal", 1.0, DEFAULT_MAJOR_THRESHOLD,
                            0.0, 0.0, 0.0)
    request = MigrationRequest(time=5.0, new_ratio=0.8)
    if dram_mb == 1:
        with pytest.raises(CapacityError, match="^live minor objects and "
                           "reservation exceed DRAM capacity$"):
            plan_migration(ps, dev, current, request)
    del current.placements[missing]
    with pytest.raises(ValueError) as err:
        plan_migration(ps, dev, current, request)
    assert type(err.value) is ValueError
    assert str(err.value) == f"current plan does not place object {missing!r}"


@pytest.mark.parametrize("device", ["hbm", "DRAM"])
def test_a_current_plan_must_put_a_live_major_object_on_a_concrete_device(
        device):
    # "b" is live at t=5 on a device the planner does not know: migrate
    # refuses the plan as evaluate does, rather than reading "b" as NVM.
    ps = ProfileSet(tuple(
        ObjectProfile(i, 8 * MB, 0.0, 10.0, 16 * MB, 5000.0, 200.0)
        for i in "ab"))
    dev = make_testbed1(dram_capacity=64 * MB, nvm_capacity=64 * MB)
    current = PlacementPlan({"a": DRAM, "b": device}, ps.ids(), "optimal",
                            1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError) as err:
        plan_migration(ps, dev, current, MigrationRequest(5.0, 0.9))
    assert type(err.value) is ValueError
    assert str(err.value) == "object 'b' has no concrete device"
    with pytest.raises(ValueError, match="^object 'b' has no concrete "
                       "device$"):
        evaluate(ps, dev, current)


@pytest.mark.parametrize("table, message", [
    # Rows of two and four fields hold six fields in all: still line 12.
    ("a,dram\n1,b,nvm,1\n", "line 12: expected id,device,major, got 'a,dram'"),
    ("a,dram,1\n\n,nvm,1,\nb,hbm,1\n",
     "line 14: expected id,device,major, got ',nvm,1,'"),
    ("a,dram,1\nb,hbm,1\na,nvm,1\n", "unknown device 'hbm' for 'b'"),
    ("a,dram,1\nb,nvm,0\n a,nvm,1\nc,hbm,1\n",
     "line 14: duplicate object id 'a'"),
])
def test_the_first_bad_row_of_a_plan_table_is_named(table, message):
    with pytest.raises(ValueError) as err:
        load_plan(io.StringIO(_PLAN_HEAD + "id,device,major\n" + table))
    assert str(err.value) == f"plan: {message}"


@pytest.mark.parametrize("table, placements, major_ids", [
    ("", {}, ()),
    ("\n  \n", {}, ()),
    ("  a,dram,1 \n\tb,unassigned,1\nc,nvm,0\nd,nvm,yes\n",
     {"a": "dram", "c": "nvm", "d": "nvm"}, ("a", "b")),
    # Rows split by another line break, padded with what str.strip strips,
    # or without a final LF: each is stripped, as every table is.
    *((table, {"a": "dram", "b": "nvm"}, ("a",)) for table in (
        *(brk.join(("a,dram,1", "b,nvm,0", ""))
          for brk in ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")),
        "\x1fa,dram,1\x1f\nb,nvm,0\x1f\n", "\x1ea,dram,1\x1e\nb,nvm,0\x1e\n",
        "a,dram,1\nb,nvm,0")),
])
def test_a_plan_table_reads_its_rows_in_order(table, placements, major_ids):
    plan = load_plan(io.StringIO(_PLAN_HEAD + "id,device,major\n" + table))
    assert list(plan.placements.items()) == list(placements.items())
    assert plan.major_ids == major_ids
