import io
import json
import math
from dataclasses import astuple, fields, replace
from functools import reduce
from operator import add

import numpy as np
import pytest

from memplan import cli, evaluator, ilp
from memplan.baselines import (place_all_dram, place_all_nvm,
                               place_mpki_threshold, place_random)
from memplan.energy import (GIB, DeviceSpec, dram_energy, nvm_energy,
                            price_placement)
from memplan.energy import testbed1 as make_testbed1
from memplan.evaluator import (_REL_TOL, COMPARISON_COLUMNS, ComparisonRow,
                               EvaluationReport, _cell, _csv_table,
                               _peak_bytes, compare, comparison_csv,
                               comparison_json, evaluate, report_csv,
                               report_json)
from memplan.planner import (DRAM, NVM, PlacementPlan, _major_minor,
                             build_placement_program, load_plan, plan_static,
                             sweep_ratios, write_plan)
from memplan.profiles import (GeneratorSpec, ObjectProfile, ProfileSet,
                              filter_major, generate_synthetic, load_profiles,
                              write_profiles)

MB = 1 << 20


def instance(seed, count=8, with_mpki=True):
    return generate_synthetic(
        GeneratorSpec(count=count, size_range=(2 * MB, 32 * MB),
                      with_mpki=with_mpki), seed)


def roomy_device():
    return make_testbed1(dram_capacity=4 * GIB, nvm_capacity=16 * GIB)


class TestMpkiThreshold:
    def test_zero_threshold_all_dram(self):
        ps = instance(1)
        plan = place_mpki_threshold(ps, roomy_device(), 0.0,
                                    major_threshold=0)
        assert all(plan.placements[i] == DRAM for i in ps.ids())

    def test_infinite_threshold_all_nvm(self):
        ps = instance(1)
        plan = place_mpki_threshold(ps, roomy_device(), float("inf"),
                                    major_threshold=0)
        assert all(plan.placements[i] == NVM for i in ps.ids())

    def test_partition_matches_direct_comparison(self):
        rng = np.random.default_rng(4)
        objects = tuple(
            ObjectProfile(f"o{i}", 4 * MB, 0.0, 1.0, 4 * MB, 100.0, 5.0,
                          float(rng.uniform(0.001, 0.08)))
            for i in range(12))
        ps = ProfileSet(objects)
        plan = place_mpki_threshold(ps, roomy_device(), 0.025,
                                    major_threshold=0)
        for obj in objects:
            expected = DRAM if obj.llc_mpki >= 0.025 else NVM
            assert plan.placements[obj.id] == expected

    def test_nan_threshold_rejected(self):
        # No mpki compares >= nan, so it used to place every object in NVM.
        with pytest.raises(ValueError, match="mpki_threshold.*nan"):
            place_mpki_threshold(instance(1), roomy_device(), float("nan"),
                                 major_threshold=0)

    def test_missing_mpki_names_object(self):
        ps = ProfileSet((ObjectProfile("anon", 4 * MB, 0.0, 1.0, 4 * MB,
                                       100.0, 5.0),))
        with pytest.raises(ValueError, match="'anon'"):
            place_mpki_threshold(ps, roomy_device(), 0.025, major_threshold=0)

    def test_overflow_evicts_coldest(self):
        objects = tuple(
            ObjectProfile(f"o{i}", 10 * MB, 0.0, 1.0, 10 * MB, 100.0, 5.0,
                          mpki)
            for i, mpki in enumerate((0.05, 0.04, 0.03, 0.02)))
        ps = ProfileSet(objects)
        dev = make_testbed1(dram_capacity=25 * MB, nvm_capacity=GIB)
        plan = place_mpki_threshold(ps, dev, 0.025, major_threshold=0)
        # Rule wants o0..o2 in DRAM; only two fit, the coldest (o2) spills.
        assert plan.feasible
        assert plan.placements["o0"] == DRAM
        assert plan.placements["o1"] == DRAM
        assert plan.placements["o2"] == NVM
        assert plan.placements["o3"] == NVM

    def test_a_split_that_fits_is_not_refused_for_counter_residue(self):
        # Both hot objects are demoted to a 0-byte DRAM; a running byte
        # count of 0.1 + 0.2 - 0.1 - 0.2 would leave 5.55e-17 "in" it.
        ps = ProfileSet(tuple(
            ObjectProfile(f"o{i}", size, 0.0, 1.0, size, 100.0, 5.0, 0.05)
            for i, size in enumerate((0.1, 0.2))))
        dev = make_testbed1(dram_capacity=0.0, nvm_capacity=1e9)
        plan = place_mpki_threshold(ps, dev, 0.01, major_threshold=0)
        assert plan.placements == {"o0": NVM, "o1": NVM}
        assert plan.feasible
        assert plan.binding_constraints == ()
        assert evaluate(ps, dev, plan).capacity_ok


class TestRandomPlacement:
    def test_deterministic_per_seed(self):
        ps = instance(2)
        dev = roomy_device()
        a = place_random(ps, dev, seed=9, major_threshold=0)
        b = place_random(ps, dev, seed=9, major_threshold=0)
        assert a == b

    def test_respects_capacity(self):
        ps = instance(5, count=10)
        dev = make_testbed1(dram_capacity=100 * MB, nvm_capacity=200 * MB)
        for seed in range(20):
            plan = place_random(ps, dev, seed=seed, major_threshold=0)
            report = evaluate(ps, dev, plan)
            assert report.capacity_ok

    def test_zero_dram_forces_all_nvm(self):
        ps = instance(3, count=6)
        dev = make_testbed1(dram_capacity=0.0, nvm_capacity=4 * GIB)
        plan = place_random(ps, dev, seed=1, major_threshold=0)
        assert all(plan.placements[i] == NVM for i in ps.ids())

    def test_impossible_capacity_rejected(self):
        ps = instance(3, count=6)
        dev = make_testbed1(dram_capacity=1 * MB, nvm_capacity=1 * MB)
        with pytest.raises(ValueError, match="feasible"):
            place_random(ps, dev, seed=1, major_threshold=0)

    def test_marginal_rate_near_half(self):
        # With ample capacity every object should land on DRAM about half
        # the time across seeds.
        ps = instance(6, count=5)
        dev = roomy_device()
        trials = 10_000
        counts = {i: 0 for i in ps.ids()}
        for seed in range(trials):
            plan = place_random(ps, dev, seed=seed, major_threshold=0)
            for object_id in ps.ids():
                counts[object_id] += plan.placements[object_id] == DRAM
        for object_id, hits in counts.items():
            assert abs(hits / trials - 0.5) < 0.02


class TestEvaluate:
    def test_all_dram_ratio_is_exactly_one(self):
        ps = instance(7)
        dev = roomy_device()
        report = evaluate(ps, dev, place_all_dram(ps, dev, major_threshold=0))
        assert report.energy_ratio_vs_all_dram == 1.0

    def test_all_nvm_total_matches_summation(self):
        ps = instance(7)
        dev = roomy_device()
        report = evaluate(ps, dev, place_all_nvm(ps, dev, major_threshold=0))
        assert report.total_energy_nj == pytest.approx(
            sum(nvm_energy(o, dev) for o in ps), rel=1e-12)

    def test_planner_output_passes_checks(self):
        ps = instance(8, count=10)
        dev = make_testbed1(dram_capacity=128 * MB, nvm_capacity=GIB)
        plan = plan_static(ps, dev, 0.8, major_threshold=0)
        assert plan.feasible
        report = evaluate(ps, dev, plan)
        assert report.capacity_ok
        assert report.budget_ok
        assert report.energy_ratio_vs_all_dram <= 0.8 * (1 + 1e-9)

    def test_totals_agree_with_planner_within_tolerance(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            ps = instance(int(rng.integers(0, 10_000)), count=9)
            dev = make_testbed1(dram_capacity=128 * MB, nvm_capacity=GIB)
            plan = plan_static(ps, dev, float(rng.uniform(0.7, 1.2)),
                               major_threshold=0)
            if not plan.feasible:
                continue
            report = evaluate(ps, dev, plan)
            assert report.total_energy_nj == pytest.approx(
                plan.planned_energy_nj, rel=1e-9)
            assert report.latency_objective_ns == pytest.approx(
                plan.objective_ns, rel=1e-9)

    def test_capacity_violation_flagged_not_raised(self):
        ps = instance(9, count=8)
        dev = make_testbed1(dram_capacity=1 * MB, nvm_capacity=GIB)
        plan = place_all_dram(ps, dev, major_threshold=0)
        report = evaluate(ps, dev, plan)
        assert not report.capacity_ok_dram
        assert report.capacity_ok_nvm

    def test_uncovered_object_rejected(self):
        ps = instance(1, count=4)
        dev = roomy_device()
        plan = place_all_dram(ps, dev, major_threshold=0)
        bigger = ProfileSet(ps.objects + (ObjectProfile(
            "extra", 4 * MB, 0.0, 1.0, 4 * MB, 10.0, 1.0),))
        with pytest.raises(ValueError, match="'extra'"):
            evaluate(bigger, dev, plan)

    def test_breakdown_sums_to_total(self):
        ps = instance(10, count=12)
        dev = roomy_device()
        plan = place_mpki_threshold(ps, dev, 0.02, major_threshold=0)
        report = evaluate(ps, dev, plan)
        assert report.total_energy_nj == pytest.approx(
            sum(report.breakdown.values()), rel=1e-12)

    @pytest.mark.parametrize("threshold", [float("nan"), -1.0])
    def test_bad_major_threshold_in_plan_rejected(self, threshold):
        ps = instance(1, count=4)
        dev = roomy_device()
        plan = PlacementPlan(dict.fromkeys(ps.ids(), DRAM), ps.ids(),
                             "optimal", 1.0, threshold, 0.0, 0.0,
                             float("inf"))
        with pytest.raises(ValueError,
                           match="major-object threshold must be >= 0"):
            evaluate(ps, dev, plan)

    def test_minor_energy_reported_separately(self):
        big = ObjectProfile("big", 8 * MB, 0.0, 1.0, 8 * MB, 500.0, 5.0)
        tiny = ObjectProfile("tiny", 4096.0, 0.0, 1.0, 4096.0, 5.0, 0.0)
        ps = ProfileSet((big, tiny))
        dev = roomy_device()
        plan = plan_static(ps, dev, 1.0)
        report = evaluate(ps, dev, plan)
        assert report.minor_dram_energy_nj == pytest.approx(
            dram_energy(tiny, dev), rel=1e-12)
        assert "tiny" not in report.breakdown


class TestPeakOccupancy:
    def test_overlapping_lifetimes(self):
        objects = (
            ObjectProfile("a", 100.0, 0.0, 2.0, 2048.0, 1.0, 0.0),
            ObjectProfile("b", 50.0, 1.0, 3.0, 2048.0, 1.0, 0.0),
            ObjectProfile("c", 70.0, 2.0, 4.0, 2048.0, 1.0, 0.0),
        )
        ps = ProfileSet(objects)
        dev = roomy_device()
        plan = place_all_dram(ps, dev, major_threshold=0)
        report = evaluate(ps, dev, plan)
        # a+b overlap to 150; a frees exactly when c arrives, so 120 after.
        assert report.peak_dram_bytes == 150.0
        assert report.peak_nvm_bytes == 0.0
        assert report.static_dram_bytes == 220.0

    def test_peak_bounded_by_static_sum(self):
        ps = instance(11, count=15)
        dev = roomy_device()
        plan = place_mpki_threshold(ps, dev, 0.03, major_threshold=0)
        report = evaluate(ps, dev, plan)
        assert report.peak_dram_bytes <= report.static_dram_bytes
        assert report.peak_nvm_bytes <= report.static_nvm_bytes


class TestCompare:
    def test_dram_vs_nvm_energy_order(self):
        ps = instance(12)
        dev = roomy_device()
        rows = compare(ps, dev, [
            ("all-dram", place_all_dram(ps, dev, major_threshold=0)),
            ("all-nvm", place_all_nvm(ps, dev, major_threshold=0)),
        ])
        total_de = sum(dram_energy(o, dev) for o in ps)
        total_ne = sum(nvm_energy(o, dev) for o in ps)
        assert (rows[1].energy_nj <= rows[0].energy_nj) \
            == (total_ne <= total_de)

    def test_threshold_sweep_emits_one_row_each(self):
        ps = instance(13)
        dev = roomy_device()
        thresholds = [0.005, 0.01, 0.02, 0.04, 0.08]
        plans = [(f"thr{i}", place_mpki_threshold(ps, dev, thr,
                                                  major_threshold=0))
                 for i, thr in enumerate(thresholds)]
        rows = compare(ps, dev, plans)
        assert [r.plan for r in rows] == [name for name, _ in plans]

    def test_matched_optimal_dominates(self):
        ps = instance(14, count=9)
        dev = make_testbed1(dram_capacity=160 * MB, nvm_capacity=GIB)
        rows = compare(
            ps, dev,
            [("thr", place_mpki_threshold(ps, dev, 0.02, major_threshold=0))],
            include_matched_optimal=True)
        assert [r.plan for r in rows] == ["thr", "thr:optimal"]
        assert rows[1].latency_ns <= rows[0].latency_ns * (1 + 1e-9)
        assert rows[1].energy_nj <= rows[0].energy_nj * (1 + 1e-9)

    def test_requires_at_least_one_plan(self):
        with pytest.raises(ValueError):
            compare(instance(1), roomy_device(), [])

    def test_csv_has_stable_columns(self):
        ps = instance(15)
        dev = roomy_device()
        rows = compare(ps, dev, [
            ("all-dram", place_all_dram(ps, dev, major_threshold=0))])
        text = comparison_csv(rows)
        assert text.splitlines()[0] == ",".join(COMPARISON_COLUMNS)
        assert text.splitlines()[0] == "plan,energy_nJ,ratio,latency_ns,capacity_ok"
        assert comparison_json(rows).startswith("[")


def _event_loop_peak(objects, device, placements):
    """The sorted event list the evaluator's peak replaced, as the oracle."""
    events = []
    for obj in objects:
        if placements[obj.id] != device:
            continue
        events.append((obj.alloc_time, obj.size))
        events.append((obj.dealloc_time, -obj.size))
    events.sort(key=lambda e: (e[0], e[1]))
    level = 0.0
    peak = 0.0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


def test_peak_bytes_equals_the_event_loop_with_tied_times_and_sizes():
    rng = np.random.default_rng(31)
    times = (0.0, 0.5, 1.0, 1.5, 2.0, 3.25)
    sizes = (0.1, 0.7, 1.0, 3.0, 1e-3, 1e16)  # sums depend on their order
    for case in range(320):
        objects = []
        if case < 300:  # few times, shared by many events
            for i in range(int(rng.integers(1, 30))):
                alloc = float(rng.choice(times[:-1]))
                objects.append(ObjectProfile(
                    f"o{i}", float(rng.choice(sizes)), alloc,
                    float(rng.choice([t for t in times if t > alloc])), 1.0,
                    1.0, 1.0))
        else:  # hundreds of objects, no two events at one time
            n = int(rng.integers(100, 400))
            allocs = rng.random(n)
            deallocs = allocs + rng.random(n) + 1e-3
            assert len({*allocs.tolist(), *deallocs.tolist()}) == 2 * n
            objects = [ObjectProfile(f"o{i}", float(rng.choice(sizes)),
                                     alloc, dealloc, 1.0, 1.0, 1.0)
                       for i, (alloc, dealloc) in enumerate(zip(
                           allocs.tolist(), deallocs.tolist()))]
        n = len(objects)
        ps = ProfileSet(tuple(objects))
        on_dram = rng.random(n) < 0.5
        placements = {o.id: DRAM if d else NVM
                      for o, d in zip(objects, on_dram)}
        for device, mask in ((DRAM, on_dram), (NVM, ~on_dram)):
            assert _peak_bytes(ps, mask) \
                == _event_loop_peak(objects, device, placements)


def _split_report(objects, dev, plan):
    """The report of a plan scored on the major and minor sets split off
    by filter_major, each priced on its own, as the oracle."""
    major, minor = filter_major(ProfileSet(objects), plan.major_threshold)
    placed = plan.placements
    latencies, energies = price_placement(
        major, dev, [placed[i] == DRAM for i in major.ids()])
    breakdown = dict(zip(major.ids(), energies.tolist()))
    minor_energy = reduce(add, dram_energy(minor, dev).tolist(), 0.0)
    total = reduce(add, breakdown.values(), 0.0)
    denom = reduce(add, dram_energy(major, dev).tolist(), 0.0)
    if plan.minor_energy_in_budget:
        total += minor_energy
        denom += minor_energy
    ratio = total / denom if denom > 0 else \
        1.0 if total == 0 else float("inf")
    static = {device: reduce(add, (o.size for o in objects
                                   if placed[o.id] == device), 0.0)
              for device in (DRAM, NVM)}
    dram_limit = dev.dram_capacity - plan.reserved_dram_bytes
    budget = plan.energy_budget_nj
    return EvaluationReport(
        total_energy_nj=total,
        latency_objective_ns=reduce(add, latencies.tolist(), 0.0),
        energy_ratio_vs_all_dram=ratio,
        capacity_ok_dram=static[DRAM]
        <= dram_limit + _REL_TOL * max(1.0, dram_limit),
        capacity_ok_nvm=static[NVM]
        <= dev.nvm_capacity + _REL_TOL * max(1.0, dev.nvm_capacity),
        budget_ok=not math.isfinite(budget)
        or total <= budget + _REL_TOL * max(1.0, abs(budget)),
        static_dram_bytes=static[DRAM],
        static_nvm_bytes=static[NVM],
        peak_dram_bytes=_event_loop_peak(objects, DRAM, placed),
        peak_nvm_bytes=_event_loop_peak(objects, NVM, placed),
        minor_dram_energy_nj=minor_energy,
        breakdown=breakdown)


def test_evaluate_equals_scoring_the_split_sets():
    rng = np.random.default_rng(47)
    times = (0.0, 0.5, 1.0, 1.5, 2.0, 3.25)
    sizes = (0.1, 0.7, 3.0, 1e-3, 4 * MB, 1e16)  # sums depend on their order
    volumes = (0.0, 1.0, 4096.0, MB, 2 * MB, 1e12)
    for _ in range(200):
        n = int(rng.integers(0, 30))
        objects = []
        for i in range(n):
            alloc = float(rng.choice(times[:-1]))
            objects.append(ObjectProfile(
                f"o{i}", float(rng.choice(sizes)), alloc,
                float(rng.choice([t for t in times if t > alloc])),
                float(rng.choice(volumes)), float(rng.uniform(0, 1e4)),
                float(rng.uniform(0, 1e3))))
        ps = ProfileSet(tuple(objects), "w", 2.0)
        total = sum(ps.size.tolist())
        dev = make_testbed1(dram_capacity=float(rng.uniform(0, 1.2)) * total,
                            nvm_capacity=float(rng.uniform(0, 1.2)) * total)
        placements = {o.id: DRAM if rng.random() < 0.5 else NVM
                      for o in objects}
        threshold = float(rng.choice([0.0, 4096.0, MB, float("inf")]))
        for in_budget in (False, True):
            plan = PlacementPlan(
                placements, ps.ids(), "optimal", 0.8, threshold, 0.0, 0.0,
                float(rng.choice([float("inf"), 1e6, 1e12])),
                reserved_dram_bytes=float(rng.choice([0.0, MB])),
                minor_energy_in_budget=in_budget)
            report = evaluate(ps, dev, plan)
            want = _split_report(tuple(objects), dev, plan)
            assert report == want
            assert list(report.breakdown) == list(want.breakdown)
            assert report_csv(report) == report_csv(want)
            assert report_json(report) == report_json(want)


def _two_objects():
    return ProfileSet((
        ObjectProfile("a", 2 * MB, 0.0, 1.0, 4 * MB, 100.0, 10.0),
        ObjectProfile("b", MB, 0.5, 2.0, 2 * MB, 50.0, 5.0, 0.25)))


def test_report_bytes_of_an_all_nvm_plan():
    # Recorded from the writers before they shared one table writer; with no
    # object on DRAM, static_dram_bytes is an empty total, which is the
    # float 0.0 like every other total, and prints as 0.0.
    ps = _two_objects()
    dev = make_testbed1(dram_capacity=4 * MB, nvm_capacity=16 * MB)
    report = evaluate(ps, dev, place_all_nvm(ps, dev, 0))
    assert report_csv(report) == (
        "metric,value\ntotal_energy_nj,23155274.88\n"
        "latency_objective_ns,96000.0\n"
        "energy_ratio_vs_all_dram,0.4940107871508019\ncapacity_ok_dram,1\n"
        "capacity_ok_nvm,1\nbudget_ok,1\nstatic_dram_bytes,0.0\n"
        "static_nvm_bytes,3145728.0\npeak_dram_bytes,0.0\n"
        "peak_nvm_bytes,3145728.0\nminor_dram_energy_nj,0.0\n\n"
        "id,energy_nj\na,15436849.92\nb,7718424.96\n")
    assert report_json(report) == (
        '{\n  "budget_ok": true,\n  "capacity_ok_dram": true,\n'
        '  "capacity_ok_nvm": true,\n'
        '  "energy_ratio_vs_all_dram": 0.4940107871508019,\n'
        '  "latency_objective_ns": 96000.0,\n'
        '  "minor_dram_energy_nj": 0.0,\n  "peak_dram_bytes": 0.0,\n'
        '  "peak_nvm_bytes": 3145728.0,\n  "per_object_energy_nj": {\n'
        '    "a": 15436849.92,\n    "b": 7718424.96\n  },\n'
        '  "static_dram_bytes": 0.0,\n  "static_nvm_bytes": 3145728.0,\n'
        '  "total_energy_nj": 23155274.88\n}\n')
    rows = compare(ps, dev, [("all-nvm", place_all_nvm(ps, dev, 0)),
                             ("random_1", None)])
    assert comparison_csv(rows) == (
        "plan,energy_nJ,ratio,latency_ns,capacity_ok\n"
        "all-nvm,23155274.88,0.4940107871508019,96000.0,1\n"
        "random_1,nan,nan,nan,0\n")


def test_a_baseline_ratio_equals_evaluates_when_all_dram_energy_is_zero(
        tmp_path):
    # Each baseline's ratio is evaluate's: inf where the all-DRAM energy is
    # 0 and the plan's is not, 1.0 where both are 0. write_plan refuses the
    # inf ratio before it opens the file, as load_plan would refuse it.
    dev = DeviceSpec(dram_act_pre=0, dram_rw=0, dram_ref=0)
    ps = ProfileSet(tuple(ObjectProfile(name, 8 * MB, 0.0, 1.0, 8 * MB,
                                        100.0, 5.0, mpki)
                          for name, mpki in (("a", 0.01), ("b", 0.02))))
    free = replace(dev, nvm_act_pre=0, nvm_rba=0, nvm_wb=0)
    plans = [(dev, place_all_nvm(ps, dev, 0), math.inf),
             (dev, place_mpki_threshold(ps, dev, 0.015, 0), math.inf),
             (dev, place_mpki_threshold(ps, dev, 1.0, 0), math.inf),
             (dev, place_all_dram(ps, dev, 0), 1.0),
             *((free, make(ps, free, 0), 1.0)
               for make in (place_all_dram, place_all_nvm))]
    for seed in range(4):
        plan = place_random(ps, dev, seed, 0)
        plans.append((dev, plan, 1.0 if set(plan.placements.values())
                      == {DRAM} else math.inf))
    for device, plan, ratio in plans:
        assert evaluate(ps, device, plan).energy_ratio_vs_all_dram == ratio
        assert plan.ratio == ratio
    assert {ratio for _, _, ratio in plans} == {1.0, math.inf}

    path = tmp_path / "all-nvm.plan"
    with pytest.raises(ValueError) as err:
        write_plan(place_all_nvm(ps, dev, 0), path)
    assert str(err.value) == "ratio must be finite, got inf"
    assert not path.exists()


@pytest.mark.parametrize("breakdown", [
    {},
    {"only": 1.5},
    {"b": float("nan"), "a": float("inf"), "c": -float("inf"), "d": -0.0},
    {'q"uote': 1.0, "back\\slash": 2.0, "tab\there": 3.0, "nl\nid": 4.0,
     "ctl\x01": 5.0, "café": 6.0, "中文": 7.0,
     "emoji\U0001f600": 8.0, "per_object_energy_nj": 9.0, "": 1e300},
], ids=["empty", "one", "non-finite", "escapes"])
def test_the_json_report_is_the_bytes_of_one_indented_dump(breakdown):
    ps = _two_objects()
    dev = make_testbed1(dram_capacity=4 * MB, nvm_capacity=16 * MB)
    report = replace(evaluate(ps, dev, place_all_nvm(ps, dev, 0)),
                     breakdown=breakdown, total_energy_nj=float("nan"),
                     energy_ratio_vs_all_dram=float("inf"))
    payload = dict({f.name: getattr(report, f.name) for f in fields(report)
                    if f.name != "breakdown"},
                   per_object_energy_nj=breakdown)
    assert report_json(report) \
        == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_the_csv_table_writes_every_cell_by_the_cell_rule():
    # One column per kind, the last two mixing kinds: the column-wise
    # writer must give the text of `_cell` applied cell by cell.
    columns = ("flag", "count", "value", "name", "mixed", "either")
    rows = [(True, 0, float("nan"), "a", 1.5, "x"),
            (False, 3, 2.0, "b", 0, 7.0),
            (True, 0, 0.1, "c", float("inf"), "y")]
    want = ",".join(columns) + "\n" + "".join(
        ",".join(map(_cell, row)) + "\n" for row in rows)
    assert want == ("flag,count,value,name,mixed,either\n1,0,nan,a,1.5,x\n"
                    "0,3,2.0,b,0,7.0\n1,0,0.1,c,inf,y\n")
    assert _csv_table(columns, rows) == want
    assert _csv_table(columns, iter(rows)) == want
    assert _csv_table(columns, []) == ",".join(columns) + "\n"


@pytest.mark.parametrize("name", ["x,y", "x\ny", "x\r\ny", "x\ry"])
def test_a_csv_cell_never_holds_a_separator(name):
    # A plan name with a comma made a 6-field row under the 5-column
    # header, and one with a line break split its row in two.
    row = ComparisonRow(name, 1.5, 0.25, 3.0, True)
    with pytest.raises(ValueError) as err:
        comparison_csv([row])
    assert str(err.value) == \
        f"csv cell holds a comma or a line break: {name!r}"
    with pytest.raises(ValueError):
        _csv_table(("metric", "value"), [(name, 1.0)])


def test_a_numpy_float_cell_prints_as_the_python_float():
    # np.float64 is a float whose repr names numpy; a cell spells it as
    # write_plan spells a float.
    rows = [(0.1, float("nan"), "a"), (2.0, 1e300, "b")]
    wide = [(np.float64(x), np.float64(y), name) for x, y, name in rows]
    assert _csv_table(("x", "y", "name"), wide) \
        == _csv_table(("x", "y", "name"), rows) \
        == "x,y,name\n0.1,nan,a\n2.0,1e+300,b\n"
    row = ComparisonRow("p", 1.5, 0.25, 3.0, True)
    wide_row = ComparisonRow("p", *map(np.float64, (1.5, 0.25, 3.0)), True)
    assert comparison_csv([wide_row]) == comparison_csv([row])
    assert "np." not in comparison_csv([wide_row])


def _cold_objects():
    # Four 10 MB objects, all colder than a threshold of 1.0.
    return ProfileSet(tuple(
        ObjectProfile(f"o{i}", 10 * MB, 0.0, 1.0, 10 * MB, 100.0, 5.0, mpki)
        for i, mpki in enumerate((0.01, 0.04, 0.02, 0.03))))


@pytest.mark.parametrize("dram_mb, on_dram, binding", [
    (25, ("o1", "o3"), ()),
    (15, ("o1",), ("capacity_nvm",)),
], ids=["fits", "nvm-overflows"])
def test_mpki_threshold_promotes_the_hottest_nvm_residents(dram_mb, on_dram,
                                                           binding):
    # Everything starts in NVM, which holds 25 of the 40 MB: the hottest
    # objects move to DRAM while they fit there.
    ps = _cold_objects()
    dev = make_testbed1(dram_capacity=dram_mb * MB, nvm_capacity=25 * MB)
    plan = place_mpki_threshold(ps, dev, 1.0, major_threshold=0)
    assert [i for i in ps.ids() if plan.placements[i] == DRAM] \
        == list(on_dram)
    assert plan.binding_constraints == binding
    assert plan.feasible == (not binding)


def _mpki_by_loop(sizes, mpki, threshold, dram_free, nvm_capacity):
    """The MPKI rule's devices one object at a time, as the oracle: running
    byte counts updated per demotion and per promotion."""
    on_dram = [int(m >= threshold) for m in mpki]
    dram_bytes = reduce(add, (s for s, x in zip(sizes, on_dram) if x), 0)
    nvm_bytes = reduce(add, (s for s, x in zip(sizes, on_dram) if not x), 0)
    order = sorted(range(len(sizes)), key=mpki.__getitem__)
    for i in order:
        if dram_bytes <= dram_free:
            break
        if on_dram[i]:
            on_dram[i] = 0
            dram_bytes -= sizes[i]
            nvm_bytes += sizes[i]
    for i in reversed(order):
        if nvm_bytes <= nvm_capacity:
            break
        if not on_dram[i] and dram_bytes + sizes[i] <= dram_free:
            on_dram[i] = 1
            dram_bytes += sizes[i]
            nvm_bytes -= sizes[i]
    return on_dram


def test_mpki_threshold_moves_the_objects_the_loop_moves():
    # Sizes whose running sums round differently by grouping, tied mpki,
    # and DRAM limits on the loop's own running counts, so a demotion
    # count off by one, or sums taken in another order, would show.
    # Long sets, with tied and with distinct mpki, reach the long-array
    # totals and both sorts.
    rng = np.random.default_rng(11)
    sizes_pool = (0.1, 0.2, 0.7, 3.0, 4 * MB, 1e16)
    moved = set()
    for case in range(340):
        n = int(rng.integers(1, 25) if case < 300 else rng.integers(25, 200))
        sizes = [float(rng.choice(sizes_pool)) for _ in range(n)]
        if case < 320:
            mpki = [float(rng.choice((0.0, 0.01, 0.02, 0.05, 1.0)))
                    for _ in range(n)]
        else:
            mpki = (rng.random(n) * 0.04).tolist()
            assert len(set(mpki)) == n
        ps = ProfileSet(ObjectProfile(f"o{i}", size, 0.0, 1.0, 1.0, 1.0,
                                      0.0, m)
                        for i, (size, m) in enumerate(zip(sizes, mpki)))
        running = [reduce(add, (s for s, m in zip(sizes, mpki) if m >= 0.02),
                          0)]
        for i in sorted(range(n), key=mpki.__getitem__):
            if mpki[i] >= 0.02:
                running.append(running[-1] - sizes[i])
        for dram in {*rng.choice(running, size=3), 0.5 * running[0], 0.0}:
            dram = max(float(dram), 0.0)
            for nvm in (sum(sizes), 0.3 * sum(sizes)):
                dev = make_testbed1(dram_capacity=dram, nvm_capacity=nvm)
                plan = place_mpki_threshold(ps, dev, 0.02, major_threshold=0)
                want = _mpki_by_loop(sizes, mpki, 0.02, dram, nvm)
                got = [int(plan.placements[i] == DRAM) for i in ps.ids()]
                assert got == want, (sizes, mpki, dram, nvm)
                moved.add(sum(want) < sum(m >= 0.02 for m in mpki))
    assert moved == {False, True}


def test_evaluate_rejects_a_placement_on_no_concrete_device():
    ps = instance(1, count=4)
    plan = place_all_dram(ps, roomy_device(), major_threshold=0)
    odd = dict(plan.placements, **{ps.ids()[2]: "hbm"})
    with pytest.raises(ValueError, match=f"^object {ps.ids()[2]!r} has no "
                                         "concrete device$"):
        evaluate(ps, roomy_device(), PlacementPlan(
            odd, plan.major_ids, plan.status, plan.ratio,
            plan.major_threshold, plan.objective_ns, plan.planned_energy_nj,
            plan.energy_budget_nj))


def _report_row(name, report):
    """A comparison row read off `evaluate`'s full report, as the oracle."""
    if report is None:
        nan = float("nan")
        return ComparisonRow(name, nan, nan, nan, False)
    return ComparisonRow(name, report.total_energy_nj,
                         report.energy_ratio_vs_all_dram,
                         report.latency_objective_ns, report.capacity_ok)


def _compare_by_evaluate(profiles, dev, plans, include_matched_optimal):
    """`compare` spelled with `evaluate`'s reports, as the oracle."""
    rows = []
    for name, plan in plans:
        report = None if plan is None else evaluate(profiles, dev, plan)
        rows.append(_report_row(name, report))
        if include_matched_optimal and report is not None \
                and report.capacity_ok \
                and report.energy_ratio_vs_all_dram > 0 \
                and math.isfinite(report.energy_ratio_vs_all_dram):
            matched = plan_static(
                profiles, dev, report.energy_ratio_vs_all_dram,
                plan.major_threshold,
                reserved_dram_bytes=plan.reserved_dram_bytes,
                include_minor_in_budget=plan.minor_energy_in_budget)
            rows.append(_report_row(f"{name}:optimal",
                                    evaluate(profiles, dev, matched)
                                    if matched.feasible else None))
    return rows


def _reprs(rows):
    # repr-equal cells: the same bits, nan equal to nan, -0.0 apart from 0.0.
    return [tuple(map(repr, astuple(row))) for row in rows]


@pytest.mark.parametrize("seed", range(6))
def test_compare_rows_equal_the_rows_of_evaluates_reports(seed):
    rng = np.random.default_rng(seed)
    ps = generate_synthetic(GeneratorSpec(count=40, with_mpki=True), seed)
    total = ps.total_size()
    dev = make_testbed1(dram_capacity=float(rng.uniform(0.3, 1.1)) * total,
                        nvm_capacity=float(rng.uniform(0.8, 1.1)) * total)
    threshold = float(rng.choice([0.0, MB, 4 * MB]))
    reserved = float(rng.choice([0.0, 0.05 * total]))
    plans = [
        ("all-dram", place_all_dram(ps, dev, threshold)),
        ("all-nvm", place_all_nvm(ps, dev, threshold)),
        ("all-dram-reserved", place_all_dram(ps, dev, threshold, reserved)),
        *((f"mpki_{t:g}", place_mpki_threshold(ps, dev, t, threshold,
                                               reserved))
          for t in (0.01, 0.05, 0.2)),
        ("none", None),
        ("minor-in-budget", plan_static(ps, dev, 0.8, threshold,
                                        include_minor_in_budget=True)),
        ("reserved", plan_static(ps, dev, 0.9, threshold,
                                 reserved_dram_bytes=reserved)),
    ]
    # An infeasible plan has no placements: compare takes None for it.
    plans = [(name, plan if plan is None or plan.placements else None)
             for name, plan in plans]
    for include in (False, True):
        rows = compare(ps, dev, plans, include_matched_optimal=include)
        want = _compare_by_evaluate(ps, dev, plans, include)
        assert _reprs(rows) == _reprs(want)
    assert any(row.plan.endswith(":optimal") for row in rows)
    assert not all(row.capacity_ok for row in rows)


def test_sweep_rows_equal_the_rows_of_evaluates_reports(tmp_path):
    ps = generate_synthetic(GeneratorSpec(count=30, with_mpki=True), 5)
    path = tmp_path / "w.prof"
    write_profiles(ps, path)
    ps = load_profiles(path)
    total = ps.total_size() / GIB
    cells = [(total, total), (0.5 * total, total), (0.3 * total, 0.5 * total)]
    ratios = (1.0, 0.8, 0.6, 0.3)
    for in_budget, reserved in ((False, 0.0), (True, 0.0),
                                (False, 0.05 * ps.total_size())):
        out = tmp_path / "s.csv"
        assert cli.main([str(a) for a in (
            "sweep", "--profiles", path, "--ratios", "1.0,0.8,0.6,0.3",
            "--capacities", ",".join(f"{d!r}:{n!r}" for d, n in cells),
            "--preset", "testbed1", "--reserved-dram", reserved,
            *(("--include-minor-energy",) if in_budget else ()),
            "--out", out)]) == 0
        rows, statuses = [], set()
        for d, n in cells:
            dev = replace(make_testbed1(), dram_capacity=d * GIB,
                          nvm_capacity=n * GIB)
            plans = sweep_ratios(ps, dev, ratios, reserved_dram_bytes=reserved,
                                 include_minor_in_budget=in_budget)
            for ratio, plan in zip(ratios, plans):
                statuses.add(plan.status)
                scored = _report_row("", evaluate(ps, dev, plan)
                                     if plan.feasible else None)
                rows.append((d, n, ratio, plan.status, plan.objective_ns,
                             plan.planned_energy_nj, plan.energy_budget_nj,
                             scored.energy_nj, scored.ratio,
                             scored.capacity_ok))
        assert statuses == {"optimal", "infeasible"}
        assert out.read_text() == _csv_table(cli._SWEEP_COLUMNS, rows)


def test_compare_and_sweep_score_without_the_events_or_peaks(tmp_path):
    # No clock: the work they skip is checked by what they leave undone.
    ps = generate_synthetic(GeneratorSpec(count=40, with_mpki=True), 3)
    dev = roomy_device()
    compare(ps, dev, [("all-dram", place_all_dram(ps, dev)),
                      ("mpki", place_mpki_threshold(ps, dev, 0.05)),
                      ("none", None)], include_matched_optimal=True)
    assert "events" not in ps.__dict__

    path = tmp_path / "w.prof"
    write_profiles(ps, path)

    def refuse(profiles, on_device):
        raise AssertionError("sweep built a time-resolved peak")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_peak_bytes", refuse)
        assert cli.main([
            "sweep", "--profiles", str(path), "--ratios", "1.0,0.7",
            "--capacities", "4:16,0.01:0.01", "--preset", "testbed1",
            "--out", str(tmp_path / "s.csv")]) == 0

    report = evaluate(ps, dev, place_mpki_threshold(ps, dev, 0.05))
    assert "events" in ps.__dict__
    placed = place_mpki_threshold(ps, dev, 0.05).placements
    assert report.peak_dram_bytes == _event_loop_peak(ps, DRAM, placed) > 0
    assert report.peak_nvm_bytes == _event_loop_peak(ps, NVM, placed) > 0
    assert list(report.breakdown) == list(filter_major(ps, MB)[0].ids())


def _score_or_error(ps, dev, plan):
    try:
        return repr(evaluator._score(ps, dev, plan))
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("seed", range(4))
def test_plans_kept_as_columns_equal_the_per_object_dict(seed):
    # The oracle is the dict plans held before they kept columns: the minor
    # ids pinned to DRAM, then each major id's device, in profile order.
    ps = generate_synthetic(GeneratorSpec(count=40, with_mpki=True), seed)
    total = ps.total_size()
    threshold = float(np.median(ps.accessed_volume))
    major, minor = filter_major(ps, threshold)
    assert len(major) and len(minor)
    roomy = make_testbed1(dram_capacity=2 * total, nvm_capacity=2 * total)
    tight = make_testbed1(dram_capacity=0.6 * total, nvm_capacity=total)
    reserved = 0.05 * total

    def old_way(on_dram=None):
        placements = dict.fromkeys(minor.ids(), DRAM)
        if on_dram is not None:
            placements.update(zip(major.ids(), (DRAM if x else NVM
                                                for x in on_dram)))
        return placements

    def solved(ratio, reserve=0.0, in_budget=False):
        dram_free = _major_minor(ps, threshold, reserve, tight)[2]
        extra = reduce(add, dram_energy(minor, tight).tolist(), 0) \
            if in_budget else 0.0
        return ilp.solve(build_placement_program(
            major, tight, ratio, dram_free, extra)).assignment

    draw = np.random.default_rng(seed).integers(0, 2, size=len(major))
    cases = [
        (plan_static(ps, tight, 0.8, threshold), old_way(solved(0.8))),
        (plan_static(ps, tight, 0.8, threshold, reserved_dram_bytes=reserved),
         old_way(solved(0.8, reserved))),
        (plan_static(ps, tight, 0.9, threshold, include_minor_in_budget=True),
         old_way(solved(0.9, 0.0, True))),
        (plan_static(ps, tight, 1e-6, threshold), old_way()),
        (sweep_ratios(ps, make_testbed1(dram_capacity=0.0, nvm_capacity=total),
                      [0.8], threshold)[0], {}),
        (place_all_dram(ps, roomy, threshold), old_way([1] * len(major))),
        (place_all_dram(ps, roomy, threshold, reserved),
         old_way([1] * len(major))),
        (place_all_nvm(ps, roomy, threshold), old_way([0] * len(major))),
        (place_mpki_threshold(ps, roomy, 0.05, threshold),
         old_way(major.llc_mpki >= 0.05)),
        (place_random(ps, roomy, seed, threshold), old_way(draw)),
    ]
    assert [plan.feasible for plan, _ in cases].count(False) == 2
    for plan, want in cases:
        text = io.StringIO()
        write_plan(plan, text)
        for candidate in (plan, load_plan(io.StringIO(text.getvalue()))):
            written = io.StringIO()
            write_plan(candidate, written)
            assert "placements" not in vars(candidate)
            # Only the message of a plan that is not whole reads its dict.
            scored = [_score_or_error(ps, dev, candidate)
                      for dev in (roomy, tight)]
            assert ("placements" in vars(candidate)) == (not plan.feasible)
            assert list(candidate.placements.items()) == list(want.items())
            twin = replace(candidate, placements=dict(want))
            assert "_rows" not in vars(twin)
            old = io.StringIO()
            write_plan(twin, old)
            assert written.getvalue() == old.getvalue() == text.getvalue()
            assert scored == [_score_or_error(ps, dev, twin)
                              for dev in (roomy, tight)]
            assert candidate.major_ids == plan.major_ids
