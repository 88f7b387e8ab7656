import numpy as np
import pytest

from memplan.baselines import (place_all_dram, place_all_nvm,
                               place_mpki_threshold, place_random)
from memplan.energy import GIB, dram_energy, nvm_energy
from memplan.energy import testbed1 as make_testbed1
from memplan.evaluator import (COMPARISON_COLUMNS, _cell, _csv_table,
                               _peak_bytes, compare, comparison_csv,
                               comparison_json, evaluate, report_csv,
                               report_json)
from memplan.planner import DRAM, NVM, plan_static
from memplan.profiles import (GeneratorSpec, ObjectProfile, ProfileSet,
                              generate_synthetic)

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
    for _ in range(300):
        n = int(rng.integers(1, 30))
        objects = []
        for i in range(n):
            alloc = float(rng.choice(times[:-1]))
            objects.append(ObjectProfile(
                f"o{i}", float(rng.choice(sizes)), alloc,
                float(rng.choice([t for t in times if t > alloc])), 1.0, 1.0,
                1.0))
        ps = ProfileSet(tuple(objects))
        on_dram = rng.random(n) < 0.5
        placements = {o.id: DRAM if d else NVM
                      for o, d in zip(objects, on_dram)}
        for device, mask in ((DRAM, on_dram), (NVM, ~on_dram)):
            assert _peak_bytes(ps, mask) \
                == _event_loop_peak(objects, device, placements)


def _two_objects():
    return ProfileSet((
        ObjectProfile("a", 2 * MB, 0.0, 1.0, 4 * MB, 100.0, 10.0),
        ObjectProfile("b", MB, 0.5, 2.0, 2 * MB, 50.0, 5.0, 0.25)))


def test_report_bytes_of_an_all_nvm_plan():
    # Recorded from the writers before they shared one table writer; with no
    # object on DRAM, static_dram_bytes is the int 0 and prints as 0.
    ps = _two_objects()
    dev = make_testbed1(dram_capacity=4 * MB, nvm_capacity=16 * MB)
    report = evaluate(ps, dev, place_all_nvm(ps, dev, 0))
    assert report_csv(report) == (
        "metric,value\ntotal_energy_nj,23155274.88\n"
        "latency_objective_ns,96000.0\n"
        "energy_ratio_vs_all_dram,0.4940107871508019\ncapacity_ok_dram,1\n"
        "capacity_ok_nvm,1\nbudget_ok,1\nstatic_dram_bytes,0\n"
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
        '  "static_dram_bytes": 0,\n  "static_nvm_bytes": 3145728.0,\n'
        '  "total_energy_nj": 23155274.88\n}\n')
    rows = compare(ps, dev, [("all-nvm", place_all_nvm(ps, dev, 0)),
                             ("random_1", None)])
    assert comparison_csv(rows) == (
        "plan,energy_nJ,ratio,latency_ns,capacity_ok\n"
        "all-nvm,23155274.88,0.4940107871508019,96000.0,1\n"
        "random_1,nan,nan,nan,0\n")


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
