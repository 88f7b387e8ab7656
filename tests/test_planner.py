import copy
import io
import math
import pickle
from functools import reduce
from operator import add

import numpy as np
import pytest

from conftest import time_cap
from memplan import ilp, planner
from memplan.baselines import place_mpki_threshold
from memplan.energy import DeviceSpec, GIB, dram_energy, nvm_energy
from memplan.energy import testbed1 as make_testbed1
from memplan.evaluator import evaluate
from memplan.planner import (CONSTRAINT_ENERGY, CapacityError, DRAM, NVM,
                             build_placement_program, diagnose_infeasibility,
                             load_plan, plan_static, summarize_assignment,
                             sweep_ratios, write_plan)
from memplan.profiles import (DEFAULT_MAJOR_THRESHOLD, GeneratorSpec,
                              ObjectProfile, ProfileSet, filter_major,
                              generate_synthetic)
from oracle import solve_exhaustive

MB = 1 << 20


def small_device(dram_mb=512, nvm_mb=2048):
    return make_testbed1(dram_capacity=dram_mb * MB, nvm_capacity=nvm_mb * MB)


def instance(seed, count=10, with_mpki=False):
    return generate_synthetic(
        GeneratorSpec(count=count, size_range=(2 * MB, 48 * MB),
                      with_mpki=with_mpki), seed)


class TestPlanStatic:
    def test_single_object_ample_capacity_prefers_dram(self):
        ps = ProfileSet((ObjectProfile("a", 8 * MB, 0.0, 1.0, 8 * MB,
                                       1000.0, 10.0),))
        plan = plan_static(ps, small_device(), 1.0, major_threshold=0)
        assert plan.feasible
        assert plan.placements["a"] == DRAM

    def test_zero_dram_forces_nvm(self):
        ps = instance(3, count=6)
        dev = make_testbed1(dram_capacity=0.0, nvm_capacity=16 * GIB)
        plan = plan_static(ps, dev, 1.0, major_threshold=0)
        assert plan.feasible
        assert all(plan.placements[i] == NVM for i in ps.ids())

    def test_zero_dram_with_unreachable_budget_infeasible(self):
        ps = instance(3, count=6)
        dev = make_testbed1(dram_capacity=0.0, nvm_capacity=16 * GIB)
        total_nvm = sum(nvm_energy(o, dev) for o in ps)
        total_dram = sum(dram_energy(o, dev) for o in ps)
        ratio = 0.5 * total_nvm / total_dram
        plan = plan_static(ps, dev, ratio, major_threshold=0)
        assert not plan.feasible
        assert plan.binding_constraints
        assert math.isnan(plan.objective_ns)

    def test_minor_objects_pinned_to_dram(self):
        big = ObjectProfile("big", 8 * MB, 0.0, 1.0, 8 * MB, 500.0, 5.0)
        tiny = ObjectProfile("tiny", 4096.0, 0.0, 1.0, 4096.0, 5.0, 0.0)
        plan = plan_static(ProfileSet((big, tiny)), small_device(), 1.0)
        assert plan.placements["tiny"] == DRAM
        assert plan.major_ids == ("big",)

    def test_minor_overflow_raises_capacity_error(self):
        tiny = ObjectProfile("tiny", 4 * MB, 0.0, 1.0, 1024.0, 5.0, 0.0)
        dev = make_testbed1(dram_capacity=1 * MB, nvm_capacity=16 * GIB)
        with pytest.raises(CapacityError):
            plan_static(ProfileSet((tiny,)), dev, 1.0)

    def test_reserved_bytes_reduce_dram(self):
        ps = ProfileSet((ObjectProfile("a", 8 * MB, 0.0, 1.0, 8 * MB,
                                       1000.0, 10.0),))
        dev = make_testbed1(dram_capacity=10 * MB, nvm_capacity=16 * GIB)
        roomy = plan_static(ps, dev, 1.0, major_threshold=0)
        assert roomy.placements["a"] == DRAM
        squeezed = plan_static(ps, dev, 1.0, major_threshold=0,
                               reserved_dram_bytes=4 * MB)
        assert squeezed.placements["a"] == NVM

    def test_invalid_ratio_rejected(self):
        ps = instance(1, count=3)
        for ratio in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                plan_static(ps, small_device(), ratio)

    def test_ratio_above_one_allowed(self):
        ps = instance(1, count=5)
        plan = plan_static(ps, small_device(), 1.5, major_threshold=0)
        assert plan.feasible
        assert plan.energy_budget_nj > sum(dram_energy(o, small_device())
                                           for o in ps)

    def test_no_major_objects_trivial_plan(self):
        tiny = ObjectProfile("tiny", 4096.0, 0.0, 1.0, 512.0, 5.0, 0.0)
        plan = plan_static(ProfileSet((tiny,)), small_device(), 0.9)
        assert plan.feasible
        assert plan.major_ids == ()
        assert plan.objective_ns == 0.0
        assert plan.planned_energy_nj == 0.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_enumeration(self, seed):
        ps = instance(seed, count=12)
        dev = small_device(dram_mb=128, nvm_mb=512)
        ratio = 0.8
        major, minor = filter_major(ps, 0)
        assert len(minor) == 0
        program = build_placement_program(
            major, dev, ratio, dev.dram_capacity)
        want = solve_exhaustive(program)
        plan = plan_static(ps, dev, ratio, major_threshold=0)
        if want.status == ilp.STATUS_INFEASIBLE:
            assert not plan.feasible
            return
        assert plan.feasible
        got = tuple(1 if plan.placements[o.id] == DRAM else 0 for o in major)
        assert got == want.assignment
        objective, energy = summarize_assignment(major, dev, want.assignment)
        assert plan.objective_ns == pytest.approx(objective, rel=1e-12)
        assert plan.planned_energy_nj == pytest.approx(energy, rel=1e-12)


class TestBudgetAndMonotonicity:
    def test_budget_safety_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ps = instance(int(rng.integers(0, 10_000)), count=9)
            dev = small_device(dram_mb=int(rng.integers(64, 512)))
            for ratio in (1.0, 0.9, 0.8, 0.7):
                plan = plan_static(ps, dev, ratio, major_threshold=0)
                if not plan.feasible:
                    continue
                report = evaluate(ps, dev, plan)
                budget = plan.energy_budget_nj
                assert report.total_energy_nj <= budget * (1 + 1e-9)
                assert report.capacity_ok

    def test_objective_nonincreasing_in_ratio(self):
        ps = instance(21, count=10)
        dev = small_device(dram_mb=96)
        ratios = [1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7]
        plans = sweep_ratios(ps, dev, ratios, major_threshold=0)
        feasible = [(r, p.objective_ns) for r, p in zip(ratios, plans)
                    if p.feasible]
        assert len(feasible) >= 2
        for (r_hi, f_hi), (r_lo, f_lo) in zip(feasible, feasible[1:]):
            assert r_hi > r_lo
            assert f_hi <= f_lo * (1 + 1e-9)

    def test_all_dram_optimal_when_budget_loose(self):
        ps = instance(5, count=8)
        dev = make_testbed1(dram_capacity=64 * GIB, nvm_capacity=64 * GIB)
        for ratio in (1.0, 1.2):
            plan = plan_static(ps, dev, ratio, major_threshold=0)
            assert all(plan.placements[i] == DRAM for i in ps.ids())


class TestSweep:
    def test_singleton_sweep_equals_plan(self):
        ps = instance(2, count=6)
        dev = small_device()
        assert sweep_ratios(ps, dev, [0.9], major_threshold=0)[0] \
            == plan_static(ps, dev, 0.9, major_threshold=0)

    def test_empty_ratio_list_rejected(self):
        with pytest.raises(ValueError):
            sweep_ratios(instance(2, count=3), small_device(), [])

    def test_per_ratio_markers_not_aborts(self):
        ps = instance(8, count=8)
        dev = small_device(dram_mb=64, nvm_mb=1024)
        ratios = [1.0, 0.7, 0.4, 0.05]
        plans = sweep_ratios(ps, dev, ratios, major_threshold=0)
        assert len(plans) == len(ratios)
        assert plans[0].feasible
        assert not plans[-1].feasible
        for plan in plans:
            if not plan.feasible:
                assert CONSTRAINT_ENERGY in plan.binding_constraints

    def test_every_feasible_plan_passes_evaluator(self):
        ps = instance(13, count=10)
        dev = small_device(dram_mb=128)
        plans = sweep_ratios(ps, dev, [1.0, 0.9, 0.8, 0.75, 0.7, 0.65],
                             major_threshold=0)
        for plan in plans:
            if plan.feasible:
                report = evaluate(ps, dev, plan)
                assert report.capacity_ok
                assert report.budget_ok


class TestMechanismInstance:
    """A big long-lived object with modest misses belongs in NVM.

    The LLC-MPKI rule keeps it in DRAM because its miss rate clears the
    threshold, paying a large refresh bill; the optimizer flips exactly
    that object and wins on both energy and latency.
    """

    def make_instance(self):
        objs = (
            ObjectProfile("graph", 826 * MB, 0.0, 100.0, 100 * MB,
                          1.0e5, 2.0e4, 0.030),
            ObjectProfile("frontier", 96 * MB, 0.0, 100.0, 900 * MB,
                          6.0e6, 1.0e5, 0.210),
            ObjectProfile("visited", 64 * MB, 0.0, 100.0, 700 * MB,
                          4.5e6, 8.0e4, 0.150),
            ObjectProfile("queue", 48 * MB, 0.0, 100.0, 500 * MB,
                          3.0e6, 6.0e4, 0.020),
            ObjectProfile("parents", 32 * MB, 10.0, 90.0, 300 * MB,
                          2.0e6, 4.0e4, 0.015),
        )
        dev = make_testbed1(dram_capacity=2 * GIB, nvm_capacity=16 * GIB)
        return ProfileSet(objs, "bfs-like", 1.0), dev

    def test_planner_flips_the_heavy_object(self):
        ps, dev = self.make_instance()
        threshold_plan = place_mpki_threshold(ps, dev, 0.025)
        assert threshold_plan.placements["graph"] == DRAM
        baseline = evaluate(ps, dev, threshold_plan)

        plan = plan_static(ps, dev, baseline.energy_ratio_vs_all_dram)
        assert plan.feasible
        assert plan.placements["graph"] == NVM
        report = evaluate(ps, dev, plan)
        assert report.latency_objective_ns \
            <= baseline.latency_objective_ns * (1 + 1e-9)
        assert report.total_energy_nj < baseline.total_energy_nj
        # Moving the heavy object saves a multiple of its NVM energy.
        assert dram_energy(ps.get("graph"), dev) \
            > 2.2 * nvm_energy(ps.get("graph"), dev)


class TestDominanceOverThreshold:
    @pytest.mark.parametrize("seed", range(5))
    def test_matched_budget_dominance(self, seed):
        ps = instance(seed, count=9, with_mpki=True)
        dev = small_device(dram_mb=160)
        threshold_plan = place_mpki_threshold(ps, dev, 0.02,
                                              major_threshold=0)
        if not threshold_plan.feasible:
            pytest.skip("threshold baseline infeasible on this draw")
        baseline = evaluate(ps, dev, threshold_plan)
        plan = plan_static(ps, dev, baseline.energy_ratio_vs_all_dram,
                           major_threshold=0)
        assert plan.feasible
        report = evaluate(ps, dev, plan)
        assert report.latency_objective_ns \
            <= baseline.latency_objective_ns * (1 + 1e-9)
        assert report.total_energy_nj \
            <= baseline.total_energy_nj * (1 + 1e-9)


class TestSerialization:
    def test_roundtrip_feasible_plan(self):
        ps = instance(4, count=7, with_mpki=True)
        dev = small_device()
        plan = plan_static(ps, dev, 0.85, major_threshold=0)
        buf = io.StringIO()
        write_plan(plan, buf)
        again = load_plan(io.StringIO(buf.getvalue()))
        assert again == plan

    def test_roundtrip_infeasible_plan(self):
        ps = instance(3, count=6)
        dev = make_testbed1(dram_capacity=0.0, nvm_capacity=16 * GIB)
        plan = plan_static(ps, dev, 1e-6, major_threshold=0)
        assert not plan.feasible
        buf = io.StringIO()
        write_plan(plan, buf)
        again = load_plan(io.StringIO(buf.getvalue()))
        assert again.status == plan.status
        assert again.binding_constraints == plan.binding_constraints
        assert math.isnan(again.objective_ns)

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            load_plan(io.StringIO("not-a-plan\n"))

    def test_minor_budget_flag_roundtrips(self):
        big = ObjectProfile("big", 8 * MB, 0.0, 1.0, 8 * MB, 500.0, 5.0)
        tiny = ObjectProfile("tiny", 4096.0, 0.0, 1.0, 4096.0, 5.0, 0.0)
        plan = plan_static(ProfileSet((big, tiny)), small_device(), 0.9,
                           include_minor_in_budget=True)
        buf = io.StringIO()
        write_plan(plan, buf)
        assert load_plan(io.StringIO(buf.getvalue())) == plan


_HEAD = ("hmms-plan-v1\nstatus=optimal\nratio=0.75\n"
         "major_threshold_bytes=1048576.0\nreserved_dram_bytes=0.0\n"
         "minor_energy_in_budget=0\nobjective_ns=1.0\n"
         "planned_energy_nj=2.0\nenergy_budget_nj=3e+20\nbinding=\n"
         "id,device,major\n")


@pytest.mark.parametrize("table, written", [
    # Minor and major rows out of profile order, the unassigned major ids
    # last, as write_plan writes them: the same bytes come back.
    ("o3,nvm,1\no0,dram,0\no5,dram,1\no4,dram,0\no1,nvm,1\no2,dram,0\n"
     "gone,unassigned,1\nlate,unassigned,1\n", None),
    # Unassigned rows between placed ones are written after them, and an
    # unassigned row that is not major is neither placed nor major.
    ("o3,nvm,1\ngone,unassigned,1\no0,dram,0\nlost,unassigned,0\n"
     "o5,dram,1\no4,dram,0\nlate,unassigned,1\no1,nvm,1\no2,dram,0\n",
     "o3,nvm,1\no0,dram,0\no5,dram,1\no4,dram,0\no1,nvm,1\no2,dram,0\n"
     "gone,unassigned,1\nlate,unassigned,1\n"),
], ids=["in-write-order", "unassigned-between"])
def test_a_hand_written_plan_file_round_trips(table, written):
    ps = ProfileSet(ObjectProfile(f"o{i}", 4 * MB, float(i), 9.0,
                                  (2 if i % 2 else 0.5) * MB, 300.0 * i, 7.0)
                    for i in range(6))
    loaded = load_plan(io.StringIO(_HEAD + table))
    out = io.StringIO()
    write_plan(loaded, out)
    assert out.getvalue() == _HEAD + (written or table)

    rows = [line.split(",") for line in table.splitlines()]
    twin = planner.PlacementPlan(
        {i: d for i, d, _ in rows if d != "unassigned"},
        tuple(i for i, _, f in rows if f == "1"), "optimal", 0.75,
        1048576.0, 1.0, 2.0, 3e20)
    assert (loaded.major_ids, loaded.placements) \
        == (twin.major_ids, twin.placements)
    assert list(loaded.placements) == list(twin.placements)
    dev = small_device()
    assert repr(evaluate(ps, dev, loaded)) == repr(evaluate(ps, dev, twin))
    out = io.StringIO()
    write_plan(twin, out)
    assert out.getvalue() == _HEAD + (written or table)


def test_include_minor_energy_changes_budget():
    big = ObjectProfile("big", 8 * MB, 0.0, 1.0, 8 * MB, 500.0, 5.0)
    tiny = ObjectProfile("tiny", 4096.0, 0.0, 1.0, 4096.0, 5.0, 0.0)
    ps = ProfileSet((big, tiny))
    dev = small_device()
    bare = plan_static(ps, dev, 0.9)
    folded = plan_static(ps, dev, 0.9, include_minor_in_budget=True)
    minor_de = dram_energy(tiny, dev)
    assert folded.energy_budget_nj == pytest.approx(
        0.9 * (dram_energy(big, dev) + minor_de), rel=1e-12)
    assert bare.energy_budget_nj == pytest.approx(
        0.9 * dram_energy(big, dev), rel=1e-12)
    # The evaluator mirrors whichever population the plan was built with.
    for plan in (bare, folded):
        if plan.feasible:
            assert evaluate(ps, dev, plan).budget_ok


def test_diagnosis_names_the_rows_the_solver_finds_infeasible_alone():
    # Half the programs end with a row negated from an earlier one, so the
    # pair can leave an empty range though each of the two fits alone.
    rng = np.random.default_rng(29)
    names = ("r0", "r1", "r2", "r3", "r4", "r5")
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(0, 9))
        m = int(rng.integers(1, 6))
        coeffs = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
        bounds = rng.normal(size=m) * rng.uniform(0.0, 3.0)
        negated = int(rng.integers(0, m)) if rng.random() < 0.5 else None
        if negated is not None:
            coeffs = np.vstack((coeffs, -coeffs[negated]))
            bounds = np.append(bounds, -bounds[negated] - rng.uniform(-1, 1))
            m += 1
        program = ilp.ZeroOneProgram(
            tuple(rng.normal(size=n)),
            tuple((tuple(row), float(b)) for row, b in zip(coeffs, bounds)))
        alone = [i for i, row in enumerate(program.constraints)
                 if ilp.solve(ilp.ZeroOneProgram(program.objective_coeffs,
                                                 (row,))
                              ).status == ilp.STATUS_INFEASIBLE]
        empty = negated is not None and not {negated, m - 1} & set(alone) \
            and bool(program.slack()[negated] + program.slack()[m - 1] < 0)
        rows = sorted(set(alone) | ({negated, m - 1} if empty else set()))
        solution = ilp.solve(program)
        outcomes.add((solution.status, bool(alone), empty))
        named = diagnose_infeasibility(solution, names)
        if solution.status == ilp.STATUS_OPTIMAL:
            assert not rows and named == ()
        else:
            assert named == (tuple(names[i] for i in rows) or names[:m])
    assert {(ilp.STATUS_OPTIMAL, False, False),
            (ilp.STATUS_INFEASIBLE, True, False),
            (ilp.STATUS_INFEASIBLE, False, True),
            (ilp.STATUS_INFEASIBLE, False, False)} <= outcomes


@pytest.mark.parametrize("energy_bound,names", [
    (10.0, ("capacity_dram", "capacity_nvm")),
    (-10.0, planner.CONSTRAINT_NAMES)])
def test_diagnosis_names_a_capacity_range_left_empty(energy_bound, names):
    # Rows 0 and 1 ask 4 <= 2x0 + 3x1 <= 2: each fits alone, the pair does
    # not; the energy row fails alone only with a negative bound.
    program = ilp.ZeroOneProgram(
        (1.0, 1.0), (((2.0, 3.0), 2.0), ((-2.0, -3.0), -4.0),
                     ((1.0, 1.0), energy_bound)))
    solution = ilp.solve(program)
    assert solution.status == ilp.STATUS_INFEASIBLE
    assert diagnose_infeasibility(solution) == names


def test_zero_miss_objects_tie_without_an_exhaustive_search():
    # Objects without LLC misses have objective coefficient 0, so every
    # placement of them ties; the search must cut tied subtrees instead of
    # visiting all 2^40 of them.
    objects = tuple(ObjectProfile(f"z{i:02d}", (i + 1) * MB, 0.0, 4.0,
                                  8 * (i + 1) * MB, 0.0, 0.0)
                    for i in range(40))

    with time_cap(10.0, "plan_static"):
        plan = plan_static(ProfileSet(objects), make_testbed1(), 1.0,
                           major_threshold=0)
    assert plan.status == ilp.STATUS_OPTIMAL
    assert set(plan.placements.values()) == {NVM}


def test_loose_budget_all_dram_optimum_is_found_at_once():
    # At ratio 1.0 with room for everything the optimum puts every object
    # in DRAM; the search must not walk there from the all-NVM leaf one
    # improvement at a time.
    ps = instance(1, count=200)
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=total, nvm_capacity=total)

    with time_cap(1.0, "plan_static"):
        plan = plan_static(ps, dev, 1.0, major_threshold=0)
    assert plan.status == ilp.STATUS_OPTIMAL
    assert set(plan.placements.values()) == {DRAM}


def test_an_over_budget_plan_is_not_called_optimal_when_the_bound_cancels():
    # The energy row's bound is budget - sum of NVM energies. With a
    # write-heavy object that sum is about 4e6 times the budget, so a
    # tolerance relative to the bound would pass the all-DRAM plan, which
    # is 3.8e10 nJ over a 9.69e12 nJ budget.
    ps = ProfileSet((ObjectProfile("o0", 1e12, 0, 1, 1e12, 1e12, 2.09822e17),))
    dev = make_testbed1(dram_capacity=1e12, nvm_capacity=0)
    plan = plan_static(ps, dev, 0.99609375, major_threshold=0)
    assert plan.status == ilp.STATUS_INFEASIBLE
    assert plan.binding_constraints == (CONSTRAINT_ENERGY,)
    # At a budget the all-DRAM plan meets, it is found and passes.
    roomy = plan_static(ps, dev, 1.0, major_threshold=0)
    assert roomy.feasible
    assert evaluate(ps, dev, roomy).budget_ok


def test_a_tiny_budget_keeps_its_own_tolerance_beside_a_huge_coefficient():
    # A's DRAM energy is 5.5e12 nJ, so a row scaled by its largest
    # coefficient had a 1e-12 tolerance floor worth 5.5 nJ: the all-NVM
    # plan (0.736 nJ) passed as optimal against a 1e-6 nJ budget.
    dev = DeviceSpec(dram_capacity=1e12, nvm_capacity=1e12)
    ps = ProfileSet((ObjectProfile("A", 1e9, 0, 1000, 0.1, 1, 0),
                     ObjectProfile("B", 1, 0, 1000, 0.1, 1, 0)))
    all_dram = reduce(add, dram_energy(ps, dev).tolist(), 0)
    plan = plan_static(ps, dev, 1e-6 / all_dram, major_threshold=0)
    assert plan.status == ilp.STATUS_INFEASIBLE
    assert plan.binding_constraints == (CONSTRAINT_ENERGY,)
    roomy = plan_static(ps, dev, 0.74 / all_dram, major_threshold=0)
    assert roomy.status == ilp.STATUS_OPTIMAL
    assert evaluate(ps, dev, roomy).budget_ok


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "the energy row's bound rounds at the ulp of the NVM energies, far "
    "beyond the budget's tolerance"))
def test_an_optimal_plan_meets_its_budget_when_the_row_bound_rounds():
    # o1's NVM energy is about 2.4e10 times the budget, so the row's bound,
    # budget - sum of NVM energies, rounds at far more than the budget's
    # tolerance: an all-DRAM plan 1.2e-4 nJ over a 6410.65 nJ budget passes.
    ps = ProfileSet((
        ObjectProfile("o0", 301.0, 0.0, 0.9941829791588097, 650.0, 99.0,
                      87.27535223784487),
        ObjectProfile("o1", 163.0, 0.0, 0.40950145460475507, 385.0, 55.0,
                      866337445302.387)))
    dev = make_testbed1(dram_capacity=1e15, nvm_capacity=1e15)
    plan = plan_static(ps, dev, 0.9999999819649182, major_threshold=0)
    assert not plan.feasible or evaluate(ps, dev, plan).budget_ok


def test_row_tolerances_follow_the_capacity_or_budget_they_limit():
    ps = ProfileSet((ObjectProfile("a", 4 * MB, 0, 1, 8 * MB, 10.0, 1e7),
                     ObjectProfile("b", 2 * MB, 0, 1, 4 * MB, 20.0, 2e7)))
    dev = small_device(dram_mb=5, nvm_mb=3)
    program = build_placement_program(ps, dev, 0.9, 5 * MB)
    de, ne = dram_energy(ps, dev), nvm_energy(ps, dev)
    budget = 0.9 * reduce(add, de.tolist(), 0)
    # Rows stay in bytes and nJ, their tolerances with them.
    limits = np.array([5 * MB, 3 * MB, budget])
    assert program.tolerances.tolist() == pytest.approx(
        (ilp.REL_TOL * limits).tolist(), rel=1e-12)
    assert not program.tolerances.flags.writeable
    # The energy bound, budget - sum(ne), cancels: it is far larger than
    # the budget it is checked against.
    _, _, b = program.arrays()
    assert abs(b[2]) > 10 * limits[2]


@pytest.mark.parametrize("include_minor", [False, True])
def test_the_energy_row_is_checked_against_the_budget_the_plan_reports(
        include_minor):
    # The program used to add the all-DRAM energies in numpy's pairwise
    # order and the plan in sequence: at seed 1 and ratio 0.8 the row's
    # tolerance was 12.077314258950892, that of the budget ...894.
    dev = make_testbed1()
    for seed in range(4):
        ps = generate_synthetic(
            GeneratorSpec(count=24, size_range=(2 << 20, 16 << 20)), seed)
        major, minor = filter_major(ps, DEFAULT_MAJOR_THRESHOLD)
        extra = reduce(add, dram_energy(minor, dev).tolist(), 0) \
            if include_minor else 0.0
        for ratio in (0.9, 0.8, 0.7, 0.6):
            plan = plan_static(ps, dev, ratio,
                               include_minor_in_budget=include_minor)
            program = build_placement_program(
                major, dev, ratio, dev.dram_capacity,
                extra_budget_energy=extra)
            assert program.tolerances[2] == ilp._tol(plan.energy_budget_nj)


def test_a_plan_reports_the_budget_its_energy_row_was_built_with(monkeypatch):
    # The program and the plan take the budget from one computation, so the
    # plan's energy_budget_nj is the energy row's limit bit for bit.
    limits = []
    build = planner.build_program

    def recording(objects, on_dram, stay, move, energy_limit, *args, **kw):
        limits.append(energy_limit)
        return build(objects, on_dram, stay, move, energy_limit, *args, **kw)

    monkeypatch.setattr(planner, "build_program", recording)
    dev = make_testbed1()
    statuses = set()
    for seed in range(3):
        ps = generate_synthetic(
            GeneratorSpec(count=24, size_range=(2 << 20, 16 << 20)), seed)
        for include_minor in (False, True):
            for ratio in (1.0, 0.8, 0.6, 0.3):
                plan = plan_static(ps, dev, ratio,
                                   include_minor_in_budget=include_minor)
                statuses.add((plan.status, include_minor))
                assert plan.energy_budget_nj == limits.pop()
    assert not limits
    assert statuses == {(status, include_minor)
                        for status in (ilp.STATUS_OPTIMAL,
                                       ilp.STATUS_INFEASIBLE)
                        for include_minor in (False, True)}


def test_a_plan_survives_copy_deepcopy_and_pickle_without_its_dict():
    ps = instance(4, count=7, with_mpki=True)
    plan = plan_static(ps, small_device(), 0.85, major_threshold=0)
    written = io.StringIO()
    write_plan(plan, written)
    copies = (copy.copy(plan), copy.deepcopy(plan),
              pickle.loads(pickle.dumps(plan)))
    for twin in copies:
        out = io.StringIO()
        write_plan(twin, out)
        assert out.getvalue() == written.getvalue()
    # Copying asks the plan for other names (__setstate__, __deepcopy__),
    # which it refuses, and none of them builds the per-object dict.
    for twin in (plan, *copies):
        assert "placements" not in twin.__dict__
    assert all(twin == plan for twin in copies)
    with pytest.raises(AttributeError, match="no attribute 'placement'"):
        plan.placement


def test_a_loaded_plan_survives_copy_deepcopy_and_pickle_unread():
    ps = instance(4, count=7, with_mpki=True)
    written = io.StringIO()
    write_plan(plan_static(ps, small_device(), 0.85, major_threshold=0),
               written)
    plan = load_plan(io.StringIO(written.getvalue()))
    copies = (copy.copy(plan), copy.deepcopy(plan),
              pickle.loads(pickle.dumps(plan)))
    # None of the copies builds the columns, and each builds them on its
    # first read and drops the table they were made of.
    for twin in (plan, *copies):
        assert "_rows" not in twin.__dict__
    for twin in copies:
        out = io.StringIO()
        write_plan(twin, out)
        assert out.getvalue() == written.getvalue()
        assert "_rows" in twin.__dict__ and "_table" not in twin.__dict__
    assert all(twin == plan for twin in copies)


def test_write_plan_refuses_a_device_the_plan_format_does_not_define(
        tmp_path):
    # evaluate and migrate refuse such a plan up front ("object 'b' has no
    # concrete device"), and load_plan the row write_plan makes of it.
    for device in ("hbm", "DRAM"):
        plan = planner.PlacementPlan({"a": DRAM, "b": device}, ("a", "b"),
                                     "optimal", 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError,
                           match=f"unknown device {device!r} for 'b'|"
                                 "object 'b' has no concrete device"):
            write_plan(plan, io.StringIO())
    # Nor a status or minor-energy flag load_plan would refuse, and it
    # raises load_plan's error before it opens the file.
    path = tmp_path / "p.plan"
    for status, minor, message in (
            ("limit", False, "status is not optimal or infeasible: 'limit'"),
            ("optimal", 2, "minor_energy_in_budget is not 0 or 1: '2'")):
        plan = planner.PlacementPlan({"a": DRAM}, ("a",), status, 1.0, 0.0,
                                     0.0, 0.0, 0.0,
                                     minor_energy_in_budget=minor)
        with pytest.raises(ValueError) as err:
            write_plan(plan, path)
        assert str(err.value) == message
        assert not path.exists()
