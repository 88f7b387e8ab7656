import dataclasses
import io
from functools import reduce
from operator import add

import numpy as np
import pytest

import memplan.migration
from memplan import ilp
from memplan.baselines import place_all_nvm
from memplan.energy import (DeviceSpec, GIB, dram_energy, dram_latency,
                            nvm_energy, nvm_latency)
from memplan.energy import testbed1 as make_testbed1
from memplan.migration import (MigrationRequest, build_migration_program,
                               migration_energies, migration_latency,
                               migration_times, plan_migration, price_live,
                               write_migration_plan)
from memplan.planner import (CONSTRAINT_ENERGY, DRAM, NVM, TRANSIENT_NAMES,
                             CapacityError, PlacementPlan,
                             diagnose_infeasibility, plan_static)
from memplan.profiles import (GeneratorSpec, ObjectProfile, ProfileSet,
                              generate_synthetic)

MB = 1 << 20


def live_obj(object_id="m", size=8 * MB, alloc=0.0, dealloc=10.0,
             av=16 * MB, misses=5000.0, dirty=200.0):
    return ObjectProfile(object_id, size, alloc, dealloc, av, misses, dirty)


def raw_copy_cost(obj, dev, copy_time_ns):
    # Whole-object read at the source plus write at the destination, plus
    # DRAM refresh accrued while the copy runs; recomputed from raw fields.
    per_byte = (dev.dram_act_pre + dev.dram_rw
                + dev.nvm_act_pre + dev.nvm_rba) * obj.size
    refresh = dev.dram_ref / dev.refresh_period * obj.size * copy_time_ns * 1e-9
    return per_byte + refresh


class TestMigrationTimes:
    def test_single_block(self):
        dev = make_testbed1()
        obj = live_obj(size=dev.cache_block_size)
        to_nvm, to_dram = migration_times(obj, dev)
        assert to_nvm == 200.0 + 1440.0
        assert to_dram == 640.0 + 200.0

    def test_block_granularity_rounds_up(self):
        dev = make_testbed1()
        obj = live_obj(size=dev.cache_block_size + 1)
        to_nvm, _ = migration_times(obj, dev)
        assert to_nvm == 2 * (200.0 + 1440.0)

    def test_effective_latency_fallback(self):
        dev = DeviceSpec(dram_latency=100.0, nvm_latency=500.0)
        obj = live_obj(size=64.0)
        to_nvm, to_dram = migration_times(obj, dev)
        assert to_nvm == 100.0 + 500.0
        assert to_dram == 500.0 + 100.0


class TestMigrationEnergies:
    def test_at_allocation_time_everything_ahead(self):
        dev = make_testbed1()
        obj = live_obj(alloc=2.0, dealloc=12.0)
        energy = migration_energies(obj, dev, 2.0)
        assert energy.dram_to_nvm \
            == energy.cost_dram_to_nvm + nvm_energy(obj, dev)
        assert energy.nvm_to_dram \
            == energy.cost_nvm_to_dram + dram_energy(obj, dev)

    def test_at_death_pure_waste(self):
        dev = make_testbed1()
        obj = live_obj(alloc=2.0, dealloc=12.0)
        energy = migration_energies(obj, dev, 12.0)
        assert energy.dram_to_nvm \
            == dram_energy(obj, dev) + energy.cost_dram_to_nvm
        assert energy.nvm_to_dram \
            == nvm_energy(obj, dev) + energy.cost_nvm_to_dram

    def test_midlife_termwise_oracle(self):
        dev = make_testbed1()
        obj = live_obj(alloc=1.0, dealloc=9.0, size=3 * MB + 17)
        t = 3.5
        energy = migration_energies(obj, dev, t)
        time_dn, time_nd = migration_times(obj, dev)
        elapsed = (t - 1.0) / 8.0
        remaining = (9.0 - t) / 8.0
        de = (3.07 + 1.19) * obj.accessed_volume \
            + 0.35 / 0.064 * obj.size * 8.0
        ne = (2.68 + 1.00) * obj.accessed_volume \
            + 2.83 * obj.dirty_blocks * 64.0
        want_dn = de * elapsed + raw_copy_cost(obj, dev, time_dn) \
            + ne * remaining
        want_nd = ne * elapsed + raw_copy_cost(obj, dev, time_nd) \
            + de * remaining
        assert energy.dram_to_nvm == pytest.approx(want_dn, rel=1e-12)
        assert energy.nvm_to_dram == pytest.approx(want_nd, rel=1e-12)

    def test_outside_lifetime_rejected(self):
        dev = make_testbed1()
        obj = live_obj(alloc=2.0, dealloc=4.0)
        with pytest.raises(ValueError, match="not allocated"):
            migration_energies(obj, dev, 1.0)
        with pytest.raises(ValueError, match="not allocated"):
            migration_energies(obj, dev, 4.5)


class TestMigrationLatency:
    def test_at_allocation_time(self):
        dev = make_testbed1()
        obj = live_obj(alloc=2.0, dealloc=12.0)
        latency = migration_latency(obj, dev, 2.0)
        assert latency.dram_to_nvm \
            == latency.time_dram_to_nvm + 640.0 * obj.llc_misses
        assert latency.nvm_to_dram \
            == latency.time_nvm_to_dram + 200.0 * obj.llc_misses

    def test_midlife_termwise_oracle(self):
        dev = make_testbed1()
        obj = live_obj(alloc=0.0, dealloc=20.0, misses=12345.0)
        t = 7.0
        latency = migration_latency(obj, dev, t)
        time_dn, time_nd = migration_times(obj, dev)
        assert latency.dram_to_nvm == pytest.approx(
            200.0 * 12345.0 * 0.35 + time_dn + 640.0 * 12345.0 * 0.65,
            rel=1e-12)
        assert latency.nvm_to_dram == pytest.approx(
            640.0 * 12345.0 * 0.35 + time_nd + 200.0 * 12345.0 * 0.65,
            rel=1e-12)


def migration_instance(seed, count=8):
    # Every object alive at t=5 so the whole set is in play.
    return generate_synthetic(
        GeneratorSpec(count=count, size_range=(2 * MB, 24 * MB),
                      alloc_range=(0.0, 4.0), lifetime_range=(8.0, 20.0)),
        seed)


def current_plan(ps, dev, ratio=0.95):
    plan = plan_static(ps, dev, ratio, major_threshold=0)
    assert plan.feasible
    return plan


class TestPlanMigration:
    def test_noop_identity(self):
        ps = migration_instance(1)
        dev = make_testbed1(dram_capacity=GIB, nvm_capacity=2 * GIB)
        current = current_plan(ps, dev)
        request = MigrationRequest(time=5.0, new_ratio=0.9, strict=False)
        plan = plan_migration(ps, dev, current, request,
                              allow_migration=False)
        stay = reduce(add, (dram_energy(o, dev)
                            if current.placements[o.id] == DRAM
                            else nvm_energy(o, dev) for o in ps), 0.0)
        assert plan.e_total_nj == stay
        assert plan.migrated_ids == ()

    def test_best_effort_never_worse_than_staying(self):
        rng = np.random.default_rng(31)
        dev = make_testbed1(dram_capacity=256 * MB, nvm_capacity=GIB)
        for _ in range(10):
            ps = migration_instance(int(rng.integers(0, 10_000)))
            current = current_plan(ps, dev)
            request = MigrationRequest(time=float(rng.uniform(4.0, 7.0)),
                                       new_ratio=0.5, strict=False)
            plan = plan_migration(ps, dev, current, request)
            assert plan.feasible
            stay = sum(dram_energy(o, dev) if current.placements[o.id] == DRAM
                       else nvm_energy(o, dev)
                       for o in ps if o.live_at(request.time))
            assert plan.e_total_nj <= stay * (1 + 1e-9)
            assert plan.requirement_nj == pytest.approx(stay, rel=1e-12)

    def test_strict_meets_new_budget(self):
        dev = make_testbed1(dram_capacity=512 * MB, nvm_capacity=2 * GIB)
        ps = migration_instance(7, count=9)
        current = current_plan(ps, dev, ratio=1.0)
        request = MigrationRequest(time=5.0, new_ratio=0.8, strict=True)
        plan = plan_migration(ps, dev, current, request)
        assert plan.feasible
        live_de = sum(dram_energy(o, dev) for o in ps if o.live_at(5.0))
        assert plan.e_total_nj <= 0.8 * live_de * (1 + 1e-9)
        assert plan.requirement_nj == pytest.approx(0.8 * live_de, rel=1e-12)

    def test_strict_infeasible_retains_placement(self):
        dev = make_testbed1(dram_capacity=512 * MB, nvm_capacity=2 * GIB)
        ps = migration_instance(7, count=6)
        current = current_plan(ps, dev, ratio=1.0)
        request = MigrationRequest(time=5.0, new_ratio=1e-6, strict=True)
        plan = plan_migration(ps, dev, current, request)
        assert not plan.feasible
        assert plan.binding_constraints
        assert plan.migrated_ids == ()
        for decision in plan.decisions:
            assert decision.target_device == decision.current_device

    def test_dead_and_future_objects_partitioned(self):
        dev = make_testbed1(dram_capacity=GIB, nvm_capacity=2 * GIB)
        dead = live_obj("dead", alloc=0.0, dealloc=2.0)
        live = live_obj("live", alloc=0.0, dealloc=10.0)
        future = live_obj("future", alloc=8.0, dealloc=12.0)
        ps = ProfileSet((dead, live, future))
        current = plan_static(ps, dev, 1.0, major_threshold=0)
        request = MigrationRequest(time=5.0, new_ratio=0.9, strict=False)
        plan = plan_migration(ps, dev, current, request)
        assert plan.dead_ids == ("dead",)
        assert plan.future_ids == ("future",)
        assert tuple(d.id for d in plan.decisions) == ("live",)
        expected_dead = dram_energy(dead, dev) \
            if current.placements["dead"] == DRAM else nvm_energy(dead, dev)
        assert plan.dead_energy_nj == expected_dead
        assert plan.future_plan is not None
        assert "future" in plan.future_plan.placements

    def test_unknown_live_object_rejected(self):
        dev = make_testbed1()
        ps = ProfileSet((live_obj("a"),))
        current = plan_static(ps, dev, 1.0, major_threshold=0)
        bigger = ProfileSet((live_obj("a"), live_obj("b")))
        request = MigrationRequest(time=5.0, new_ratio=0.9)
        with pytest.raises(ValueError, match="'b'"):
            plan_migration(bigger, dev, current, request)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            MigrationRequest(time=-1.0, new_ratio=0.5)
        with pytest.raises(ValueError):
            MigrationRequest(time=1.0, new_ratio=0.0)

    def test_transient_capacity_blocks_in_flight_overlap(self):
        from memplan.planner import PlacementPlan
        # The cold resident must leave DRAM to meet the budget and the hot
        # object wants its spot, but both copies in flight need 110 MB of
        # DRAM against a 100 MB device.
        cold = ObjectProfile("cold", 90 * MB, 0.0, 100.0, 20 * MB, 1e4, 1e3)
        hot = ObjectProfile("hot", 20 * MB, 0.0, 20.0, 400 * MB, 5e6, 1e5)
        ps = ProfileSet((cold, hot))
        dev = make_testbed1(dram_capacity=100 * MB, nvm_capacity=1024 * MB)
        current = PlacementPlan(
            placements={"cold": DRAM, "hot": NVM},
            major_ids=("cold", "hot"), status="optimal", ratio=1.0,
            major_threshold=0.0, objective_ns=0.0, planned_energy_nj=0.0,
            energy_budget_nj=float("inf"))
        request = MigrationRequest(time=10.0, new_ratio=0.2, strict=True)
        swap = plan_migration(ps, dev, current, request)
        assert swap.migrated_ids == ("cold", "hot")
        staged = plan_migration(ps, dev, current, request,
                                transient_capacity=True)
        assert staged.migrated_ids == ("cold",)


def enumerate_migrations(live, dev, on_dram, requirement, dram_free,
                         nvm_capacity, transient=False):
    """Independent brute force over migration vectors (lexicographic).

    With ``transient`` a moving object holds both devices while its copy
    is in flight, so the bytes in flight must fit as well as the result.
    """
    n = len(live)
    stay_e, mig_e, stay_l, mig_l, sizes = [], [], [], [], []
    for obj, here in zip(live, on_dram):
        energy = migration_energies(obj, dev, ENUM_T)
        latency = migration_latency(obj, dev, ENUM_T)
        sizes.append(obj.size)
        if here:
            stay_e.append(dram_energy(obj, dev))
            mig_e.append(energy.dram_to_nvm)
            stay_l.append(dev.dram_latency * obj.llc_misses)
            mig_l.append(latency.dram_to_nvm)
        else:
            stay_e.append(nvm_energy(obj, dev))
            mig_e.append(energy.nvm_to_dram)
            stay_l.append(dev.nvm_latency * obj.llc_misses)
            mig_l.append(latency.nvm_to_dram)
    best = None
    best_x = None
    for code in range(1 << n):
        x = [(code >> (n - 1 - i)) & 1 for i in range(n)]
        dram_bytes = sum(s for s, here, xi in zip(sizes, on_dram, x)
                         if (here and not xi) or (not here and xi))
        nvm_bytes = sum(sizes) - dram_bytes
        if dram_bytes > dram_free * (1 + 1e-9):
            continue
        if nvm_bytes > nvm_capacity * (1 + 1e-9):
            continue
        if transient:
            # Every object on a device before or after the move is there
            # while the copies run.
            copy_dram = sum(s for s, here, xi in zip(sizes, on_dram, x)
                            if here or xi)
            copy_nvm = sum(s for s, here, xi in zip(sizes, on_dram, x)
                           if not here or xi)
            if copy_dram > dram_free * (1 + 1e-9):
                continue
            if copy_nvm > nvm_capacity * (1 + 1e-9):
                continue
        e_total = sum(m if xi else s
                      for m, s, xi in zip(mig_e, stay_e, x))
        if e_total > requirement + 1e-9 * abs(requirement):
            continue
        f = sum(m if xi else s for m, s, xi in zip(mig_l, stay_l, x))
        if best is None or f < best - 1e-9 * abs(best):
            best = f
            best_x = tuple(x)
    return best, best_x


ENUM_T = 5.0


class TestMigrationOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration(self, seed):
        dev = make_testbed1(dram_capacity=96 * MB, nvm_capacity=512 * MB)
        ps = migration_instance(seed, count=8)
        current = plan_static(ps, dev, 1.0, major_threshold=0)
        assert current.feasible
        request = MigrationRequest(time=ENUM_T, new_ratio=0.75, strict=True)
        plan = plan_migration(ps, dev, current, request)

        live = [o for o in ps if o.live_at(ENUM_T)]
        on_dram = [current.placements[o.id] == DRAM for o in live]
        live_de = sum(dram_energy(o, dev) for o in live)
        best_f, best_x = enumerate_migrations(
            live, dev, on_dram, 0.75 * live_de, dev.dram_capacity,
            dev.nvm_capacity)
        if best_x is None:
            assert not plan.feasible
            return
        assert plan.feasible
        got = tuple(int(d.migrate) for d in plan.decisions)
        assert got == best_x
        assert plan.objective_ns == pytest.approx(best_f, rel=1e-9)

    def test_transient_capacity_matches_enumeration(self):
        # Cold objects fill a DRAM barely larger than them and hot ones wait
        # on NVM, as in the cold/hot pair above: the optimum often swaps
        # them, which copies in flight may not fit.
        optima = []
        for seed in range(8):
            ps, dev, current, ratio = swap_prone_instance(seed)
            request = MigrationRequest(time=ENUM_T, new_ratio=ratio)
            on_dram = [current.placements[o.id] == DRAM for o in ps]
            requirement = ratio * sum(dram_energy(o, dev) for o in ps)
            for transient in (False, True):
                plan = plan_migration(ps, dev, current, request,
                                      transient_capacity=transient)
                best_f, best_x = enumerate_migrations(
                    list(ps), dev, on_dram, requirement, dev.dram_capacity,
                    dev.nvm_capacity, transient)
                optima.append(best_x)
                if best_x is None:
                    assert not plan.feasible
                    continue
                assert plan.feasible
                assert tuple(int(d.migrate) for d in plan.decisions) \
                    == best_x
                assert plan.objective_ns == pytest.approx(best_f, rel=1e-9)
        assert any(plain != staged
                   for plain, staged in zip(optima[::2], optima[1::2]))


def swap_prone_instance(seed, count=7):
    """Cold objects on a nearly full DRAM, hot ones on NVM, all live at 5 s."""
    rng = np.random.default_rng(seed)
    objects, placements = [], {}
    for i in range(count):
        hot = i % 2 == 1
        size = float(rng.uniform(4, 40)) * MB
        volume = size * float(rng.uniform(8, 30) if hot
                              else rng.uniform(0.1, 1))
        misses = float(rng.uniform(1e6, 5e6) if hot else rng.uniform(1e3, 1e4))
        objects.append(ObjectProfile(f"o{i}", size, 0.0,
                                     float(rng.uniform(6, 60)), volume,
                                     misses, 0.1 * misses))
        placements[f"o{i}"] = NVM if hot else DRAM
    ps = ProfileSet(tuple(objects))
    resident = sum(o.size for o in objects if placements[o.id] == DRAM)
    dev = make_testbed1(dram_capacity=resident * float(rng.uniform(1.0, 1.3)),
                        nvm_capacity=1024 * MB)
    current = PlacementPlan(placements, ps.ids(), "optimal", 1.0, 0.0, 0.0,
                            0.0, float("inf"))
    return ps, dev, current, float(rng.uniform(0.2, 0.9))


def test_serialization_contains_table_and_summary():
    dev = make_testbed1(dram_capacity=GIB, nvm_capacity=2 * GIB)
    ps = migration_instance(2, count=5)
    current = current_plan(ps, dev)
    request = MigrationRequest(time=5.0, new_ratio=0.85, strict=True)
    plan = plan_migration(ps, dev, current, request)
    buf = io.StringIO()
    write_migration_plan(plan, buf)
    text = buf.getvalue()
    assert text.startswith("hmms-migration-v1\n")
    assert "id,from,to,migrate,migce_nJ,migct_ns" in text
    assert f"status={plan.status}" in text
    assert "requirement_nj=" in text
    for decision in plan.decisions:
        assert text.count(f"{decision.id},{decision.current_device},") == 1


def _migration_text(request):
    dev = make_testbed1(dram_capacity=GIB, nvm_capacity=2 * GIB)
    ps = migration_instance(2, count=5)
    buf = io.StringIO()
    write_migration_plan(
        plan_migration(ps, dev, current_plan(ps, dev), request), buf)
    return buf.getvalue()


def test_a_request_of_numpy_or_int_numbers_writes_python_float_bytes():
    # A ratio from np.linspace is a numpy float, whose repr names numpy; the
    # summary spells every number as write_plan does, an int as a float.
    text = _migration_text(MigrationRequest(3.0, 0.8))
    assert "\ntime_s=3.0\nnew_ratio=0.8\n" in text
    wide = _migration_text(MigrationRequest(np.float64(3.0), np.float64(0.8)))
    assert "np." not in wide
    assert wide == text
    assert _migration_text(MigrationRequest(3, 0.8)) == text
    assert "\ntime_s=5.0\nnew_ratio=1.0\n" in _migration_text(
        MigrationRequest(5, 1))


def test_a_migration_before_any_free_writes_a_float_dead_energy():
    # Nothing is freed by t = 0, so the dead energy is an empty total: 0.0.
    text = _migration_text(MigrationRequest(0.0, 0.8))
    assert "\ndead_energy_nj=0.0\ndead_ids=\n" in text


def fractional_set(seed, count=2000):
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(count):
        alloc = float(rng.uniform(0.0, 5.0))
        objects.append(ObjectProfile(
            f"f{i}", float(rng.uniform(1.0, 1e8)), alloc,
            alloc + float(rng.uniform(0.01, 10.0)),
            float(rng.uniform(0.0, 1e9)), float(rng.uniform(0.0, 1e6)),
            float(rng.uniform(0.0, 1e4))))
    return ProfileSet(tuple(objects))


@pytest.mark.parametrize("dev", [
    make_testbed1(),
    DeviceSpec(cache_block_size=48.0, refresh_period=0.05,
               nvm_write_latency=1000.0)])
def test_set_pricing_is_bit_identical_to_per_object_pricing(dev):
    ps = fractional_set(5)
    for price in (dram_energy, nvm_energy, dram_latency, nvm_latency):
        assert price(ps, dev).tolist() == [price(o, dev) for o in ps]
    t = 4.0
    live = ProfileSet(tuple(o for o in ps if o.live_at(t)))
    assert len(live) > 500
    per_object = [migration_times(o, dev) for o in live]
    assert all(type(v) is float for pair in per_object for v in pair)
    assert [c.tolist() for c in migration_times(live, dev)] \
        == [list(column) for column in zip(*per_object)]
    for formula in (migration_energies, migration_latency):
        columns = formula(live, dev, t)
        per_object = [formula(o, dev, t) for o in live]
        for field in dataclasses.fields(columns):
            values = [getattr(result, field.name) for result in per_object]
            assert all(type(v) is float for v in values)
            assert getattr(columns, field.name).tolist() == values


def test_set_pricing_names_the_first_object_not_allocated():
    ps = ProfileSet((live_obj("a", alloc=0.0), live_obj("b", alloc=3.0),
                     live_obj("c", alloc=4.0)))
    dev = make_testbed1()
    for formula in (migration_energies, migration_latency):
        with pytest.raises(ValueError, match="'b' is not allocated at t=2.0"):
            formula(ps, dev, 2.0)
    assert "objects" not in vars(ps)


def test_strict_transient_migration_names_the_overflowing_dram_row():
    ps = ProfileSet(tuple(live_obj(f"m{i}") for i in range(3)))
    dev = make_testbed1(dram_capacity=16 * MB, nvm_capacity=GIB)
    # The current plan holds 24 MB in a 16 MB DRAM.
    current = PlacementPlan({o.id: DRAM for o in ps}, ps.ids(), "optimal",
                            1.0, 0.0, 0.0, 0.0, 0.0)
    request = MigrationRequest(time=5.0, new_ratio=2.0, strict=True)
    plan = plan_migration(ps, dev, current, request, transient_capacity=True)
    assert not plan.feasible
    assert plan.binding_constraints == ("transient_dram",)
    assert plan.migrated_ids == ()

    costs = price_live(ps, dev, [True] * 3, 5.0)
    requirement = 2.0 * float(dram_energy(ps, dev).sum())
    program = build_migration_program(ps, dev, costs, requirement,
                                      dev.dram_capacity,
                                      transient_capacity=True)
    assert diagnose_infeasibility(ilp.solve(program), TRANSIENT_NAMES) \
        == ("transient_dram",)
    # Without the copy-time rows, moving one object out is enough.
    assert plan_migration(ps, dev, current, request).feasible


def test_a_tiny_strict_requirement_is_not_met_within_a_scaled_tolerance():
    # The energy row's largest coefficient is about 5.5e12 nJ; scaled by
    # it, the row once let the 0.736 nJ stay-put vector pass against a
    # 5.5e-8 nJ requirement.
    dev = DeviceSpec(dram_capacity=1e12, nvm_capacity=1e12)
    ps = ProfileSet((ObjectProfile("A", 1e9, 0, 1000, 0.1, 1, 0),
                     ObjectProfile("B", 1, 0, 1000, 0.1, 1, 0)))
    current = place_all_nvm(ps, dev, major_threshold=0)
    plan = plan_migration(ps, dev, current,
                          MigrationRequest(time=10.0, new_ratio=1e-20))
    assert plan.status == ilp.STATUS_INFEASIBLE
    assert plan.binding_constraints == (CONSTRAINT_ENERGY,)
    assert [(d.target_device, d.migrate) for d in plan.decisions] \
        == [(NVM, False)] * 2


@pytest.mark.parametrize("reserve", [float("nan"), -1e15])
def test_a_current_plan_with_a_bad_reserve_is_rejected(reserve):
    # The set of `memplan generate --count 10 --seed 7 --skew-count 3
    # --skew-share 0.9 --with-mpki`; `load_plan` rejects such a reserve in
    # a plan file, and `plan_migration` in a plan built in code.
    ps = generate_synthetic(GeneratorSpec(count=10, skew_count=3,
                                          skew_share=0.9, with_mpki=True), 7)
    dev = make_testbed1(dram_capacity=0.05 * GIB, nvm_capacity=1 * GIB)
    current = dataclasses.replace(plan_static(ps, dev, 1.0, 0),
                                  reserved_dram_bytes=reserve)
    with pytest.raises(ValueError) as err:
        plan_migration(ps, dev, current,
                       MigrationRequest(time=4.0, new_ratio=0.9))
    assert str(err.value) == \
        f"reserved_dram_bytes must be finite and >= 0, got {reserve!r}"


def test_live_minor_objects_and_the_reserve_must_fit_in_dram():
    # "tiny" is minor (4 KB accessed) but 4 MB large; "gone" is minor too
    # and freed before the request.
    big = live_obj("big")
    tiny = ObjectProfile("tiny", 4 * MB, 0.0, 10.0, 4096.0, 5.0, 0.0)
    gone = ObjectProfile("gone", 64 * MB, 0.0, 1.0, 4096.0, 5.0, 0.0)
    ps = ProfileSet((big, tiny, gone))
    current = plan_static(ps, make_testbed1(dram_capacity=GIB), 1.0)
    assert current.major_ids == ("big",)
    request = MigrationRequest(time=5.0, new_ratio=0.9)
    roomy = make_testbed1(dram_capacity=5 * MB, nvm_capacity=GIB)
    assert plan_migration(ps, roomy, current, request).feasible
    reserved = dataclasses.replace(current, reserved_dram_bytes=2 * MB)
    for plan, dev in ((current, make_testbed1(dram_capacity=3 * MB)),
                      (reserved, roomy)):
        with pytest.raises(CapacityError, match="^live minor objects and "
                           "reservation exceed DRAM capacity$"):
            plan_migration(ps, dev, plan, request)


def test_pricing_live_objects_checks_and_times_them_once(monkeypatch):
    calls = {"_check_live": 0, "migration_times": 0}
    for name in calls:
        original = getattr(memplan.migration, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(memplan.migration, name, counted)
    ps = migration_instance(3, count=12)
    live = ps.take(ps.live_at(ENUM_T))
    assert len(live) > 1
    dev = make_testbed1()
    costs = price_live(live, dev, [True, False] * (len(live) // 2)
                       + [True] * (len(live) % 2), ENUM_T)
    assert calls == {"_check_live": 1, "migration_times": 1}
    energy = migration_energies(live, dev, ENUM_T)
    latency = migration_latency(live, dev, ENUM_T)
    assert costs.move_energy.tolist() == np.where(
        costs.on_dram, energy.dram_to_nvm, energy.nvm_to_dram).tolist()
    assert costs.copy_time.tolist() == np.where(
        costs.on_dram, latency.time_dram_to_nvm,
        latency.time_nvm_to_dram).tolist()


def test_a_requested_companion_plan_is_made_for_no_future_objects(
        monkeypatch):
    plan_static_calls = []
    original = memplan.planner.plan_static

    def counted(*args, **kwargs):
        plan_static_calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(memplan.planner, "plan_static", counted)
    ps = ProfileSet(tuple(live_obj(f"m{i}") for i in range(3)))
    dev = make_testbed1(dram_capacity=GIB, nvm_capacity=GIB)
    current = plan_static(ps, dev, 1.0, major_threshold=0)
    request = MigrationRequest(time=5.0, new_ratio=0.9)
    plan = plan_migration(ps, dev, current, request)
    assert plan.future_ids == () and len(plan_static_calls) == 1
    assert plan.future_plan.status == ilp.STATUS_OPTIMAL
    assert plan.future_plan.placements == {}
    assert plan_migration(ps, dev, current, request,
                          plan_future=False).future_plan is None


def test_a_companion_plan_whose_pinned_objects_overflow_dram_is_infeasible():
    # "late" is minor and allocated after t; the live object leaves 4 MB of
    # DRAM, too little for its 6 MB.
    late = ObjectProfile("late", 6 * MB, 6.0, 9.0, 4096.0, 5.0, 0.0)
    big = live_obj("big", size=12 * MB)
    ps = ProfileSet((big, late, live_obj("future", alloc=7.0)))
    dev = make_testbed1(dram_capacity=16 * MB, nvm_capacity=GIB)
    current = PlacementPlan({"big": DRAM, "late": DRAM, "future": NVM},
                            ("big", "future"), "optimal", 1.0, 1 * MB, 0.0,
                            0.0, 0.0)
    request = MigrationRequest(time=5.0, new_ratio=2.0)
    plan = plan_migration(ps, dev, current, request)
    assert plan.future_ids == ("future",)
    assert plan.migrated_ids == ()
    assert plan.future_plan.status == ilp.STATUS_INFEASIBLE
    assert plan.future_plan.binding_constraints == ("capacity_dram",)
    assert plan.future_plan.ratio == 2.0
    assert plan.future_plan.major_threshold == 1 * MB
    assert plan.future_plan.placements == {}


# (seed of swap_prone_instance, strict, transient capacity): a strict, a
# best-effort and a transient request that each move some objects, and a
# strict one that is infeasible.
COLUMN_CASES = {"strict": (3, True, False), "best-effort": (3, False, False),
                "transient": (3, True, True), "infeasible": (2, True, False)}


def _column_case(name):
    seed, strict, transient = COLUMN_CASES[name]
    ps, dev, current, ratio = swap_prone_instance(seed)
    request = MigrationRequest(time=ENUM_T, new_ratio=ratio, strict=strict)
    return plan_migration(ps, dev, current, request,
                          transient_capacity=transient)


@pytest.mark.parametrize("name", COLUMN_CASES)
def test_decisions_are_built_from_the_plan_columns(name):
    plan = _column_case(name)
    assert plan.feasible == (name != "infeasible")
    assert len(plan.migrated_ids) > 0 or not plan.feasible
    assert [(d.id, d.current_device == DRAM, d.migrate, d.migration_cost_nj,
             d.migration_time_ns) for d in plan.decisions] \
        == list(zip(plan.live_ids, plan.on_dram, plan.migrate,
                    plan.migration_cost_nj, plan.migration_time_ns))
    for d in plan.decisions:
        assert d.current_device in (DRAM, NVM)
        assert (d.target_device != d.current_device) == d.migrate
        if not d.migrate:
            assert d.migration_cost_nj == d.migration_time_ns == 0.0
        else:
            assert d.migration_cost_nj > 0 and d.migration_time_ns > 0
    assert plan.migrated_ids == tuple(d.id for d in plan.decisions
                                      if d.migrate)
    assert plan.decisions is plan.decisions
    assert all(type(x) is bool for x in plan.on_dram + plan.migrate)
    # The columns are tuples, so plans compare and hash by value; the
    # decisions read above are not a field.
    again = _column_case(name)
    assert again == plan
    assert hash(dataclasses.replace(again, future_plan=None)) \
        == hash(dataclasses.replace(plan, future_plan=None))

    buf = io.StringIO()
    write_migration_plan(plan, buf)
    header, table = buf.getvalue().split("id,from,to,migrate,migce_nJ,"
                                         "migct_ns\n")
    assert table == "".join(
        f"{d.id},{d.current_device},{d.target_device},{int(d.migrate)},"
        f"{d.migration_cost_nj!r},{d.migration_time_ns!r}\n"
        for d in plan.decisions)


def test_planning_and_writing_a_migration_build_no_decision(monkeypatch):
    built = []
    init = memplan.migration.MigrationDecision.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["id"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(memplan.migration.MigrationDecision, "__init__",
                        counted)
    for name in COLUMN_CASES:
        plan = _column_case(name)
        write_migration_plan(plan, io.StringIO())
        plan.migrated_ids
        assert built == []
    # The counter sees the decisions once they are read, and only once.
    assert len(plan.decisions) == len(plan.live_ids) > 0
    plan.decisions
    assert built == list(plan.live_ids)
