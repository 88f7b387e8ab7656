"""Acceptance suite: one test per release criterion, one printed line each.

Every criterion is property-based over seeded random instances so the run
is deterministic; tolerances are pinned in the asserts.
"""

import time
from functools import reduce
from operator import add

import numpy as np
import pytest

from memplan import ilp
from memplan.baselines import place_mpki_threshold
from memplan.cli import EXIT_OK, main
from memplan.energy import (DeviceSpec, dram_energy, nvm_energy,
                            write_device_spec)
from memplan.energy import testbed1 as make_testbed1
from memplan.evaluator import evaluate
from memplan.migration import MigrationRequest, plan_migration
from memplan.planner import DRAM, plan_static, sweep_ratios
from memplan.profiles import (GeneratorSpec, ObjectProfile, ProfileSet,
                              ScalingVector, derive_scaling_vector,
                              extrapolate, generate_synthetic)
from oracle import solve_exhaustive

MB = 1 << 20
RATIOS = (1.0, 0.9, 0.8, 0.7)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name}{detail}")
    assert ok, f"criterion {number} ({name}) failed{detail}"


def planner_instance(seed, count=8):
    return generate_synthetic(
        GeneratorSpec(count=count, size_range=(2 * MB, 32 * MB),
                      with_mpki=True), seed)


@pytest.fixture(scope="module")
def static_sweeps():
    """200 random instances swept over the standard ratios."""
    rng = np.random.default_rng(20_240_501)
    results = []
    for _ in range(200):
        ps = planner_instance(int(rng.integers(0, 1_000_000)),
                              count=int(rng.integers(5, 10)))
        dev = make_testbed1(
            dram_capacity=float(rng.integers(48, 200)) * MB,
            nvm_capacity=float(rng.integers(256, 1024)) * MB)
        plans = sweep_ratios(ps, dev, RATIOS, major_threshold=0)
        results.append((ps, dev, plans))
    return results


def test_criterion_1_ilp_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        c = rng.uniform(-10, 10, n)
        m = int(rng.integers(0, 5))
        constraints = []
        for _ in range(m):
            a = rng.uniform(-5, 5, n)
            bound = float(rng.uniform(-3, max(0.0, a.sum()) * 0.7 + 3))
            constraints.append((tuple(a), bound))
        program = ilp.ZeroOneProgram(tuple(c), tuple(constraints))
        got = ilp.solve(program)
        want = solve_exhaustive(program)
        if got.status != want.status:
            mismatches += 1
            continue
        if want.status == ilp.STATUS_OPTIMAL:
            tol = 1e-9 * max(1.0, abs(want.objective_value))
            if got.assignment != want.assignment \
                    or abs(got.objective_value - want.objective_value) > tol:
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(1, "ILP oracle equivalence",
           mismatches == 0 and elapsed < 60.0,
           f" (500 programs, {mismatches} mismatches, {elapsed:.1f}s)")


def test_criterion_2_budget_safety(static_sweeps):
    violations = 0
    checked = 0
    for ps, dev, plans in static_sweeps:
        de_total = sum(dram_energy(o, dev) for o in ps)
        for ratio, plan in zip(RATIOS, plans):
            if not plan.feasible:
                continue
            checked += 1
            rep = evaluate(ps, dev, plan)
            if rep.total_energy_nj > ratio * de_total * (1 + 1e-9):
                violations += 1
            if not (rep.capacity_ok_dram and rep.capacity_ok_nvm):
                violations += 1
    report(2, "static-plan budget safety",
           violations == 0 and checked > 0,
           f" ({checked} feasible plans, {violations} violations)")


def test_criterion_3_monotonicity(static_sweeps):
    violations = 0
    pairs = 0
    for _, _, plans in static_sweeps:
        feasible = [(r, p.objective_ns) for r, p in zip(RATIOS, plans)
                    if p.feasible]
        for (r_hi, f_hi), (r_lo, f_lo) in zip(feasible, feasible[1:]):
            assert r_hi > r_lo
            pairs += 1
            if f_hi > f_lo * (1 + 1e-9):
                violations += 1
    report(3, "objective monotone in the energy ratio",
           violations == 0 and pairs > 0,
           f" ({pairs} ratio pairs, {violations} violations)")


def test_criterion_4_dominance_over_threshold_baseline():
    rng = np.random.default_rng(4)
    checked = 0
    violations = 0
    for _ in range(100):
        ps = planner_instance(int(rng.integers(0, 1_000_000)),
                              count=int(rng.integers(5, 10)))
        dev = make_testbed1(
            dram_capacity=float(rng.integers(64, 256)) * MB,
            nvm_capacity=float(rng.integers(256, 1024)) * MB)
        threshold = float(rng.uniform(0.005, 0.08))
        baseline_plan = place_mpki_threshold(ps, dev, threshold,
                                             major_threshold=0)
        if not baseline_plan.feasible:
            continue
        baseline = evaluate(ps, dev, baseline_plan)
        matched = plan_static(ps, dev, baseline.energy_ratio_vs_all_dram,
                              major_threshold=0)
        if not matched.feasible:
            violations += 1
            continue
        checked += 1
        rep = evaluate(ps, dev, matched)
        if rep.latency_objective_ns \
                > baseline.latency_objective_ns * (1 + 1e-9):
            violations += 1
        if rep.total_energy_nj > baseline.total_energy_nj * (1 + 1e-9):
            violations += 1
    report(4, "optimal plan dominates the LLC-MPKI baseline",
           violations == 0 and checked >= 90,
           f" ({checked} feasible baselines, {violations} violations)")


def migration_setup(rng):
    ps = generate_synthetic(
        GeneratorSpec(count=int(rng.integers(4, 9)),
                      size_range=(2 * MB, 24 * MB),
                      alloc_range=(0.0, 4.0), lifetime_range=(8.0, 20.0)),
        int(rng.integers(0, 1_000_000)))
    dev = make_testbed1(dram_capacity=float(rng.integers(48, 160)) * MB,
                        nvm_capacity=float(rng.integers(256, 768)) * MB)
    current = plan_static(ps, dev, float(rng.uniform(0.85, 1.0)),
                          major_threshold=0)
    t = float(rng.uniform(4.0, 7.9))
    return ps, dev, current, t


def test_criterion_5_migration_identities():
    rng = np.random.default_rng(5)
    checked = 0
    violations = 0
    while checked < 200:
        ps, dev, current, t = migration_setup(rng)
        if not current.feasible:
            continue
        checked += 1
        new_ratio = float(rng.uniform(0.5, 1.1))
        live = [o for o in ps if o.live_at(t)]
        stay = reduce(add, (dram_energy(o, dev)
                            if current.placements[o.id] == DRAM
                            else nvm_energy(o, dev) for o in live), 0.0)

        noop = plan_migration(ps, dev, current,
                              MigrationRequest(t, new_ratio, strict=False),
                              allow_migration=False, plan_future=False)
        if noop.e_total_nj != stay:
            violations += 1

        best_effort = plan_migration(
            ps, dev, current, MigrationRequest(t, new_ratio, strict=False),
            plan_future=False)
        if not best_effort.feasible \
                or best_effort.e_total_nj > stay * (1 + 1e-9):
            violations += 1

        strict = plan_migration(
            ps, dev, current, MigrationRequest(t, new_ratio, strict=True),
            plan_future=False)
        if strict.feasible:
            live_de = sum(dram_energy(o, dev) for o in live)
            if strict.e_total_nj > new_ratio * live_de * (1 + 1e-9):
                violations += 1
    report(5, "migration energy identities",
           violations == 0,
           f" (200 triples, {violations} violations)")


def test_criterion_6_migration_oracle_equivalence():
    from memplan.migration import migration_energies, migration_latency
    rng = np.random.default_rng(6)
    checked = 0
    mismatches = 0
    while checked < 200:
        ps, dev, current, t = migration_setup(rng)
        if not current.feasible:
            continue
        live = [o for o in ps if o.live_at(t)]
        if not live or len(live) > 10:
            continue
        checked += 1
        new_ratio = float(rng.uniform(0.6, 1.05))
        plan = plan_migration(ps, dev, current,
                              MigrationRequest(t, new_ratio, strict=True),
                              plan_future=False)

        on_dram = [current.placements[o.id] == DRAM for o in live]
        stay_e, mig_e, stay_l, mig_l, sizes = [], [], [], [], []
        for obj, here in zip(live, on_dram):
            energy = migration_energies(obj, dev, t)
            latency = migration_latency(obj, dev, t)
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
        requirement = new_ratio * sum(dram_energy(o, dev) for o in live)
        n = len(live)
        best_f = None
        best_x = None
        for code in range(1 << n):
            x = [(code >> (n - 1 - i)) & 1 for i in range(n)]
            dram_bytes = sum(s for s, here, xi in zip(sizes, on_dram, x)
                             if (here and not xi) or (not here and xi))
            if dram_bytes > dev.dram_capacity * (1 + 1e-9):
                continue
            if sum(sizes) - dram_bytes > dev.nvm_capacity * (1 + 1e-9):
                continue
            e_total = sum(m if xi else s
                          for m, s, xi in zip(mig_e, stay_e, x))
            if e_total > requirement + 1e-9 * abs(requirement):
                continue
            f = sum(m if xi else s for m, s, xi in zip(mig_l, stay_l, x))
            if best_f is None or f < best_f - 1e-9 * abs(best_f):
                best_f = f
                best_x = tuple(x)
        if best_x is None:
            if plan.feasible:
                mismatches += 1
            continue
        if not plan.feasible:
            mismatches += 1
            continue
        got = tuple(int(d.migrate) for d in plan.decisions)
        if got != best_x \
                or abs(plan.objective_ns - best_f) > 1e-9 * abs(best_f):
            mismatches += 1
    report(6, "migration planner matches exhaustive enumeration",
           mismatches == 0,
           f" (200 instances, {mismatches} mismatches)")


def test_criterion_7_energy_model_ground_truth():
    import io
    import json
    buf = io.StringIO()
    write_device_spec(DeviceSpec(), buf)
    data = json.loads(buf.getvalue())
    constants_ok = (
        data["dram_act_pre"] == 3.07 and data["dram_rw"] == 1.19
        and data["dram_ref"] == 0.35 and data["nvm_act_pre"] == 2.68
        and data["nvm_rba"] == 1.00 and data["nvm_wb"] == 2.83)

    dev = DeviceSpec()
    obj = ObjectProfile("o", 4096.0, 0.0, 1.0, 1024.0, 10.0, 2.0)
    de = dram_energy(obj, dev)
    ne = nvm_energy(obj, dev)
    de_ok = abs(de - 26762.24) <= 1e-12 * 26762.24
    ne_ok = abs(ne - 4130.56) <= 1e-12 * 4130.56
    report(7, "energy-model ground truth",
           constants_ok and de_ok and ne_ok,
           f" (constants={constants_ok}, dram={de}, nvm={ne})")


def test_criterion_8_scaling_fixed_point():
    # Worked example: 10, 19, 25 MB at unit-spaced workloads gives 7.5 MB
    # per workload unit.
    sets = [ProfileSet((ObjectProfile("s", mb * MB, 0.0, 1.0, MB,
                                      10.0, 1.0),), f"w{w}", float(w))
            for w, mb in ((1, 10), (2, 19), (3, 25))]
    example_ok = derive_scaling_vector(sets).for_object("s")["size"] \
        == 7.5 * MB

    # Dyadic base values keep the whole pipeline exact in floating point.
    base = ProfileSet(tuple(
        ObjectProfile(f"o{i}", float((4 + i) * MB), 0.25 * i,
                      0.25 * i + 2.0 + 0.5 * i, float((8 + 2 * i) * MB),
                      512.0 * (i + 1), 16.0 * (i + 1))
        for i in range(6)), "base", 1.0)
    grads = {o.id: {"size": float((i + 1) * MB),
                    "accessed_volume": float(2 * MB),
                    "llc_misses": 32.0 * (i + 1),
                    "dirty_blocks": 2.0,
                    "lifetime": 0.25}
             for i, o in enumerate(base)}
    vector = ScalingVector(grads)
    family = [base, extrapolate(base, vector, 2.0),
              extrapolate(base, vector, 3.0)]
    recovered = derive_scaling_vector(family)
    fixed_point_ok = all(recovered.for_object(object_id) == expected
                         for object_id, expected in grads.items())
    report(8, "scaling-vector fixed point",
           example_ok and fixed_point_ok,
           f" (worked example={example_ok}, recovery={fixed_point_ok})")


def test_criterion_9_cli_determinism(tmp_path):
    workload = tmp_path / "w.prof"
    rc = main(["generate", "--count", "10", "--seed", "7", "--skew-count",
               "3", "--skew-share", "0.9", "--with-mpki",
               "--out", str(workload)])
    assert rc == EXIT_OK
    sweep_args = ["sweep", "--profiles", str(workload),
                  "--ratios", "1.0,0.9,0.85,0.8,0.75",
                  "--capacities", "0.05:1,0.02:1,0.01:1",
                  "--major-threshold", "0"]
    artifacts = []
    for run_id in ("a", "b"):
        out = tmp_path / f"sweep_{run_id}.csv"
        plan_out = tmp_path / f"plan_{run_id}.plan"
        assert main(sweep_args + ["--out", str(out)]) == EXIT_OK
        assert main(["plan", "--profiles", str(workload), "--ratio", "0.8",
                     "--dram-capacity-gib", "0.05", "--nvm-capacity-gib",
                     "1", "--major-threshold", "0",
                     "--out", str(plan_out)]) == EXIT_OK
        artifacts.append((out.read_bytes(), plan_out.read_bytes()))
    identical = artifacts[0] == artifacts[1]
    report(9, "CLI artifacts byte-identical across runs", identical)
