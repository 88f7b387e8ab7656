"""Replan live objects when the energy budget changes mid-run.

Halfway through the run the budget drops. Objects that are already dead
are sunk cost, objects not yet allocated will follow a fresh static plan,
and each live object either stays put or pays a copy cost (energy and
time) to switch devices. Strict mode treats the new budget as a hard
limit and refuses to shuffle when it cannot be met; best-effort mode just
never does worse than staying put.
"""

from memplan import (GIB, GeneratorSpec, MigrationRequest, ProfileSet,
                     dram_energy, generate_synthetic, plan_migration,
                     plan_static, testbed1)

MB = 1 << 20

profiles = generate_synthetic(
    GeneratorSpec(count=10, size_range=(4 * MB, 40 * MB),
                  alloc_range=(0.0, 6.0), lifetime_range=(6.0, 18.0)),
    seed=13)
dev = testbed1(dram_capacity=0.25 * GIB, nvm_capacity=2 * GIB)

initial = plan_static(profiles, dev, 1.0, major_threshold=0)
print("initial placement (R=1.0):",
      {i: initial.placements[i] for i in initial.major_ids})

t = 8.0
live = ProfileSet(tuple(o for o in profiles if o.live_at(t)))
live_all_dram = dram_energy(live, dev).sum()
print(f"\nat t={t:.0f}s: {len(live)} objects live, "
      f"{len(profiles) - len(live)} dead or not yet allocated")

for new_ratio, strict in ((0.75, True), (0.6, True), (0.6, False)):
    request = MigrationRequest(time=t, new_ratio=new_ratio, strict=strict)
    plan = plan_migration(profiles, dev, initial, request)
    mode = "strict" if strict else "best-effort"
    print(f"\nrequest R={new_ratio} ({mode}): {plan.status}")
    if plan.feasible and plan.migrated_ids:
        for decision in plan.decisions:
            if decision.migrate:
                print(f"  move {decision.id}: {decision.current_device} -> "
                      f"{decision.target_device}, copy cost "
                      f"{decision.migration_cost_nj * 1e-6:.2f} mJ / "
                      f"{decision.migration_time_ns * 1e-6:.2f} ms")
    elif plan.feasible:
        print("  nothing worth moving")
    else:
        print(f"  binding: {', '.join(plan.binding_constraints)}; "
              "placement retained")
    print(f"  live-set energy {plan.e_total_nj * 1e-9:.3f} vs requirement "
          f"{plan.requirement_nj * 1e-9:.3f} (x1e9 nJ), "
          f"ratio {plan.e_total_nj / live_all_dram:.3f} of live all-DRAM")
    if plan.future_plan is not None:
        placed = {i: plan.future_plan.placements[i]
                  for i in plan.future_plan.major_ids}
        print(f"  companion plan for future objects: {placed}")
