"""Plan optimal placements under a tightening energy budget.

The planner minimizes total LLC-miss latency subject to device capacities
and an energy cap expressed as a ratio R of the all-DRAM energy. As R
drops, objects whose DRAM residency buys the least latency per joule get
pushed to STT-RAM first; at some point the budget becomes unreachable and
the planner says so instead of guessing.
"""

from memplan import (GIB, GeneratorSpec, dram_energy, evaluate,
                     generate_synthetic, sweep_ratios, testbed1)

MB = 1 << 20

# A synthetic workload: 12 heap objects, 3 of them holding 90% of the bytes.
profiles = generate_synthetic(
    GeneratorSpec(count=12, skew_count=3, skew_share=0.9,
                  size_range=(2 * MB, 48 * MB)), seed=7)
dev = testbed1(dram_capacity=3 * GIB, nvm_capacity=4 * GIB)

all_dram = dram_energy(profiles, dev).sum()  # one entry per object
print(f"workload: {len(profiles)} objects, "
      f"{sum(o.size for o in profiles) / MB:.0f} MB total, "
      f"all-DRAM energy {all_dram * 1e-9:.2f} J-equivalent (nJ x 1e9)")
print()

ratios = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.4]
plans = sweep_ratios(profiles, dev, ratios, major_threshold=0)

print(f"{'R':>5} {'status':<11} {'latency ms':>11} {'energy ratio':>13} "
      f"{'on NVM':>7}")
for ratio, plan in zip(ratios, plans):
    if not plan.feasible:
        binding = ",".join(plan.binding_constraints)
        print(f"{ratio:>5.2f} {'infeasible':<11} {'-':>11} {'-':>13} "
              f"{'-':>7}  (binding: {binding})")
        continue
    report = evaluate(profiles, dev, plan)
    nvm_count = sum(1 for i in plan.major_ids
                    if plan.placements[i] == "nvm")
    print(f"{ratio:>5.2f} {plan.status:<11} "
          f"{plan.objective_ns * 1e-6:>11.1f} "
          f"{report.energy_ratio_vs_all_dram:>13.3f} "
          f"{nvm_count:>4}/{len(plan.major_ids)}")

print()
print("Latency only ever grows as the budget tightens; the achieved energy")
print("ratio always lands at or under the requested R.")
