"""Placement planning for heap objects in hybrid DRAM/NVM memory.

The package turns per-object access profiles into device assignments:
an energy model prices every object on each device, an exact 0-1 ILP
solver finds the latency-optimal placement within an energy budget,
and a migration planner replans live objects when the budget changes
mid-run. Baselines and an independent evaluator support comparisons.
"""

from .energy import (DeviceSpec, GIB, dram_energy, load_device_spec,
                     nvm_energy, testbed1, testbed2, write_device_spec)
from .ilp import IlpSolution, ZeroOneProgram, constraint_violations, solve
from .profiles import (DEFAULT_MAJOR_THRESHOLD, GeneratorError, GeneratorSpec,
                       ObjectProfile, ProfileError, ProfileSet, ScalingError,
                       ScalingVector, derive_scaling_vector, extrapolate,
                       filter_major, generate_synthetic, load_profile_dir,
                       load_profiles, write_profile_dir, write_profiles)
from .planner import (DRAM, NVM, CapacityError, PlacementPlan, load_plan,
                      plan_static, sweep_ratios, write_plan)
from .migration import (MigrationDecision, MigrationEnergy, MigrationLatency,
                        MigrationPlan, MigrationRequest, migration_energies,
                        migration_latency, migration_times, plan_migration,
                        write_migration_plan)
from .baselines import (place_all_dram, place_all_nvm, place_mpki_threshold,
                        place_random)
from .evaluator import (ComparisonRow, EvaluationReport, compare,
                        comparison_csv, comparison_json, evaluate)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ComparisonRow", "DEFAULT_MAJOR_THRESHOLD", "DRAM",
    "DeviceSpec", "EvaluationReport", "GIB", "GeneratorError",
    "GeneratorSpec", "IlpSolution", "MigrationDecision", "MigrationEnergy",
    "MigrationLatency", "MigrationPlan", "MigrationRequest", "NVM",
    "ObjectProfile", "PlacementPlan", "ProfileError", "ProfileSet",
    "ScalingError", "ScalingVector", "ZeroOneProgram", "compare",
    "comparison_csv", "comparison_json", "constraint_violations",
    "derive_scaling_vector", "dram_energy", "evaluate", "extrapolate",
    "filter_major", "generate_synthetic", "load_device_spec", "load_plan",
    "load_profile_dir", "load_profiles", "migration_energies",
    "migration_latency", "migration_times", "nvm_energy", "place_all_dram",
    "place_all_nvm", "place_mpki_threshold", "place_random",
    "plan_migration", "plan_static", "solve", "sweep_ratios", "testbed1",
    "testbed2", "write_device_spec", "write_migration_plan", "write_plan",
    "write_profile_dir", "write_profiles",
]
