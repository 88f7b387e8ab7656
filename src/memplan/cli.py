"""Command-line interface.

Subcommands cover the whole offline workflow: ``generate`` synthetic
profiles, ``scale`` profiles to a new workload size, ``plan`` a static
placement, ``migrate`` after an energy-requirement change, ``evaluate``
and ``compare`` placements, and ``sweep`` ratios across capacity
configurations. Outputs are plain data files (csv/json or the plan text
formats) and are byte-identical across runs for identical inputs.

Exit codes: 0 success, 1 usage or input error, 2 infeasible plan (the
artifact is still written so sweeps and scripts can branch on it).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .baselines import (NoFeasibleAssignment, place_all_dram, place_all_nvm,
                        place_mpki_threshold, place_random)
from .energy import GIB, DeviceSpec, PRESETS, load_device_spec
from .evaluator import (_csv_table, _row, comparison_csv, comparison_json,
                        compare, evaluate, report_csv, report_json)
from .migration import MigrationRequest, plan_migration, write_migration_plan
from .planner import (PlacementPlan, load_plan, plan_static, sweep_ratios,
                      write_plan)
from .profiles import (DEFAULT_MAJOR_THRESHOLD, GeneratorSpec,
                       derive_scaling_vector, extrapolate, generate_synthetic,
                       load_profile_dir, load_profiles, open_text,
                       write_profiles)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # infeasible plans here.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_device_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("device")
    group.add_argument("--device", help="device spec JSON file")
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="bundled device preset")
    group.add_argument("--dram-capacity-gib", type=float,
                       help="override DRAM capacity (GiB)")
    group.add_argument("--nvm-capacity-gib", type=float,
                       help="override NVM capacity (GiB)")


def _device_from_args(args) -> DeviceSpec:
    if args.device and args.preset:
        raise ValueError("give either --device or --preset, not both")
    if args.device:
        dev = load_device_spec(args.device)
    elif args.preset:
        dev = PRESETS[args.preset]()
    else:
        dev = DeviceSpec()
    if args.dram_capacity_gib is not None:
        dev = replace(dev, dram_capacity=args.dram_capacity_gib * GIB)
    if args.nvm_capacity_gib is not None:
        dev = replace(dev, nvm_capacity=args.nvm_capacity_gib * GIB)
    return dev


def _add_planning_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--major-threshold", type=float,
                        default=DEFAULT_MAJOR_THRESHOLD,
                        help="accessed-volume bound (bytes) below which "
                             "objects are pinned to DRAM")
    parser.add_argument("--reserved-dram", type=float, default=0.0,
                        help="DRAM bytes set aside for code/stack")
    parser.add_argument("--include-minor-energy", action="store_true",
                        help="count minor-object DRAM energy on both sides "
                             "of the budget")


def _parse_list(text: str, option: str, kind: type = float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        expected = "integers" if kind is int else "numbers"
        raise ValueError(
            f"{option}: expected comma-separated {expected}") from None
    if not values:
        raise ValueError(f"{option}: expected at least one value")
    return values


def _parse_range(text: str, option: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{option}: expected LO:HI")
    return float(parts[0]), float(parts[1])


def _write_text(path: str | None, text: str) -> None:
    with open_text(sys.stdout if path is None else path, "w") as stream:
        stream.write(text)


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        count=args.count,
        skew_count=args.skew_count,
        skew_share=args.skew_share,
        with_mpki=args.with_mpki,
        label=args.label,
        workload_size=args.workload_size,
        **({"size_range": _parse_range(args.size_range, "--size-range")}
           if args.size_range else {}),
        **({"lifetime_range": _parse_range(args.lifetime_range,
                                           "--lifetime-range")}
           if args.lifetime_range else {}),
    )
    profiles = generate_synthetic(spec, args.seed)
    write_profiles(profiles, args.out)
    return EXIT_OK


def _cmd_scale(args) -> int:
    sets = load_profile_dir(args.profiles_dir)
    if any(s.workload_size is None for s in sets):
        raise ValueError("every manifest entry needs a workload_size")
    sets.sort(key=lambda s: s.workload_size)
    vector = derive_scaling_vector(sets)
    scaled = extrapolate(sets[-1], vector, args.target)
    write_profiles(scaled, args.out)
    return EXIT_OK


def _cmd_plan(args) -> int:
    if args.ratio <= 0:
        raise ValueError("--ratio must be > 0")
    profiles = load_profiles(args.profiles)
    dev = _device_from_args(args)
    plan = plan_static(profiles, dev, args.ratio, args.major_threshold,
                       reserved_dram_bytes=args.reserved_dram,
                       include_minor_in_budget=args.include_minor_energy)
    write_plan(plan, args.out)
    if not plan.feasible:
        print("infeasible: cannot satisfy "
              + ", ".join(plan.binding_constraints), file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_migrate(args) -> int:
    profiles = load_profiles(args.profiles)
    dev = _device_from_args(args)
    current = load_plan(args.current)
    request = MigrationRequest(time=args.time, new_ratio=args.new_ratio,
                               strict=not args.best_effort)
    plan = plan_migration(profiles, dev, current, request,
                          transient_capacity=args.transient_capacity,
                          plan_future=not args.no_future)
    write_migration_plan(plan, args.out)
    if plan.future_plan is not None and args.future_out:
        write_plan(plan.future_plan, args.future_out)
    if not plan.feasible:
        print("infeasible: cannot satisfy "
              + ", ".join(plan.binding_constraints)
              + "; current placement retained", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    profiles = load_profiles(args.profiles)
    dev = _device_from_args(args)
    plan = load_plan(args.plan)
    report = evaluate(profiles, dev, plan)
    text = report_csv(report) if args.format == "csv" else report_json(report)
    _write_text(args.out, text)
    return EXIT_OK


def _cmd_compare(args) -> int:
    profiles = load_profiles(args.profiles)
    dev = _device_from_args(args)
    named: list[tuple[str, PlacementPlan | None]] = []
    for spec in args.plan or []:
        name, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--plan expects NAME=PATH, got {spec!r}")
        named.append((name, load_plan(path)))
    if args.all_dram:
        named.append(("all-dram", place_all_dram(
            profiles, dev, args.major_threshold, args.reserved_dram)))
    if args.all_nvm:
        named.append(("all-nvm", place_all_nvm(
            profiles, dev, args.major_threshold, args.reserved_dram)))
    for threshold in (_parse_list(args.mpki_thresholds, "--mpki-thresholds")
                      if args.mpki_thresholds else []):
        named.append((f"mpki_{threshold:g}", place_mpki_threshold(
            profiles, dev, threshold, args.major_threshold,
            args.reserved_dram)))
    for seed in (_parse_list(args.random_seeds, "--random-seeds", int)
                 if args.random_seeds else []):
        try:
            plan = place_random(profiles, dev, seed, args.major_threshold,
                                args.reserved_dram)
        except NoFeasibleAssignment:
            plan = None  # compare writes a row of nan in its place
        named.append((f"random_{seed}", plan))
    if not named:
        raise ValueError("compare needs at least one plan "
                         "(--plan/--all-dram/--all-nvm/--mpki-thresholds/"
                         "--random-seeds)")
    rows = compare(profiles, dev, named,
                   include_matched_optimal=args.matched_optimal)
    text = comparison_csv(rows) if args.format == "csv" \
        else comparison_json(rows)
    _write_text(args.out, text)
    return EXIT_OK


_SWEEP_COLUMNS = ("dram_gib", "nvm_gib", "ratio", "status", "objective_ns",
                  "planned_energy_nj", "energy_budget_nj",
                  "evaluated_energy_nj", "evaluated_ratio", "capacity_ok")


def _cmd_sweep(args) -> int:
    profiles = load_profiles(args.profiles)
    base = _device_from_args(args)
    ratios = _parse_list(args.ratios, "--ratios")
    if any(r <= 0 for r in ratios):
        raise ValueError("--ratios must all be > 0")
    configs = []
    for part in args.capacities.split(","):
        if part.strip():
            configs.append(_parse_range(part.strip(), "--capacities"))
    if not configs:
        raise ValueError("--capacities: expected at least one DRAM:NVM pair")

    rows = []
    for dram_gib, nvm_gib in configs:
        dev = base.with_capacities(dram_gib * GIB, nvm_gib * GIB)
        plans = sweep_ratios(profiles, dev, ratios, args.major_threshold,
                             reserved_dram_bytes=args.reserved_dram,
                             include_minor_in_budget=args.include_minor_energy)
        for ratio, plan in zip(ratios, plans):
            scored = _row("", evaluate(profiles, dev, plan)
                          if plan.feasible else None)
            rows.append((dram_gib, nvm_gib, ratio, plan.status,
                         plan.objective_ns, plan.planned_energy_nj,
                         plan.energy_budget_nj, scored.energy_nj,
                         scored.ratio, scored.capacity_ok))

    if args.format == "csv":
        text = _csv_table(_SWEEP_COLUMNS, rows)
    else:
        text = json.dumps([dict(zip(_SWEEP_COLUMNS, row)) for row in rows],
                          indent=2, sort_keys=True) + "\n"
    _write_text(args.out, text)
    return EXIT_OK


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--skew-count", type=int, default=0)
    p.add_argument("--skew-share", type=float)
    p.add_argument("--with-mpki", action="store_true")
    p.add_argument("--label", default="synthetic")
    p.add_argument("--workload-size", type=float, default=1.0)
    p.add_argument("--size-range", help="object size bounds, bytes, LO:HI")
    p.add_argument("--lifetime-range", help="lifetime bounds, seconds, LO:HI")
    p.add_argument("--out", required=True)


def _scale_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profiles-dir", required=True,
                   help="directory with manifest.json and profile files")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--out", required=True)


def _plan_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profiles", required=True)
    p.add_argument("--ratio", type=float, required=True,
                   help="energy budget as a fraction of all-DRAM energy")
    _add_planning_options(p)
    _add_device_options(p)
    p.add_argument("--out", required=True)


def _migrate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profiles", required=True)
    p.add_argument("--current", required=True, help="current plan file")
    p.add_argument("--time", type=float, required=True,
                   help="seconds into the run when the request arrives")
    p.add_argument("--new-ratio", type=float, required=True)
    p.add_argument("--best-effort", action="store_true",
                   help="treat the ratio as a wish, not a hard limit")
    p.add_argument("--transient-capacity", action="store_true",
                   help="require room for source and destination copies "
                        "during migration")
    p.add_argument("--no-future", action="store_true",
                   help="skip the companion plan for objects allocated later")
    _add_device_options(p)
    p.add_argument("--out", required=True)
    p.add_argument("--future-out",
                   help="where to write the companion plan for future objects")


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profiles", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_device_options(p)
    p.add_argument("--out")


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profiles", required=True)
    p.add_argument("--plan", action="append", metavar="NAME=PATH")
    p.add_argument("--all-dram", action="store_true")
    p.add_argument("--all-nvm", action="store_true")
    p.add_argument("--mpki-thresholds",
                   help="comma-separated thresholds for the LLC-MPKI baseline")
    p.add_argument("--random-seeds",
                   help="comma-separated seeds for random placements")
    p.add_argument("--matched-optimal", action="store_true",
                   help="add an optimal plan at each row's achieved ratio")
    _add_planning_options(p)
    _add_device_options(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profiles", required=True)
    p.add_argument("--ratios", required=True, help="e.g. 1.0,0.9,0.8")
    p.add_argument("--capacities", required=True,
                   help="DRAM:NVM GiB pairs, e.g. 8:16,4:16,2:16")
    _add_planning_options(p)
    _add_device_options(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)


# name -> (help, argument adder, handler), in the order --help lists them.
# The handlers look the library functions up in this module's globals on
# every call, so a wrapper installed there (bench/tracing.py) sees them.
_COMMANDS = {
    "generate": ("synthesize a profile file",
                 _generate_arguments, _cmd_generate),
    "scale": ("extrapolate profiles to a new workload size",
              _scale_arguments, _cmd_scale),
    "plan": ("compute a static placement", _plan_arguments, _cmd_plan),
    "migrate": ("replan live objects for a new energy requirement",
                _migrate_arguments, _cmd_migrate),
    "evaluate": ("score one plan from scratch",
                 _evaluate_arguments, _cmd_evaluate),
    "compare": ("tabulate several placements",
                _compare_arguments, _cmd_compare),
    "sweep": ("plan across capacity configurations and ratios",
              _sweep_arguments, _cmd_sweep),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``memplan`` parser with every subcommand, or only ``command``.

    A one-subcommand parser gives that subcommand the same help, usage
    and errors as the full tree; building all seven costs several times
    as much, and ``main`` runs only one.
    """
    parser = _Parser(prog="memplan",
                     description="DRAM/NVM object placement planning")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Anything but a known subcommand first (no arguments, --help, a
    # typo) gets the full tree, whose usage and errors list every choice.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"memplan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
