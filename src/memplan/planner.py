"""Static placement planning under an energy budget.

Given object profiles, device constants, and an energy ratio R, picks a
DRAM/NVM home for every major object so that total LLC-miss latency is
minimized while the set's energy stays within R times the energy it would
consume living entirely in DRAM. Minor objects (accessed volume at or
below the threshold) are pinned to DRAM and their footprint is deducted
from DRAM capacity before solving; their energy is excluded from both
sides of the budget unless ``include_minor_in_budget`` is set.

Infeasibility is a first-class result: the returned plan carries the
constraint subset that cannot be satisfied rather than raising.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import ilp
from .energy import DeviceSpec, price_placement, prices
from .profiles import (DEFAULT_MAJOR_THRESHOLD, ProfileSet, filter_major,
                       open_text)

DRAM = "dram"
NVM = "nvm"

PLAN_FORMAT_VERSION = "hmms-plan-v1"

CONSTRAINT_CAPACITY_DRAM = "capacity_dram"
CONSTRAINT_CAPACITY_NVM = "capacity_nvm"
CONSTRAINT_ENERGY = "energy_budget"
# Row names of the program `build_program` writes, in row order.
CONSTRAINT_NAMES = (CONSTRAINT_CAPACITY_DRAM, CONSTRAINT_CAPACITY_NVM,
                    CONSTRAINT_ENERGY, "transient_dram", "transient_nvm")


class CapacityError(ValueError):
    """DRAM cannot hold even the objects that are forced onto it."""


@dataclass(frozen=True)
class PlacementPlan:
    """Device assignment for every object plus the achieved totals.

    ``placements`` maps object id to "dram" or "nvm" (minor objects always
    "dram"); totals cover the major objects, matching the budget's
    population. Baseline strategies produce plans too, with ``ratio`` and
    ``energy_budget_nj`` set to the values they achieved.
    """

    placements: dict[str, str]
    major_ids: tuple[str, ...]
    status: str
    ratio: float
    major_threshold: float
    objective_ns: float
    planned_energy_nj: float
    energy_budget_nj: float
    reserved_dram_bytes: float = 0.0
    minor_energy_in_budget: bool = False
    binding_constraints: tuple[str, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.status == ilp.STATUS_OPTIMAL


def _check_reserve(reserved_dram_bytes: float) -> None:
    """Reject a DRAM reservation the planners cannot hold back."""
    if not reserved_dram_bytes >= 0:  # NaN too
        raise ValueError("reserved_dram_bytes must be >= 0")


def _major_minor(profiles: ProfileSet, major_threshold: float,
                 reserved_dram_bytes: float, dev: DeviceSpec
                 ) -> tuple[ProfileSet, ProfileSet, float]:
    """Split the set and return the DRAM capacity left for major objects."""
    _check_reserve(reserved_dram_bytes)
    major, minor = filter_major(profiles, major_threshold)
    pinned = sum(minor.size.tolist()) + reserved_dram_bytes
    dram_free = dev.dram_capacity - pinned
    if dram_free < 0:
        raise CapacityError(
            f"DRAM-pinned bytes ({pinned:.0f}) exceed DRAM capacity "
            f"({dev.dram_capacity:.0f})")
    return major, minor, dram_free


def build_program(objects: ProfileSet, on_dram: np.ndarray,
                  stay: tuple[np.ndarray, np.ndarray],
                  move: tuple[np.ndarray, np.ndarray], energy_limit: float,
                  dram_free: float, nvm_capacity: float,
                  transient_capacity: bool = False, fixed_energy: float = 0.0
                  ) -> ilp.ZeroOneProgram:
    """The 0-1 program of placement and migration; variable 1 means move.

    An object moves off its current device (DRAM where ``on_dram``).
    ``stay`` and ``move`` are its (latency ns, energy nJ) either way. The
    energy of every object, plus ``fixed_energy`` nJ spent outside the
    program, must stay within ``energy_limit`` nJ. The objective is the
    latency change of moving. Rows follow CONSTRAINT_NAMES; with
    ``transient_capacity`` a moving object also holds its source space.
    Rows are in bytes and nJ and the objective in ns, unscaled. A row's
    tolerance is the solver's one of its limit, the capacity, budget or
    requirement the evaluator checks, not of its bound: ``budget - sum of
    stay energies`` cancels.
    """
    if not math.isfinite(energy_limit):
        raise ValueError("the ratio makes the energy budget overflow")
    sizes = objects.size
    cp = np.asarray(on_dram, dtype=float)
    stay_latency, stay_energy = stay
    move_latency, move_energy = move
    # Post-move DRAM residency is cp + x*(1 - 2cp).
    flip = (1.0 - 2.0 * cp) * sizes
    dram_bound = dram_free - float((cp * sizes).sum())
    nvm_bound = nvm_capacity - float(((1.0 - cp) * sizes).sum())
    energy_bound = energy_limit - float(stay_energy.sum()) - fixed_energy
    rows = [(flip, dram_bound, dram_free), (-flip, nvm_bound, nvm_capacity),
            (move_energy - stay_energy, energy_bound, energy_limit)]
    if transient_capacity:
        rows += [((1.0 - cp) * sizes, dram_bound, dram_free),
                 (cp * sizes, nvm_bound, nvm_capacity)]
    return ilp.ZeroOneProgram(
        move_latency - stay_latency, [(row, bound) for row, bound, _ in rows],
        tolerances=[ilp._tol(limit) for _, _, limit in rows])


def build_placement_program(major: ProfileSet, dev: DeviceSpec,
                            ratio: float, dram_free: float,
                            extra_budget_energy: float = 0.0
                            ) -> ilp.ZeroOneProgram:
    """ILP over the major objects.

    A placement is a migration from an all-NVM start: variables are 1 for
    DRAM, 0 for NVM, in profile order.
    """
    de, ne, dl, nl = prices(major, dev)
    return build_program(
        major, np.zeros(len(major), dtype=bool), (nl, ne), (dl, de),
        _budget(major, dev, ratio, extra_budget_energy), dram_free,
        dev.nvm_capacity, fixed_energy=extra_budget_energy)


def _budget(major: ProfileSet, dev: DeviceSpec, ratio: float,
            extra: float) -> float:
    """The energy budget (nJ) that both the program and the plan hold."""
    return ratio * (sum(prices(major, dev)[0].tolist()) + extra)


def diagnose_infeasibility(program: ilp.ZeroOneProgram,
                           names: Sequence[str] = CONSTRAINT_NAMES
                           ) -> tuple[str, ...]:
    """Names of the constraints that no assignment satisfies on its own.

    A ``<=`` row over binary variables is unsatisfiable alone exactly when
    its least load, the sum of its negative coefficients, exceeds its bound
    plus the row's tolerance. When every row is satisfiable alone, all
    of them are named: they conflict jointly.
    """
    _, a, b = program.arrays()
    least = np.minimum(a, 0.0).sum(axis=1)
    singles = tuple(names[i] if i < len(names) else f"constraint {i}"
                    for i in np.flatnonzero(least > program.slack()))
    return singles or tuple(names[:len(b)])


def summarize_assignment(major: ProfileSet, dev: DeviceSpec,
                         on_dram: Sequence[int]) -> tuple[float, float]:
    """(latency objective ns, energy nJ) of a concrete major-object split."""
    latency, energy = price_placement(major, dev, on_dram)
    return sum(latency.tolist(), 0.0), sum(energy.tolist(), 0.0)


def plan_static(profiles: ProfileSet, dev: DeviceSpec, ratio: float,
                major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                reserved_dram_bytes: float = 0.0,
                include_minor_in_budget: bool = False) -> PlacementPlan:
    """Optimal static placement at energy ratio ``ratio``.

    Raises CapacityError when the DRAM-pinned minor objects alone exceed
    DRAM capacity; every other unsatisfiable combination is reported as an
    infeasible plan naming the binding constraints.
    """
    if not (math.isfinite(ratio) and ratio > 0):
        raise ValueError("energy ratio must be finite and > 0")
    major, minor, dram_free = _major_minor(profiles, major_threshold,
                                           reserved_dram_bytes, dev)
    extra = sum(prices(minor, dev)[0].tolist()) if include_minor_in_budget \
        else 0.0
    program = build_placement_program(major, dev, ratio, dram_free,
                                      extra_budget_energy=extra)
    solution = ilp.solve(program)

    placements = dict.fromkeys(minor.ids(), DRAM)
    budget = _budget(major, dev, ratio, extra)
    if solution.status == ilp.STATUS_INFEASIBLE:
        return _infeasible_plan(
            ratio, diagnose_infeasibility(program), major_threshold,
            reserved_dram_bytes, include_minor_in_budget,
            placements, major.ids(), budget)

    placements.update(zip(major.ids(), (DRAM if x else NVM
                                        for x in solution.assignment)))
    objective, energy = summarize_assignment(major, dev, solution.assignment)
    return PlacementPlan(
        placements=placements,
        major_ids=major.ids(),
        status=ilp.STATUS_OPTIMAL,
        ratio=ratio,
        major_threshold=major_threshold,
        objective_ns=objective,
        planned_energy_nj=energy + extra,
        energy_budget_nj=budget,
        reserved_dram_bytes=reserved_dram_bytes,
        minor_energy_in_budget=include_minor_in_budget,
    )


def _infeasible_plan(ratio: float, binding: tuple[str, ...],
                     major_threshold: float, reserved_dram_bytes: float,
                     include_minor_in_budget: bool,
                     placements: dict[str, str] | None = None,
                     major_ids: tuple[str, ...] = (),
                     budget: float = float("nan")) -> PlacementPlan:
    nan = float("nan")
    return PlacementPlan(placements or {}, major_ids, ilp.STATUS_INFEASIBLE,
                         ratio, major_threshold, nan, nan, budget,
                         reserved_dram_bytes, include_minor_in_budget, binding)


def sweep_ratios(profiles: ProfileSet, dev: DeviceSpec,
                 ratios: Sequence[float],
                 major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                 reserved_dram_bytes: float = 0.0,
                 include_minor_in_budget: bool = False) -> list[PlacementPlan]:
    """One plan (or infeasibility marker) per ratio, in the given order."""
    if not ratios:
        raise ValueError("ratio sweep needs at least one ratio")
    plans = []
    for ratio in ratios:
        try:
            plans.append(plan_static(
                profiles, dev, ratio, major_threshold,
                reserved_dram_bytes=reserved_dram_bytes,
                include_minor_in_budget=include_minor_in_budget))
        except CapacityError:
            plans.append(_infeasible_plan(
                ratio, (CONSTRAINT_CAPACITY_DRAM,), major_threshold,
                reserved_dram_bytes, include_minor_in_budget))
    return plans


def _format_float(x: float) -> str:
    return repr(float(x))


def write_plan(plan: PlacementPlan, dest: str | os.PathLike | IO[str]) -> None:
    """Serialize a plan as the placement-table text format."""
    with open_text(dest, "w") as stream:
        stream.write(PLAN_FORMAT_VERSION + "\n")
        stream.write(f"status={plan.status}\n")
        stream.write(f"ratio={_format_float(plan.ratio)}\n")
        stream.write(f"major_threshold_bytes={_format_float(plan.major_threshold)}\n")
        stream.write(f"reserved_dram_bytes={_format_float(plan.reserved_dram_bytes)}\n")
        stream.write(f"minor_energy_in_budget={int(plan.minor_energy_in_budget)}\n")
        stream.write(f"objective_ns={_format_float(plan.objective_ns)}\n")
        stream.write(f"planned_energy_nj={_format_float(plan.planned_energy_nj)}\n")
        stream.write(f"energy_budget_nj={_format_float(plan.energy_budget_nj)}\n")
        stream.write(f"binding={';'.join(plan.binding_constraints)}\n")
        stream.write("id,device,major\n")
        major = set(plan.major_ids)
        for object_id, device in plan.placements.items():
            stream.write(f"{object_id},{device},{int(object_id in major)}\n")
        for object_id in plan.major_ids:
            if object_id not in plan.placements:
                stream.write(f"{object_id},unassigned,1\n")


def load_plan(source: str | os.PathLike | IO[str]) -> PlacementPlan:
    """Read a plan written by `write_plan`.

    Raises ValueError naming the plan file and the bad field or line.
    """
    name = getattr(source, "name", "plan") if hasattr(source, "read") \
        else os.fspath(source)
    with open_text(source) as stream:
        lines = stream.read().splitlines()
    try:
        return _parse_plan(lines)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse_plan(lines: list[str]) -> PlacementPlan:
    if not lines or lines[0].strip() != PLAN_FORMAT_VERSION:
        raise ValueError(f"expected plan header {PLAN_FORMAT_VERSION!r}")
    summary: dict[str, str] = {}
    i = 1
    while i < len(lines) and "=" in lines[i]:
        key, _, value = lines[i].partition("=")
        summary[key.strip()] = value.strip()
        i += 1
    if i >= len(lines) or lines[i].strip() != "id,device,major":
        raise ValueError("plan file is missing the id,device,major table")
    # Checked by columns; a row's id starts with the break joined before it,
    # so the ids hold every break only if every row has three fields.
    kept = list(filter(None, map(str.strip, lines[i + 1:])))
    fields = ",\n".join(kept).split(",")
    ids, devices = "".join(fields[0::3]).split("\n"), fields[1::3]
    if kept and (len(ids) < len(kept) or len(fields) != 3 * len(ids)
                 or set(devices) - {DRAM, NVM, "unassigned"}
                 or len(set(ids)) < len(ids)):
        seen: set[str] = set()
        for number, line in enumerate(lines[i + 1:], i + 2):
            line = line.strip()
            if not line:
                continue
            if line.count(",") != 2:
                raise ValueError(f"line {number}: expected id,device,major, "
                                 f"got {line!r}")
            object_id, device, _ = line.split(",")
            if device not in (DRAM, NVM, "unassigned"):
                raise ValueError(
                    f"unknown device {device!r} for {object_id!r}")
            if object_id in seen:
                raise ValueError(
                    f"line {number}: duplicate object id {object_id!r}")
            seen.add(object_id)
    placements = {k: d for k, d in zip(ids, devices) if d != "unassigned"}
    major_ids = tuple([k for k, f in zip(ids, fields[2::3]) if f == "1"])
    if "status" not in summary:
        raise ValueError("missing summary key 'status'")
    summary.setdefault("reserved_dram_bytes", "0")
    numbers: dict[str, float] = {}
    for key in ("ratio", "major_threshold_bytes", "reserved_dram_bytes",
                "objective_ns", "planned_energy_nj", "energy_budget_nj"):
        if key not in summary:
            raise ValueError(f"missing summary key {key!r}")
        try:
            numbers[key] = float(summary[key])
        except ValueError:
            raise ValueError(
                f"{key} is not a number: {summary[key]!r}") from None
    # An infeasible plan's totals are NaN; the fields a later command
    # plans or checks against follow the planner's own rules.
    ratio, threshold, reserved = (numbers["ratio"],
                                  numbers["major_threshold_bytes"],
                                  numbers["reserved_dram_bytes"])
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be finite, got {ratio!r}")
    if not threshold >= 0:  # NaN too
        raise ValueError(
            f"major_threshold_bytes must be >= 0, got {threshold!r}")
    if not (math.isfinite(reserved) and reserved >= 0):
        raise ValueError(f"reserved_dram_bytes must be finite and >= 0, "
                         f"got {reserved!r}")
    binding = tuple(p for p in summary.get("binding", "").split(";") if p)
    return PlacementPlan(
        placements=placements,
        major_ids=major_ids,
        status=summary["status"],
        ratio=ratio,
        major_threshold=threshold,
        objective_ns=numbers["objective_ns"],
        planned_energy_nj=numbers["planned_energy_nj"],
        energy_budget_nj=numbers["energy_budget_nj"],
        reserved_dram_bytes=reserved,
        minor_energy_in_budget=summary.get("minor_energy_in_budget", "0") == "1",
        binding_constraints=binding,
    )
