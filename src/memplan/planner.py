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
from itertools import chain, compress, repeat
from typing import IO, Sequence

import numpy as np

from . import ilp
from .energy import DeviceSpec, price_placement, prices
from .profiles import (DEFAULT_MAJOR_THRESHOLD, ProfileSet, _sum_in_order,
                       filter_major, major_mask, read_text, write_text)

DRAM = "dram"
NVM = "nvm"
_DEVICES = ("unassigned", DRAM, NVM)  # by device code
_CODES = dict(zip(_DEVICES, range(3)))  # by name; a plan file's only devices
# A table row after its id, by 2 * device code + major flag.
_ROW_ENDS = tuple(f",{d},{flag}\n" for d in _DEVICES for flag in "01")

PLAN_FORMAT_VERSION = "hmms-plan-v1"

CONSTRAINT_CAPACITY_DRAM = "capacity_dram"
CONSTRAINT_CAPACITY_NVM = "capacity_nvm"
CONSTRAINT_ENERGY = "energy_budget"
# Row names of `build_program`'s rows, without and with transient capacity.
CONSTRAINT_NAMES = (CONSTRAINT_CAPACITY_DRAM, CONSTRAINT_CAPACITY_NVM,
                    CONSTRAINT_ENERGY)
TRANSIENT_NAMES = ("transient_dram", "transient_nvm", CONSTRAINT_ENERGY)


class CapacityError(ValueError):
    """DRAM cannot hold even the objects that are forced onto it."""


@dataclass(frozen=True)
class PlacementPlan:
    """Device assignment for every object plus the achieved totals.

    ``placements`` maps object id to "dram" or "nvm" (minor objects always
    "dram"); totals cover the major objects, matching the budget's
    population. Baseline strategies produce plans too, with ``ratio`` and
    ``energy_budget_nj`` set to the values they achieved.

    A plan has one of two forms. A caller's dict is read as given. A plan
    the package makes keeps as columns (``_rows``) the ids in plan file
    order (placed, then unassigned major ones), a read-only int8 code per
    row (0 unassigned, 1 DRAM, 2 NVM) and the major flags; its
    ``placements`` are built on first read. ``_where`` maps it onto a set:
    a plan of a set (its minor then major ids in profile order) keeps the
    set's ids and each row's position, and a loaded plan its id-to-code
    dict. A loaded plan keeps its table's ids, codes and major fields
    (``_table``) until its columns or ``major_ids`` are first read.
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
    _where = _table = None  # not fields

    @property
    def feasible(self) -> bool:
        return self.status == ilp.STATUS_OPTIMAL

    @classmethod
    def _of(cls, where, columns: dict, *fields, **named):
        """A package plan: ``columns`` holds ``_rows`` and ``major_ids``,
        or a loaded plan's ``_table``."""
        plan = cls(None, None, *fields, **named)
        del plan.__dict__["placements"], plan.__dict__["major_ids"]
        plan.__dict__.update(columns, _where=where)
        return plan

    def __getattr__(self, name: str):
        # A loaded plan's columns are built on first read (tools/ab.py,
        # built at load: migrate-live 1.033, 1.028, 1.020 in 10-round runs).
        if name in ("_rows", "major_ids") and self._table is not None:
            self.__dict__.update(_columns(*self.__dict__.pop("_table")))
            return self.__dict__[name]
        if name == "_rows":  # a caller's dict
            return None
        if name != "placements" or self._rows is None:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        # Made on first read for a caller of the field: no command reads it.
        ids, codes = self._rows[0], self._rows[1].tolist()
        placed = self.__dict__[name] = dict(compress(
            zip(ids, map(_DEVICES.__getitem__, codes)), codes))
        return placed


def _columns(ids: list[str], listed: list[int], flags: list[str]) -> dict:
    """A loaded plan's columns and ``major_ids`` from its table's ids,
    device codes and major fields: placed rows, then unassigned major
    ones."""
    codes = np.array(listed, np.int8)
    major = np.array(flags, dtype=object) == "1"
    major_ids, order = tuple(compress(ids, major.tolist())), ids
    if 0 in listed:
        order = [*np.flatnonzero(codes), *np.flatnonzero((codes == 0) & major)]
        codes, major = codes[order], major[order]
        order = [ids[k] for k in order]
    codes.flags.writeable = False
    return {"_rows": (tuple(order), codes, major), "major_ids": major_ids}


def _set_plan(profiles: ProfileSet, on_dram: Sequence[int] | None,
              status: str, ratio: float, major_threshold: float, *totals,
              **named) -> PlacementPlan:
    """A plan of ``profiles``: its minor objects in DRAM, its major ones
    where ``on_dram`` puts them (unassigned if None)."""
    major, minor = filter_major(profiles, major_threshold)
    codes = np.ones(len(profiles), np.int8)
    codes[len(minor):] = 0 if on_dram is None else np.where(on_dram, 1, 2)
    codes.flags.writeable = False
    mask = major_mask(profiles, major_threshold)
    rows = np.concatenate((np.flatnonzero(~mask), np.flatnonzero(mask)))
    columns = {"_rows": (minor.ids() + major.ids(), codes, mask[rows]),
               "major_ids": major.ids()}
    return PlacementPlan._of((profiles.ids(), rows), columns, status, ratio,
                             major_threshold, *totals, **named)


def _on_dram(plan: PlacementPlan, profiles: ProfileSet,
             needed: np.ndarray | bool = True,
             missing: str = "plan does not cover object") -> np.ndarray:
    """The DRAM mask of ``profiles`` under ``plan``, in profile order.
    Raises ValueError for the first ``needed`` object on neither DRAM nor
    NVM: ``missing`` and its id if the plan does not place it, else that it
    has no concrete device (another device, or "unassigned" in a dict)."""
    ids, where = profiles.ids(), plan._where
    # A plan of this set (tools/ab.py, mapped by id: wide-pipeline 1.03x).
    if isinstance(where, tuple) and where[0] is ids:
        codes = np.empty(len(ids), np.int8)
        codes[where[1]] = plan._rows[1]
    else:  # mapped by id: a loaded plan's codes, else its placements
        if not isinstance(where, dict):
            where = {k: _CODES.get(d, 0) for k, d in plan.placements.items()}
        codes = np.fromiter(map(where.get, ids, repeat(0)), np.int8, len(ids))
    unplaced = (codes == 0) & needed
    if unplaced.any():
        object_id = ids[int(np.argmax(unplaced))]
        if object_id not in plan.placements:
            raise ValueError(f"{missing} {object_id!r}")
        raise ValueError(f"object {object_id!r} has no concrete device")
    return codes == 1


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
    pinned = _sum_in_order(minor.size) + reserved_dram_bytes
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
    latency change of moving. Rows follow CONSTRAINT_NAMES, or
    TRANSIENT_NAMES with ``transient_capacity``, when a moving object
    frees no source space until its copy lands. Rows are in bytes and nJ
    and the objective in ns, unscaled. A row's tolerance is the solver's
    one of its limit, the capacity, budget or requirement the evaluator
    checks, not of its bound: ``budget - sum of stay energies`` cancels.
    """
    if not math.isfinite(energy_limit):
        raise ValueError("the ratio makes the energy budget overflow")
    sizes = objects.size
    cp = np.asarray(on_dram, dtype=float)
    stay_latency, stay_energy = stay
    move_latency, move_energy = move
    # Post-move DRAM residency is cp + x*(1 - 2cp).
    flip = (1.0 - 2.0 * cp) * sizes
    dram_bound = dram_free - _sum_in_order(cp * sizes)
    nvm_bound = nvm_capacity - _sum_in_order((1.0 - cp) * sizes)
    energy_bound = energy_limit - _sum_in_order(stay_energy) - fixed_energy
    dram_row, nvm_row = (np.maximum(flip, 0.0), np.maximum(-flip, 0.0)) \
        if transient_capacity else (flip, -flip)
    rows = [(dram_row, dram_bound, dram_free),
            (nvm_row, nvm_bound, nvm_capacity),
            (move_energy - stay_energy, energy_bound, energy_limit)]
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
    return ratio * (_sum_in_order(prices(major, dev)[0]) + extra)


def diagnose_infeasibility(solution: ilp.IlpSolution,
                           names: Sequence[str] = CONSTRAINT_NAMES
                           ) -> tuple[str, ...]:
    """The ``names`` of ``solution.binding``, the rows that decide
    `ilp.solve`'s verdict; none for a feasible solution."""
    return tuple(names[i] for i in solution.binding)


def summarize_assignment(major: ProfileSet, dev: DeviceSpec,
                         on_dram: Sequence[int]) -> tuple[float, float]:
    """(latency objective ns, energy nJ) of a concrete major-object split."""
    latency, energy = price_placement(major, dev, on_dram)
    return _sum_in_order(latency, 0.0), _sum_in_order(energy, 0.0)


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
    extra = _sum_in_order(prices(minor, dev)[0]) if include_minor_in_budget \
        else 0.0
    program = build_placement_program(major, dev, ratio, dram_free,
                                      extra_budget_energy=extra)
    solution = ilp.solve(program)

    budget = _budget(major, dev, ratio, extra)
    if solution.status == ilp.STATUS_INFEASIBLE:
        return _set_plan(
            profiles, None, ilp.STATUS_INFEASIBLE, ratio, major_threshold,
            math.nan, math.nan, budget, reserved_dram_bytes,
            include_minor_in_budget, diagnose_infeasibility(solution))

    objective, energy = summarize_assignment(major, dev, solution.assignment)
    return _set_plan(
        profiles, solution.assignment, ilp.STATUS_OPTIMAL, ratio=ratio,
        major_threshold=major_threshold, objective_ns=objective,
        planned_energy_nj=energy + extra, energy_budget_nj=budget,
        reserved_dram_bytes=reserved_dram_bytes,
        minor_energy_in_budget=include_minor_in_budget)


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
            plans.append(_set_plan(
                ProfileSet(), None, ilp.STATUS_INFEASIBLE, ratio,
                major_threshold, *[math.nan] * 3, reserved_dram_bytes,
                include_minor_in_budget, (CONSTRAINT_CAPACITY_DRAM,)))
    return plans


def _format_float(x: float) -> str:
    return repr(float(x))


def _check_flags(status: str, minor: str) -> None:
    """Refuse a status or minor-energy flag the plan format does not define."""
    if status not in (ilp.STATUS_OPTIMAL, ilp.STATUS_INFEASIBLE):
        raise ValueError(f"status is not {ilp.STATUS_OPTIMAL} or "
                         f"{ilp.STATUS_INFEASIBLE}: {status!r}")
    if minor not in ("0", "1"):
        raise ValueError(f"minor_energy_in_budget is not 0 or 1: {minor!r}")


def write_plan(plan: PlacementPlan, dest: str | os.PathLike | IO[str]) -> None:
    """Serialize a plan as the placement-table text format."""
    # By columns, joined once (tools/ab.py, by dict: wide-pipeline 1.04x).
    if plan._rows is None:  # a caller's dict, then its unassigned majors
        placed, major = plan.placements, set(plan.major_ids)
        ids = [*placed, *(i for i in plan.major_ids if i not in placed)]
        for object_id, device in placed.items():
            if device not in _CODES:
                raise ValueError(f"unknown device {device!r} for {object_id!r}")
        ends = [_ROW_ENDS[2 * _CODES[device] + (object_id in major)]
                for object_id, device in placed.items()]
        ends += [_ROW_ENDS[1]] * (len(ids) - len(placed))
    else:
        ids, codes, major = plan._rows
        ends = map(_ROW_ENDS.__getitem__, (2 * codes + major).tolist())
    minor = str(int(plan.minor_energy_in_budget))
    _check_flags(plan.status, minor)
    write_text(dest, "".join((
        f"{PLAN_FORMAT_VERSION}\n"
        f"status={plan.status}\n"
        f"ratio={_format_float(plan.ratio)}\n"
        f"major_threshold_bytes={_format_float(plan.major_threshold)}\n"
        f"reserved_dram_bytes={_format_float(plan.reserved_dram_bytes)}\n"
        f"minor_energy_in_budget={minor}\n"
        f"objective_ns={_format_float(plan.objective_ns)}\n"
        f"planned_energy_nj={_format_float(plan.planned_energy_nj)}\n"
        f"energy_budget_nj={_format_float(plan.energy_budget_nj)}\n"
        f"binding={';'.join(plan.binding_constraints)}\n"
        "id,device,major\n", *chain.from_iterable(zip(ids, ends)))))


def load_plan(source: str | os.PathLike | IO[str]) -> PlacementPlan:
    """Read a plan written by `write_plan`.

    Raises ValueError naming the plan file and the bad field or line.
    """
    name = getattr(source, "name", "plan") if hasattr(source, "read") \
        else os.fspath(source)
    text = read_text(source)
    try:
        return _parse_plan(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse_plan(text: str) -> PlacementPlan:
    lines = text.splitlines()
    if not lines or lines[0].strip() != PLAN_FORMAT_VERSION:
        raise ValueError(f"expected plan header {PLAN_FORMAT_VERSION!r}")
    i = 1
    while i < len(lines) and "=" in lines[i]:
        i += 1
    if i >= len(lines) or lines[i].strip() != "id,device,major":
        raise ValueError("plan file is missing the id,device,major table")
    raw, lines = lines[i + 1:], lines[:i]
    summary: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition("=")
        summary[key.strip()] = value.strip()
    rows = [row for row in map(str.strip, raw) if row]  # blank ones dropped
    # Checked by columns (tools/ab.py, by line: wide-pipeline 1.06x). With
    # rows joined by ",\n", the ids hold every break iff each row has 3
    # fields. The device codes by id are kept for mapping the plan by id.
    fields = ",\n".join(rows).split(",")
    ids = "".join(fields[0::3]).split("\n") if rows else []
    listed = list(map(_CODES.get, fields[1::3], repeat(-1)))
    code_of = dict(zip(ids, listed))
    if rows and (len(ids) < len(rows) or len(fields) != 3 * len(ids)
                 or -1 in listed or len(code_of) < len(ids)):
        seen: set[str] = set()
        for number, line in enumerate(raw, len(lines) + 2):
            line = line.strip()
            if not line:
                continue
            if line.count(",") != 2:
                raise ValueError(f"line {number}: expected id,device,major, "
                                 f"got {line!r}")
            object_id, device, _ = line.split(",")
            if device not in _CODES:
                raise ValueError(
                    f"unknown device {device!r} for {object_id!r}")
            if object_id in seen:
                raise ValueError(
                    f"line {number}: duplicate object id {object_id!r}")
            seen.add(object_id)
    if "status" not in summary:
        raise ValueError("missing summary key 'status'")
    minor = summary.get("minor_energy_in_budget", "0")
    _check_flags(summary["status"], minor)
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
    return PlacementPlan._of(
        code_of, {"_table": (ids, listed, fields[2::3])},
        status=summary["status"],
        ratio=ratio,
        major_threshold=threshold,
        objective_ns=numbers["objective_ns"],
        planned_energy_nj=numbers["planned_energy_nj"],
        energy_budget_nj=numbers["energy_budget_nj"],
        reserved_dram_bytes=reserved,
        minor_energy_in_budget=minor == "1",
        binding_constraints=binding,
    )
