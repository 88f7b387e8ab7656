"""Mid-run replanning when the energy requirement changes.

At time t the budget changes to a new ratio. Objects already freed cannot
be helped, objects not yet allocated will simply follow a fresh static
plan, and for everything currently live the planner weighs keeping the
object where it is against copying it to the other device. A migration
pays for reading the whole object from the source and writing it to the
destination, plus DRAM refresh accrued while the copy is in flight, and it
costs one source-read plus one destination-write latency per cache block.

In strict mode the new budget is a hard limit: if no migration vector can
satisfy it the current placement is retained and the plan reports
infeasible. In best-effort mode the requirement is simply "no worse than
doing nothing", which the all-zero migration vector always satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, repeat
from typing import IO, Sequence
import os

import numpy as np

from . import ilp
from .energy import DeviceSpec, Priceable, price_placement, prices
from .planner import (CONSTRAINT_NAMES, DRAM, NVM, TRANSIENT_NAMES,
                      CapacityError, PlacementPlan, _budget, _check_reserve,
                      _format_float, _on_dram, build_program,
                      diagnose_infeasibility, sweep_ratios)
from .profiles import (ObjectProfile, ProfileSet, _sum_in_order, major_mask,
                       write_text)

MIGRATION_FORMAT_VERSION = "hmms-migration-v1"

_NS_PER_S = 1e9

# A live object's devices (from, to) by (it starts in DRAM, it migrates),
# and a table row's text from its from device through its migrate flag.
_FROM_TO = {(here, x): (DRAM if here else NVM, DRAM if here != x else NVM)
            for here in (False, True) for x in (False, True)}
_MOVES = {key: f",{a},{b},{int(key[1])}," for key, (a, b) in _FROM_TO.items()}


@dataclass(frozen=True)
class MigrationRequest:
    """A change of the energy requirement at ``time`` seconds into the run.

    ``strict`` makes ``new_ratio`` a hard limit; otherwise the request just
    asks for energy no worse than leaving every object in place.
    """

    time: float
    new_ratio: float
    strict: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError("request time must be finite and >= 0")
        if not (math.isfinite(self.new_ratio) and self.new_ratio > 0):
            raise ValueError("new_ratio must be finite and > 0")


@dataclass(frozen=True)
class MigrationEnergy:
    """Total-lifetime energies of migrating at time t, both directions (nJ)."""

    dram_to_nvm: float
    nvm_to_dram: float
    cost_dram_to_nvm: float
    cost_nvm_to_dram: float


@dataclass(frozen=True)
class MigrationLatency:
    """Lifetime access latency including the copy, both directions (ns)."""

    dram_to_nvm: float
    nvm_to_dram: float
    time_dram_to_nvm: float
    time_nvm_to_dram: float


def migration_times(obj: Priceable, dev: DeviceSpec) -> tuple:
    """Block-granular copy times (ns): (DRAM to NVM, NVM to DRAM)."""
    blocks = np.ceil(obj.size / dev.cache_block_size)
    if isinstance(obj, ObjectProfile):
        blocks = float(blocks)
    to_nvm = blocks * (dev.dram_latency + dev.effective_nvm_write_latency)
    to_dram = blocks * (dev.nvm_latency + dev.effective_dram_write_latency)
    return to_nvm, to_dram


def _check_live(obj: Priceable, t: float) -> None:
    outside = np.logical_not((obj.alloc_time <= t) & (t <= obj.dealloc_time))
    if outside.any():
        if isinstance(obj, ProfileSet):  # the first one, as a one-record set
            obj = obj.take(outside & (np.cumsum(outside) == 1)).objects[0]
        raise ValueError(
            f"object {obj.id!r} is not allocated at t={t} "
            f"(lifetime [{obj.alloc_time}, {obj.dealloc_time}])")


def _move(obj: Priceable, dev: DeviceSpec, t: float, here: tuple,
          there: tuple, copy_time) -> tuple:
    """(energy nJ, latency ns, copy energy nJ) of moving at time t off the
    device priced ``here`` onto the one priced ``there``, each an (energy,
    latency) pair, with a copy taking ``copy_time`` ns."""
    elapsed = (t - obj.alloc_time) / obj.lifetime
    remaining = (obj.dealloc_time - t) / obj.lifetime
    copy = ((dev.dram_act_pre + dev.dram_rw + dev.nvm_act_pre + dev.nvm_rba)
            * obj.size + dev.refresh_rate * obj.size * (copy_time / _NS_PER_S))
    return (here[0] * elapsed + copy + there[0] * remaining,
            here[1] * elapsed + copy_time + there[1] * remaining, copy)


def _price_migration(obj: Priceable, dev: DeviceSpec, t: float
                     ) -> tuple[MigrationEnergy, MigrationLatency]:
    """Energy and latency of migrating at time t, both directions."""
    _check_live(obj, t)
    time_dn, time_nd = migration_times(obj, dev)
    de, ne, dl, nl = prices(obj, dev)
    energy_dn, latency_dn, cost_dn = _move(obj, dev, t, (de, dl), (ne, nl),
                                           time_dn)
    energy_nd, latency_nd, cost_nd = _move(obj, dev, t, (ne, nl), (de, dl),
                                           time_nd)
    return (MigrationEnergy(energy_dn, energy_nd, cost_dn, cost_nd),
            MigrationLatency(latency_dn, latency_nd, time_dn, time_nd))


def migration_energies(obj: Priceable, dev: DeviceSpec,
                       t: float) -> MigrationEnergy:
    """Energy of migrating at time t versus device-resident phases.

    The elapsed lifetime fraction is charged at the source device's rate
    and the remainder at the destination's; the copy itself reads and
    writes the whole object once and accrues DRAM refresh over the copy
    time.
    """
    return _price_migration(obj, dev, t)[0]


def migration_latency(obj: Priceable, dev: DeviceSpec,
                      t: float) -> MigrationLatency:
    """LLC-miss latency of a migrated object's lifetime, both directions."""
    return _price_migration(obj, dev, t)[1]


@dataclass(frozen=True)
class MigrationDecision:
    """Outcome for one live major object."""

    id: str
    current_device: str
    target_device: str
    migrate: bool
    migration_cost_nj: float
    migration_time_ns: float


@dataclass(frozen=True)
class MigrationPlan:
    """Per-object migration outcome plus totals for the live population.

    The outcome is kept as columns over the live major objects, in profile
    order: ``live_ids``, ``on_dram`` (the object starts in DRAM),
    ``migrate``, and the copy's ``migration_cost_nj`` and
    ``migration_time_ns`` (0.0 where the object stays). With ``_FROM_TO``
    they make the file's table and, on first read, ``decisions``.
    ``e_total_nj`` and ``objective_ns`` cover live major objects (migration
    candidates); energy already committed by freed objects is reported
    separately and objects allocated after t are covered by the companion
    ``future_plan``. With status infeasible every object stays in place.
    """

    live_ids: tuple[str, ...]
    on_dram: tuple[bool, ...]
    migrate: tuple[bool, ...]
    migration_cost_nj: tuple[float, ...]
    migration_time_ns: tuple[float, ...]
    status: str
    time_s: float
    new_ratio: float
    strict: bool
    e_total_nj: float
    requirement_nj: float
    objective_ns: float
    dead_energy_nj: float
    dead_ids: tuple[str, ...]
    future_ids: tuple[str, ...]
    future_plan: PlacementPlan | None = None
    binding_constraints: tuple[str, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.status == ilp.STATUS_OPTIMAL

    @property
    def migrated_ids(self) -> tuple[str, ...]:
        return tuple(compress(self.live_ids, self.migrate))

    @cached_property
    def decisions(self) -> tuple[MigrationDecision, ...]:
        return tuple(
            MigrationDecision(object_id, *_FROM_TO[here, x], x, cost, time)
            for object_id, here, x, cost, time in zip(
                self.live_ids, self.on_dram, self.migrate,
                self.migration_cost_nj, self.migration_time_ns))


@dataclass(frozen=True)
class LiveCosts:
    """Stay and migrate prices of each live object, in profile order.

    "Move" means migrating off the current device (DRAM where ``on_dram``
    is true). Energies are nJ and latencies ns over the whole lifetime;
    ``copy_energy`` and ``copy_time`` are what the copy itself adds.
    """

    on_dram: np.ndarray
    stay_energy: np.ndarray
    stay_latency: np.ndarray
    move_energy: np.ndarray
    move_latency: np.ndarray
    copy_energy: np.ndarray
    copy_time: np.ndarray


def price_live(live: ProfileSet, dev: DeviceSpec,
               on_dram: Sequence[bool], t: float) -> LiveCosts:
    """Price every live object once for the stay-or-migrate decision: each
    object's move is priced in its one direction, off its own device."""
    cp = np.asarray(on_dram, dtype=bool)
    _check_live(live, t)
    # (energy, latency) on the object's own device, then on the other one.
    here, there = (price_placement(live, dev, on)[::-1] for on in (cp, ~cp))
    copy_time = np.where(cp, *migration_times(live, dev))
    move_energy, move_latency, copy_energy = _move(live, dev, t, here, there,
                                                   copy_time)
    return LiveCosts(cp, *here, move_energy, move_latency, copy_energy,
                     copy_time)


def build_migration_program(live: ProfileSet, dev: DeviceSpec,
                            costs: LiveCosts, requirement: float,
                            dram_free: float,
                            transient_capacity: bool = False
                            ) -> ilp.ZeroOneProgram:
    """ILP over live major objects; variable 1 means migrate.

    The program minimizes the latency change of migrating.
    """
    return build_program(
        live, costs.on_dram, (costs.stay_latency, costs.stay_energy),
        (costs.move_latency, costs.move_energy), requirement, dram_free,
        dev.nvm_capacity, transient_capacity)


def plan_migration(profiles: ProfileSet, dev: DeviceSpec,
                   current: PlacementPlan, request: MigrationRequest,
                   transient_capacity: bool = False,
                   allow_migration: bool = True,
                   plan_future: bool = True) -> MigrationPlan:
    """Decide which live major objects to migrate under the new requirement.

    The current plan must put every major object live or freed at the
    request time on DRAM or NVM (an unknown device is refused, as
    `evaluate` refuses it), and its DRAM reservation stays reserved. Binding
    rows take `build_program`'s names. ``allow_migration=False`` takes
    the stay-put vector instead of optimizing, as a reference point; the
    rows it breaks bind. ``plan_future`` always plans the objects
    allocated after t (maybe none) in the space left, as one
    `sweep_ratios` cell: capacity_dram binds if pinned objects overflow it.
    """
    t = request.time
    _check_reserve(current.reserved_dram_bytes)
    # The live major objects are the only subset built; the rest, the freed
    # ones' energy included, is read through masks of the whole set.
    major = major_mask(profiles, current.major_threshold)
    alive = profiles.live_at(t)
    live_mask, dead_mask = major & alive, major & (profiles.dealloc_time <= t)
    live = profiles.take(live_mask)
    future_ids = tuple(compress(profiles.ids(),
                                (major & (profiles.alloc_time > t)).tolist()))
    on_dram = _on_dram(current, profiles, live_mask | dead_mask,
                       "current plan does not place object")
    live_on_dram = on_dram[live_mask]

    live_minor_bytes = _sum_in_order(profiles.size[alive & ~major])
    dram_free = (dev.dram_capacity - current.reserved_dram_bytes
                 - live_minor_bytes)
    if dram_free < 0:
        raise CapacityError(
            "live minor objects and reservation exceed DRAM capacity")

    costs = price_live(live, dev, live_on_dram, t)
    requirement = _budget(live, dev, request.new_ratio, 0.0) \
        if request.strict else _sum_in_order(costs.stay_energy)

    program = build_migration_program(
        live, dev, costs, requirement, dram_free,
        transient_capacity=transient_capacity)
    names = TRANSIENT_NAMES if transient_capacity else CONSTRAINT_NAMES
    stay_put = (0,) * len(live)
    if allow_migration:
        solution = ilp.solve(program)
    else:
        # The rows that staying put breaks bind.
        broken = tuple(ilp.constraint_violations(program, stay_put))
        solution = ilp.IlpSolution(
            (), math.nan, ilp.STATUS_INFEASIBLE, binding=broken) if broken \
            else ilp.IlpSolution(stay_put, 0.0, ilp.STATUS_OPTIMAL)
    binding = diagnose_infeasibility(solution, names) \
        if solution.status == ilp.STATUS_INFEASIBLE else ()
    # An infeasible solution has no assignment: everything stays in place.
    migrate = np.array(solution.assignment or stay_put, dtype=bool)

    energies = np.where(migrate, costs.move_energy, costs.stay_energy)
    latencies = np.where(migrate, costs.move_latency, costs.stay_latency)

    dead_energies = price_placement(profiles, dev, on_dram)[1][dead_mask]

    future_plan = None
    if plan_future:
        future_set = profiles.take(profiles.alloc_time > t)
        live_post_dram = _sum_in_order(live.size[costs.on_dram != migrate])
        live_post_nvm = _sum_in_order(live.size) - live_post_dram
        residual = replace(
            dev, dram_capacity=max(0.0, dram_free - live_post_dram),
            nvm_capacity=max(0.0, dev.nvm_capacity - live_post_nvm))
        future_plan = sweep_ratios(future_set, residual, [request.new_ratio],
                                   current.major_threshold)[0]

    return MigrationPlan(
        live_ids=live.ids(),
        on_dram=tuple(live_on_dram.tolist()),
        migrate=tuple(migrate.tolist()),
        migration_cost_nj=tuple(
            np.where(migrate, costs.copy_energy, 0.0).tolist()),
        migration_time_ns=tuple(
            np.where(migrate, costs.copy_time, 0.0).tolist()),
        status=solution.status,
        time_s=t,
        new_ratio=request.new_ratio,
        strict=request.strict,
        e_total_nj=_sum_in_order(energies),
        requirement_nj=requirement,
        objective_ns=_sum_in_order(latencies),
        dead_energy_nj=_sum_in_order(dead_energies),
        dead_ids=tuple(compress(profiles.ids(), dead_mask.tolist())),
        future_ids=future_ids,
        future_plan=future_plan,
        binding_constraints=binding,
    )


def write_migration_plan(plan: MigrationPlan,
                         dest: str | os.PathLike | IO[str]) -> None:
    """Serialize the migration table plus its summary block."""
    # By columns, joined once, as write_plan writes its table.
    moves = map(_MOVES.__getitem__, zip(plan.on_dram, plan.migrate))
    write_text(dest, "".join((
        f"{MIGRATION_FORMAT_VERSION}\n"
        f"status={plan.status}\n"
        f"time_s={_format_float(plan.time_s)}\n"
        f"new_ratio={_format_float(plan.new_ratio)}\n"
        f"strict={int(plan.strict)}\n"
        f"e_total_nj={_format_float(plan.e_total_nj)}\n"
        f"requirement_nj={_format_float(plan.requirement_nj)}\n"
        f"objective_ns={_format_float(plan.objective_ns)}\n"
        f"dead_energy_nj={_format_float(plan.dead_energy_nj)}\n"
        f"dead_ids={';'.join(plan.dead_ids)}\n"
        f"future_ids={';'.join(plan.future_ids)}\n"
        f"binding={';'.join(plan.binding_constraints)}\n"
        "id,from,to,migrate,migce_nJ,migct_ns\n",
        *chain.from_iterable(zip(
            plan.live_ids, moves, map(repr, plan.migration_cost_nj),
            repeat(","), map(repr, plan.migration_time_ns), repeat("\n"))))))
