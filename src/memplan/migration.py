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
from dataclasses import dataclass
from itertools import compress
from typing import IO, Sequence
import os

import numpy as np

from . import ilp
from .energy import (DeviceSpec, Priceable, dram_energy, dram_latency,
                     nvm_energy, nvm_latency, price_placement)
from .planner import (DRAM, NVM, CapacityError, PlacementPlan, _check_reserve,
                      build_program, diagnose_infeasibility, plan_static)
from .profiles import ObjectProfile, ProfileSet, filter_major, open_text

MIGRATION_FORMAT_VERSION = "hmms-migration-v1"

_NS_PER_S = 1e9


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
    if np.any(outside):
        if isinstance(obj, ProfileSet):
            obj = obj.objects[int(np.argmax(outside))]
        raise ValueError(
            f"object {obj.id!r} is not allocated at t={t} "
            f"(lifetime [{obj.alloc_time}, {obj.dealloc_time}])")


def migration_energies(obj: Priceable, dev: DeviceSpec,
                       t: float) -> MigrationEnergy:
    """Energy of migrating at time t versus device-resident phases.

    The elapsed lifetime fraction is charged at the source device's rate
    and the remainder at the destination's; the copy itself reads and
    writes the whole object once and accrues DRAM refresh over the copy
    time.
    """
    _check_live(obj, t)
    de = dram_energy(obj, dev)
    ne = nvm_energy(obj, dev)
    elapsed = (t - obj.alloc_time) / obj.lifetime
    remaining = (obj.dealloc_time - t) / obj.lifetime
    time_dn, time_nd = migration_times(obj, dev)
    copy_traffic = (dev.dram_act_pre + dev.dram_rw
                    + dev.nvm_act_pre + dev.nvm_rba) * obj.size
    cost_dn = copy_traffic + dev.refresh_rate * obj.size * (time_dn / _NS_PER_S)
    cost_nd = copy_traffic + dev.refresh_rate * obj.size * (time_nd / _NS_PER_S)
    return MigrationEnergy(
        dram_to_nvm=de * elapsed + cost_dn + ne * remaining,
        nvm_to_dram=ne * elapsed + cost_nd + de * remaining,
        cost_dram_to_nvm=cost_dn,
        cost_nvm_to_dram=cost_nd,
    )


def migration_latency(obj: Priceable, dev: DeviceSpec,
                      t: float) -> MigrationLatency:
    """LLC-miss latency of a migrated object's lifetime, both directions."""
    _check_live(obj, t)
    elapsed = (t - obj.alloc_time) / obj.lifetime
    remaining = (obj.dealloc_time - t) / obj.lifetime
    time_dn, time_nd = migration_times(obj, dev)
    ld = dram_latency(obj, dev)
    ln = nvm_latency(obj, dev)
    return MigrationLatency(
        dram_to_nvm=ld * elapsed + time_dn + ln * remaining,
        nvm_to_dram=ln * elapsed + time_nd + ld * remaining,
        time_dram_to_nvm=time_dn,
        time_nvm_to_dram=time_nd,
    )


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
    """Per-object migration decisions plus totals for the live population.

    ``e_total_nj`` and ``objective_ns`` cover live major objects (migration
    candidates); energy already committed by freed objects is reported
    separately and objects allocated after t are covered by the companion
    ``future_plan``. With status infeasible the decisions keep every object
    in place.
    """

    decisions: tuple[MigrationDecision, ...]
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
        return tuple(d.id for d in self.decisions if d.migrate)


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
    """Price every live object once for the stay-or-migrate decision."""
    cp = np.asarray(on_dram, dtype=bool)
    energy = migration_energies(live, dev, t)
    latency = migration_latency(live, dev, t)
    stay_latency, stay_energy = price_placement(live, dev, cp)
    return LiveCosts(
        on_dram=cp,
        stay_energy=stay_energy,
        stay_latency=stay_latency,
        move_energy=np.where(cp, energy.dram_to_nvm, energy.nvm_to_dram),
        move_latency=np.where(cp, latency.dram_to_nvm, latency.nvm_to_dram),
        copy_energy=np.where(cp, energy.cost_dram_to_nvm,
                             energy.cost_nvm_to_dram),
        copy_time=np.where(cp, latency.time_dram_to_nvm,
                           latency.time_nvm_to_dram),
    )


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

    The current plan must assign a device to every major object that is
    live at the request time, and its DRAM reservation stays reserved.
    ``allow_migration=False`` evaluates the stay-everywhere vector instead
    of optimizing, which is useful as a reference point.
    """
    t = request.time
    _check_reserve(current.reserved_dram_bytes)
    major, minor = filter_major(profiles, current.major_threshold)

    live = major.take(major.live_at(t))
    dead = major.take(major.dealloc_time <= t)
    future_ids = tuple(compress(major.ids(), (major.alloc_time > t).tolist()))
    for object_id in live.ids() + dead.ids():
        if object_id not in current.placements:
            raise ValueError(
                f"current plan does not place object {object_id!r}")

    live_minor_bytes = sum(minor.size[minor.live_at(t)].tolist())
    dram_free = (dev.dram_capacity - current.reserved_dram_bytes
                 - live_minor_bytes)
    if dram_free < 0:
        raise CapacityError(
            "live minor objects and reservation exceed DRAM capacity")

    costs = price_live(live, dev, _on_dram(current, live), t)
    requirement = request.new_ratio * sum(dram_energy(live, dev).tolist()) \
        if request.strict else float(sum(costs.stay_energy.tolist()))

    program = build_migration_program(
        live, dev, costs, requirement, dram_free,
        transient_capacity=transient_capacity)
    stay_put = (0,) * len(live)
    if allow_migration:
        solution = ilp.solve(program)
    elif ilp.constraint_violations(program, stay_put):
        solution = ilp.IlpSolution((), float("nan"), ilp.STATUS_INFEASIBLE)
    else:
        solution = ilp.IlpSolution(stay_put, 0.0, ilp.STATUS_OPTIMAL)
    status = solution.status
    binding: tuple[str, ...] = ()
    if status == ilp.STATUS_INFEASIBLE:
        binding = diagnose_infeasibility(program)
    # An infeasible solution has no assignment: everything stays in place.
    migrate = np.array(solution.assignment or stay_put, dtype=bool)

    energies = np.where(migrate, costs.move_energy, costs.stay_energy).tolist()
    latencies = np.where(migrate, costs.move_latency, costs.stay_latency)
    post_dram = costs.on_dram != migrate
    decisions = tuple(
        MigrationDecision(
            id=object_id,
            current_device=DRAM if here else NVM,
            target_device=DRAM if there else NVM,
            migrate=x,
            migration_cost_nj=cost,
            migration_time_ns=copy_time,
        )
        for object_id, here, there, x, cost, copy_time in zip(
            live.ids(), costs.on_dram.tolist(), post_dram.tolist(),
            migrate.tolist(),
            np.where(migrate, costs.copy_energy, 0.0).tolist(),
            np.where(migrate, costs.copy_time, 0.0).tolist()))

    _, dead_energies = price_placement(dead, dev, _on_dram(current, dead))

    future_plan = None
    if plan_future and future_ids:
        future_set = profiles.take(profiles.alloc_time > t)
        live_post_dram = sum(live.size[post_dram].tolist())
        live_post_nvm = sum(live.size.tolist()) - live_post_dram
        residual = dev.with_capacities(
            max(0.0, dram_free - live_post_dram),
            max(0.0, dev.nvm_capacity - live_post_nvm))
        try:
            future_plan = plan_static(future_set, residual, request.new_ratio,
                                      current.major_threshold)
        except CapacityError:
            future_plan = None

    return MigrationPlan(
        decisions=decisions,
        status=status,
        time_s=t,
        new_ratio=request.new_ratio,
        strict=request.strict,
        e_total_nj=sum(energies, 0.0),
        requirement_nj=requirement,
        objective_ns=sum(latencies.tolist(), 0.0),
        dead_energy_nj=sum(dead_energies.tolist()),
        dead_ids=dead.ids(),
        future_ids=future_ids,
        future_plan=future_plan,
        binding_constraints=binding,
    )


def _on_dram(plan: PlacementPlan, profiles: ProfileSet) -> list[bool]:
    return [plan.placements[object_id] == DRAM
            for object_id in profiles.ids()]


def write_migration_plan(plan: MigrationPlan,
                         dest: str | os.PathLike | IO[str]) -> None:
    """Serialize the migration table plus its summary block."""
    with open_text(dest, "w") as stream:
        stream.write(MIGRATION_FORMAT_VERSION + "\n")
        stream.write(f"status={plan.status}\n")
        stream.write(f"time_s={repr(plan.time_s)}\n")
        stream.write(f"new_ratio={repr(plan.new_ratio)}\n")
        stream.write(f"strict={int(plan.strict)}\n")
        stream.write(f"e_total_nj={repr(plan.e_total_nj)}\n")
        stream.write(f"requirement_nj={repr(plan.requirement_nj)}\n")
        stream.write(f"objective_ns={repr(plan.objective_ns)}\n")
        stream.write(f"dead_energy_nj={repr(plan.dead_energy_nj)}\n")
        stream.write(f"dead_ids={';'.join(plan.dead_ids)}\n")
        stream.write(f"future_ids={';'.join(plan.future_ids)}\n")
        stream.write(f"binding={';'.join(plan.binding_constraints)}\n")
        stream.write("id,from,to,migrate,migce_nJ,migct_ns\n")
        for d in plan.decisions:
            stream.write(f"{d.id},{d.current_device},{d.target_device},"
                         f"{int(d.migrate)},{repr(d.migration_cost_nj)},"
                         f"{repr(d.migration_time_ns)}\n")
