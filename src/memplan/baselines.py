"""Reference placement strategies to compare the planner against.

All of these produce ordinary PlacementPlan values (minor objects pinned
to DRAM as usual) whose ``ratio`` and ``energy_budget_nj`` record what the
strategy achieved rather than a requested budget.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import ilp
from .energy import DeviceSpec, dram_energy
from .planner import (CONSTRAINT_CAPACITY_DRAM, CONSTRAINT_CAPACITY_NVM, DRAM,
                      NVM, PlacementPlan, _major_minor, summarize_assignment)
from .profiles import DEFAULT_MAJOR_THRESHOLD, ProfileSet


_MAX_DRAWS = 200_000  # before place_random gives up


class NoFeasibleAssignment(ValueError):
    """A strategy found no assignment that fits the device capacities."""


def _finish(major: ProfileSet, minor: ProfileSet, dev: DeviceSpec,
            on_dram: Sequence[int], major_threshold: float,
            reserved_dram_bytes: float,
            status: str = ilp.STATUS_OPTIMAL,
            binding: tuple[str, ...] = ()) -> PlacementPlan:
    placements = dict.fromkeys(minor.ids(), DRAM)
    placements.update(zip(major.ids(), (DRAM if x else NVM for x in on_dram)))
    objective, energy = summarize_assignment(major, dev, on_dram)
    all_dram_energy = sum(dram_energy(major, dev).tolist(), 0.0)
    ratio = energy / all_dram_energy if all_dram_energy > 0 else 1.0
    return PlacementPlan(
        placements=placements,
        major_ids=major.ids(),
        status=status,
        ratio=ratio,
        major_threshold=major_threshold,
        objective_ns=objective,
        planned_energy_nj=energy,
        energy_budget_nj=energy,
        reserved_dram_bytes=reserved_dram_bytes,
        binding_constraints=binding,
    )


def place_all_dram(profiles: ProfileSet, dev: DeviceSpec,
                   major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                   reserved_dram_bytes: float = 0.0) -> PlacementPlan:
    """Everything in DRAM: the energy-normalization reference point."""
    major, minor, _ = _major_minor(profiles, major_threshold,
                                   reserved_dram_bytes, dev)
    return _finish(major, minor, dev, [1] * len(major), major_threshold,
                   reserved_dram_bytes)


def place_all_nvm(profiles: ProfileSet, dev: DeviceSpec,
                  major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                  reserved_dram_bytes: float = 0.0) -> PlacementPlan:
    """Every major object in NVM (minor objects stay DRAM-pinned)."""
    major, minor, _ = _major_minor(profiles, major_threshold,
                                   reserved_dram_bytes, dev)
    return _finish(major, minor, dev, [0] * len(major), major_threshold,
                   reserved_dram_bytes)


def place_mpki_threshold(profiles: ProfileSet, dev: DeviceSpec,
                         mpki_threshold: float,
                         major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                         reserved_dram_bytes: float = 0.0) -> PlacementPlan:
    """LLC-MPKI rule: hot objects (mpki >= threshold) go to DRAM.

    Capacity overflow on DRAM is resolved by demoting the lowest-mpki
    residents to NVM; NVM overflow by promoting its highest-mpki residents
    back while they fit. Every major object must carry an llc_mpki value.
    """
    major, minor, dram_free = _major_minor(profiles, major_threshold,
                                           reserved_dram_bytes, dev)
    mpki = major.llc_mpki
    missing = np.isnan(mpki)
    if missing.any():
        object_id = major.ids()[int(np.argmax(missing))]
        raise ValueError(f"object {object_id!r} has no llc_mpki value")

    hot = mpki >= mpki_threshold
    on_dram = hot.astype(int).tolist()
    sizes = major.size.tolist()
    dram_bytes = sum(major.size[hot].tolist())
    nvm_bytes = sum(major.size[~hot].tolist())

    # Demote coldest DRAM residents first (ties broken by profile order).
    order = np.argsort(mpki, kind="stable").tolist()
    for i in order:
        if dram_bytes <= dram_free:
            break
        if on_dram[i]:
            on_dram[i] = 0
            dram_bytes -= sizes[i]
            nvm_bytes += sizes[i]
    for i in reversed(order):
        if nvm_bytes <= dev.nvm_capacity:
            break
        if not on_dram[i] and dram_bytes + sizes[i] <= dram_free:
            on_dram[i] = 1
            dram_bytes += sizes[i]
            nvm_bytes -= sizes[i]

    binding: tuple[str, ...] = ()
    if dram_bytes > dram_free:
        binding += (CONSTRAINT_CAPACITY_DRAM,)
    if nvm_bytes > dev.nvm_capacity:
        binding += (CONSTRAINT_CAPACITY_NVM,)
    status = ilp.STATUS_INFEASIBLE if binding else ilp.STATUS_OPTIMAL
    return _finish(major, minor, dev, on_dram, major_threshold,
                   reserved_dram_bytes, status=status, binding=binding)


def place_random(profiles: ProfileSet, dev: DeviceSpec, seed: int,
                 major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                 reserved_dram_bytes: float = 0.0) -> PlacementPlan:
    """Uniform draw over the capacity-feasible assignments (rejection).

    Deterministic for a fixed seed. Raises NoFeasibleAssignment when the
    capacities admit no assignment at all or none is found within
    200,000 draws.
    """
    major, minor, dram_free = _major_minor(profiles, major_threshold,
                                           reserved_dram_bytes, dev)
    sizes = major.size
    if sizes.sum() > dram_free + dev.nvm_capacity:
        raise NoFeasibleAssignment("no capacity-feasible assignment exists")
    rng = np.random.default_rng(seed)
    n = len(major)
    for _ in range(_MAX_DRAWS):
        x = rng.integers(0, 2, size=n)
        if (sizes * x).sum() <= dram_free and (sizes * (1 - x)).sum() <= dev.nvm_capacity:
            return _finish(major, minor, dev, [int(v) for v in x],
                           major_threshold, reserved_dram_bytes)
    raise NoFeasibleAssignment(
        f"no capacity-feasible assignment found in {_MAX_DRAWS} draws")
