"""Reference placement strategies to compare the planner against.

All of these produce ordinary PlacementPlan values (minor objects pinned
to DRAM as usual) whose ``ratio`` and ``energy_budget_nj`` record what the
strategy achieved rather than a requested budget.
"""

from __future__ import annotations

import math

import numpy as np

from . import ilp
from .energy import DeviceSpec
from .planner import (CONSTRAINT_CAPACITY_DRAM, CONSTRAINT_CAPACITY_NVM,
                      PlacementPlan, _budget, _major_minor, _set_plan,
                      summarize_assignment)
from .profiles import DEFAULT_MAJOR_THRESHOLD, ProfileSet, _sum_in_order


_MAX_DRAWS = 200_000  # before place_random gives up


class NoFeasibleAssignment(ValueError):
    """A strategy found no assignment that fits the device capacities."""


def _finish(profiles: ProfileSet, major: ProfileSet, dev: DeviceSpec,
            on_dram: np.ndarray, major_threshold: float,
            reserved_dram_bytes: float,
            status: str = ilp.STATUS_OPTIMAL,
            binding: tuple[str, ...] = ()) -> PlacementPlan:
    objective, energy = summarize_assignment(major, dev, on_dram)
    all_dram_energy = _budget(major, dev, 1.0, 0.0)
    ratio = energy / all_dram_energy if all_dram_energy > 0 else 1.0
    return _set_plan(
        profiles, on_dram, status, ratio=ratio,
        major_threshold=major_threshold, objective_ns=objective,
        planned_energy_nj=energy, energy_budget_nj=energy,
        reserved_dram_bytes=reserved_dram_bytes, binding_constraints=binding)


def place_all_dram(profiles: ProfileSet, dev: DeviceSpec,
                   major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                   reserved_dram_bytes: float = 0.0) -> PlacementPlan:
    """Everything in DRAM: the energy-normalization reference point."""
    major, _, _ = _major_minor(profiles, major_threshold,
                               reserved_dram_bytes, dev)
    return _finish(profiles, major, dev, np.ones(len(major), bool),
                   major_threshold, reserved_dram_bytes)


def place_all_nvm(profiles: ProfileSet, dev: DeviceSpec,
                  major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                  reserved_dram_bytes: float = 0.0) -> PlacementPlan:
    """Every major object in NVM (minor objects stay DRAM-pinned)."""
    major, _, _ = _major_minor(profiles, major_threshold,
                               reserved_dram_bytes, dev)
    return _finish(profiles, major, dev, np.zeros(len(major), bool),
                   major_threshold, reserved_dram_bytes)


def place_mpki_threshold(profiles: ProfileSet, dev: DeviceSpec,
                         mpki_threshold: float,
                         major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                         reserved_dram_bytes: float = 0.0) -> PlacementPlan:
    """LLC-MPKI rule: hot objects (mpki >= threshold) go to DRAM.

    Capacity overflow on DRAM is resolved by demoting the lowest-mpki
    residents to NVM; NVM overflow by promoting its highest-mpki residents
    back while they fit. Every major object must carry an llc_mpki value.
    """
    if math.isnan(mpki_threshold):  # no mpki is above or below it
        raise ValueError("mpki_threshold must be a number, got nan")
    major, _, dram_free = _major_minor(profiles, major_threshold,
                                       reserved_dram_bytes, dev)
    mpki = major.llc_mpki
    missing = np.isnan(mpki)
    if missing.any():
        object_id = major.ids()[int(np.argmax(missing))]
        raise ValueError(f"object {object_id!r} has no llc_mpki value")

    on_dram = mpki >= mpki_threshold
    dram_bytes = _sum_in_order(major.size[on_dram])
    nvm_bytes = _sum_in_order(major.size[~on_dram])

    # Demote coldest DRAM residents first (ties broken by profile order)
    # until DRAM fits: the running byte counts are accumulated one object
    # at a time, as a loop would subtract and add them (tools/ab.py, by
    # loop: compare 1.12x, 1.09-1.15; those ops set wide-pipeline's op_p90_ms).
    order = np.argsort(mpki, kind="stable")
    residents = order[on_dram[order]]
    moved = major.size[residents]
    left = np.subtract.accumulate(np.append(dram_bytes, moved))
    k = int(np.argmax(left <= dram_free)) if left.min() <= dram_free \
        else len(moved)
    on_dram[residents[:k]] = False
    dram_bytes = float(left[k])
    nvm_bytes = float(np.add.accumulate(np.append(nvm_bytes, moved))[k])
    sizes = major.size
    for i in order[::-1]:
        if nvm_bytes <= dev.nvm_capacity:
            break
        if not on_dram[i] and dram_bytes + sizes[i] <= dram_free:
            on_dram[i] = True
            dram_bytes += sizes[i]
            nvm_bytes -= sizes[i]

    # The final split's own sums decide: running counts carry residue.
    binding: tuple[str, ...] = ()
    if _sum_in_order(major.size[on_dram]) > dram_free:
        binding += (CONSTRAINT_CAPACITY_DRAM,)
    if _sum_in_order(major.size[~on_dram]) > dev.nvm_capacity:
        binding += (CONSTRAINT_CAPACITY_NVM,)
    status = ilp.STATUS_INFEASIBLE if binding else ilp.STATUS_OPTIMAL
    return _finish(profiles, major, dev, on_dram, major_threshold,
                   reserved_dram_bytes, status=status, binding=binding)


def place_random(profiles: ProfileSet, dev: DeviceSpec, seed: int,
                 major_threshold: float = DEFAULT_MAJOR_THRESHOLD,
                 reserved_dram_bytes: float = 0.0) -> PlacementPlan:
    """Uniform draw over the capacity-feasible assignments (rejection).

    Deterministic for a fixed seed. Raises NoFeasibleAssignment when the
    capacities admit no assignment at all or none is found within
    200,000 draws.
    """
    major, _, dram_free = _major_minor(profiles, major_threshold,
                                       reserved_dram_bytes, dev)
    sizes = major.size
    if _sum_in_order(sizes) > dram_free + dev.nvm_capacity:
        raise NoFeasibleAssignment("no capacity-feasible assignment exists")
    rng = np.random.default_rng(seed)
    n = len(major)
    for _ in range(_MAX_DRAWS):
        x = rng.integers(0, 2, size=n)
        if _sum_in_order(sizes * x) <= dram_free \
                and _sum_in_order(sizes * (1 - x)) <= dev.nvm_capacity:
            return _finish(profiles, major, dev, x.astype(bool),
                           major_threshold, reserved_dram_bytes)
    raise NoFeasibleAssignment(
        f"no capacity-feasible assignment found in {_MAX_DRAWS} draws")
