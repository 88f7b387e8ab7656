"""Independent scoring of placement plans.

Recomputes energy and latency for any plan from the profiles and device
constants alone, never trusting planner-reported totals, and checks
capacity and budget. Two capacity views are reported: the static one
(every object counted for its whole size regardless of lifetime, the view
the planners constrain) and a time-resolved one (peak bytes concurrently
allocated per device).

Energy totals cover the major objects, the same population the budget is
defined over; the DRAM energy of minor objects is reported separately (or
folded in when the plan was built that way).
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .energy import DeviceSpec, dram_energy, price_placement
from .planner import DRAM, NVM, PlacementPlan, plan_static
from .profiles import ProfileSet, filter_major

_REL_TOL = 1e-9


@dataclass(frozen=True)
class EvaluationReport:
    """Evaluator-recomputed scores and checks for one plan."""

    total_energy_nj: float
    latency_objective_ns: float
    energy_ratio_vs_all_dram: float
    capacity_ok_dram: bool
    capacity_ok_nvm: bool
    budget_ok: bool
    static_dram_bytes: float
    static_nvm_bytes: float
    peak_dram_bytes: float
    peak_nvm_bytes: float
    minor_dram_energy_nj: float
    breakdown: dict[str, float]

    @property
    def capacity_ok(self) -> bool:
        return self.capacity_ok_dram and self.capacity_ok_nvm


def _peak_bytes(profiles: ProfileSet, on_device: np.ndarray) -> float:
    # Sweep alloc/dealloc events in (time, delta) order, so frees at time t
    # happen before allocations at the same instant (half-open lifetimes);
    # the running level is a sequential sum.
    size = profiles.size[on_device]
    times = np.concatenate((profiles.alloc_time[on_device],
                            profiles.dealloc_time[on_device]))
    deltas = np.concatenate((size, -size))
    levels = np.cumsum(deltas[np.lexsort((deltas, times))])
    return max(0.0, float(levels.max(initial=0.0)))


def evaluate(profiles: ProfileSet, dev: DeviceSpec,
             plan: PlacementPlan) -> EvaluationReport:
    """Score a plan from scratch; every profiled object must be placed."""
    ids = profiles.ids()
    devices = list(map(plan.placements.get, ids))
    on_dram = np.array([d == DRAM for d in devices], dtype=bool)
    on_nvm = np.array([d == NVM for d in devices], dtype=bool)
    if not np.all(on_dram | on_nvm):
        object_id = ids[int(np.argmin(on_dram | on_nvm))]
        if object_id not in plan.placements:
            raise ValueError(f"plan does not cover object {object_id!r}")
        raise ValueError(f"object {object_id!r} has no concrete device")

    major_mask = profiles.accessed_volume > plan.major_threshold
    major, minor = filter_major(profiles, plan.major_threshold)
    latencies, energies = price_placement(major, dev, on_dram[major_mask])
    breakdown = dict(zip(major.ids(), energies.tolist()))
    latency = sum(latencies.tolist(), 0.0)
    minor_energy = float(sum(dram_energy(minor, dev).tolist()))

    total = float(sum(breakdown.values()))
    denom = float(sum(dram_energy(major, dev).tolist()))
    if plan.minor_energy_in_budget:
        total += minor_energy
        denom += minor_energy
    if denom > 0:
        ratio = total / denom
    else:
        ratio = 1.0 if total == 0 else float("inf")

    static_dram = sum(profiles.size[on_dram].tolist())
    static_nvm = sum(profiles.size[on_nvm].tolist())
    dram_limit = dev.dram_capacity - plan.reserved_dram_bytes
    capacity_ok_dram = static_dram <= dram_limit + _REL_TOL * max(1.0, dram_limit)
    capacity_ok_nvm = static_nvm <= dev.nvm_capacity \
        + _REL_TOL * max(1.0, dev.nvm_capacity)

    budget = plan.energy_budget_nj
    budget_ok = True
    if math.isfinite(budget):
        budget_ok = total <= budget + _REL_TOL * max(1.0, abs(budget))

    return EvaluationReport(
        total_energy_nj=total,
        latency_objective_ns=latency,
        energy_ratio_vs_all_dram=ratio,
        capacity_ok_dram=capacity_ok_dram,
        capacity_ok_nvm=capacity_ok_nvm,
        budget_ok=budget_ok,
        static_dram_bytes=static_dram,
        static_nvm_bytes=static_nvm,
        peak_dram_bytes=_peak_bytes(profiles, on_dram),
        peak_nvm_bytes=_peak_bytes(profiles, on_nvm),
        minor_dram_energy_nj=minor_energy,
        breakdown=breakdown,
    )


@dataclass(frozen=True)
class ComparisonRow:
    plan: str
    energy_nj: float
    ratio: float
    latency_ns: float
    capacity_ok: bool


def _row(name: str, report: EvaluationReport | None) -> ComparisonRow:
    if report is None:
        nan = float("nan")
        return ComparisonRow(name, nan, nan, nan, False)
    return ComparisonRow(name, report.total_energy_nj,
                         report.energy_ratio_vs_all_dram,
                         report.latency_objective_ns, report.capacity_ok)


def compare(profiles: ProfileSet, dev: DeviceSpec,
            plans: Sequence[tuple[str, PlacementPlan | None]],
            include_matched_optimal: bool = False) -> list[ComparisonRow]:
    """One evaluator row per named plan, in order.

    A plan of None (a strategy that found no assignment) gets a row of
    nan with ``capacity_ok`` false. With ``include_matched_optimal`` each
    feasible input plan is followed by an optimal plan computed at the
    energy ratio the input achieved, which by construction can only match
    or beat its latency.
    """
    if not plans:
        raise ValueError("compare needs at least one plan")
    rows = []
    for name, plan in plans:
        report = None if plan is None else evaluate(profiles, dev, plan)
        rows.append(_row(name, report))
        if include_matched_optimal and report is not None \
                and report.capacity_ok \
                and report.energy_ratio_vs_all_dram > 0 \
                and math.isfinite(report.energy_ratio_vs_all_dram):
            matched = plan_static(
                profiles, dev, report.energy_ratio_vs_all_dram,
                plan.major_threshold,
                reserved_dram_bytes=plan.reserved_dram_bytes,
                include_minor_in_budget=plan.minor_energy_in_budget)
            rows.append(_row(f"{name}:optimal",
                             evaluate(profiles, dev, matched)
                             if matched.feasible else None))
    return rows


COMPARISON_COLUMNS = ("plan", "energy_nJ", "ratio", "latency_ns", "capacity_ok")


def _cell(value) -> str:
    # Flags print as 0/1, floats by repr (full precision, nan as nan) and
    # everything else by str, so an integral 0 stays 0.
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _column(values: tuple) -> Iterable[str]:
    # The cells of one column by `_cell`; a column of floats only or of
    # strs only gets the same text without a Python call per cell.
    kinds = set(map(type, values))
    if kinds == {float}:
        return map(repr, values)
    return values if kinds == {str} else map(_cell, values)


def _csv_table(columns: Sequence[str], rows: Iterable[Iterable]) -> str:
    """CSV text: a header line of the column names, then a line per row."""
    lines = [",".join(columns)]
    cells = map(_column, zip(*rows))  # formatted a column at a time
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    return _csv_table(COMPARISON_COLUMNS, map(astuple, rows))


def comparison_json(rows: Sequence[ComparisonRow]) -> str:
    payload = [dict(zip(COMPARISON_COLUMNS, astuple(row))) for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _scalars(report: EvaluationReport) -> dict[str, object]:
    return {field.name: getattr(report, field.name) for field in fields(report)
            if field.name != "breakdown"}


def report_json(report: EvaluationReport) -> str:
    payload = dict(_scalars(report), per_object_energy_nj=report.breakdown)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_csv(report: EvaluationReport) -> str:
    return (_csv_table(("metric", "value"), _scalars(report).items()) + "\n"
            + _csv_table(("id", "energy_nj"), report.breakdown.items()))
