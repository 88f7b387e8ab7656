"""Independent scoring of placement plans.

Recomputes energy and latency for any plan from the profiles and device
constants alone, never trusting planner-reported totals, and checks
capacity and budget against the static capacity view (every object counted
for its whole size regardless of lifetime, the view the planners
constrain). `compare` and `sweep` rank plans by those totals and checks
alone. The time-resolved view (peak bytes concurrently allocated per
device) and the per-object energy table belong to `evaluate`'s report.

Energy totals cover the major objects, the same population the budget is
defined over; the DRAM energy of minor objects is reported separately (or
folded in when the plan was built that way).
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .energy import DeviceSpec, price_placement, prices
from .planner import PlacementPlan, _on_dram, plan_static
from .profiles import ProfileSet, _sum_in_order, major_mask

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
    # Sweep the set's alloc/dealloc events in (time, delta) order, so frees
    # at time t happen before allocations at the same instant (half-open
    # lifetimes); the running level is a sequential sum.
    owners, deltas = profiles.events
    levels = np.cumsum(deltas[on_device[owners]])
    return max(0.0, float(levels.max(initial=0.0)))


def _within(value: float, limit: float) -> bool:
    """``value <= limit`` up to the scorer's relative tolerance."""
    return value <= limit + _REL_TOL * max(1.0, abs(limit))


def _score(profiles: ProfileSet, dev: DeviceSpec, plan: PlacementPlan):
    """The scoring core: `EvaluationReport`'s fields but the peaks and the
    per-object table, by name; then the DRAM mask, the major mask and the
    major objects' energies. The whole set is priced once and the major and
    minor objects are picked from its columns by mask, in profile order."""
    on_dram = _on_dram(plan, profiles)
    major = major_mask(profiles, plan.major_threshold)
    latencies, energies = price_placement(profiles, dev, on_dram)
    all_dram = prices(profiles, dev)[0]
    major_energies = energies[major]
    latency = _sum_in_order(latencies[major], 0.0)
    minor_energy = _sum_in_order(all_dram[~major], 0.0)

    # The sum of the per-object table's values, in its order.
    total = _sum_in_order(major_energies, 0.0)
    denom = _sum_in_order(all_dram[major], 0.0)
    if plan.minor_energy_in_budget:
        total += minor_energy
        denom += minor_energy
    if denom > 0:
        ratio = total / denom
    else:
        ratio = 1.0 if total == 0 else float("inf")

    static_dram = _sum_in_order(profiles.size[on_dram])
    static_nvm = _sum_in_order(profiles.size[~on_dram])
    budget = plan.energy_budget_nj
    capacity_ok_dram = _within(static_dram,
                               dev.dram_capacity - plan.reserved_dram_bytes)
    capacity_ok_nvm = _within(static_nvm, dev.nvm_capacity)
    budget_ok = not math.isfinite(budget) or _within(total, budget)

    scores = dict(
        total_energy_nj=total, latency_objective_ns=latency,
        energy_ratio_vs_all_dram=ratio, capacity_ok_dram=capacity_ok_dram,
        capacity_ok_nvm=capacity_ok_nvm, budget_ok=budget_ok,
        static_dram_bytes=static_dram, static_nvm_bytes=static_nvm,
        minor_dram_energy_nj=minor_energy)
    return scores, on_dram, major, major_energies


def evaluate(profiles: ProfileSet, dev: DeviceSpec,
             plan: PlacementPlan) -> EvaluationReport:
    """Score a plan from scratch (every profiled object must be placed):
    the scoring core's fields, each device's peak and the per-object table.
    """
    scores, on_dram, major, major_energies = _score(profiles, dev, plan)
    return EvaluationReport(
        **scores, peak_dram_bytes=_peak_bytes(profiles, on_dram),
        peak_nvm_bytes=_peak_bytes(profiles, ~on_dram),
        breakdown=dict(zip(compress(profiles.ids(), major.tolist()),
                           major_energies.tolist())))


@dataclass(frozen=True)
class ComparisonRow:
    plan: str
    energy_nj: float
    ratio: float
    latency_ns: float
    capacity_ok: bool


def _row(name: str, profiles: ProfileSet, dev: DeviceSpec,
         plan: PlacementPlan | None) -> ComparisonRow:
    """A plan's row from the scoring core alone; no plan gives nan."""
    if plan is None:
        nan = float("nan")
        return ComparisonRow(name, nan, nan, nan, False)
    scores = _score(profiles, dev, plan)[0]
    return ComparisonRow(name, scores["total_energy_nj"],
                         scores["energy_ratio_vs_all_dram"],
                         scores["latency_objective_ns"],
                         scores["capacity_ok_dram"]
                         and scores["capacity_ok_nvm"])


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
        row = _row(name, profiles, dev, plan)
        rows.append(row)
        if include_matched_optimal and row.capacity_ok and row.ratio > 0 \
                and math.isfinite(row.ratio):
            matched = plan_static(
                profiles, dev, row.ratio, plan.major_threshold,
                reserved_dram_bytes=plan.reserved_dram_bytes,
                include_minor_in_budget=plan.minor_energy_in_budget)
            rows.append(_row(f"{name}:optimal", profiles, dev,
                             matched if matched.feasible else None))
    return rows


COMPARISON_COLUMNS = ("plan", "energy_nJ", "ratio", "latency_ns", "capacity_ok")


def _cell(value) -> str:
    # Flags print as 0/1, floats by repr (full precision, nan as nan) and
    # everything else by str, so an integral 0 stays 0.
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _csv_table(columns: Sequence[str], rows: Iterable[Iterable]) -> str:
    """CSV text: a header line of the column names, then a line per row."""
    lines = [",".join(columns)]
    cells = (map(_cell, column) for column in zip(*rows))
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
    # The bytes of json.dumps(payload, indent=2, sort_keys=True). An indent
    # runs the pure-Python encoder, so the per-object table, most of the
    # report, goes through the C encoder with the indent in its item
    # separator and is spliced in (tools/ab.py: evaluate 1.09x, 1.06-1.13).
    table = json.dumps(report.breakdown, sort_keys=True,
                       separators=(",\n    ", ": "))
    if report.breakdown:
        table = "{\n    " + table[1:-1] + "\n  }"
    text = json.dumps(dict(_scalars(report), per_object_energy_nj=0),
                      indent=2, sort_keys=True)
    return text.replace('"per_object_energy_nj": 0',
                        '"per_object_energy_nj": ' + table, 1) + "\n"


def report_csv(report: EvaluationReport) -> str:
    # The per-object table is all floats, so it is written a column at a time,
    # not by _csv_table's cell rule (tools/ab.py: evaluate 1.07x, 1.05-1.10).
    table = map(",".join, zip(report.breakdown,
                              map(repr, report.breakdown.values())))
    return (_csv_table(("metric", "value"), _scalars(report).items()) + "\n"
            + "\n".join(("id,energy_nj", *table, "")))
