"""Exact 0-1 integer linear programming.

Solves ``minimize c.x subject to A.x <= b, x in {0,1}^n``. Two routes with
the same contract: `solve` (branch and bound) for real use and
`solve_exhaustive` (full enumeration, n <= 24) as an independent oracle.
Both are deterministic and break objective ties by returning the
lexicographically smallest optimal assignment.

The branch and bound explores assignments in lexicographic order (variable
0 first, trying 0 before 1) and prunes with a per-constraint fractional
relaxation bound, so its incumbent updates mirror the oracle's scan
exactly; equivalence of the two routes is enforced by randomized tests.
Constraint satisfaction and objective comparisons use a shared tolerance
of 1e-9 relative with a 1e-12 absolute floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ABS_TOL = 1e-12
REL_TOL = 1e-9

EXHAUSTIVE_MAX_VARIABLES = 24
_CHUNK_BITS = 18

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


def _tol(reference: float) -> float:
    return max(ABS_TOL, REL_TOL * abs(reference))


def padded_bounds(b: np.ndarray) -> np.ndarray:
    """Each bound plus the feasibility tolerance ``max(ABS_TOL, REL_TOL*|b|)``."""
    return b + np.maximum(ABS_TOL, REL_TOL * np.abs(b))


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class ZeroOneProgram:
    """Objective and upper-bound constraints over binary variables.

    Coefficients may be given as sequences or arrays; they are stored once
    as read-only float arrays, and ``constraints`` holds (row, bound) pairs
    whose rows are views of the constraint matrix.
    """

    objective_coeffs: np.ndarray
    constraints: tuple[tuple[np.ndarray, float], ...] = ()
    variable_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        c = _frozen(self.objective_coeffs)
        n = len(c)
        pairs = tuple(self.constraints)
        for i, (coeffs, _) in enumerate(pairs):
            if len(coeffs) != n:
                raise ValueError(
                    f"constraint {i} has {len(coeffs)} coefficients for "
                    f"{n} variables")
        a = _frozen([coeffs for coeffs, _ in pairs]).reshape(len(pairs), n)
        b = _frozen([bound for _, bound in pairs])
        names = tuple(self.variable_names) or tuple(f"x{i}" for i in range(n))
        if len(names) != n:
            raise ValueError(f"{len(names)} variable names for {n} variables")
        if len(set(names)) != n:
            raise ValueError("variable names must be unique")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective coefficients must be finite")
        for i, row in enumerate(a):
            if not np.all(np.isfinite(row)) or not np.isfinite(b[i]):
                raise ValueError(f"constraint {i} has non-finite entries")
        object.__setattr__(self, "objective_coeffs", c)
        object.__setattr__(self, "constraints", tuple(zip(a, b.tolist())))
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)

    @property
    def num_variables(self) -> int:
        return len(self.objective_coeffs)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c, A, b) as read-only float arrays; A is (m, n) even when m == 0."""
        return self.objective_coeffs, self._a, self._b


@dataclass(frozen=True)
class IlpSolution:
    assignment: tuple[int, ...]
    objective_value: float
    status: str


def constraint_violations(program: ZeroOneProgram,
                          assignment: Sequence[int]) -> list[str]:
    """Names of constraints the assignment violates beyond tolerance."""
    _, a, b = program.arrays()
    if len(assignment) != program.num_variables:
        raise ValueError("assignment length does not match program")
    x = np.asarray(assignment, dtype=float)
    slack = padded_bounds(b)
    return [f"constraint {i}" for i in range(len(b))
            if float(a[i] @ x) > slack[i]]


def solve_exhaustive(program: ZeroOneProgram) -> IlpSolution:
    """Oracle: enumerate every binary assignment (n <= 24)."""
    n = program.num_variables
    if n > EXHAUSTIVE_MAX_VARIABLES:
        raise ValueError(
            f"exhaustive enumeration limited to {EXHAUSTIVE_MAX_VARIABLES} "
            f"variables, got {n}")
    c, a, b = program.arrays()
    # Padded here, not by `padded_bounds`, so the oracle shares no code with
    # the solver it checks.
    slack = b + np.maximum(ABS_TOL, REL_TOL * np.abs(b))
    if n == 0:
        if np.all(0.0 <= slack):
            return IlpSolution((), 0.0, STATUS_OPTIMAL)
        return IlpSolution((), float("nan"), STATUS_INFEASIBLE)

    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)  # variable 0 is the MSB
    best_obj: float | None = None
    best_index = -1

    chunk = 1 << min(_CHUNK_BITS, n)
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(float)
        feasible = np.all(bits @ a.T <= slack[None, :], axis=1)
        if not feasible.any():
            continue
        objs = bits @ c
        # Sequential incumbent scan in index (= lexicographic) order; only a
        # strictly-better-than-tolerance objective replaces the incumbent.
        if best_obj is None:
            first = int(np.flatnonzero(feasible)[0])
            best_obj = float(objs[first])
            best_index = start + first
            candidates = np.flatnonzero(
                feasible & (objs < best_obj - _tol(best_obj)))
            candidates = candidates[candidates > first]
        else:
            candidates = np.flatnonzero(
                feasible & (objs < best_obj - _tol(best_obj)))
        while candidates.size:
            i = int(candidates[0])
            best_obj = float(objs[i])
            best_index = start + i
            rest = candidates[1:]
            candidates = rest[objs[rest] < best_obj - _tol(best_obj)]

    if best_obj is None:
        return IlpSolution((), float("nan"), STATUS_INFEASIBLE)
    assignment = tuple(int((best_index >> int(s)) & 1) for s in shifts)
    objective = float(c @ np.asarray(assignment, dtype=float))
    return IlpSolution(assignment, objective, STATUS_OPTIMAL)


def _relaxation_bound(c: np.ndarray, a_row: np.ndarray, capacity: float) -> float:
    """Exact minimum of c.x over x in [0,1]^k with a_row.x <= capacity.

    Fractional knapsack: take every negative-cost variable, then buy back
    constraint slack at the cheapest cost per unit of load until feasible.
    Returns +inf when even the minimum load exceeds the capacity.
    """
    take = c < 0
    value = float(c[take].sum())
    load = float(a_row[take].sum())
    if load <= capacity:
        return value
    # Load reducers: release a taken variable (cost -c per a of relief) or
    # raise an untaken one with negative load.
    rel_from = take & (a_row > 0)
    rel_to = ~take & (a_row < 0)
    costs = np.concatenate([-c[rel_from], c[rel_to]])
    reliefs = np.concatenate([a_row[rel_from], -a_row[rel_to]])
    if reliefs.size == 0:
        return float("inf")
    order = np.argsort(costs / reliefs, kind="stable")
    need = load - capacity
    for j in order:
        used = min(need, reliefs[j])
        value += used * (costs[j] / reliefs[j])
        need -= used
        if need <= 0:
            return value
    return float("inf")


def solve(program: ZeroOneProgram) -> IlpSolution:
    """Exact branch-and-bound minimizer with the oracle's tie-break."""
    n = program.num_variables
    c, a, b = program.arrays()
    if n == 0:
        return solve_exhaustive(program)
    m = len(b)
    slack = padded_bounds(b)
    # Residual suffix extremes per constraint: the least and most a suffix of
    # free variables can still add to each row.
    suffix_min = np.zeros((n + 1, m))
    for depth in range(n - 1, -1, -1):
        suffix_min[depth] = suffix_min[depth + 1] + np.minimum(a[:, depth], 0.0)
    suffix_neg_obj = np.zeros(n + 1)
    for depth in range(n - 1, -1, -1):
        suffix_neg_obj[depth] = suffix_neg_obj[depth + 1] + min(c[depth], 0.0)

    best_obj: float | None = None
    best_x: tuple[int, ...] = ()
    prefix = [0] * n

    def lower_bound(depth: int, obj_fixed: float, row_fixed: np.ndarray) -> float:
        bound = obj_fixed + suffix_neg_obj[depth]
        free = slice(depth, n)
        for i in range(m):
            residual = slack[i] - row_fixed[i]
            if suffix_min[depth, i] > residual:
                return float("inf")
            bound = max(bound, obj_fixed +
                        _relaxation_bound(c[free], a[i, free], residual))
        return bound

    def visit(depth: int, obj_fixed: float, row_fixed: np.ndarray) -> None:
        nonlocal best_obj, best_x
        if depth == n:
            if np.all(row_fixed <= slack):
                if best_obj is None or obj_fixed < best_obj - _tol(best_obj):
                    best_obj = obj_fixed
                    best_x = tuple(prefix)
            return
        if best_obj is not None:
            if lower_bound(depth, obj_fixed, row_fixed) > best_obj + _tol(best_obj):
                return
        elif lower_bound(depth, obj_fixed, row_fixed) == float("inf"):
            return
        prefix[depth] = 0
        visit(depth + 1, obj_fixed, row_fixed)
        prefix[depth] = 1
        visit(depth + 1, obj_fixed + c[depth], row_fixed + a[:, depth])
        prefix[depth] = 0

    visit(0, 0.0, np.zeros(m))
    if best_obj is None:
        return IlpSolution((), float("nan"), STATUS_INFEASIBLE)
    objective = float(c @ np.asarray(best_x, dtype=float))
    return IlpSolution(best_x, objective, STATUS_OPTIMAL)


def to_lp_format(program: ZeroOneProgram) -> str:
    """Render the program in LP text format for external cross-checking."""
    names = program.variable_names

    def terms(coeffs: Iterable[float]) -> str:
        parts = []
        for name, coeff in zip(names, coeffs):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else ("+" if parts else "")
            parts.append(f"{sign} {abs(coeff):.17g} {name}".strip())
        return " ".join(parts) if parts else "0 " + names[0] if names else "0"

    lines = ["Minimize", f" obj: {terms(program.objective_coeffs)}", "Subject To"]
    for i, (coeffs, bound) in enumerate(program.constraints):
        lines.append(f" c{i}: {terms(coeffs)} <= {bound:.17g}")
    if names:
        lines.append("Binary")
        lines.append(" " + " ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"
