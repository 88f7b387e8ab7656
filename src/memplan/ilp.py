"""Exact 0-1 integer linear programming.

Solves ``minimize c.x subject to A.x <= b, x in {0,1}^n``. Two routes with
the same contract: `solve` (branch and bound) for real use and
`solve_exhaustive` (full enumeration, n <= 24) as an independent oracle.
Both are deterministic and return an assignment that is optimal within
the tolerance; exact objective ties go to the lexicographically smallest
optimal assignment.

`solve` is a depth-first search on an explicit stack, so no recursion limit
caps the number of variables. It fixes variable 0 first and tries 0 before
1, so leaves arrive in the oracle's lexicographic order, and a leaf replaces
the incumbent only when better by more than the tolerance, as in the
oracle's scan. A node's bound is the largest of the rows' fractional
relaxations: take every free negative-cost variable, then buy back the
row's excess load at the least cost per unit of relief. Each row's bound
table (its movable variables sorted by that rate) is built once per solve.
The search keeps a node's objective and row loads as Python floats, added
in the order numpy would add the arrays, so they are the same doubles, and
prices a row with a scalar walk over its one table that skips the variables
above the node and stops at the first free variable covering the excess.
The walk reads the whole table: after root fixing (below) a table holds
the free variables alone, at most 70 on the programs the benchmark solves,
so the variables above a node that it steps over are few.
The walk adds the bought cost item by item, so a bound can differ in its
last bits from a BLAS dot product over the same items. A node is cut when
its bound cannot beat the incumbent by more than the tolerance, ties
included, so no cut subtree holds a replacing leaf.

Before the search, `solve` prices the root: a row that the free variables
cannot relieve ends the solve as infeasible after that one node, as the
search would. Otherwise it rounds the root relaxation to one feasible leaf
(the seed) and starts with a cutoff just above the seed's objective, so the
search proves an optimum instead of walking toward it one improvement at a
time. Any leaf no worse than the seed is still accepted, so an exact tie
keeps its lexicographic winner. Only distinct objectives within about twice
the tolerance of each other can end at a different, equally optimal leaf
than the oracle's scan.

With the seed in hand, `solve` fixes variables at the root by reduced cost
(Balas and Zemel, Oper. Res. 28(5), 1980). The multiplier λ is the rate of
the item that covers the dearest overloaded row's root excess, the LP dual
of that row's relaxation, or 0 when no row is overloaded. With reduced
costs ``r = c + λ·a`` over that row and the Lagrangian bound
``L = Σ min(0, r_j) - λ·slack``, a leaf that sets x_j to anything but its
Lagrangian value ``r_j < 0`` costs at least ``L + |r_j|``. When that is
beyond the seed's cutoff by more than a float margin, the search would cut
every such leaf, so x_j is fixed. The search then runs over the free
variables alone, from a root that holds the fixed ones' objective and row
loads; suffix sums and bound tables are built for the free variables only
(a root table is filtered, which keeps its order), and the leaf check still
runs every row against its own slack. A fixed variable has the same value
in every leaf that can still be accepted, so the remaining leaves arrive in
the same lexicographic order and the tie-break is unchanged.

Randomized tests keep the two routes equivalent. Objective comparisons use
a tolerance of ``max(ABS_TOL, REL_TOL * |value|)``, 1e-9 relative with a
1e-12 absolute floor, and so does each constraint, on its bound, unless its
program gives the row a tolerance of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, le, sub
from typing import Sequence

import numpy as np

ABS_TOL = 1e-12
REL_TOL = 1e-9

EXHAUSTIVE_MAX_VARIABLES = 24
_CHUNK_BITS = 18

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


def _tol(reference: float) -> float:
    return max(ABS_TOL, REL_TOL * abs(reference))


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class ZeroOneProgram:
    """Objective and upper-bound constraints over binary variables.

    Coefficients may be given as sequences or arrays; they are stored once
    as read-only float arrays, and ``constraints`` holds (row, bound) pairs
    whose rows are views of the constraint matrix. ``tolerances`` holds
    each row's absolute feasibility tolerance, by default
    ``max(ABS_TOL, REL_TOL * |bound|)``. A row whose bound is a difference
    that cancels (a budget less a large fixed part) should pass the
    tolerance of the quantity it limits instead, since the bound's
    magnitude says nothing about the precision that quantity is checked to.
    """

    objective_coeffs: np.ndarray
    constraints: tuple[tuple[np.ndarray, float], ...] = ()
    tolerances: Sequence[float] | np.ndarray = ()

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
        if not np.all(np.isfinite(c)):
            raise ValueError("objective coefficients must be finite")
        for i, row in enumerate(a):
            if not np.all(np.isfinite(row)) or not np.isfinite(b[i]):
                raise ValueError(f"constraint {i} has non-finite entries")
        tol = _frozen(self.tolerances) if len(self.tolerances) \
            else np.maximum(ABS_TOL, REL_TOL * np.abs(b))
        if tol.shape != b.shape or not np.all(np.isfinite(tol) & (tol >= 0)):
            raise ValueError(
                "one finite tolerance >= 0 per constraint required")
        slack = b + tol
        tol.flags.writeable = slack.flags.writeable = False
        object.__setattr__(self, "objective_coeffs", c)
        object.__setattr__(self, "constraints", tuple(zip(a, b.tolist())))
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "tolerances", tol)
        object.__setattr__(self, "_slack", slack)

    @property
    def num_variables(self) -> int:
        return len(self.objective_coeffs)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c, A, b) as read-only float arrays; A is (m, n) even when m == 0."""
        return self.objective_coeffs, self._a, self._b

    def slack(self) -> np.ndarray:
        """Each bound plus its row's tolerance: the most load a row accepts."""
        return self._slack


@dataclass(frozen=True)
class IlpSolution:
    assignment: tuple[int, ...]
    objective_value: float
    status: str
    # Search nodes `solve` popped; telemetry only, never part of a result.
    nodes: int = field(default=0, compare=False)


def constraint_violations(program: ZeroOneProgram,
                          assignment: Sequence[int]) -> list[str]:
    """Names of constraints the assignment violates beyond tolerance."""
    _, a, b = program.arrays()
    if len(assignment) != program.num_variables:
        raise ValueError("assignment length does not match program")
    x = np.asarray(assignment, dtype=float)
    slack = program.slack()
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
    # Padded here, not by `ZeroOneProgram.slack`, so the oracle shares no
    # code with the solver it checks.
    slack = b + program.tolerances
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)  # variable 0 is the MSB
    cutoff = float("inf")  # a leaf must fall below this to be the incumbent
    best_index = -1

    # A chunk's low bits repeat in every chunk; only the high columns (the
    # first ``high``) change, and they are constant within a chunk.
    chunk = 1 << min(_CHUNK_BITS, n)
    high = n - min(_CHUNK_BITS, n)
    bits = ((np.arange(chunk, dtype=np.uint32)[:, None] >> shifts[None, :])
            & 1).astype(float)
    for start in range(0, 1 << n, chunk):
        bits[:, :high] = (start >> shifts[:high]) & 1
        feasible = np.all(bits @ a.T <= slack[None, :], axis=1)
        objs = bits @ c
        # Sequential incumbent scan in index (= lexicographic) order with
        # `solve`'s rule: only a leaf below the cutoff replaces the
        # incumbent, and the cutoff then falls to its objective less the
        # tolerance.
        candidates = np.flatnonzero(feasible & (objs < cutoff))
        while candidates.size:
            i = int(candidates[0])
            best_index = start + i
            best = float(objs[i])
            cutoff = best - _tol(best)
            rest = candidates[1:]
            candidates = rest[objs[rest] < cutoff]

    if best_index < 0:
        return IlpSolution((), float("nan"), STATUS_INFEASIBLE)
    assignment = tuple(int((best_index >> int(s)) & 1) for s in shifts)
    objective = float(c @ np.asarray(assignment, dtype=float))
    return IlpSolution(assignment, objective, STATUS_OPTIMAL)


def _bound_table(c: np.ndarray, row: np.ndarray,
                 neg: np.ndarray) -> list[tuple[int, float, float]]:
    """One row's movable variables sorted by cost per unit of load relief.

    With every negative-cost variable taken, a row's load falls by
    releasing a taken variable of positive load or by raising an untaken
    one of negative load. Returns (variable, relief, cost per relief)
    items in the order a fractional knapsack buys relief.
    """
    var = np.flatnonzero(np.where(neg, row > 0, row < 0))
    relief = np.abs(row[var])
    rate = np.abs(c[var]) / relief
    order = np.argsort(rate, kind="stable")
    return list(zip(var[order].tolist(), relief[order].tolist(),
                    rate[order].tolist()))


def _relief_cost(table: list, depth: int, excess: float) -> float:
    """Least fractional cost of ``excess`` relief from variables >= depth.

    Buys the free items in table order, only part of the one that covers
    the excess; +inf when the free variables cannot relieve that much.
    """
    total = dot = 0.0
    for var, relief, rate in table:
        if var >= depth:
            total += relief
            dot += rate * relief
            if total >= excess:
                return dot - (total - excess) * rate
    return math.inf


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """Row d holds the sum of ``values[j]`` over j >= d; row n is zero."""
    sums = np.zeros((len(values) + 1,) + values.shape[1:])
    sums[:-1] = np.cumsum(values[::-1], axis=0)[::-1]
    return sums


def _seed(c: np.ndarray, columns: np.ndarray, slack: np.ndarray,
          neg: np.ndarray, table: list, load: np.ndarray
          ) -> tuple[tuple[int, ...], float] | None:
    """(assignment, objective) of a feasible leaf rounded from the root.

    The root relaxation takes every negative-cost variable, with row loads
    ``load``. If that overloads some row, ``table`` is the bound table of
    the row with the dearest relief, and the walk along it flips variables
    (releasing a taken one, raising an untaken one) up to the first that
    leaves every row within its slack; then each flipped variable, last
    first, is flipped back if every row still fits. None when no prefix of
    the walk fits or the leaf fails the search's own check.
    """
    x = neg.copy()
    if table:
        var = np.array([j for j, _, _ in table], dtype=np.intp)
        signed = np.where(neg[var], -1.0, 1.0)[:, None] * columns[var]
        loads = load + signed.cumsum(0)
        fits = np.flatnonzero(np.all(loads <= slack, axis=1))
        if not fits.size:
            return None
        k = int(fits[0])
        x[var[:k + 1]] = ~neg[var[:k + 1]]
        load = loads[k].tolist()
        limits = slack.tolist()
        for j, delta in zip(var[k::-1].tolist(), signed[k::-1].tolist()):
            back = list(map(sub, load, delta))
            if all(map(le, back, limits)):
                load = back
                x[j] = neg[j]
    # Priced as the search prices a leaf: from zero, adding the taken
    # variables in index order, so objective and load carry its bits.
    sel = np.flatnonzero(x)
    obj = float(np.concatenate(([0.0], c[sel])).cumsum()[-1])
    load = np.vstack((np.zeros(len(slack)), columns[sel])).cumsum(0)[-1]
    if not np.all(load <= slack):
        return None
    return tuple(x.astype(int).tolist()), obj


def _critical_rate(table: list, excess: float) -> float:
    """Rate of the item that covers ``excess`` in a root walk of ``table``.

    It is the LP dual of the row's relaxation: the price per unit of load
    at which buying relief stops.
    """
    total = 0.0
    for _, relief, rate in table:
        total += relief
        if total >= excess:
            return rate
    return math.inf


def _fix(c: np.ndarray, row: np.ndarray, limit: float, rate: float,
         cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """(fixed, value): the variables no leaf below ``cutoff`` can flip.

    With multiplier ``rate`` on the row ``row.x <= limit``, the reduced
    costs are ``r = c + rate*row`` and ``L = sum(min(0, r)) - rate*limit``
    bounds every feasible leaf. A leaf that sets x_j to anything but its
    Lagrangian value ``r_j < 0`` costs at least ``L + |r_j|``, so x_j is
    fixed when that is beyond the cutoff.
    """
    r = c + rate * row
    bound = float(np.minimum(r, 0.0).sum()) - rate * limit
    # Each of L, r_j, a leaf's objective and its row load is a float sum of
    # at most n terms no larger than these magnitudes, each off by at most
    # n*eps of them; 1e-9 of their total covers that with room up to 10^6
    # variables, so no leaf the search could still accept is fixed away.
    margin = REL_TOL * (float(np.abs(c).sum())
                        + rate * (float(np.abs(row).sum()) + abs(limit)))
    return np.abs(r) > cutoff - bound + margin, r < 0


def solve(program: ZeroOneProgram) -> IlpSolution:
    """Exact branch-and-bound minimizer with the oracle's tie-break."""
    c, a, b = program.arrays()
    n, m = len(c), len(b)
    neg = c < 0
    # The relaxation at depth d takes every free negative-cost variable.
    neg_load = np.where(neg, a, 0.0).T
    free_load = _suffix_sums(neg_load)

    excess = (free_load[0] - program.slack()).tolist()
    over = [i for i, e in enumerate(excess) if e > 0]
    # Only the overloaded rows' tables price the root; the others are built
    # once the search is sure to run, for the variables it searches.
    tables = {i: _bound_table(c, a[i], neg) for i in over}
    reliefs = [_relief_cost(tables[i], 0, excess[i]) for i in over]
    if math.inf in reliefs:
        # A row its free variables cannot relieve fits no leaf: the search
        # would pop the root alone and cut it.
        return IlpSolution((), float("nan"), STATUS_INFEASIBLE, 1)

    cutoff = math.inf  # a leaf must fall below this to be the incumbent
    seed_x: tuple[int, ...] | None = None
    dearest = over[reliefs.index(max(reliefs))] if over else None
    seed = _seed(c, a.T, program.slack(), neg,
                 tables[dearest] if over else [], free_load[0])
    fixed = np.zeros(n, dtype=bool)
    if seed is not None:
        # Every leaf up to the seed's objective stays acceptable, the seed
        # included; the seed itself answers if rounding cuts its path.
        seed_x, upper = seed
        cutoff = upper + _tol(upper)
        rate, row, limit = 0.0, np.zeros(n), 0.0  # the root fits every row
        if over:
            rate = _critical_rate(tables[dearest], excess[dearest])
            row, limit = a[dearest], float(program.slack()[dearest])
        fixed, value = _fix(c, row, limit, rate, cutoff)
    # The search runs over the free variables only, from a root that holds
    # the fixed ones' objective and row loads.
    root_obj, root_load = 0.0, (0.0,) * m
    if fixed.any():
        keep = np.flatnonzero(~fixed)
        taken = np.flatnonzero(fixed & value).tolist()
        root_obj = sum(c[taken].tolist(), 0.0)
        root_load = tuple(sum(row, 0.0) for row in a[:, taken].tolist())
        # A table filtered to the free variables keeps its stable order.
        index = dict(zip(keep.tolist(), range(len(keep))))
        tables = {i: [(index[j], relief, rate) for j, relief, rate in table
                      if j in index] for i, table in tables.items()}
        c, a, neg, n = c[keep], a[:, keep], neg[keep], len(keep)
        free_load = _suffix_sums(neg_load[keep])
    tables = [tables[i] if i in tables else _bound_table(c, row, neg)
              for i, row in enumerate(a)]
    free_obj = _suffix_sums(np.where(neg, c, 0.0)).tolist()

    # The search runs on Python floats, in the order the arrays would add.
    free_load = free_load.tolist()
    slack = program.slack().tolist()
    columns = a.T.tolist()
    costs = c.tolist()
    nodes = 0
    best_x: tuple[int, ...] | None = None
    x = [0] * n
    stack = [(0, 0, root_obj, root_load)]
    while stack:
        depth, bit, obj, load = stack.pop()
        nodes += 1
        if depth:
            x[depth - 1] = bit
        base = obj + free_obj[depth]
        bound = base
        for i, (used, free, limit) in enumerate(
                zip(load, free_load[depth], slack)):
            excess = used + free - limit
            if excess > 0 and bound < cutoff:
                priced = base + _relief_cost(tables[i], depth, excess)
                if priced > bound:
                    bound = priced
        if bound >= cutoff:
            continue
        if depth == n:
            cutoff = obj - _tol(obj)
            best_x = tuple(x)
            continue
        stack.append((depth + 1, 1, obj + costs[depth],
                      tuple(map(add, load, columns[depth]))))
        stack.append((depth + 1, 0, obj, load))
    if best_x is None:
        best_x = seed_x
    elif fixed.any():
        full = (fixed & value).astype(int)
        full[keep] = best_x
        best_x = tuple(full.tolist())
    if best_x is None:
        return IlpSolution((), float("nan"), STATUS_INFEASIBLE, nodes)
    c = program.objective_coeffs
    objective = float(c @ np.asarray(best_x, dtype=float))
    return IlpSolution(best_x, objective, STATUS_OPTIMAL, nodes)
