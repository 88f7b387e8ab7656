"""Exact 0-1 integer linear programming.

Solves ``minimize c.x subject to A.x <= b, x in {0,1}^n`` by branch and
bound (`solve`). It is deterministic and returns an assignment that is
optimal within the tolerance; exact objective ties go to the
lexicographically smallest optimal assignment. The oracle, a scan of every
assignment in that order (n <= 24), lives in the tests (``tests/oracle.py``),
and randomized tests keep `solve` equal to it.

`solve` is a depth-first search on an explicit stack, so no recursion limit
caps the number of variables. It fixes variable 0 first and tries 0 before
1, so leaves arrive in the oracle's lexicographic order, and a leaf replaces
the incumbent only when better by more than the tolerance, as in the
oracle's scan. A node's bound is the largest of the rows' fractional
relaxations: take every free negative-cost variable, then buy back the
row's excess load at the least cost per unit of relief. Each row's bound
table (its movable variables sorted by that rate) is built once per search.
The search keeps a node's objective and row loads as Python floats, added
in the order numpy would add the arrays, so they are the same doubles (a
leaf priced from scratch, as `constraint_violations` prices one, is summed
from zero in index order, left to right, on every supported Python), and
prices a row with a scalar walk over its one table that skips the variables
above the node and stops at the first free variable covering the excess.
The walk reads the whole table: after root fixing (below) a table holds
the free variables alone, at most 70 on the programs the benchmark solves,
so the variables above a node that it steps over are few.
The walk adds the bought cost item by item, and the returned leaf is
priced from scratch, so no reported number depends on a BLAS kernel.
A node is cut when its bound cannot beat the incumbent by more than the
tolerance, ties included, so no cut subtree holds a replacing leaf.

Before the search, `solve` checks the rows at the root. A row whose excess
the free variables cannot relieve is refused alone, and a row and its
negation, neither refused alone, whose slacks sum below zero leave an empty
range, which the search, pricing one row at a time, would only prove by
walking the tree. Either ends the solve as infeasible after that one node,
with `IlpSolution.binding` naming those rows; a search that finds no leaf
names every row. Otherwise it rounds the root relaxation to one feasible
leaf (the seed) and starts with a cutoff just above the seed's objective,
so the search proves an optimum instead of walking toward it one
improvement at a time. Any leaf no worse than the seed is still accepted,
so an exact tie keeps its lexicographic winner. Only distinct objectives
within about twice the tolerance of each other can end at a different,
equally optimal leaf than the oracle's scan.

Then `solve` fixes variables at the root by reduced cost
(Balas and Zemel, Oper. Res. 28(5), 1980). The multiplier λ is read off
the dearest overloaded row's root table: the rate of the first item whose
running relief total covers the row's excess, the LP dual of that row's
relaxation, or 0 when no row is overloaded. With reduced
costs ``r = c + λ·a`` over that row and the Lagrangian bound
``L = Σ min(0, r_j) - λ·slack``, a leaf that sets x_j to anything but its
Lagrangian value ``r_j < 0`` costs at least ``L + |r_j|``. When that is
beyond the seed's cutoff by more than a float margin, the search would cut
every such leaf, so x_j is fixed. A solve without a seed has an infinite
cutoff and fixes nothing. The search then runs over the free variables
alone, from a root that holds the fixed ones' objective and row loads;
suffix sums and every row's bound table are built once, for the free
variables, and the leaf check still runs every row against its own slack.
A fixed variable has the same value in every leaf that can still be
accepted, so the remaining leaves arrive in the same lexicographic order
and the tie-break is unchanged.

Objective comparisons use a tolerance of ``max(ABS_TOL, REL_TOL * |value|)``,
1e-9 relative with a 1e-12 absolute floor, and so does each constraint, on
its bound, unless its program gives the row a tolerance of its own.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from operator import add, le, sub
from typing import Sequence

import numpy as np

from .profiles import _sum_in_order

ABS_TOL = 1e-12
REL_TOL = 1e-9

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
        bad = ~(np.isfinite(a).all(axis=1) & np.isfinite(b))
        if bad.any():
            raise ValueError(
                f"constraint {bad.argmax()} has non-finite entries")
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
    # Indices of the rows that decide an infeasible result (see `solve`);
    # empty when optimal, and no part of equality either.
    binding: tuple[int, ...] = field(default=(), compare=False)


def constraint_violations(program: ZeroOneProgram,
                          assignment: Sequence[int]) -> list[int]:
    """Indices of the rows the assignment loads beyond tolerance."""
    c, a, _ = program.arrays()
    if len(assignment) != program.num_variables:
        raise ValueError("assignment length does not match program")
    _, load = _price(c, a, np.flatnonzero(assignment))
    return [i for i, (used, limit) in enumerate(
        zip(load, program.slack().tolist())) if used > limit]


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
    # Stable, unlike the sorts of a set's events and mpki: a table holds
    # at most tens of variables, where the tie check that the default sort
    # needs costs more than the stable sort does.
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


def _seed(c: np.ndarray, columns: np.ndarray, slack: list[float],
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
        for j, delta in zip(var[k::-1].tolist(), signed[k::-1].tolist()):
            back = list(map(sub, load, delta))
            if all(map(le, back, slack)):
                load = back
                x[j] = neg[j]
    obj, load = _price(c, columns.T, np.flatnonzero(x))
    if not all(map(le, load, slack)):
        return None
    return tuple(x.astype(int).tolist()), obj


def _price(c: np.ndarray, a: np.ndarray,
           taken: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """Objective and row loads of the ``taken`` variables, each summed from
    zero in index order, left to right, on every supported Python. The
    search adds in this order unless variables are fixed; then it adds the
    fixed ones first."""
    return (_sum_in_order(c[taken], 0.0),
            tuple(_sum_in_order(row, 0.0) for row in a[:, taken]))


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
    c, a, _ = program.arrays()
    n = len(c)
    neg = c < 0
    # The relaxation at depth d takes every free negative-cost variable.
    neg_load = np.where(neg, a, 0.0).T
    free_load = _suffix_sums(neg_load)

    slack = program.slack().tolist()
    excess = (free_load[0] - program.slack()).tolist()
    over = [i for i, e in enumerate(excess) if e > 0]
    # Only the overloaded rows' tables price the root; the search builds
    # every row's table afresh, for the variables it searches.
    tables = {i: _bound_table(c, a[i], neg) for i in over}
    reliefs = [_relief_cost(tables[i], 0, excess[i]) for i in over]
    # A row its free variables cannot relieve fits no leaf, nor does the
    # empty range of a row and its negation, as leaf loads negate exactly:
    # the search would pop the root alone, or walk the whole tree.
    refused = {i for i, cost in zip(over, reliefs) if cost == math.inf}
    binding = tuple(sorted(refused.union(*(
        (i, j) for i, j in combinations(range(len(slack)), 2)
        if slack[i] + slack[j] < 0 and not refused & {i, j}
        and np.array_equal(a[j], -a[i])))))
    if binding:
        return IlpSolution((), math.nan, STATUS_INFEASIBLE, 1, binding)

    dearest = over[reliefs.index(max(reliefs))] if over else None
    # Every leaf up to the seed's objective stays acceptable, the seed
    # included; the seed itself answers if rounding cuts its path. Without
    # a seed the cutoff is infinite, and no variable is fixed.
    seed_x, upper = _seed(c, a.T, slack, neg, tables[dearest] if over else [],
                          free_load[0]) or (None, math.inf)
    cutoff = upper + _tol(upper)  # a leaf must fall below this
    rate, row, limit = 0.0, np.zeros(n), 0.0  # the root fits every row
    if over:
        totals = list(accumulate(item[1] for item in tables[dearest]))
        rate = tables[dearest][bisect_left(totals, excess[dearest])][2]
        row, limit = a[dearest], float(program.slack()[dearest])
    fixed, value = _fix(c, row, limit, rate, cutoff)
    # The search runs over the free variables only, from a root that holds
    # the fixed ones' objective and row loads.
    keep = np.flatnonzero(~fixed)
    root_obj, root_load = _price(c, a, np.flatnonzero(fixed & value))
    c, a, neg, n = c[keep], a[:, keep], neg[keep], len(keep)
    free_load = _suffix_sums(neg_load[keep])
    tables = [_bound_table(c, row, neg) for row in a]
    free_obj = _suffix_sums(np.where(neg, c, 0.0)).tolist()

    # The search runs on Python floats, in the order the arrays would add.
    free_load = free_load.tolist()
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
    else:
        full = (fixed & value).astype(int)
        full[keep] = best_x
        best_x = tuple(full.tolist())
    if best_x is None:
        # No row is refused alone, so the rows conflict jointly.
        return IlpSolution((), math.nan, STATUS_INFEASIBLE, nodes,
                           tuple(range(len(slack))))
    c, a, _ = program.arrays()
    objective, _ = _price(c, a, np.flatnonzero(best_x))
    return IlpSolution(best_x, objective, STATUS_OPTIMAL, nodes)
