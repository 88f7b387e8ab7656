"""Exact 0-1 integer linear programming.

Solves ``minimize c.x subject to A.x <= b, x in {0,1}^n`` by branch and
bound (`solve`). It is deterministic and returns an assignment that is
optimal within the tolerance; exact objective ties go to the
lexicographically smallest optimal assignment. The oracle, a scan of every
assignment in that order (n <= 24), lives in the tests (``tests/oracle.py``),
and randomized tests keep `solve` equal to it.

Every solve's passes over all its variables run on arrays (the root
relaxation's loads, the fixing and each leaf's price); the bound tables (the
overloaded rows' at the root, every row's over the free variables), the
seed's walk and the search run on Python floats. Every total adds in index
order (a leaf's price from zero, the relaxation's loads and suffix sums from
the last variable), so no reported number depends on a BLAS kernel.

Its search (`_search`) is depth-first on an explicit stack, so no recursion
limit caps the number of variables. It fixes variable 0 first and tries 0
before 1, so leaves arrive in the oracle's lexicographic order, and a leaf
replaces the incumbent only when better by more than the tolerance, as in
the oracle's scan. A node's bound is the largest of the rows' bounds: take
every free negative-cost variable, then buy back the row's excess load by a
scalar walk over the row's table (its movable variables sorted by cost per
unit of relief, built once per search), skipping the variables above the
node. The fractional bound buys part of the critical item, the first that
covers the excess; the node bound takes the smaller of buying it whole and
skipping it, as Martello and Toth bound a knapsack (EJOR 1(3), 1977). A
node is cut when its bound cannot beat the incumbent by more than the
tolerance, ties included, so no cut subtree holds a replacing leaf.

Before the search, `solve` prices each overloaded row at the root with the
node bound, which is infinite exactly when the fractional (LP) bound is. A row
whose excess the free variables cannot relieve is refused alone, and a row and
its negation, neither refused alone, whose slacks sum below zero leave an
empty range, which the search, pricing one row at a time, would only prove by
walking the tree. Either ends the solve as infeasible after that one node,
with `IlpSolution.binding` naming those rows; a search that finds no leaf
names every row. Otherwise it rounds the root relaxation to one feasible leaf
(the seed) and starts with a cutoff just above the seed's objective, so the
search proves an optimum instead of walking toward it one improvement at a
time. Any leaf no worse than the seed is still accepted, so an exact tie keeps
its lexicographic winner. Only distinct objectives within about twice the
tolerance of each other can end at a different, equally optimal leaf than the
oracle's scan.

Then `solve` fixes variables at the root by reduced cost (Balas and Zemel,
Oper. Res. 28(5), 1980). The multiplier λ is the LP dual of the dearest
overloaded row (the largest node bound), read off its root table: the rate of
the first item whose running relief total covers the row's excess, or 0 when no
row is overloaded. With reduced costs ``r = c + λ·a`` over that row and the
Lagrangian bound ``L = Σ min(0, r_j) - λ·slack``, a leaf that sets x_j to
anything but its Lagrangian value ``r_j < 0`` costs at least ``L + |r_j|``.
When that is beyond the seed's cutoff by more than a float margin, the search
would cut every such leaf, so x_j is fixed. A solve without a seed has an
infinite cutoff and fixes nothing. The search then runs over the free variables
alone, from a root that holds the fixed ones' objective and row loads; suffix
sums and every row's bound table are built once, for the free variables, and
the leaf check still runs every row against its own slack. A fixed variable has
the same value in every leaf that can still be accepted, so the remaining
leaves arrive in the same lexicographic order and the tie-break is unchanged.

Objective comparisons use a tolerance of ``max(ABS_TOL, REL_TOL * |value|)``,
1e-9 relative with a 1e-12 absolute floor, and so does each constraint, on
its bound, unless its program gives the row a tolerance of its own.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from operator import add, itemgetter, le, sub
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
        if not np.isfinite(c).all():
            raise ValueError("objective coefficients must be finite")
        bad = ~(np.isfinite(a).all(axis=1) & np.isfinite(b))
        if bad.any():
            raise ValueError(
                f"constraint {bad.argmax()} has non-finite entries")
        tol = _frozen(self.tolerances) if len(self.tolerances) \
            else np.maximum(ABS_TOL, REL_TOL * np.abs(b))
        if tol.shape != b.shape or not (np.isfinite(tol) & (tol >= 0)).all():
            raise ValueError(
                "one finite tolerance >= 0 per constraint required")
        slack = b + tol
        tol.flags.writeable = slack.flags.writeable = False
        self.__dict__.update(objective_coeffs=c,
                             constraints=tuple(zip(a, b.tolist())),
                             _a=a, _b=b, tolerances=tol, _slack=slack)

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


def _bound_table(costs: Sequence[float], row: Sequence[float],
                 neg: Sequence[bool]) -> list[tuple[int, float, float]]:
    """One row's movable variables sorted by cost per unit of load relief.

    With every negative-cost variable taken, a row's load falls by
    releasing a taken variable of positive load or by raising an untaken
    one of negative load. Returns (variable, relief, cost per relief)
    items in the order a fractional knapsack buys relief, ties by index.
    """
    return sorted([(j, abs(w), abs(cost) / abs(w))
                   for j, (cost, w, taken) in enumerate(zip(costs, row, neg))
                   if (w > 0 if taken else w < 0)], key=itemgetter(2))


def _node_bound(table: list, depth: int, excess: float) -> float:
    """Least cost of ``excess`` relief from the variables >= depth (+inf when
    they cannot relieve that much), as Martello and Toth bound a knapsack
    (EJOR 1(3), 1977): a cover buys the critical item, the free one covering
    the excess, whole, selling the surplus back at most at the previous free
    item's rate, or skips it, buying the rest at least at the next one's.
    The fractional bound, which buys part of it, is never above this."""
    total = dot = before = 0.0
    items = iter(table)
    for var, relief, rate in items:
        if var >= depth:
            if total + relief >= excess:
                # Added as the fractional bound adds, so never below it.
                whole = (dot + rate * relief
                         - (total + relief - excess) * before)
                for j, _, after in items:
                    if j >= depth:
                        return min(whole, dot + (excess - total) * after)
                return whole
            total += relief
            dot += rate * relief
            before = rate
    return math.inf


def _suffix_sums(values: list[float]) -> list[float]:
    """Each sum of ``values[d:]``, added from the last, then 0.0 for d = n."""
    return [*accumulate(reversed(values))][::-1] + [0.0]


def _seed(c: np.ndarray, a: np.ndarray, slack: list[float],
          neg: np.ndarray, table: list, load: list[float]
          ) -> tuple[np.ndarray, float] | None:
    """(mask, objective) of a feasible leaf rounded from the root.

    The root relaxation takes every negative-cost variable (the mask
    ``neg``), with row loads ``load``. If that overloads some row, ``table``
    is the bound table of the row with the dearest relief, and the walk along
    it flips variables (releasing a taken one, raising an untaken one) up to
    the first that leaves every row within its slack; then each flipped
    variable, last first, is flipped back if every row still fits. None when
    no prefix of the walk fits or the leaf fails the search's own check.
    """
    x = neg.copy()
    if table:
        var = [j for j, _, _ in table]
        signed = [[-w if t else w for t, w in zip(neg[var].tolist(), row)]
                  for row in a[:, var].tolist()]
        loads = [[used + total for total in accumulate(deltas)]
                 for used, deltas in zip(load, signed)]
        k = next((k for k, prefix in enumerate(zip(*loads))
                  if all(map(le, prefix, slack))), None)
        if k is None:
            return None
        load = [prefix[k] for prefix in loads]
        flipped = []
        for p in range(k, -1, -1):
            back = [used - deltas[p] for used, deltas in zip(load, signed)]
            if all(map(le, back, slack)):
                load = back
            else:
                flipped.append(var[p])
        x[flipped] ^= True
    obj, load = _price(c, a, x)
    if not all(map(le, load, slack)):
        return None
    return x, obj


def _price(c: np.ndarray, a: np.ndarray,
           taken: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """Objective and row loads of the ``taken`` variables (a mask or their
    indices), each summed from zero in index order, left to right, on
    every supported Python. The search adds in this order unless variables
    are fixed; then it adds the fixed ones first."""
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


def _search(costs: list[float], rows: list[list[float]], slack: list[float],
            root_obj: float, root_load: tuple[float, ...], cutoff: float
            ) -> tuple[tuple[int, ...] | None, int]:
    """(leaf, nodes): the best leaf below ``cutoff`` (None if none) over the
    variables of ``costs`` and ``rows``, from a root holding ``root_obj``
    and ``root_load``, and the nodes popped. Every row's bound table is
    built once, over these variables."""
    n = len(costs)
    neg = [v < 0 for v in costs]
    tables = [_bound_table(costs, row, neg) for row in rows]
    # The relaxation at depth d takes every free negative-cost variable.
    free_obj, *free_load = (_suffix_sums([
        w if t else 0.0 for w, t in zip(row, neg)]) for row in (costs, *rows))
    free_load = list(zip(*free_load)) or [()] * (n + 1)
    columns = list(zip(*rows)) or [()] * n
    nodes, best_x, x = 0, None, [0] * n
    stack = [(0, 0, root_obj, root_load)]
    while stack:
        depth, bit, obj, load = stack.pop()
        nodes += 1
        if depth:
            x[depth - 1] = bit
        base = obj + free_obj[depth]
        bound = base
        for used, free, limit, table in zip(load, free_load[depth], slack,
                                            tables):
            excess = used + free - limit
            if excess > 0 and bound < cutoff:
                priced = base + _node_bound(table, depth, excess)
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
    return best_x, nodes


def solve(program: ZeroOneProgram) -> IlpSolution:
    """Exact branch-and-bound minimizer with the oracle's tie-break."""
    c, a, _ = program.arrays()
    slack = program.slack().tolist()
    neg = c < 0
    # The root relaxation's loads, added from the last variable as the
    # search's suffix sums add.
    root = [_sum_in_order(row[::-1], 0.0) for row in np.where(neg, a, 0.0)]
    excess = list(map(sub, root, slack))
    over = [i for i, e in enumerate(excess) if e > 0]
    # Only the overloaded rows' tables price the root, each by the node
    # bound, which is infinite exactly when the fractional bound is.
    tables = {i: _bound_table(c.tolist(), a[i].tolist(), neg.tolist())
              for i in over}
    reliefs = [_node_bound(tables[i], 0, excess[i]) for i in over]
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
    seed_x, upper = _seed(c, a, slack, neg, tables.get(dearest, []),
                          root) or (None, math.inf)
    cutoff = upper + _tol(upper)  # a leaf must fall below this
    rate, row, limit = 0.0, np.zeros(len(c)), 0.0  # the root fits every row
    if over:
        totals = list(accumulate(item[1] for item in tables[dearest]))
        rate = tables[dearest][bisect_left(totals, excess[dearest])][2]
        row, limit = a[dearest], slack[dearest]
    fixed, value = _fix(c, row, limit, rate, cutoff)
    # The search runs over the free variables only, from a root that holds
    # the fixed ones' objective and row loads.
    keep = np.flatnonzero(~fixed)
    best = fixed & value
    leaf, nodes = _search(c[keep].tolist(), a[:, keep].tolist(), slack,
                          *_price(c, a, best), cutoff)
    if leaf is not None:
        best[keep] = leaf
    elif seed_x is not None:
        best = seed_x
    else:
        # No row is refused alone, so the rows conflict jointly.
        return IlpSolution((), math.nan, STATUS_INFEASIBLE, nodes,
                           tuple(range(len(slack))))
    return IlpSolution(tuple(best.astype(int).tolist()),
                       _sum_in_order(c[best], 0.0), STATUS_OPTIMAL, nodes)
