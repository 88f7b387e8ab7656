"""Lexicographic-fixing oracle for `memplan.ilp.solve` above the exhaustive
oracle's 24 variables, on HiGHS (`scipy.optimize.milp`).

HiGHS finds the optimum z*, but it may return any optimal assignment. The
oracle then adds the row ``c.x <= z*`` and fixes x_0, ..., x_{n-1} in
order: x_j is 0 if some optimum that keeps the fixed prefix has x_j = 0,
else 1. That gives the lexicographically smallest optimal assignment, the
one `solve` must return. No solve is made for an x_j that the incumbent
(the last optimum found) already has at 0.

It takes integer-valued programs only: then every comparison is exact, and
neither the solver's tolerances nor HiGHS's can change a row's outcome or
the order of two objectives. It shares no code with the solver it checks.
"""

import math

import numpy as np
import pytest

from memplan.ilp import (STATUS_INFEASIBLE, STATUS_OPTIMAL, IlpSolution,
                         ZeroOneProgram)

optimize = pytest.importorskip("scipy.optimize")


def _milp(c, a, b, lo, hi) -> np.ndarray | None:
    """An optimum of ``c.x`` over ``a.x <= b`` with ``lo <= x <= hi``
    binary, as HiGHS returns it, or None if there is none."""
    found = optimize.milp(
        c, integrality=np.ones(len(c)), bounds=optimize.Bounds(lo, hi),
        constraints=optimize.LinearConstraint(a, -np.inf, b),
        options={"mip_rel_gap": 0})
    if found.status == 2:
        return None
    assert found.status == 0, found.message
    x = np.round(found.x)
    assert np.all(a @ x <= b) and np.all((lo <= x) & (x <= hi))
    return x


def highs_optimum(program: ZeroOneProgram) -> np.ndarray | None:
    """HiGHS's own optimal assignment, or None if the program is
    infeasible."""
    c, a, b = _integer_arrays(program)
    n = len(c)
    return _milp(c, a, b, np.zeros(n), np.ones(n))


def solve_lexicographic(program: ZeroOneProgram) -> IlpSolution:
    """The lexicographically smallest optimal assignment, by fixing."""
    c, a, b = _integer_arrays(program)
    n = len(c)
    lo, hi = np.zeros(n), np.ones(n)
    x = _milp(c, a, b, lo, hi)
    if x is None:
        return IlpSolution((), math.nan, STATUS_INFEASIBLE)
    # Every assignment within the optimum's row is optimal.
    a, b = np.vstack((a, c)), np.append(b, c @ x)
    for j in range(n):
        hi[j] = 0
        if x[j]:
            found = _milp(c, a, b, lo, hi)
            if found is None:
                lo[j] = hi[j] = 1
            else:
                x = found
    assignment = tuple(int(v) for v in x)
    objective = float(sum(c[j] for j in range(n) if assignment[j]))
    return IlpSolution(assignment, objective, STATUS_OPTIMAL)


def _integer_arrays(program: ZeroOneProgram) -> tuple:
    c, a, b = program.arrays()
    for values in (c, a, b):
        if not np.array_equal(values, np.round(values)):
            raise ValueError("the oracle takes integer-valued programs only")
    return c, a, b
