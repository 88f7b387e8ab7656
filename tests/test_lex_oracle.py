"""`ilp.solve` against the lexicographic-fixing oracle on HiGHS, above the
exhaustive oracle's 24 variables: the tie-break contract (the
lexicographically smallest optimal assignment) on integer programs whose
narrow cost range makes ties common."""

import numpy as np
import pytest

from lex_oracle import highs_optimum, solve_lexicographic
from memplan.ilp import STATUS_OPTIMAL, ZeroOneProgram, solve


def _rows(rng, n: int, disjoint: bool) -> tuple:
    """Costs in -3..3 and the rows of a placement-shaped program: a capacity
    range (a DRAM row on the sizes and the NVM row its negation), or two
    disjoint capacity rows (each object loads the DRAM or the NVM row, as
    a transient migration does); then a mixed-sign energy row. The bounds
    are a random assignment's loads plus 0..3, so some assignment keeps
    them."""
    size = rng.integers(1, 21, n).astype(float)
    energy = rng.integers(-5, 6, n).astype(float)
    costs = rng.integers(-3, 4, n).astype(float)
    keeper = rng.random(n) < 0.5
    if disjoint:
        flip = np.where(rng.random(n) < 0.5, size, -size)
        rows = [np.maximum(flip, 0.0), np.maximum(-flip, 0.0), energy]
    else:
        rows = [size, -size, energy]
    bounds = [float(row @ keeper + rng.integers(0, 4)) for row in rows]
    return costs, rows, bounds


@pytest.mark.parametrize("disjoint", [False, True],
                         ids=["capacity-range", "disjoint-capacity"])
@pytest.mark.parametrize("n", [32, 48, 80])
def test_solve_takes_the_lexicographically_smallest_optimum(n, disjoint):
    for seed in range(3):
        costs, rows, bounds = _rows(np.random.default_rng([n, disjoint, seed]),
                                    n, disjoint)
        program = ZeroOneProgram(costs, tuple(zip(rows, bounds)))
        want = solve_lexicographic(program)
        assert want.status == STATUS_OPTIMAL
        got = solve(program)
        assert (got.status, got.assignment, got.objective_value) == \
            (want.status, want.assignment, want.objective_value), seed


def test_a_planted_tie_that_highs_breaks_the_other_way():
    # Variable 0 is a twin of the last one: same cost, same column. Where an
    # optimum holds one twin, the lexicographic one holds the last. HiGHS
    # returns an optimum of its own, so a solver that took it would fail.
    missed = []
    for seed in range(8):
        costs, rows, bounds = _rows(np.random.default_rng([32, 0, seed]),
                                    32, False)
        for values in (costs, *rows):
            values[0] = values[-1]
        program = ZeroOneProgram(costs, tuple(zip(rows, bounds)))
        want = solve_lexicographic(program)
        assert want.assignment[0] <= want.assignment[-1]
        assert solve(program).assignment == want.assignment, seed
        theirs = highs_optimum(program)
        assert theirs @ costs == want.objective_value
        if want.assignment[0] < want.assignment[-1] \
                and tuple(theirs.astype(int)) != want.assignment:
            missed.append(seed)
    assert missed
