import time

import numpy as np
import pytest

from memplan.ilp import (STATUS_INFEASIBLE, STATUS_OPTIMAL, ZeroOneProgram,
                         constraint_violations, solve, solve_exhaustive,
                         to_lp_format)


def random_program(rng, max_vars=10, max_constraints=3):
    n = int(rng.integers(1, max_vars + 1))
    c = rng.uniform(-10, 10, n)
    m = int(rng.integers(0, max_constraints + 1))
    constraints = []
    for _ in range(m):
        a = rng.uniform(-5, 5, n)
        # Bias bounds toward the interesting region between trivially
        # feasible and infeasible.
        bound = float(rng.uniform(-3, max(0.0, a.sum()) * 0.7 + 3))
        constraints.append((tuple(a), bound))
    return ZeroOneProgram(tuple(c), tuple(constraints))


class TestBasics:
    def test_positive_coeff_stays_zero(self):
        solution = solve(ZeroOneProgram((1.0,)))
        assert solution.status == STATUS_OPTIMAL
        assert solution.assignment == (0,)
        assert solution.objective_value == 0.0

    def test_negative_coeff_goes_one(self):
        solution = solve(ZeroOneProgram((-2.5,)))
        assert solution.assignment == (1,)
        assert solution.objective_value == -2.5

    def test_contradictory_bounds_infeasible(self):
        program = ZeroOneProgram((1.0,), (((1.0,), 0.0), ((-1.0,), -1.0)))
        assert solve(program).status == STATUS_INFEASIBLE
        assert solve_exhaustive(program).status == STATUS_INFEASIBLE

    def test_tie_breaks_lexicographically_smallest(self):
        # x0 + x1 >= 1 with equal costs: (0, 1) beats (1, 0).
        program = ZeroOneProgram((1.0, 1.0), (((-1.0, -1.0), -1.0),))
        for solver in (solve, solve_exhaustive):
            assert solver(program).assignment == (0, 1)

    def test_zero_cost_variables_stay_zero(self):
        program = ZeroOneProgram((0.0, 0.0, 0.0))
        for solver in (solve, solve_exhaustive):
            assert solver(program).assignment == (0, 0, 0)

    def test_empty_program(self):
        program = ZeroOneProgram(())
        solution = solve(program)
        assert solution.status == STATUS_OPTIMAL
        assert solution.assignment == ()
        assert solution.objective_value == 0.0

    def test_knapsack_style(self):
        # Minimize -value with a weight limit: pick items 1 and 2.
        program = ZeroOneProgram((-6.0, -10.0, -12.0),
                                 (((1.0, 2.0, 3.0), 5.0),))
        solution = solve(program)
        assert solution.assignment == (0, 1, 1)
        assert solution.objective_value == -22.0


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="constraint 0"):
            ZeroOneProgram((1.0, 2.0), (((1.0,), 0.0),))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ZeroOneProgram((float("nan"),))
        with pytest.raises(ValueError):
            ZeroOneProgram((1.0,), (((1.0,), float("inf")),))

    def test_name_count_must_match(self):
        with pytest.raises(ValueError):
            ZeroOneProgram((1.0,), (), ("a", "b"))

    def test_exhaustive_size_limit(self):
        program = ZeroOneProgram((0.0,) * 25)
        with pytest.raises(ValueError, match="24"):
            solve_exhaustive(program)


class TestOracleEquivalence:
    @pytest.mark.parametrize("count,max_vars", [(250, 10), (50, 16)])
    def test_random_programs_match(self, count, max_vars):
        rng = np.random.default_rng(2024 + max_vars)
        for _ in range(count):
            program = random_program(rng, max_vars=max_vars)
            got = solve(program)
            want = solve_exhaustive(program)
            assert got.status == want.status
            if want.status == STATUS_OPTIMAL:
                assert got.assignment == want.assignment
                assert got.objective_value == pytest.approx(
                    want.objective_value, rel=1e-9, abs=1e-12)

    def test_solutions_are_feasible_and_consistent(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            program = random_program(rng)
            solution = solve(program)
            if solution.status != STATUS_OPTIMAL:
                continue
            assert constraint_violations(program, solution.assignment) == []
            c, _, _ = program.arrays()
            recomputed = float(np.dot(c, solution.assignment))
            assert solution.objective_value == pytest.approx(
                recomputed, rel=1e-12, abs=1e-12)

    def test_repeated_solves_identical(self):
        rng = np.random.default_rng(7)
        program = random_program(rng, max_vars=12)
        first = solve(program)
        for _ in range(3):
            assert solve(program) == first


def test_exhaustive_24_variables_completes_quickly():
    rng = np.random.default_rng(42)
    n = 24
    c = rng.uniform(-10, 10, n)
    constraints = tuple((tuple(rng.uniform(-5, 5, n)), 10.0) for _ in range(3))
    program = ZeroOneProgram(tuple(c), constraints)
    start = time.perf_counter()
    want = solve_exhaustive(program)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    got = solve(program)
    assert got.status == want.status == STATUS_OPTIMAL
    assert got.assignment == want.assignment


def test_lp_format_dump():
    program = ZeroOneProgram((1.5, -2.0), (((1.0, 1.0), 1.0),), ("a", "b"))
    text = to_lp_format(program)
    assert text.startswith("Minimize")
    assert "1.5 a" in text
    assert "- 2 b" in text
    assert "c0: 1 a + 1 b <= 1" in text
    assert "Binary" in text
    assert text.rstrip().endswith("End")


def test_program_stores_read_only_arrays_once():
    program = ZeroOneProgram((1.0, -2.0), (((1.0, 2.0), 3.0), ((0.0, -1.0), 0.5)))
    c, a, b = program.arrays()
    assert program.arrays()[1] is a
    assert c.tolist() == [1.0, -2.0]
    assert a.tolist() == [[1.0, 2.0], [0.0, -1.0]]
    assert b.tolist() == [3.0, 0.5]
    assert [(row.tolist(), bound) for row, bound in program.constraints] \
        == [([1.0, 2.0], 3.0), ([0.0, -1.0], 0.5)]
    for array in (c, a, b, program.constraints[0][0]):
        with pytest.raises(ValueError):
            array[0] = 7.0
    # Arrays given by the caller are copied, not aliased.
    coeffs = np.array([1.0, 2.0])
    aliased = ZeroOneProgram(coeffs, ((coeffs, 1.0),))
    coeffs[0] = 9.0
    assert aliased.arrays()[0].tolist() == [1.0, 2.0]
    assert aliased.arrays()[1].tolist() == [[1.0, 2.0]]
    assert ZeroOneProgram((0.0, 0.0)).arrays()[1].shape == (0, 2)
