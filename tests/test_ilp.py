import itertools
import math
import time
from functools import reduce
from operator import add

import numpy as np
import pytest

from memplan import ilp
from memplan.baselines import place_mpki_threshold
from memplan.energy import testbed1 as make_testbed1
from memplan.ilp import (REL_TOL, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                         IlpSolution, ZeroOneProgram, _bound_table,
                         _node_bound, _tol,
                         constraint_violations, solve)
from memplan.migration import (MigrationRequest, build_migration_program,
                               plan_migration, price_live)
from memplan.planner import build_placement_program
from memplan.profiles import (GeneratorSpec, ProfileSet, filter_major,
                              generate_synthetic)
from oracle import solve_exhaustive


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
        # The message names the first bad row, a bad coefficient or bound.
        for rows, first in (((((1.0,), 0.0), ((float("nan"),), 1.0),
                              ((1.0,), float("inf"))), 1),
                            ((((1.0,), -float("inf")), ((float("inf"),),
                                                         1.0)), 0)):
            with pytest.raises(ValueError, match=f"^constraint {first} has "
                               "non-finite entries$"):
                ZeroOneProgram((1.0,), rows)

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


def lexicographic_scan(program):
    """Every assignment in lexicographic order; a feasible one replaces the
    incumbent when it beats it by more than the tolerance."""
    c, a, b = program.arrays()
    slack = b + program.tolerances
    best, best_obj = None, float("inf")
    for x in itertools.product((0, 1), repeat=program.num_variables):
        v = np.array(x, dtype=float)
        obj = float(c @ v)
        if np.all(a @ v <= slack) and (best is None
                                       or obj < best_obj - _tol(best_obj)):
            best, best_obj = x, obj
    if best is None:
        return IlpSolution((), float("nan"), STATUS_INFEASIBLE)
    return IlpSolution(best, best_obj, STATUS_OPTIMAL)


def test_both_routes_match_a_plain_lexicographic_scan():
    rng = np.random.default_rng(11)
    programs = [ZeroOneProgram(()), ZeroOneProgram((), (((), -1.0),))]
    for k in range(300):
        n = int(rng.integers(0, 9))
        if k % 2:  # integer coefficients: exact ties and loads on a bound
            c = rng.integers(-4, 5, n).astype(float)
            rows = tuple((rng.integers(-3, 4, n).astype(float),
                          float(rng.integers(-3, 6)))
                         for _ in range(int(rng.integers(0, 4))))
            programs.append(ZeroOneProgram(c, rows))
        else:
            programs.append(random_program(rng, max_vars=8))
    for program in programs:
        want = lexicographic_scan(program)
        for solver in (solve, solve_exhaustive):
            got = solver(program)
            assert (got.status, got.assignment) \
                == (want.status, want.assignment)
            if want.status == STATUS_OPTIMAL:
                assert got.objective_value == pytest.approx(
                    want.objective_value, rel=1e-12, abs=1e-12)
    assert [lexicographic_scan(p).status for p in programs[:2]] \
        == [STATUS_OPTIMAL, STATUS_INFEASIBLE]


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


def test_tie_heavy_programs_match_the_oracle():
    # Small integer coefficients, a fifth of them zero: many assignments
    # share an objective value or sit exactly on a bound.
    rng = np.random.default_rng(31)

    def coeffs(n):
        values = rng.integers(-5, 6, n).astype(float)
        values[rng.random(n) < 0.2] = 0.0
        return values

    for _ in range(600):
        n = int(rng.integers(1, 15))
        program = ZeroOneProgram(coeffs(n), tuple(
            (coeffs(n), float(rng.integers(-5, 8)))
            for _ in range(int(rng.integers(0, 6)))))
        got, want = solve(program), solve_exhaustive(program)
        assert (got.status, got.assignment) == (want.status, want.assignment)


def test_search_depth_is_not_limited_by_recursion():
    rng = np.random.default_rng(8)
    n = 1500
    program = ZeroOneProgram(rng.uniform(0.1, 1.0, n),
                             ((rng.uniform(-1.0, 1.0, n), 1.0),))
    solution = solve(program)
    assert solution.status == STATUS_OPTIMAL
    assert solution.assignment == (0,) * n


def test_matches_highs_beyond_the_oracle_size():
    optimize = pytest.importorskip("scipy.optimize")
    mb = 1 << 20
    programs = []
    for seed, count in enumerate((30, 38, 45, 52, 60)):
        rng = np.random.default_rng(seed)
        # Every object is alive at t=5, so migration sees the whole set.
        ps = generate_synthetic(GeneratorSpec(
            count=count, size_range=(2 * mb, 48 * mb), alloc_range=(0.0, 4.0),
            lifetime_range=(2.0, 20.0)), seed)
        total = sum(ps.size.tolist())
        dev = make_testbed1(dram_capacity=rng.uniform(0.2, 0.8) * total,
                            nvm_capacity=total)
        for ratio in (0.6, 0.9):
            programs.append(build_placement_program(
                ps, dev, ratio, dev.dram_capacity))
        live = ProfileSet(tuple(o for o in ps if o.live_at(5.0)))
        costs = price_live(live, dev, rng.random(len(live)) < 0.4, 5.0)
        for ratio in (0.7, 0.9):
            for transient in (False, True):
                programs.append(build_migration_program(
                    live, dev, costs,
                    ratio * reduce(add, costs.stay_energy.tolist(), 0),
                    dev.dram_capacity, transient))
    outcomes = set()
    for program in programs:
        c, a, _ = program.arrays()
        # HiGHS gets the same per-row limits (each bound plus its row's
        # tolerance) that `solve` enforces and must close the gap fully.
        want = optimize.milp(
            c, integrality=np.ones(len(c)), bounds=optimize.Bounds(0, 1),
            constraints=optimize.LinearConstraint(a, -np.inf,
                                                  program.slack()),
            options={"mip_rel_gap": 0})
        assert want.status in (0, 2), want.message  # optimal or infeasible
        got = solve(program)
        outcomes.add(got.status)
        assert got.status == (STATUS_OPTIMAL if want.status == 0
                              else STATUS_INFEASIBLE)
        if want.status == 0:
            assert got.objective_value == pytest.approx(want.fun, rel=1e-6,
                                                        abs=1e-9)
    assert outcomes == {STATUS_OPTIMAL, STATUS_INFEASIBLE}


def test_near_ties_stay_within_the_tolerance_of_the_oracle():
    # Integer costs perturbed by multiples of 0.6e-9 relative: distinct
    # objectives within a tolerance or two of each other. Either optimum is
    # an answer; the objectives agree to the tolerance (plus rounding at its
    # edge), and feasibility is exact.
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(1000):
        n = int(rng.integers(10, 15))
        m = int(rng.integers(1, 4))
        c = rng.integers(-2, 2, n) * (1 + 0.6e-9 * rng.integers(-6, 7, n))
        a = rng.integers(-3, 4, (m, n)).astype(float)
        program = ZeroOneProgram(c, tuple(zip(a, rng.integers(-3, 6, m))))
        got, want = solve(program), solve_exhaustive(program)
        outcomes.add(got.status)
        assert got.status == want.status
        if want.status == STATUS_OPTIMAL:
            assert abs(got.objective_value - want.objective_value) \
                <= 1.000001 * _tol(want.objective_value)
            assert constraint_violations(program, got.assignment) == []
    assert outcomes == {STATUS_OPTIMAL, STATUS_INFEASIBLE}


def test_loose_budget_needs_one_descent():
    # Ample DRAM and a budget the all-DRAM placement meets: the rounded
    # relaxation is the optimum and no row is overloaded, so every
    # variable's reduced cost (its own cost) exceeds the gap and the root
    # fixes them all; the search pops the root alone.
    ps = generate_synthetic(GeneratorSpec(count=200,
                                          size_range=(2 << 20, 48 << 20)), 1)
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=total, nvm_capacity=total)
    program = build_placement_program(ps, dev, 1.0, dev.dram_capacity)
    solution = solve(program)
    n = program.num_variables
    assert solution.assignment == (1,) * n
    assert solution.nodes == 1
    # The node count is telemetry: it takes no part in equality.
    assert solution == IlpSolution(solution.assignment,
                                   solution.objective_value, STATUS_OPTIMAL)


def test_a_row_tolerance_given_by_the_program_replaces_the_default():
    # x0 + x1 >= 2 + 1e-7, written as a <= row: (1, 1) misses it by 1e-7,
    # beyond the default tolerance (about 2e-9) but within 1e-6.
    rows = (((-1.0, -1.0), -2.0 - 1e-7),)
    strict = ZeroOneProgram((1.0, 1.0), rows)
    assert strict.tolerances.tolist() == [REL_TOL * (2.0 + 1e-7)]
    loose = ZeroOneProgram((1.0, 1.0), rows, tolerances=(1e-6,))
    for solver in (solve, solve_exhaustive):
        assert solver(strict).status == STATUS_INFEASIBLE
        assert solver(loose).assignment == (1, 1)
    assert constraint_violations(strict, (1, 1)) == [0]
    assert constraint_violations(loose, (1, 1)) == []
    assert not loose.slack().flags.writeable
    for bad in ((1e-6, 1e-6), (-1.0,), (float("nan"),)):
        with pytest.raises(ValueError, match="tolerance"):
            ZeroOneProgram((1.0, 1.0), rows, tolerances=bad)


def test_a_tight_80_object_placement_stays_within_its_search_size():
    # A count, not a time: a weaker bound or a lost cut shows as more
    # nodes without any timing noise.
    ps = generate_synthetic(GeneratorSpec(count=80), 1)
    major, _ = filter_major(ps, 0.0)
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=0.6 * total, nvm_capacity=total)
    program = build_placement_program(major, dev, 0.8, dev.dram_capacity)
    assert program.num_variables == 80
    solution = solve(program)
    assert solution.status == STATUS_OPTIMAL
    assert solution.objective_value == -1332463000.0
    assert solution.nodes <= 5497


def test_a_row_no_variable_can_relieve_ends_at_the_root():
    # x0 + x1 <= 1 and x0 <= -1: the second row fits no leaf, so the
    # search stops after the root node, as an exhaustive pass agrees.
    program = ZeroOneProgram((-1.0, 2.0), (((1.0, 1.0), 1.0),
                                           ((1.0, 0.0), -1.0)))
    solution = solve(program)
    assert solution.status == STATUS_INFEASIBLE
    assert solution.nodes == 1
    assert solve_exhaustive(program).status == STATUS_INFEASIBLE


def test_a_row_and_its_negation_with_an_empty_range_end_at_the_root():
    # 3 <= 2x0 + x1 + 2x2 <= 2 (the second row is the first negated) fits
    # no leaf, though each row alone does and the root can relieve both.
    row = (2.0, 1.0, 2.0)
    program = ZeroOneProgram((-1.0, -1.0, 1.0), ((row, 2.0),
                                                 ((-2.0, -1.0, -2.0), -3.0),
                                                 ((1.0, 1.0, 1.0), 3.0)))
    solution = solve(program)
    assert solution.status == STATUS_INFEASIBLE
    assert solution.nodes == 1
    assert solution.binding == (0, 1)
    assert solve_exhaustive(program).status == STATUS_INFEASIBLE
    # A range of one point still holds its leaves.
    touching = ZeroOneProgram(program.objective_coeffs,
                              ((row, 3.0), ((-2.0, -1.0, -2.0), -3.0)))
    assert solve(touching) == solve_exhaustive(touching)
    assert solve(touching).assignment == (1, 1, 0)


def _numpy_relief_cost(table, depth, excess):
    """The array form of the fractional relief cost: masked cumsum,
    searchsorted and a dot product over the bought prefix."""
    var, relief, rate = (np.array(column, dtype=float).reshape(-1)
                         for column in (zip(*table) if table else ((),) * 3))
    freed = relief * (var >= depth)
    reliefs = freed.cumsum()
    k = int(reliefs.searchsorted(excess))
    if k == len(var):
        return float("inf")
    return float(rate[:k + 1] @ freed[:k + 1] - (reliefs[k] - excess) * rate[k])


# Every 0-1 choice of up to 10 items, one row per choice.
_CHOICES = np.array(list(itertools.product((0.0, 1.0), repeat=10)))


def _cheapest_cover(table, depth, excess):
    """Brute force: the least cost of free items whose reliefs sum to at
    least ``excess``; +inf when no choice covers it."""
    free = [(relief, rate * relief) for var, relief, rate in table
            if var >= depth]
    if not free:
        return math.inf
    choices = _CHOICES[-(1 << len(free)):, -len(free):]
    relief, cost = (np.array(column) for column in zip(*free))
    # Added in table order, as the walks add, so a prefix that covers the
    # excess exactly covers it here too.
    covers = (choices * relief).cumsum(axis=1)[:, -1] >= excess
    return float((choices[covers] * cost).sum(axis=1).min()) \
        if covers.any() else math.inf


def test_the_node_bound_lies_between_the_lp_bound_and_the_cheapest_cover():
    # Integer costs and reliefs give zero-cost items, tied rates and
    # excesses that a prefix of free items covers exactly, where the
    # critical item is bought whole with no surplus.
    rng = np.random.default_rng(37)
    draws = tighter = 0
    for _ in range(6000):
        n = int(rng.integers(1, 11))
        if rng.random() < 0.7:
            c = rng.integers(-6, 7, n).astype(float)
            row = rng.integers(-4, 5, n).astype(float)
        else:
            c = rng.uniform(-10, 10, n)
            row = rng.uniform(-5, 5, n)
        table = _bound_table(c.tolist(), row.tolist(), (c < 0).tolist())
        depth = int(rng.integers(0, n + 1))
        reliefs = np.cumsum(
            [relief for var, relief, _ in table if var >= depth]).tolist()
        total = reliefs[-1] if reliefs else 0.0
        for excess in (*reliefs, *rng.uniform(0, total, 2).tolist(),
                       total + 1.0):
            if not excess > 0:
                continue
            draws += 1
            lp = _numpy_relief_cost(table, depth, excess)
            bound = _node_bound(table, depth, excess)
            cover = _cheapest_cover(table, depth, excess)
            if cover == math.inf:
                assert lp == bound == math.inf
                continue
            assert bound >= lp - 1e-9 * abs(lp)
            assert bound <= cover + 1e-9 * abs(cover)
            tighter += bound > lp + 1e-9 * abs(lp)
    assert draws > 20000 and tighter > draws // 10


def test_exact_covers_match_the_oracle():
    # Integer programs whose first row's root excess is the relief total
    # of a prefix of its bound table, give or take one unit: the critical
    # item covers the excess exactly or nearly, where the node bound can
    # equal a leaf's objective and ties are common.
    rng = np.random.default_rng(38)
    exact = 0
    for _ in range(200):
        n = int(rng.integers(6, 17))
        c = rng.integers(-9, 4, n).astype(float)
        row = rng.integers(-2, 7, n).astype(float)
        neg = c < 0
        table = _bound_table(c.tolist(), row.tolist(), neg.tolist())
        if not table:
            continue
        reliefs = np.cumsum([relief for _, relief, _ in table])
        k = int(rng.integers(0, len(table)))
        shift = int(rng.integers(-1, 2)) if rng.random() < 0.3 else 0
        load = float(row[neg].sum())
        rows = [(row, load - float(reliefs[k]) + shift)]
        rows += [(rng.integers(-3, 5, n).astype(float),
                  float(rng.integers(0, 2 * n)))
                 for _ in range(int(rng.integers(0, 3)))]
        program = ZeroOneProgram(c, tuple(rows))
        got, want = solve(program), solve_exhaustive(program)
        assert (got.status, got.assignment) == (want.status, want.assignment)
        if got.status == STATUS_OPTIMAL:
            assert got.objective_value == want.objective_value
        exact += shift == 0
    assert exact > 100


def test_a_tight_320_object_placement_stays_within_its_search_size():
    ps = generate_synthetic(GeneratorSpec(count=320), 1)
    major, _ = filter_major(ps, 0.0)
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=0.6 * total, nvm_capacity=total)
    program = build_placement_program(major, dev, 0.6, dev.dram_capacity)
    assert program.num_variables == 320
    solution = solve(program)
    assert solution.status == STATUS_OPTIMAL
    assert solution.objective_value == -3105317600.0
    assert solution.nodes <= 3977


@pytest.mark.parametrize("seed, ratio, transient, rows, variables, nodes, "
                         "objective", [
                             pytest.param(
                                 2, 0.7, True, 3, 188, 2467,
                                 935926502.6038185,
                                 id="2-0.7-True-3-188-3837-935926502.6038185"),
                             pytest.param(
                                 7, 0.65, False, 3, 204, 1785,
                                 1909115323.9261506,
                                 id="7-0.65-False-3-204-4805-"
                                    "1909115323.9261506")])
def test_a_strict_migration_stays_within_its_search_size(
        monkeypatch, seed, ratio, transient, rows, variables, nodes,
        objective):
    # Strict requests just below the current placement's ratio: the
    # migration program's search, pinned by its node count like the
    # placements above. The case ids keep the names the cases were first
    # listed under, with the node ceilings of the LP relief bound.
    solved = []

    def recording(program):
        solution = solve(program)
        solved.append((program, solution))
        return solution

    monkeypatch.setattr(ilp, "solve", recording)
    ps = generate_synthetic(GeneratorSpec(count=256, with_mpki=True), seed)
    total = ps.total_size()
    dev = make_testbed1(dram_capacity=0.5 * total, nvm_capacity=total)
    current = place_mpki_threshold(ps, dev, 0.05)
    plan_migration(ps, dev, current, MigrationRequest(5, ratio),
                   transient_capacity=transient, plan_future=False)
    [(program, solution)] = solved
    assert program.arrays()[1].shape == (rows, variables)
    assert solution.status == STATUS_OPTIMAL
    assert solution.objective_value == objective
    assert solution.nodes <= nodes


@pytest.fixture
def fixed_counts(monkeypatch):
    """How many variables each `solve` fixed at its root, in call order."""
    counts = []
    fix = ilp._fix

    def counting(*args):
        fixed, value = fix(*args)
        counts.append(int(fixed.sum()))
        return fixed, value

    monkeypatch.setattr(ilp, "_fix", counting)
    return counts


def test_placement_grid_with_root_fixing_matches_the_oracle(fixed_counts):
    # Solve-sweep's cells on one all-major 18-object set: every feasible
    # cell fixes variables at the root and must still keep the oracle's
    # status and assignment.
    ps = generate_synthetic(GeneratorSpec(
        count=18, size_range=(2 << 20, 16 << 20)), 3)
    total = ps.total_size()
    statuses = set()
    for share in (1.0, 0.5, 0.25):
        dev = make_testbed1(dram_capacity=share * total, nvm_capacity=total)
        for ratio in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
            program = build_placement_program(ps, dev, ratio,
                                              dev.dram_capacity)
            got, want = solve(program), solve_exhaustive(program)
            statuses.add(got.status)
            assert (got.status, got.assignment) \
                == (want.status, want.assignment)
    assert statuses == {STATUS_OPTIMAL, STATUS_INFEASIBLE}
    assert len(fixed_counts) == 15 and min(fixed_counts) > 0


def test_root_fixing_keeps_exact_ties_with_the_oracle(fixed_counts):
    # Small integer costs and a knapsack row of integer weights: many
    # optimal assignments share one objective exactly, so the fixed
    # variables must leave the lexicographically smallest one reachable.
    rng = np.random.default_rng(18)
    for _ in range(300):
        n = int(rng.integers(6, 15))
        rows = [(rng.integers(0, 6, n).astype(float),
                 float(rng.integers(3, 4 * n)))]
        rows += [(rng.integers(-3, 4, n).astype(float),
                  float(rng.integers(-2, 6)))
                 for _ in range(int(rng.integers(0, 3)))]
        program = ZeroOneProgram(rng.integers(-9, 4, n).astype(float),
                                 tuple(rows))
        got, want = solve(program), solve_exhaustive(program)
        assert (got.status, got.assignment) == (want.status, want.assignment)
    assert sum(count > 0 for count in fixed_counts) > 200


def test_the_fixing_multiplier_is_the_lp_dual_of_the_dearest_row(
        monkeypatch):
    # The λ that root fixing uses, read off the dearest row's root table,
    # must be the dual of that row's LP relaxation
    # ``min c.x s.t. row.x <= limit, 0 <= x <= 1`` as HiGHS reports it.
    optimize = pytest.importorskip("scipy.optimize")
    calls = []
    fix = ilp._fix

    def recording(c, row, limit, rate, cutoff):
        calls.append((c, row, limit, rate))
        return fix(c, row, limit, rate, cutoff)

    monkeypatch.setattr(ilp, "_fix", recording)
    for seed in range(1, 9):
        ps = generate_synthetic(GeneratorSpec(
            count=32, size_range=(2 << 20, 16 << 20)), seed)
        total = ps.total_size()
        for share in (1.0, 0.5):
            dev = make_testbed1(dram_capacity=share * total,
                                nvm_capacity=total)
            for ratio in (0.9, 0.8, 0.7, 0.6):
                solve(build_placement_program(ps, dev, ratio,
                                              dev.dram_capacity))
    overloaded = [call for call in calls if call[3]]
    assert len(overloaded) == 64
    for c, row, limit, rate in overloaded:
        lp = optimize.linprog(c, A_ub=[row], b_ub=[limit], bounds=(0, 1),
                              method="highs")
        assert lp.status == 0
        assert rate == pytest.approx(-lp.ineqlin.marginals[0], rel=1e-12)


def test_an_infinite_cutoff_fixes_no_variable():
    # A solve whose seed rounding finds no leaf fixes at cutoff +inf, and
    # relies on that leaving every variable free.
    rng = np.random.default_rng(32)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        scale = 10.0 ** rng.integers(-3, 10)
        c = rng.uniform(-scale, scale, n)
        row = rng.uniform(-scale, scale, n)
        limit = float(rng.uniform(-scale, scale) * n)
        rate = float(rng.exponential(10.0 ** rng.integers(-6, 6)))
        for args in ((row, limit, rate), (np.zeros(n), 0.0, 0.0)):
            fixed, _ = ilp._fix(c, *args, math.inf)
            assert not fixed.any()


def test_a_solve_without_a_seed_matches_the_oracle(monkeypatch):
    # Where rounding the root finds no leaf but a feasible one exists, the
    # search runs from an infinite cutoff over every variable.
    seeds = []
    seed = ilp._seed

    def recording(*args):
        seeds.append(seed(*args))
        return seeds[-1]

    monkeypatch.setattr(ilp, "_seed", recording)
    rng = np.random.default_rng(8)
    seedless = 0
    for _ in range(400):
        program = random_program(rng, max_vars=8, max_constraints=3)
        seeds.clear()
        got = solve(program)
        if seeds != [None]:
            continue
        want = solve_exhaustive(program)
        if want.status == STATUS_OPTIMAL:
            seedless += 1
            assert (got.status, got.assignment, got.objective_value) \
                == (want.status, want.assignment, want.objective_value)
    assert seedless >= 5


def test_the_seed_refuses_a_leaf_whose_in_order_load_overflows(monkeypatch):
    # The seed's walk lands its running load exactly on the bound, but the
    # leaf's loads summed in index order, as the search sums them, come to
    # 437.54321282049773 > 437.5432128204976: the seed is no leaf.
    seeds = []
    seed = ilp._seed

    def recording(*args):
        seeds.append(seed(*args))
        return seeds[-1]

    monkeypatch.setattr(ilp, "_seed", recording)
    program = ZeroOneProgram(
        [-0.9616571936637868, -0.7247899407735336, -0.5412268555474342],
        [([276.89120404537084, 160.65200877512686, 969.9254132161326],
          437.5432128204976)], tolerances=[0.0])
    got = solve(program)
    assert seeds == [None]
    want = solve_exhaustive(program)
    assert (got.status, got.assignment, got.objective_value) \
        == (want.status, want.assignment, want.objective_value) \
        == (STATUS_OPTIMAL, (1, 0, 0), -0.9616571936637868)
    assert got.nodes <= 15
