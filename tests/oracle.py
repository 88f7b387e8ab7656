"""Exhaustive-enumeration oracle for `memplan.ilp.solve` (n <= 24).

It scans every binary assignment in index (= lexicographic) order with the
solver's acceptance rule and tolerance, and shares no search code with it,
so randomized tests can hold `solve` equal to it.
"""

from functools import reduce
from operator import add

import numpy as np

from memplan.ilp import (STATUS_INFEASIBLE, STATUS_OPTIMAL, IlpSolution,
                         ZeroOneProgram, _tol)

EXHAUSTIVE_MAX_VARIABLES = 24
_CHUNK_BITS = 18


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
    # Summed from zero in index order, as the solver prices a leaf; a dot
    # product's bits depend on the BLAS kernel the CPU selects.
    objective = reduce(add, c[np.flatnonzero(assignment)].tolist(), 0.0)
    return IlpSolution(assignment, objective, STATUS_OPTIMAL)
