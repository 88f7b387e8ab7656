"""Randomized properties of the planner, migration and profile I/O.

Skipped when hypothesis is not installed (it is in the ``test`` extra).
"""

import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import (HealthCheck, assume, example, given,  # noqa: E402
                        settings)
from hypothesis import strategies as st  # noqa: E402

from memplan.energy import nvm_latency  # noqa: E402
from memplan.energy import testbed1 as make_testbed1  # noqa: E402
from memplan.evaluator import evaluate  # noqa: E402
from memplan.migration import MigrationRequest, plan_migration  # noqa: E402
from memplan.planner import load_plan, plan_static, write_plan  # noqa: E402
from memplan.profiles import (ObjectProfile, ProfileError,  # noqa: E402
                              ProfileSet, _VALUE_CHECKS, _broken, _columns,
                              load_profiles, write_profiles)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                             suppress_health_check=[HealthCheck.too_slow,
                                                    HealthCheck.filter_too_much])

positive = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def object_sets(draw, max_objects=7, scales=(1.0, 1e3, 1e6, 1e9)):
    """Sets whose sizes, volumes and counts span many magnitudes."""
    scale = draw(st.sampled_from(scales))
    objects = []
    for i in range(draw(st.integers(1, max_objects))):
        size = draw(positive) * scale
        alloc = draw(st.floats(0.0, 4.0))
        objects.append(ObjectProfile(
            f"o{i}", size, alloc, alloc + draw(st.floats(0.5, 10.0)),
            size * draw(st.floats(0.1, 16.0)), draw(positive) * scale,
            draw(positive) * scale * draw(fraction)))
    return ProfileSet(tuple(objects))


@given(object_sets(), fraction, fraction,
       st.floats(min_value=0.5, max_value=1.2))
@PROPERTY_SETTINGS
def test_plans_called_optimal_pass_the_evaluator(ps, dram_share, nvm_share,
                                                 ratio):
    total = sum(ps.size.tolist())
    # Together the devices always hold the set; either alone may not.
    dev = make_testbed1(dram_capacity=dram_share * total,
                        nvm_capacity=(1.0 - dram_share + nvm_share) * total)
    plan = plan_static(ps, dev, ratio, major_threshold=0)
    assume(plan.feasible)
    report = evaluate(ps, dev, plan)
    assert report.budget_ok
    assert report.capacity_ok


@given(object_sets(), st.floats(min_value=0.5, max_value=1.0),
       st.floats(min_value=0.0, max_value=6.0),
       st.floats(min_value=0.3, max_value=1.5))
@PROPERTY_SETTINGS
def test_best_effort_migration_is_no_worse_than_staying(ps, first_ratio, t,
                                                        new_ratio):
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=0.6 * total, nvm_capacity=total)
    current = plan_static(ps, dev, first_ratio, major_threshold=0)
    assume(current.feasible)
    request = MigrationRequest(time=t, new_ratio=new_ratio, strict=False)
    moved = plan_migration(ps, dev, current, request, plan_future=False)
    stay = plan_migration(ps, dev, current, request, plan_future=False,
                          allow_migration=False)
    assert moved.feasible and stay.feasible
    assert moved.e_total_nj <= stay.e_total_nj + 1e-9 * abs(stay.e_total_nj)
    assert moved.objective_ns \
        <= stay.objective_ns + 1e-9 * abs(stay.objective_ns)


@given(object_sets(scales=(1e12, 1e15)), fraction, fraction,
       st.floats(min_value=0.5, max_value=1.2))
@example(ProfileSet((ObjectProfile("o0", 1e12, 0, 1, 1e12, 1e12, 2.09822e17),)),
         1.0, 0.0, 0.99609375)
@example(ProfileSet((ObjectProfile("A", 1e9, 0, 1000, 0.1, 1, 0),
                     ObjectProfile("B", 1, 0, 1000, 0.1, 1, 0))),
         0.0, 0.0, 1e-19)
@PROPERTY_SETTINGS
def test_plans_called_optimal_pass_the_evaluator_at_extreme_magnitudes(
        ps, dram_share, nvm_share, ratio):
    # Sizes reach TiB and energies 1e15 nJ and beyond.
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=dram_share * total,
                        nvm_capacity=(1.0 - dram_share + nvm_share) * total)
    plan = plan_static(ps, dev, ratio, major_threshold=0)
    assume(plan.feasible)
    report = evaluate(ps, dev, plan)
    assert report.budget_ok
    assert report.capacity_ok


@st.composite
def write_heavy_sets(draw, max_objects=5):
    """Sets of ordinary magnitude whose dirty blocks reach 64x the volume,
    so their NVM energy dwarfs their DRAM energy."""
    objects = []
    for i in range(draw(st.integers(1, max_objects))):
        size = draw(positive)
        alloc = draw(st.floats(0.0, 4.0))
        volume = size * draw(st.floats(0.1, 16.0))
        objects.append(ObjectProfile(
            f"o{i}", size, alloc, alloc + draw(st.floats(0.5, 10.0)), volume,
            draw(positive), volume * draw(st.floats(0.0, 64.0))))
    return ProfileSet(tuple(objects))


@given(write_heavy_sets(), fraction, fraction,
       st.floats(min_value=0.9, max_value=1.5))
@example(ProfileSet((ObjectProfile("o0", 1e6, 0.0, 1.0, 1e6, 1e3, 6.4e7),)),
         1.0, 0.0, 1 - 1e-6)
@PROPERTY_SETTINGS
def test_write_heavy_plans_called_optimal_pass_the_evaluator(
        ps, dram_share, nvm_share, ratio):
    # The energy row's bound, budget - sum of NVM energies, is then many
    # times the budget; its tolerance must still be the budget's.
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=dram_share * total,
                        nvm_capacity=(1.0 - dram_share + nvm_share) * total)
    plan = plan_static(ps, dev, ratio, major_threshold=0)
    assume(plan.feasible)
    report = evaluate(ps, dev, plan)
    assert report.budget_ok
    assert report.capacity_ok


@given(object_sets(), fraction, st.floats(min_value=0.3, max_value=1.2),
       st.floats(min_value=0.0, max_value=0.5))
@PROPERTY_SETTINGS
def test_latency_does_not_increase_with_the_ratio(ps, dram_share, ratio,
                                                  step):
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=dram_share * total, nvm_capacity=total)
    tight = plan_static(ps, dev, ratio, major_threshold=0)
    assume(tight.feasible)
    loose = plan_static(ps, dev, ratio + step, major_threshold=0)
    assert loose.feasible
    # Ties are decided within the solver's tolerance on the latency saved.
    slack = 1e-9 * sum(nvm_latency(ps, dev).tolist())
    assert loose.objective_ns <= tight.objective_ns + slack


@given(object_sets(), fraction, st.floats(min_value=0.3, max_value=1.2))
@PROPERTY_SETTINGS
def test_plans_round_trip_through_the_file_format(ps, dram_share, ratio):
    total = sum(ps.size.tolist())
    dev = make_testbed1(dram_capacity=dram_share * total, nvm_capacity=total)
    first = io.StringIO()
    write_plan(plan_static(ps, dev, ratio, major_threshold=0), first)
    second = io.StringIO()
    write_plan(load_plan(io.StringIO(first.getvalue())), second)
    assert second.getvalue() == first.getvalue()


def _maybe_profile(object_id, size, alloc, lifetime, volume, misses, dirty,
                   mpki):
    try:
        return ObjectProfile(object_id, size, alloc, alloc + lifetime,
                             volume, misses, dirty, mpki)
    except ProfileError:
        return None


finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)


@given(st.lists(st.builds(
    _maybe_profile, st.text(min_size=1, max_size=8),
    st.floats(min_value=1e-300, allow_infinity=False), finite, non_negative,
    non_negative, non_negative, non_negative, st.none() | non_negative),
    max_size=6))
@PROPERTY_SETTINGS
def test_profiles_round_trip_through_the_file_format(candidates):
    objects = {o.id: o for o in candidates if o is not None}
    ps = ProfileSet(tuple(objects.values()))
    stream = io.StringIO()
    write_profiles(ps, stream)
    stream.seek(0)
    assert load_profiles(stream).objects == ps.objects


any_float = st.floats() | st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324))


@given(st.lists(st.tuples(st.lists(any_float, min_size=6, max_size=6),
                          st.none() | any_float), min_size=1, max_size=8))
@PROPERTY_SETTINGS
def test_the_column_check_rejects_exactly_what_object_profile_rejects(records):
    # The scalar and column evaluations of the one rule table agree.
    table = np.array([values for values, _ in records]).T
    mpki = np.array([np.nan if m is None else m for _, m in records])
    given = np.array([m is not None for _, m in records])
    expected = []
    for values, m in records:
        try:
            ObjectProfile("x", *values, m)
            expected.append(False)
        except ProfileError:
            expected.append(True)
    rejected = _broken(_columns((), table, mpki, given), _VALUE_CHECKS)
    assert rejected.tolist() == expected
