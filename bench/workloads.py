"""Benchmark workloads: generated input files plus the CLI ops of a run.

Each builder writes its inputs under ``workdir`` and returns the ops of a
run. An op is one ``memplan`` command line; the program sees nothing but
the files written here. ``work`` scales the number of ops and sets, and
``tiny=True`` shrinks every set so that the smoke test can run one op per
workload in well under a second.

The sets are generated from the fixed ``INPUT_SEED``, not from the run's
``--seed`` (which orders the ops, see run.py). Solve time varies several-
fold between random sets of one size: counting relaxation-bound calls, the
solver work of one pass over solve-sweep differed by 12% (IQR/median) between
eight input seeds, and migrate-live's by about 9%. That spread alone would
use up half the bound, so every run measures the same sets.

Why each workload exists (see README.md for the per-layer predictions):

* ``solve-sweep``: ``plan`` on small all-major sets, so ``ilp.solve`` is
  nearly the whole op and the infeasible ratio-0.5 cells also run
  ``diagnose_infeasibility``.
* ``wide-pipeline``: 2000-object sets where the solver is bypassed or
  trivial, so the time goes to profile I/O, pricing, scaling, baselines
  and the evaluator.
* ``migrate-live``: ``migrate`` on 256-object sets, which prices every
  live object for migration and solves a 3- to 5-row program.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

from memplan.baselines import place_mpki_threshold
from memplan.energy import GIB, testbed1
from memplan.planner import write_plan
from memplan.profiles import (GeneratorSpec, ProfileSet, generate_synthetic,
                              write_profile_dir, write_profiles)

MPKI_THRESHOLD = 0.05
INPUT_SEED = 2006


@dataclass(frozen=True)
class Op:
    """One CLI call and what the harness needs to check its artifact."""

    op_id: str
    kind: str
    argv: tuple[str, ...]
    out: str
    profiles: str | None = None
    dram_gib: float = 0.0
    nvm_gib: float = 0.0


def device(op: Op):
    """The DeviceSpec the CLI builds from the op's device options."""
    return testbed1(dram_capacity=op.dram_gib * GIB,
                    nvm_capacity=op.nvm_gib * GIB)


def _write_mpki_plan(profiles: ProfileSet, dram: float, nvm: float,
                     path: str) -> None:
    dev = testbed1(dram_capacity=dram, nvm_capacity=nvm)
    write_plan(place_mpki_threshold(profiles, dev, MPKI_THRESHOLD), path)


def _op(op_id: str, kind: str, args: tuple[str, ...], out: str,
        profiles: str | None = None, dram: float = 0.0,
        nvm: float = 0.0) -> Op:
    argv = (kind,) + args
    if profiles is not None:
        argv += ("--profiles", profiles)
    if dram:
        argv += ("--preset", "testbed1",
                 "--dram-capacity-gib", repr(dram / GIB),
                 "--nvm-capacity-gib", repr(nvm / GIB))
    argv += ("--out", out)
    return Op(op_id, kind, argv, out, profiles, dram / GIB, nvm / GIB)


def _write(profiles: ProfileSet, workdir: str, name: str) -> str:
    path = os.path.join(workdir, name)
    write_profiles(profiles, path)
    return path


def _count(base: int, work: float) -> int:
    return max(1, round(base * work))


def build_solve_sweep(workdir: str, work: float = 1.0,
                      tiny: bool = False) -> list[Op]:
    """``plan`` on all-major sets, each at one (DRAM share, ratio) cell.

    Sizes of 2..16 MiB make every object major. The cells cycle, so each
    set size covers the whole grid. Many sets of the cheaper sizes fill the
    slow tail densely, so the 90th percentile does not jump between
    far-apart ops, without making the run long.
    """
    counts = ({8: 2, 10: 2, 12: 2} if tiny
              else {24: 100, 32: 36, 40: 12})
    cells = [(share, ratio) for share in (1.0, 0.5, 0.25)
             for ratio in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)]
    ops = []
    for n, base in counts.items():
        for i in range(_count(base, work)):
            share, ratio = cells[i % len(cells)]
            tag = f"n{n}-d{int(share * 100)}-r{ratio:g}-{i}"
            rng = random.Random(f"solve-sweep:{INPUT_SEED}:{n}:{i}")
            profiles = generate_synthetic(GeneratorSpec(
                count=n, size_range=(2 << 20, 16 << 20)), rng.randrange(2**31))
            path = _write(profiles, workdir, f"{tag}.prof")
            total = profiles.total_size()
            ops.append(_op(f"plan-{tag}", "plan", ("--ratio", repr(ratio)),
                           os.path.join(workdir, f"{tag}.plan"),
                           path, share * total, total))
    return ops


def _family(base: ProfileSet, rng: random.Random,
            sizes: tuple[float, ...]) -> list[ProfileSet]:
    """Profiles of one program at several workload sizes (shared ids)."""
    growth = [(rng.uniform(0.2, 1.0), rng.uniform(0.5, 1.5),
               rng.uniform(0.1, 0.8)) for _ in base]
    sets = []
    for w in sizes:
        objects = tuple(
            replace(o, size=float(round(o.size * (1 + gs * (w - 1)))),
                    accessed_volume=float(round(o.accessed_volume
                                                * (1 + ga * (w - 1)))),
                    llc_misses=float(round(o.llc_misses * (1 + ga * (w - 1)))),
                    dirty_blocks=float(round(o.dirty_blocks
                                             * (1 + ga * (w - 1)))),
                    dealloc_time=o.alloc_time
                    + o.lifetime * (1 + gl * (w - 1)))
            for o, (gs, ga, gl) in zip(base, growth))
        sets.append(ProfileSet(objects, f"size{w:g}", w))
    return sets


def build_wide_pipeline(workdir: str, work: float = 1.0,
                        tiny: bool = False) -> list[Op]:
    """evaluate/compare/scale on wide sets, plan/sweep on a mostly-minor one.

    The mostly-minor set draws its small objects from 4..64 KiB, so only its
    8 skewed objects exceed the 1 MiB major threshold and the solver has
    next to nothing to do. The op mix puts the 90th percentile inside the
    compare ops and the median among the plan and evaluate ops, which cost
    about the same, so neither sits on a jump between kinds of op.
    """
    rng = random.Random(f"wide-pipeline:{INPUT_SEED}")
    count = 200 if tiny else 2000

    wide = generate_synthetic(GeneratorSpec(count=count, with_mpki=True),
                              rng.randrange(2**31))
    wide_path = _write(wide, workdir, "wide.prof")
    total = wide.total_size()
    wide_dev = (0.5 * total, total)
    wide_plan = os.path.join(workdir, "wide-mpki.plan")
    _write_mpki_plan(wide, *wide_dev, wide_plan)

    family_dir = os.path.join(workdir, "family")
    base = generate_synthetic(GeneratorSpec(count=count),
                              rng.randrange(2**31))
    write_profile_dir(_family(base, rng, (1.0, 2.0, 4.0)), family_dir)

    skewed = generate_synthetic(GeneratorSpec(
        count=count, size_range=(4096, 65536), skew_count=8,
        skew_share=0.5, with_mpki=True), rng.randrange(2**31))
    skewed_path = _write(skewed, workdir, "skewed.prof")
    total = skewed.total_size()
    skewed_dev = (0.75 * total, total)

    def out(name: str) -> str:
        return os.path.join(workdir, name)

    dram_gib = skewed_dev[0] / GIB
    capacities = ",".join(f"{dram_gib * s!r}:{skewed_dev[1] / GIB!r}"
                          for s in (1.0, 0.9))
    ratios = (0.9, 0.8, 0.7, 0.6)
    ops = []
    for i in range(_count(70, work)):
        fmt = ("csv", "json")[i % 2]
        ops.append(_op(f"evaluate-{i}", "evaluate",
                       ("--plan", wide_plan, "--format", fmt),
                       out(f"evaluate-{i}.{fmt}"), wide_path, *wide_dev))
    for i in range(_count(28, work)):
        ops.append(_op(f"compare-{i}", "compare",
                       ("--all-dram", "--all-nvm",
                        "--mpki-thresholds", "0.01,0.025,0.05"),
                       out(f"compare-{i}.csv"), wide_path, *wide_dev))
    for i in range(_count(2, work)):
        ops.append(_op(f"scale-{i}", "scale",
                       ("--profiles-dir", family_dir, "--target", "8"),
                       out(f"scaled-{i}.prof")))
    for i in range(_count(88, work)):
        ratio = ratios[i % len(ratios)]
        ops.append(_op(f"plan-r{ratio:g}-{i}", "plan",
                       ("--ratio", repr(ratio)),
                       out(f"skewed-r{ratio:g}-{i}.plan"),
                       skewed_path, *skewed_dev))
    for i in range(_count(12, work)):
        ops.append(_op(f"sweep-{i}", "sweep",
                       ("--ratios", "1.0,0.9,0.8,0.7",
                        "--capacities", capacities),
                       out(f"sweep-{i}.csv"), skewed_path, *skewed_dev))
    return ops


def build_migrate_live(workdir: str, work: float = 1.0,
                       tiny: bool = False) -> list[Op]:
    """Budget changes after the last allocation on many 256-object sets.

    Each set's current plan is its MPKI-threshold placement, and each set
    gets a few of the requests, cycling through all of them, so that a run
    averages over many sets. Strict ratios 0.5 and 0.4 are infeasible
    (exit 2). The mix is 2/10 transient-capacity requests at t=5 (the
    slowest, holding the 90th percentile), 4/10 strict ones at t=5 and 4/10
    cheap ones (t=7 or best-effort). Strict ratios between 0.55 and 0.7 sit
    next to the current placement's ratio (about 0.72-0.75) and take several
    seconds on some sets; they are left out to keep one slow set from
    dominating the run, and solve-sweep already carries the solver's tail.
    """
    rng = random.Random(f"migrate-live:{INPUT_SEED}")
    count = 32 if tiny else 256
    transient, effort = ("--transient-capacity",), ("--best-effort",)
    requests = [("7", 0.8, ()), ("5", 0.8, transient), ("5", 0.9, ()),
                ("5", 0.8, ()), ("7", 0.4, ()), ("5", 0.5, transient),
                ("5", 0.5, ()), ("5", 0.4, ()), ("5", 0.9, effort),
                ("7", 0.5, transient)]
    per_set = 3
    ops = []
    for s in range(_count(60, work)):
        profiles = generate_synthetic(
            GeneratorSpec(count=count, with_mpki=True), rng.randrange(2**31))
        path = _write(profiles, workdir, f"live{s}.prof")
        total = profiles.total_size()
        dev = (0.5 * total, total)
        current = os.path.join(workdir, f"live{s}-mpki.plan")
        _write_mpki_plan(profiles, *dev, current)
        for j in range(per_set):
            t, ratio, flags = requests[(s * per_set + j) % len(requests)]
            tag = f"s{s}-t{t}-r{ratio:g}{''.join(f[1:3] for f in flags)}"
            ops.append(_op(f"migrate-{tag}", "migrate",
                           ("--current", current, "--time", t,
                            "--new-ratio", repr(ratio)) + flags,
                           os.path.join(workdir, f"{tag}.mig"),
                           path, *dev))
    return ops


BUILDERS = {
    "solve-sweep": build_solve_sweep,
    "wide-pipeline": build_wide_pipeline,
    "migrate-live": build_migrate_live,
}
