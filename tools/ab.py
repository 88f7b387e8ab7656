"""In-process A/B timing of two memplan source trees on benchmark workloads.

Run from the repository root, against the parent commit:

    python3 tools/ab.py --parent HEAD~1 --workload wide-pipeline \
        --work 0.4 --rounds 5

``--kind KIND`` (repeatable) keeps only the named kinds of op, for
example ``--workload wide-pipeline --kind evaluate``.

``--parent`` names a source directory (``../parent/src``) or a git
revision of this repository, whose ``src/memplan`` is exported with
``git archive`` into the temporary directory. Each tree's ``memplan``
package is copied into that directory as
``memplan_p`` (the parent) and ``memplan_c`` (the change, by default this
checkout's ``src``). The package imports itself only relatively, so both
load side by side in one process. A workload's input files come from
``bench/workloads.py``, built once with the change tree. Every round runs
each op through both trees, alternating which goes first, each call right
after ``bench/run.py``'s ``calibrate()``, which starts with a full
collection, so both sides start from the same collector and cache state.
Each side writes a fresh output file of its own, and the two exit codes
and artifacts must agree byte for byte; the tool exits 1 at the first op
where they do not.

A round prints the change/parent ratio of the summed op times (below 1 is
faster). The last line of standard output is one JSON object: per
workload, the ratio of every round, their median and their range, the
ratio over all rounds of each kind of op (which sets a workload's
percentiles when its kinds differ in cost) under ``kinds``, and the
median and range of each kind's per-round ratios under ``kind_rounds``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
SIDES = ("parent", "change")
WORKLOADS = ("solve-sweep", "wide-pipeline", "migrate-live")


class Mismatch(Exception):
    """The two trees gave one op different exit codes or artifacts."""


class NoOps(Exception):
    """A workload has no op of the kinds asked for."""


def load_trees(parent_src: str, change_src: str, tmp: str) -> dict:
    """The ``cli`` module of each tree, imported under its renamed package."""
    clis = {}
    for side, src, package in ((SIDES[0], parent_src, "memplan_p"),
                               (SIDES[1], change_src, "memplan_c")):
        shutil.copytree(os.path.join(src, "memplan"),
                        os.path.join(tmp, package),
                        ignore=shutil.ignore_patterns("__pycache__"))
        clis[side] = importlib.import_module(f"{package}.cli")
    return clis


def export_revision(revision: str, tmp: str) -> str:
    """The source directory of ``revision``'s ``src/memplan``, exported
    into ``tmp``. Raises ValueError if git cannot export it."""
    tree = os.path.join(tmp, "parent-tree")
    os.makedirs(tree)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", revision,
         "src/memplan"], capture_output=True)
    if archive.returncode != 0:
        raise ValueError(archive.stderr.decode(errors="replace").strip())
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout,
                   check=True)
    return os.path.join(tree, "src")


def run_once(cli, argv: list[str]) -> tuple[int | str, float]:
    """(exit code or exception name, seconds) of one CLI call."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code: int | str = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else "exit"
        except Exception as exc:  # a failed op, compared like an exit code
            code = type(exc).__name__
        elapsed = time.perf_counter() - start
    return code, elapsed


def _artifact(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def run_pair(clis: dict, op, outdir: str, first: int,
             calibrate) -> dict[str, float]:
    """Run one op through both trees, ``SIDES[first]`` first; the seconds
    of each side. Raises Mismatch when the two disagree."""
    results = {}
    for side in (SIDES[first], SIDES[1 - first]):
        out = os.path.join(outdir, side, os.path.basename(op.out))
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        argv = list(op.argv)
        argv[argv.index("--out") + 1] = out
        calibrate()  # which starts with a full collection
        code, seconds = run_once(clis[side], argv)
        results[side] = (code, _artifact(out), seconds)
    (code_p, bytes_p, _), (code_c, bytes_c, _) = (results[s] for s in SIDES)
    if code_p != code_c:
        raise Mismatch(f"{op.op_id}: exit {code_p!r} (parent) against "
                       f"{code_c!r} (change)")
    if bytes_p != bytes_c:
        raise Mismatch(f"{op.op_id}: the artifacts differ")
    return {side: results[side][2] for side in SIDES}


def measure(clis: dict, workload: str, workdir: str, work: float,
            tiny: bool, rounds: int, calibrate,
            kinds: list[str] | None = None) -> dict:
    """A workload's ratios, over its ops of ``kinds`` only if given."""
    from workloads import BUILDERS
    os.makedirs(workdir)
    ops = [op for op in BUILDERS[workload](workdir, work, tiny)
           if kinds is None or op.kind in kinds]
    if not ops:
        raise NoOps(f"{workload} has no op of kind {', '.join(kinds)}")
    for side in SIDES:
        os.makedirs(os.path.join(workdir, side))
    # What the trees and the inputs leave alive stays out of every
    # collection, so the one before each call is short.
    gc.freeze()
    # One untimed call of each kind of op and side pays the first-call
    # costs (imports, caches) that the trees share.
    kinds = {op.kind: op for op in ops}
    for op in kinds.values():
        run_pair(clis, op, workdir, 0, calibrate)
    ratios, spent = [], []  # per round: per kind and side, seconds
    for r in range(rounds):
        spent.append({kind: dict.fromkeys(SIDES, 0.0) for kind in kinds})
        for i, op in enumerate(ops):
            for side, seconds in run_pair(clis, op, workdir, (r + i) % 2,
                                          calibrate).items():
                spent[-1][op.kind][side] += seconds
        totals = {side: sum(t[side] for t in spent[-1].values())
                  for side in SIDES}
        ratios.append(totals["change"] / totals["parent"])
        print(f"{workload} round {r + 1}: parent {totals['parent']:.3f} s, "
              f"change {totals['change']:.3f} s, ratio {ratios[-1]:.3f}",
              flush=True)
    by_kind = {kind: {side: sum(t[kind][side] for t in spent)
                      for side in SIDES} for kind in kinds}
    return {"ops": len(ops), "ratios": [round(x, 4) for x in ratios],
            **_spread(ratios),
            "kinds": {kind: round(t["change"] / t["parent"], 4)
                      for kind, t in by_kind.items()},
            "kind_rounds": {kind: _spread([t[kind]["change"]
                                           / t[kind]["parent"] for t in spent])
                            for kind in kinds}}


def _spread(ratios: list[float]) -> dict[str, float]:
    return {"median": round(statistics.median(ratios), 4),
            "min": round(min(ratios), 4), "max": round(max(ratios), 4)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="source directory holding the parent's memplan,"
                        " or a git revision (e.g. HEAD~1)")
    parser.add_argument("--change", default=os.path.join(ROOT, "src"),
                        help="source directory holding the change's memplan")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--work", type=float, default=1.0,
                        help="share of a benchmark run's ops (default 1)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--tiny", action="store_true",
                        help="the smoke test's tiny sets")
    parser.add_argument("--kind", action="append",
                        help="time only this kind of op (repeatable)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or not args.work > 0:
        parser.error("--rounds must be >= 1 and --work > 0")
    # bench/workloads.py writes the inputs with the change tree's memplan.
    sys.path[:0] = [args.change, BENCH_DIR]
    from run import calibrate
    summary = {}
    with tempfile.TemporaryDirectory(prefix="memplan-ab-") as tmp:
        sys.path.insert(0, tmp)
        parent = args.parent
        if not os.path.isdir(parent):
            try:
                parent = export_revision(parent, tmp)
            except ValueError as exc:
                parser.error(f"--parent {args.parent!r} is neither a "
                             f"directory nor a git revision: {exc}")
        clis = load_trees(parent, args.change, tmp)
        try:
            for workload in args.workload:
                summary[workload] = measure(
                    clis, workload, os.path.join(tmp, workload), args.work,
                    args.tiny, args.rounds, calibrate, args.kind)
        except Mismatch as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
        except NoOps as exc:
            parser.error(str(exc))
    for workload, result in summary.items():
        spread = result["kind_rounds"]
        print(f"{workload}: change/parent median {result['median']:.3f}, "
              f"range {result['min']:.3f}-{result['max']:.3f} over "
              f"{args.rounds} rounds of {result['ops']} ops; by kind of op, "
              "all rounds (per-round median, range): " + ", ".join(
                  f"{kind} {ratio:.3f} ({spread[kind]['median']:.3f}, "
                  f"{spread[kind]['min']:.3f}-{spread[kind]['max']:.3f})"
                  for kind, ratio in result["kinds"].items()))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
