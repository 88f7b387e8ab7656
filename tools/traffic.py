"""Lines of memplan's functions that no op of a benchmark workload runs.

Run from the repository root:

    python3 tools/traffic.py --workload wide-pipeline --work 0.2

A workload's input files come from ``bench/workloads.py`` (``--tiny`` for
the smoke test's sets). Each op's command line then runs through this
checkout's ``memplan.cli.main`` under a line tracer that follows only
function code in ``src/memplan``, so a fast path's traffic can be checked
before it is kept or cut. Only function bodies count: class bodies and
module lines run at import, before the tracer starts, and so does code
they hold, such as a module-level comprehension.

For each workload the tool prints, per module, how many of its function
lines no op ran and which, as ranges. The last line of standard output is
one JSON object: per workload, per module, the unrun line numbers.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import tempfile
import types

from ab import BENCH_DIR, ROOT, WORKLOADS, run_once

PACKAGE = os.path.join(ROOT, "src", "memplan")


def function_lines(path: str) -> set[int]:
    """The lines a call into the module at ``path`` can run: those of every
    ``def`` in it, and of the code nested in one, but not a def's first
    line, on which a call runs nothing."""
    def walk(code: types.CodeType, inside: bool) -> set[int]:
        lines: set[int] = set()
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            called = inside or (const.co_flags & inspect.CO_OPTIMIZED
                                and not const.co_name.startswith("<"))
            if called:
                lines |= {line for _, _, line in const.co_lines()
                          if line is not None} - {const.co_firstlineno}
            lines |= walk(const, called)
        return lines
    with open(path, encoding="utf-8") as handle:
        return walk(compile(handle.read(), path, "exec"), False)


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` runs of consecutive lines."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def traffic(cli, ops, lines: dict[str, set[int]]) -> dict[str, list[int]]:
    """Per module file of ``lines``, those of its lines no op runs."""
    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in lines else None

    for op in ops:
        sys.settrace(on_call)
        try:
            run_once(cli, list(op.argv))
        finally:
            sys.settrace(None)
    return {path: sorted(line for line in body if (path, line) not in ran)
            for path, body in lines.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--work", type=float, default=0.2,
                        help="share of a benchmark run's ops (default 0.2)")
    parser.add_argument("--tiny", action="store_true",
                        help="the smoke test's tiny sets")
    args = parser.parse_args(argv)
    if not args.work > 0:
        parser.error("--work must be > 0")
    sys.path[:0] = [os.path.dirname(PACKAGE), BENCH_DIR]
    from memplan import cli
    from workloads import BUILDERS
    if os.path.dirname(cli.__file__) != PACKAGE:
        parser.error(f"memplan was imported from {cli.__file__}")
    paths = [os.path.join(PACKAGE, name)
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")]
    lines = {path: function_lines(path) for path in paths}
    summary = {}
    with tempfile.TemporaryDirectory(prefix="memplan-traffic-") as tmp:
        for workload in args.workload:
            workdir = os.path.join(tmp, workload)
            os.makedirs(workdir)
            ops = BUILDERS[workload](workdir, args.work, args.tiny)
            print(f"{workload}: {len(ops)} ops")
            summary[workload] = {}
            for path, unrun in traffic(cli, ops, lines).items():
                module = os.path.basename(path)[:-3]
                summary[workload][module] = unrun
                print(f"  {module}: {len(unrun)} of {len(lines[path])} "
                      f"lines unrun: {ranges(unrun)}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
