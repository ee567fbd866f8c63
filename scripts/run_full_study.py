#!/usr/bin/env python
"""Run the complete evaluation and write every artifact to disk.

Regenerates Tables I-V and Figures 2-3 on the full nine-graph grid, writes
the rendered text to ``benchmarks/results/`` and the raw cells to
``benchmarks/results/cells.json``.  This is the long-form equivalent of
``repro-study all --save ...`` with progress output.

The grid cells are jobs on a durable SQLite queue (``--queue``, default
``<out>/queue.db``) drained by ``repro.service.run_grid``: in-process by
default, or with ``--workers N`` on a supervised pool that respawns
crashed or hung workers and retries their cells.  A killed run continues
with ``--resume`` (without it the queue file is discarded first): settled
cells are recalled, and ``cells.json`` is byte-identical to an
uninterrupted run's at any worker count.  Drills inject faults through
``REPRO_FAULTS`` (see ``repro.faults``); a malformed knob, or a queue
file that is not a job queue, exits 2 before the first cell.
"""

import argparse
import pathlib
import sys
import time

from repro import errors, faults
from repro.core import experiments, figures, tables
from repro.core.experiments import GRAPH_ORDER, STATUSES
from repro.core.systems import APPLICATIONS
from repro.sparse import parallel

DEFAULT_OUT = (pathlib.Path(__file__).resolve().parent.parent
               / "benchmarks" / "results")

#: Figure 2's panel: the four largest graphs.
LARGEST = GRAPH_ORDER[-4:]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="artifact directory (created if missing)")
    parser.add_argument("--resume", action="store_true",
                        help="re-drain the queue: cells it already settled "
                             "are recalled instead of re-run")
    parser.add_argument("--graphs", nargs="*", default=None,
                        help=f"graph subset (default: all of {GRAPH_ORDER})")
    parser.add_argument("--apps", nargs="*", default=None,
                        help=f"application subset (default: {APPLICATIONS})")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run grid cells on N supervised worker "
                             "processes (default: 1 = in-process)")
    parser.add_argument("--queue", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="the grid's job queue (default: "
                             "<out>/queue.db); a killed run re-invoked "
                             "with --resume against it runs each cell "
                             "exactly once")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    queue_path = args.queue or (out / "queue.db")

    from repro.service import grid_tasks, run_grid
    from repro.service.config import validate_env_knobs
    from repro.service.queue import discard

    try:
        validate_env_knobs()
        experiments.validate_selection(graphs=args.graphs, apps=args.apps)
        faults.install_from_env()
        parallel.kernel_threads_from_env()
    except errors.InvalidValue as exc:
        print(f"repro-study: {exc}", file=sys.stderr)
        return 2
    graphs = list(args.graphs or GRAPH_ORDER)
    apps = list(args.apps or APPLICATIONS)

    if args.workers < 1:
        print(f"--workers wants a positive worker count; got "
              f"{args.workers}", file=sys.stderr)
        return 2
    if not args.resume:
        discard(queue_path)

    t0 = time.time()
    tasks = grid_tasks(
        graphs, apps,
        sweep_apps=[a for a in apps if a in figures.FIGURE2_APPS]
        or figures.FIGURE2_APPS,
        sweep_graphs=[g for g in graphs if g in LARGEST] or LARGEST)
    try:
        _results, line = run_grid(tasks, args.workers, queue_path=queue_path)
    except errors.InvalidValue as exc:  # the queue file is not a queue
        print(f"repro-study: {exc}", file=sys.stderr)
        return 2
    print(line, flush=True)
    print(f"[{time.time() - t0:7.0f}s] grid done", flush=True)

    targets = (
        ("table1", lambda: tables.table1(graphs)),
        ("table2", lambda: tables.table2(graphs, apps)),
        ("table3", lambda: tables.table3(graphs, apps)),
        ("table4", lambda: tables.table4(graphs, apps)),
        ("figure2", lambda: figures.figure2(
            apps=[a for a in apps if a in figures.FIGURE2_APPS]
            or figures.FIGURE2_APPS,
            graphs=[g for g in graphs if g in LARGEST] or LARGEST)),
        ("figure3", lambda: figures.figure3(graphs=graphs)),
        ("table5", lambda: tables.table5(graphs)),
    )
    for name, fn in targets:
        t = time.time()
        (out / f"{name}.txt").write_text(str(fn()) + "\n")
        print(f"[{time.time() - t0:7.0f}s] {name} done "
              f"({time.time() - t:.0f}s)", flush=True)
    experiments.save_results(str(out / "cells.json"))

    total = experiments.status_counts()
    print("grid: " + " ".join(f"{s}={total[s]}" for s in STATUSES))
    if total["ERR"]:
        print(f"warning: {total['ERR']} cell(s) ended in ERR; inspect "
              "cells.json error fields", file=sys.stderr)
    print(f"all artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
