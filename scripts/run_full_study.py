#!/usr/bin/env python
"""Run the complete evaluation and write every artifact to disk.

Regenerates Tables I-V and Figures 2-3 on the full nine-graph grid, writes
the rendered text to ``benchmarks/results/`` and the raw cells to
``benchmarks/results/cells.json``.  This is the long-form equivalent of
``repro-study all --save ...`` with progress output.

The run is resilient: every completed cell is checkpointed to a JSONL
journal (``--journal``, default ``<out>/journal.jsonl``), so a killed run
can be continued with ``--resume`` — already-journaled cells are recalled
instead of re-run, and the final ``cells.json`` is byte-identical to an
uninterrupted run's.  Fault injection for drills is configured through the
``REPRO_FAULTS`` environment knobs (see ``repro.faults``).

With ``--workers N`` (N > 1) the grid cells are submitted as jobs to a
queue and drained by a supervised pool of N worker processes
(``repro.service.run_grid``): crashed or hung workers are respawned and
their cells retried with backoff.  The journal records cells as they
finish and ``cells.json`` is sorted by key, so it stays byte-identical
to a sequential run's.  The queue is ephemeral unless ``--queue PATH``
keeps it on disk, in which case a killed run re-invoked against the same
queue resumes exactly once per job.  ``--workers`` composes with
``--resume`` and the fault knobs; a malformed fault, watchdog or
``REPRO_KERNEL_THREADS`` knob exits 2 before the first cell.
"""

import argparse
import pathlib
import sys
import time

from repro import errors, faults
from repro.core import checkpoint, experiments, figures, tables
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
    parser.add_argument("--journal", type=pathlib.Path, default=None,
                        help="cell checkpoint journal "
                             "(default: <out>/journal.jsonl)")
    parser.add_argument("--resume", action="store_true",
                        help="recall cells already in the journal instead "
                             "of re-running them")
    parser.add_argument("--graphs", nargs="*", default=None,
                        help=f"graph subset (default: all of {GRAPH_ORDER})")
    parser.add_argument("--apps", nargs="*", default=None,
                        help=f"application subset (default: {APPLICATIONS})")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run grid cells on N supervised worker "
                             "processes (default: 1 = in-process)")
    parser.add_argument("--queue", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="keep the grid's job queue at PATH (created "
                             "if missing) instead of a temporary file: a "
                             "killed run re-invoked against the same queue "
                             "resumes exactly once per job")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    journal_path = args.journal or (out / "journal.jsonl")

    from repro.service.config import validate_env_knobs

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
    if args.resume:
        n = checkpoint.resume(journal_path)
        print(f"resuming: {n} cells recalled from {journal_path}",
              flush=True)
    else:
        checkpoint.attach(journal_path, fresh=True)

    if args.queue is not None or args.workers > 1:
        from repro.service import grid_tasks, run_grid

        tasks = grid_tasks(
            graphs, apps,
            sweep_apps=[a for a in apps if a in figures.FIGURE2_APPS]
            or figures.FIGURE2_APPS,
            sweep_graphs=[g for g in graphs if g in LARGEST] or LARGEST)
        _results, line = run_grid(tasks, args.workers,
                                  queue_path=args.queue)
        print(line, flush=True)

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
    t0 = time.time()
    summary = []
    for name, fn in targets:
        t = time.time()
        before = set(experiments.all_results())
        rendered = fn()
        fresh = [r for k, r in experiments.all_results().items()
                 if k not in before]
        summary.append((name, experiments.status_counts(fresh)))
        (out / f"{name}.txt").write_text(str(rendered) + "\n")
        print(f"[{time.time() - t0:7.0f}s] {name} done "
              f"({time.time() - t:.0f}s)", flush=True)
    experiments.set_journal(None)
    experiments.save_results(str(out / "cells.json"))

    print("cell summary (new cells per target):")
    for name, counts in summary:
        line = " ".join(f"{s}={counts[s]}" for s in STATUSES)
        print(f"  {name:<8s} {line}")
    total = experiments.status_counts()
    print("  " + "-" * 40)
    print(f"  {'grid':<8s} "
          + " ".join(f"{s}={total[s]}" for s in STATUSES))
    if total["ERR"]:
        print(f"warning: {total['ERR']} cell(s) ended in ERR; inspect "
              "cells.json error fields", file=sys.stderr)
    print(f"all artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
