"""Command-line entry point: regenerate any table or figure.

Examples::

    repro-study table1
    repro-study table2 --graphs rmat22 road-USA-W --apps bfs cc
    repro-study figure2
    repro-study all --save results.json
    repro-study all --journal run.jsonl --resume   # continue a killed run
    repro-study all --workers 4 --strict           # supervised worker pool
"""

from __future__ import annotations

import argparse
import sys

from repro import errors, faults
from repro.core import checkpoint, experiments, figures, tables
from repro.core.experiments import GRAPH_ORDER, STATUSES
from repro.core.systems import APPLICATIONS
from repro.sparse import parallel


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Regenerate tables/figures of 'A Study of APIs for "
                    "Graph Analytics Workloads' (IISWC 2020).")
    parser.add_argument("target", choices=[
        "table1", "table2", "table3", "table4", "table5",
        "figure2", "figure3", "validate", "explain", "all"])
    parser.add_argument("--system", default="GB", choices=["SS", "GB", "LS"],
                        help="system for the 'explain' target")
    parser.add_argument("--graphs", nargs="*", default=None,
                        help=f"graph subset (default: all of {GRAPH_ORDER})")
    parser.add_argument("--apps", nargs="*", default=None,
                        help=f"application subset (default: {APPLICATIONS})")
    parser.add_argument("--save", default=None,
                        help="persist cell results as JSON (atomic write)")
    parser.add_argument("--load", default=None,
                        help="preload cell results from JSON")
    parser.add_argument("--journal", default=None,
                        help="checkpoint each completed cell to this JSONL "
                             "journal")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already present in --journal "
                             "(implies journaling)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run grid cells as jobs on an ephemeral "
                             "queue drained by N supervised worker "
                             "processes (default: 1 = in-process); crashed "
                             "or hung workers are respawned and their "
                             "cells retried under REPRO_JOB_MAX_ATTEMPTS")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when any cell ends in ERR")
    args = parser.parse_args(argv)

    graphs = args.graphs or list(GRAPH_ORDER)
    apps = args.apps or list(APPLICATIONS)
    try:
        # A typo'd REPRO_* knob silently does nothing — fail fast instead
        # (REPRO_ALLOW_UNKNOWN_KNOBS=1 downgrades to a warning).
        from repro.service.config import validate_env_knobs

        validate_env_knobs()
        experiments.validate_selection(graphs=args.graphs, apps=args.apps)
        faults.install_from_env()
        parallel.kernel_threads_from_env()
    except errors.InvalidValue as exc:
        print(f"repro-study: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.journal:
        print("repro-study: --resume requires --journal PATH",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("repro-study: --workers wants a positive worker count; got "
              f"{args.workers}", file=sys.stderr)
        return 2

    if args.load:
        n = experiments.load_results(args.load)
        print(f"(loaded {n} cached cells from {args.load})", file=sys.stderr)
    if args.journal:
        if args.resume:
            n = checkpoint.resume(args.journal)
            print(f"(resumed {n} journaled cells from {args.journal})",
                  file=sys.stderr)
        else:
            checkpoint.attach(args.journal, fresh=True)
            print(f"(journaling cells to {args.journal})", file=sys.stderr)

    try:
        if args.target == "explain":
            for g in graphs:
                for app in apps:
                    print(_explain_cell(args.system, app, g))
                    print()
        else:
            if args.workers > 1:
                _prewarm_grid(args.target, graphs, apps, args.workers)
            targets = ([args.target] if args.target != "all" else
                       ["table1", "table2", "table3", "table4", "table5",
                        "figure2", "figure3", "validate"])
            for target in targets:
                print(_render(target, graphs, apps))
                print()
    finally:
        # A fatal (injected or real) abort still keeps the journal; the
        # snapshot below only happens on a clean finish.
        experiments.set_journal(None)
    if args.save:
        experiments.save_results(args.save)
        print(f"(saved cell results to {args.save})", file=sys.stderr)
    counts = experiments.status_counts()
    if args.target != "explain":
        line = " ".join(f"{s}={counts[s]}" for s in STATUSES)
        print(f"(cells: {line})", file=sys.stderr)
    if args.strict and counts["ERR"]:
        print(f"repro-study: --strict: {counts['ERR']} cell(s) ended in "
              "ERR", file=sys.stderr)
        return 1
    return 0


def _prewarm_grid(target: str, graphs, apps, workers: int) -> None:
    """Compute the target's grid cells on a supervised worker pool
    (:func:`repro.service.run_grid`: the cells drain through an
    ephemeral job queue).

    Fills the experiment memo (and the attached journal, as cells finish)
    so the in-process renderers afterwards only hit cache.  Targets
    that run no grid cells (table1, table5, figure3 — the latter two use
    the separate problem-variant memo) are left to the sequential path.
    """
    from repro.core.figures import FIGURE2_APPS
    from repro.service import grid_tasks, run_grid

    fig2_graphs = ([g for g in graphs if g in GRAPH_ORDER[-4:]]
                   or list(GRAPH_ORDER[-4:]))
    if target in ("table2", "table3", "validate"):
        tasks = grid_tasks(graphs, apps)
    elif target == "table4":
        tasks = grid_tasks(graphs, apps, systems=("GB", "LS"))
    elif target == "figure2":
        tasks = grid_tasks((), (), sweep_apps=FIGURE2_APPS,
                           sweep_graphs=fig2_graphs)
    elif target == "all":
        tasks = grid_tasks(graphs, apps, sweep_apps=FIGURE2_APPS,
                           sweep_graphs=fig2_graphs)
    else:
        return
    _results, line = run_grid(tasks, workers)
    print(f"({line})", file=sys.stderr)


def _explain_cell(system: str, app: str, graph: str) -> str:
    """Run one cell and decompose its simulated time (perf.trace)."""
    from repro.core.systems import make_system
    from repro.graphs.datasets import get_dataset
    from repro.perf.trace import explain

    instance = make_system(system).instantiate(get_dataset(graph))
    instance.run(app)
    header = f"{system} {app} {graph}:"
    return header + "\n" + explain(instance.machine).render()


def _render(target: str, graphs, apps) -> str:
    if target == "validate":
        from repro.core import validate

        return "\n\n".join(validate.render(validate.validate_graph(g, apps))
                            for g in graphs)
    if target == "table1":
        return str(tables.table1(graphs))
    if target == "table2":
        return str(tables.table2(graphs, apps))
    if target == "table3":
        return str(tables.table3(graphs, apps))
    if target == "table4":
        return str(tables.table4(graphs, apps))
    if target == "table5":
        return str(tables.table5(graphs))
    if target == "figure2":
        # Figure 2 covers the four largest graphs; an all-small subset
        # falls back to the default panel rather than an empty figure.
        return str(figures.figure2(graphs=[g for g in graphs
                                           if g in GRAPH_ORDER[-4:]]
                                   or GRAPH_ORDER[-4:]))
    if target == "figure3":
        return str(figures.figure3(graphs=graphs))
    raise ValueError(target)


if __name__ == "__main__":
    sys.exit(main())
