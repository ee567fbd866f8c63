"""Command-line entry point: regenerate any table or figure, or all of them.

Examples::

    repro-study table1
    repro-study table2 --graphs rmat22 road-USA-W --apps bfs cc
    repro-study figure2
    repro-study all --save results.json
    repro-study all --out benchmarks/results       # every artifact file
    repro-study all --out DIR --resume             # continue a killed run
    repro-study all --workers 4 --strict           # supervised worker pool

``all --out DIR`` writes every file :data:`repro.core.results.RESULTS`
registers plus ``DIR/cells.json``, and keeps the grid's job queue at
``DIR/queue.db`` (``--queue PATH`` elsewhere).  Every grid drains through
:func:`repro.service.run_grid`; ``--resume`` re-drains a kept queue and
recalls the cells it settled, and without it the queue file is discarded
first.  A malformed knob, or a queue file that is not a job queue, exits
2 before the first cell.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import errors, faults
from repro.core import experiments, results
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
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="with 'all': write every artifact file and "
                             "cells.json into DIR (created if missing), "
                             "the job queue at DIR/queue.db")
    parser.add_argument("--queue", default=None, metavar="PATH",
                        help="keep the grid's job queue at PATH instead of "
                             "a temporary file or DIR/queue.db (replaced "
                             "unless --resume)")
    parser.add_argument("--resume", action="store_true",
                        help="re-drain the kept queue: cells it already "
                             "settled are recalled, the rest run")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="drain the grid's job queue on N supervised "
                             "worker processes (default: 1 = in this "
                             "process); crashed or hung workers are "
                             "respawned and their cells retried under "
                             "REPRO_JOB_MAX_ATTEMPTS")
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
    if args.out and args.target != "all":
        print("repro-study: --out writes the 'all' target only",
              file=sys.stderr)
        return 2
    queue = args.queue or (args.out and args.out / "queue.db")
    if args.resume and not queue:
        print("repro-study: --resume requires --queue PATH or --out DIR",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("repro-study: --workers wants a positive worker count; got "
              f"{args.workers}", file=sys.stderr)
        return 2

    if args.load:
        n = experiments.load_results(args.load)
        print(f"(loaded {n} cached cells from {args.load})", file=sys.stderr)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    if queue and not args.resume:
        from repro.service.queue import discard

        discard(queue)

    if args.target == "explain":
        for g in graphs:
            for app in apps:
                print(_explain_cell(args.system, app, g))
                print()
    else:
        try:
            _prewarm_grid(args.target, graphs, apps, args.workers, queue)
        except errors.InvalidValue as exc:  # e.g. --queue is not a queue
            print(f"repro-study: {exc}", file=sys.stderr)
            return 2
        targets = ([args.target] if args.target != "all" else
                   ["table1", "table2", "table3", "table4", "table5",
                    "figure2", "figure3", "validate"])
        if args.out:
            results.write_all(args.out, graphs, apps)
            print(f"(wrote {len(results.RESULTS)} artifacts and cells.json "
                  f"to {args.out})", file=sys.stderr)
        else:
            for target in targets:
                print(_render(target, graphs, apps))
                print()
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


def _prewarm_grid(target: str, graphs, apps, workers: int,
                  queue_path=None) -> None:
    """Compute the cells the target reads (:func:`repro.core.results.grid`)
    through :func:`repro.service.run_grid`: they drain through a job queue
    (at ``queue_path``, or an ephemeral one), in this process when
    ``workers`` is 1, else on a supervised worker pool.

    Fills the experiment memo so the renderers afterwards only hit
    cache.  Targets that read no grid cells (table1, and table5/figure3,
    which use the separate problem-variant memo) compute lazily in the
    renderers.
    """
    from repro.service import run_grid

    names = {"all": list(results.RESULTS),
             "validate": ["table2"]}.get(target, [target])
    tasks = results.grid(names, graphs, apps)
    if tasks:
        _results, line = run_grid(tasks, workers, queue_path=queue_path)
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
    return str(results.RESULTS[target].render(graphs, apps))


if __name__ == "__main__":
    sys.exit(main())
