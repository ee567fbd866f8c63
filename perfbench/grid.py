"""``study-grid``: the repo's product, run the way its users run it.

One pass is ``python -m repro.core.runner table2 --graphs rmat22 eukarya
friendster --workers 2 --save cells.json`` against a warm artifact store:
54 cells through ``Supervisor`` + ``WorkerPool`` + ``OrderedCommitter``.
ktruss and tc (``repro.sparse.join``, masked SpGEMM) are ~35 of the ~39
cell-seconds, so join/SpGEMM work shows here; so does anything that
changes how the pool schedules, ships or commits cells.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict

from perfbench import cells, harness

GRAPHS = ("rmat22", "eukarya", "friendster")
SMOKE_GRAPHS = ("rmat22",)
APPS = ("bfs", "cc", "ktruss", "pr", "sssp", "tc")
WORKERS = 2

PASS_TIMEOUT_S = 150.0


def run(ctx: harness.Context) -> harness.Outcome:
    from repro.graphs import datasets

    graphs = SMOKE_GRAPHS if ctx.smoke else GRAPHS
    work = cells.grid(cells.SYSTEMS, APPS, graphs)
    by_name = {g: datasets.get_dataset(g) for g in graphs}

    def set_up():
        ctx.use_fresh_store()
        datasets.clear_cache()
        with ctx.tracer.span("publish_and_load"):
            for dataset in by_name.values():
                dataset.build()
                dataset.build_symmetric()

    setup_samples = ctx.repeat_set_up(set_up)

    def cli_pass(index: int):
        save = ctx.tmp / f"cells-{index}.json"
        argv = ["-m", "repro.core.runner", "table2", "--graphs", *graphs,
                "--workers", str(WORKERS), "--save", str(save)]
        with open(ctx.tmp / "cli.out", "w") as out, \
                open(ctx.tmp / "cli.err", "w") as err, \
                ctx.tracer.span("cli", trace=f"pass-{index}"):
            proc = ctx.children.run_python(argv, timeout=PASS_TIMEOUT_S,
                                           stdout=out, stderr=err)
        if proc.returncode != 0:
            raise RuntimeError(
                f"repro.core.runner exited {proc.returncode}: "
                + (ctx.tmp / "cli.err").read_text()[-2000:])
        return save

    # One pass is ~20 s, so the default --seconds buys exactly one.
    walls, saves = ctx.timed_passes(cli_pass, ctx.seconds)

    end_to_end = {
        "setup_s": ctx.setup_seconds(setup_samples),
        "pass_s": statistics.median(walls),
        "peak_rss_mb": harness.peak_rss_mb(children=True),
    }

    expected = cells.load_expected()
    failures = []
    for index, save in enumerate(saves):
        got = {cells.Cell(r["system"], r["app"], r["graph"]):
               {k: v for k, v in r.items() if k != "thread_sweep"}
               for r in json.loads(save.read_text())["cells"]}
        for cell in work:
            bad = cells.mismatched_fields(got.get(cell), expected.get(cell))
            if bad:
                failures.append(f"pass {index} {cell}: differs from pinned "
                                f"row on {bad}")

    outcome = harness.Outcome(
        end_to_end=end_to_end, attempted=len(work) * len(saves),
        failures=failures,
        samples={"pass_s": walls, "setup_s": setup_samples})
    if ctx.trace:
        outcome.per_layer, outcome.layers_self_s = _replay(
            ctx, work, by_name, end_to_end["pass_s"])
    return outcome


def _replay(ctx, work, by_name, pass_s: float):
    """The same 54 cells, sequentially, in this process, with spans.

    What the pool adds is then ``pass_s`` minus half the replay (two
    workers), and the longest cell bounds what any scheduler can reach.
    """
    from perfbench import layers

    with ctx.tracer.span("replay", trace="replay"):
        runs = [cells.run_cell(cell, by_name[cell.graph], ctx.tracer,
                               "replay") for cell in work]
    medians = layers.cell_medians([runs])
    per_layer = layers.cell_metrics(medians, work)
    events = float(sum(run.events for run in runs))
    per_layer["engine.events_per_pass"] = events

    def app_seconds(*apps) -> float:
        return sum(s for cell, s in medians.items() if cell.app in apps)

    per_layer["grid.ktruss_s"] = app_seconds("ktruss")
    per_layer["grid.tc_s"] = app_seconds("tc")
    per_layer["grid.rest_s"] = app_seconds("bfs", "cc", "pr", "sssp")
    per_layer["grid.critical_cell_s"] = max(medians.values())
    per_layer["grid.pool_overhead_s"] = \
        pass_s - per_layer["core.cell_sum_s"] / WORKERS

    # Only the first graph's cells (rmat22: all six applications) go under
    # the profiler; a full profiled replay would double the traced run.
    graphs = list(by_name)
    slice_ = [cell for cell in work if cell.graph == graphs[0]]
    profiled = layers.profiled_passes(ctx, slice_, by_name, budget_s=0.0)
    slice_events = float(sum(r.events for r in runs if r.cell in slice_))
    per_layer.update(layers.self_time_metrics(profiled, slice_events))
    per_layer["trace.overhead_frac"] = (
        profiled.walls[0] / sum(medians[cell] for cell in slice_) - 1.0)

    # Direct probes run on the largest graph (friendster).
    per_layer.update(layers.direct_probes(ctx, by_name[graphs[-1]], work,
                                          by_name, with_join=True))
    return per_layer, profiled.layers
