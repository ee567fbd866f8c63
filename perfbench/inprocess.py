"""The two in-process workloads: ``kernels-rmat16`` and ``rounds-road``.

Same layers, used the opposite way.  On a 1M-edge rmat graph every cell is
a handful of rounds over large arrays, so ``repro.sparse`` kernels do most
of the work; on the road twin bfs/sssp take thousands of rounds over
near-empty frontiers, so per-call cost in ``repro.graphblas``,
``repro.perf`` and ``repro.engine`` does.  A change aimed at one of the
two must leave the other where it was.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

from perfbench import cells, harness

WORKLOADS = {
    "kernels-rmat16": {"graph": "rmat16",
                       "apps": ("bfs", "cc", "pr", "sssp")},
    "rounds-road": {"graph": "road-USA-W", "apps": ("bfs", "sssp")},
}

#: Timed passes an untraced run makes at least, so ``pass_s`` is a median.
MIN_PASSES = 3


def run(ctx: harness.Context) -> harness.Outcome:
    from repro.graphs import datasets

    spec = WORKLOADS[ctx.workload]
    dataset = cells.resolve_dataset(spec["graph"], ctx.seed)
    order = cells.grid(cells.SYSTEMS, spec["apps"], [spec["graph"]])
    # The seed decides cell order on both workloads (and the graph itself
    # on kernels-rmat16; the road twin is pinned so its modeled counters
    # can be compared with the pinned rows).
    random.Random(ctx.seed).shuffle(order)

    def one_pass() -> List[cells.CellRun]:
        return [cells.run_cell(cell, dataset) for cell in order]

    def set_up():
        ctx.use_fresh_store()
        datasets.clear_cache()
        with ctx.tracer.span("publish_and_load"):
            dataset.build()
            dataset.build_symmetric()
        if not ctx.smoke:
            with ctx.tracer.span("warm_up_pass"):
                one_pass()

    setup_samples = ctx.repeat_set_up(set_up)

    # Under --trace half the time goes to plain passes (the reference the
    # profiled ones are compared with), half to profiled ones.
    def plain_pass(index: int) -> List[cells.CellRun]:
        with ctx.tracer.span("pass", trace=f"pass-{index}"):
            return one_pass()

    walls, passes = ctx.timed_passes(
        plain_pass,
        budget_s=ctx.seconds / 2 if ctx.trace else ctx.seconds,
        min_passes=1 if ctx.trace else MIN_PASSES)
    rss = harness.peak_rss_mb()

    def system_seconds(system: str) -> float:
        return statistics.median(
            sum(r.wall_s for r in runs if r.cell.system == system)
            for runs in passes)

    end_to_end = {
        "setup_s": ctx.setup_seconds(setup_samples),
        "pass_s": statistics.median(walls),
        "ss_s": system_seconds("SS"),
        "gb_s": system_seconds("GB"),
        "ls_s": system_seconds("LS"),
        "peak_rss_mb": rss,
    }

    per_layer: Dict[str, float] = {}
    layers_self_s: Dict[str, float] = {}
    if ctx.trace:
        from perfbench import layers

        mapping = {spec["graph"]: dataset}
        profiled = layers.profiled_passes(ctx, order, mapping,
                                          ctx.seconds / 2)
        medians = layers.cell_medians(passes)
        events = float(sum(r.events for r in passes[0]))
        per_layer.update(layers.cell_metrics(medians, order))
        per_layer["engine.events_per_pass"] = events
        per_layer.update(layers.self_time_metrics(profiled, events))
        per_layer.update(layers.direct_probes(
            ctx, dataset, order, mapping, with_join=False))
        per_layer["trace.overhead_frac"] = (
            statistics.median(profiled.walls) / end_to_end["pass_s"] - 1.0)
        layers_self_s = profiled.layers

    return harness.Outcome(
        end_to_end=end_to_end,
        attempted=sum(len(runs) for runs in passes),
        failures=_verify(ctx, dataset, passes),
        per_layer=per_layer,
        layers_self_s=layers_self_s,
        samples={"pass_s": walls, "setup_s": setup_samples})


def _verify(ctx, dataset, passes) -> List[str]:
    """One line per cell execution whose output is wrong."""
    first = {run.cell: run.row for run in passes[0]}
    reasons: Dict[cells.Cell, str] = {}

    if ctx.workload == "rounds-road":
        expected = cells.load_expected()
        for cell, row in first.items():
            bad = cells.mismatched_fields(row, expected.get(cell),
                                          cells.MODELED_FIELDS)
            if bad:
                reasons[cell] = f"differs from pinned row on {bad}"
    else:
        oracle = cells.oracle_answers(dataset)
        for app in {cell.app for cell in first}:
            answers = {cell.system: row.get("answer")
                       for cell, row in first.items() if cell.app == app}
            want = oracle.get(app, answers["LS"])
            if any(row.get("status") != "ok" for cell, row in first.items()
                   if cell.app == app) or set(answers.values()) != {want}:
                for cell in first:
                    if cell.app == app:
                        reasons[cell] = (f"{app}: answers {answers}, "
                                         f"oracle {oracle.get(app)}")

    failures = []
    for index, runs in enumerate(passes):
        for run in runs:
            if run.cell in reasons:
                failures.append(f"pass {index} {run.cell}: "
                                f"{reasons[run.cell]}")
            elif run.row != first[run.cell]:
                # Modeled accounting must not depend on which pass it is.
                failures.append(f"pass {index} {run.cell}: row differs "
                                "from pass 0")
    return failures
