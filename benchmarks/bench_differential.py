"""Regenerate the trace-derived differential-analysis table (§V-B).

Unlike the other tables (which read the *modeled* counters off the
machine), this one re-derives loop counts, materialized bytes, bulk items
and rounds from the op-event trace the execution engine records, and
cross-checks the two on every contributing (system, app, graph) cell.
A "MISMATCH" verdict in the rendered table is a protocol bug.
"""

from repro.engine.analysis import crosscheck, run_traced

from benchmarks.conftest import bench_apps, bench_graphs, render


def test_differential_render(benchmark):
    rendered = render(benchmark, "differential")
    assert "MISMATCH" not in rendered


def test_differential_crosscheck_all_systems(benchmark):
    """The trace/counter invariant holds on SS too (the table only needs
    GB and LS, but the protocol applies to every emitter)."""
    graphs = bench_graphs()
    small = graphs[0]

    def collect():
        return [crosscheck(run_traced(s, a, small))
                for s in ("SS", "GB", "LS") for a in bench_apps()]

    problems = benchmark.pedantic(collect, rounds=1, iterations=1)
    assert all(p == [] for p in problems)
