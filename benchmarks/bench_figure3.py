"""Regenerate Figure 3: speedups of the §V-B variants over gb."""

import pytest

from repro.core.variants import run_problem_variants

from benchmarks.conftest import bench_graphs, render


def test_figure3_render(benchmark):
    render(benchmark, "figure3")


@pytest.mark.parametrize("problem", ["pr", "cc", "sssp", "tc"])
def test_figure3_panel(benchmark, problem):
    """Each panel's headline ordering on a representative graph."""
    graphs = bench_graphs()
    graph = "road-USA-W" if problem in ("cc", "sssp") else (
        "rmat22" if "rmat22" in graphs else graphs[0])
    if graph not in graphs:
        graph = graphs[0]

    results = benchmark.pedantic(run_problem_variants, args=(problem, graph),
                                 rounds=1, iterations=1)
    ok = {v: r for v, r in results.items() if r.status == "ok"}
    assert "gb" in ok and "ls" in ok
    # The Lonestar variant beats the matrix baseline in every panel.
    assert ok["ls"].seconds <= ok["gb"].seconds
