"""Regenerate Figure 2: strong scaling of GB and LS, 1 to 56 threads."""

from repro.core.figures import figure2, figure2_panel

from benchmarks.conftest import bench_apps, bench_graphs, render


def test_figure2_render(benchmark):
    render(benchmark, "figure2")


def test_figure2_shapes(benchmark):
    """Both systems scale with threads; the LS advantage persists at every
    thread count (the paper's reading of Figure 2)."""
    graphs = figure2_panel(bench_graphs(), bench_apps())[1][:1]

    def collect():
        return figure2(apps=["bfs", "pr"], graphs=graphs).series

    series = benchmark.pedantic(collect, rounds=1, iterations=1)
    for (app, g, system), sweep in series.items():
        assert sweep[1] > sweep[56], f"{app}/{g}/{system} did not scale"
    for app in ("bfs", "pr"):
        for g in graphs:
            if (app, g, "GB") in series and (app, g, "LS") in series:
                for p in (1, 8, 56):
                    assert (series[(app, g, "LS")][p]
                            <= series[(app, g, "GB")][p] * 1.6)
