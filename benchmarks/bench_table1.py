"""Regenerate Table I: input graphs and their properties."""

from benchmarks.conftest import bench_graphs, render


def test_table1(benchmark):
    rendered = render(benchmark, "table1")
    assert len(rendered.data) == len(bench_graphs())
