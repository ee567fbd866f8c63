"""Regenerate Table III: maximum resident set size per cell."""

import pytest

from repro.core.experiments import run_cell

from benchmarks.conftest import bench_graphs, render


def test_table3_render(benchmark):
    render(benchmark, "table3")


def test_table3_prealloc_effect(benchmark):
    """Galois preallocation: GB/LS MRSS above SS's on the smallest graph."""
    graphs = bench_graphs()
    small = graphs[0]

    def collect():
        return {s: run_cell(s, "bfs", small).mrss_gb
                for s in ("SS", "GB", "LS")}

    mrss = benchmark.pedantic(collect, rounds=1, iterations=1)
    assert mrss["GB"] > mrss["SS"]
    assert mrss["LS"] > mrss["SS"]


def test_table3_ss_grows_on_big_graphs(benchmark):
    """SuiteSparse's on-demand slack overtakes preallocation at scale."""
    from repro.graphs.datasets import LARGEST_FOUR

    graphs = [g for g in bench_graphs() if g in LARGEST_FOUR]
    if not graphs:
        pytest.skip("no large graph in the benchmark subset")
    big = graphs[-1]

    def collect():
        return (run_cell("SS", "bfs", big).mrss_gb,
                run_cell("GB", "bfs", big).mrss_gb)

    ss, gbm = benchmark.pedantic(collect, rounds=1, iterations=1)
    assert ss > gbm * 0.8  # slack-inflated SS approaches/exceeds GB
