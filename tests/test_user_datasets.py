"""User-supplied datasets registered from graph files."""

import numpy as np
import pytest

from repro.core.experiments import run_cell
from repro.errors import InvalidValue
from repro.graphs.datasets import (
    get_dataset,
    register_file_dataset,
    unregister_dataset,
)
from repro.graphs.io import write_edge_list, write_matrix_market
from repro.sparse.csr import build_csr


@pytest.fixture
def graph_file(tmp_path):
    rng = np.random.default_rng(4)
    n, m = 200, 1200
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    csr = build_csr(n, n, src[keep], dst[keep], None, dedup="last")
    path = str(tmp_path / "user.el")
    write_edge_list(path, csr)
    yield path, csr
    unregister_dataset("user-graph")


class TestRegisterFileDataset:
    def test_register_and_build(self, graph_file):
        path, csr = graph_file
        ds = register_file_dataset("user-graph", path)
        built, weights = ds.build()
        assert built.nvals == csr.nvals
        assert weights is not None  # random weights attached
        assert ds.scale == pytest.approx(1.0)

    def test_runs_through_the_harness(self, graph_file):
        path, _ = graph_file
        register_file_dataset("user-graph", path)
        answers = {s: run_cell(s, "bfs", "user-graph", use_cache=False).answer
                   for s in ("SS", "GB", "LS")}
        assert len(set(answers.values())) == 1

    def test_paper_e_sets_scale(self, graph_file):
        path, csr = graph_file
        ds = register_file_dataset("user-graph", path,
                                   paper_e=1000 * csr.nvals)
        assert ds.scale == pytest.approx(1000.0)

    @pytest.mark.parametrize("paper_e", [0, -100, float("nan"),
                                         float("inf")])
    def test_paper_e_must_be_positive_and_finite(self, graph_file, paper_e):
        path, _ = graph_file
        with pytest.raises(InvalidValue):
            register_file_dataset("user-graph", path, paper_e=paper_e)
        with pytest.raises(InvalidValue):
            get_dataset("user-graph")  # nothing was registered

    def test_mtx_input(self, tmp_path, graph_file):
        _, csr = graph_file
        path = str(tmp_path / "user.mtx")
        write_matrix_market(path, csr)
        ds = register_file_dataset("user-mtx", path)
        try:
            built, _ = ds.build()
            assert built.nvals == csr.nvals
        finally:
            unregister_dataset("user-mtx")

    def test_builtin_protected(self):
        with pytest.raises(InvalidValue):
            unregister_dataset("rmat22")

    def test_lookup_after_register(self, graph_file):
        path, _ = graph_file
        register_file_dataset("user-graph", path)
        assert get_dataset("user-graph").kind == "user graph"
