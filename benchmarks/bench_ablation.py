"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the knobs the paper discusses:

1. **Loop fusion** (§VII future work): how much of the Lonestar advantage
   would a restructuring compiler recover by fusing GraphBLAS calls?
2. **Huge pages** (§IV): the Galois runtime reserves them; SuiteSparse ran
   better without.
3. **Afforest neighbor rounds** (§V-B cc): the sampling depth trade-off of
   the fine-grained algorithm the matrix API cannot express.
4. **Edge tiling** (§V-B sssp): covered as the `ls-notile` variant in
   Figure 3d; asserted here at a second delta for robustness.

The first two write a file, so they run in :mod:`repro.core.results`.
"""

import numpy as np
import pytest

from repro.core.results import ablation_fusion, ablation_huge_pages
from repro.galois.graph import Graph
from repro.graphs.datasets import get_dataset
from repro.lonestar import afforest, delta_stepping
from repro.perf.machine import Machine
from repro.runtime.galois_rt import GaloisRuntime
from repro.sparse.csr import CSRMatrix


def _pattern(csr):
    return CSRMatrix(csr.nrows, csr.ncols, csr.indptr, csr.indices, None)


def _machine_for(ds):
    return Machine(byte_scale=ds.scale, time_scale=ds.scale)


def test_ablation_fusion(benchmark):
    """GB vs GB+fusion vs LS on round-dominated bfs (road network)."""
    _text, times = benchmark.pedantic(ablation_fusion, rounds=1,
                                      iterations=1)
    # Fusion helps, but Lonestar stays ahead: rounds remain.
    assert times["gb-fused"] < times["gb"]
    assert times["ls"] <= times["gb-fused"] * 1.2


def test_ablation_huge_pages(benchmark):
    """Galois's huge pages: measurable but secondary (bfs on a big graph)."""
    _text, times = benchmark.pedantic(ablation_huge_pages, rounds=1,
                                      iterations=1)
    assert times["huge pages"] < times["4k pages"]
    assert times["4k pages"] / times["huge pages"] < 1.4  # secondary effect


@pytest.mark.parametrize("rounds", [0, 1, 2, 4])
def test_ablation_afforest_neighbor_rounds(benchmark, rounds):
    """Sampling depth of Afforest: 2 neighbor rounds is the sweet spot
    the Afforest paper picked; 0 degenerates toward full SV work."""
    ds = get_dataset("twitter40")
    sym, _ = ds.build_symmetric()

    def run():
        machine = _machine_for(ds)
        graph = Graph(GaloisRuntime(machine), _pattern(sym))
        machine.reset_measurement()
        labels = afforest(graph, neighbor_rounds=rounds)
        return machine.simulated_seconds(), len(np.unique(labels))

    sec, n_comp = benchmark.pedantic(run, rounds=1, iterations=1)
    # Correct at every sampling depth.
    baseline_machine = _machine_for(ds)
    baseline = afforest(Graph(GaloisRuntime(baseline_machine),
                              _pattern(sym)))
    assert n_comp == len(np.unique(baseline))


def test_ablation_edge_tiling_second_delta(benchmark):
    """Tiling keeps helping at a non-default delta (robustness of Fig 3d)."""
    ds = get_dataset("twitter40")
    csr, weights = ds.build()
    source = ds.source_vertex()

    def run_both():
        out = {}
        for name, tiled in (("tiled", True), ("untiled", False)):
            machine = _machine_for(ds)
            graph = Graph(GaloisRuntime(machine), csr,
                          weights.astype(np.int64))
            machine.reset_measurement()
            delta_stepping(graph, source, delta=1 << 10, tiled=tiled)
            out[name] = machine.simulated_seconds()
        return out

    times = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert times["tiled"] <= times["untiled"]
