"""The LAGraph hot loops on the one operator implementation.

These tests used to run every driver twice — through the fused pipeline's
transcribed stages and through ``operations.py`` — and compare.  The
transcription is gone, so the comparand is now history: the result
vector, modeled counters and op-event stream of each driver on a small
seeded digraph must equal what commit 7cc1e29 produced (identically on
both of its code paths), recorded in ``tests/data/driver_digests.json`` as
``{"<app>/<system>": {values, dtype, present: sha256 of the backing
arrays; counters; events: tests.test_modeled_rows_pinned.event_digest}}``.
``tests/test_modeled_rows_pinned.py`` pins the same properties on a study
graph; ``tests/test_operation_semantics.py`` checks each operation against
the spec.  (The test ids are kept from the two-path era.)

The ``pr_topo/*`` keys pin ``pagerank_gb`` — the driver the registry
dispatches for GB — the same way, recorded at commit 654a80c (the parent of
the structure-shared transpose) with this module's ``_run_driver`` and::

    {"counters": backend.machine.counters.as_dict(),
     "dtype": vec._values.dtype.str,
     "events": event_digest(backend.machine.context.events),
     "present": _sha(vec._present), "values": _sha(vec._values)}
"""

import hashlib
import json
import pathlib

import pytest

import repro.graphblas as gb
from repro.galoisblas import GaloisBLASBackend
from repro.graphblas import pipeline
from repro.lagraph import bfs, delta_stepping, pagerank_gb, pagerank_gb_res
from repro.perf.machine import Machine
from repro.sparse import plancache
from repro.suitesparse import SuiteSparseBackend

from tests.conftest import pattern_matrix, random_digraph, weighted_matrix
from tests.test_modeled_rows_pinned import event_digest

BACKENDS = {"SS": SuiteSparseBackend, "GB": GaloisBLASBackend}
RECORDED = json.loads((pathlib.Path(__file__).parent / "data"
                       / "driver_digests.json").read_text())


def _run_driver(backend_cls, app):
    """One driver run on the seeded digraph: (result vector, backend)."""
    csr, _sym = random_digraph(n=120, m=700, seed=9)
    backend = backend_cls(Machine())
    A = pattern_matrix(backend, csr)
    Aw = weighted_matrix(backend, csr)
    if app == "pr":
        vec = pagerank_gb_res(backend, A, iters=6)
    elif app == "pr_topo":
        vec = pagerank_gb(backend, A, iters=6)
    elif app == "bfs":
        vec = bfs(backend, A, 0)
    else:
        vec = delta_stepping(backend, Aw, 0, delta=16)
    return vec, backend


def _sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("system", sorted(BACKENDS))
@pytest.mark.parametrize("app", ["pr", "pr_topo", "bfs", "sssp"])
class TestFusedEquivalence:
    def test_results_bit_identical(self, system, app):
        vec, _backend = _run_driver(BACKENDS[system], app)
        recorded = RECORDED[f"{app}/{system}"]
        assert vec._values.dtype.str == recorded["dtype"]
        assert _sha(vec._values) == recorded["values"]
        assert _sha(vec._present) == recorded["present"]

    def test_modeled_counters_identical(self, system, app):
        _vec, backend = _run_driver(BACKENDS[system], app)
        assert (backend.machine.counters.as_dict()
                == RECORDED[f"{app}/{system}"]["counters"])

    def test_event_streams_identical_modulo_fused_stamp(self, system, app):
        _vec, backend = _run_driver(BACKENDS[system], app)
        assert (event_digest(backend.machine.context.events)
                == RECORDED[f"{app}/{system}"]["events"])


@pytest.mark.parametrize("app", ["pr", "bfs", "sssp"])
def test_drivers_actually_fuse(app):
    """The hot loops take the no-merge exit (the wall-clock property).

    pr and sssp chain stamped operations within a round.  bfs cannot: its
    round is one in-place masked assign and one REPLACE+COMP vxm, and the
    latter goes through the general merge by design.
    """
    pipeline.reset_fusion_stats()
    _run_driver(GaloisBLASBackend, app)
    stats = pipeline.fusion_stats()
    assert stats["fused_ops"] > stats["chains"]
    assert stats["bytes_not_materialized"] > 0
    assert (stats["chains"] > 0) == (app != "bfs")


def test_second_instance_derives_no_transpose_plan():
    """The transpose plan lives with the dataset's structure, not the run.

    A second ``SystemInstance`` on the same dataset wraps fresh matrices
    around the cached CSR and must find its plan (wall-clock), while the
    model still charges one CSC rebuild per round (``transpose_build``).
    """
    from repro.core.systems import SystemInstance
    from repro.graphs.datasets import get_dataset

    dataset = get_dataset("road-USA-W")
    previous = plancache.set_enabled(True)
    try:
        answers = []
        for _ in range(2):
            plancache.reset_stats()
            instance = SystemInstance("GB", dataset)
            answers.append(instance.run("pr"))
            events = instance.machine.context.events
            rounds = sum(e.kind == "round" for e in events)
            assert rounds == 10
            assert sum(e.kind == "transpose_build" for e in events) == rounds
        assert plancache.plan_cache_stats()["transpose"]["misses"] == 0
        assert plancache.plan_cache_stats()["transpose"]["hits"] == rounds
        assert answers[0] == answers[1]
    finally:
        plancache.set_enabled(previous)
        plancache.reset_stats()
