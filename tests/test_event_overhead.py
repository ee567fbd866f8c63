"""Per-event bookkeeping, guarded by deterministic counts (no timing).

The cost model's accounting runs once per GraphBLAS call, thousands of
times on a round-heavy cell, so three things must stay true of it:

* an :class:`~repro.engine.events.OpEvent` is built once per recorded
  event (the context stamps it in place instead of copying it),
* a GraphBLAS operation scans a presence bitmap for its count at most
  twice (a :class:`~repro.graphblas.Vector` knows its ``nvals``), and
* nothing on the path calls ``dataclasses.replace``.

``scripts/event_overhead.py`` prints the matching micro-timings; they
wander with the host, these counts do not.  The last test checks the
cached ``nvals`` itself: it must equal a fresh count after any sequence of
mutators and operations.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
from repro.engine import GRAPHBLAS_KINDS, OpEvent
from repro.graphblas.descriptor import Descriptor
from repro.lagraph import bfs, delta_stepping
from repro.perf.machine import Machine
from repro.sparse.csr import build_csr

from tests.test_operation_semantics import (
    BACKENDS,
    OPERATIONS,
    cases,
    make_matrix,
    make_vector,
)

N = 64
WEIGHTS = np.arange(1, N, dtype=np.int64) % 7 + 1


def _path_matrix(backend, weighted):
    """The directed path 0 -> 1 -> ... -> 63: one vertex per round."""
    src = np.arange(N - 1)
    csr = build_csr(N, N, src, src + 1, WEIGHTS if weighted else None)
    return gb.Matrix.from_csr(backend, gb.INT64 if weighted else gb.BOOL, csr)


def _run(app, backend):
    if app == "bfs":
        levels = bfs(backend, _path_matrix(backend, False), 0)
        assert levels.dense_values().tolist() == list(range(1, N + 1))
    else:
        dist = delta_stepping(backend, _path_matrix(backend, True), 0,
                              delta=4)
        assert (dist.dense_values().tolist()
                == [0] + np.cumsum(WEIGHTS).tolist())


@pytest.fixture
def calls(monkeypatch):
    """Counts of the three bookkeeping calls made while the test runs."""
    counts = {"OpEvent": 0, "count_nonzero": 0, "replace": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(OpEvent, "__new__",
                        counting("OpEvent", OpEvent.__new__))
    monkeypatch.setattr(np, "count_nonzero",
                        counting("count_nonzero", np.count_nonzero))
    monkeypatch.setattr(dataclasses, "replace",
                        counting("replace", dataclasses.replace))
    return counts


@pytest.mark.parametrize("system", sorted(BACKENDS))
@pytest.mark.parametrize("app", ["bfs", "sssp"])
def test_bookkeeping_calls_per_event(app, system, calls):
    backend = BACKENDS[system](Machine())
    _run(app, backend)
    events = backend.machine.context.events
    operations = sum(e.kind in GRAPHBLAS_KINDS for e in events)
    assert operations >= 2 * (N - 1)  # the path really takes N rounds
    assert calls["OpEvent"] == len(events)
    assert calls["count_nonzero"] <= 2 * operations
    assert calls["replace"] == 0


def test_no_dataclass_replace_on_the_event_path():
    import repro.engine.context
    import repro.engine.events
    import repro.galoisblas.fused
    import repro.graphblas.backend

    for module in (repro.engine.context, repro.engine.events,
                   repro.graphblas.backend, repro.galoisblas.fused):
        assert not hasattr(module, "replace"), module.__name__


# ----------------------------------------------------------------------
# The cached count is the real count
# ----------------------------------------------------------------------

MUTATORS = ["set_element", "remove_element", "clear", "densify", "build",
            "dup"]


@st.composite
def programs(draw):
    case = draw(cases())
    steps = draw(st.lists(
        st.tuples(st.sampled_from(MUTATORS + sorted(OPERATIONS)),
                  st.sampled_from("wuv"),
                  st.integers(0, case["n"] - 1)),
        min_size=1, max_size=8))
    return case, steps


@pytest.mark.parametrize("system", sorted(BACKENDS))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_nvals_matches_presence_after_any_sequence(system, program):
    case, steps = program
    backend = BACKENDS[system](Machine())
    vectors = {name: make_vector(backend, case[name]) for name in "wuv"}
    mask = (None if case["mask_kind"] == "none"
            else make_vector(backend, case["mask"]))
    if case["alias"] in ("u", "v"):
        vectors[case["alias"]] = vectors["w"]
    elif case["alias"] == "mask" and mask is not None:
        mask = vectors["w"]
    A = make_matrix(backend, case["rows"])
    kw = {"mask": mask, "desc": Descriptor(
        mask_comp=case["comp"], replace=case["replace"],
        mask_structure=case["mask_kind"] == "structural")}
    if case["accum"]:
        kw["accum"] = gb.binary(case["accum"])

    involved = list(vectors.values()) + [mask]
    for step, target, index in steps:
        vec = vectors[target]
        if step == "set_element":
            vec.set_element(index, case["scalar"])
        elif step == "remove_element":
            vec.remove_element(index)
        elif step in ("clear", "densify"):
            getattr(vec, step)()
        elif step == "build":
            vec.build(case["indices"], case["scalar"])
        elif step == "dup":
            involved.append(vec.dup())
        else:
            OPERATIONS[step][0](vectors["w"], vectors["u"], vectors["v"], A,
                                kw, case)
        for x in involved:
            if x is not None:
                assert x.nvals == int(np.count_nonzero(x._present)), step
