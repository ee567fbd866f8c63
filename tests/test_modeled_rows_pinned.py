"""The modeled rows and event streams of one graph, pinned against history.

``benchmarks/results/cells.json`` is the repo's product; nothing in Tier-1
used to notice a change to it.  For {SS, GB} x {bfs, cc, pr, sssp} on
``road-USA-W`` (thousands of rounds, so every per-call path is exercised
thousands of times) this checks that

* ``experiments.run_cell`` still produces the checked-in row, and
* the cell's op-event stream, with the wall-clock-only fields zeroed,
  still hashes to the digest recorded at commit 7cc1e29 — the last commit
  that carried a second operator implementation to compare against.

``tests/data/road_usa_w_event_digests.json`` was written there by::

    import json
    from repro.engine.analysis import run_traced
    from tests.test_modeled_rows_pinned import CELLS, event_digest
    digests = {f"{system}/{app}":
               event_digest(run_traced(system, app, "road-USA-W").events)
               for system, app in CELLS}
    with open("tests/data/road_usa_w_event_digests.json", "w") as out:
        json.dump(digests, out, indent=1, sort_keys=True)

The Lonestar stack is pinned the same way, for LS x {bfs, cc, pr, sssp} on
``road-USA-W`` and LS x {cc, sssp} on ``eukarya`` (the grid's heaviest
Lonestar cells).  ``tests/data/ls_event_digests.json`` was written from a
checkout of commit 0581f34, before Afforest's union-find moved onto Python
lists and OBIM's bucket keys into a heap, by::

    import json
    from repro.engine.analysis import run_traced
    from tests.test_modeled_rows_pinned import LS_CELLS, event_digest
    digests = {f"LS/{app}/{graph}":
               event_digest(run_traced("LS", app, graph).events)
               for graph, app in LS_CELLS}
    with open("tests/data/ls_event_digests.json", "w") as out:
        json.dump(digests, out, indent=1, sort_keys=True)

The matrix stacks' triangle cells are pinned the same way, for {SS, GB}
x {tc, ktruss} on ``rmat22`` and ``friendster`` (the grid's heaviest
join cells).  ``tests/data/triangle_event_digests.json`` was written from
a checkout of commit 367abdf, before tc's SpGEMM listed each triangle
once and the join engine's position table replaced its merge search, by::

    import json
    from repro.engine.analysis import run_traced
    from tests.test_modeled_rows_pinned import TRIANGLE_CELLS, event_digest
    digests = {f"{system}/{app}/{graph}":
               event_digest(run_traced(system, app, graph).events)
               for system, app, graph in TRIANGLE_CELLS}
    with open("tests/data/triangle_event_digests.json", "w") as out:
        json.dump(digests, out, indent=1, sort_keys=True)

Regenerate any of these files only together with a deliberate change to
the model (one that also regenerates ``cells.json``).
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import experiments
from repro.engine import OpEvent
from repro.engine.analysis import run_traced

ROOT = pathlib.Path(__file__).resolve().parent.parent
GRAPH = "road-USA-W"
CELLS = [(system, app) for system in ("SS", "GB")
         for app in ("bfs", "cc", "pr", "sssp")]
LS_CELLS = [(GRAPH, app) for app in ("bfs", "cc", "pr", "sssp")] + \
    [("eukarya", app) for app in ("cc", "sssp")]
TRIANGLE_CELLS = [(system, app, graph) for graph in ("rmat22", "friendster")
                  for system in ("SS", "GB") for app in ("ktruss", "tc")]
PINNED_FIELDS = ("status", "answer", "seconds", "mrss_gb", "counters")


#: The fields a charge handler reads, in the order the digest formats them.
CHARGED_FIELDS = ("kind", "label", "items", "flops", "bytes_materialized",
                  "loops", "round_id", "barrier", "mode", "masked", "gather",
                  "method", "in_nvals", "out_nvals", "mask_bytes")

#: The wall-clock-only stamps, written as the constants every recorded
#: digest was taken with.
UNCHARGED_SUFFIX = "fused=False, bytes_not_materialized=0, shards=0, threads=0"


def event_digest(events) -> str:
    """sha256 of an event stream's charged fields.

    The hashed text is exactly ``repr(list_of_OpEvents)`` with the
    wall-clock-only stamps zeroed, as it read when the digests were
    recorded, but it is built from :data:`CHARGED_FIELDS` rather than from
    the class: adding or dropping an ``OpEvent`` field leaves it alone.
    """
    text = "[" + ", ".join(
        "OpEvent(" + ", ".join(f"{name}={getattr(e, name)!r}"
                               for name in CHARGED_FIELDS)
        + ", " + UNCHARGED_SUFFIX + ")"
        for e in events) + "]"
    return hashlib.sha256(text.encode()).hexdigest()


def _load(relative):
    return json.loads((ROOT / relative).read_text())


@pytest.fixture(scope="module")
def checked_in_rows():
    rows = _load("benchmarks/results/cells.json")["cells"]
    return {(r["system"], r["app"]): r for r in rows if r["graph"] == GRAPH}


@pytest.mark.parametrize("system,app", CELLS)
def test_row_matches_cells_json(system, app, checked_in_rows):
    row = experiments.cell_to_row(
        experiments.run_cell(system, app, GRAPH, use_cache=False))
    pinned = checked_in_rows[(system, app)]
    assert ({k: row[k] for k in PINNED_FIELDS}
            == {k: pinned[k] for k in PINNED_FIELDS})


@pytest.mark.parametrize("system,app", CELLS)
def test_event_stream_matches_recorded_digest(system, app):
    recorded = _load("tests/data/road_usa_w_event_digests.json")
    cell = run_traced(system, app, GRAPH)
    assert event_digest(cell.events) == recorded[f"{system}/{app}"]


@pytest.fixture(scope="module")
def checked_in_ls_rows():
    rows = _load("benchmarks/results/cells.json")["cells"]
    return {(r["graph"], r["app"]): r for r in rows if r["system"] == "LS"}


@pytest.mark.parametrize("graph,app", LS_CELLS)
def test_ls_row_matches_cells_json(graph, app, checked_in_ls_rows):
    row = experiments.cell_to_row(
        experiments.run_cell("LS", app, graph, use_cache=False))
    pinned = checked_in_ls_rows[(graph, app)]
    assert ({k: row[k] for k in PINNED_FIELDS}
            == {k: pinned[k] for k in PINNED_FIELDS})


@pytest.mark.parametrize("graph,app", LS_CELLS)
def test_ls_event_stream_matches_recorded_digest(graph, app):
    recorded = _load("tests/data/ls_event_digests.json")
    cell = run_traced("LS", app, graph)
    assert event_digest(cell.events) == recorded[f"LS/{app}/{graph}"]


@pytest.fixture(scope="module")
def checked_in_triangle_rows():
    rows = _load("benchmarks/results/cells.json")["cells"]
    return {(r["system"], r["app"], r["graph"]): r for r in rows}


@pytest.mark.parametrize("system,app,graph", TRIANGLE_CELLS)
def test_triangle_row_matches_cells_json(system, app, graph,
                                         checked_in_triangle_rows):
    row = experiments.cell_to_row(
        experiments.run_cell(system, app, graph, use_cache=False))
    pinned = checked_in_triangle_rows[(system, app, graph)]
    assert ({k: row[k] for k in PINNED_FIELDS}
            == {k: pinned[k] for k in PINNED_FIELDS})


@pytest.mark.parametrize("system,app,graph", TRIANGLE_CELLS)
def test_triangle_event_stream_matches_recorded_digest(system, app, graph):
    recorded = _load("tests/data/triangle_event_digests.json")
    cell = run_traced(system, app, graph)
    assert event_digest(cell.events) == recorded[f"{system}/{app}/{graph}"]


def test_digest_input_equals_the_class_repr():
    # The formula the digests were recorded with: the class's own repr,
    # wall-clock-only stamps zeroed.  Both must hash the same text.
    events = run_traced("GB", "bfs", GRAPH).events
    zeroed = [OpEvent(**{**e.as_dict(), "fused": False,
                         "bytes_not_materialized": 0, "shards": 0,
                         "threads": 0}) for e in events]
    assert events
    assert event_digest(events) == \
        hashlib.sha256(repr(zeroed).encode()).hexdigest()
