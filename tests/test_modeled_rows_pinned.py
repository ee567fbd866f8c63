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

Regenerate it only together with a deliberate change to the model (one
that also regenerates ``cells.json``).
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
PINNED_FIELDS = ("status", "answer", "seconds", "mrss_gb", "counters")


def event_digest(events) -> str:
    """sha256 of an event stream minus its wall-clock-only stamps."""
    charged = [OpEvent(**{**e.as_dict(), "fused": False,
                          "bytes_not_materialized": 0, "shards": 0,
                          "threads": 0}) for e in events]
    return hashlib.sha256(repr(charged).encode()).hexdigest()


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
