"""Running one experiment cell and caching the results.

A *cell* is one (system, application, graph) triple — one highlighted entry
of Table II.  :func:`run_cell` reproduces the paper's methodology:

* fresh machine per run, configured from the dataset's scale;
* graph loading and preprocessing excluded from time but included in MRSS;
* 56 threads, 2 h (simulated) timeout, DRAM capacity modeled → cells end in
  a time, ``TO`` or ``OOM`` exactly like the paper's Table II;
* hardware counters snapshotted for Tables IV/V;
* per-loop cost records retained so Figure 2 can re-evaluate the same run
  at any thread count without re-executing.

On top of the paper's two failure annotations the harness adds a third,
``ERR``: any *unexpected* exception (a harness bug, an injected fault from
:mod:`repro.faults`, a blown wall-clock watchdog) is captured per cell —
with the exception type and a traceback summary — instead of aborting the
surrounding grid run.  Transient injected faults are retried under a
bounded backoff policy and the attempt count is recorded.

Results are memoized in-process and optionally persisted as versioned JSON
(written atomically) so the table/figure/benchmark layers can share one
grid run; a :class:`repro.core.checkpoint.CellJournal` can additionally be
attached so every fresh cell is checkpointed the moment it completes.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro import errors, faults
from repro.core.systems import APPLICATIONS, TIMEOUT_SECONDS, make_system
from repro.graphs.datasets import DATASETS, get_dataset
from repro.perf.costmodel import THREAD_POINTS

#: Status codes matching Table II's annotations, plus the harness's ERR
#: and the governor's CANCELLED (cooperative deadline cancellation — the
#: cell exited cleanly at an OpEvent boundary with a partial trace).
OK = "ok"
TIMEOUT = "TO"
OOM = "OOM"
ERR = "ERR"
CANCELLED = "CANCELLED"

STATUSES = (OK, TIMEOUT, OOM, ERR, CANCELLED)

#: Table column order — the paper's Table I graph order.
GRAPH_ORDER = (
    "road-USA-W", "road-USA", "rmat22", "indochina04", "eukarya",
    "rmat26", "twitter40", "friendster", "uk07",
)

#: Version of the persisted cells snapshot (``cells.json``).
SCHEMA_VERSION = 2

#: Default retry policy for cells failing with transient injected faults
#: (overridable via the ``REPRO_CELL_RETRIES`` knob; see
#: :func:`repro.faults.retry_policy_from_env`).
DEFAULT_RETRY = faults.RetryPolicy()


@dataclass
class CellResult:
    """Outcome of one (system, app, graph) run."""

    system: str
    app: str
    graph: str
    status: str
    #: Paper-scale simulated seconds at 56 threads (None for TO/OOM/ERR).
    seconds: Optional[float]
    #: Paper-scale MRSS in GB (defined even for TO/OOM, like the paper).
    mrss_gb: float
    #: Hardware-counter snapshot (instructions, l1..dram, loops, rounds...).
    counters: Dict[str, float]
    #: App-specific answer summary for cross-system checking.
    answer: Optional[object]
    #: Simulated seconds at each Figure 2 thread count.
    thread_sweep: Dict[int, float] = field(default_factory=dict)
    #: Wall-clock seconds this cell took to simulate (diagnostics only;
    #: nondeterministic, so excluded from persisted rows).
    wall_seconds: float = 0.0
    #: Attempts used (> 1 when transient faults were retried).
    attempts: int = 1
    #: For ERR cells: exception type, message and traceback summary.
    error: Optional[Dict[str, str]] = None

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.system, self.app, self.graph)

    def display(self) -> str:
        """Table II cell text: seconds, or the failure annotation."""
        return f"{self.seconds:.2f}" if self.status == OK else self.status


_MEMO: Dict[Tuple[str, str, str], CellResult] = {}

#: When set (see :func:`set_journal`), every freshly computed cell is
#: appended here the moment it completes — the checkpoint for --resume.
_JOURNAL = None


def set_journal(journal) -> None:
    """Attach (or with ``None`` detach) a per-cell checkpoint journal.

    ``journal`` is anything with an ``append(CellResult)`` method, normally
    a :class:`repro.core.checkpoint.CellJournal`.
    """
    global _JOURNAL
    _JOURNAL = journal


def get_journal():
    """The attached checkpoint journal, if any."""
    return _JOURNAL


def _default_wall_budget() -> Optional[float]:
    raw = os.environ.get("REPRO_CELL_WALL_BUDGET", "").strip()
    return float(raw) if raw else None


def _error_info(exc: BaseException) -> Dict[str, str]:
    """Compact, JSON-able record of an exception for an ERR cell."""
    frames = traceback.extract_tb(exc.__traceback__)
    summary = " > ".join(
        f"{os.path.basename(f.filename)}:{f.lineno}:{f.name}"
        for f in frames[-3:])
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": summary,
    }


def run_cell(system: str, app: str, graph: str,
             timeout: Optional[float] = TIMEOUT_SECONDS,
             sweep_threads: bool = False,
             use_cache: bool = True,
             wall_budget: Optional[float] = None,
             retry: Optional[faults.RetryPolicy] = None) -> CellResult:
    """Run (or recall) one experiment cell.

    Never raises for a *cell-local* failure: the paper's modeled failures
    land in ``TO``/``OOM`` and anything unexpected lands in ``ERR`` (with
    ``result.error`` describing the exception).  Only
    :class:`repro.faults.FatalFault` — the simulated process kill — and
    errors raised before a machine exists (e.g. an unknown name) escape.

    ``wall_budget`` caps the *real* seconds one attempt may take (default:
    the ``REPRO_CELL_WALL_BUDGET`` env knob, unset = no watchdog); a blown
    budget becomes ``ERR`` with ``error.type == "WallClockExceeded"``.
    ``retry`` bounds re-attempts after transient injected faults.
    """
    key = (system, app, graph)
    if use_cache and key in _MEMO:
        cached = _MEMO[key]
        if not sweep_threads or cached.thread_sweep or cached.status != OK:
            return cached

    if wall_budget is None:
        wall_budget = _default_wall_budget()
    policy = retry if retry is not None else \
        faults.retry_policy_from_env(default=DEFAULT_RETRY)

    dataset = get_dataset(graph)
    t0 = time.time()
    attempt = 0
    while True:
        attempt += 1
        status, answer, error, machine = _attempt_cell(
            system, app, dataset, timeout, wall_budget)
        transient = error is not None and error.pop("transient", False)
        if transient and attempt < policy.max_attempts:
            policy.wait(attempt)
            continue
        break
    wall = time.time() - t0

    if isinstance(answer, (np.integer,)):
        answer = int(answer)
    elif isinstance(answer, (np.floating,)):
        answer = float(answer)

    seconds = machine.simulated_seconds() if status == OK else None
    sweep = {}
    if sweep_threads and status == OK:
        for p in THREAD_POINTS:
            sweep[p] = machine.simulated_seconds(p)
    result = CellResult(
        system=system,
        app=app,
        graph=graph,
        status=status,
        seconds=seconds,
        mrss_gb=machine.mrss_bytes() * dataset.scale / 2**30,
        counters=machine.counters.as_dict(),
        answer=answer,
        thread_sweep=sweep,
        wall_seconds=wall,
        attempts=attempt,
        error=error,
    )
    if use_cache:
        _MEMO[key] = result
    if _JOURNAL is not None:
        _JOURNAL.append(result)
    return result


def _attempt_cell(system, app, dataset, timeout, wall_budget):
    """One attempt on a fresh machine: (status, answer, error, machine)."""
    instance = make_system(system).instantiate(dataset, timeout=timeout)
    if wall_budget is not None:
        instance.machine.wall_deadline = time.monotonic() + wall_budget
    try:
        return OK, instance.run(app), None, instance.machine
    except errors.TimeoutError:
        return TIMEOUT, None, None, instance.machine
    except errors.OutOfMemoryError:
        return OOM, None, None, instance.machine
    except faults.TransientFault as exc:
        info = _error_info(exc)
        info["transient"] = True
        return ERR, None, info, instance.machine
    except errors.Cancelled as exc:
        # Cooperative deadline cancellation: the machine carries the
        # partial trace (events + counters up to the last boundary).
        return CANCELLED, None, _error_info(exc), instance.machine
    except Exception as exc:  # ReproError and harness bugs alike -> ERR
        return ERR, None, _error_info(exc), instance.machine


def clear_cache() -> None:
    """Forget all memoized cells."""
    _MEMO.clear()


def all_results() -> Dict[Tuple[str, str, str], CellResult]:
    """A snapshot copy of the memoized grid."""
    return dict(_MEMO)


def seed_results(results: Iterable[CellResult]) -> int:
    """Pre-populate the memo (e.g. from a checkpoint journal on resume)."""
    n = 0
    for result in results:
        _MEMO[result.key] = result
        n += 1
    return n


def status_counts(results: Optional[Iterable[CellResult]] = None
                  ) -> Dict[str, int]:
    """``{status: count}`` over ``results`` (default: the whole memo)."""
    counts = {status: 0 for status in STATUSES}
    for result in (_MEMO.values() if results is None else results):
        counts[result.status] = counts.get(result.status, 0) + 1
    return counts


def validate_selection(graphs: Optional[Sequence[str]] = None,
                       apps: Optional[Sequence[str]] = None,
                       known_graphs: Optional[Sequence[str]] = None) -> None:
    """Reject unknown graph/app names up front, listing the known ones.

    ``known_graphs`` defaults to every registered dataset (so user-supplied
    graphs pass); pass :data:`GRAPH_ORDER` to pin to the paper grid.
    """
    known = tuple(known_graphs) if known_graphs is not None \
        else tuple(sorted(DATASETS))
    bad = [g for g in (graphs or ()) if g not in known]
    if bad:
        raise errors.InvalidValue(
            f"unknown graph(s) {bad}; known graphs: {list(known)}")
    bad = [a for a in (apps or ()) if a not in APPLICATIONS]
    if bad:
        raise errors.InvalidValue(
            f"unknown application(s) {bad}; "
            f"known applications: {list(APPLICATIONS)}")


# ----------------------------------------------------------------------
# Persistence (versioned snapshot, atomic replace)
# ----------------------------------------------------------------------

def cell_to_row(result: CellResult) -> dict:
    """JSON-able row for one cell.

    ``wall_seconds`` is dropped: it is real elapsed time, so keeping it
    would make otherwise-identical runs produce different snapshots (the
    resume machinery promises byte-identical ``cells.json``).
    """
    row = asdict(result)
    row.pop("wall_seconds", None)
    return row


_CELL_FIELDS = {f.name for f in fields(CellResult)}


def cell_from_row(row: dict) -> CellResult:
    """Rebuild a :class:`CellResult` from a persisted row, validating keys."""
    unknown = set(row) - _CELL_FIELDS
    if unknown:
        raise errors.InvalidValue(
            f"cell row has unknown field(s) {sorted(unknown)}; "
            "was it written by a newer schema?")
    row = dict(row)
    row["thread_sweep"] = {int(k): v
                           for k, v in (row.get("thread_sweep") or {}).items()}
    return CellResult(**row)


def save_results(path: str) -> None:
    """Persist all memoized cells as versioned JSON, atomically.

    Rows are sorted by (system, app, graph) so the snapshot is independent
    of run order — an interrupted-and-resumed grid writes the same bytes as
    an uninterrupted one.  The write goes to ``path + ".tmp"`` and is moved
    into place with :func:`os.replace`, so a crash mid-write never corrupts
    an existing snapshot.
    """
    rows = [cell_to_row(r) for r in
            sorted(_MEMO.values(), key=lambda r: r.key)]
    payload = {"schema": SCHEMA_VERSION, "cells": rows}
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True, default=_jsonify)
    os.replace(tmp, path)


def _jsonify(obj):
    """numpy scalars leak into counters; store them as plain numbers."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def load_results(path: str) -> int:
    """Load previously saved cells into the memo; returns the count.

    Accepts the current versioned format plus the legacy unversioned list;
    anything else raises :class:`~repro.errors.InvalidValue` naming the
    schema found.
    """
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        payload = json.load(f)
    if isinstance(payload, list):
        rows = payload  # legacy (pre-schema) snapshot
    elif isinstance(payload, dict):
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise errors.InvalidValue(
                f"unsupported cells.json schema {schema!r} in {path}; "
                f"this build reads schema {SCHEMA_VERSION} "
                "(or the legacy unversioned list)")
        rows = payload.get("cells", [])
    else:
        raise errors.InvalidValue(
            f"{path} does not look like a cells snapshot "
            f"(top-level {type(payload).__name__})")
    for row in rows:
        result = cell_from_row(row)
        _MEMO[result.key] = result
    return len(rows)
