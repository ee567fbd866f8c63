"""Checkpoint journal: crash-safe, resumable experiment-grid runs.

A full grid run is hours of work whose unit of progress is one independent
:class:`~repro.core.experiments.CellResult`.  This module checkpoints each
cell the moment it completes by appending one JSON line to a *journal*
(``journal.jsonl``), fsync'd so a killed run loses at most the in-flight
cell.  On restart, :func:`resume` replays the journal into the experiment
memo and re-attaches the journal, so already-finished cells are skipped and
new ones keep being checkpointed — ``run_full_study.py --resume`` and
``repro-study --resume`` are thin wrappers over this.

Journal format (one record per line, append-only)::

    {"schema": 1, "cell": {"system": "GB", "app": "bfs", ...}}

The last line of a journal from a killed run may be torn (the process died
mid-write); :meth:`CellJournal.load` tolerates exactly that — a corrupt
*interior* line is real corruption and raises.  Within one journal the last
record for a key wins, so re-running a cell (e.g. to add a thread sweep)
simply supersedes the earlier record.  Lines are in completion order — a
worker pool lands cells in whatever order they finish — and nothing reads
that order: replay is by key.

The journal is the write-ahead log; the human-facing snapshot
(``cells.json``) is still written by
:func:`repro.core.experiments.save_results`, atomically and in sorted
order, so an interrupted-and-resumed grid produces a byte-identical
``cells.json`` to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

from repro import errors
from repro.core import experiments

#: Version of the journal line format.
JOURNAL_SCHEMA = 1


class CellJournal:
    """Append-only JSONL checkpoint of completed experiment cells."""

    def __init__(self, path):
        self.path = str(path)

    def __repr__(self):
        return f"CellJournal({self.path!r})"

    def append(self, result: experiments.CellResult) -> None:
        """Durably append one completed cell (flush + fsync)."""
        record = {"schema": JOURNAL_SCHEMA,
                  "cell": experiments.cell_to_row(result)}
        line = json.dumps(record, sort_keys=True,
                          default=experiments._jsonify)
        with open(self.path, "a") as f:
            f.write(line + "\n")
            f.flush()
            os.fsync(f.fileno())

    def load(self) -> Dict[Tuple[str, str, str], experiments.CellResult]:
        """All journaled cells, last record per key winning.

        A torn *final* line (the run was killed mid-append) is silently
        dropped; corruption anywhere else raises
        :class:`~repro.errors.InvalidValue`.
        """
        cells: Dict[Tuple[str, str, str], experiments.CellResult] = {}
        if not os.path.exists(self.path):
            return cells
        with open(self.path) as f:
            lines = f.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    break  # torn tail from a killed writer
                raise errors.InvalidValue(
                    f"corrupt journal line {lineno} in {self.path}") from None
            if not isinstance(record, dict) or "cell" not in record:
                raise errors.InvalidValue(
                    f"journal line {lineno} in {self.path} is not a cell "
                    "record")
            schema = record.get("schema")
            if schema != JOURNAL_SCHEMA:
                raise errors.InvalidValue(
                    f"unsupported journal schema {schema!r} at line "
                    f"{lineno} in {self.path}; this build reads schema "
                    f"{JOURNAL_SCHEMA}")
            result = experiments.cell_from_row(record["cell"])
            cells[result.key] = result
        return cells

    def discard(self) -> None:
        """Delete the journal file (start-of-run reset when not resuming)."""
        if os.path.exists(self.path):
            os.remove(self.path)


def attach(path, fresh: bool = False) -> CellJournal:
    """Start journaling every fresh cell to ``path``.

    ``fresh=True`` discards any existing journal first — use it when
    starting a run from scratch so stale cells cannot leak into a later
    ``--resume``.
    """
    journal = CellJournal(path)
    if fresh:
        journal.discard()
    experiments.set_journal(journal)
    return journal


def resume(path) -> int:
    """Resume from a journal: seed the memo and keep journaling to it.

    Returns the number of cells recovered; each of them will be served from
    the memo instead of re-running.
    """
    journal = CellJournal(path)
    recovered = experiments.seed_results(journal.load().values())
    experiments.set_journal(journal)
    return recovered


def atomic_write_json(path, payload, **json_kwargs) -> None:
    """Write JSON via ``path + ".tmp"`` and :func:`os.replace`."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, default=experiments._jsonify, **json_kwargs)
    os.replace(tmp, str(path))
