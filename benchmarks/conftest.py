"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one table or figure of the paper through
the renderers of :data:`repro.core.results.RESULTS` and asserts on what they
return; nothing is written (``repro-study all --out benchmarks/results``
writes ``results/``).  The cell grid is shared across the whole benchmark
session through the experiment memo.

Environment knobs:

* ``REPRO_BENCH_GRAPHS`` — comma-separated dataset names, or ``all``
  (default: all nine paper graphs);
* ``REPRO_BENCH_APPS`` — comma-separated application subset (default: all).
"""

import os

import pytest

from repro.core.experiments import validate_selection
from repro.core.results import RESULTS
from repro.core.systems import APPLICATIONS
from repro.core.tables import GRAPH_ORDER
from repro.errors import InvalidValue


def bench_graphs():
    raw = os.environ.get("REPRO_BENCH_GRAPHS", "all")
    if raw == "all":
        return list(GRAPH_ORDER)
    return [g.strip() for g in raw.split(",") if g.strip()]


def bench_apps():
    raw = os.environ.get("REPRO_BENCH_APPS", "all")
    if raw == "all":
        return list(APPLICATIONS)
    return [a.strip() for a in raw.split(",") if a.strip()]


def pytest_sessionstart(session):
    """Reject bad REPRO_BENCH_GRAPHS/APPS entries before any bench runs.

    A typo'd name used to surface an hour into the session as an
    InvalidValue/KeyError deep inside one bench module; fail at startup
    instead, listing the known names.
    """
    try:
        validate_selection(graphs=bench_graphs(), apps=bench_apps(),
                           known_graphs=GRAPH_ORDER)
    except InvalidValue as exc:
        raise pytest.UsageError(
            f"bad REPRO_BENCH_GRAPHS/REPRO_BENCH_APPS setting: {exc}")


def render(benchmark, name: str):
    """Time one registered file's renderer once on the benchmark subset."""
    return benchmark.pedantic(RESULTS[name].render,
                              args=(bench_graphs(), bench_apps()),
                              rounds=1, iterations=1)
