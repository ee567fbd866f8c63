#!/usr/bin/env python
"""Generate EXPERIMENTS.md from a completed cell grid.

Usage::

    repro-study all --out benchmarks/results  # populates benchmarks/results/
    python scripts/make_experiments_md.py     # writes EXPERIMENTS.md

Loads the saved cells (re-running any missing ones) and writes the
paper-vs-measured record for every table and figure.
"""

import pathlib
import sys

from repro.core import report
from repro.core.experiments import load_results
from repro.core.figures import figure3
from repro.core.tables import table1, table4, table5

ROOT = pathlib.Path(__file__).resolve().parent.parent
CELLS = ROOT / "benchmarks" / "results" / "cells.json"

HEADER = """\
# EXPERIMENTS — paper vs measured

Auto-generated by `scripts/make_experiments_md.py` from a full grid run
(`repro-study all --out benchmarks/results`, which writes every raw
artifact in `benchmarks/results/`).

Reading guide: this reproduction runs both software stacks on ~1/1000-scale
synthetic twins of the paper's inputs, with execution time coming from a
deterministic machine model (DESIGN.md §3).  Absolute seconds are therefore
*modeled paper-scale seconds*, not wall clock: the fidelity measure is the
**shape** — which system wins each cell, by roughly what factor, and where
the TO/OOM failures land.

## Headline claims (paper §I / §V)

{headlines}

Notes on the two compressed headline ratios:

* *sssp asynchrony (>100x on roads, >300x on eukarya in the paper)* —
  measured ~40-50x on roads and ~10x on eukarya.  The gap scales with the
  number of bulk-synchronous rounds: the road twins carry ~1/2 the paper's
  diameter and the eukarya twin at 3.2k vertices can occupy at most ~1.4k
  delta buckets where the 3.2M-vertex original occupies tens of thousands.
  The *mechanism* (one full set of matrix-API calls per relaxation wave vs
  a scheduler hop) is reproduced exactly; only its multiplier shrinks with
  the input.
* *ktruss* — same effect: removal cascades are ~1/5 as deep at twin scale,
  so the matrix API's recompute-everything-per-round penalty is ~5x instead
  of ~40x, and two cells the paper reports as TO complete under 2 h here.

## Table II: execution time, cell by cell

Measured / published value per system, then the measured (published)
system-ratio per graph.  `C` marks the paper's correctness-bug annotation
(this reproduction's cc is correct, so a number is reported instead).

{table2}

## Failure annotations (TO / OOM / C)

The paper's 13 failing cells and what this reproduction observed:

{failures}

All OOMs land on the same (tc, ktruss) x (biggest webs/socials) corner, with
uk07 tc/ktruss matching exactly.  Cells the paper timed out that finish here
(rmat26/friendster ktruss) finish at 5-60x the Lonestar time — the same
story, shallower cascades (see note above).  Paper-C cells run correctly
here and agree with Lonestar's answer.

## Table I: input-graph twins

{table1}

Published (V, E, diameter): see `repro.core.paper.PAPER_TABLE1`.  The twins
match on the structural axes the analysis depends on: the road twins keep
thousands-deep diameters, rmat/twitter/friendster keep power-law hubs,
indochina/uk07 keep web-crawl clustering (triangle density), eukarya keeps
multiple components plus the wide-range weights that force 64-bit distances
and delta = 2^20.

## Table IV / Table V: counter ratios

{table4}

{table5}

Shape check against §V-A/§V-B: GB executes more instructions and more
memory accesses than LS for every problem (largest for cc, where Afforest's
sampling skips most edges, and tc, where the matrix API materializes L, U
and C); gb-res/ls-soa > 1 on instructions (the residual is iterated twice
per round); gb/ls-sv > 1 on instructions (bounded vs unbounded pointer
jumping).

## Wall-clock cost of lightweight loops and rounds (`rounds-road`)

The ratios above are *modeled*.  The same two limitations — (1) one
lightweight loop nest, barrier and API call per GraphBLAS operation and
(4) round-based execution — also have a *measured* cost in this repo's own
wall clock, because the numpy simulation pays per call what the real
machine pays per loop launch.  perfbench's `rounds-road` workload runs
bfs + sssp on road-USA-W on all three stacks: SS and GB each make 20 149
GraphBLAS calls in 6 590 rounds (26 739 recorded events; 60 447 and 40 298
charged loops), LS runs 6 635 loops in 3 149 rounds (9 784 events).

| road-USA-W, bfs + sssp | modeled (Table II) | measured, before ISSUE 20 | measured, after |
|---|---|---|---|
| GB / LS | 13.5x (10.50 s / 0.78 s) | `gb_s / ls_s` 2.99 (2.83–3.23) | **2.33** (2.24–2.42) |
| SS / LS | 18.0x (14.06 s / 0.78 s) | `ss_s / ls_s` 3.49 (3.33–3.90) | **2.73** (2.56–3.02) |

Measured columns: median (quartiles) of the per-run ratio over ten
alternating parent/change pairs of `python3 perfbench/run.py --workload
rounds-road`, seeds 1–10, on a shared 2-core Intel Xeon 2.10 GHz VM
(Python 3.11.7, numpy 2.4.6); parent = commit `8117d91`, change = the
commit that carries ISSUE 20 in CHANGES.md.  Medians and quartiles of the
underlying seconds, parent → change: `gb_s` 2.75 (2.52–3.48) → 1.61
(1.47–1.94), `ss_s` 3.17 (2.78–3.90) → 1.92 (1.72–2.44), `ls_s` 0.85
(0.80–1.15) → 0.71 (0.64–0.81), `pass_s` 6.92 (6.05–8.32) → 4.24
(3.80–5.06); the change won `pass_s`, `gb_s` and `ss_s` on 10 of 10 pairs.

How to read it.  Before ISSUE 20 about a fifth of the measured gap was
this repo's own accounting (three `OpEvent` builds, ~5 presence-bitmap
scans and an uninlined cost-model evaluation per GraphBLAS call), which
the matrix stacks pay per *operation* and Lonestar per *loop*; with that
bookkeeping at 2.5 µs per event and 1.7–5.7 µs per charged loop
(docs/MODEL.md "The per-event bookkeeping budget") the residual 2.3x /
2.7x is what the API shape itself costs here: 3.0x as many calls into the
operator layer as Lonestar has loops, each a full numpy dispatch over a
1–3-vertex frontier plus O(n) dense mask/merge passes, twice as many
rounds, and (SS) a third charged loop per call for the materialized
result.  It is far below the modeled 13–18x because a Python call costs
microseconds where the modeled 56-core machine pays a 140–180 µs loop
launch and a barrier — the wall clock measures the *count* of lightweight
loops and rounds, the model prices them.  What remains on the repo's side
(ROADMAP item 1): no small-frontier dispatch in `repro.sparse`, and the
O(n) passes per `_matvec`.

## Figure 2: strong scaling

See `benchmarks/results/figure2.txt`.  Both systems scale near-linearly to
56 threads with a persistent LS advantage at every thread count — the
paper's reading of the figure.

## Figure 3: variant speedups over gb

{figure3}

Shape check, panel by panel (paper §V-B):

* **pr** — ls > ls-soa > gb-res > gb on nearly every graph (fusion, then
  AoS data layout, then the residual-vector rewrite).
* **tc** — ls fastest everywhere; gb-sort alone does not beat gb reliably
  (the algorithm ignores the order); gb-ll recovers most of the sorting
  benefit but stays behind ls (it still materializes C).
* **cc** — ls (Afforest) fastest everywhere; ls-sv beats gb on the
  high-diameter road graphs and loses on the low-diameter power-law ones.
* **sssp** — ls and ls-notile are 40-50x faster than gb on roads; tiling
  separates from ls-notile on the skewed social graphs (twitter40).

## Ablations and extensions (beyond the paper's figures)

`benchmarks/bench_ablation.py` and `benchmarks/bench_extension_bc.py`
write their artifacts next to the tables:

* **loop fusion** (`ablation_fusion.txt`) — a hypothetical fusing compiler
  (the paper's §VII future work) recovers about half of the Lonestar
  advantage on round-dominated bfs; the remaining gap is the rounds
  themselves (limitation iv), exactly the paper's argument that compilers
  address only limitations i-ii.
* **huge pages** (`ablation_huge_pages.txt`) — measurable but secondary,
  consistent with §IV treating it as a configuration detail.
* **Afforest sampling depth** — correctness holds at every
  ``neighbor_rounds``; 2 is the work sweet spot, as in the Afforest paper.
* **betweenness centrality** (`extension_bc_*.txt`) — the paper's §I
  motivating application as a seventh problem: the graph API wins clearly
  on high-diameter inputs (per-level API calls) and reaches parity on
  low-diameter power-law inputs where both stacks are bound by the same
  gathers.
* **k-core** (`extension_kcore_*.txt`) — an eighth problem: bulk peeling
  re-materializes the surviving submatrix every round where the worklist
  version decrements degrees in place, transferring the ktruss limitation
  pair (materialization + rounds) to a new workload.

## Interrupted and resumed runs

The full grid takes minutes at twin scale (and would take days at paper
scale), so every grid runs as jobs on a durable queue that records each
cell as it settles, and a killed run can pick up where it left off:

* **Queue** — `repro-study all --out DIR` submits the grid's cells to
  `DIR/queue.db` (or `--queue PATH`), a SQLite database in
  WAL mode, and drains it (`repro.service.run_grid`; in-process at the
  default `--workers 1`).  A process kill loses at most the cell in
  flight, whose lease stays behind; a power loss may also drop the last
  few commits, which then simply run again.  A run without `--resume`
  deletes any old queue file first.  The snapshot `cells.json` is
  written atomically (temp file + `os.replace`) and is versioned;
  loaders reject unknown schemas instead of mis-parsing them.
* **Resume** — `repro-study all --out DIR --resume` (and
  `repro-study <target> --queue PATH --resume`) drains the same queue
  again: settled cells are recalled from their stored rows ("N cells
  recalled"), the leased one is reclaimed, and only the missing cells
  run.  Because the machine model is deterministic and wall-clock
  timings are excluded from persistence, a resumed run writes a
  `cells.json` byte-identical to an uninterrupted one
  (`tests/test_checkpoint.py` asserts this by killing a run mid-grid with
  an injected fatal fault).  A file that is not a job queue exits 2.
* **Per-cell failure** — a cell that raises unexpectedly is recorded with
  status `ERR` (exception type + condensed traceback) and rendered like
  `TO`/`OOM`; one broken cell no longer aborts the study.  A per-attempt
  wall-clock budget (`REPRO_CELL_WALL_BUDGET` seconds, distinct from the
  simulated 2 h budget) is a cooperative cancellation token nested in any
  job deadline: whichever expires first stops the cell at its next
  OpEvent boundary, and it lands `CANCELLED` with its partial trace.
* **Fault injection** — `repro.faults` deterministically injects failures
  for drills, in one spec language:
  `REPRO_FAULTS="site:kind[@SYSTEM:app:graph][:transient][:nth=N][:times=N][:attempt=N][:rate=P]"`.
  At the kernel/allocator boundaries (sites `kernel`/`alloc`/`*`) the
  kinds are `fault`/`oom`/`timeout`/`fatal` plus the acting
  `memhog`/`slow`; at the `cell` site a pool worker SIGKILLs itself
  (`kill`) or hangs (`hang`) as the named cell's attempt starts (an
  in-process drain never does).  `rate=P` fires a matching spec with
  probability `P` from one stateless hash draw seeded by
  `REPRO_FAULTS_SEED`, keyed on the cell at the `cell` site (so worker
  count and dispatch order do not matter) and on the trip count
  elsewhere.
  Transient faults are retried with bounded backoff, 3 attempts in total
  (the attempt count is recorded on the cell); injected OOM/timeout keep
  the paper's annotation vocabulary.  CI runs a small grid under injected
  transient faults plus a kill-and-resume drill on every push.

## Supervised parallel runs

`repro-study <target> --workers N` drains the target's job queue (a
temporary SQLite file unless `--queue PATH`, or `DIR/queue.db` under
`all --out DIR`) on a supervised pool of N
spawn-started worker processes instead of in-process
(`repro.service.run_grid`).  The supervisor heartbeats every worker,
SIGKILLs and respawns dead or hung ones (blown per-cell deadline,
heartbeat silence), and requeues the in-flight cell after the queue's
retry backoff; a cell whose workers keep dying is dead-lettered after
`REPRO_JOB_MAX_ATTEMPTS` leases and committed as `ERR` with
`error.type == "DeadLetter"`.  Per-system circuit breakers defer the
cells of a repeatedly failing system until a half-open probe on that
same system succeeds; a cell always runs on the system it names, so a
system that keeps failing dead-letters its own cells and every Table II
number is the named system's.  Workers finish in any order and
`cells.json` is sorted by key, so a parallel, fault-ridden run writes a
`cells.json` byte-identical to a sequential clean run's, and
`--workers` composes with `--queue`/`--resume` and every fault knob
below (`tests/test_service.py` drills SIGKILLs, hangs, poison cells,
and open breakers).  Each worker inherits `REPRO_KERNEL_THREADS`, so a
pool of N workers may run N x that many kernel threads.

## Environment knobs

Every `REPRO_*` variable the harness reads, in one place.  All are parsed
and validated before the run starts (a malformed value fails immediately
with `InvalidValue`); a lint-style test (`tests/test_env_knobs_doc.py`)
asserts this table covers every `REPRO_` environment lookup in `src/`,
carries no stale rows, and that a test, bench or CI step sets each knob.
Settings nothing varies are constants instead: the 30 s heartbeat
timeout, the 5 s cancel grace and the 30 s drain grace live in
`repro.service.config`, the 30 s job-backoff ceiling and the 120 s
lease length are `QueueConfig` fields, a job has a deadline only when
its submitter passes `deadline_ms`, and the artifact store is on exactly
when `REPRO_ARTIFACT_DIR` is set.

| Knob | Default | Meaning |
|------|---------|---------|
| `REPRO_FAULTS` | unset | Semicolon-separated fault specs `site:kind[@SYSTEM:app:graph][:transient][:nth=N][:times=N][:attempt=N][:rate=P]`: faults at the `kernel`/`alloc` boundaries, and worker `kill`/`hang` at the `cell` site (the chaos drills; every attempt when `attempt=N` is omitted, every cell without a selector). |
| `REPRO_FAULTS_SEED` | `0` | Seed of every `rate=` draw. |
| `REPRO_CELL_WALL_BUDGET` | unset | Real seconds per cell attempt, enforced by cooperative cancellation nested in any job deadline; a blown budget lands the cell `CANCELLED` with its partial trace. |
| `REPRO_SERVICE_HEARTBEAT` | `0.25` | Seconds between worker heartbeats under `--workers N`. |
| `REPRO_CELL_DEADLINE` | `600` | Wall-clock seconds one cell may occupy a worker before it is killed and the cell requeued. |
| `REPRO_BREAKER_THRESHOLD` | `5` | Consecutive per-system crash/`ERR` outcomes that open its circuit breaker (`0` disables breakers). |
| `REPRO_BREAKER_COOLDOWN` | `8` | Dispatch decisions an open breaker waits before letting one half-open probe through. |
| `REPRO_PLAN_CACHE` | `1` | `0` disables per-matrix kernel-plan memoization (segreduce dispatch, join merge/densify choice, pull loop weights); every call re-derives its plan.  A pure wall-clock optimization — results and modeled counters are unchanged. |
| `REPRO_JOB_MAX_ATTEMPTS` | `3` | Leases a queued job may burn (worker/supervisor deaths included) before it is dead-lettered instead of retried; also the crash budget of a `--workers` grid cell, which dead-letters as `ERR`/`DeadLetter`. |
| `REPRO_JOB_BACKOFF` | `0.25` | First-retry backoff seconds for a requeued job, crashed `--workers` grid cells included; doubles per attempt with deterministic jitter. |
| `REPRO_JOB_DEFER` | `1` | Seconds a breaker-deferred job waits before it becomes dispatchable again. |
| `REPRO_TENANT_MAX_ACTIVE` | `0` | Per-tenant cap on open (queued + leased) jobs; submissions over the cap are rejected with `AdmissionDenied` (HTTP 429). `0` = unlimited. |
| `REPRO_WORKER_MEM_BUDGET` | `0` | Per-worker RSS budget in MB; a worker whose heartbeat reports more is killed, the job gets one sharded retry (halved `REPRO_SHARD_ROWS`), then is quarantined as `OOM`. `0` = no budget. |
| `REPRO_QUEUE_HIGH_WATER` | `0` | Queue-depth watermark for load shedding: past this many open (queued + leased) jobs, `POST /jobs` answers 503 + `Retry-After` for new work (idempotent resubmits still answer). `0` = never shed on depth. |
| `REPRO_ALLOW_UNKNOWN_KNOBS` | unset | `1` downgrades the unknown-`REPRO_*`-knob startup error to a stderr warning (the escape hatch for forward/backward compatibility). |
| `REPRO_BENCH_GRAPHS` | `all` | Comma-separated dataset subset for the pytest benchmarks (`benchmarks/`), or `all`. |
| `REPRO_BENCH_APPS` | `all` | Comma-separated application subset for the pytest benchmarks, or `all`. |
| `REPRO_ARTIFACT_DIR` | unset | Directory of the mmap-backed graph artifact store (see `repro-graphs`).  When set, datasets publish on first build and every later process mmaps the same immutable shard files instead of regenerating. |
| `REPRO_SHARD_ROWS` | `65536` | Rows per shard of the blocked CSR layout used by the artifact store and `BlockedCSR.from_csr`.  The default keeps every study graph single-shard; smaller values bound per-shard working memory for out-of-core sweeps. |
| `REPRO_KERNEL_THREADS` | `1` | Threads each blocked kernel fans its shard tasks across (`repro.sparse.parallel`).  Partials merge in fixed shard order, so values, counters, and event streams are byte-identical at every width; `1` = the sequential shard loop. |
"""


def main():
    if CELLS.exists():
        n = load_results(str(CELLS))
        print(f"loaded {n} cells from {CELLS}", file=sys.stderr)
    content = HEADER.format(
        headlines=report.headline_md(),
        table2=report.table2_comparison_md(),
        failures=report.failure_annotation_md(),
        table1="```\n" + str(table1()) + "\n```",
        table4="```\n" + str(table4()) + "\n```",
        table5="```\n" + str(table5()) + "\n```",
        figure3="```\n" + figure3().text + "\n```",
    )
    out = ROOT / "EXPERIMENTS.md"
    out.write_text(content)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
