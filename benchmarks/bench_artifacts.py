"""Wall-clock benchmarks for the mmap-backed graph artifact store.

Like ``bench_wallclock.py`` this is a plain script measuring real
execution time (not modeled numbers): run

    PYTHONPATH=src python benchmarks/bench_artifacts.py

and it writes ``BENCH_artifacts.json`` at the repo root.  What is
measured:

* ``cold_vs_warm`` — a dataset's first build (generate + shard + fsync +
  publish) vs every later build (manifest read + ``np.load(mmap_mode)``)
  through the real dataset resolution path.  The warm path must be at
  least 5x faster (2x under ``--quick``) — that ratio is the entire
  reason the store exists.
* ``sharded_spmv`` — SpMV over a multi-shard :class:`BlockedCSR` vs the
  monolithic kernel on the same matrix, bit-identical results asserted.
  Shard iteration must cost at most 1.3x the monolithic sweep (the
  per-shard dispatch overhead is bounded, not free).
* ``streaming_rss`` — the O(shard) working-memory claim, measured: a
  subprocess streams shard-wise SpMV over an mmap'd multi-shard artifact
  with ``release=True`` (each shard munmap'd after use) and reports its
  ``ru_maxrss`` growth; a twin subprocess materializes the monolithic
  CSR first.  The streaming peak must stay below half the materialized
  peak *and* within a small multiple of one shard's bytes.

``--quick`` shrinks the graph and repeat counts for the CI perf-smoke
job.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_artifacts.json"

REPEATS = 3


def best_of(fn, repeats=None):
    """Best-of-N wall time in milliseconds (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(REPEATS if repeats is None else repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def bench_cold_vs_warm(root: pathlib.Path, quick: bool) -> dict:
    """First build (generate+publish) vs later builds (mmap) of uk07."""
    from repro.graphs import artifacts, datasets

    name = "road-USA-W" if quick else "uk07"
    ds = datasets.get_dataset(name)
    store_dir = root / "cold-warm"
    os.environ["REPRO_ARTIFACT_DIR"] = str(store_dir)

    def build_both():
        datasets.clear_cache()
        ds.build()
        ds.build_symmetric()
        datasets.clear_cache()

    # Cold: empty store, the build generates, shards, fsyncs, publishes.
    t0 = time.perf_counter()
    build_both()
    cold_ms = (time.perf_counter() - t0) * 1e3
    assert artifacts.store_from_env().has(name, "dir")

    # Warm: every later process-equivalent build is a pure mmap load.
    warm_ms = best_of(build_both)
    generations = datasets.generation_count()
    build_both()
    assert datasets.generation_count() == generations, \
        "warm build ran a generator"
    del os.environ["REPRO_ARTIFACT_DIR"]
    return {
        "graph": name,
        "cold_generate_publish_ms": round(cold_ms, 1),
        "warm_mmap_load_ms": round(warm_ms, 1),
        "speedup": round(cold_ms / warm_ms, 1),
    }


def bench_sharded_spmv(quick: bool) -> dict:
    """Shard-wise SpMV vs monolithic on the same rmat matrix."""
    from repro.graphs.generators import rmat
    from repro.sparse.blocked import BlockedCSR
    from repro.sparse.csr import build_csr
    from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
    from repro.sparse.spmv import spmv_pull

    scale = 13 if quick else 16
    n, src, dst = rmat(scale)
    csr = build_csr(n, n, src, dst, None)
    blocked = BlockedCSR.from_csr(csr, shard_rows=max(n // 16, 1))
    x = np.random.default_rng(7).random(n)
    add, mult = MONOID_FNS["plus"], BINARY_FNS["times"]

    y0, t0, f0 = spmv_pull(csr, x, add, mult)
    y1, t1, f1 = spmv_pull(blocked, x, add, mult)
    assert y0.tobytes() == y1.tobytes() and f0 == f1
    assert np.array_equal(t0, t1)

    mono_ms = best_of(lambda: spmv_pull(csr, x, add, mult))
    sharded_ms = best_of(lambda: spmv_pull(blocked, x, add, mult))
    return {
        "graph": f"rmat{scale}",
        "nedges": int(csr.nvals),
        "nshards": blocked.nshards,
        "monolithic_ms": round(mono_ms, 3),
        "sharded_ms": round(sharded_ms, 3),
        "slowdown": round(sharded_ms / mono_ms, 3),
    }


_RSS_CHILD = r"""
import json, resource, sys
import numpy as np
from repro.graphs.artifacts import ArtifactStore
from repro.sparse.blocked import spmv_pull
from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
from repro.sparse.spmv import spmv_pull as spmv_pull_mono


def peak_rss_kb():
    # VmHWM, not ru_maxrss: the fork that spawned this child briefly
    # shares the (large) parent's pages, which pollutes ru_maxrss with
    # the parent's footprint.  VmHWM can be *reset* (below), so the
    # measurement starts clean after imports and the artifact load.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reset_peak_rss():
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5\n")
    except OSError:
        pass


root, mode, shard_rows = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ArtifactStore(root, shard_rows=shard_rows)
B, weights = store.load("bench", "dir")
x = np.ones(B.ncols)
reset_peak_rss()
base_kb = peak_rss_kb()
if mode == "stream":
    # O(shard): each shard is mmap'd, swept, and munmap'd.
    y, touched, flops = spmv_pull(B, x, MONOID_FNS["plus"],
                                  BINARY_FNS["times"], release=True)
else:
    # Materialize the monolith (fresh concatenated arrays + every
    # mmap page faulted), then the same sweep.
    M = B.to_csr()
    y, touched, flops = spmv_pull_mono(M, x, MONOID_FNS["plus"],
                                       BINARY_FNS["times"])
peak_kb = peak_rss_kb()
print(json.dumps({"delta_kb": peak_kb - base_kb,
                  "checksum": float(y.sum()), "flops": int(flops)}))
"""


def bench_streaming_rss(root: pathlib.Path, quick: bool) -> dict:
    """Measured O(shard) working memory of the streaming sweep."""
    from repro.graphs.generators import rmat
    from repro.sparse.blocked import shard_bounds
    from repro.sparse.csr import CSRMatrix, build_csr
    from repro.graphs.artifacts import ArtifactStore

    scale = 14 if quick else 16
    shard_rows = max((1 << scale) // 16, 1)
    n, src, dst = rmat(scale)
    pattern = build_csr(n, n, src, dst, None)
    values = np.random.default_rng(11).random(pattern.nvals)
    csr = CSRMatrix(n, n, pattern.indptr, pattern.indices, values)
    store_dir = root / "rss"
    store = ArtifactStore(store_dir, shard_rows=shard_rows)
    store.publish("bench", "dir", csr, spec="bench")

    manifest = store.read_manifest("bench", "dir")
    shard_bytes = max(
        sum(row["bytes"] for row in shard["files"].values())
        for shard in manifest["shards"])

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def child(mode):
        out = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD, str(store_dir), mode,
             str(shard_rows)],
            capture_output=True, text=True, env=env, check=True)
        return json.loads(out.stdout)

    stream = child("stream")
    mono = child("materialize")
    assert stream["checksum"] == mono["checksum"]
    assert stream["flops"] == mono["flops"]
    return {
        "graph": f"rmat{scale}",
        "nshards": len(manifest["shards"]),
        "shard_bytes": int(shard_bytes),
        "total_payload_bytes": int(sum(
            row["bytes"] for shard in manifest["shards"]
            for row in shard["files"].values())),
        "streaming_delta_kb": int(stream["delta_kb"]),
        "materialized_delta_kb": int(mono["delta_kb"]),
        "ratio": round(stream["delta_kb"] / max(mono["delta_kb"], 1), 3),
    }


def main(argv=None):
    global REPEATS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller graphs / fewer repeats for the CI "
                             "perf-smoke job (cold/warm floor 2x, not 5x)")
    args = parser.parse_args(argv)
    if args.quick:
        REPEATS = 2
    # The bench controls its own store; ambient knobs must not leak in.
    os.environ.pop("REPRO_ARTIFACT_DIR", None)
    os.environ.pop("REPRO_SHARD_ROWS", None)
    warm_floor = 2.0 if args.quick else 5.0

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-artifacts-"))
    t0 = time.perf_counter()
    try:
        report = {
            "quick": bool(args.quick),
            "numpy": np.__version__,
            "cold_vs_warm": bench_cold_vs_warm(tmp, args.quick),
            "sharded_spmv": bench_sharded_spmv(args.quick),
            "streaming_rss": bench_streaming_rss(tmp, args.quick),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report["total_bench_seconds"] = round(time.perf_counter() - t0, 1)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[written to {OUT_PATH}]")

    speedup = report["cold_vs_warm"]["speedup"]
    assert speedup >= warm_floor, \
        f"warm mmap load only {speedup}x faster than cold " \
        f"generate+publish (floor {warm_floor}x)"
    slowdown = report["sharded_spmv"]["slowdown"]
    assert slowdown <= 1.3, \
        f"sharded SpMV {slowdown}x slower than monolithic (cap 1.3x)"
    rss = report["streaming_rss"]
    # O(shard), measured: the streaming sweep's RSS growth must stay
    # within a small multiple of one shard plus fixed slack (the y/x
    # vectors and numpy temporaries), far below the materialized path.
    bound_kb = 4 * rss["shard_bytes"] / 1024 + 8192
    assert rss["streaming_delta_kb"] <= bound_kb, \
        f"streaming RSS {rss['streaming_delta_kb']}kB exceeds the " \
        f"O(shard) bound {bound_kb:.0f}kB"
    assert rss["streaming_delta_kb"] * 2 <= rss["materialized_delta_kb"], \
        f"streaming RSS {rss['streaming_delta_kb']}kB not below half " \
        f"the materialized peak {rss['materialized_delta_kb']}kB"


if __name__ == "__main__":
    main()
