"""The graph artifact store: publish/load identity, corruption, CLI.

The load-bearing guarantees:

* **byte identity** — a dataset resolved through the store (any shard
  geometry) is indistinguishable from a fresh in-memory generation, down
  to modeled cell rows;
* **build-once, load-many** — a warm store satisfies every later build
  with zero generator runs, through read-only mmap;
* **corruption is survivable** — a truncated or bit-flipped artifact is
  discarded and rebuilt (datasets) or reported (``repro-graphs verify``),
  never crashed on or silently trusted.
"""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.core import experiments
from repro.core.experiments import OK
from repro.graphs import artifacts, datasets
from repro.graphs.artifacts import (
    ArtifactCorrupt,
    ArtifactMiss,
    ArtifactStore,
)
from repro.graphs.cli import main as graphs_cli
from repro.sparse.csr import build_csr

GRAPH = "road-USA-W"


def small_csr(seed=0, n=300, m=9):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, n * m)
    dst = rng.integers(0, n, n * m)
    return build_csr(n, n, src, dst, None, dedup="last")


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store", shard_rows=128)


@pytest.fixture
def env_store(tmp_path, monkeypatch):
    """A store wired into the environment, dataset cache isolated."""
    root = tmp_path / "store"
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(root))
    monkeypatch.delenv("REPRO_SHARD_ROWS", raising=False)
    datasets.clear_cache()
    yield root
    datasets.clear_cache()


class TestStoreRoundtrip:
    def test_publish_load_byte_identical(self, store):
        csr = small_csr(1)
        weights = np.random.default_rng(2).integers(1, 255, csr.nvals)
        store.publish("toy", "dir", csr, weights=weights, spec="s1")
        B, w = store.load("toy", "dir", spec="s1")
        M = B.to_csr()
        assert M.indptr.tobytes() == csr.indptr.tobytes()
        assert M.indices.tobytes() == csr.indices.tobytes()
        assert w.tobytes() == weights.tobytes()
        assert B.nshards == (csr.nrows + 127) // 128

    def test_loaded_arrays_are_read_only_mmap(self, store):
        store.publish("toy", "dir", small_csr(3), spec="s1")
        B, _ = store.load("toy", "dir", spec="s1")
        for shard in B.shards:
            assert not shard.csr.indices.flags.writeable
            with pytest.raises(ValueError):
                shard.csr.indices[0] = 99

    def test_spec_mismatch_is_a_miss_not_a_wrong_answer(self, store):
        store.publish("toy", "dir", small_csr(4), spec="seed=7")
        with pytest.raises(ArtifactMiss):
            store.load("toy", "dir", spec="seed=8")

    def test_missing_artifact_is_a_miss(self, store):
        with pytest.raises(ArtifactMiss):
            store.load("absent", "dir")

    def test_lost_publish_race_returns_winner(self, store):
        csr = small_csr(5)
        first = store.publish("toy", "dir", csr, spec="s")
        races = artifacts.STATS["lost_races"]
        second = store.publish("toy", "dir", csr, spec="s")
        assert first == second
        assert artifacts.STATS["lost_races"] == races + 1
        # The loser's temp dir was cleaned up.
        assert not list(store.root.glob(".tmp-*"))

    def test_geometries_coexist(self, tmp_path):
        csr = small_csr(6)
        a = ArtifactStore(tmp_path, shard_rows=64)
        b = ArtifactStore(tmp_path, shard_rows=1024)
        a.publish("toy", "dir", csr, spec="s")
        b.publish("toy", "dir", csr, spec="s")
        Ba, _ = a.load("toy", "dir", spec="s")
        Bb, _ = b.load("toy", "dir", spec="s")
        assert Ba.nshards > Bb.nshards
        assert Ba.to_csr().indices.tobytes() == \
            Bb.to_csr().indices.tobytes()


class TestCorruption:
    def test_truncated_shard_is_corrupt_at_load(self, store):
        store.publish("toy", "dir", small_csr(7), spec="s")
        victim = next(store.path("toy", "dir").glob("*.indices.npy"))
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactCorrupt):
            store.load("toy", "dir", spec="s")

    def test_bit_flip_passes_load_but_fails_verify(self, store):
        # Payload pages are deliberately not hashed at load (that would
        # fault every page and defeat mmap); verify() streams SHA-256.
        store.publish("toy", "dir", small_csr(8), spec="s")
        victim = next(store.path("toy", "dir").glob("*.indices.npy"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0x01
        victim.write_bytes(bytes(raw))
        problems = store.verify("toy")
        assert problems and "checksum mismatch" in problems[0]

    def test_dataset_rebuilds_after_corruption(self, env_store):
        ds = datasets.get_dataset(GRAPH)
        csr0, w0 = ds.build()
        # Snapshot before corrupting: truncating a file out from under a
        # live mapping makes the *old* arrays SIGBUS on access.
        indices0, w0_bytes = csr0.indices.tobytes(), w0.tobytes()
        del csr0, w0
        datasets.clear_cache()
        victim = next(pathlib.Path(env_store, GRAPH).glob(
            "dir-*/shard-0000.indices.npy"))
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        rebuilds = artifacts.STATS["rebuilds"]
        csr1, w1 = ds.build()  # must not raise
        assert artifacts.STATS["rebuilds"] == rebuilds + 1
        assert csr1.indices.tobytes() == indices0
        assert w1.tobytes() == w0_bytes


class TestDatasetResolution:
    def test_warm_build_does_zero_generation(self, env_store):
        ds = datasets.get_dataset(GRAPH)
        ds.build()
        ds.build_symmetric()
        datasets.clear_cache()
        before = datasets.generation_count()
        csr, w = ds.build()
        sym, sw = ds.build_symmetric()
        assert datasets.generation_count() == before
        assert not csr.indices.flags.writeable  # mmap'd, not rebuilt
        assert sw is sym.values  # symmetrize's alias is preserved

    def test_store_on_off_and_sharded_are_byte_identical(
            self, env_store, monkeypatch):
        ds = datasets.get_dataset(GRAPH)

        def snapshot():
            datasets.clear_cache()
            csr, w = ds.build()
            sym, sw = ds.build_symmetric()
            datasets.clear_cache()
            return (csr.indptr.tobytes(), csr.indices.tobytes(),
                    w.tobytes(), sym.indptr.tobytes(),
                    sym.indices.tobytes(), sw.tobytes())

        with_store = snapshot()
        monkeypatch.setenv("REPRO_SHARD_ROWS", "1024")  # multi-shard
        sharded = snapshot()
        monkeypatch.delenv("REPRO_ARTIFACT_DIR")
        without = snapshot()
        assert with_store == without == sharded

    def test_disabled_store_never_touches_disk(self, tmp_path,
                                               monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert not artifacts.enabled()
        assert artifacts.store_from_env() is None
        datasets.clear_cache()
        datasets.get_dataset(GRAPH).build()
        datasets.clear_cache()
        assert not any(tmp_path.iterdir())

    def test_file_datasets_bypass_the_store(self, env_store, tmp_path):
        path = tmp_path / "toy.el"
        path.write_text("0 1\n1 2\n2 0\n")
        ds = datasets.register_file_dataset("toyfile-art", str(path))
        try:
            ds.build()
            assert not pathlib.Path(env_store, "toyfile-art").exists()
        finally:
            datasets.unregister_dataset("toyfile-art")

    def test_build_blocked_reuses_store_shards(self, env_store,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_ROWS", "1024")
        ds = datasets.get_dataset(GRAPH)
        B = ds.build_blocked()
        assert B.nshards > 1
        assert not B.shards[0].csr.indices.flags.writeable

    def test_modeled_cell_is_identical_with_store(self, env_store,
                                                  isolated_grid,
                                                  monkeypatch):
        def row():
            datasets.clear_cache()
            experiments.clear_cache()
            result = experiments.run_cell("GB", "bfs", GRAPH,
                                          use_cache=False)
            assert result.status == OK
            return json.dumps(experiments.cell_to_row(result),
                              sort_keys=True,
                              default=experiments._jsonify)

        warm = row()                      # cold: generate + publish
        hot = row()                       # warm: pure mmap
        monkeypatch.delenv("REPRO_ARTIFACT_DIR")
        off = row()                       # store disabled
        assert warm == hot == off


class TestGc:
    def test_gc_sweeps_debris_and_unknown_names(self, store):
        store.publish("toy", "dir", small_csr(9), spec="s")
        (store.root / ".tmp-dead").mkdir()
        (store.root / "stale-graph" / "dir-r128").mkdir(parents=True)
        removed = store.gc(known_names=["toy"])
        assert any(".tmp-dead" in p for p in removed)
        assert any("stale-graph" in p for p in removed)
        assert store.has("toy", "dir")

    def test_gc_dry_run_removes_nothing(self, store):
        store.publish("toy", "dir", small_csr(10), spec="s")
        (store.root / ".tmp-dead").mkdir()
        removed = store.gc(known_names=[], dry_run=True)
        assert removed
        assert (store.root / ".tmp-dead").exists()
        assert store.has("toy", "dir")


class TestCli:
    @pytest.fixture(autouse=True)
    def _guard_env(self, monkeypatch):
        # The CLI writes its flags into os.environ (so the dataset
        # machinery sees one store); monkeypatch restores the originals.
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        monkeypatch.delenv("REPRO_SHARD_ROWS", raising=False)
        datasets.clear_cache()
        yield
        datasets.clear_cache()

    def test_build_list_verify_gc_roundtrip(self, tmp_path, capsys):
        root = str(tmp_path / "cli-store")
        assert graphs_cli(["--root", root, "build", GRAPH]) == 0
        assert "built" in capsys.readouterr().out
        assert graphs_cli(["--root", root, "build", GRAPH]) == 0
        assert "up-to-date" in capsys.readouterr().out
        assert graphs_cli(["--root", root, "list"]) == 0
        out = capsys.readouterr().out
        assert f"{GRAPH}/dir" in out and f"{GRAPH}/sym" in out
        assert graphs_cli(["--root", root, "verify"]) == 0
        assert "all checksums match" in capsys.readouterr().out
        assert graphs_cli(["--root", root, "gc"]) == 0

    def test_verify_flags_corruption_with_rc_1(self, tmp_path, capsys):
        root = tmp_path / "cli-store"
        assert graphs_cli(["--root", str(root), "build", GRAPH]) == 0
        victim = next(root.glob(f"{GRAPH}/dir-*/shard-0000.indices.npy"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0x01
        victim.write_bytes(bytes(raw))
        capsys.readouterr()
        assert graphs_cli(["--root", str(root), "verify", GRAPH]) == 1
        assert "checksum mismatch" in capsys.readouterr().err

    def test_no_store_configured_is_usage_error(self, monkeypatch,
                                                capsys):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        assert graphs_cli(["list"]) == 2
        assert "no store configured" in capsys.readouterr().err

    def test_build_nothing_is_usage_error(self, tmp_path, capsys):
        assert graphs_cli(["--root", str(tmp_path), "build"]) == 2
        capsys.readouterr()

    def test_shard_rows_flag_controls_geometry(self, tmp_path, capsys):
        root = str(tmp_path / "cli-store")
        assert graphs_cli(["--root", root, "--shard-rows", "1024",
                           "build", GRAPH]) == 0
        capsys.readouterr()
        assert (pathlib.Path(root) / GRAPH / "dir-r1024").is_dir()


@pytest.mark.slow
class TestPrewarmThroughStore:
    """Real spawn-context workers sharing one published store."""

    def test_second_run_prewarms_with_zero_generation(
            self, tmp_path, isolated_grid, monkeypatch):
        from repro.service import ServiceConfig, grid_tasks, run_grid

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "store"))
        datasets.clear_cache()
        config = ServiceConfig(heartbeat_interval=0.05, cell_deadline=8.0)

        results, line = run_grid(grid_tasks([GRAPH], ["bfs"]), workers=2,
                                 config=config)
        assert all(r.status == OK for r in results.values())
        assert "prewarmed" in line
        # The cold run generates at least once (the publisher), and the
        # summary says so.
        assert "prewarm_generated" in line

        experiments.clear_cache()
        results, line = run_grid(grid_tasks([GRAPH], ["bfs"]), workers=2,
                                 config=config)
        assert all(r.status == OK for r in results.values())
        assert "prewarmed" in line
        # Build-once, load-many: every warm worker mmaps the published
        # artifact; none regenerates.
        assert "prewarm_generated" not in line
        datasets.clear_cache()
