"""The nine scaled input graphs of the study (Table I twins).

Every dataset is a seeded synthetic twin of one of the paper's inputs at
roughly 1/1000 linear scale (see DESIGN.md §5), carrying:

* the generator and weight policy;
* the experiment defaults the paper fixes per graph (§IV): bfs/sssp source
  policy, the ktruss ``k``, the sssp delta, and eukarya's 64-bit distances;
* the paper-scale |V|, |E| and CSR size used to derive each dataset's
  ``scale`` factor, which calibrates the machine model's byte/time scaling.

Builds are cached per process: generating uk07's ~1M edges takes a couple
of seconds and every system under test loads the same object.

When the artifact store is enabled (``REPRO_ARTIFACT_DIR`` set), every
built-in dataset resolves through :mod:`repro.graphs.artifacts` instead
of regenerating per process:
**generate-and-publish on miss, read-only mmap on hit**.  A corrupt
artifact (truncated shard, checksum mismatch) is discarded and rebuilt,
never crashed on.  The arrays a store hit returns are byte-identical to a
fresh generation — the builders are seeded and deterministic — so every
modeled result is unchanged by where the bytes live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import InvalidValue
from repro.graphs import artifacts
from repro.graphs import generators as gen
from repro.graphs.transform import (
    heavy_tailed_weights,
    random_weights,
    symmetrize,
)
from repro.sparse.blocked import BlockedCSR
from repro.sparse.csr import CSRMatrix, build_csr


@dataclass(frozen=True)
class Dataset:
    """One input graph plus its per-graph experiment defaults."""

    name: str
    kind: str
    directed: bool
    native_weights: bool
    weight_style: str  # "random" | "road" | "protein"
    builder: Callable[[], Tuple[int, np.ndarray, np.ndarray]]
    paper_v: float
    paper_e: float
    paper_csr_gb: float
    #: bfs/sssp source: the highest out-degree vertex, except vertex 0 for
    #: road networks (§IV).
    source_policy: str = "max_degree"
    ktruss_k: int = 7
    sssp_delta: int = 1 << 13
    dist_64bit: bool = False
    seed: int = 7
    #: User-registered file datasets bypass the artifact store: the file
    #: is already the durable representation, and its content is not
    #: captured by the (generator, seed) spec the store keys on.
    from_file: bool = False

    # ------------------------------------------------------------------
    def artifact_spec(self) -> str:
        """Cache key tying an artifact to the generator that produced it.

        Any change that alters the generated bytes (builder seed, weight
        policy, store layout version) must land in this string so stale
        artifacts read as misses, not silent wrong answers.
        """
        return (f"v{artifacts.STORE_VERSION}|{self.name}|{self.kind}"
                f"|seed={self.seed}|weights={self.weight_style}"
                f"|native={int(self.native_weights)}")

    def build(self) -> Tuple[CSRMatrix, Optional[np.ndarray]]:
        """The directed CSR and its edge weights (cached per process)."""
        cached = _CACHE.get(self.name)
        if cached is None:
            store = None if self.from_file else artifacts.store_from_env()
            if store is not None:
                csr, weights, blocked_csr = self._resolve(store, "dir")
            else:
                csr, weights = self._generate("dir")
                blocked_csr = None
            cached = {"csr": csr, "weights": weights,
                      "blocked": blocked_csr}
            _CACHE[self.name] = cached
        return cached["csr"], cached["weights"]

    def build_symmetric(self) -> Tuple[CSRMatrix, Optional[np.ndarray]]:
        """The undirected view used by cc, tc and ktruss (cached)."""
        cached = _CACHE.get(self.name)
        if cached is None or "sym" not in cached:
            self.build()
            store = None if self.from_file else artifacts.store_from_env()
            if store is not None:
                sym, sym_w, sym_blocked = self._resolve(store, "sym")
            else:
                sym, sym_w = self._generate("sym")
                sym_blocked = None
            _CACHE[self.name].update({"sym": sym, "sym_weights": sym_w,
                                      "sym_blocked": sym_blocked})
            cached = _CACHE[self.name]
        return cached["sym"], cached["sym_weights"]

    def build_blocked(self, symmetric: bool = False) -> BlockedCSR:
        """The same graph as a shard-partitioned :class:`BlockedCSR`.

        A store hit returns the mmap-backed shards directly (no
        concatenation); otherwise the in-memory CSR is partitioned into
        zero-copy row-range views at the environment's shard geometry.
        """
        if symmetric:
            csr, _ = self.build_symmetric()
            key = "sym_blocked"
        else:
            csr, _ = self.build()
            key = "blocked"
        cached = _CACHE[self.name]
        if cached.get(key) is None:
            cached[key] = BlockedCSR.from_csr(csr)
        return cached[key]

    # -- generation vs store resolution --------------------------------
    def _generate(self, variant: str) -> Tuple[CSRMatrix, Optional[np.ndarray]]:
        """Run the actual builder (the expensive path the store avoids)."""
        global _GENERATIONS
        _GENERATIONS += 1
        if variant == "dir":
            n, src, dst = self.builder()
            csr = build_csr(n, n, src, dst, None, dedup="last")
            return csr, self._make_weights(csr)
        csr, weights = self.build()
        return symmetrize(csr, weights)

    def _resolve(
        self, store: "artifacts.ArtifactStore", variant: str
    ) -> Tuple[CSRMatrix, Optional[np.ndarray], Optional[BlockedCSR]]:
        """Load ``variant`` from the store, publishing it first on a miss.

        Corrupt artifacts (truncated shard, bad structure) are discarded
        and rebuilt.  If publishing itself fails (read-only store, full
        disk) the freshly generated arrays are used directly — the store
        is an accelerator, never a correctness dependency.
        """
        spec = self.artifact_spec()
        try:
            return self._load(store, variant, spec)
        except artifacts.ArtifactMiss:
            pass
        except artifacts.ArtifactCorrupt:
            store.discard(self.name, variant)
            artifacts.STATS["rebuilds"] += 1
        csr, weights = self._generate(variant)
        try:
            if variant == "dir":
                store.publish(self.name, "dir", csr, weights=weights,
                              spec=spec)
            else:
                store.publish(self.name, "sym", csr, spec=spec)
            return self._load(store, variant, spec)
        except (artifacts.ArtifactError, OSError):
            return csr, weights, None

    def _load(
        self, store: "artifacts.ArtifactStore", variant: str, spec: str
    ) -> Tuple[CSRMatrix, Optional[np.ndarray], BlockedCSR]:
        blocked_csr, weights = store.load(self.name, variant, spec=spec)
        csr = blocked_csr.to_csr()
        if variant == "sym":
            # symmetrize() embeds the min-combined weights as CSR values
            # and returns that same array as sym_weights; keep the alias.
            weights = csr.values
        return csr, weights, blocked_csr

    def _make_weights(self, csr: CSRMatrix) -> np.ndarray:
        if self.weight_style == "protein":
            return heavy_tailed_weights(csr.nvals, self.seed + 1)
        # Road distances and the generated random weights share the same
        # uniform 1..255 integer policy.
        return random_weights(csr.nvals, self.seed + 1)

    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """Linear scale factor vs the paper's dataset (edges ratio)."""
        csr, _ = self.build()
        return self.paper_e / max(csr.nvals, 1)

    def source_vertex(self) -> int:
        """The bfs/sssp source under the paper's policy."""
        if self.source_policy == "vertex0":
            return 0
        csr, _ = self.build()
        return int(np.argmax(np.diff(csr.indptr)))

    def __repr__(self):
        return f"Dataset({self.name!r}, kind={self.kind!r})"


_CACHE: Dict[str, dict] = {}

#: Count of expensive builder runs in this process (store hits don't
#: count).  PREBUILD workers snapshot this around a prewarm so the
#: supervisor can assert warm starts do zero generation.
_GENERATIONS = 0


def generation_count() -> int:
    """How many times a dataset was actually generated in this process."""
    return _GENERATIONS


def clear_cache() -> None:
    """Drop all cached builds (tests use this to control memory)."""
    _CACHE.clear()


# ----------------------------------------------------------------------
# The nine graphs, in Table I's size order.
# ----------------------------------------------------------------------

DATASETS: Dict[str, Dataset] = {}


def _register(ds: Dataset) -> Dataset:
    DATASETS[ds.name] = ds
    return ds


ROAD_USA_W = _register(Dataset(
    name="road-USA-W",
    kind="road network",
    directed=True,  # stored directed with both orientations present
    native_weights=True,
    weight_style="road",
    builder=lambda: gen.road_lattice(length=3150, width=2, seed=11),
    paper_v=6.3e6, paper_e=15.1e6, paper_csr_gb=0.2,
    source_policy="vertex0",
    ktruss_k=4,
))

ROAD_USA = _register(Dataset(
    name="road-USA",
    kind="road network",
    directed=True,
    native_weights=True,
    weight_style="road",
    builder=lambda: gen.road_lattice(length=5975, width=4, seed=12),
    paper_v=23.9e6, paper_e=57.7e6, paper_csr_gb=0.6,
    source_policy="vertex0",
    ktruss_k=4,
))

RMAT22 = _register(Dataset(
    name="rmat22",
    kind="synthetic power-law",
    directed=True,
    native_weights=False,
    weight_style="random",
    builder=lambda: gen.rmat(scale=12, edge_factor=16, seed=13),
    paper_v=4.2e6, paper_e=67.1e6, paper_csr_gb=0.5,
))

INDOCHINA04 = _register(Dataset(
    name="indochina04",
    kind="web crawl",
    directed=True,
    native_weights=False,
    weight_style="random",
    builder=lambda: gen.web_crawl(n=7400, out_degree=26, seed=14),
    paper_v=7.4e6, paper_e=191.6e6, paper_csr_gb=1.5,
))

EUKARYA = _register(Dataset(
    name="eukarya",
    kind="protein dataset",
    directed=True,
    native_weights=True,
    weight_style="protein",
    builder=lambda: gen.protein_similarity(n=3200, avg_degree=240,
                                           n_components=5, seed=15),
    paper_v=3.2e6, paper_e=359.7e6, paper_csr_gb=2.8,
    sssp_delta=1 << 20,
    dist_64bit=True,
))

RMAT26 = _register(Dataset(
    name="rmat26",
    kind="synthetic power-law",
    directed=True,
    native_weights=False,
    weight_style="random",
    builder=lambda: gen.rmat(scale=14, edge_factor=16, seed=16),
    paper_v=67.1e6, paper_e=1074e6, paper_csr_gb=8.6,
))

TWITTER40 = _register(Dataset(
    name="twitter40",
    kind="social network",
    directed=True,
    native_weights=False,
    weight_style="random",
    builder=lambda: gen.chung_lu(n=10400, avg_degree=80, in_skew=1.35,
                                 seed=17),
    paper_v=41.7e6, paper_e=1468e6, paper_csr_gb=12.0,
))

FRIENDSTER = _register(Dataset(
    name="friendster",
    kind="social network",
    directed=False,
    native_weights=False,
    weight_style="random",
    builder=lambda: _undirected(gen.chung_lu(n=16400, avg_degree=14,
                                             exponent=2.3, seed=18)),
    paper_v=65.6e6, paper_e=1806e6, paper_csr_gb=28.0,
))

UK07 = _register(Dataset(
    name="uk07",
    kind="web crawl",
    directed=True,
    native_weights=False,
    weight_style="random",
    builder=lambda: gen.web_crawl(n=8200, out_degree=58, seed=19,
                                  copy_prob=0.65),
    paper_v=105.9e6, paper_e=3717e6, paper_csr_gb=29.0,
))

#: The paper's Figure 2 uses the four largest graphs.
LARGEST_FOUR = ("rmat26", "twitter40", "friendster", "uk07")


def _undirected(coo):
    n, src, dst = coo
    return n, np.concatenate([src, dst]), np.concatenate([dst, src])


def get_dataset(name: str) -> Dataset:
    """Look up a dataset by name (built-in or user-registered)."""
    if name not in DATASETS:
        raise InvalidValue(
            f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    return DATASETS[name]


def load_csr(name: str):
    """Convenience: (csr, weights) for a dataset name."""
    return get_dataset(name).build()


def register_file_dataset(
    name: str,
    path: str,
    kind: str = "user graph",
    directed: bool = True,
    paper_e: Optional[float] = None,
    source_policy: str = "max_degree",
    ktruss_k: int = 7,
    sssp_delta: int = 1 << 13,
) -> Dataset:
    """Register a user-supplied graph file as a dataset.

    Accepts the formats of :mod:`repro.graphs.io` (.el/.wel edge lists and
    .mtx MatrixMarket).  ``paper_e`` sets the machine model's scale factor
    (how many paper-scale edges this graph stands for) and must be positive
    and finite; omitted, the graph is treated as full scale (scale ~1: no
    byte/time scaling).  The returned dataset works everywhere the built-in
    nine do — ``run_cell``, ``repro-study`` and the benchmarks.
    """
    from repro.graphs import io as graph_io

    if paper_e is not None and not (0 < float(paper_e) < math.inf):
        raise InvalidValue(
            f"paper_e must be a positive finite edge count, got {paper_e!r}")

    def _build():
        if path.endswith(".mtx"):
            csr, _ = graph_io.read_matrix_market(path)
        else:
            csr, _ = graph_io.read_edge_list(path)
        rows = np.repeat(np.arange(csr.nrows, dtype=np.int64),
                         np.diff(csr.indptr))
        return csr.nrows, rows, csr.indices.astype(np.int64)

    ds = Dataset(
        name=name,
        kind=kind,
        directed=directed,
        native_weights=False,
        weight_style="random",
        builder=_build,
        paper_v=0.0,
        paper_e=0.0,  # resolved below (Dataset is frozen)
        paper_csr_gb=0.0,
        source_policy=source_policy,
        ktruss_k=ktruss_k,
        sssp_delta=sssp_delta,
        from_file=True,
    )
    DATASETS[name] = ds
    if paper_e is not None:
        object.__setattr__(ds, "paper_e", float(paper_e))
    else:
        # Full scale: paper_e equals the actual edge count, so the scale
        # factor resolves to 1.
        csr, _ = ds.build()
        object.__setattr__(ds, "paper_e", float(max(csr.nvals, 1)))
    return ds


def unregister_dataset(name: str) -> None:
    """Remove a user-registered dataset (built-ins may not be removed)."""
    builtin = {"road-USA-W", "road-USA", "rmat22", "indochina04", "eukarya",
               "rmat26", "twitter40", "friendster", "uk07"}
    if name in builtin:
        raise InvalidValue(f"{name!r} is a built-in dataset")
    DATASETS.pop(name, None)
    _CACHE.pop(name, None)
